"""Small differentiable softmax classifiers with exact analytic gradients.

Two architectures are supported: a linear softmax classifier and a
one-hidden-layer MLP (tanh or relu).  Parameters live in a single flat
float64 vector so that optimizers, checkpoints, and gradient checks all
operate on one object.  Every loss used anywhere in the package is
computed here together with its closed-form gradient; there is no
autodiff and no approximation.

All gradients come from one private core, ``_grad``.  It trusts its
inputs, apart from the soft target's length: ``loss_and_grad``
validates one batch and then calls it, while
``train`` and the unlearning loops validate their whole index set once
on entry (``_loop_rows``) and call it once per step.  Log-probabilities
are z - lse(z) per row, with lse(z) = log1p(s / m) + log(m) + c, where
c is the row maximum, m the number of entries equal to c and s the sum
of exp(z - c) over the other entries.  This is scipy's
``logsumexp`` algorithm in plain numpy and gives its bits exactly.

Inference forwards go through ``forward_logits``, which cuts a batch of
more than 1,024 rows into the balanced contiguous blocks of
``_row_blocks``, so its memory is bounded by the block, not the split;
the harness scores a split in the same blocks.  Both layers add their
bias in place and the activation overwrites the pre-activation, so a
forward holds one hidden-layer array.  None of this changes a bit on
the default shapes; for other shapes OpenBLAS may round a row
differently depending on how many rows share the call, by about 1e-14.
Serial and pooled runs cut the same blocks, so they still agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import get_type_hints

import numpy as np

from .textio import check_fields, parse_cell, read_rows, write_rows

ARCH_KINDS = ("linear", "mlp1")
ACTIVATIONS = ("tanh", "relu")
LOSS_KINDS = ("ce_hard", "ce_soft", "kl_to_target", "neg_ce_hard")


@dataclass(frozen=True)
class ArchitectureSpec:
    """Shape of a classifier.

    kind "linear" maps inputs straight to class logits.  kind "mlp1" puts
    one hidden layer of width ``hidden_dim`` with the given activation in
    between.  ``hidden_dim`` must be 0 for linear models and positive for
    mlp1.
    """

    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0
    activation: str = "tanh"

    def __post_init__(self):
        check_fields(self)
        if self.kind not in ARCH_KINDS:
            raise ValueError(f"unknown architecture kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.kind == "linear":
            if self.hidden_dim != 0:
                raise ValueError("linear model takes hidden_dim == 0")
        else:
            if self.hidden_dim < 1:
                raise ValueError("mlp1 needs hidden_dim >= 1")
            if self.activation not in ACTIVATIONS:
                raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def num_params(self) -> int:
        d, k, h = self.input_dim, self.num_classes, self.hidden_dim
        if self.kind == "linear":
            return k * d + k
        return h * d + h + k * h + k


@dataclass(frozen=True, eq=False)
class Model:
    """An architecture plus one flat float64 parameter vector.

    ``theta`` is treated as immutable: every update returns a new Model.
    Layout is row-major per layer, weights before biases.  For linear:
    W (K x d) then b (K).  For mlp1: W1 (h x d), b1 (h), W2 (K x h),
    b2 (K).  ``init_seed`` records which stream initialized the original
    parameters; it travels through updates and checkpoints unchanged.
    """

    arch: ArchitectureSpec
    theta: np.ndarray
    init_seed: int = 0

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.ndim != 1 or theta.shape[0] != self.arch.num_params:
            raise ValueError(
                f"theta has {theta.size} entries, architecture needs "
                f"{self.arch.num_params}"
            )
        object.__setattr__(self, "theta", theta)

    def with_theta(self, theta: np.ndarray) -> "Model":
        return Model(self.arch, theta, self.init_seed)


def unpack_params(model: Model):
    """Return per-layer (W, b) views into the flat parameter vector."""
    arch, theta = model.arch, model.theta
    d, k, h = arch.input_dim, arch.num_classes, arch.hidden_dim
    if arch.kind == "linear":
        w = theta[: k * d].reshape(k, d)
        b = theta[k * d :]
        return [(w, b)]
    o1 = h * d
    o2 = o1 + h
    o3 = o2 + k * h
    w1 = theta[:o1].reshape(h, d)
    b1 = theta[o1:o2]
    w2 = theta[o2:o3].reshape(k, h)
    b2 = theta[o3:]
    return [(w1, b1), (w2, b2)]


def init_model(arch: ArchitectureSpec, seed: int) -> Model:
    """Glorot-uniform weights, zero biases, from a fresh seeded stream.

    Each weight matrix of shape (fan_out, fan_in) is drawn uniformly from
    [-a, a] with a = sqrt(6 / (fan_in + fan_out)).  Matrices are drawn in
    layout order so the stream consumption is fixed.
    """
    rng = np.random.default_rng(seed)
    theta = np.zeros(arch.num_params, dtype=np.float64)
    model = Model(arch, theta, init_seed=seed)
    for w, _b in unpack_params(model):
        fan_out, fan_in = w.shape
        a = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-a, a, size=w.shape)
    return model


def _activate(z: np.ndarray, activation: str) -> None:
    """Apply the activation to ``z`` in place."""
    if activation == "tanh":
        np.tanh(z, out=z)
    else:
        np.maximum(z, 0.0, out=z)


def _activate_grad(a: np.ndarray, activation: str) -> np.ndarray:
    """d activation / d z from the activation ``a`` alone."""
    if activation == "tanh":
        return 1.0 - a * a
    # relu subgradient at 0 is taken as 0; max(z, 0) > 0 exactly where
    # z > 0, NaN and -0.0 included
    return (a > 0.0).astype(np.float64)


def _check_inputs(model: Model, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("inputs must be a 2-d array (batch, input_dim)")
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    if x.shape[1] != model.arch.input_dim:
        raise ValueError(
            f"inputs have {x.shape[1]} features, model expects "
            f"{model.arch.input_dim}"
        )
    return x


def _forward_cached(model: Model, x: np.ndarray):
    """(logits, hidden activation) for the backward pass; the activation
    is None for a linear model.

    Biases are added in place and the activation is written over the
    pre-activation: the same bits as ``x @ w.T + b`` and ``tanh(z)``
    with one (batch, width) array per layer.
    """
    layers = unpack_params(model)
    if model.arch.kind == "linear":
        w, b = layers[0]
        logits = x @ w.T
        logits += b
        return logits, None
    (w1, b1), (w2, b2) = layers
    a1 = x @ w1.T
    a1 += b1
    _activate(a1, model.arch.activation)
    logits = a1 @ w2.T
    logits += b2
    return logits, a1


_BLOCK_ROWS = 1024


def _row_blocks(n: int) -> list:
    """Row slices cutting ``n`` rows into ceil(n / 1,024) contiguous
    blocks of balanced size: one block up to ``_BLOCK_ROWS`` rows, else
    blocks of 512 to 1,024 rows whose sizes differ by at most one."""
    blocks = -(-n // _BLOCK_ROWS)
    bounds = [i * n // blocks for i in range(blocks + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def forward_logits(model: Model, x: np.ndarray) -> np.ndarray:
    """Class logits, shape (batch, num_classes).

    A batch of more than ``_BLOCK_ROWS`` (1,024) rows is forwarded in
    the blocks of ``_row_blocks``, written into one preallocated array,
    so the hidden-layer array stays bounded whatever the split size.
    Blocks are kept large because OpenBLAS picks other kernels for small
    row counts: on the default shapes (32 inputs, 256 hidden units, 10
    classes) blocked logits equal the single-call logits byte for byte,
    but for some shapes a row's last bits depend on how many rows share
    the call (differences near 1e-14).
    """
    x = _check_inputs(model, x)
    blocks = _row_blocks(x.shape[0])
    if len(blocks) == 1:
        return _forward_cached(model, x)[0]
    logits = np.empty((x.shape[0], model.arch.num_classes))
    for rows in blocks:
        logits[rows] = _forward_cached(model, x[rows])[0]
    return logits


def forward_log_probs(model: Model, x: np.ndarray) -> np.ndarray:
    """Row-wise log softmax of the logits."""
    return _log_softmax(forward_logits(model, x))


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """``logits - logsumexp(logits)`` per row.

    The log-sum-exp follows scipy 1.17's ``logsumexp`` step for step, so
    the result equals ``logits - scipy.special.logsumexp(logits, axis=1,
    keepdims=True)`` bit for bit.  With c the row maximum, m the number
    of entries equal to c and s the sum of exp(z - c) over the other
    entries, lse = log1p(s / m) + log(m) + c, added in that order.  Rows
    where that is not finite fall back to log(sum(exp(z))), as scipy's
    do.
    """
    c = logits.max(axis=1, keepdims=True)
    at_max = logits == c
    e = np.exp(logits - c)
    e[at_max] = 0.0
    m = at_max.sum(axis=1, keepdims=True, dtype=np.float64)
    lse = np.log1p(e.sum(axis=1, keepdims=True) / m) + np.log(m) + c
    finite = np.isfinite(lse)
    if not finite.all():
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            direct = np.log(np.exp(logits).sum(axis=1, keepdims=True))
        lse = np.where(finite, lse, direct)
    return logits - lse


def forward_probs(model: Model, x: np.ndarray) -> np.ndarray:
    """Row-wise softmax probabilities.

    The row maximum is subtracted before exponentiation so no overflow
    can occur; every row sums to 1 up to rounding.
    """
    logits = forward_logits(model, x)
    return _softmax(logits)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def kl_divergence(q: np.ndarray, p: np.ndarray) -> float:
    """KL(q || p) in nats between two distributions over classes.

    Terms with q_k = 0 contribute zero.  Any p_k <= 0 where q_k > 0 is a
    domain error.  The result is clamped at zero so rounding noise never
    produces a negative divergence.
    """
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if q.shape != p.shape or q.ndim != 1:
        raise ValueError("q and p must be 1-d arrays of equal length")
    support = q > 0.0
    if np.any(p[support] <= 0.0):
        raise ValueError("p has zero mass where q is positive")
    val = float(np.sum(q[support] * np.log(q[support] / p[support])))
    return max(val, 0.0)


@dataclass(frozen=True)
class LossSpec:
    """Which loss to differentiate.

    kind:
      ce_hard       mean cross-entropy against integer labels
      ce_soft       mean cross-entropy against a fixed soft target
      kl_to_target  mean KL(soft_target || model); same gradient as
                    ce_soft, the loss differs by the target entropy
      neg_ce_hard   ce_hard with loss and gradient negated (ascent)

    soft_target is the distribution used by ce_soft / kl_to_target and is
    shared by every row of the batch.  l1_weight > 0 adds
    l1_weight * sum(|theta|) with subgradient sign(theta), sign(0) = 0.
    """

    kind: str = "ce_hard"
    soft_target: np.ndarray | None = None
    l1_weight: float = 0.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not (math.isfinite(self.l1_weight) and self.l1_weight >= 0.0):
            raise ValueError("l1_weight must be finite and >= 0")
        if self.kind in ("ce_soft", "kl_to_target"):
            if self.soft_target is None:
                raise ValueError(f"{self.kind} needs a soft_target")
            t = np.asarray(self.soft_target, dtype=np.float64)
            if t.ndim != 1:
                raise ValueError("soft_target must be a 1-d distribution")
            _check_soft_targets(t[np.newaxis])
            object.__setattr__(self, "soft_target", t)


def _check_soft_targets(rows: np.ndarray) -> None:
    """Raise LossSpec's ValueError for the first row of the 2-d array
    ``rows`` that is no distribution: one with a negative entry, or a
    sum more than 1e-8 away from 1."""
    negative = np.any(rows < 0.0, axis=1)
    bad = np.flatnonzero(negative | (np.abs(rows.sum(axis=1) - 1.0) > 1e-8))
    if bad.size:
        raise ValueError("soft_target must be a 1-d distribution" if negative[bad[0]]
                         else "soft_target must sum to 1")


HARD_LABEL_KINDS = ("ce_hard", "neg_ce_hard")


def _check_labels(y, num_classes: int, n: int) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != (n,):
        raise ValueError("labels must be 1-d and match the batch size")
    y = y.astype(np.int64)
    if np.any(y < 1) or np.any(y > num_classes):
        raise ValueError(f"labels must lie in [1, {num_classes}]")
    return y


def _grad(model: Model, x: np.ndarray, y0, spec: LossSpec, target=None):
    """The gradient core: log-probabilities and exact d loss / d theta.

    Only the soft target's length is checked here, as it can change
    every step.  ``x`` must be a float64 (batch, input_dim) array and
    ``y0`` the zero-based int64 labels of the batch for the hard-label
    kinds (ignored otherwise); see ``loss_and_grad`` for the checks
    every caller must have made.  ``target``, when given, stands in for
    the spec's soft target: a float64 distribution the caller checked
    (a step plan checks all its rows once).  With p the softmax and t
    the per-row target (one-hot label or the soft target), the logit
    gradient is (p - t) / batch, negated for neg_ce_hard, and is
    back-propagated through the layers.  The L1 subgradient
    l1_weight * sign(theta) is added last.
    """
    n, k = x.shape[0], model.arch.num_classes
    logits, a1 = _forward_cached(model, x)
    log_p = _log_softmax(logits)
    # dz starts as the probabilities; subtracting the target in place
    # gives the same bits as subtracting a dense target array
    dz = np.exp(log_p)
    if spec.kind in HARD_LABEL_KINDS:
        dz[np.arange(n), y0] -= 1.0
    else:
        q = spec.soft_target if target is None else target
        if q.shape[0] != k:
            raise ValueError("soft_target length must equal num_classes")
        dz -= q
    dz /= n
    if spec.kind == "neg_ce_hard":
        dz = -dz

    grad = np.empty_like(model.theta)
    arch = model.arch
    d, h = arch.input_dim, arch.hidden_dim
    if arch.kind == "linear":
        grad[: k * d] = (dz.T @ x).ravel()
        grad[k * d :] = dz.sum(axis=0)
    else:
        (w1, _), (w2, _) = unpack_params(model)
        da1 = dz @ w2
        dz1 = da1 * _activate_grad(a1, arch.activation)
        o1 = h * d
        o2 = o1 + h
        o3 = o2 + k * h
        grad[:o1] = (dz1.T @ x).ravel()
        grad[o1:o2] = dz1.sum(axis=0)
        grad[o2:o3] = (dz.T @ a1).ravel()
        grad[o3:] = dz.sum(axis=0)

    if spec.l1_weight > 0.0:
        grad += spec.l1_weight * np.sign(model.theta)
    return log_p, grad


def loss_and_grad(model: Model, x: np.ndarray, y, spec: LossSpec):
    """Loss value and exact gradient d loss / d theta.

    Checks the batch (2-d, non-empty, input_dim features; labels 1-d,
    one per row and in [1, num_classes] for the hard-label kinds; a
    soft target of length num_classes), then takes the gradient from
    the shared core ``_grad`` and adds the loss value.  Log-probabilities
    are z - lse(z) with the scipy-exact log-sum-exp of ``_log_softmax``.
    The training loops call the core directly after checking their
    whole index set once, so both paths give the same bits.

    Parameters
    ----------
    model : Model
    x : array (batch, input_dim)
    y : integer labels in [1, num_classes] for the hard-label losses,
        ignored (may be None) for ce_soft / kl_to_target
    spec : LossSpec

    Returns
    -------
    (float, np.ndarray) with the gradient flat in theta layout.
    """
    x = _check_inputs(model, x)
    n = x.shape[0]
    hard = spec.kind in HARD_LABEL_KINDS
    y0 = _check_labels(y, model.arch.num_classes, n) - 1 if hard else None
    log_p, grad = _grad(model, x, y0, spec)

    if hard:
        loss = -float(np.mean(log_p[np.arange(n), y0]))
    else:
        q = spec.soft_target
        loss = -float(np.mean(log_p @ q))
        if spec.kind == "kl_to_target":
            # KL(q||p) = CE(q,p) - H(q); the entropy term is constant in
            # theta so the gradient is identical to ce_soft.
            pos = q > 0.0
            loss += float(np.sum(q[pos] * np.log(q[pos])))
    if spec.kind == "neg_ce_hard":
        loss = -loss
    if spec.l1_weight > 0.0:
        loss += spec.l1_weight * float(np.sum(np.abs(model.theta)))
    return loss, grad


def _loop_rows(model: Model, data, spec: LossSpec, *index_sets):
    """Check a training loop's rows once; returns (features, y0).

    Applies to every row of the given index sets what ``loss_and_grad``
    checks per batch: the feature width, and for the hard-label kinds
    labels in [1, num_classes].  ``y0`` holds the zero-based labels of
    the whole dataset (None for the soft-target kinds), so a loop
    indexes both arrays with its batch and calls ``_grad`` directly.
    """
    x = _check_inputs(model, data.features)
    if spec.kind not in HARD_LABEL_KINDS:
        return x, None
    k = model.arch.num_classes
    for idx in index_sets:
        _check_labels(data.labels[idx], k, idx.size)
    return x, np.asarray(data.labels).astype(np.int64) - 1


@dataclass(frozen=True, eq=False)
class OptState:
    """SGD with classical momentum.

    Update rule: v' = momentum * v + g, theta' = theta - lr * v'.
    """

    lr: float
    momentum: float
    velocity: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError("lr must be finite and > 0")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")


def init_opt_state(model: Model, lr: float, momentum: float = 0.0) -> OptState:
    return OptState(lr, momentum, np.zeros_like(model.theta))


def sgd_step(model: Model, grad: np.ndarray, opt: OptState):
    """One momentum-SGD update.  Returns (new model, new opt state)."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != model.theta.shape:
        raise ValueError("gradient length does not match theta")
    if not np.all(np.isfinite(grad)):
        raise ValueError("gradient contains non-finite entries")
    velocity = opt.momentum * opt.velocity + grad
    theta = model.theta - opt.lr * velocity
    return model.with_theta(theta), OptState(opt.lr, opt.momentum, velocity)


@dataclass(frozen=True)
class TrainConfig:
    """Settings for a seeded minibatch SGD pass over an index set."""

    epochs: int
    batch_size: int
    lr: float
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError("lr must be finite and > 0")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")


def train(model: Model, data, indices, cfg: TrainConfig,
          loss: LossSpec | None = None) -> Model:
    """Minibatch SGD over the given rows of ``data``.

    Each epoch draws one seeded permutation of ``indices`` and walks it
    in consecutive batches of ``batch_size`` (last batch may be short).
    The default loss is hard-label cross-entropy; other LossSpec kinds
    reuse the identical schedule, which the unlearning methods rely on.
    epochs == 0 returns the model unchanged.  Identical arguments always
    produce an identical parameter vector, the same one a loop of
    ``loss_and_grad`` and ``sgd_step`` over the same batches gives: the
    features and labels of ``indices`` are checked once before the
    first step instead of once per batch.
    """
    if loss is None:
        loss = LossSpec("ce_hard")
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("cannot train on an empty index set")
    if cfg.epochs == 0:
        return model
    x, y0 = _loop_rows(model, data, loss, indices)
    rng = np.random.default_rng(cfg.seed)
    opt = init_opt_state(model, cfg.lr, cfg.momentum)
    for _ in range(cfg.epochs):
        order = rng.permutation(indices.size)
        shuffled = indices[order]
        for start in range(0, shuffled.size, cfg.batch_size):
            batch = shuffled[start : start + cfg.batch_size]
            yb = None if y0 is None else y0[batch]
            _, grad = _grad(model, x[batch], yb, loss)
            model, opt = sgd_step(model, grad, opt)
    return model


def save_checkpoint(model: Model, path) -> None:
    """Write a model as plain text: header lines, then one value per line.

    Floats are printed with 17 significant digits so a load after save
    reproduces theta bit for bit.
    """
    header = [
        "unlearnlab-checkpoint v1",
        *(f"{name}={getattr(model.arch, name)}"
          for name in get_type_hints(ArchitectureSpec)),
        f"init_seed={model.init_seed}",
        f"num_params={model.theta.size}",
    ]
    write_rows(path, [*([line] for line in header), *([v] for v in model.theta)])


def load_checkpoint(path) -> Model:
    """Inverse of save_checkpoint.  Blank lines are skipped, every value
    must be finite, and a bad value raises ValueError naming its line."""
    lines = read_rows(path)
    if next(lines, (0, None))[1] != ["unlearnlab-checkpoint v1"]:
        raise ValueError(f"{path}: not an unlearnlab checkpoint")
    hints = {**get_type_hints(ArchitectureSpec), "init_seed": int, "num_params": int}
    fields = {}
    for lineno, (cell,) in islice(lines, len(hints)):
        key, _, val = cell.partition("=")
        if key in hints:
            fields[key] = parse_cell(hints[key], val, f"{path} line {lineno}")
    try:
        arch = ArchitectureSpec(**{name: fields[name]
                                   for name in get_type_hints(ArchitectureSpec)})
        init_seed, count = fields["init_seed"], fields["num_params"]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header") from exc
    theta = [parse_cell(float, cell, f"{path} line {lineno}") for lineno, (cell,) in lines]
    if len(theta) != count or count != arch.num_params:
        raise ValueError(f"{path}: parameter count mismatch")
    return Model(arch, np.array(theta, dtype=np.float64), init_seed=init_seed)
