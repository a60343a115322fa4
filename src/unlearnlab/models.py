"""Small differentiable softmax classifiers with exact analytic gradients.

Two architectures are supported: a linear softmax classifier and a
one-hidden-layer MLP (tanh or relu).  Parameters live in a single flat
float64 vector so that optimizers, checkpoints, and gradient checks all
operate on one object.  Every loss used anywhere in the package is
computed here together with its closed-form gradient; there is no
autodiff and no approximation.

Every loss is one row-weighted loss: row i of a batch carries a target
t_i (a one-hot label or a soft distribution) and a signed weight w_i,
the loss is sum_i w_i * CE(t_i, p_i) and its logit gradient is
(p - t) * w.  The LossSpec kinds weigh each row 1/n (-1/n for
neg_ce_hard); ``LossSpec.weights`` sets the weights row by row.

All gradients come from one private core, ``_grad``, whose p is
``_softmax``, the max-shifted softmax of ``forward_probs`` and the
harness; loss values and log-probability outputs take ``_log_softmax``,
shifted by the same row maximum.  ``loss_and_grad``
validates one batch and then calls the core, while ``train`` and the
unlearning loop validate their whole index set once (``_loop_rows``),
walk the epoch batches of ``_batches`` and step one ``_Kernel``: it
updates a copy of the incoming theta in place (a Model's theta is
never written) with the IEEE operations of the public
``loss_and_grad`` + ``sgd_step`` loop, in order.  Every array a step
touches comes from ``_aligned``, starting on a 64-byte cache line: at
malloc's 16 or 48 bytes past one, AVX-512 ufuncs run up to 2x slower.

Inference forwards go through ``forward_logits``, which cuts a batch of
more than 256 rows into the balanced contiguous blocks of
``_row_blocks``, so its memory is bounded by the block, not the split;
the harness scores a split in the same blocks.  Both layers add their
bias in place and the activation overwrites the pre-activation, so a
forward holds one hidden-layer array (0.5 MB for 256 rows).  None of
this changes a bit on the default shapes, where any block of 121 rows
or more gives a single call's bits; for other shapes OpenBLAS may round
a row differently depending on how many rows share the call, by about
1e-14.
Serial and pooled runs cut the same blocks, so they still agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Annotated, get_type_hints

import numpy as np

from .data import _int_labels
from .textio import (AT_LEAST_0, AT_LEAST_1, AT_LEAST_2, MOMENTUM, NON_NEGATIVE, POSITIVE, _hints,
                     _value, check_fields, parse_cell, read_rows, write_rows)

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
    input_dim: Annotated[int, AT_LEAST_1]
    num_classes: Annotated[int, AT_LEAST_2]
    hidden_dim: int = 0
    activation: str = "tanh"

    def __post_init__(self):
        check_fields(self)
        if self.kind not in ARCH_KINDS:
            raise ValueError(f"unknown architecture kind {self.kind!r}")
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

    ``theta`` is never written once the Model exists: a training loop
    updates a private copy in place and hands it over in a new Model.
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
    return _layers(model.arch, model.theta)


def _layers(arch: ArchitectureSpec, flat: np.ndarray):
    """Per-layer (W, b) views into any flat vector in theta layout."""
    d, k, h = arch.input_dim, arch.num_classes, arch.hidden_dim
    layers, start = [], 0
    for rows, cols in [(k, d)] if arch.kind == "linear" else [(h, d), (k, h)]:
        end = start + rows * cols
        layers.append((flat[start:end].reshape(rows, cols), flat[end : end + rows]))
        start = end + rows
    return layers


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


def _activate_grad(a: np.ndarray, activation: str, out: np.ndarray) -> np.ndarray:
    """d activation / d z from the activation ``a`` alone, into ``out``."""
    if activation == "tanh":
        return np.subtract(1.0, np.multiply(a, a, out=out), out=out)
    # relu subgradient at 0 is taken as 0; max(z, 0) > 0 exactly where
    # z > 0, NaN and -0.0 included
    return np.greater(a, 0.0, out=out)


def _aligned(shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialised C-contiguous array whose data starts on a 64-byte
    (cache-line) boundary; malloc alone guarantees only 16 bytes."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 63, dtype=np.uint8)
    return raw[-raw.ctypes.data % 64 :][:nbytes].view(dtype).reshape(shape)


class _Workspace:
    """What ``_grad`` works in: the (W, b) views of ``model`` and of
    ``grad``, bound once, the one-hot row index by (m, n), and scratch
    by name: ``ws(name, n, width)`` is ``buf[:n]`` of one ``_aligned``
    (rows, width) buffer, so it starts on a cache line, reallocated only
    when more rows are asked for; a short last batch reuses it."""

    def __init__(self, model: Model, grad: np.ndarray | None = None):
        self.layers, self.grad, self.bufs, self.onehot_rows = unpack_params(model), grad, {}, {}
        self.grad_layers = None if grad is None else _layers(model.arch, grad)[::-1]

    def __call__(self, name, n, width):
        buf = self.bufs.get(name)
        if buf is None or len(buf) < n:
            buf = self.bufs[name] = _aligned((n, width))
        return buf[:n]


def _check_inputs(model: Model, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("inputs must be a 2-d array (batch, input_dim)")
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    if x.shape[1] != model.arch.input_dim:
        raise ValueError(f"inputs have {x.shape[1]} features, model expects "
                         f"{model.arch.input_dim}")
    return x


def _forward_cached(model: Model, x: np.ndarray, ws=None):
    """(logits, hidden activation) for the backward pass; the activation
    is None for a linear model.

    Each layer writes its (batch, width) output into the workspace ``ws``
    (a fresh one when None), adds its bias in place and, if hidden,
    writes the activation over it: the same bits as ``tanh(x @ w.T + b)``.
    """
    ws = ws or _Workspace(model)
    *hidden, (w2, b2) = ws.layers
    a1 = None
    if hidden:
        [(w1, b1)] = hidden
        x = a1 = np.matmul(x, w1.T, out=ws("a1", x.shape[0], w1.shape[0]))
        a1 += b1
        _activate(a1, model.arch.activation)
    logits = np.matmul(x, w2.T, out=ws("logits", x.shape[0], w2.shape[0]))
    logits += b2
    return logits, a1


_BLOCK_ROWS = 256


def _row_blocks(n: int) -> list:
    """Row slices cutting ``n`` rows into ceil(n / 256) contiguous
    blocks of balanced size: one block up to ``_BLOCK_ROWS`` rows, else
    blocks of 128 to 256 rows whose sizes differ by at most one.  Do not
    lower the cap: on the default shapes blocks of 120 rows or fewer can
    change bits (a cap of 192 did at 7 of ~150 sizes tried)."""
    blocks = -(-n // _BLOCK_ROWS)
    bounds = [i * n // blocks for i in range(blocks + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def forward_logits(model: Model, x: np.ndarray) -> np.ndarray:
    """Class logits, shape (batch, num_classes).

    A batch of more than ``_BLOCK_ROWS`` (256) rows is forwarded in
    the blocks of ``_row_blocks``, written into one preallocated array,
    so the hidden-layer array stays bounded whatever the split size.
    Blocks are kept at 128 rows or more because OpenBLAS picks other
    kernels for small row counts: on the default shapes (32 inputs, 256
    hidden units, 10 classes) blocks of 121 rows or more give the
    single-call logits byte for byte, but for some shapes a row's last
    bits depend on how many rows share the call (differences near 1e-14).
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
    """Row-wise log softmax, shifted by the row maximum as ``_softmax`` is.
    A row holding +inf or NaN, or only -inf, gives NaN in every entry."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward_probs(model: Model, x: np.ndarray) -> np.ndarray:
    """Row-wise softmax probabilities; every row sums to 1 up to rounding."""
    return _softmax(forward_logits(model, x))


def _softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise exp(z - max) / sum, into ``out`` when given.  The row
    maximum is subtracted before exponentiation, so nothing overflows."""
    p = np.subtract(logits, np.maximum.reduce(logits, axis=1, keepdims=True), out=out)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=1, keepdims=True)
    return p


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


@dataclass(frozen=True, eq=False)
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

    weights, when given, holds one signed weight per batch row in place
    of the mean's 1/n (neg_ce_hard still negates it); a soft kind may
    then give one soft_target row per weight, one-hot rows included.
    """

    kind: str = "ce_hard"
    soft_target: np.ndarray | None = None
    l1_weight: Annotated[float, NON_NEGATIVE] = 0.0
    weights: np.ndarray | None = None

    def __post_init__(self):
        if _value(str, self.kind, "kind") not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        l1_weight = _value(_hints(LossSpec)["l1_weight"], self.l1_weight, "l1_weight")
        object.__setattr__(self, "l1_weight", l1_weight)
        w = None if self.weights is None else np.asarray(self.weights, dtype=np.float64)
        if w is not None and (w.ndim != 1 or not np.isfinite(w).all()):
            raise ValueError("weights must be a 1-d array of finite numbers")
        object.__setattr__(self, "weights", w)
        if self.kind in ("ce_soft", "kl_to_target"):
            if self.soft_target is None:
                raise ValueError(f"{self.kind} needs a soft_target")
            t = np.asarray(self.soft_target, dtype=np.float64)
            if t.ndim != 1 and (w is None or t.shape[:-1] != w.shape):
                raise ValueError("soft_target must be a 1-d distribution or one per weight")
            _check_soft_targets(np.atleast_2d(t))
            object.__setattr__(self, "soft_target", t)


def _check_soft_targets(rows: np.ndarray) -> None:
    """Raise LossSpec's ValueError for the first row of the 2-d array
    ``rows`` that is no distribution: one with a negative or NaN entry,
    or a sum more than 1e-8 away from 1 (an infinite entry's)."""
    negative = ~np.all(rows >= 0.0, axis=1)
    bad = np.flatnonzero(negative | (np.abs(rows.sum(axis=1) - 1.0) > 1e-8))
    if bad.size:
        raise ValueError("soft_target must be a 1-d distribution" if negative[bad[0]]
                         else "soft_target must sum to 1")


HARD_LABEL_KINDS = ("ce_hard", "neg_ce_hard")


def _check_labels(y, num_classes: int, n: int) -> np.ndarray:
    y = _int_labels(y)
    if y.shape != (n,):
        raise ValueError("labels must be 1-d and match the batch size")
    if np.any(y < 1) or np.any(y > num_classes):
        raise ValueError(f"labels must lie in [1, {num_classes}]")
    return y


def _grad(model: Model, x: np.ndarray, y0, weight, target=None, l1_weight=0.0,
          ws=None):
    """The gradient core of the one row-weighted loss: (logits, exact
    d loss / d theta).  ``x`` is a float64 (batch, input_dim) array that
    passed the checks of ``loss_and_grad``.  The last ``y0.size`` rows
    take the one-hot targets of the zero-based int64 labels ``y0`` (none
    when None), the rows before them ``target``: one distribution for
    all or one per row, checked by the caller except for its length (a
    step plan checks all its rows once).  ``weight`` is one row weight
    or an (n, 1) column.  The logit gradient (p - t) * weight, with p
    the ``_softmax`` of the logits, is back-propagated, then
    l1_weight * sign(theta) is added.  The (batch, width) intermediates
    go into the ``_Workspace`` ``ws`` and the gradient into its vector;
    both are allocated when None.
    """
    ws = ws or _Workspace(model, np.empty_like(model.theta))
    n, k = x.shape[0], model.arch.num_classes
    logits, a1 = _forward_cached(model, x, ws)
    dz = _softmax(logits, out=ws("dz", n, k))
    # subtracting the targets in place gives the same bits as
    # subtracting a dense target array
    m = n if y0 is None else n - y0.size
    if target is not None:
        if target.shape[-1] != k:
            raise ValueError("soft_target length must equal num_classes")
        dz[:m] -= target
    if y0 is not None:
        if (m, n) not in ws.onehot_rows:
            ws.onehot_rows[m, n] = np.arange(m, n)
        dz[ws.onehot_rows[m, n], y0] -= 1.0
    dz *= weight

    # each block is written through its (W, b) view into the gradient
    (gw, gb), *hidden = ws.grad_layers
    np.matmul(dz.T, x if a1 is None else a1, out=gw)
    np.add.reduce(dz, axis=0, out=gb)
    if a1 is not None:
        [(gw1, gb1)] = hidden
        dz1 = np.matmul(dz, ws.layers[1][0], out=ws("da1", *a1.shape))
        dz1 *= _activate_grad(a1, model.arch.activation, ws("act", *a1.shape))
        np.matmul(dz1.T, x, out=gw1)
        np.add.reduce(dz1, axis=0, out=gb1)

    if l1_weight > 0.0:
        sign = np.sign(model.theta, out=ws("l1", 1, model.theta.size)[0])
        sign *= l1_weight
        ws.grad += sign
    return logits, ws.grad


def _row_weight(spec: LossSpec, n: int):
    """An n-row batch's row weight: 1/n, or the spec's weights as an
    (n, 1) column; negated for neg_ce_hard."""
    if spec.weights is not None and spec.weights.size != n:
        raise ValueError(f"weights hold {spec.weights.size} entries for {n} rows")
    w = 1.0 / n if spec.weights is None else spec.weights[:, np.newaxis]
    return -w if spec.kind == "neg_ce_hard" else w


def loss_and_grad(model: Model, x: np.ndarray, y, spec: LossSpec):
    """Loss value and exact gradient d loss / d theta.

    Checks the batch (2-d, non-empty, input_dim features; labels 1-d,
    one per row and in [1, num_classes] for the hard-label kinds; a
    soft target of length num_classes; one weight per row; ``y`` is
    ignored and may be None for ce_soft / kl_to_target), then takes the
    gradient, flat in theta layout, from the shared core ``_grad`` and
    adds the loss value: the weighted sum of the rows' CE (KL for
    kl_to_target) from ``_log_softmax``.  The training
    loops call the core directly after checking their whole index set
    once, so both paths give the same bits.
    """
    x = _check_inputs(model, x)
    n = x.shape[0]
    hard = spec.kind in HARD_LABEL_KINDS
    y0 = _check_labels(y, model.arch.num_classes, n) - 1 if hard else None
    q, weight = None if hard else spec.soft_target, _row_weight(spec, n)
    logits, grad = _grad(model, x, y0, weight, q, spec.l1_weight)
    log_p = _log_softmax(logits)
    if hard:
        rows = -log_p[np.arange(n), y0]
    else:
        rows = -(log_p * q).sum(axis=-1)
        if spec.kind == "kl_to_target":
            # KL(q||p) = CE(q,p) - H(q); the entropy term is constant in
            # theta so the gradient is identical to ce_soft.
            rows += (q * np.log(q, out=np.zeros_like(q), where=q > 0.0)).sum(axis=-1)
    loss = float(np.sum(rows[:, np.newaxis] * weight))
    if spec.l1_weight > 0.0:
        loss += spec.l1_weight * float(np.sum(np.abs(model.theta)))
    return loss, grad


def _loop_rows(model: Model, data, spec: LossSpec, *index_sets):
    """Check once, for every row of the index sets, what ``loss_and_grad``
    checks per batch (feature width; labels for the hard-label kinds),
    and that each index i names a row of ``data``: 0 <= i < n.
    Returns the features and the zero-based labels of the whole dataset
    (None for the soft-target kinds), which a loop indexes by batch."""
    x, hard = _check_inputs(model, data.features), spec.kind in HARD_LABEL_KINDS
    for idx in index_sets:
        bad = idx[(idx < 0) | (idx >= len(x))]
        if bad.size:
            raise ValueError(f"row index {bad[0]} is outside the data's {len(x)} rows")
        if hard:
            _check_labels(data.labels[idx], model.arch.num_classes, idx.size)
    return x, np.asarray(data.labels).astype(np.int64) - 1 if hard else None


@dataclass(frozen=True, eq=False)
class OptState:
    """SGD with classical momentum.

    Update rule: v' = momentum * v + g, theta' = theta - lr * v'.
    """

    lr: Annotated[float, POSITIVE]
    momentum: Annotated[float, MOMENTUM]
    velocity: np.ndarray

    def __post_init__(self):
        check_fields(self)


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


class _Kernel:
    """One SGD run's state, updated in place: a copy of the incoming
    theta (the caller's is never written), the velocity, the update
    temporary, the gradient and a ``_Workspace``, whose row buffer
    ``rows`` fills with each step's features.  All are ``_aligned``, as
    misaligned operands slow a step's ufuncs up to 2x.  ``step`` is
    ``_grad`` then ``sgd_step`` in place: same check, message and IEEE
    operations in order.  ``model`` holds theta, handed over at the end."""

    def __init__(self, model: Model, lr: float, momentum: float):
        shape, self.lr, self.momentum = model.theta.shape, lr, momentum
        theta, self.velocity, self.tmp, grad = (_aligned(shape) for _ in range(4))
        self.finite = _aligned(shape, np.bool_)
        theta[...], self.velocity[...] = model.theta, 0.0
        self.model = model.with_theta(theta)
        self.ws = _Workspace(self.model, grad)

    def rows(self, x, *parts) -> np.ndarray:
        """``x[concatenate(parts)]``, gathered into the aligned row buffer.

        Every index must already lie in [0, len(x)), as ``_loop_rows``
        checks before the first step: mode "clip" skips mode "raise"'s
        bounce buffer, but would clamp an out-of-range index silently."""
        out = self.ws("x", sum(p.size for p in parts), x.shape[1])
        for part, stop in zip(parts, accumulate(p.size for p in parts)):
            x.take(part, axis=0, out=out[stop - part.size : stop], mode="clip")
        return out

    def step(self, x, y0, weight, target=None, l1_weight: float = 0.0) -> None:
        """One update on the weighted loss of ``_grad`` (same arguments)."""
        grad = _grad(self.model, x, y0, weight, target, l1_weight, self.ws)[1]
        if not np.logical_and.reduce(np.isfinite(grad, out=self.finite)):
            raise ValueError("gradient contains non-finite entries")
        self.velocity *= self.momentum
        self.velocity += grad
        np.multiply(self.velocity, self.lr, out=self.tmp)
        theta = self.model.theta
        theta -= self.tmp


@dataclass(frozen=True)
class TrainConfig:
    """Settings for a seeded minibatch SGD pass over an index set."""

    epochs: Annotated[int, AT_LEAST_0]
    batch_size: Annotated[int, AT_LEAST_1]
    lr: Annotated[float, POSITIVE]
    momentum: Annotated[float, MOMENTUM] = 0.9
    seed: int = 0

    def __post_init__(self):
        check_fields(self)


def _batches(rows: np.ndarray, epochs: int, batch_size: int, rng):
    """The SGD schedule of every training loop: per epoch, one ``rng``
    permutation of ``rows`` cut into consecutive batches of ``batch_size``
    (the last may be short), drawn when the epoch's first batch is asked
    for, so a step plan's own draws may come between batches."""
    for _ in range(epochs):
        shuffled = rows[rng.permutation(rows.size)]
        for start in range(0, rows.size, batch_size):
            yield shuffled[start : start + batch_size]


def train(model: Model, data, indices, cfg: TrainConfig,
          loss: LossSpec | None = None) -> Model:
    """Minibatch SGD over the given rows of ``data``.

    The batches are ``_batches`` of ``indices`` seeded with cfg.seed,
    the schedule the unlearning methods' step plans walk as well.  The
    default loss is hard-label cross-entropy.  epochs == 0 returns the
    model unchanged.  Identical arguments always produce an identical
    parameter vector, the same one a loop of ``loss_and_grad`` and
    ``sgd_step`` over the same batches gives: the features and labels
    of ``indices`` are checked once before the first step instead of
    once per batch.
    """
    if loss is None:
        loss = LossSpec("ce_hard")
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("cannot train on an empty index set")
    if cfg.epochs == 0:
        return model
    x, y0 = _loop_rows(model, data, loss, indices)
    q = loss.soft_target if y0 is None else None
    kernel = _Kernel(model, cfg.lr, cfg.momentum)
    for batch in _batches(indices, cfg.epochs, cfg.batch_size,
                          np.random.default_rng(cfg.seed)):
        kernel.step(kernel.rows(x, batch), None if y0 is None else y0[batch],
                    _row_weight(loss, batch.size), q, loss.l1_weight)
    return kernel.model


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
