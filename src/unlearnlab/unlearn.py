"""Unlearning methods: reference-guided descent plus four baselines.

Every method takes a trained model and the experiment splits and returns
a new model; nothing is mutated.  All of them run plain momentum SGD so
that, seed for seed, any two methods differ only in the loss they
differentiate, which one MethodSpec record per method in METHOD_TABLE
describes:

  finetune      cross-entropy on retain only
  l1_sparse     finetune plus an L1 penalty on the parameters
  neggrad       gradient ascent on the forget set (fixed 2 epochs)
  neggrad_plus  weighted mix of ascent on forget and descent on retain
  regun         descent of KL(q || model) on forget, where q is the
                histogram-matched reference distribution, mixed with
                descent on retain

A zero epoch budget is the identity for every method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, DataSplits, sample_minibatch
from .models import (
    LossSpec,
    Model,
    TrainConfig,
    _check_soft_targets,
    _Kernel,
    _loop_rows,
    # not called here: the loop uses the step kernel, but perfbench's
    # tracer and self-check expect the name in this namespace
    loss_and_grad,  # noqa: F401
    train,
)
from .reference import RefDistConfig, build_refdist
from .textio import check_fields

# Gradient ascent diverges quickly under a full unlearning budget, so
# neggrad always runs exactly this many epochs (a zero budget still
# short-circuits to the identity).
NEGGRAD_EPOCHS = 2


@dataclass(frozen=True)
class MethodSpec:
    """What one unlearning method is; the methods differ only in these.

    rows is what each step differentiates: "retain" or "forget" rows
    through ``train``, or "paired" forget batches each with a fresh
    retain batch, mixed by w.  forget_loss is the forget rows' LossSpec
    kind: None (no forget term), "neg_ce_hard" (ascent) or
    "kl_to_target" (toward the matched reference distribution).  epochs,
    when set, replaces a non-zero budget.  axes names the UnlearnConfig
    fields besides lr that the method reads and a grid sweeps.
    """

    rows: str
    forget_loss: str | None = None
    epochs: int | None = None
    axes: tuple = ()


METHOD_TABLE = {
    "regun": MethodSpec("paired", "kl_to_target", axes=("w",)),
    "neggrad": MethodSpec("forget", "neg_ce_hard", epochs=NEGGRAD_EPOCHS),
    "neggrad_plus": MethodSpec("paired", "neg_ce_hard", axes=("w",)),
    "finetune": MethodSpec("retain"),
    "l1_sparse": MethodSpec("retain", axes=("gamma",)),
}

METHODS = tuple(METHOD_TABLE)


@dataclass(frozen=True)
class UnlearnConfig:
    """Shared knob set for all methods.

    w is the retain weight of the two-term objectives: the retain loss
    enters with weight w and the forget term with 1 - w.  gamma is the
    L1 strength.  A method reads w and gamma only when its record in
    METHOD_TABLE lists them.  num_matched is the reference sample count
    per batch (None tracks the forget batch size).  retain_batch_size
    defaults to batch_size when None.
    """

    method: str
    lr: float
    epochs: int = 10
    batch_size: int = 64
    retain_batch_size: int | None = None
    w: float = 0.5
    momentum: float = 0.9
    gamma: float = 0.0
    num_matched: int | None = None
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.method not in METHODS:
            raise ValueError(f"unknown unlearning method {self.method!r}")
        self.train_config()  # checks epochs, batch_size, lr and momentum
        if self.retain_batch_size is not None and self.retain_batch_size < 1:
            raise ValueError("retain_batch_size must be >= 1")
        if not (0.0 <= self.w <= 1.0):
            raise ValueError("w must lie in [0, 1]")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError("gamma must be finite and >= 0")
        if self.num_matched is not None and self.num_matched < 1:
            raise ValueError("num_matched must be >= 1")

    def train_config(self, epochs: int | None = None) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs if epochs is None else epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            momentum=self.momentum,
            seed=self.seed,
        )


def _run(name: str, model: Model, splits: DataSplits, data: Dataset,
         cfg: UnlearnConfig, reference: Model | None = None, build_plan=None) -> Model:
    """Run the method METHOD_TABLE[name] describes."""
    method = METHOD_TABLE[name]
    if method.rows == "paired":
        return _paired_updates(model, splits, data, cfg, method.forget_loss,
                               model if reference is None else reference, build_plan)
    epochs = cfg.epochs
    if epochs and method.epochs is not None:
        epochs = method.epochs
    l1 = cfg.gamma if "gamma" in method.axes else 0.0
    loss = LossSpec(method.forget_loss or "ce_hard", l1_weight=l1)
    return train(model, data, getattr(splits, method.rows),
                 cfg.train_config(epochs), loss=loss)


def finetune(model: Model, splits: DataSplits, data: Dataset,
             cfg: UnlearnConfig) -> Model:
    """Continue ordinary training on the retain set only."""
    return _run("finetune", model, splits, data, cfg)


def l1_sparse(model: Model, splits: DataSplits, data: Dataset,
              cfg: UnlearnConfig) -> Model:
    """Finetune on retain with an added gamma * sum(|theta|) penalty.

    gamma == 0 reproduces finetune exactly, bit for bit: both run the
    same code with the same LossSpec.
    """
    return _run("l1_sparse", model, splits, data, cfg)


def neggrad(model: Model, splits: DataSplits, data: Dataset,
            cfg: UnlearnConfig) -> Model:
    """Gradient ascent on the forget set.

    Runs NEGGRAD_EPOCHS epochs whatever budget the config carries,
    except that epochs == 0 stays a no-op like every other method.
    """
    return _run("neggrad", model, splits, data, cfg)


@dataclass(frozen=True, eq=False)
class _StepPlan:
    """Everything a paired run draws, drawn ahead of its first step.

    ``order[e]`` is epoch e's shuffle of the forget rows, cut into
    batches in order; step t, counted over all epochs, takes the retain
    rows ``retain[t]`` and, for the "kl_to_target" forget loss, the
    reference distribution ``targets[t]`` (None otherwise).  The arrays
    are read-only because every point of a slice replays the same plan
    (see _run_slice).
    """

    order: np.ndarray
    retain: np.ndarray
    targets: np.ndarray | None


def _build_plan(data, splits, cfg, forget_loss, reference) -> _StepPlan:
    """Consume ``default_rng(cfg.seed)`` as the paired loop always has:
    the epoch shuffle of the forget rows, then per step the retain
    batch draw and, for "kl_to_target", build_refdist's held-out picks
    with the frozen ``reference``.

    Sampling errors, CoverageError among them, rise here, before any
    step is taken, with their usual types and messages; so does
    LossSpec's error for the first target row that is no distribution.
    """
    rng = np.random.default_rng(cfg.seed)
    forget = np.asarray(splits.forget, dtype=np.int64)
    retain = np.asarray(splits.retain, dtype=np.int64)
    retain_bs = cfg.retain_batch_size or cfg.batch_size
    steps = cfg.epochs * -(-forget.size // cfg.batch_size)
    order = np.empty((cfg.epochs, forget.size), dtype=np.int64)
    retain_rows = np.empty((steps, retain_bs), dtype=np.int64)
    targets = None
    if forget_loss == "kl_to_target":
        targets = np.empty((steps, data.num_classes))
        ref_cfg = RefDistConfig(num_matched=cfg.num_matched)
    t = 0
    for epoch in range(cfg.epochs):
        order[epoch] = forget[rng.permutation(forget.size)]
        for start in range(0, forget.size, cfg.batch_size):
            retain_rows[t] = sample_minibatch(retain, retain_bs, rng)
            if targets is not None:
                batch_f = order[epoch, start : start + cfg.batch_size]
                targets[t] = build_refdist(data.labels[batch_f], data, splits.held_out,
                                           reference, ref_cfg, rng=rng)
            t += 1
    if targets is not None:
        _check_soft_targets(targets)
    for table in (order, retain_rows, targets):
        if table is not None:
            table.setflags(write=False)
    return _StepPlan(order, retain_rows, targets)


def _paired_updates(model, splits, data, cfg, forget_loss, reference, build_plan=None):
    """Epochs over the forget set with a fresh retain batch per step.

    Every draw comes from the run's step plan, which depends on the seed,
    the loader knobs, the index sets, the pool labels and, for
    "kl_to_target", the frozen ``reference`` model, but never on lr, w,
    momentum or the model being edited.  The plan comes from the caller's
    ``build_plan`` (default _build_plan, called with its arguments), so a
    slice can build it once for all its points (see _run_slice).  The
    combined gradient is (1 - w) * forget + w * retain.  Features and
    labels of the forget and retain sets are checked once, before the
    plan is asked for.
    """
    forget = np.asarray(splits.forget, dtype=np.int64)
    if forget.size == 0:
        raise ValueError("forget index set is empty")
    if cfg.epochs == 0:
        return model
    ce = LossSpec("ce_hard")
    retain = np.asarray(splits.retain, dtype=np.int64)
    x, y0 = _loop_rows(model, data, ce, forget, retain)
    plan = (build_plan or _build_plan)(data, splits, cfg, forget_loss, reference)
    targets = plan.targets
    # one spec for every step; a planned target row replaces its soft
    # target, checked when the plan was built
    spec_f = LossSpec(forget_loss, soft_target=None if targets is None else targets[0])
    forget_batches = (shuffled[start : start + cfg.batch_size] for shuffled in plan.order
                      for start in range(0, shuffled.size, cfg.batch_size))
    kernel = _Kernel(model, cfg.lr, cfg.momentum)
    for t, batch_f in enumerate(forget_batches):
        batch_r = plan.retain[t]
        g_f = kernel.grad(x[batch_f], y0[batch_f], spec_f,
                          None if targets is None else targets[t])
        g_r = kernel.grad(x[batch_r], y0[batch_r], ce, slot=1)
        g_f *= 1.0 - cfg.w
        g_r *= cfg.w
        g_f += g_r
        kernel.step(g_f)
    return kernel.model


def _run_slice(model: Model, splits: DataSplits, data: Dataset, cfgs,
               reference: Model | None = None):
    """Yield the model each config of ``cfgs`` unlearns from ``model``, in order.

    The configs are one method's points on one seed and may differ only
    in lr, w, momentum and gamma, which no step plan reads.  So a paired
    method builds its plan once, at the first point that takes a step,
    and every later point replays it; the plan lives as long as the
    generator.
    """
    if len({(c.method, c.seed, c.epochs, c.batch_size, c.retain_batch_size,
             c.num_matched) for c in cfgs}) > 1:
        raise ValueError("a slice's configs may differ only in lr, w, momentum and gamma")
    plan = None

    def build_plan(*args):
        nonlocal plan
        if plan is None:
            plan = _build_plan(*args)
        return plan

    for cfg in cfgs:
        yield _run(cfg.method, model, splits, data, cfg, reference, build_plan)


def neggrad_plus(model: Model, splits: DataSplits, data: Dataset,
                 cfg: UnlearnConfig) -> Model:
    """Ascent on forget batches mixed with descent on retain batches."""
    return _run("neggrad_plus", model, splits, data, cfg)


def regun(model: Model, splits: DataSplits, data: Dataset,
          cfg: UnlearnConfig, reference: Model | None = None) -> Model:
    """Reference-guided unlearning.

    Per forget batch, a reference distribution q is built from held-out
    rows whose class mix matches the batch (see build_refdist), and the
    forget term is the mean KL(q || model prediction).  Forget labels
    are read only to build that class histogram; the forget loss itself
    ignores them.  The reference model defaults to the incoming model,
    frozen before the first update, so q never chases the parameters
    being edited.  Passing an explicit ``reference`` swaps in any other
    model (for example a retrained oracle) without changing anything
    else.
    """
    return _run("regun", model, splits, data, cfg, reference)


def unlearn(model: Model, splits: DataSplits, data: Dataset,
            cfg: UnlearnConfig, reference: Model | None = None) -> Model:
    """Dispatch on cfg.method (see METHODS).

    The call goes through the method's module-level function, so a
    wrapper installed under that name sees it.  ``reference`` reaches
    only the methods whose forget term distils toward a reference.
    """
    fn = globals()[cfg.method]
    if METHOD_TABLE[cfg.method].forget_loss == "kl_to_target":
        return fn(model, splits, data, cfg, reference=reference)
    return fn(model, splits, data, cfg)
