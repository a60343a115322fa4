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

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .data import Dataset, DataSplits, sample_minibatch
from .models import (
    LossSpec,
    Model,
    TrainConfig,
    _batches,
    _check_soft_targets,
    _Kernel,
    _loop_rows,
    # not called here: the loop uses the step kernel, but perfbench's
    # tracer and self-check expect the name in this namespace
    loss_and_grad,  # noqa: F401
)
from .reference import RefDistConfig, build_refdist
from .textio import AT_LEAST_0, AT_LEAST_1, MOMENTUM, NON_NEGATIVE, POSITIVE, UNIT, check_fields

# Gradient ascent diverges quickly under a full unlearning budget, so
# neggrad always runs exactly this many epochs (a zero budget still
# short-circuits to the identity).
NEGGRAD_EPOCHS = 2


@dataclass(frozen=True)
class MethodSpec:
    """What one unlearning method is; the methods differ only in these.

    rows names the split whose epochs the steps walk, "retain" or
    "forget"; a method whose axes list w pairs each forget batch with a
    fresh retain batch, mixed by w.  forget_loss is the forget rows'
    LossSpec kind: None (no forget term), "neg_ce_hard" (ascent) or
    "kl_to_target" (toward the matched reference distribution).  epochs,
    when set, replaces a non-zero budget.  axes names the UnlearnConfig
    fields besides lr that the method reads and a grid sweeps.
    """

    rows: str
    forget_loss: str | None = None
    epochs: int | None = None
    axes: tuple = ()


METHOD_TABLE = {
    "regun": MethodSpec("forget", "kl_to_target", axes=("w",)),
    "neggrad": MethodSpec("forget", "neg_ce_hard", epochs=NEGGRAD_EPOCHS),
    "neggrad_plus": MethodSpec("forget", "neg_ce_hard", axes=("w",)),
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
    lr: Annotated[float, POSITIVE]
    epochs: Annotated[int, AT_LEAST_0] = 10
    batch_size: Annotated[int, AT_LEAST_1] = 64
    retain_batch_size: Annotated[int | None, AT_LEAST_1] = None
    w: Annotated[float, UNIT] = 0.5
    momentum: Annotated[float, MOMENTUM] = 0.9
    gamma: Annotated[float, NON_NEGATIVE] = 0.0
    num_matched: Annotated[int | None, AT_LEAST_1] = None
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.method not in METHODS:
            raise ValueError(f"unknown unlearning method {self.method!r}")

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            momentum=self.momentum,
            seed=self.seed,
        )


def _run(name: str, model: Model, cfg: UnlearnConfig, x, y0, plan) -> Model:
    """One point of a slice (_run_slice): replay the step plan ``plan``
    of the method METHOD_TABLE[name] from ``model`` on one ``_Kernel``,
    with cfg's lr, momentum, w and gamma and the rows ``x``, ``y0`` that
    ``_loop_rows`` checked.

    A plain step weighs its n rows 1/n, as ``train`` does; a paired step
    stacks its n_f forget rows over its n_r retain rows, weighing
    (1 - w) / n_f and w / n_r.  Forget weights are negated for
    "neg_ce_hard", and gamma is the L1 weight when the record lists it.
    """
    method = METHOD_TABLE[name]
    batches, retain, targets = plan
    sign = -1.0 if method.forget_loss == "neg_ce_hard" else 1.0
    l1 = cfg.gamma if "gamma" in method.axes else 0.0
    weights = {}  # a paired step's (n_f + n_r, 1) row weights by forget batch size
    kernel = _Kernel(model, cfg.lr, cfg.momentum)
    for t, batch in enumerate(batches):
        n = batch.size
        if retain is None:
            kernel.step(kernel.rows(x, batch), y0[batch], sign / n, None, l1)
            continue
        batch_r = retain[t]
        if n not in weights:
            w_f, n_r = sign * (1.0 - cfg.w) / n, batch_r.size
            weights[n] = np.repeat([w_f, cfg.w / n_r], [n, n_r])[:, np.newaxis]
        rows = kernel.rows(x, batch, batch_r)
        # a planned target row stands for every forget row of its step,
        # checked when the plan was built
        if targets is None:
            kernel.step(rows, y0[np.concatenate((batch, batch_r))], weights[n], None, l1)
        else:
            kernel.step(rows, y0[batch_r], weights[n], targets[t], l1)
    return kernel.model


def finetune(model: Model, splits: DataSplits, data: Dataset,
             cfg: UnlearnConfig) -> Model:
    """Continue ordinary training on the retain set only."""
    return next(_run_slice(model, splits, data, [cfg], name="finetune"))


def l1_sparse(model: Model, splits: DataSplits, data: Dataset,
              cfg: UnlearnConfig) -> Model:
    """Finetune on retain with an added gamma * sum(|theta|) penalty.

    gamma == 0 reproduces finetune exactly, bit for bit: both run the
    same code with the same LossSpec.
    """
    return next(_run_slice(model, splits, data, [cfg], name="l1_sparse"))


def neggrad(model: Model, splits: DataSplits, data: Dataset,
            cfg: UnlearnConfig) -> Model:
    """Gradient ascent on the forget set.

    Runs NEGGRAD_EPOCHS epochs whatever budget the config carries,
    except that epochs == 0 stays a no-op like every other method.
    """
    return next(_run_slice(model, splits, data, [cfg], name="neggrad"))


def _build_plan(data, splits, cfg, method, reference) -> tuple:
    """The step plan (batches, retain, targets) of a method's run, all
    read-only arrays: step t, counted over all epochs, takes the walked
    rows ``batches[t]``, one batch of ``_batches``, and when paired the
    retain rows ``retain[t]`` and, for "kl_to_target", the reference
    distribution ``targets[t]`` (each table None otherwise).

    Consumes ``default_rng(cfg.seed)`` as the method's loop always has:
    the epoch shuffles of ``_batches`` over the walked rows, and per
    paired step the retain batch draw, then, for "kl_to_target",
    build_refdist's held-out picks with the frozen ``reference``.  The
    plan depends on neither lr, w, gamma, momentum nor the edited model.
    Sampling errors, CoverageError among them, rise here, before any
    step is taken, with their usual types and messages; so does
    LossSpec's error for the first target row that is no distribution.
    """
    rng = np.random.default_rng(cfg.seed)
    rows = np.asarray(getattr(splits, method.rows), dtype=np.int64)
    epochs = cfg.epochs if not cfg.epochs or method.epochs is None else method.epochs
    steps = epochs * -(-rows.size // cfg.batch_size)
    retain = targets = None
    if "w" in method.axes:
        retain = np.empty((steps, cfg.retain_batch_size or cfg.batch_size), dtype=np.int64)
    if method.forget_loss == "kl_to_target":
        targets = np.empty((steps, data.num_classes))
        ref_cfg = RefDistConfig(num_matched=cfg.num_matched)
    batches = []
    for t, batch in enumerate(_batches(rows, epochs, cfg.batch_size, rng)):
        batches.append(batch)
        if retain is not None:
            retain[t] = sample_minibatch(splits.retain, retain.shape[1], rng)
        if targets is not None:
            targets[t] = build_refdist(data.labels[batch], data, splits.held_out,
                                       reference, ref_cfg, rng=rng)
    if targets is not None:
        _check_soft_targets(targets)
    for table in (*batches, retain, targets):
        if table is not None:
            table.setflags(write=False)
    return tuple(batches), retain, targets


def _run_slice(model: Model, splits: DataSplits, data: Dataset, cfgs,
               reference: Model | None = None, name: str | None = None):
    """Yield, point by point, the model each config of the non-empty
    list ``cfgs`` unlearns from ``model`` by the method ``name``
    (default: the configs' own).

    The configs are one method's points on one seed and may differ only
    in lr, w, momentum and gamma, which nothing before the first step
    reads.  So the slice does once, first to last: the empty-walked-split
    error, the zero-budget identity (each point yields ``model``), the
    row checks of ``_loop_rows`` and ``_build_plan``.  Each point then
    replays the plan (``_run``); the plan lives as long as the generator.
    """
    if len({(c.method, c.seed, c.epochs, c.batch_size, c.retain_batch_size,
             c.num_matched) for c in cfgs}) > 1:
        raise ValueError("a slice's configs may differ only in lr, w, momentum and gamma")
    name = name or cfgs[0].method
    method = METHOD_TABLE[name]
    rows = np.asarray(getattr(splits, method.rows), dtype=np.int64)
    if rows.size == 0:
        raise ValueError(f"{method.rows} index set is empty")
    if cfgs[0].epochs == 0:
        yield from (model for _ in cfgs)
        return
    paired = [np.asarray(splits.retain, dtype=np.int64)] if "w" in method.axes else []
    x, y0 = _loop_rows(model, data, LossSpec("ce_hard"), rows, *paired)
    plan = _build_plan(data, splits, cfgs[0], method,
                       model if reference is None else reference)
    for cfg in cfgs:
        yield _run(name, model, cfg, x, y0, plan)


def neggrad_plus(model: Model, splits: DataSplits, data: Dataset,
                 cfg: UnlearnConfig) -> Model:
    """Ascent on forget batches mixed with descent on retain batches."""
    return next(_run_slice(model, splits, data, [cfg], name="neggrad_plus"))


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
    return next(_run_slice(model, splits, data, [cfg], reference, "regun"))


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
