"""Unlearning methods: reference-guided descent plus four baselines.

Every method takes a trained model and the experiment splits and returns
a new model; nothing is mutated.  All of them run plain momentum SGD so
that, seed for seed, any two methods differ only in the loss they
differentiate:

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

import numpy as np

from .data import Dataset, DataSplits, sample_minibatch
from .models import (
    LossSpec,
    Model,
    TrainConfig,
    _grad,
    _loop_rows,
    init_opt_state,
    # not called here: the loops use the core _grad, but perfbench's
    # tracer and self-check expect the name in this namespace
    loss_and_grad,  # noqa: F401
    sgd_step,
    train,
)
from .reference import RefDistConfig, build_refdist

METHODS = ("regun", "neggrad", "neggrad_plus", "finetune", "l1_sparse")

# Gradient ascent diverges quickly under a full unlearning budget, so
# neggrad always runs exactly this many epochs (a zero budget still
# short-circuits to the identity).
NEGGRAD_EPOCHS = 2


@dataclass(frozen=True)
class UnlearnConfig:
    """Shared knob set for all methods.

    w is the retain weight of the two-term objectives: the retain loss
    enters with weight w and the forget term with 1 - w.  gamma is the
    L1 strength used only by l1_sparse.  num_matched is the reference
    sample count per batch (None tracks the forget batch size).
    retain_batch_size defaults to batch_size when None.  Methods without
    a forget/retain mix ignore w.
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
        if self.method not in METHODS:
            raise ValueError(f"unknown unlearning method {self.method!r}")
        if not (self.lr > 0.0):
            raise ValueError("lr must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.retain_batch_size is not None and self.retain_batch_size < 1:
            raise ValueError("retain_batch_size must be >= 1")
        if not (0.0 <= self.w <= 1.0):
            raise ValueError("w must lie in [0, 1]")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if self.gamma < 0.0:
            raise ValueError("gamma must be >= 0")
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


def finetune(model: Model, splits: DataSplits, data: Dataset,
             cfg: UnlearnConfig) -> Model:
    """Continue ordinary training on the retain set only."""
    return train(model, data, splits.retain, cfg.train_config())


def l1_sparse(model: Model, splits: DataSplits, data: Dataset,
              cfg: UnlearnConfig) -> Model:
    """Finetune on retain with an added gamma * sum(|theta|) penalty.

    gamma == 0 reproduces finetune exactly, bit for bit.
    """
    loss = LossSpec("ce_hard", l1_weight=cfg.gamma)
    return train(model, data, splits.retain, cfg.train_config(), loss=loss)


def neggrad(model: Model, splits: DataSplits, data: Dataset,
            cfg: UnlearnConfig) -> Model:
    """Gradient ascent on the forget set.

    Runs NEGGRAD_EPOCHS epochs whatever budget the config carries,
    except that epochs == 0 stays a no-op like every other method.
    """
    if cfg.epochs == 0:
        return model
    loss = LossSpec("neg_ce_hard")
    return train(model, data, splits.forget,
                 cfg.train_config(epochs=NEGGRAD_EPOCHS), loss=loss)


def _paired_updates(model, splits, data, cfg, forget_spec):
    """Epochs over the forget set with a fresh retain batch per step.

    One generator drives everything in a fixed per-step order: the epoch
    shuffle of the forget indices, then for each forget batch the retain
    batch draw, then whatever sampling ``forget_spec(batch_f, rng)``
    performs to build the forget batch's LossSpec.  The combined
    gradient is (1 - w) * forget + w * retain.  Features and labels of
    the forget and retain sets are checked once, before the first step.
    """
    rng = np.random.default_rng(cfg.seed)
    opt = init_opt_state(model, cfg.lr, cfg.momentum)
    retain_bs = cfg.retain_batch_size or cfg.batch_size
    forget = np.asarray(splits.forget, dtype=np.int64)
    if forget.size == 0:
        raise ValueError("forget index set is empty")
    if cfg.epochs == 0:
        return model
    ce = LossSpec("ce_hard")
    retain = np.asarray(splits.retain, dtype=np.int64)
    x, y0 = _loop_rows(model, data, ce, forget, retain)
    for _ in range(cfg.epochs):
        shuffled = forget[rng.permutation(forget.size)]
        for start in range(0, shuffled.size, cfg.batch_size):
            batch_f = shuffled[start : start + cfg.batch_size]
            batch_r = sample_minibatch(retain, retain_bs, rng)
            spec_f = forget_spec(batch_f, rng)
            _, g_f = _grad(model, x[batch_f], y0[batch_f], spec_f)
            _, g_r = _grad(model, x[batch_r], y0[batch_r], ce)
            combined = (1.0 - cfg.w) * g_f + cfg.w * g_r
            model, opt = sgd_step(model, combined, opt)
    return model


def neggrad_plus(model: Model, splits: DataSplits, data: Dataset,
                 cfg: UnlearnConfig) -> Model:
    """Ascent on forget batches mixed with descent on retain batches."""
    neg = LossSpec("neg_ce_hard")
    return _paired_updates(model, splits, data, cfg, lambda batch_f, rng: neg)


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
    ref = model if reference is None else reference
    ref_cfg = RefDistConfig(num_matched=cfg.num_matched)

    def forget_spec(batch_f, rng):
        q = build_refdist(data.labels[batch_f], data, splits.held_out,
                          ref, ref_cfg, rng=rng)
        return LossSpec("kl_to_target", soft_target=q)

    return _paired_updates(model, splits, data, cfg, forget_spec)


def unlearn(model: Model, splits: DataSplits, data: Dataset,
            cfg: UnlearnConfig, reference: Model | None = None) -> Model:
    """Dispatch on cfg.method (see METHODS)."""
    if cfg.method == "regun":
        return regun(model, splits, data, cfg, reference=reference)
    if cfg.method == "neggrad":
        return neggrad(model, splits, data, cfg)
    if cfg.method == "neggrad_plus":
        return neggrad_plus(model, splits, data, cfg)
    if cfg.method == "finetune":
        return finetune(model, splits, data, cfg)
    return l1_sparse(model, splits, data, cfg)
