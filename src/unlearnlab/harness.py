"""Experiment orchestration: train, unlearn, evaluate, aggregate, report.

One ExperimentConfig fully determines a run.  Per seed the harness
generates (or loads) data, splits it, trains the base model on
forget + retain, the retrain oracle on retain only, and the attack
reference models on fresh draws; every enabled method then runs over its
hyperparameter grid from the base model, and each result is scored
against the same-seed oracle.  Reports are plain CSV plus a JSON
manifest, written so that identical configs produce identical bytes.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import partial
from itertools import product, zip_longest
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .data import (
    Dataset,
    DataSplits,
    GenSpec,
    generate_gaussian_mixture,
    load_csv,
    make_splits,
)
from .metrics import (
    REPORT_FIELDS,
    AttackScores,
    MetricsReport,
    _hits,
    _percent,
    _reference_mean,
    _rmia,
    _true_label,
    aggregate_seeds,
    attack_auc,
    js_divergence,
    with_gaps,
)
from .models import (
    ArchitectureSpec,
    Model,
    TrainConfig,
    _log_softmax,
    _row_blocks,
    _softmax,
    forward_logits,
    forward_probs,
    init_model,
    train,
)
from .textio import _EXPECTED, _value, check_fields, parse_cell, read_rows, write_rows
from .unlearn import METHOD_TABLE, METHODS, UnlearnConfig, _run_slice

REPORT_FORMAT = "unlearnlab-run v1"

# Methods whose objective mixes a forget and a retain term, in METHODS
# order; for the others w is meaningless and collapses to a single grid
# point.
W_METHODS = tuple(m for m in METHODS if "w" in METHOD_TABLE[m].axes)

SELECTION_RULE = (
    "argmin over the grid of |forget_acc - val_acc| + "
    "max(0, base_val_acc - val_acc) on seed-averaged accuracies; "
    "ties broken by higher val_acc, then lower lr, then lower w, "
    "then lower gamma"
)

DEFAULT_SWEEP_WS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

# Purpose tags for deriving independent child streams from one
# experiment seed; the indexed ones take a per-model counter.
_STREAMS = {
    "data": 0,
    "test": 1,
    "split": 2,
    "init": 3,
    "base": 4,
    "retrain_init": 5,
    "retrain": 6,
    "unlearn": 7,
    "ref_data": 8,
    "ref_init": 9,
    "ref_train": 10,
}


def derive_seed(seed: int, stream: str, index: int = 0) -> int:
    """Stable child seed for one purpose within one experiment seed."""
    entropy = [seed, _STREAMS[stream], index]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class MethodGrid:
    """Hyperparameter grid for one method.

    Only the axes a method actually reads are expanded: lr always, w and
    gamma when its record in METHOD_TABLE lists them.  The remaining
    loader knobs are fixed per method, not swept: ``batch_size`` (None
    means inherit the base training batch size), ``retain_batch_size``
    and ``num_matched`` (None means the per-step forget batch size).
    """

    lrs: tuple[float, ...] = (0.05,)
    ws: tuple[float, ...] = (0.5,)
    gammas: tuple[float, ...] = (0.0,)
    batch_size: int | None = None
    retain_batch_size: int | None = None
    num_matched: int | None = None

    def __post_init__(self):
        check_fields(self, "grid ")
        if not self.lrs or not self.ws or not self.gammas:
            raise ValueError("grid axes must be non-empty")
        if not all(math.isfinite(lr) and lr > 0 for lr in self.lrs):
            raise ValueError("grid lrs must be finite and > 0")
        if any(not (0.0 <= w <= 1.0) for w in self.ws):
            raise ValueError("grid ws must lie in [0, 1]")
        if not all(math.isfinite(g) and g >= 0 for g in self.gammas):
            raise ValueError("grid gammas must be finite and >= 0")
        for name in ("batch_size", "retain_batch_size", "num_matched"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"grid {name} must be >= 1")


_DEFAULT_GRID = MethodGrid()


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything a full run depends on.

    Data comes either from the Gaussian-mixture generator (``gen``) or
    from CSV files; exactly one source must be set.  ``base`` is the
    training recipe shared by the base model, the retrain oracle, and
    the attack reference models (its seed field is ignored; per-seed
    streams are derived).  Unlearning takes lr / w / gamma and the fixed
    loader knobs from the per-method grids, momentum from ``base``.
    """

    arch: ArchitectureSpec
    gen: GenSpec | None = None
    pool_csv: str | None = None
    test_csv: str | None = None
    csv_header: bool = False
    forget_fraction: float = 0.1
    base: TrainConfig = TrainConfig(epochs=60, batch_size=64, lr=0.05)
    unlearn_epochs: int = 10
    methods: dict[str, MethodGrid] = field(default_factory=dict)
    seeds: tuple[int, ...] = (0, 1, 2)
    rmia_refs: int = 4

    def __post_init__(self):
        check_fields(self)
        if (self.gen is None) == (self.pool_csv is None):
            raise ValueError("configure exactly one of gen or pool_csv")
        if self.pool_csv is not None and self.test_csv is None:
            raise ValueError("CSV data needs both pool_csv and test_csv")
        if self.gen is not None:
            if self.gen.num_classes != self.arch.num_classes:
                raise ValueError("gen and arch disagree on num_classes")
            if self.gen.input_dim != self.arch.input_dim:
                raise ValueError("gen and arch disagree on input_dim")
        if not (0.0 < self.forget_fraction < 1.0):
            raise ValueError("forget_fraction must lie strictly in (0, 1)")
        if self.unlearn_epochs < 0:
            raise ValueError("unlearn_epochs must be >= 0")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if any(s < 0 for s in self.seeds):
            raise ValueError("seeds must be >= 0")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if self.rmia_refs < 1:
            raise ValueError("rmia_refs must be >= 1")
        for name, grid in self.methods.items():
            if name not in METHODS:
                raise ValueError(f"unknown method {name!r} in config")
            if not isinstance(grid, MethodGrid):
                raise ValueError(f"method {name!r} needs a MethodGrid")
            for axis in ("w", "gamma"):
                key, default = axis + "s", getattr(_DEFAULT_GRID, axis + "s")
                if axis not in METHOD_TABLE[name].axes and getattr(grid, key) != default:
                    raise ValueError(
                        f"config key methods.{name}.{key}: {name} does not sweep "
                        f"{axis}; leave {key} out or at its default {list(default)}")


def default_config() -> ExperimentConfig:
    """The desk-scale task: a 10-class mixture a small MLP can memorize.

    Calibrated so the base model memorizes its training rows (forget
    accuracy 100, membership AUCs well above chance) while a retrained
    oracle scores at chance, and so reference-guided unlearning can
    close the gap without wrecking test accuracy.  That needs isolated
    training points: few samples per class, a wide hidden layer, and
    moderate class overlap.  The reference-distillation grid uses
    single-row forget batches, which make the matched reference target
    class-conditional instead of a batch-level class mixture; the mixed
    ascent baseline gets the same loader so its forget term sees enough
    steps to matter within the small epoch budget.
    """
    arch = ArchitectureSpec("mlp1", input_dim=32, num_classes=10,
                            hidden_dim=256, activation="tanh")
    gen = GenSpec(num_classes=10, input_dim=32, samples_per_class=120,
                  centroid_scale=3.0, noise_sigma=1.2)
    base = TrainConfig(epochs=40, batch_size=64, lr=0.05)
    methods = {
        "regun": MethodGrid(lrs=(0.01, 0.02), ws=(0.85, 0.9),
                            batch_size=1, num_matched=16,
                            retain_batch_size=64),
        "neggrad": MethodGrid(lrs=(0.002, 0.005, 0.01)),
        "neggrad_plus": MethodGrid(lrs=(0.02, 0.05), ws=(0.85, 0.9, 0.95, 0.99),
                                   batch_size=1, retain_batch_size=64),
        "finetune": MethodGrid(lrs=(0.02, 0.05)),
        "l1_sparse": MethodGrid(lrs=(0.05,), gammas=(5e-5, 5e-4)),
    }
    return ExperimentConfig(arch=arch, gen=gen, base=base, methods=methods)


# A config document holds every dataclass field except those the
# experiment sets itself: per-seed streams come from derive_seed, the
# generator's shape from arch, and the data source from the "data"
# object, whose CSV keys name the fields in _CSV_KEYS.
_DERIVED = {"seed", "gen", "pool_csv", "test_csv", "csv_header"}
_ARCH_FIELDS = {f.name for f in fields(ArchitectureSpec)}
_CSV_KEYS = {"pool": "pool_csv", "test": "test_csv", "header": "csv_header"}


def _config_keys(cls) -> dict:
    """{document key: field name} for the fields of ``cls`` a config holds."""
    skip = _DERIVED if cls is ArchitectureSpec else _DERIVED | _ARCH_FIELDS
    return {f.name: f.name for f in fields(cls) if f.name not in skip}


def _plain(value):
    """A config value as JSON: a dataclass becomes an object of its
    config keys with None knobs left out, a tuple becomes a list."""
    if is_dataclass(value):
        return {k: _plain(getattr(value, k)) for k in _config_keys(type(value))
                if getattr(value, k) is not None}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in sorted(value.items())}
    return list(value) if isinstance(value, tuple) else value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-type mirror of the config, suitable for JSON."""
    if cfg.gen is not None:
        data = {"source": "gaussian", **_plain(cfg.gen)}
    else:
        data = {"source": "csv",
                **{k: getattr(cfg, f) for k, f in _CSV_KEYS.items()}}
    return {**_plain(cfg), "data": data}


def _read(cls, doc: dict, defaults, path: str, keys=None) -> dict:
    """Keyword arguments for ``cls`` from the object ``doc``.

    ``keys`` maps each allowed document key to its field (default
    ``_config_keys(cls)``); an absent key takes the field's value in
    ``defaults``.  ``path`` prefixes key names in error messages.
    """
    keys = keys or _config_keys(cls)
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        kind = "grid" if cls is MethodGrid else "config"
        raise ValueError(f"unknown {kind} keys: {[path + k for k in unknown]}")
    hints = get_type_hints(cls)
    return {f: _typed(hints[f], doc[k], path + k, getattr(defaults, f))
            if k in doc else getattr(defaults, f) for k, f in keys.items()}


def _typed(hint, value, path: str, default=None):
    """``value`` as a field of type ``hint``: a list becomes a tuple and an
    object a dataclass (absent keys from ``default``) or a dict of them;
    the rest must pass ``textio._value`` and, as floats, be finite."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple and isinstance(value, list):
        return tuple(_typed(args[0], v, f"{path}[{i}]")
                     for i, v in enumerate(value))
    if origin is dict and isinstance(value, dict):
        return {k: _typed(args[1], v, f"{path}.{k}", args[1]())
                for k, v in value.items()}
    if is_dataclass(hint) and isinstance(value, dict):
        return hint(**_read(hint, value, default, path + "."))
    value = _value(hint, value, f"config key {path}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"config key {path}: expected {_EXPECTED[float]}, got {value!r}")
    return value


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from a JSON-style dict, filling defaults.

    Unknown keys raise at every level so typos do not silently fall back
    to defaults, and each value must have its field's type (see
    ``_typed``); both raise ValueError naming the key.
    """
    defaults = default_config()
    doc = dict(_value(dict, doc, "config"))
    data = dict(_value(dict, doc.pop("data", {}), "config key data"))
    source = data.pop("source", "gaussian")
    kwargs = _read(ExperimentConfig, doc, defaults, "")
    if source == "gaussian":
        arch = kwargs["arch"]
        shape = {f.name: getattr(arch, f.name) for f in fields(GenSpec)
                 if f.name in _ARCH_FIELDS}
        kwargs["gen"] = GenSpec(**shape, **_read(GenSpec, data, defaults.gen, "data."))
    elif source == "csv":
        kwargs.update(_read(ExperimentConfig, data, defaults, "data.", _CSV_KEYS))
        for key in ("pool", "test"):
            if kwargs[_CSV_KEYS[key]] is None:
                raise ValueError(f"config key data.{key}: the csv source needs a file path")
    else:
        raise ValueError(f"unknown data source {source!r}")
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON config: {exc}") from None
    return config_from_dict(doc)


# The splits a report scores, in evaluation order, and the two the
# attacks compare: forget rows are members, test rows non-members.
_EVAL_SPLITS = ("retain", "forget", "test", "validation")
_ATTACK_SPLITS = ("forget", "test")


def _split_blocks(pool: Dataset, splits: DataSplits, split: str):
    """(row count, iterator of (rows, features, labels)) of one scored
    split, one item per slice of ``_row_blocks``: the test set is its
    own dataset, the other splits gather their pool rows per block."""
    if split == "test":
        data, index = splits.test, None
    else:
        data, index = pool, getattr(splits, split)
    n = data.num_samples if index is None else index.size

    def blocks():
        for rows in _row_blocks(n):
            take = rows if index is None else index[rows]
            yield rows, data.features[take], data.labels[take]
    return n, blocks()


@dataclass(frozen=True, eq=False)
class SeedContext:
    """Everything one seed's evaluations share.

    ``oracle_probs`` and ``ref_means`` are the frozen models' predictions
    that ``evaluate_model`` reads, computed once per seed by the jobs that
    train those models (see ``prepare_seed``): the retrain oracle's
    probability rows on the retain and test splits, for the JS
    divergences, and the references' mean true-label probability on the
    forget and test splits, for the RMIA score (None without references).
    """

    seed: int
    pool: Dataset
    splits: DataSplits
    base_model: Model
    retrain_model: Model
    references: tuple
    oracle_probs: dict = field(repr=False)
    ref_means: dict | None = field(repr=False)


def _load_seed_data(cfg: ExperimentConfig, seed: int):
    """The seed's (pool, splits), generated or loaded and checked."""
    if cfg.gen is not None:
        pool = generate_gaussian_mixture(replace(cfg.gen, seed=derive_seed(seed, "data")))
        test = generate_gaussian_mixture(replace(cfg.gen, seed=derive_seed(seed, "test")))
    else:
        k = cfg.arch.num_classes
        pool = load_csv(cfg.pool_csv, header=cfg.csv_header, num_classes=k)
        test = load_csv(cfg.test_csv, header=cfg.csv_header, num_classes=k)
    if pool.input_dim != cfg.arch.input_dim:
        raise ValueError("pool feature width does not match arch.input_dim")
    if pool.num_classes != cfg.arch.num_classes:
        raise ValueError("pool classes do not match arch.num_classes")
    return pool, make_splits(pool, test, cfg.forget_fraction, derive_seed(seed, "split"))


def _train_frozen(cfg: ExperimentConfig, seed: int, pool: Dataset,
                  splits: DataSplits, job: int):
    """(model, predictions) for one frozen model of the seed: job 0 the
    base model (None), job 1 the retrain oracle (probability rows on
    retain and test), job 2 + i attack reference i (true-label
    probabilities on forget and test).  The training draw is dropped
    before the forwards, which fill each split's array block by block."""
    if job == 0:
        init, stream, i, kept = "init", "base", 0, ()
        data, rows = pool, np.sort(np.concatenate([splits.forget, splits.retain]))
    elif job == 1:
        init, stream, i, kept = "retrain_init", "retrain", 0, ("retain", "test")
        data, rows = pool, splits.retain
    else:
        init, stream, i, kept = "ref_init", "ref_train", job - 2, _ATTACK_SPLITS
        data, rows = _reference_rows(cfg, seed, pool, splits, i)
    model = train(init_model(cfg.arch, derive_seed(seed, init, i)), data, rows,
                  replace(cfg.base, seed=derive_seed(seed, stream, i)))
    del data, rows
    predictions = {}
    for split in kept:
        n, blocks = _split_blocks(pool, splits, split)
        shape = (n, cfg.arch.num_classes) if job == 1 else (n,)
        kept_rows = predictions[split] = np.empty(shape)
        for rows, x, y in blocks:
            probs = forward_probs(model, x)
            kept_rows[rows] = probs if job == 1 else _true_label(probs, y)
    return model, predictions or None


def _reference_rows(cfg: ExperimentConfig, seed: int, pool: Dataset,
                    splits: DataSplits, i: int):
    """(dataset, rows) reference i trains on: a fresh generator draw, or
    for CSV data a seeded half of the retain set."""
    if cfg.gen is not None:
        ref_data = generate_gaussian_mixture(
            replace(cfg.gen, seed=derive_seed(seed, "ref_data", i)))
        return ref_data, np.arange(ref_data.num_samples)
    half = max(1, splits.retain.size // 2)
    ref_rng = np.random.default_rng(derive_seed(seed, "ref_data", i))
    return pool, np.sort(ref_rng.choice(splits.retain, size=half, replace=False))


def prepare_seed(cfg: ExperimentConfig, seed: int, with_references: bool = True,
                 pmap=map) -> SeedContext:
    """Data, splits, base model, retrain oracle, and reference models.

    The base model trains on forget + retain; validation and held-out
    rows stay unseen.  The retrain oracle trains from its own fresh
    initialization on retain only.  Attack references train on
    independent draws of the generator; for CSV data, where no generator
    exists, each reference instead trains on a seeded half of the retain
    set (documented fallback, still disjoint from forget and test).

    The work runs as two rounds of jobs through ``pmap`` (the built-in
    map, or a pool's from ``_mapper``): the seed's data is loaded once,
    then each frozen model is trained and forwarded by its own job
    (``_train_frozen``), in the order base, retrain, references.  The
    caller only averages the references' vectors, so under a process
    pool it forwards nothing, which keeps its peak memory down.  A
    failing job raises its own error, the first in job order.
    """
    [(pool, splits)] = pmap(_load_seed_data, [cfg], [seed])
    jobs = range(2 + (cfg.rmia_refs if with_references else 0))
    models, preds = zip(*pmap(partial(_train_frozen, cfg, seed, pool, splits), jobs))
    ref_means = {s: _reference_mean([p[s] for p in preds[2:]])
                 for s in _ATTACK_SPLITS} if preds[2:] else None
    return SeedContext(seed, pool, splits, *models[:2], models[2:], preds[1], ref_means)


def evaluate_model(name: str, model: Model, ctx: SeedContext,
                   w: float | None = None) -> MetricsReport:
    """All metrics for one model against this seed's oracle and attacks.

    Each split (retain, forget, test, validation) is forwarded and
    scored in the blocks of ``models._row_blocks``, so memory is bounded
    by a block, not the split; per-row results go into one vector per
    split, reduced once, which keeps every metric's bits.  The oracle's
    and the references' predictions come from the context.  A model
    whose input_dim or num_classes differs from the seed's data raises
    ValueError, as does a context without references or a split on which
    the model's logits are not all finite (a diverged model, say): its
    message names the model, the split and the count of such rows.  Gap
    columns are left at zero; callers fill them against the oracle row
    (for the oracle itself they are correct as is).
    """
    pool = ctx.pool
    shape = (model.arch.input_dim, model.arch.num_classes)
    if shape != (pool.input_dim, pool.num_classes):
        raise ValueError(
            f"model {name!r} has input_dim {shape[0]} and num_classes {shape[1]}, "
            f"but seed {ctx.seed}'s data has input_dim {pool.input_dim} and "
            f"num_classes {pool.num_classes}")
    if ctx.ref_means is None:
        raise ValueError("need at least one reference model")
    acc, div, smia, rmia = {}, {}, {}, {}
    for split in _EVAL_SPLITS:
        n, blocks = _split_blocks(pool, ctx.splits, split)
        oracle = ctx.oracle_probs.get(split)
        hits, js, log_p, p = np.empty(n, dtype=bool), np.empty(n), np.empty(n), np.empty(n)
        bad = 0
        for rows, x, y in blocks:
            logits = forward_logits(model, x)
            bad += np.count_nonzero(~np.isfinite(logits).all(axis=1))
            if bad:  # the split fails; only its bad rows are still counted
                continue
            probs = _softmax(logits)
            hits[rows] = _hits(probs, y)
            if oracle is not None:
                js[rows] = js_divergence(probs, oracle[rows])
            if split in ctx.ref_means:
                log_p[rows] = _true_label(_log_softmax(logits), y)
                p[rows] = _true_label(probs, y)
        if bad:
            raise ValueError(f"model {name!r} gives non-finite logits on {bad} of "
                             f"{n} {split} rows")
        acc[split] = _percent(hits)
        if oracle is not None:
            div[split] = _percent(js)
        if split in ctx.ref_means:
            smia[split] = log_p
            rmia[split] = _rmia(p, ctx.ref_means[split])
    return MetricsReport(
        method=name,
        seed=ctx.seed,
        w=w,
        retain_acc=acc["retain"],
        forget_acc=acc["forget"],
        test_acc=acc["test"],
        val_acc=acc["validation"],
        retain_div=div["retain"],
        test_div=div["test"],
        rmia_auc=attack_auc(AttackScores(rmia["forget"], rmia["test"])),
        smia_auc=attack_auc(AttackScores(smia["forget"], smia["test"])),
    )


@dataclass(frozen=True)
class GridResult:
    """One grid point of one method on one seed."""

    config: UnlearnConfig
    report: MetricsReport


@dataclass(frozen=True)
class SeedFailure:
    seed: int
    stage: str
    error: str


def method_grid_configs(cfg: ExperimentConfig, method: str, seed: int):
    """The UnlearnConfig list a method's grid expands to, in grid order.

    lr is always swept; w and gamma only when the method's record in
    METHOD_TABLE lists them (ExperimentConfig holds the others at
    MethodGrid's single default).
    """
    grid = cfg.methods[method]
    batch_size = grid.batch_size
    if batch_size is None:
        batch_size = cfg.base.batch_size
    return [
        UnlearnConfig(
            method=method,
            lr=lr,
            epochs=cfg.unlearn_epochs,
            batch_size=batch_size,
            retain_batch_size=grid.retain_batch_size,
            w=w,
            momentum=cfg.base.momentum,
            gamma=gamma,
            num_matched=grid.num_matched,
            seed=derive_seed(seed, "unlearn"),
        )
        for lr, w, gamma in product(grid.lrs, grid.ws, grid.gammas)
    ]


def score_base_and_retrain(ctx: SeedContext) -> tuple:
    """The seed's (base, retrain) report rows, gaps taken against the
    retrain oracle, so zero for the oracle itself."""
    retrain = evaluate_model("retrain", ctx.retrain_model, ctx)
    retrain = with_gaps(retrain, retrain)
    base = with_gaps(evaluate_model("base", ctx.base_model, ctx), retrain)
    return base, retrain


def _prepare_unit(cfg: ExperimentConfig, seed: int, pmap):
    """The seed's SeedContext, or its SeedFailure at stage "prepare".
    Runs in the caller; prepare_seed hands its jobs to ``pmap``."""
    try:
        return prepare_seed(cfg, seed, pmap=pmap)
    except Exception as exc:  # seed isolation barrier
        return SeedFailure(seed, "prepare", f"{type(exc).__name__}: {exc}")


def _slices(points: list, count: int) -> list:
    """``points`` cut into min(count, len(points)) contiguous runs, in
    order, whose lengths differ by at most one."""
    n, count = len(points), min(count, len(points))
    return [points[i * n // count:(i + 1) * n // count] for i in range(count)]


def _score_unit(ctx: SeedContext, ucfgs: list | None) -> list:
    """One scoring job of one seed: its outcomes in order, the last of
    them a SeedFailure if a point failed (later points are not run).

    ``ucfgs`` None scores the base model and the retrain oracle, one
    (base, retrain) outcome (see score_base_and_retrain); otherwise it is
    a slice of one method's points (see _run_slice), each unlearned from
    the base model and evaluated, its report's gap columns left at zero.
    The failure's stage names the step that raised: "evaluate",
    "unlearn:<method>" or "evaluate:<method>".
    """
    stage, outcomes = "evaluate", []
    try:
        if ucfgs is None:
            return [score_base_and_retrain(ctx)]
        models = _run_slice(ctx.base_model, ctx.splits, ctx.pool, ucfgs)
        for ucfg in ucfgs:
            method = ucfg.method
            stage = f"unlearn:{method}"
            model = next(models)
            stage = f"evaluate:{method}"
            outcomes.append(evaluate_model(method, model, ctx,
                                           w=ucfg.w if method in W_METHODS else None))
            del model  # so the next point unlearns without this one alive
        return outcomes
    except Exception as exc:  # seed isolation barrier
        return outcomes + [SeedFailure(ctx.seed, stage, f"{type(exc).__name__}: {exc}")]


def _openblas_threads():
    """(get, set) ctypes functions for the thread count of the OpenBLAS
    that numpy's wheel bundles (``numpy.libs/libscipy_openblas64_*``),
    or None when no such library is found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _init_worker() -> None:
    """Pool initializer: one OpenBLAS thread per worker.

    A forked worker inherits the parent's BLAS thread count, so N workers
    would spin N times that many threads on the cores.  The environment
    variable is read only when numpy loads, which under fork has already
    happened, so the count is set through the library itself.
    """
    threads = _openblas_threads()
    if threads is not None:
        _, set_threads = threads
        set_threads(1)


@contextmanager
def _one_blas_thread():
    """This process's OpenBLAS on one thread for the block, its count
    restored on exit."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get_threads, set_threads = threads
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


@contextmanager
def _mapper(workers: int):
    """The built-in ``map`` for one worker, else the ``map`` of one
    process pool; results come back in input order either way.  Every
    process that computes runs BLAS on one thread (a serial caller for
    the block, each pool worker for good; a pooled caller computes
    nothing), so parallelism comes only from ``workers``, an integer
    >= 1."""
    workers = _value(int, workers, "workers")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        with _one_blas_thread():
            yield map
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker) as pool:
            yield pool.map


def _combo_key(config: UnlearnConfig) -> tuple:
    return (config.lr, config.w, config.gamma)


def select_hyperparams(grid_results, base_val_acc: float) -> dict:
    """Pick each method's grid point by the validation rule.

    The score of a grid point is |forget_acc - val_acc| +
    max(0, base_val_acc - val_acc), both accuracies averaged over the
    seeds that reached it.  Lower is better: the first term wants forget
    rows to behave like unseen rows, the second charges any utility drop
    below the base model's validation accuracy.  Ties break toward
    higher val_acc, then lower lr, lower w, lower gamma.  Returns
    {method: UnlearnConfig} with canonical seed 0.
    """
    grid_results = list(grid_results)
    if not grid_results:
        raise ValueError("empty grid")
    by_method = {}
    for gr in grid_results:
        combos = by_method.setdefault(gr.config.method, {})
        combos.setdefault(_combo_key(gr.config), []).append(gr)
    selected = {}
    for method, combos in by_method.items():
        ranked = []
        for key, results in sorted(combos.items()):
            forget = float(np.mean([g.report.forget_acc for g in results]))
            val = float(np.mean([g.report.val_acc for g in results]))
            score = abs(forget - val) + max(0.0, base_val_acc - val)
            ranked.append((score, -val) + key)
        best = min(ranked)[2:]
        selected[method] = replace(combos[best][0].config, seed=0)
    return selected


@dataclass(frozen=True)
class AggregateRow:
    """Seed-aggregated statistics for one table row."""

    method: str
    w: float | None
    n_seeds: int
    stats: dict


@dataclass(frozen=True, eq=False)
class RunResult:
    """Everything run_experiment produced, pre-serialization."""

    config: ExperimentConfig
    rows: tuple
    aggregates: tuple
    selected: dict
    grid: tuple
    failures: tuple
    contexts: dict


def _row_order(report: MetricsReport) -> tuple:
    return (report.method, report.seed, -1.0 if report.w is None else report.w)


def aggregate_rows(rows) -> tuple:
    groups = {}
    for r in rows:
        groups.setdefault((r.method, r.w), []).append(r)
    out = []
    for (method, w) in sorted(groups, key=lambda k: (k[0], -1.0 if k[1] is None else k[1])):
        members = groups[(method, w)]
        out.append(AggregateRow(method, w, len(members), aggregate_seeds(members)))
    return tuple(out)


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> RunResult:
    """The full pipeline over all seeds.

    Work runs in units: first one ``prepare_seed`` per seed, in seed
    order, then the scoring units of each prepared seed: the base/retrain
    pair, and each method's grid cut into min(workers, points) slices
    (see _slices), each of which builds its step plan once.  Every process
    that computes runs BLAS on one thread (see ``_mapper``).  ``workers``
    > 1 runs the work on one process pool: ``prepare_seed`` sends each seed's data load and its
    frozen-model trainings to the pool as separate jobs, so even a
    one-seed run keeps the workers busy while it prepares, and the
    scoring units follow.  Results are reduced in seed, then grid
    order, so parallel and serial runs produce identical reports.  A
    seed whose preparation or any unit fails is recorded with its first
    failure in that order and skipped; the rest of the run proceeds.
    """
    with _mapper(workers) as pmap:
        prepared = [_prepare_unit(cfg, seed, pmap) for seed in sorted(cfg.seeds)]
        ready = [p for p in prepared if isinstance(p, SeedContext)]
        units = [(ctx, part) for ctx in ready for part in [None] + [
            part for m in sorted(cfg.methods)
            for part in _slices(method_grid_configs(cfg, m, ctx.seed), workers)]]
        scored = list(pmap(_score_unit, [ctx for ctx, _ in units], [part for _, part in units]))

    outcomes = {}  # seed -> [(grid point or None, outcome)] in grid order
    for (ctx, part), result in zip(units, scored):
        outcomes.setdefault(ctx.seed, []).extend(zip(part or [None], result))
    failures, rows, grid, contexts = [], [], [], {}
    for outcome in prepared:
        if isinstance(outcome, SeedFailure):
            failures.append(outcome)
            continue
        pairs = outcomes[outcome.seed]
        failure = next((r for _, r in pairs if isinstance(r, SeedFailure)), None)
        if failure is not None:
            failures.append(failure)
            continue
        (_, (base, retrain)), *reports = pairs
        rows.extend([base, retrain])
        grid.extend(GridResult(ucfg, with_gaps(report, retrain)) for ucfg, report in reports)
        contexts[outcome.seed] = outcome

    selected = {}
    if grid:
        base_val_acc = float(np.mean([r.val_acc for r in rows if r.method == "base"]))
        selected = select_hyperparams(grid, base_val_acc)
        chosen = {(m, _combo_key(c)) for m, c in selected.items()}
        rows.extend(gr.report for gr in grid
                    if (gr.config.method, _combo_key(gr.config)) in chosen)

    rows.sort(key=_row_order)
    return RunResult(
        config=cfg,
        rows=tuple(rows),
        aggregates=aggregate_rows(rows),
        selected=selected,
        grid=tuple(grid),
        failures=tuple(failures),
        contexts=contexts,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One w value of the forgetting/utility trade-off curve."""

    method: str
    w: float
    n_seeds: int
    test_acc_mean: float
    test_acc_std: float
    rmia_auc_mean: float
    rmia_auc_std: float
    gap_tp_mean: float
    gap_tp_std: float


def sweep_tradeoff(cfg: ExperimentConfig, method: str, w_grid,
                   result: RunResult | None = None,
                   workers: int = 1):
    """Trade-off curve: rerun one method across w, all else fixed.

    The non-w hyperparameters are the ones selection picked for the
    method (lr, gamma); pass ``result`` to reuse an existing run's
    trained models, otherwise the experiment is run first.  Each seed's
    ws are cut into slices as ``run_experiment`` cuts a grid, one unit of
    work each, run on the same kind of pool when ``workers`` > 1.  The
    first failing point in w, then seed order raises ValueError naming
    its seed and stage.  Returns one SweepPoint per w in grid order.
    """
    if method not in W_METHODS:
        raise ValueError(f"method {method!r} has no w to sweep")
    if method not in cfg.methods:
        raise ValueError(f"method {method!r} not enabled in config")
    ws = _value(tuple[float, ...], w_grid, "ws")
    if not ws or not all(0.0 <= w <= 1.0 for w in ws):
        raise ValueError(f"ws must be non-empty and lie in [0, 1], got {ws!r}")
    if result is None:
        result = run_experiment(cfg, workers=workers)
    if method not in result.selected:
        raise ValueError(f"no grid results for {method!r} to anchor the sweep")
    anchor = result.selected[method]
    retrain_rows = {r.seed: r for r in result.rows if r.method == "retrain"}
    contexts = [ctx for _, ctx in sorted(result.contexts.items())]
    with _mapper(workers) as pmap:
        units = [(ctx, part) for ctx in contexts for part in _slices(
            [replace(anchor, w=w, seed=derive_seed(ctx.seed, "unlearn")) for w in ws], workers)]
        scored = list(pmap(_score_unit, [ctx for ctx, _ in units], [part for _, part in units]))
    by_seed = {ctx.seed: [] for ctx in contexts}
    for (ctx, _), outcomes in zip(units, scored):
        by_seed[ctx.seed].extend(outcomes)
    # columns[i] holds w_i's seeds, None where a seed's slice had stopped
    columns = list(zip_longest(*by_seed.values()))
    for failure in (unit for column in columns for unit in column):
        if isinstance(failure, SeedFailure):
            raise ValueError(f"sweep of {method} failed on seed {failure.seed} "
                             f"at {failure.stage}: {failure.error}")

    points = []
    for w, column in zip(ws, columns):
        reports = [with_gaps(report, retrain_rows[report.seed]) for report in column]
        stats = aggregate_seeds(reports)
        # the statistic fields are named <report field>_mean / _std
        points.append(SweepPoint(method, w, len(reports), **{
            name: stats[name.rpartition("_")[0]][name.endswith("_std")]
            for name in SWEEP_HEADER[3:]}))
    return points


# ---------------------------------------------------------------------------
# Report files, in the row format of textio.  All row orders are fixed,
# so identical runs write identical bytes.

METRICS_HEADER = tuple(f.name for f in fields(MetricsReport))

SWEEP_HEADER = tuple(f.name for f in fields(SweepPoint))

AGGREGATED_HEADER = ("method", "w", "n_seeds") + tuple(
    f"{name}_{stat}" for name in REPORT_FIELDS for stat in ("mean", "std"))

# The UnlearnConfig fields the manifest records for each selected method.
_SELECTED_KEYS = ("lr", "w", "gamma", "epochs", "batch_size", "momentum")


def write_metrics_csv(rows, path) -> None:
    write_rows(path, ([getattr(r, c) for c in METRICS_HEADER] for r in rows),
               header=METRICS_HEADER)


def read_metrics_csv(path):
    """Parse a metrics CSV back into MetricsReport rows."""
    lines = read_rows(path)
    if tuple(next(lines, (0, ()))[1]) != METRICS_HEADER:
        raise ValueError(f"{path}: not a metrics CSV")
    hints = get_type_hints(MetricsReport)
    rows = []
    for lineno, cells in lines:
        where = f"{path} line {lineno}"
        values = {name: parse_cell(hints[name], cell, where)
                  for name, cell in zip(METRICS_HEADER, cells)}
        try:
            rows.append(MetricsReport(**values))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return rows


def write_aggregated_csv(aggregates, path) -> None:
    write_rows(path, (
        [agg.method, agg.w, agg.n_seeds,
         *(x for name in REPORT_FIELDS for x in agg.stats[name])]
        for agg in aggregates), header=AGGREGATED_HEADER)


def write_report(result: RunResult, out_dir, sweep_points=None) -> list:
    """Write metrics.csv, aggregated.csv, optional sweep.csv, and the
    run manifest into ``out_dir``.  Returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def out(name):
        written.append(os.path.join(out_dir, name))
        return written[-1]

    write_metrics_csv(result.rows, out("metrics.csv"))
    write_aggregated_csv(result.aggregates, out("aggregated.csv"))
    if sweep_points is not None:
        write_rows(out("sweep.csv"), ([getattr(p, c) for c in SWEEP_HEADER]
                                      for p in sweep_points), header=SWEEP_HEADER)
    manifest = {
        "format": REPORT_FORMAT,
        "config": config_to_dict(result.config),
        "seeds": list(result.config.seeds),
        "selection_rule": SELECTION_RULE,
        "selected": {
            method: {k: getattr(ucfg, k) for k in _SELECTED_KEYS}
            for method, ucfg in sorted(result.selected.items())
        },
        "failures": [asdict(f) for f in result.failures],
    }
    with open(out("manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return written
