"""Experiment orchestration: train, unlearn, evaluate, aggregate, report.

One ExperimentConfig fully determines a run.  Per seed the harness
generates (or loads) data, splits it, trains the base model on
forget + retain, the retrain oracle on retain only, and the attack
reference models on fresh draws; every enabled method then runs over its
hyperparameter grid from the base model, and each result is scored
against the same-seed oracle.  config.py holds the config document,
and report.py writes the results so that identical configs produce
identical bytes.
"""

from __future__ import annotations

import ctypes
import glob
import operator
import os
import sys
import threading
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field, fields, replace
from functools import cache, partial
from itertools import product

import numpy as np

from .config import ExperimentConfig, config_to_dict
from .data import Dataset, DataSplits, generate_gaussian_mixture, load_csv, make_splits
from .metrics import (AttackScores, MetricsReport, _hits, _percent, _reference_mean, _rmia,
                      _true_label, aggregate_seeds, attack_auc, js_divergence, with_gaps)
from .models import (Model, _log_softmax, _row_blocks, _softmax, forward_logits, forward_probs,
                     init_model, train)
from .report import (AggregateRow, SweepPoint, report_paths, write_aggregated_csv, write_manifest,
                     write_metrics_csv, write_sweep_csv)
from .textio import _value
from .unlearn import METHOD_TABLE, METHODS, UnlearnConfig, _run_slice

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


# The constants of numpy's SeedSequence hash (NEP 19 keeps its output
# stable), which derive_seed computes on plain integers.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n) -> list:
    """A non-negative integer's 32-bit words, least significant first,
    at least one: how SeedSequence reads an entropy entry."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"seed entropy must be a non-negative integer, got {n}")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def derive_seed(seed: int, stream: str, index: int = 0) -> int:
    """Stable child seed for one purpose within one experiment seed:
    ``int(np.random.SeedSequence([seed, tag, index]).generate_state(1,
    np.uint64)[0])`` for the stream's tag, computed on Python integers
    over the default pool of four words, so that a process which only
    derives seeds (a pooled run's parent) never loads numpy.random.  A
    negative seed or index raises ValueError, a non-integer TypeError."""
    entropy = _words(seed) + _words(_STREAMS[stream]) + _words(index)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    pool = [hashmix(word) for word in (entropy + [0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out, hash_const = 0, _INIT_B  # one uint64: two output words, low first
    for shift, word in ((0, pool[0]), (32, pool[1])):
        word ^= hash_const
        hash_const = hash_const * _MULT_B & _M32
        word = word * hash_const & _M32
        out |= (word ^ word >> 16) << shift
    return out


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
    ``pool`` and ``splits`` are the open run's copy of the seed's data
    (see ``_seed_data``).  A scoring unit ships a lean copy instead (see
    ``_unit_context``): ``pool`` and ``splits`` None, which the unit's
    process takes from its own open run, and no references.
    """

    seed: int
    pool: Dataset
    splits: DataSplits
    base_model: Model
    retrain_model: Model
    references: tuple
    oracle_probs: dict = field(repr=False)
    ref_means: dict | None = field(repr=False)


# The open run of this thread's context: its config, {seed: (pool,
# splits)} of each seed loaded so far, and its map.  Only ``_mapper``
# sets it, for its block, and ``_init_worker``, for a pool worker's
# life; a thread sees only the runs it opened.
_run = ContextVar("_run")


def _seed_data(seed: int):
    """The seed's (pool, splits) in the open run, generated or loaded
    and checked there at most once."""
    cfg, loaded, _ = _run.get()
    if seed not in loaded:
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
        loaded[seed] = pool, make_splits(pool, test, cfg.forget_fraction,
                                         derive_seed(seed, "split"))
    return loaded[seed]


def _train_frozen(cfg: ExperimentConfig, seed: int, job: int):
    """(model, predictions, data) for one frozen model of the seed: job 0
    the base model (None), job 1 the retrain oracle (probability rows on
    retain and test), job 2 + i attack reference i (true-label
    probabilities on forget and test).  The seed's data comes from the
    open run of ``cfg`` (see ``_seed_data``); job 0 also returns it as
    ``data`` (None for the others), the copy the seed's context keeps.
    The training draw is dropped before the forwards, which fill each
    split's array block by block."""
    pool, splits = _seed_data(seed)
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
    return model, predictions or None, (pool, splits) if job == 0 else None


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


def prepare_seed(cfg: ExperimentConfig, seed: int, with_references: bool = True) -> SeedContext:
    """Data, splits, base model, retrain oracle, and reference models.

    The base model trains on forget + retain; validation and held-out
    rows stay unseen.  The retrain oracle trains from its own fresh
    initialization on retain only.  Attack references train on
    independent draws of the generator; for CSV data, where no generator
    exists, each reference instead trains on a seeded half of the retain
    set (documented fallback, still disjoint from forget and test).

    The work runs as one round of jobs, each frozen model trained and
    forwarded by its own job (``_train_frozen``), in the order base,
    retrain, references, in a ``_mapper`` block of ``cfg``: it joins an
    open run of this same ``cfg`` object, built-in map or process pool, or
    else opens a serial run of its own, which loads the data afresh, once.
    A job takes the seed's data from its process's open run, so each
    process loads it at most once per run and no dataset is sent to a job;
    the base job returns the context's copy.  The caller only averages the
    references' vectors, so under a process pool it forwards nothing, which
    keeps its peak memory down.  A failing job raises its own error, the
    first in job order.
    """
    with _mapper(1, cfg) as pmap:
        jobs = range(2 + (cfg.rmia_refs if with_references else 0))
        models, preds, data = zip(*pmap(partial(_train_frozen, cfg, seed), jobs))
    ref_means = {s: _reference_mean([p[s] for p in preds[2:]])
                 for s in _ATTACK_SPLITS} if preds[2:] else None
    return SeedContext(seed, *data[0], *models[:2], models[2:], preds[1], ref_means)


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


def _slices(points: list, count: int) -> list:
    """``points`` cut into min(count, len(points)) contiguous runs, in
    order, whose lengths differ by at most one."""
    n, count = len(points), min(count, len(points))
    return [points[i * n // count:(i + 1) * n // count] for i in range(count)]


def _unit_context(ctx: SeedContext, base_pair: bool) -> SeedContext:
    """``ctx`` as a scoring unit ships it, with only what the unit reads:
    the seed, the base model, the oracle's and the references'
    predictions, and the retrain oracle for the base/retrain unit only.
    The data stays behind (``pool`` and ``splits`` None)."""
    return replace(ctx, pool=None, splits=None, references=(),
                   retrain_model=ctx.retrain_model if base_pair else None)


def _score_unit(ctx: SeedContext, ucfgs: list | None) -> list:
    """One scoring job of one seed: its outcomes in order, the last of
    them a SeedFailure if a point failed (later points are not run).

    The unit runs in a ``_mapper`` block of the run's config, or in a
    pool worker of one, and takes the seed's data from that open run
    (see _seed_data), loaded there at most once per run; any data ``ctx``
    carries is not read (see _unit_context).  ``ucfgs`` None scores the
    base model and the retrain oracle, one (base, retrain) outcome (see
    score_base_and_retrain); otherwise it is a slice of one method's
    points (see _run_slice), each unlearned from the base model and
    evaluated, its report's gap columns left at zero.  The failure's
    stage names the step that raised: "evaluate", "unlearn:<method>" or
    "evaluate:<method>".
    """
    stage, outcomes = "evaluate", []
    try:
        pool, splits = _seed_data(ctx.seed)
        ctx = replace(ctx, pool=pool, splits=splits)
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


def _score(pmap, workers: int, work: list) -> list:
    """Score ``work``, a list of (SeedContext, points), points a list of
    UnlearnConfig cut by _slices or None for the base/retrain pair, one
    _score_unit job per slice through ``pmap``, inside a ``_mapper``
    block of the run's config; each job gets its context without the
    data (see _unit_context).  Returns (seed, point, outcome) in
    ``work`` order; a slice's points after its failure get none."""
    units = [(ctx, part) for ctx, points in work
             for part in ([None] if points is None else _slices(points, workers))]
    scored = pmap(_score_unit, [_unit_context(ctx, part is None) for ctx, part in units],
                  [part for _, part in units])
    return [(ctx.seed, point, outcome) for (ctx, part), outcomes in zip(units, scored)
            for point, outcome in zip(part or [None], outcomes)]


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


def _init_worker(cfg: ExperimentConfig) -> None:
    """Pool initializer: one OpenBLAS thread per worker, and an open run
    of ``cfg``, with no seed loaded yet, for the life of the pool.

    A forked worker inherits the parent's BLAS thread count, so N workers
    would spin N times that many threads on the cores.  The environment
    variable is read only when numpy loads, which under fork has already
    happened, so the count is set through the library itself.
    """
    _run.set((cfg, {}, map))
    threads = _openblas_threads()
    if threads is not None:
        _, set_threads = threads
        set_threads(1)


@cache  # so a process says it once
def _say_blas_is_unpinned() -> None:
    print("unlearnlab: numpy bundles no OpenBLAS here, so BLAS threads are "
          "not pinned to one per process", file=sys.stderr)


class _BlasPin:
    """One OpenBLAS thread while any serial block of the process is open.

    The thread count is process-wide, so the blocks of all threads share
    one pin: the first to open saves the count and sets 1, the last to
    close restores it, whatever order the blocks of two threads close in.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._open = 0
        self._saved = None

    @contextmanager
    def held(self, get_threads, set_threads):
        with self._lock:
            if self._open == 0:
                self._saved = get_threads()
                set_threads(1)
            self._open += 1
        try:
            yield
        finally:
            with self._lock:
                self._open -= 1
                if self._open == 0:
                    set_threads(self._saved)


_BLAS_PIN = _BlasPin()


@contextmanager
def _mapper(workers: int, cfg: ExperimentConfig):
    """The run of ``cfg`` for the block, and its map: the built-in ``map``
    for one worker, else the ``map`` of one process pool; results come
    back in input order either way.

    A block inside an open run of this same ``cfg`` object joins it: it
    yields that run's map and opens no pool, pin or data table, so the
    outermost block of a command decides the processes.  Otherwise the
    block opens the run of ``cfg`` in the caller's context, and each pool
    worker one from its initializer (see _init_worker); ``_seed_data``
    keeps each seed's data there.  On exit the run open before, if any, is
    the open one again.  Every process that computes runs BLAS on one
    thread (a serial caller while any of its serial blocks is open, in any
    thread, its OpenBLAS count restored when the last one closes; each pool
    worker for good; a pooled caller computes nothing), so parallelism
    comes only from ``workers``, an integer >= 1.  Where numpy bundles no
    OpenBLAS nothing is pinned, which the first such block in a process
    says on stderr.  The pool's modules are imported only when a pool
    opens, so a serial process never loads them.
    """
    workers = _value(int, workers, "workers")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    run = _run.get(None)
    if run is not None and run[0] is cfg:
        yield run[2]
        return
    threads = _openblas_threads()
    if threads is None:
        _say_blas_is_unpinned()
    if workers > 1:
        # imported here, so a process that opens no pool loads none of its modules
        from concurrent.futures import ProcessPoolExecutor
        opened = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                     initargs=(cfg,))
    else:
        opened = nullcontext() if threads is None else _BLAS_PIN.held(*threads)
    with opened as pool:
        pmap = map if pool is None else pool.map
        token = _run.set((cfg, {}, pmap))
        try:
            yield pmap
        finally:
            _run.reset(token)


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
    order, then each prepared seed's base/retrain pair and method grids
    through ``_score``.  Every process that computes runs BLAS on one
    thread (see ``_mapper``).  ``workers`` > 1 runs it all on one process
    pool, which gets the config once: ``prepare_seed`` joins the run and
    sends each seed's frozen-model trainings to it as separate jobs, so
    even one seed keeps the workers busy, and each worker loads a seed's
    data at most once.  Results are reduced in seed, then grid order, so
    parallel and serial runs produce identical reports.  A seed whose
    preparation or any unit fails is recorded with its first failure in
    that order and skipped; the rest of the run proceeds.
    """
    with _mapper(workers, cfg) as pmap:
        prepared = []
        for seed in sorted(cfg.seeds):
            try:  # by its module name, which the tracer and tests patch
                prepared.append(prepare_seed(cfg, seed))
            except Exception as exc:  # seed isolation barrier
                prepared.append(SeedFailure(seed, "prepare", f"{type(exc).__name__}: {exc}"))
        scored = _score(pmap, workers, [
            (ctx, points) for ctx in prepared if isinstance(ctx, SeedContext)
            for points in [None] + [method_grid_configs(cfg, m, ctx.seed)
                                    for m in sorted(cfg.methods)]])

    outcomes = {}  # seed -> [(grid point or None, outcome)] in grid order
    for seed, point, outcome in scored:
        outcomes.setdefault(seed, []).append((point, outcome))
    failures, rows, grid, contexts = [], [], [], {}
    for prep in prepared:  # a failed preparation is its seed's one outcome
        pairs = outcomes.get(prep.seed, [(None, prep)])
        failure = next((r for _, r in pairs if isinstance(r, SeedFailure)), None)
        if failure is not None:
            failures.append(failure)
            continue
        (_, (base, retrain)), *reports = pairs
        rows.extend([base, retrain])
        grid.extend(GridResult(ucfg, with_gaps(report, retrain)) for ucfg, report in reports)
        contexts[prep.seed] = prep

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


def sweep_tradeoff(cfg: ExperimentConfig, method: str, w_grid,
                   result: RunResult | None = None,
                   workers: int = 1):
    """Trade-off curve: rerun one method across w, all else fixed.

    The non-w hyperparameters are the ones selection picked for the
    method (lr, gamma); pass ``result`` to reuse an existing run's
    models and the points in its grid, otherwise the experiment is run
    first.  That run and the scoring of the other points (``_score``)
    share one ``_mapper`` block of ``cfg``, which joins an open run of
    this same ``cfg`` object; given a ``result`` and no such run, it
    loads the data afresh.  The first failing point in w, then seed
    order raises ValueError naming its seed and stage; a repeated w
    raises ValueError up front, as a repeated grid value does, and so
    does a ``result`` run on another config than ``cfg``.  Returns one
    SweepPoint per w in grid order.
    """
    if result is not None and config_to_dict(result.config) != config_to_dict(cfg):
        raise ValueError("result was run on another config than the sweep's")
    if method not in W_METHODS:
        raise ValueError(f"method {method!r} has no w to sweep")
    if method not in cfg.methods:
        raise ValueError(f"method {method!r} not enabled in config")
    ws = _value(tuple[float, ...], w_grid, "ws")
    if not ws or not all(0.0 <= w <= 1.0 for w in ws):
        raise ValueError(f"ws must be non-empty and lie in [0, 1], got {ws!r}")
    if len(set(ws)) != len(ws):
        raise ValueError(f"ws must be distinct, got {ws!r}")
    with _mapper(workers, cfg) as pmap:
        if result is None:
            result = run_experiment(cfg, workers=workers)
        if method not in result.selected:
            raise ValueError(f"no grid results for {method!r} to anchor the sweep")
        anchor = result.selected[method]
        seeds = sorted(result.contexts)
        wanted = {(w, seed): replace(anchor, w=w, seed=derive_seed(seed, "unlearn"))
                  for w in ws for seed in seeds}
        found = {gr.config: gr.report for gr in result.grid}
        found.update((point, outcome) for _, point, outcome in _score(pmap, workers, [
            (result.contexts[seed], [wanted[w, seed] for w in ws if wanted[w, seed] not in found])
            for seed in seeds]))

    retrain_rows = {r.seed: r for r in result.rows if r.method == "retrain"}
    points = []
    for w in ws:
        column = [found[wanted[w, seed]] for seed in seeds]  # a missing point follows a failure
        for failure in column:
            if isinstance(failure, SeedFailure):
                raise ValueError(f"sweep of {method} failed on seed {failure.seed} "
                                 f"at {failure.stage}: {failure.error}")
        reports = [with_gaps(report, retrain_rows[report.seed]) for report in column]
        stats = aggregate_seeds(reports)
        # the statistic fields are named <report field>_mean / _std
        points.append(SweepPoint(method, w, len(reports), **{
            f.name: stats[f.name.rpartition("_")[0]][f.name.endswith("_std")]
            for f in fields(SweepPoint)[3:]}))
    return points


def write_report(result: RunResult, out_dir, sweep_points=None) -> list:
    """Write the run's rows, aggregates, optional sweep points and
    manifest into ``out_dir`` as report.py lays them out.  Returns the
    written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = report_paths(out_dir)
    write_metrics_csv(result.rows, paths.metrics)
    write_aggregated_csv(result.aggregates, paths.aggregated)
    if sweep_points is not None:
        write_sweep_csv(sweep_points, paths.sweep)
    elif os.path.exists(paths.sweep):  # an earlier sweep's curve
        os.remove(paths.sweep)
    write_manifest(result.config, SELECTION_RULE, result.selected, result.failures,
                   paths.manifest)
    return [p for p in paths if p != paths.sweep or sweep_points is not None]
