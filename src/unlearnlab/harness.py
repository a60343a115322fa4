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

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

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
    accuracy,
    aggregate_seeds,
    attack_auc,
    js_divergence_avg,
    rmia_lite_scores,
    smia_scores,
    with_gaps,
)
from .models import ArchitectureSpec, Model, TrainConfig, init_model, train
from .unlearn import METHODS, UnlearnConfig, unlearn

REPORT_FORMAT = "unlearnlab-run v1"

# Methods whose objective actually mixes a forget and a retain term; for
# the others w is meaningless and collapses to a single grid point.
W_METHODS = ("regun", "neggrad_plus")

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

    Only the axes a method actually reads are expanded: lr always, w for
    the mixed-objective methods, gamma for l1_sparse.  The remaining
    loader knobs are fixed per method, not swept: ``batch_size`` (None
    means inherit the base training batch size), ``retain_batch_size``
    and ``num_matched`` (None means the per-step forget batch size).
    """

    lrs: tuple = (0.05,)
    ws: tuple = (0.5,)
    gammas: tuple = (0.0,)
    batch_size: int | None = None
    retain_batch_size: int | None = None
    num_matched: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "lrs", tuple(float(v) for v in self.lrs))
        object.__setattr__(self, "ws", tuple(float(v) for v in self.ws))
        object.__setattr__(self, "gammas", tuple(float(v) for v in self.gammas))
        if not self.lrs or not self.ws or not self.gammas:
            raise ValueError("grid axes must be non-empty")
        if any(lr <= 0 for lr in self.lrs):
            raise ValueError("grid lrs must be > 0")
        if any(not (0.0 <= w <= 1.0) for w in self.ws):
            raise ValueError("grid ws must lie in [0, 1]")
        if any(g < 0 for g in self.gammas):
            raise ValueError("grid gammas must be >= 0")
        for name in ("batch_size", "retain_batch_size", "num_matched"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, int(v))
                if int(v) < 1:
                    raise ValueError(f"grid {name} must be >= 1")


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
    methods: dict = field(default_factory=dict)
    seeds: tuple = (0, 1, 2)
    rmia_refs: int = 4

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
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


def _grid_to_dict(g: MethodGrid) -> dict:
    out = {"lrs": list(g.lrs), "ws": list(g.ws), "gammas": list(g.gammas)}
    for name in ("batch_size", "retain_batch_size", "num_matched"):
        v = getattr(g, name)
        if v is not None:
            out[name] = v
    return out


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-type mirror of the config, suitable for JSON."""
    arch = cfg.arch
    out = {
        "arch": {
            "kind": arch.kind,
            "input_dim": arch.input_dim,
            "num_classes": arch.num_classes,
            "hidden_dim": arch.hidden_dim,
            "activation": arch.activation,
        },
        "forget_fraction": cfg.forget_fraction,
        "base": {
            "epochs": cfg.base.epochs,
            "batch_size": cfg.base.batch_size,
            "lr": cfg.base.lr,
            "momentum": cfg.base.momentum,
        },
        "unlearn_epochs": cfg.unlearn_epochs,
        "methods": {
            name: _grid_to_dict(g) for name, g in sorted(cfg.methods.items())
        },
        "seeds": list(cfg.seeds),
        "rmia_refs": cfg.rmia_refs,
    }
    if cfg.gen is not None:
        out["data"] = {
            "source": "gaussian",
            "samples_per_class": cfg.gen.samples_per_class,
            "centroid_scale": cfg.gen.centroid_scale,
            "noise_sigma": cfg.gen.noise_sigma,
        }
    else:
        out["data"] = {
            "source": "csv",
            "pool": cfg.pool_csv,
            "test": cfg.test_csv,
            "header": cfg.csv_header,
        }
    return out


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from a JSON-style dict, filling defaults.

    Unknown keys raise so typos do not silently fall back to defaults.
    """
    base_cfg = default_config()
    allowed = {"arch", "data", "forget_fraction", "base", "unlearn_epochs",
               "methods", "seeds", "rmia_refs"}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    arch_doc = doc.get("arch", {})
    arch = ArchitectureSpec(
        kind=arch_doc.get("kind", base_cfg.arch.kind),
        input_dim=int(arch_doc.get("input_dim", base_cfg.arch.input_dim)),
        num_classes=int(arch_doc.get("num_classes", base_cfg.arch.num_classes)),
        hidden_dim=int(arch_doc.get("hidden_dim", base_cfg.arch.hidden_dim)),
        activation=arch_doc.get("activation", base_cfg.arch.activation),
    )
    train_doc = doc.get("base", {})
    base = TrainConfig(
        epochs=int(train_doc.get("epochs", base_cfg.base.epochs)),
        batch_size=int(train_doc.get("batch_size", base_cfg.base.batch_size)),
        lr=float(train_doc.get("lr", base_cfg.base.lr)),
        momentum=float(train_doc.get("momentum", base_cfg.base.momentum)),
    )
    methods_doc = doc.get("methods")
    if methods_doc is None:
        methods = dict(base_cfg.methods)
    else:
        methods = {}
        for name, g in methods_doc.items():
            extra = set(g) - {"lrs", "ws", "gammas", "batch_size",
                              "retain_batch_size", "num_matched"}
            if extra:
                raise ValueError(f"method {name!r}: unknown grid keys {sorted(extra)}")
            methods[name] = MethodGrid(
                lrs=tuple(g.get("lrs", (0.05,))),
                ws=tuple(g.get("ws", (0.5,))),
                gammas=tuple(g.get("gammas", (0.0,))),
                batch_size=g.get("batch_size"),
                retain_batch_size=g.get("retain_batch_size"),
                num_matched=g.get("num_matched"),
            )

    gen = None
    pool_csv = test_csv = None
    csv_header = False
    data_doc = doc.get("data", {"source": "gaussian"})
    source = data_doc.get("source", "gaussian")
    if source == "gaussian":
        gen = GenSpec(
            num_classes=arch.num_classes,
            input_dim=arch.input_dim,
            samples_per_class=int(
                data_doc.get("samples_per_class", base_cfg.gen.samples_per_class)
            ),
            centroid_scale=float(
                data_doc.get("centroid_scale", base_cfg.gen.centroid_scale)
            ),
            noise_sigma=float(data_doc.get("noise_sigma", base_cfg.gen.noise_sigma)),
        )
    elif source == "csv":
        pool_csv = data_doc.get("pool")
        test_csv = data_doc.get("test")
        csv_header = bool(data_doc.get("header", False))
    else:
        raise ValueError(f"unknown data source {source!r}")

    return ExperimentConfig(
        arch=arch,
        gen=gen,
        pool_csv=pool_csv,
        test_csv=test_csv,
        csv_header=csv_header,
        forget_fraction=float(doc.get("forget_fraction", base_cfg.forget_fraction)),
        base=base,
        unlearn_epochs=int(doc.get("unlearn_epochs", base_cfg.unlearn_epochs)),
        methods=methods,
        seeds=tuple(doc.get("seeds", base_cfg.seeds)),
        rmia_refs=int(doc.get("rmia_refs", base_cfg.rmia_refs)),
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON config: {exc}") from None
    return config_from_dict(doc)


@dataclass(frozen=True, eq=False)
class SeedContext:
    """Everything one seed's evaluations share."""

    seed: int
    pool: Dataset
    splits: DataSplits
    base_model: Model
    retrain_model: Model
    references: tuple


def prepare_seed(cfg: ExperimentConfig, seed: int,
                 with_references: bool = True) -> SeedContext:
    """Data, splits, base model, retrain oracle, and reference models.

    The base model trains on forget + retain; validation and held-out
    rows stay unseen.  The retrain oracle trains from its own fresh
    initialization on retain only.  Attack references train on
    independent draws of the generator; for CSV data, where no generator
    exists, each reference instead trains on a seeded half of the retain
    set (documented fallback, still disjoint from forget and test).
    """
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

    splits = make_splits(pool, test, cfg.forget_fraction, derive_seed(seed, "split"))
    trained_rows = np.sort(np.concatenate([splits.forget, splits.retain]))

    base_model = train(
        init_model(cfg.arch, derive_seed(seed, "init")),
        pool, trained_rows, replace(cfg.base, seed=derive_seed(seed, "base")),
    )
    retrain_model = train(
        init_model(cfg.arch, derive_seed(seed, "retrain_init")),
        pool, splits.retain, replace(cfg.base, seed=derive_seed(seed, "retrain")),
    )

    references = []
    if with_references:
        for i in range(cfg.rmia_refs):
            ref_init = init_model(cfg.arch, derive_seed(seed, "ref_init", i))
            ref_train_cfg = replace(cfg.base, seed=derive_seed(seed, "ref_train", i))
            if cfg.gen is not None:
                ref_data = generate_gaussian_mixture(
                    replace(cfg.gen, seed=derive_seed(seed, "ref_data", i))
                )
                ref_rows = np.arange(ref_data.num_samples)
            else:
                ref_data = pool
                half = max(1, splits.retain.size // 2)
                ref_rng = np.random.default_rng(derive_seed(seed, "ref_data", i))
                ref_rows = np.sort(ref_rng.choice(splits.retain, size=half, replace=False))
            references.append(train(ref_init, ref_data, ref_rows, ref_train_cfg))

    return SeedContext(seed, pool, splits, base_model, retrain_model,
                       tuple(references))


def evaluate_model(name: str, model: Model, ctx: SeedContext,
                   w: float | None = None) -> MetricsReport:
    """All metrics for one model against this seed's oracle and attacks.

    Gap columns are left at zero; callers fill them against the oracle
    row (for the oracle itself they are correct as is).
    """
    pool, splits = ctx.pool, ctx.splits
    oracle = ctx.retrain_model
    member_smia = smia_scores(model, pool, splits.forget)
    nonmember_smia = smia_scores(model, splits.test)
    member_rmia = rmia_lite_scores(model, ctx.references, pool, splits.forget)
    nonmember_rmia = rmia_lite_scores(model, ctx.references, splits.test)
    return MetricsReport(
        method=name,
        seed=ctx.seed,
        w=w,
        retain_acc=accuracy(model, pool, splits.retain),
        forget_acc=accuracy(model, pool, splits.forget),
        test_acc=accuracy(model, splits.test),
        val_acc=accuracy(model, pool, splits.validation),
        retain_div=js_divergence_avg(model, oracle, pool, splits.retain),
        test_div=js_divergence_avg(model, oracle, splits.test),
        rmia_auc=attack_auc(AttackScores(member_rmia, nonmember_rmia)),
        smia_auc=attack_auc(AttackScores(member_smia, nonmember_smia)),
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


@dataclass(frozen=True, eq=False)
class SeedOutcome:
    seed: int
    context: SeedContext | None
    base: MetricsReport | None
    retrain: MetricsReport | None
    grid: tuple
    failure: SeedFailure | None


def method_grid_configs(cfg: ExperimentConfig, method: str, seed: int):
    """The UnlearnConfig list a method's grid expands to, in grid order."""
    grid = cfg.methods[method]
    ws = grid.ws if method in W_METHODS else (0.5,)
    gammas = grid.gammas if method == "l1_sparse" else (0.0,)
    batch_size = grid.batch_size
    if batch_size is None:
        batch_size = cfg.base.batch_size
    configs = []
    for lr in grid.lrs:
        for w in ws:
            for gamma in gammas:
                configs.append(UnlearnConfig(
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
                ))
    return configs


def _report_w(method: str, w: float) -> float | None:
    return w if method in W_METHODS else None


def _run_seed(cfg: ExperimentConfig, seed: int) -> SeedOutcome:
    """Everything for one seed; any error aborts just this seed."""
    stage = "prepare"
    try:
        ctx = prepare_seed(cfg, seed)
        stage = "evaluate"
        retrain_report = evaluate_model("retrain", ctx.retrain_model, ctx)
        retrain_report = with_gaps(retrain_report, retrain_report)
        base_report = with_gaps(evaluate_model("base", ctx.base_model, ctx),
                                retrain_report)
        grid = []
        for method in sorted(cfg.methods):
            for ucfg in method_grid_configs(cfg, method, seed):
                stage = f"unlearn:{method}"
                model = unlearn(ctx.base_model, ctx.splits, ctx.pool, ucfg)
                stage = f"evaluate:{method}"
                report = evaluate_model(method, model, ctx,
                                        w=_report_w(method, ucfg.w))
                grid.append(GridResult(ucfg, with_gaps(report, retrain_report)))
        return SeedOutcome(seed, ctx, base_report, retrain_report,
                           tuple(grid), None)
    except Exception as exc:  # seed isolation barrier
        return SeedOutcome(seed, None, None, None, (),
                           SeedFailure(seed, stage, f"{type(exc).__name__}: {exc}"))


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
            lr, w, gamma = key
            ranked.append((score, -val, lr, w, gamma))
        _, _, lr, w, gamma = min(ranked)
        selected[method] = replace(
            combos[(lr, w, gamma)][0].config, seed=0
        )
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

    Seeds are independent; ``workers`` > 1 fans them out to a process
    pool with results reduced in seed order, so parallel and serial runs
    produce identical reports.  A failing seed is recorded and skipped;
    the rest of the run proceeds.
    """
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as executor:
            outcomes = list(executor.map(partial(_run_seed, cfg), cfg.seeds))
    else:
        outcomes = [_run_seed(cfg, s) for s in cfg.seeds]
    outcomes.sort(key=lambda o: o.seed)

    failures = tuple(o.failure for o in outcomes if o.failure is not None)
    done = [o for o in outcomes if o.failure is None]
    rows = []
    grid = []
    contexts = {}
    for o in done:
        rows.extend([o.base, o.retrain])
        grid.extend(o.grid)
        contexts[o.seed] = o.context

    selected = {}
    if grid:
        base_val_acc = float(np.mean([o.base.val_acc for o in done]))
        selected = select_hyperparams(grid, base_val_acc)
        for method in sorted(selected):
            key = _combo_key(selected[method])
            for o in done:
                for gr in o.grid:
                    if gr.config.method == method and _combo_key(gr.config) == key:
                        rows.append(gr.report)

    rows.sort(key=_row_order)
    return RunResult(
        config=cfg,
        rows=tuple(rows),
        aggregates=aggregate_rows(rows),
        selected=selected,
        grid=tuple(grid),
        failures=failures,
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
    trained models, otherwise the experiment is run first.  Returns one
    SweepPoint per w in grid order.
    """
    if method not in W_METHODS:
        raise ValueError(f"method {method!r} has no w to sweep")
    if method not in cfg.methods:
        raise ValueError(f"method {method!r} not enabled in config")
    if result is None:
        result = run_experiment(cfg, workers=workers)
    if method not in result.selected:
        raise ValueError(f"no grid results for {method!r} to anchor the sweep")
    anchor = result.selected[method]
    retrain_rows = {r.seed: r for r in result.rows if r.method == "retrain"}

    points = []
    for w in w_grid:
        reports = []
        for seed, ctx in sorted(result.contexts.items()):
            ucfg = replace(anchor, w=float(w), seed=derive_seed(seed, "unlearn"))
            model = unlearn(ctx.base_model, ctx.splits, ctx.pool, ucfg)
            report = evaluate_model(method, model, ctx, w=float(w))
            reports.append(with_gaps(report, retrain_rows[seed]))
        stats = aggregate_seeds(reports)
        points.append(SweepPoint(
            method=method,
            w=float(w),
            n_seeds=len(reports),
            test_acc_mean=stats["test_acc"][0],
            test_acc_std=stats["test_acc"][1],
            rmia_auc_mean=stats["rmia_auc"][0],
            rmia_auc_std=stats["rmia_auc"][1],
            gap_tp_mean=stats["gap_tp"][0],
            gap_tp_std=stats["gap_tp"][1],
        ))
    return points


# ---------------------------------------------------------------------------
# Report files.  All floats print at 17 significant digits and all row
# orders are fixed, so identical runs write identical bytes.

METRICS_HEADER = ("method", "seed", "w") + REPORT_FIELDS

SWEEP_HEADER = ("method", "w", "n_seeds", "test_acc_mean", "test_acc_std",
                "rmia_auc_mean", "rmia_auc_std", "gap_tp_mean", "gap_tp_std")


def _fmt(x: float) -> str:
    return "%.17g" % x


def _aggregated_header() -> tuple:
    cols = ["method", "w", "n_seeds"]
    for field_name in REPORT_FIELDS:
        cols.append(f"{field_name}_mean")
        cols.append(f"{field_name}_std")
    return tuple(cols)


def write_metrics_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(METRICS_HEADER) + "\n")
        for r in rows:
            cells = [r.method, str(r.seed), "" if r.w is None else _fmt(r.w)]
            cells.extend(_fmt(getattr(r, f)) for f in REPORT_FIELDS)
            fh.write(",".join(cells) + "\n")


def read_metrics_csv(path):
    """Parse a metrics CSV back into MetricsReport rows."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or tuple(lines[0].split(",")) != METRICS_HEADER:
        raise ValueError(f"{path}: not a metrics CSV")
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        cells = ln.split(",")
        if len(cells) != len(METRICS_HEADER):
            raise ValueError(f"{path} line {lineno}: wrong column count")
        try:
            rows.append(MetricsReport(
                method=cells[0],
                seed=int(cells[1]),
                w=None if cells[2] == "" else float(cells[2]),
                **{f: float(v) for f, v in zip(REPORT_FIELDS, cells[3:])},
            ))
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
    return rows


def write_aggregated_csv(aggregates, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(_aggregated_header()) + "\n")
        for agg in aggregates:
            cells = [agg.method, "" if agg.w is None else _fmt(agg.w),
                     str(agg.n_seeds)]
            for field_name in REPORT_FIELDS:
                mean, std = agg.stats[field_name]
                cells.append(_fmt(mean))
                cells.append(_fmt(std))
            fh.write(",".join(cells) + "\n")


def write_sweep_csv(points, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(SWEEP_HEADER) + "\n")
        for p in points:
            fh.write(",".join([
                p.method, _fmt(p.w), str(p.n_seeds),
                _fmt(p.test_acc_mean), _fmt(p.test_acc_std),
                _fmt(p.rmia_auc_mean), _fmt(p.rmia_auc_std),
                _fmt(p.gap_tp_mean), _fmt(p.gap_tp_std),
            ]) + "\n")


def write_report(result: RunResult, out_dir, sweep_points=None) -> list:
    """Write metrics.csv, aggregated.csv, optional sweep.csv, and the
    run manifest into ``out_dir``.  Returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "metrics.csv")
    write_metrics_csv(result.rows, path)
    written.append(path)

    path = os.path.join(out_dir, "aggregated.csv")
    write_aggregated_csv(result.aggregates, path)
    written.append(path)

    if sweep_points is not None:
        path = os.path.join(out_dir, "sweep.csv")
        write_sweep_csv(sweep_points, path)
        written.append(path)

    manifest = {
        "format": REPORT_FORMAT,
        "config": config_to_dict(result.config),
        "seeds": list(result.config.seeds),
        "selection_rule": SELECTION_RULE,
        "selected": {
            method: {
                "lr": ucfg.lr,
                "w": ucfg.w,
                "gamma": ucfg.gamma,
                "epochs": ucfg.epochs,
                "batch_size": ucfg.batch_size,
                "momentum": ucfg.momentum,
            }
            for method, ucfg in sorted(result.selected.items())
        },
        "failures": [
            {"seed": f.seed, "stage": f.stage, "error": f.error}
            for f in result.failures
        ],
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(path)
    return written
