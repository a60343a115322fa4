"""Harness: seeds, config serialization, selection, runs, reports."""

import importlib
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unlearnlab as ul
from unlearnlab import cli, harness
from unlearnlab.harness import (
    GridResult,
    METRICS_HEADER,
    MethodGrid,
    SELECTION_RULE,
    W_METHODS,
    aggregate_rows,
    method_grid_configs,
    write_aggregated_csv,
    write_metrics_csv,
)
from unlearnlab.metrics import REPORT_FIELDS
from unlearnlab.unlearn import METHOD_TABLE


def make_report(method, seed, w, forget_acc, val_acc, **over):
    base = dict(retain_acc=95.0, forget_acc=forget_acc, test_acc=90.0,
                val_acc=val_acc, retain_div=1.0, test_div=1.0,
                rmia_auc=50.0, smia_auc=50.0)
    base.update(over)
    return ul.MetricsReport(method=method, seed=seed, w=w, **base)


def make_grid_result(method, lr, w, gamma, seed, forget_acc, val_acc):
    cfg = ul.UnlearnConfig(method=method, lr=lr, w=w, gamma=gamma, seed=seed)
    rep_w = w if method in W_METHODS else None
    return GridResult(cfg, make_report(method, seed, rep_w, forget_acc, val_acc))


# --------------------------------------------------------------- derive_seed


def test_derive_seed_is_pure_and_distinct():
    a = ul.derive_seed(3, "data")
    assert a == ul.derive_seed(3, "data")
    assert a >= 0
    others = {ul.derive_seed(3, s) for s in
              ("test", "split", "init", "base", "retrain_init", "retrain",
               "unlearn", "ref_data", "ref_init", "ref_train")}
    assert a not in others and len(others) == 10
    assert ul.derive_seed(3, "ref_data", 0) != ul.derive_seed(3, "ref_data", 1)
    assert ul.derive_seed(3, "data") != ul.derive_seed(4, "data")
    with pytest.raises(KeyError):
        ul.derive_seed(3, "nonsense")


# -------------------------------------------------------------------- config


def test_config_dict_round_trip(tiny_cfg):
    doc = ul.config_to_dict(tiny_cfg)
    back = ul.config_from_dict(doc)
    assert ul.config_to_dict(back) == doc
    assert back.seeds == tiny_cfg.seeds
    assert back.methods["regun"] == tiny_cfg.methods["regun"]


def test_config_default_round_trip():
    cfg = ul.default_config()
    assert sorted(cfg.methods) == sorted(ul.METHODS)
    doc = ul.config_to_dict(cfg)
    assert ul.config_to_dict(ul.config_from_dict(doc)) == doc


def test_config_grid_loader_knobs_survive_round_trip():
    cfg = ul.default_config()
    doc = ul.config_to_dict(cfg)
    assert doc["methods"]["regun"]["batch_size"] == 1
    assert doc["methods"]["regun"]["num_matched"] == 16
    assert "batch_size" not in doc["methods"]["finetune"]
    back = ul.config_from_dict(doc)
    assert back.methods["regun"].batch_size == 1
    assert back.methods["regun"].retain_batch_size == 64
    assert back.methods["finetune"].batch_size is None


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ul.config_from_dict({"architecture": {}})
    with pytest.raises(ValueError, match="unknown grid keys"):
        ul.config_from_dict({"methods": {"regun": {"lr": [0.1]}}})
    with pytest.raises(ValueError, match="unknown data source"):
        ul.config_from_dict({"data": {"source": "parquet"}})


def test_load_config(tmp_path, tiny_cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ul.config_to_dict(tiny_cfg)))
    cfg = ul.load_config(path)
    assert ul.config_to_dict(cfg) == ul.config_to_dict(tiny_cfg)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ValueError, match="invalid JSON"):
        ul.load_config(bad)


def test_method_grid_validation():
    with pytest.raises(ValueError):
        MethodGrid(lrs=())
    with pytest.raises(ValueError):
        MethodGrid(lrs=(0.0,))
    with pytest.raises(ValueError):
        MethodGrid(ws=(1.5,))
    with pytest.raises(ValueError):
        MethodGrid(gammas=(-1.0,))
    with pytest.raises(ValueError):
        MethodGrid(batch_size=0)
    with pytest.raises(ValueError):
        MethodGrid(num_matched=0)


@pytest.mark.parametrize("axis, bad, match", [
    ("lrs", math.nan, "lrs must be finite"),
    ("lrs", math.inf, "lrs must be finite"),
    ("gammas", math.nan, "gammas must be finite"),
    ("gammas", math.inf, "gammas must be finite"),
    ("ws", math.nan, "ws must lie in"),
])
def test_method_grid_rejects_non_finite_values(axis, bad, match):
    with pytest.raises(ValueError, match=match):
        MethodGrid(**{axis: (0.5, bad)})


@pytest.mark.parametrize("kwargs, match", [
    ({"batch_size": 1.5}, "grid batch_size: expected an integer, got 1.5"),
    ({"num_matched": 2.9}, "grid num_matched: expected an integer, got 2.9"),
    ({"retain_batch_size": True}, "grid retain_batch_size: expected an integer"),
    ({"batch_size": 2.0}, "grid batch_size: expected an integer"),
    ({"lrs": (0.1, True)}, "grid lrs: expected a finite number"),
    ({"ws": (False,)}, "grid ws: expected a finite number"),
    ({"gammas": (True,)}, "grid gammas: expected a finite number"),
])
def test_method_grid_refuses_to_truncate_or_coerce_a_knob(kwargs, match):
    with pytest.raises(ValueError, match=match):
        MethodGrid(**kwargs)


@pytest.mark.parametrize("seeds", [(1.7, 2.2), (0, True), (3.0,)])
def test_experiment_config_refuses_to_truncate_a_seed(seeds):
    with pytest.raises(ValueError, match="seeds: expected an integer"):
        replace(ul.default_config(), seeds=seeds)


@pytest.mark.parametrize("name", ["rmia_refs", "unlearn_epochs"])
@pytest.mark.parametrize("bad", [1.5, True, 2.0])
def test_experiment_config_refuses_a_non_integer_count(name, bad):
    with pytest.raises(ValueError, match=f"{name}: expected an integer, got {bad!r}"):
        replace(ul.default_config(), **{name: bad})


@pytest.mark.parametrize("build, field", [
    (lambda: ul.TrainConfig(epochs=2.5, batch_size=4, lr=0.1), "epochs"),
    (lambda: ul.TrainConfig(epochs=2, batch_size=True, lr=0.1), "batch_size"),
    (lambda: ul.ArchitectureSpec("mlp1", 4, 3, hidden_dim=8.5), "hidden_dim"),
    (lambda: ul.GenSpec(3, 4, samples_per_class=2.5), "samples_per_class"),
    (lambda: ul.UnlearnConfig("regun", lr=0.1, epochs=2.5), "epochs"),
    (lambda: ul.UnlearnConfig("regun", lr=0.1, retain_batch_size=1.5), "retain_batch_size"),
    (lambda: ul.UnlearnConfig("regun", lr=0.1, num_matched=True), "num_matched"),
    (lambda: ul.RefDistConfig(num_matched=2.5), "num_matched"),
])
def test_config_classes_refuse_a_non_integer_count(build, field):
    with pytest.raises(ValueError, match=f"^{field}: expected an integer, got "):
        build()


@pytest.mark.parametrize("build, field", [
    (lambda: ul.TrainConfig(1, 4, 0.1, seed=True), "seed"),
    (lambda: ul.TrainConfig(1, 4, 0.1, seed=2.5), "seed"),
    (lambda: ul.GenSpec(3, 4, 5, seed=True), "seed"),
    (lambda: ul.GenSpec(3, 4, 5, seed=2.5), "seed"),
    (lambda: ul.UnlearnConfig("finetune", lr=0.1, seed=True), "seed"),
    (lambda: ul.UnlearnConfig("finetune", lr=0.1, seed=2.5), "seed"),
    (lambda: ul.RefDistConfig(seed=True), "seed"),
    (lambda: ul.RefDistConfig(seed=2.5), "seed"),
    (lambda: ul.TrainConfig(1, 4, lr=True), "lr"),
    (lambda: ul.UnlearnConfig("finetune", lr=0.1, w=True), "w"),
    (lambda: replace(ul.default_config(), gen=None, pool_csv="p", test_csv="t",
                     csv_header="false"), "csv_header"),
    (lambda: replace(ul.default_config(), gen=None, pool_csv=1, test_csv="t"),
     "pool_csv"),
    (lambda: replace(ul.default_config(), arch=None), "arch"),
    (lambda: replace(ul.default_config(), forget_fraction="0.1"), "forget_fraction"),
    (lambda: MethodGrid(lrs=0.1), "grid lrs"),
    (lambda: ul.ArchitectureSpec("linear", 4, 3, 0, activation=1), "activation"),
])
def test_a_wrong_typed_field_fails_at_construction(build, field):
    # each of these used to construct, or to fail later with another error
    with pytest.raises(ValueError, match=f"^{field}: expected"):
        build()


def test_integer_counts_keep_their_bytes_in_the_config_block():
    cfg = ul.default_config()
    again = replace(cfg, rmia_refs=np.int64(cfg.rmia_refs),
                    unlearn_epochs=np.int32(cfg.unlearn_epochs))
    assert type(again.rmia_refs) is int and type(again.unlearn_epochs) is int
    assert (json.dumps(ul.config_to_dict(again))
            == json.dumps(ul.config_to_dict(cfg)))


def test_numpy_integers_are_stored_as_python_ints():
    grid = MethodGrid(batch_size=np.int64(4), num_matched=np.int32(2))
    cfg = replace(ul.default_config(), seeds=(np.int64(3),),
                  methods={"regun": grid})
    assert type(grid.batch_size) is int and type(grid.num_matched) is int
    assert type(cfg.seeds[0]) is int
    # the manifest's config block stays valid JSON
    json.dumps(ul.config_to_dict(cfg))


@pytest.mark.parametrize("data, key", [
    ({"source": "csv", "test": "t.csv"}, "data.pool"),
    ({"source": "csv", "pool": "p.csv"}, "data.test"),
    ({"source": "csv", "pool": None, "test": "t.csv"}, "data.pool"),
    ({"source": "csv"}, "data.pool"),
])
def test_a_csv_config_names_the_missing_file_key(data, key):
    with pytest.raises(ValueError, match=f"config key {key}: the csv source needs"):
        ul.config_from_dict({"data": data})


@pytest.mark.parametrize("method, key, value", [
    ("finetune", "ws", [0.1, 0.9]),
    ("neggrad", "ws", [0.3]),
    ("l1_sparse", "ws", [0.9]),
    ("regun", "gammas", [0.5]),
    ("neggrad_plus", "gammas", [0.0, 1e-3]),
])
def test_config_rejects_an_axis_the_method_does_not_sweep(method, key, value):
    with pytest.raises(ValueError, match=rf"methods\.{method}\.{key}\b"):
        ul.config_from_dict({"methods": {method: {key: value}}})
    # a Python-built grid holds the same rule
    with pytest.raises(ValueError, match=rf"methods\.{method}\.{key}\b"):
        replace(ul.default_config(),
                methods={method: MethodGrid(**{key: tuple(value)})})


def test_config_accepts_an_unswept_axis_at_its_default():
    # config_to_dict echoes every axis, so a default one must read back
    cfg = ul.config_from_dict({"methods": {"finetune": {"ws": [0.5], "gammas": [0.0]},
                                           "regun": {"gammas": [0]}}})
    assert cfg.methods["finetune"] == MethodGrid()
    assert cfg.methods["regun"].gammas == (0.0,)


def test_experiment_config_validation(tiny_cfg):
    arch = tiny_cfg.arch
    with pytest.raises(ValueError, match="exactly one"):
        ul.ExperimentConfig(arch=arch)
    with pytest.raises(ValueError, match="exactly one"):
        ul.ExperimentConfig(arch=arch, gen=tiny_cfg.gen, pool_csv="x.csv")
    with pytest.raises(ValueError, match="pool_csv and test_csv"):
        ul.ExperimentConfig(arch=arch, pool_csv="x.csv")
    with pytest.raises(ValueError, match="num_classes"):
        bad_gen = ul.GenSpec(num_classes=4, input_dim=arch.input_dim,
                             samples_per_class=5)
        ul.ExperimentConfig(arch=arch, gen=bad_gen)
    with pytest.raises(ValueError, match="distinct"):
        ul.ExperimentConfig(arch=arch, gen=tiny_cfg.gen, seeds=(0, 0))
    with pytest.raises(ValueError, match="unknown method"):
        ul.ExperimentConfig(arch=arch, gen=tiny_cfg.gen,
                            methods={"ascent": MethodGrid()})
    with pytest.raises(ValueError, match="MethodGrid"):
        ul.ExperimentConfig(arch=arch, gen=tiny_cfg.gen,
                            methods={"regun": {"lrs": [0.1]}})


# --------------------------------------------------------- grid expansion


def test_method_grid_configs_expansion(tiny_cfg):
    regun_cfgs = method_grid_configs(tiny_cfg, "regun", seed=0)
    assert [(c.lr, c.w) for c in regun_cfgs] == [(0.05, 0.5), (0.05, 0.9)]
    for c in regun_cfgs:
        assert c.epochs == tiny_cfg.unlearn_epochs
        assert c.batch_size == 4  # fixed by the grid
        assert c.momentum == tiny_cfg.base.momentum
        assert c.seed == ul.derive_seed(0, "unlearn")
    ft = method_grid_configs(tiny_cfg, "finetune", seed=0)
    assert len(ft) == 1 and ft[0].w == 0.5  # w axis collapses
    assert ft[0].batch_size == tiny_cfg.base.batch_size  # inherited


def test_method_grid_configs_gamma_axis():
    cfg = ul.default_config()
    l1 = method_grid_configs(cfg, "l1_sparse", seed=1)
    assert [(c.lr, c.gamma) for c in l1] == [(0.05, 5e-5), (0.05, 5e-4)]
    ng = method_grid_configs(cfg, "neggrad", seed=1)
    assert len(ng) == 3 and all(c.gamma == 0.0 for c in ng)


# ------------------------------------------------------------------ selection


def test_select_hyperparams_single_point():
    gr = make_grid_result("finetune", 0.05, 0.5, 0.0, seed=3,
                          forget_acc=80.0, val_acc=80.0)
    sel = ul.select_hyperparams([gr], base_val_acc=80.0)
    assert sel["finetune"].lr == 0.05
    assert sel["finetune"].seed == 0  # canonical seed


def test_select_hyperparams_prefers_small_forget_val_gap():
    a = make_grid_result("regun", 0.01, 0.5, 0.0, 0, forget_acc=85.0, val_acc=80.0)
    b = make_grid_result("regun", 0.02, 0.5, 0.0, 0, forget_acc=81.0, val_acc=78.0)
    # scores: a = 5 + 0 = 5, b = 3 + 2 = 5 - tie, higher val wins
    sel = ul.select_hyperparams([a, b], base_val_acc=80.0)
    assert sel["regun"].lr == 0.01
    # drop the utility penalty: b scores 3 and wins
    sel = ul.select_hyperparams([a, b], base_val_acc=78.0)
    assert sel["regun"].lr == 0.02


def test_select_hyperparams_averages_over_seeds():
    rows = [
        make_grid_result("regun", 0.01, 0.5, 0.0, 0, forget_acc=90.0, val_acc=80.0),
        make_grid_result("regun", 0.01, 0.5, 0.0, 1, forget_acc=70.0, val_acc=80.0),
        make_grid_result("regun", 0.02, 0.5, 0.0, 0, forget_acc=86.0, val_acc=80.0),
        make_grid_result("regun", 0.02, 0.5, 0.0, 1, forget_acc=86.0, val_acc=80.0),
    ]
    # combo 0.01 averages to |80-80| = 0; combo 0.02 to 6
    sel = ul.select_hyperparams(rows, base_val_acc=80.0)
    assert sel["regun"].lr == 0.01


def test_select_hyperparams_tie_breaks_toward_lower_lr():
    a = make_grid_result("regun", 0.02, 0.5, 0.0, 0, forget_acc=80.0, val_acc=80.0)
    b = make_grid_result("regun", 0.01, 0.5, 0.0, 0, forget_acc=80.0, val_acc=80.0)
    sel = ul.select_hyperparams([a, b], base_val_acc=80.0)
    assert sel["regun"].lr == 0.01
    c = make_grid_result("regun", 0.01, 0.9, 0.0, 0, forget_acc=80.0, val_acc=80.0)
    sel = ul.select_hyperparams([b, c], base_val_acc=80.0)
    assert sel["regun"].w == 0.5


def test_select_hyperparams_matches_exhaustive_oracle():
    rng = np.random.default_rng(47)
    rows = []
    for method in ("regun", "finetune"):
        for lr in (0.01, 0.05):
            for w in ((0.3, 0.7) if method in W_METHODS else (0.5,)):
                for seed in (0, 1, 2):
                    rows.append(make_grid_result(
                        method, lr, w, 0.0, seed,
                        forget_acc=float(rng.uniform(60, 100)),
                        val_acc=float(rng.uniform(60, 100))))
    base_val = 85.0
    sel = ul.select_hyperparams(rows, base_val_acc=base_val)

    for method in ("regun", "finetune"):
        combos = {}
        for gr in rows:
            if gr.config.method != method:
                continue
            key = (gr.config.lr, gr.config.w, gr.config.gamma)
            combos.setdefault(key, []).append(gr.report)
        best, best_rank = None, None
        for key in sorted(combos):
            f = np.mean([r.forget_acc for r in combos[key]])
            v = np.mean([r.val_acc for r in combos[key]])
            rank = (abs(f - v) + max(0.0, base_val - v), -v) + key
            if best_rank is None or rank < best_rank:
                best, best_rank = key, rank
        assert (sel[method].lr, sel[method].w, sel[method].gamma) == best


def test_select_hyperparams_empty_grid():
    with pytest.raises(ValueError):
        ul.select_hyperparams([], base_val_acc=80.0)


# ------------------------------------------------------------ run_experiment


@pytest.fixture(scope="module")
def tiny_run(tiny_cfg):
    return ul.run_experiment(tiny_cfg)


def test_run_rows_and_order(tiny_cfg, tiny_run):
    rows = tiny_run.rows
    # per seed: base, retrain, one selected point per method
    assert len(rows) == len(tiny_cfg.seeds) * (2 + len(tiny_cfg.methods))
    assert not tiny_run.failures
    keys = [(r.method, r.seed, -1.0 if r.w is None else r.w) for r in rows]
    assert keys == sorted(keys)
    methods = {r.method for r in rows}
    assert methods == {"base", "retrain", "regun", "finetune"}
    for r in rows:
        if r.method in W_METHODS:
            assert r.w is not None
        else:
            assert r.w is None


def test_run_retrain_rows_have_zero_gap(tiny_run):
    retrain = [r for r in tiny_run.rows if r.method == "retrain"]
    assert len(retrain) == 2
    for r in retrain:
        assert r.gap_rftp == 0.0 and r.gap_tp == 0.0


def test_run_gaps_recompute_against_oracle(tiny_run):
    oracle = {r.seed: r for r in tiny_run.rows if r.method == "retrain"}
    for r in tiny_run.rows:
        if r.method == "retrain":
            continue
        gap_rftp, gap_tp = ul.gap_report(r, oracle[r.seed])
        assert r.gap_rftp == gap_rftp and r.gap_tp == gap_tp


def test_run_grid_covers_every_combo(tiny_cfg, tiny_run):
    # regun: 1 lr x 2 w, finetune: 1 combo, over 2 seeds
    assert len(tiny_run.grid) == (2 + 1) * 2
    assert set(tiny_run.selected) == {"regun", "finetune"}
    assert tiny_run.selected["regun"].w in (0.5, 0.9)
    assert tiny_run.selected["regun"].batch_size == 4


def test_run_aggregates_match_manual_grouping(tiny_run):
    groups = {}
    for r in tiny_run.rows:
        groups.setdefault((r.method, r.w), []).append(r)
    assert len(tiny_run.aggregates) == len(groups)
    for agg in tiny_run.aggregates:
        members = groups[(agg.method, agg.w)]
        assert agg.n_seeds == len(members)
        assert agg.stats == ul.aggregate_seeds(members)
    again = aggregate_rows(tiny_run.rows)
    assert again == tiny_run.aggregates


def test_run_contexts_keyed_by_seed(tiny_cfg, tiny_run):
    assert sorted(tiny_run.contexts) == sorted(tiny_cfg.seeds)
    ctx = tiny_run.contexts[tiny_cfg.seeds[0]]
    assert ctx.base_model.arch == tiny_cfg.arch
    assert len(ctx.references) == tiny_cfg.rmia_refs


def test_run_isolates_a_failing_seed(tiny_cfg, monkeypatch):
    real = harness.prepare_seed

    def flaky(cfg, seed, with_references=True, pmap=map):
        if seed == tiny_cfg.seeds[1]:
            raise RuntimeError("synthetic failure")
        return real(cfg, seed, with_references, pmap)

    monkeypatch.setattr(harness, "prepare_seed", flaky)
    result = ul.run_experiment(tiny_cfg)
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.seed == tiny_cfg.seeds[1]
    assert failure.stage == "prepare"
    assert "synthetic failure" in failure.error
    assert {r.seed for r in result.rows} == {tiny_cfg.seeds[0]}


def _fail_points(monkeypatch, doomed):
    """Make each unlearned point whose (seed, method, w) is in ``doomed``
    raise, patched before any pool forks, so workers see it too."""
    unlearn_module = importlib.import_module("unlearnlab.unlearn")
    real = unlearn_module._run

    def flaky(name, model, splits, data, cfg, *rest):
        if (cfg.seed, name, cfg.w) in doomed or (cfg.seed, name, None) in doomed:
            raise RuntimeError(f"synthetic {name} w={cfg.w}")
        return real(name, model, splits, data, cfg, *rest)

    monkeypatch.setattr(unlearn_module, "_run", flaky)


def test_failures_match_across_the_pool(tiny_cfg, monkeypatch, tmp_path):
    # the seed's failure is the first in serial grid order whichever
    # unit the pool finishes first
    seed = ul.derive_seed(tiny_cfg.seeds[1], "unlearn")
    for ws, doomed, failure in [
        # every finetune and regun point of the second seed fails
        ((0.5, 0.9), {("finetune", None), ("regun", None)},
         ("unlearn:finetune", "RuntimeError: synthetic finetune w=0.5")),
        # one point in the middle of the serial regun slice fails
        ((0.5, 0.7, 0.9), {("regun", 0.7)},
         ("unlearn:regun", "RuntimeError: synthetic regun w=0.7")),
    ]:
        cfg = replace(tiny_cfg, methods={**tiny_cfg.methods, "regun": replace(
            tiny_cfg.methods["regun"], ws=ws)})
        with monkeypatch.context() as patch:
            _fail_points(patch, {(seed, *point) for point in doomed})
            serial = ul.run_experiment(cfg)
            parallel = ul.run_experiment(cfg, workers=2)
        assert serial.failures == parallel.failures == (
            harness.SeedFailure(cfg.seeds[1], *failure),)
        assert {r.seed for r in parallel.rows} == {cfg.seeds[0]}
        assert len(parallel.rows) == 2 + len(cfg.methods)
        out = tmp_path / str(len(ws))
        ul.write_report(serial, out / "serial")
        ul.write_report(parallel, out / "parallel")
        for name in ("metrics.csv", "aggregated.csv", "manifest.json"):
            assert ((out / "serial" / name).read_bytes()
                    == (out / "parallel" / name).read_bytes())


def _blas_threads_here(_):
    return harness._openblas_threads()[0]()


def test_pool_workers_pin_blas_to_one_thread(tiny_cfg):
    threads = harness._openblas_threads()
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    before = threads[0]()
    with harness._mapper(2) as pmap:
        assert list(pmap(_blas_threads_here, range(4))) == [1] * 4
    ul.run_experiment(tiny_cfg, workers=2)
    assert threads[0]() == before


@pytest.fixture
def blas_threads():
    """The getter of numpy's OpenBLAS thread count, which is 2 for the
    test and restored after it."""
    threads = harness._openblas_threads()
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    get, set_ = threads
    before = get()
    set_(2)
    if get() != 2:
        set_(before)
        pytest.skip("OpenBLAS runs on one thread at most here")
    yield get
    set_(before)


def test_a_serial_run_pins_blas_to_one_thread_and_restores_it(tiny_cfg, monkeypatch,
                                                              blas_threads):
    get = blas_threads
    real, seen = harness.train, []

    def recording(*args, **kwargs):
        seen.append(get())
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "train", recording)
    ul.run_experiment(replace(tiny_cfg, seeds=(0,)))
    assert seen and set(seen) == {1}
    assert get() == 2

    def broken(*_):
        raise RuntimeError("synthetic")

    monkeypatch.setattr(harness, "method_grid_configs", broken)
    with pytest.raises(RuntimeError, match="synthetic"):
        ul.run_experiment(replace(tiny_cfg, seeds=(0,)))
    assert get() == 2


@pytest.mark.parametrize("command", ["train", "unlearn", "evaluate"])
def test_single_seed_commands_pin_blas_to_one_thread(tiny_cfg, tmp_path, monkeypatch,
                                                     blas_threads, command):
    get = blas_threads
    seen = []

    def recording(*_, **__):
        seen.append(get())
        raise KeyError("stop")

    monkeypatch.setattr(cli, "prepare_seed", recording)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ul.config_to_dict(tiny_cfg)))
    ckpt = tmp_path / "model.ckpt"
    ul.save_checkpoint(ul.init_model(tiny_cfg.arch, seed=0), ckpt)
    extra = {"train": [], "unlearn": ["--method", "finetune"], "evaluate": [str(ckpt)]}
    with pytest.raises(KeyError, match="stop"):
        cli.main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                  *extra[command]])
    assert seen == [1] and get() == 2


@pytest.mark.parametrize("workers", [1.5, 2.0, True])
def test_non_integer_workers_are_rejected(tiny_cfg, tiny_run, workers):
    with pytest.raises(ValueError, match="workers: expected an integer"):
        ul.run_experiment(tiny_cfg, workers=workers)
    with pytest.raises(ValueError, match="workers: expected an integer"):
        ul.sweep_tradeoff(tiny_cfg, "regun", (0.5,), result=tiny_run,
                          workers=workers)


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_are_rejected(tiny_cfg, tiny_run, workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        ul.run_experiment(tiny_cfg, workers=workers)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        ul.sweep_tradeoff(tiny_cfg, "regun", (0.5,), result=tiny_run,
                          workers=workers)


# -------------------------------------------------------------------- sweeps


def test_sweep_tradeoff_points(tiny_cfg, tiny_run):
    pts = ul.sweep_tradeoff(tiny_cfg, "regun", (0.3, 0.7), result=tiny_run)
    assert [p.w for p in pts] == [0.3, 0.7]
    for p in pts:
        assert p.method == "regun"
        assert p.n_seeds == len(tiny_cfg.seeds)
        assert 0.0 <= p.test_acc_mean <= 100.0
        assert p.test_acc_std >= 0.0


def test_parallel_sweep_matches_serial(tmp_path, tiny_cfg, tiny_run):
    ws = (0.2, 0.5, 0.8)
    for workers in (1, 2):
        pts = ul.sweep_tradeoff(tiny_cfg, "regun", ws, result=tiny_run,
                                workers=workers)
        ul.write_report(tiny_run, tmp_path / str(workers), sweep_points=pts)
    assert ((tmp_path / "1" / "sweep.csv").read_bytes()
            == (tmp_path / "2" / "sweep.csv").read_bytes())


def test_sweep_rejects_non_w_methods(tiny_cfg, tiny_run):
    with pytest.raises(ValueError, match="has no w"):
        ul.sweep_tradeoff(tiny_cfg, "finetune", (0.5,), result=tiny_run)
    with pytest.raises(ValueError, match="not enabled"):
        ul.sweep_tradeoff(tiny_cfg, "neggrad_plus", (0.5,), result=tiny_run)


@pytest.mark.parametrize("w_grid, match", [
    ((True,), "ws: expected a finite number, got True"),
    (("0.5",), "ws: expected a finite number, got '0.5'"),
    ((), r"ws must be non-empty and lie in \[0, 1\], got \(\)"),
    ((0.5, 1.5), r"ws must be non-empty and lie in \[0, 1\]"),
    ((math.nan,), r"ws must be non-empty and lie in \[0, 1\]"),
    (0.5, "ws: expected a list, got 0.5"),
])
def test_a_sweep_checks_its_w_grid_with_the_field_rule(tiny_cfg, tiny_run, w_grid, match):
    with pytest.raises(ValueError, match=match):
        ul.sweep_tradeoff(tiny_cfg, "regun", w_grid, result=tiny_run)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_sweep_reports_its_first_failure_in_w_then_seed_order(
        tiny_cfg, tiny_run, monkeypatch, workers):
    # the first seed fails at the last w, the second at the first w
    first, second = (ul.derive_seed(s, "unlearn") for s in tiny_cfg.seeds)
    _fail_points(monkeypatch, {(first, "regun", 0.7), (second, "regun", 0.3)})
    with pytest.raises(ValueError, match=(
            f"sweep of regun failed on seed {tiny_cfg.seeds[1]} at unlearn:regun: "
            "RuntimeError: synthetic regun w=0.3")):
        ul.sweep_tradeoff(tiny_cfg, "regun", (0.3, 0.5, 0.7), result=tiny_run,
                          workers=workers)


# -------------------------------------------------------------------- slices


@pytest.mark.parametrize("n", range(0, 10))
@pytest.mark.parametrize("count", [1, 2, 3, 7])
def test_slices_are_contiguous_balanced_and_cover_every_point_once(n, count):
    points = list(range(n))
    parts = harness._slices(points, count)
    assert len(parts) == min(count, n)
    assert [p for part in parts for p in part] == points
    assert all(part for part in parts)
    assert max(map(len, parts), default=0) - min(map(len, parts), default=0) <= 1


def test_a_slice_builds_its_plan_once(tiny_cfg, toy, monkeypatch):
    unlearn_module = importlib.import_module("unlearnlab.unlearn")
    real, built = unlearn_module._build_plan, []

    def counted(*args):
        built.append(args[2])
        return real(*args)

    monkeypatch.setattr(unlearn_module, "_build_plan", counted)
    cfg = ul.UnlearnConfig("regun", lr=0.05, epochs=2, batch_size=4, seed=3)
    points = [cfg, replace(cfg, lr=0.01, w=0.9), replace(cfg, gamma=0.5, momentum=0.5)]
    models = list(unlearn_module._run_slice(toy.base, toy.splits, toy.pool, points))
    assert built == [cfg]
    for point, model in zip(points, models, strict=True):
        alone = ul.regun(toy.base, toy.splits, toy.pool, point)
        assert np.array_equal(model.theta, alone.theta)
    assert len(built) == 1 + len(points)  # called alone, each point builds its own
    # a serial run builds one plan per seed and paired method
    built.clear()
    ul.run_experiment(tiny_cfg)
    assert len(built) == len(tiny_cfg.seeds)


def test_a_slice_refuses_points_that_need_different_plans(toy):
    unlearn_module = importlib.import_module("unlearnlab.unlearn")
    cfg = ul.UnlearnConfig("regun", lr=0.05, epochs=2, batch_size=4, seed=3)
    for other in (replace(cfg, seed=4), replace(cfg, batch_size=2),
                  replace(cfg, method="neggrad_plus")):
        with pytest.raises(ValueError, match="may differ only in lr, w, momentum and gamma"):
            next(unlearn_module._run_slice(toy.base, toy.splits, toy.pool, [cfg, other]))


# ------------------------------------------------------------------- reports


def test_metrics_csv_round_trip(tmp_path, tiny_run):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(tiny_run.rows, path)
    back = ul.read_metrics_csv(path)
    assert tuple(back) == tiny_run.rows
    # a second write of the parsed rows is byte-identical
    path2 = tmp_path / "again.csv"
    write_metrics_csv(back, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_read_metrics_csv_errors(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("method,seed\n")
    with pytest.raises(ValueError, match="not a metrics CSV"):
        ul.read_metrics_csv(path)
    header = ",".join(METRICS_HEADER)
    path.write_text(header + "\nbase,0,\n")
    with pytest.raises(ValueError, match="line 2"):
        ul.read_metrics_csv(path)
    path.write_text(header + "\nbase,0,," + ",".join(["oops"] * 10) + "\n")
    with pytest.raises(ValueError, match="line 2"):
        ul.read_metrics_csv(path)


def test_write_report_files_and_manifest(tmp_path, tiny_cfg, tiny_run):
    out = tmp_path / "report"
    written = ul.write_report(tiny_run, out)
    names = [p.split("/")[-1] for p in written]
    assert names == ["metrics.csv", "aggregated.csv", "manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format"] == "unlearnlab-run v1"
    assert manifest["selection_rule"] == SELECTION_RULE
    assert manifest["seeds"] == list(tiny_cfg.seeds)
    assert manifest["config"] == ul.config_to_dict(tiny_cfg)
    assert set(manifest["selected"]) == {"regun", "finetune"}
    assert manifest["failures"] == []
    sel = manifest["selected"]["regun"]
    assert set(sel) == {"lr", "w", "gamma", "epochs", "batch_size", "momentum"}

    agg_lines = (out / "aggregated.csv").read_text().splitlines()
    assert agg_lines[0].startswith("method,w,n_seeds,retain_acc_mean")
    assert len(agg_lines) == 1 + len(tiny_run.aggregates)


def test_write_report_is_byte_stable(tmp_path, tiny_cfg, tiny_run):
    pts = ul.sweep_tradeoff(tiny_cfg, "regun", (0.4,), result=tiny_run)
    a, b = tmp_path / "a", tmp_path / "b"
    ul.write_report(tiny_run, a, sweep_points=pts)
    ul.write_report(tiny_run, b, sweep_points=pts)
    for name in ("metrics.csv", "aggregated.csv", "sweep.csv", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_parallel_run_matches_serial(tmp_path, tiny_cfg, tiny_run):
    parallel = ul.run_experiment(tiny_cfg, workers=2)
    a, b = tmp_path / "serial", tmp_path / "parallel"
    ul.write_report(tiny_run, a)
    ul.write_report(parallel, b)
    for name in ("metrics.csv", "aggregated.csv", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_csv_test_set_without_the_top_class_runs(tmp_path, tiny_cfg):
    # a small test CSV may lack the highest class; the class count comes
    # from the architecture, not from the labels one file happens to hold
    pool = ul.generate_gaussian_mixture(replace(tiny_cfg.gen, seed=5))
    test = ul.generate_gaussian_mixture(replace(tiny_cfg.gen, seed=6))
    keep = test.labels < 3
    ul.write_csv(pool, tmp_path / "pool.csv")
    ul.write_csv(ul.Dataset(test.features[keep], test.labels[keep], 2),
                 tmp_path / "test.csv")
    cfg = replace(tiny_cfg, gen=None, pool_csv=str(tmp_path / "pool.csv"),
                  test_csv=str(tmp_path / "test.csv"), seeds=(0,))
    result = ul.run_experiment(cfg)
    assert result.failures == ()
    assert len(result.rows) == 2 + len(cfg.methods)


# ------------------------------------------------------- typed config reader


@pytest.mark.parametrize("doc, key", [
    ({"arch": {"hiden_dim": 8}}, "arch.hiden_dim"),
    ({"base": {"epoch": 3}}, "base.epoch"),
    ({"data": {"samples_per_clas": 3}}, "data.samples_per_clas"),
    ({"data": {"source": "csv", "pool": "p.csv", "test": "t.csv",
               "noise_sigma": 1.0}}, "data.noise_sigma"),
    ({"base": {"seed": 3}}, "base.seed"),
    ({"data": {"num_classes": 3}}, "data.num_classes"),
])
def test_config_from_dict_rejects_unknown_nested_keys(doc, key):
    with pytest.raises(ValueError, match="unknown config keys") as err:
        ul.config_from_dict(doc)
    assert repr(key) in str(err.value)


@pytest.mark.parametrize("doc, key", [
    ({"seeds": 3}, "seeds"),
    ({"methods": {"regun": {"lrs": 0.1}}}, "methods.regun.lrs"),
    ({"methods": ["regun"]}, "methods"),
    ({"methods": {"regun": "fast"}}, "methods.regun"),
    ({"arch": "mlp1"}, "arch"),
    ({"arch": {"input_dim": 3.7}}, "arch.input_dim"),
    ({"arch": {"hidden_dim": True}}, "arch.hidden_dim"),
    ({"arch": {"kind": 1}}, "arch.kind"),
    ({"seeds": [0.5, 1]}, r"seeds\[0\]"),
    ({"seeds": [False]}, r"seeds\[0\]"),
    ({"methods": {"regun": {"batch_size": 1.5}}}, "methods.regun.batch_size"),
    ({"methods": {"regun": {"ws": ["0.5"]}}}, r"methods.regun.ws\[0\]"),
    ({"base": {"lr": "0.1"}}, "base.lr"),
    ({"base": {"lr": 10 ** 400}}, "base.lr"),
    ({"base": {"lr": float("inf")}}, "base.lr"),
    ({"methods": {"l1_sparse": {"gammas": [float("nan")]}}},
     r"methods.l1_sparse.gammas\[0\]"),
    ({"forget_fraction": True}, "forget_fraction"),
    ({"data": {"source": "csv", "pool": "p.csv", "test": "t.csv",
               "header": "false"}}, "data.header"),
    ({"data": {"source": "csv", "pool": 1, "test": "t.csv"}}, "data.pool"),
    ({"data": "gaussian"}, "data"),
])
def test_config_from_dict_type_checks_every_value(doc, key):
    with pytest.raises(ValueError, match=f"config key {key}: expected"):
        ul.config_from_dict(doc)


def test_config_from_dict_type_rules_accept():
    cfg = ul.config_from_dict({
        "base": {"lr": 1}, "forget_fraction": 0.2,
        "methods": {"regun": {"lrs": [1], "batch_size": None}},
        "data": {"source": "csv", "pool": "p.csv", "test": "t.csv",
                 "header": True}})
    # an int in a float field is stored as a float, so manifests print 1.0
    assert type(cfg.base.lr) is float and cfg.base.lr == 1.0
    assert cfg.methods["regun"].lrs == (1.0,)
    assert cfg.methods["regun"].batch_size is None
    assert cfg.csv_header is True and cfg.gen is None
    with pytest.raises(ValueError, match="config: expected an object"):
        ul.config_from_dict([1])


_floats = dict(allow_nan=False, allow_infinity=False)


@st.composite
def experiment_configs(draw):
    kind = draw(st.sampled_from(["linear", "mlp1"]))
    d, k = draw(st.integers(1, 40)), draw(st.integers(2, 12))
    arch = ul.ArchitectureSpec(
        kind, d, k, hidden_dim=0 if kind == "linear" else draw(st.integers(1, 300)),
        activation=draw(st.sampled_from(["tanh", "relu"])))
    base = ul.TrainConfig(epochs=draw(st.integers(0, 100)),
                          batch_size=draw(st.integers(1, 512)),
                          lr=draw(st.floats(1e-6, 10.0, **_floats)),
                          momentum=draw(st.floats(0.0, 0.99, **_floats)))
    knob = st.none() | st.integers(1, 256)
    methods = {
        name: MethodGrid(
            lrs=tuple(draw(st.lists(st.floats(1e-6, 1.0, **_floats), min_size=1, max_size=3))),
            ws=tuple(draw(st.lists(st.floats(0.0, 1.0, **_floats), min_size=1, max_size=3)))
            if "w" in METHOD_TABLE[name].axes else MethodGrid().ws,
            gammas=tuple(draw(st.lists(st.floats(0.0, 1.0, **_floats), min_size=1, max_size=2)))
            if "gamma" in METHOD_TABLE[name].axes else MethodGrid().gammas,
            batch_size=draw(knob), retain_batch_size=draw(knob),
            num_matched=draw(knob))
        for name in draw(st.lists(st.sampled_from(ul.METHODS), unique=True))
    }
    if draw(st.booleans()):
        source = dict(gen=ul.GenSpec(
            k, d, draw(st.integers(1, 500)),
            centroid_scale=draw(st.floats(0.01, 10.0, **_floats)),
            noise_sigma=draw(st.floats(0.01, 10.0, **_floats))))
    else:
        source = dict(pool_csv=draw(st.text(min_size=1)),
                      test_csv=draw(st.text(min_size=1)),
                      csv_header=draw(st.booleans()))
    return ul.ExperimentConfig(
        arch=arch, base=base, methods=methods, **source,
        forget_fraction=draw(st.floats(0.01, 0.99, **_floats)),
        unlearn_epochs=draw(st.integers(0, 50)),
        seeds=tuple(draw(st.lists(st.integers(0, 2**31), min_size=1,
                                  max_size=4, unique=True))),
        rmia_refs=draw(st.integers(1, 8)))


@settings(max_examples=150, deadline=None, database=None)
@given(experiment_configs())
def test_config_json_round_trip_is_exact(cfg):
    doc = ul.config_to_dict(cfg)
    back = ul.config_from_dict(json.loads(json.dumps(doc)))
    assert ul.config_to_dict(back) == doc
    assert (back.arch, back.base, back.gen, back.methods) == (
        cfg.arch, cfg.base, cfg.gen, cfg.methods)
    assert (back.pool_csv, back.test_csv, back.csv_header) == (
        cfg.pool_csv, cfg.test_csv, cfg.csv_header)
    assert (back.forget_fraction, back.unlearn_epochs, back.seeds,
            back.rmia_refs) == (cfg.forget_fraction, cfg.unlearn_epochs,
                                cfg.seeds, cfg.rmia_refs)


@pytest.mark.parametrize("sep", [",", "\n", "\r"])
def test_report_csv_rejects_separator_cells(tmp_path, sep):
    row = make_report(f"a{sep}b", 0, None, forget_acc=80.0, val_acc=80.0)
    path = tmp_path / "metrics.csv"
    with pytest.raises(ValueError, match="separator"):
        write_metrics_csv([row], path)
    assert not path.exists()


@pytest.mark.parametrize("w", ["nan", "inf", "-inf"])
def test_read_metrics_csv_rejects_a_non_finite_w(tmp_path, w):
    path = tmp_path / "metrics.csv"
    write_metrics_csv([make_report("regun", 0, 0.5, 80.0, 80.0)], path)
    header, row = path.read_text().splitlines()
    path.write_text(f"{header}\n{row.replace(',0.5,', f',{w},')}\n")
    with pytest.raises(ValueError) as info:
        ul.read_metrics_csv(path)
    assert str(info.value) == f"{path} line 2: expected a finite number, got {w!r}"


def test_read_metrics_csv_names_the_line_of_an_out_of_range_value_once(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics_csv([make_report("base", 0, None, 80.0, 80.0)], path)
    header, row = path.read_text().splitlines()
    path.write_text(f"{header}\n\n{row.replace(',80,', ',120,', 1)}\n")
    with pytest.raises(ValueError) as info:
        ul.read_metrics_csv(path)
    assert str(info.value) == f"{path} line 3: forget_acc=120.0 outside [0, 100]"


# ------------------------------------------------- seed preparation as jobs


def test_pooled_preparation_matches_prepare_seed_bit_for_bit(tiny_cfg):
    pooled = ul.run_experiment(tiny_cfg, workers=2).contexts
    for seed in tiny_cfg.seeds:
        got, want = pooled[seed], ul.prepare_seed(tiny_cfg, seed)
        pairs = [(got.base_model, want.base_model),
                 (got.retrain_model, want.retrain_model),
                 *zip(got.references, want.references, strict=True)]
        for a, b in pairs:
            assert np.array_equal(a.theta, b.theta)
        for mine, theirs in ((got.oracle_probs, want.oracle_probs),
                             (got.ref_means, want.ref_means)):
            assert mine.keys() == theirs.keys()
            for split in mine:
                assert np.array_equal(mine[split], theirs[split])


@pytest.mark.parametrize("with_references", [True, False])
def test_prepare_seed_maps_the_data_job_then_one_job_per_frozen_model(
        tiny_cfg, with_references):
    rounds = []

    def recording(fn, *iterables):
        jobs = list(zip(*iterables))
        rounds.append(len(jobs))
        return [fn(*job) for job in jobs]

    ctx = ul.prepare_seed(tiny_cfg, 0, with_references, pmap=recording)
    refs = tiny_cfg.rmia_refs if with_references else 0
    assert rounds == [1, 2 + refs]
    assert len(ctx.references) == refs


def test_a_pooled_run_computes_nothing_in_the_parent(tiny_cfg, monkeypatch):
    # workers fork after the patch, but each counts into its own copy
    models = importlib.import_module("unlearnlab.models")
    real, parent, calls = models._forward_cached, os.getpid(), []

    def counted(model, x, ws=None):
        if os.getpid() == parent:
            calls.append(x.shape[0])
        return real(model, x, ws)

    monkeypatch.setattr(models, "_forward_cached", counted)
    ul.run_experiment(tiny_cfg, workers=2)
    assert calls == []
    ul.run_experiment(replace(tiny_cfg, seeds=(0,)))
    assert calls


def test_preparation_failures_match_across_the_pool(tiny_cfg, monkeypatch, tmp_path):
    # every reference of the second seed fails; the seed's failure is
    # the first in job order whichever job the pool finishes first
    # (patched before the pool forks, so workers see it)
    real = harness.train
    doomed = {ul.derive_seed(tiny_cfg.seeds[1], "ref_train", i): i
              for i in range(tiny_cfg.rmia_refs)}

    def flaky(model, data, indices, cfg, loss=None):
        if cfg.seed in doomed:
            raise RuntimeError(f"synthetic reference {doomed[cfg.seed]}")
        return real(model, data, indices, cfg, loss)

    monkeypatch.setattr(harness, "train", flaky)
    serial = ul.run_experiment(tiny_cfg)
    parallel = ul.run_experiment(tiny_cfg, workers=2)
    assert serial.failures == parallel.failures == (harness.SeedFailure(
        tiny_cfg.seeds[1], "prepare", "RuntimeError: synthetic reference 0"),)
    assert {r.seed for r in parallel.rows} == {tiny_cfg.seeds[0]}
    assert len(parallel.rows) == 2 + len(tiny_cfg.methods)
    ul.write_report(serial, tmp_path / "serial")
    ul.write_report(parallel, tmp_path / "parallel")
    for name in ("metrics.csv", "aggregated.csv", "manifest.json"):
        assert ((tmp_path / "serial" / name).read_bytes()
                == (tmp_path / "parallel" / name).read_bytes())


def _csv_config(tiny_cfg, tmp_path, pool_seed=5):
    for name, seed in (("pool", pool_seed), ("test", 6)):
        data = ul.generate_gaussian_mixture(replace(tiny_cfg.gen, seed=seed))
        ul.write_csv(data, tmp_path / f"{name}.csv")
    return replace(tiny_cfg, gen=None, pool_csv=str(tmp_path / "pool.csv"),
                   test_csv=str(tmp_path / "test.csv"))


def _count_load_csv(monkeypatch):
    real, paths = harness.load_csv, []

    def counted(path, *args, **kwargs):
        paths.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(harness, "load_csv", counted)
    return paths


def test_a_serial_csv_run_parses_each_file_once_per_seed(tiny_cfg, tmp_path, monkeypatch):
    cfg = _csv_config(tiny_cfg, tmp_path)
    paths = _count_load_csv(monkeypatch)
    result = ul.run_experiment(cfg)
    assert result.failures == ()
    assert paths == [cfg.pool_csv, cfg.test_csv] * len(cfg.seeds)


def test_a_rewritten_csv_is_read_again(tiny_cfg, tmp_path, monkeypatch):
    cfg = _csv_config(tiny_cfg, tmp_path)
    paths = _count_load_csv(monkeypatch)
    first = ul.prepare_seed(cfg, 0, with_references=False)
    assert len(paths) == 2
    ul.prepare_seed(cfg, 0, with_references=False)
    assert len(paths) == 4
    _csv_config(tiny_cfg, tmp_path, pool_seed=7)
    again = ul.prepare_seed(cfg, 0, with_references=False)
    assert len(paths) == 6
    want = ul.generate_gaussian_mixture(replace(tiny_cfg.gen, seed=7))
    assert np.array_equal(again.pool.labels, want.labels)
    assert not np.array_equal(again.base_model.theta, first.base_model.theta)
