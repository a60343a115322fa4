"""Harness: seeds, config serialization, selection, runs, reports."""

import json
from dataclasses import replace

import numpy as np
import pytest

import unlearnlab as ul
from unlearnlab import harness
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

    def flaky(cfg, seed, with_references=True):
        if seed == tiny_cfg.seeds[1]:
            raise RuntimeError("synthetic failure")
        return real(cfg, seed, with_references)

    monkeypatch.setattr(harness, "prepare_seed", flaky)
    result = ul.run_experiment(tiny_cfg)
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.seed == tiny_cfg.seeds[1]
    assert failure.stage == "prepare"
    assert "synthetic failure" in failure.error
    assert {r.seed for r in result.rows} == {tiny_cfg.seeds[0]}


# -------------------------------------------------------------------- sweeps


def test_sweep_tradeoff_points(tiny_cfg, tiny_run):
    pts = ul.sweep_tradeoff(tiny_cfg, "regun", (0.3, 0.7), result=tiny_run)
    assert [p.w for p in pts] == [0.3, 0.7]
    for p in pts:
        assert p.method == "regun"
        assert p.n_seeds == len(tiny_cfg.seeds)
        assert 0.0 <= p.test_acc_mean <= 100.0
        assert p.test_acc_std >= 0.0


def test_sweep_rejects_non_w_methods(tiny_cfg, tiny_run):
    with pytest.raises(ValueError, match="has no w"):
        ul.sweep_tradeoff(tiny_cfg, "finetune", (0.5,), result=tiny_run)
    with pytest.raises(ValueError, match="not enabled"):
        ul.sweep_tradeoff(tiny_cfg, "neggrad_plus", (0.5,), result=tiny_run)


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
