"""Command line: every subcommand end to end on a tiny config."""

import json

import pytest

import unlearnlab as ul
from unlearnlab.cli import build_parser, main


@pytest.fixture(scope="module")
def cfg_path(tiny_cfg, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tiny.json"
    path.write_text(json.dumps(ul.config_to_dict(tiny_cfg)))
    return str(path)


def test_train_writes_both_checkpoints(cfg_path, tmp_path, capsys):
    out = tmp_path / "models"
    rc = main(["train", "--config", cfg_path, "--out", str(out)])
    assert rc == 0
    base = ul.load_checkpoint(out / "base_seed0.ckpt")
    retrain = ul.load_checkpoint(out / "retrain_seed0.ckpt")
    assert base.arch == retrain.arch
    assert "wrote" in capsys.readouterr().out


def test_train_honors_seed_flag(cfg_path, tmp_path):
    out = tmp_path / "models"
    rc = main(["train", "--config", cfg_path, "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert (out / "base_seed1.ckpt").exists()
    assert not (out / "base_seed0.ckpt").exists()


def test_unlearn_then_evaluate(cfg_path, tmp_path, capsys):
    out = tmp_path / "work"
    rc = main(["unlearn", "--config", cfg_path, "--method", "finetune",
               "--out", str(out)])
    assert rc == 0
    ckpt = out / "finetune_seed0.ckpt"
    assert ckpt.exists()

    rc = main(["evaluate", "--config", cfg_path, "--out", str(out), str(ckpt)])
    assert rc == 0
    rows = ul.read_metrics_csv(out / "metrics.csv")
    assert [r.method for r in rows[:2]] == ["base", "retrain"]
    assert rows[2].method == "finetune_seed0"
    assert rows[1].gap_tp == 0.0
    text = capsys.readouterr().out
    assert "base:" in text and "retain" in text


def test_unlearn_rejects_disabled_method(cfg_path, tmp_path, capsys):
    rc = main(["unlearn", "--config", cfg_path, "--method", "neggrad",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_run_writes_full_report(cfg_path, tmp_path, capsys):
    out = tmp_path / "report"
    rc = main(["run", "--config", cfg_path, "--out", str(out)])
    assert rc == 0
    rows = ul.read_metrics_csv(out / "metrics.csv")
    assert {r.method for r in rows} == {"base", "retrain", "regun", "finetune"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format"] == "unlearnlab-run v1"
    assert (out / "aggregated.csv").exists()
    text = capsys.readouterr().out
    assert "test" in text and "rmia" in text


def test_run_method_restriction_and_workers(cfg_path, tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    argv = ["run", "--config", cfg_path, "--method", "finetune"]
    assert main(argv + ["--out", str(serial)]) == 0
    assert main(argv + ["--out", str(parallel), "--workers", "2"]) == 0
    for name in ("metrics.csv", "aggregated.csv", "manifest.json"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()
    rows = ul.read_metrics_csv(serial / "metrics.csv")
    assert {r.method for r in rows} == {"base", "retrain", "finetune"}


def test_report_reaggregates_byte_identically(cfg_path, tmp_path):
    out = tmp_path / "report"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    original = (out / "aggregated.csv").read_bytes()
    (out / "aggregated.csv").unlink()
    assert main(["report", "--out", str(out)]) == 0
    assert (out / "aggregated.csv").read_bytes() == original


def test_sweep_writes_curve(cfg_path, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", cfg_path, "--method", "regun",
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("method,w,n_seeds")
    assert len(lines) == 1 + len(ul.harness.DEFAULT_SWEEP_WS)
    assert all(ln.startswith("regun,") for ln in lines[1:])
    assert "gap_tp" in capsys.readouterr().out


def test_parallel_sweep_writes_the_same_bytes(cfg_path, tmp_path):
    argv = ["sweep", "--config", cfg_path, "--method", "regun", "--seed", "0"]
    assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
    assert main(argv + ["--out", str(tmp_path / "parallel"), "--workers", "2"]) == 0
    for name in ("metrics.csv", "aggregated.csv", "sweep.csv", "manifest.json"):
        assert ((tmp_path / "serial" / name).read_bytes()
                == (tmp_path / "parallel" / name).read_bytes())


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_exit_2(cfg_path, tmp_path, capsys, command, workers):
    rc = main([command, "--config", cfg_path, "--workers", workers,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: workers must be >= 1, got {workers}\n"
    assert not (tmp_path / "out").exists()


def test_an_unswept_axis_in_the_config_exits_2(tmp_path, capsys):
    path = tmp_path / "axis.json"
    path.write_text(json.dumps({"methods": {"finetune": {"ws": [0.1, 0.9]}}}))
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config key methods.finetune.ws:")


def test_a_csv_config_without_its_test_file_exits_2(tmp_path, capsys):
    path = tmp_path / "csv.json"
    path.write_text(json.dumps({"data": {"source": "csv", "pool": "p.csv"}}))
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config key data.test:")
    assert not (tmp_path / "out").exists()


def test_missing_config_is_a_clean_error(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "absent.json"),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_keys_are_a_clean_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"learning_rate": 0.1}))
    rc = main(["train", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_report_without_metrics_is_a_clean_error(tmp_path, capsys):
    rc = main(["report", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_forget_fraction_override(cfg_path, tmp_path):
    out = tmp_path / "override"
    rc = main(["train", "--config", cfg_path, "--forget-fraction", "0.3",
               "--out", str(out)])
    assert rc == 0
    assert (out / "base_seed0.ckpt").exists()


@pytest.mark.parametrize("doc", [
    {"seeds": 3},
    {"methods": ["regun"]},
    {"arch": "mlp1"},
    {"arch": {"hiden_dim": 8}},
])
def test_bad_config_values_are_a_clean_error(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_evaluate_rejects_a_separator_in_the_checkpoint_name(cfg_path, tiny_cfg,
                                                            tmp_path, capsys):
    ckpt = tmp_path / "a,b.ckpt"
    ul.save_checkpoint(ul.init_model(tiny_cfg.arch, seed=0), ckpt)
    out = tmp_path / "eval"
    rc = main(["evaluate", "--config", cfg_path, "--out", str(out), str(ckpt)])
    assert rc == 2
    assert "separator" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_sweep_offers_exactly_the_w_methods():
    parser = build_parser()
    for method in ul.METHODS:
        argv = ["sweep", "--method", method]
        if method in ul.harness.W_METHODS:
            assert parser.parse_args(argv).method == method
        else:
            with pytest.raises(SystemExit):
                parser.parse_args(argv)


@pytest.mark.parametrize("num_classes", [2, 5])
def test_evaluate_rejects_a_checkpoint_of_another_class_count(cfg_path, tmp_path,
                                                             capsys, num_classes):
    ckpt = tmp_path / f"k{num_classes}.ckpt"
    arch = ul.ArchitectureSpec("mlp1", 4, num_classes, hidden_dim=8)
    ul.save_checkpoint(ul.init_model(arch, seed=0), ckpt)
    out = tmp_path / "eval"
    rc = main(["evaluate", "--config", cfg_path, "--out", str(out), str(ckpt)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"input_dim 4 and num_classes {num_classes}" in err
    assert "input_dim 4 and num_classes 3" in err
    assert not (out / "metrics.csv").exists()


def test_evaluate_accepts_another_kind_of_the_same_shape(cfg_path, tmp_path):
    ckpt = tmp_path / "lin.ckpt"
    ul.save_checkpoint(ul.init_model(ul.ArchitectureSpec("linear", 4, 3), seed=0), ckpt)
    out = tmp_path / "eval"
    rc = main(["evaluate", "--config", cfg_path, "--out", str(out), str(ckpt)])
    assert rc == 0
    rows = ul.read_metrics_csv(out / "metrics.csv")
    assert [r.method for r in rows] == ["base", "retrain", "lin"]


def test_evaluate_rejects_a_nan_checkpoint_naming_its_line(cfg_path, tiny_cfg,
                                                          tmp_path, capsys):
    ckpt = tmp_path / "nan.ckpt"
    ul.save_checkpoint(ul.init_model(tiny_cfg.arch, seed=0), ckpt)
    lines = ckpt.read_text().splitlines()
    lines[-1] = "nan"
    ckpt.write_text("\n".join(lines) + "\n")
    out = tmp_path / "eval"
    rc = main(["evaluate", "--config", cfg_path, "--out", str(out), str(ckpt)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {ckpt} line {len(lines)}: expected a finite number, got 'nan'\n"
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("w", ["nan", "inf"])
def test_report_rejects_a_non_finite_w(tmp_path, capsys, w):
    row = ul.MetricsReport("regun", 0, 0.5, 95.0, 80.0, 90.0, 80.0, 1.0, 1.0, 50.0, 50.0)
    path = tmp_path / "metrics.csv"
    ul.harness.write_metrics_csv([row], path)
    header, line = path.read_text().splitlines()
    path.write_text(f"{header}\n{line.replace(',0.5,', f',{w},')}\n")
    rc = main(["report", "--out", str(tmp_path)])
    assert rc == 2
    assert f"{path} line 2: expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "aggregated.csv").exists()


def test_evaluate_reads_every_checkpoint_before_training(cfg_path, tiny_cfg,
                                                        tmp_path, capsys,
                                                        monkeypatch):
    # a bad checkpoint must fail before the seed is built: were the seed
    # prepared first, this stand-in would raise its own message
    def no_training(*args, **kwargs):
        raise ValueError("prepare_seed ran")

    monkeypatch.setattr("unlearnlab.cli.prepare_seed", no_training)
    good = tmp_path / "good.ckpt"
    ul.save_checkpoint(ul.init_model(tiny_cfg.arch, seed=0), good)
    bad = tmp_path / "bad.ckpt"
    bad.write_text("not a checkpoint\n")
    out = tmp_path / "eval"
    rc = main(["evaluate", "--config", cfg_path, "--out", str(out), str(good), str(bad)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {bad}: not an unlearnlab checkpoint\n"
    assert not (out / "metrics.csv").exists()


def test_report_names_a_metrics_file_that_is_not_utf8(tmp_path, capsys):
    row = ul.MetricsReport("regun", 0, 0.5, 95.0, 80.0, 90.0, 80.0, 1.0, 1.0, 50.0, 50.0)
    path = tmp_path / "metrics.csv"
    ul.harness.write_metrics_csv([row], path)
    path.write_bytes(path.read_bytes().replace(b"regun", b"reg\xffn"))
    rc = main(["report", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text: ")
    assert "0xff" in err
    assert not (tmp_path / "aggregated.csv").exists()


def test_evaluate_names_a_checkpoint_that_is_not_utf8(cfg_path, tiny_cfg,
                                                     tmp_path, capsys):
    ckpt = tmp_path / "latin.ckpt"
    ul.save_checkpoint(ul.init_model(tiny_cfg.arch, seed=0), ckpt)
    ckpt.write_bytes(ckpt.read_bytes() + b"\xff\n")
    rc = main(["evaluate", "--config", cfg_path, "--out", str(tmp_path / "eval"),
               str(ckpt)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {ckpt}: not UTF-8 text: ")


def test_a_config_that_is_not_utf8_names_its_file(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"seeds": [0], "x\xff": 1}')
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text: ")
    assert "0xff" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["train"], ["unlearn", "--method", "finetune"], ["evaluate", "absent.ckpt"]])
def test_a_negative_seed_flag_is_refused_by_the_config(cfg_path, tmp_path, capsys,
                                                      command):
    # evaluate names a checkpoint that does not exist: reading it first
    # would fail with the missing file instead
    rc = main([*command, "--config", cfg_path, "--seed", "-1",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "error: seeds must be >= 0\n"
    assert not (tmp_path / "out").exists()
