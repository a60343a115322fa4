"""Fast self-check of the benchmark on a tiny config (3 classes, hidden 8,
2 seeds); takes about ten seconds.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json and predictions.json agree with the code, that
run.py emits every named metric with its unit in both modes, that the
identity check catches a report that differs, that the timing wrappers
are gone after a traced run, and that run.py fails without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import rep  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(ok, what):
    if not ok:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def check_declarations(bench):
    names = [w["name"] for w in bench["workloads"]]
    check(tuple(names) == workloads.WORKLOADS, "BENCHMARK.json lists the code's workloads")
    metrics = bench["end_to_end"] + bench["per_layer"]
    check(len({m["name"] for m in metrics}) == len(metrics), "metric names are unique")
    preds = json.loads((HERE / "predictions.json").read_text())
    covered = [m for p in preds["per_layer"] for m in p["metrics"]]
    check(sorted(covered) == sorted(m["name"] for m in bench["per_layer"]),
          "predictions.json covers each per-layer metric once")
    check(set(preds["end_to_end"]) == {m["name"] for m in bench["end_to_end"]},
          "predictions.json covers each end-to-end metric")
    targets = {w for p in preds["per_layer"] for w in p["on"] + p["zero_on"]}
    check(targets <= set(names) and all(
        p["moves"] in preds["end_to_end"] or p["moves"] is None for p in preds["per_layer"]),
        "predictions name only known workloads and end-to-end metrics")


def check_emission(bench):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workloads.SELFCHECK,
             "--seed", "0", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        check(out.returncode == 0, f"run.py --trace {trace} exits 0")
        result = json.loads(out.stdout.splitlines()[-1])
        check(set(result) == RESULT_KEYS and result["correct"] is True
              and result["failed"] == 0 and result["attempted"] >= 1,
              f"--trace {trace} result is correct with no failures")
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        check(got == want and all(
            isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
            f"--trace {trace} emits every {key} metric with its unit")


def check_identity_and_wrappers(tmp):
    cfg, workers = workloads.build(workloads.SELFCHECK, 0)
    env = rep.environment()
    plain = rep.run_once(cfg, workers, tmp / "a")
    check(not plain["errors"] and "spans" not in plain, "untraced tiny run passes its output checks")

    with spans.tracing() as tracer:
        unlearn_mod = sys.modules["unlearnlab.unlearn"]
        models_mod = sys.modules["unlearnlab.models"]
        check(hasattr(unlearn_mod.loss_and_grad, "_perfbench_original")
              and hasattr(models_mod.loss_and_grad, "_perfbench_original"),
              "loss_and_grad is wrapped in both models and unlearn")
        check(callable(sys.modules["unlearnlab"].unlearn)
              and not hasattr(sys.modules["unlearnlab"].unlearn, "_perfbench_original"),
              "the unlearn dispatch function is left alone")
        patched = len(tracer.patches)
    check(patched > len(spans.TARGETS), "wrappers went into more than the defining modules")
    check(spans.leftover_wrappers() == [], "no wrapper is left after tracing() exits")

    traced = rep.run_once(cfg, workers, tmp / "b", trace=True)
    check(traced["spans"]["reference.build_refdist"]["calls"] > 0
          and traced["spans"]["harness.prepare_seed"]["calls"] == len(cfg.seeds),
          "a traced run records spans")
    check(spans.leftover_wrappers() == [], "no wrapper is left after a traced run")
    again = rep.run_once(cfg, workers, tmp / "c")
    check("spans" not in again, "the untraced run after it records nothing")

    reps = [dict(r, env=env) for r in (plain, traced, again)]
    check(run.diff_hashes(plain["hashes"], traced["hashes"]) == []
          and run.diff_hashes(plain["hashes"], again["hashes"]) == [],
          "traced and untraced reports hash identically")

    store = tmp / "hashes.json"
    check(run.check_identity(workloads.SELFCHECK, 0, reps, store) == [],
          "identity check passes on identical reports")
    with open(tmp / "c" / "metrics.csv", "r+b") as fh:
        first = fh.read(1)
        fh.seek(0)
        fh.write(b"M" if first != b"M" else b"m")
    altered = dict(reps[2], hashes=rep.file_hashes(tmp / "c"))
    check(run.check_identity(workloads.SELFCHECK, 0, [reps[0], altered], store)
          == ["repetition 1 metrics.csv differs from repetition 0"],
          "identity check catches a changed metrics.csv within a run")
    check(run.check_identity(workloads.SELFCHECK, 0, [altered], store)
          == ["metrics.csv differs from an earlier tiny run"],
          "identity check catches a changed metrics.csv across runs")


def check_refuses_without_sources(tmp):
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "default_serial",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    check(out.returncode != 0 and out.stdout.strip() == "",
          "run.py fails, printing no result, without the sources")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_declarations(bench)
    run.RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUNS) as tmp:
        tmp = Path(tmp)
        check_identity_and_wrappers(tmp)
        check_refuses_without_sources(tmp)
    check_emission(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
