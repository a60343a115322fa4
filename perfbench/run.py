"""unlearnlab benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload default_serial --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout.  Every repetition runs in a fresh
interpreter (``rep.py``) with ``src`` on ``PYTHONPATH``, so set-up time and
peak memory are per repetition.  With ``--trace 0`` the run repeats the
workload for about ``--seconds``, at least twice, and prints the end-to-end
metrics as medians over the repetitions.  With ``--trace 1`` it runs
(untraced, traced) pairs instead and prints the per-layer metrics.  Metric
names and units come from ``BENCHMARK.json``.

Outputs are checked on every repetition: no failed grid point, the
expected row counts, every enabled method selected, and byte-identical
``metrics.csv``, ``aggregated.csv`` and ``manifest.json`` across the
repetitions of a run.  Report hashes are also kept per code version in
``perfbench/.runs/hashes.json``, so a later run of the same workload
family and seed, including ``default_workers2`` against
``default_serial``, must reproduce them.  A mismatch makes the result
``"correct": false``.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"
DEADLINE_S = 170.0
MIN_REPS = 2


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(argv, deadline) -> str:
    """Run one child interpreter to completion; returns its stdout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.Popen([sys.executable, str(HERE / "rep.py"), *argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except BaseException as exc:
        # the child's pool workers share its process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"rep.py {' '.join(argv)} passed the {DEADLINE_S:g} s deadline") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"rep.py {' '.join(argv)} exited {proc.returncode}:\n{err}")
    return out


def repetition(workload, seed, index, trace, deadline) -> dict:
    out_dir = RUNS / "out" / f"{workload}-{seed}-{index}"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [workload, str(seed), "--out", str(out_dir)] + (["--trace"] if trace else [])
    spawned_at = monotonic()
    try:
        record = json.loads(_child(argv, deadline).splitlines()[-1])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    record["setup_s"] = record.pop("ready_at") - spawned_at
    record["traced"] = trace
    return record


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "unlearnlab").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_identity(workload, seed, reps, store: Path) -> list:
    """Repetitions agree, and agree with the runs of the same family and
    seed recorded in ``store``; the first agreeing run is recorded."""
    errors = []
    first = reps[0]["hashes"]
    for i, rec in enumerate(reps[1:], start=1):
        errors += [f"repetition {i} {name} differs from repetition 0"
                   for name in diff_hashes(first, rec["hashes"])]
    env = reps[0]["env"]
    key = "|".join([workloads.FAMILY[workload], f"seed={seed}", code_digest(),
                    env["python"], env["numpy"], env["scipy"]])
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        errors += [f"{name} differs from an earlier {known[key]['workload']} run"
                   for name in diff_hashes(known[key]["hashes"], first)]
    elif not errors:
        known[key] = {"workload": workload, "hashes": first}
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
    return errors


def diff_hashes(a: dict, b: dict) -> list:
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps) -> dict:
    return {
        "setup_s": _median([r["setup_s"] for r in reps]),
        "run_s": _median([r["run_s"] for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
        "gap_left_share": reps[0]["mean_gap_tp"] / reps[0]["base_gap_tp"],
    }


def per_layer(names, reps) -> dict:
    """Per-layer values: span fields from the traced repetitions, CPU and
    tracing overhead from the untraced ones, medians throughout."""
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    nproc = plain[0]["env"]["nproc"]
    attempted = sum(r["attempted"] for r in reps)
    derived = {
        "harness.cpu_s": lambda: _median([r["cpu_s"] for r in plain]),
        "harness.cpu_per_core_wall": lambda: _median(
            [r["cpu_s"] / (r["run_s"] * nproc) for r in plain]),
        "trace.overhead_s": lambda: (_median([r["run_s"] for r in traced])
                                     - _median([r["run_s"] for r in plain])),
        "ops_failed_share": lambda: sum(r["failed"] for r in reps) / attempted,
        "mean_gap_tp": lambda: reps[0]["mean_gap_tp"],
        "reference.rows_per_distinct_row": lambda: _median(
            [r["spans"].get("reference.build_refdist", {}).get("rows", 0)
             / r["distinct_held_out_rows"] if r["distinct_held_out_rows"] else 0.0
             for r in traced]),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]()
            continue
        span, field = name.rsplit(".", 1)
        if field not in ("calls", "s", "self_s", "rows"):
            raise BenchError(f"no rule computes per-layer metric {name!r}")
        out[name] = _median([r["spans"].get(span, {}).get(field, 0) for r in traced])
    return out


def run(args, bench) -> dict:
    deadline = monotonic() + DEADLINE_S
    RUNS.mkdir(exist_ok=True)
    trace = args.trace == 1

    # Repeat until --seconds is spent and at least MIN_REPS have run; the
    # traced mode repeats (untraced, traced) pairs.
    plan = [False, True] if trace else [False]
    reps = []
    t_start = perf_counter()
    while True:
        t_block = perf_counter()
        for traced in plan:
            reps.append(repetition(args.workload, args.seed, len(reps), traced, deadline))
        block_s = perf_counter() - t_block
        spent = perf_counter() - t_start
        if len(reps) >= MIN_REPS and spent + block_s > args.seconds:
            break

    errors = [f"repetition {i}: {e}" for i, r in enumerate(reps) for e in r["errors"]]
    errors += check_identity(args.workload, args.seed, reps, RUNS / "hashes.json")
    if trace:
        values = per_layer([m["name"] for m in bench["per_layer"]], reps)
        specs = bench["per_layer"]
    else:
        values = end_to_end(reps)
        specs = bench["end_to_end"]
    metrics = {}
    for spec in specs:
        if spec["name"] not in values:
            raise BenchError(f"no rule computes metric {spec['name']!r}")
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": reps[0]["env"],
        "reps": [{k: v for k, v in r.items() if k != "env"} for r in reps],
        "errors": errors, "metrics": metrics,
    }
    results = RUNS / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + (workloads.SELFCHECK,))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "unlearnlab" / "__init__.py").is_file():
        print(f"error: no unlearnlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    try:
        record = run(args, bench)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = record["env"]
    print("env: " + json.dumps(env, sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    for e in record["errors"]:
        print(f"check failed: {e}", file=sys.stderr)
    reps = record["reps"]
    print(json.dumps({
        "correct": not record["errors"],
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
