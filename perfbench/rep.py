"""One repetition of a workload, meant to run in a fresh interpreter.

    python3 perfbench/rep.py WORKLOAD SEED --out DIR [--trace]

Imports unlearnlab, builds the workload's config, runs ``run_experiment``
then ``write_report`` into DIR, as ``unlearnlab run`` does, and prints one
JSON record: timings, resource use, report hashes, the output checks that
failed and the environment.  ``ready_at`` is ``time.monotonic()`` once the
config is built; the caller subtracts its own clock reading from before
the spawn to get the set-up time every CLI call pays.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import sys
from contextlib import nullcontext
from time import monotonic, perf_counter

import workloads
from spans import tracing

REPORT_FILES = ("metrics.csv", "aggregated.csv", "manifest.json")


def file_hashes(out_dir) -> dict:
    out = {}
    for name in REPORT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _openblas():
    """Version string and live thread count of numpy's bundled OpenBLAS."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.restype, threads.argtypes = ctypes.c_int, []
            config.restype, config.argtypes = ctypes.c_char_p, []
            return config().decode(), threads()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}", None


def environment() -> dict:
    import numpy as np
    import scipy

    blas, threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "openblas_threads": threads,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "start_method": multiprocessing.get_context().get_start_method(),
    }


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _count_lines(path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh)


def check_run(cfg, result, out_dir, attempted) -> list:
    """What is wrong with one finished run; empty when nothing is."""
    errors = []
    methods = set(cfg.methods)
    if result.failures:
        errors.append(f"failed seeds: {[(f.seed, f.stage, f.error) for f in result.failures]}")
    if len(result.grid) != attempted:
        errors.append(f"{len(result.grid)} of {attempted} grid points finished")
    if set(result.selected) != methods:
        errors.append(f"selected {sorted(result.selected)}, enabled {sorted(methods)}")
    want_rows = len(cfg.seeds) * (2 + len(methods))
    if len(result.rows) != want_rows:
        errors.append(f"{len(result.rows)} report rows, expected {want_rows}")
    lines = _count_lines(os.path.join(out_dir, "metrics.csv"))
    if lines != 1 + want_rows:
        errors.append(f"metrics.csv has {lines} lines, expected {1 + want_rows}")
    lines = _count_lines(os.path.join(out_dir, "aggregated.csv"))
    if lines != 3 + len(methods):
        errors.append(f"aggregated.csv has {lines} lines, expected {3 + len(methods)}")
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    if manifest["failures"] or set(manifest["selected"]) != methods:
        errors.append("manifest lists failures or misses a selected method")
    return errors


def mean_gap_tp(result, methods) -> float:
    """Mean over ``methods`` of the seed-averaged gap_tp."""
    gaps = [agg.stats["gap_tp"][0] for agg in result.aggregates if agg.method in methods]
    return sum(gaps) / len(gaps) if gaps else math.nan


def run_once(cfg, workers: int, out_dir, trace: bool = False) -> dict:
    """Run and report one experiment; returns the repetition's record."""
    import unlearnlab as ul
    from unlearnlab.harness import method_grid_configs

    attempted = len(cfg.seeds) * sum(
        len(method_grid_configs(cfg, m, cfg.seeds[0])) for m in cfg.methods)
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    with (tracing() if trace else nullcontext()) as tracer:
        t0 = perf_counter()
        result = ul.run_experiment(cfg, workers=workers)
        ul.write_report(result, out_dir)
        run_s = perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    record = {
        "run_s": run_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "attempted": attempted,
        "failed": attempted - len(result.grid),
        "mean_gap_tp": mean_gap_tp(result, result.selected),
        "base_gap_tp": mean_gap_tp(result, ("base",)),
        "hashes": file_hashes(out_dir),
        "errors": check_run(cfg, result, out_dir, attempted),
    }
    if tracer is not None:
        record["spans"] = {name: {f: getattr(st, f) for f in st.__slots__}
                           for name, st in sorted(tracer.spans.items())}
        record["distinct_held_out_rows"] = tracer.distinct_held_out_rows()
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=workloads.WORKLOADS + (workloads.SELFCHECK,))
    p.add_argument("seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    cfg, workers = workloads.build(args.workload, args.seed)
    ready_at = monotonic()
    record = run_once(cfg, workers, args.out, trace=args.trace)
    record["ready_at"] = ready_at
    record["env"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
