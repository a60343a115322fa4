"""Command line front end.

Subcommands:
  train     train the base model and retrain oracle for one seed
  unlearn   run one unlearning method, save the resulting checkpoint
  evaluate  score saved checkpoints against the same-seed oracle
  run       the full multi-seed experiment with reports
  sweep     the w trade-off curve for a mixed-objective method
  report    re-aggregate an existing metrics.csv

Configs are JSON documents mirroring ExperimentConfig; omitted keys fall
back to the built-in desk-scale defaults.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import default_config, load_config
from .harness import (
    DEFAULT_SWEEP_WS,
    W_METHODS,
    _mapper,
    aggregate_rows,
    evaluate_model,
    method_grid_configs,
    prepare_seed,
    run_experiment,
    score_base_and_retrain,
    sweep_tradeoff,
    write_report,
)
from .metrics import with_gaps
from .models import load_checkpoint, save_checkpoint
from .report import (checkpoint_row_names, read_metrics_csv, report_paths, write_aggregated_csv,
                     write_metrics_csv)
from .unlearn import METHODS, unlearn


def _config_from_args(args):
    """The config file (or the defaults) with the command line's
    overrides applied; ``--seed`` replaces the configured seeds."""
    cfg = load_config(args.config) if args.config else default_config()
    if args.forget_fraction is not None:
        cfg = replace(cfg, forget_fraction=args.forget_fraction)
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    return cfg


def _acc_line(name, report) -> str:
    return (f"{name}: retain {report.retain_acc:.2f}  forget "
            f"{report.forget_acc:.2f}  val {report.val_acc:.2f}  test "
            f"{report.test_acc:.2f}  rmia {report.rmia_auc:.2f}  smia "
            f"{report.smia_auc:.2f}")


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    seed = cfg.seeds[0]
    with _mapper(1, cfg) as pmap:
        ctx = prepare_seed(cfg, seed, with_references=False, pmap=pmap)
    os.makedirs(args.out, exist_ok=True)
    for name, model in (("base", ctx.base_model), ("retrain", ctx.retrain_model)):
        path = os.path.join(args.out, f"{name}_seed{seed}.ckpt")
        save_checkpoint(model, path)
        print(f"wrote {path}")
    return 0


def cmd_unlearn(args) -> int:
    cfg = _config_from_args(args)
    seed = cfg.seeds[0]
    cfg = _restrict_methods(cfg, args.method)
    ucfg = method_grid_configs(cfg, args.method, seed)[0]
    with _mapper(1, cfg) as pmap:
        ctx = prepare_seed(cfg, seed, with_references=False, pmap=pmap)
        model = unlearn(ctx.base_model, ctx.splits, ctx.pool, ucfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{args.method}_seed{seed}.ckpt")
    save_checkpoint(model, path)
    print(f"wrote {path} (lr {ucfg.lr}, w {ucfg.w}, gamma {ucfg.gamma})")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _config_from_args(args)
    seed = cfg.seeds[0]
    # every checkpoint is named and read before the seed is trained, so
    # a bad one fails at once
    names = checkpoint_row_names(args.checkpoints)
    models = [(name, load_checkpoint(path)) for name, path in zip(names, args.checkpoints)]
    with _mapper(1, cfg) as pmap:
        ctx = prepare_seed(cfg, seed, pmap=pmap)
        base, retrain = score_base_and_retrain(ctx)
        rows = [base, retrain]
        for name, model in models:
            rows.append(with_gaps(evaluate_model(name, model, ctx), retrain))
    os.makedirs(args.out, exist_ok=True)
    out_path = report_paths(args.out).metrics
    write_metrics_csv(rows, out_path)
    for r in rows:
        print(_acc_line(r.method, r))
    print(f"wrote {out_path}")
    return 0


def _restrict_methods(cfg, method):
    if method is None:
        return cfg
    if method not in cfg.methods:
        raise ValueError(f"method {method!r} not enabled in config")
    return replace(cfg, methods={method: cfg.methods[method]})


def _run_from_args(args):
    """Run the experiment for run/sweep; failed seeds go to stderr."""
    cfg = _config_from_args(args)
    cfg = _restrict_methods(cfg, args.method)
    result = run_experiment(cfg, workers=args.workers)
    for f in result.failures:
        print(f"seed {f.seed} failed at {f.stage}: {f.error}", file=sys.stderr)
    return cfg, result


def cmd_run(args) -> int:
    cfg, result = _run_from_args(args)
    paths = write_report(result, args.out)
    for agg in result.aggregates:
        m, s = agg.stats["test_acc"], agg.stats["rmia_auc"]
        w = "" if agg.w is None else f" w={agg.w:g}"
        print(f"{agg.method}{w}: test {m[0]:.2f}+-{m[1]:.2f}  "
              f"rmia {s[0]:.2f}+-{s[1]:.2f}  (n={agg.n_seeds})")
    for path in paths:
        print(f"wrote {path}")
    return 1 if len(result.failures) == len(cfg.seeds) else 0


def cmd_sweep(args) -> int:
    cfg, result = _run_from_args(args)
    if not result.contexts:
        return 1
    write_report(result, args.out)  # so a failing sweep keeps the run's report
    points = sweep_tradeoff(cfg, args.method, DEFAULT_SWEEP_WS, result=result,
                            workers=args.workers)
    paths = write_report(result, args.out, sweep_points=points)
    for p in points:
        print(f"w={p.w:g}: test {p.test_acc_mean:.2f}+-{p.test_acc_std:.2f}  "
              f"rmia {p.rmia_auc_mean:.2f}+-{p.rmia_auc_std:.2f}  "
              f"gap_tp {p.gap_tp_mean:.2f}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_report(args) -> int:
    paths = report_paths(args.out)
    rows = read_metrics_csv(paths.metrics)
    if not rows:
        raise ValueError(f"{paths.metrics}: no rows to aggregate")
    write_aggregated_csv(aggregate_rows(rows), paths.aggregated)
    print(f"wrote {paths.aggregated}")
    return 0


_WORKERS_HELP = ("processes that run each seed's model trainings, then its "
                "grid points, in parallel, each with one BLAS thread "
                "(reports identical to serial)")


def _add_common(p):
    p.add_argument("--config", help="JSON config path (defaults built in)")
    p.add_argument("--out", default="unlearnlab-out", help="output directory")
    p.add_argument("--forget-fraction", type=float, default=None,
                   help="override the configured forget fraction")
    p.add_argument("--seed", type=int, default=None,
                   help="experiment seed (default: first configured)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unlearnlab",
        description="Desk-scale machine unlearning laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train base model and retrain oracle")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("unlearn", help="run one unlearning method")
    _add_common(p)
    p.add_argument("--method", required=True, choices=METHODS)
    p.set_defaults(func=cmd_unlearn)

    p = sub.add_parser("evaluate", help="score checkpoints against the oracle")
    _add_common(p)
    p.add_argument("checkpoints", nargs="+", help="model checkpoint paths")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="full multi-seed experiment")
    _add_common(p)
    p.add_argument("--method", default=None, choices=METHODS,
                   help="restrict the run to one method")
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="w trade-off curve for one method")
    _add_common(p)
    p.add_argument("--method", default="regun", choices=W_METHODS)
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="re-aggregate an existing metrics.csv")
    p.add_argument("--out", default="unlearnlab-out",
                   help="directory holding metrics.csv")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
