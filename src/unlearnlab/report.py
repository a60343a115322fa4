"""Every file a run writes into its output directory, the CSVs in the
row format of textio.  Callers fix every row order, so identical runs
write identical bytes."""

from __future__ import annotations

import json
import os
from collections import namedtuple
from dataclasses import asdict, dataclass, fields
from typing import get_type_hints

from .config import config_to_dict
from .metrics import REPORT_FIELDS, MetricsReport
from .textio import _text, parse_cell, read_rows, write_rows
from .unlearn import UnlearnConfig

REPORT_FORMAT = "unlearnlab-run v1"


@dataclass(frozen=True)
class AggregateRow:
    """Seed-aggregated statistics for one table row."""

    method: str
    w: float | None
    n_seeds: int
    stats: dict


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


METRICS_HEADER = tuple(f.name for f in fields(MetricsReport))

SWEEP_HEADER = tuple(f.name for f in fields(SweepPoint))

AGGREGATED_HEADER = ("method", "w", "n_seeds") + tuple(
    f"{name}_{stat}" for name in REPORT_FIELDS for stat in ("mean", "std"))

# The UnlearnConfig fields the manifest records for each selected method.
_SELECTED_KEYS = [f.name for f in fields(UnlearnConfig) if f.name not in ("method", "seed")]


# The report files of one output directory, in the order a run writes them.
ReportPaths = namedtuple("ReportPaths", "metrics aggregated sweep manifest")


def report_paths(out_dir) -> ReportPaths:
    return ReportPaths(*(os.path.join(out_dir, name) for name in
                         ("metrics.csv", "aggregated.csv", "sweep.csv", "manifest.json")))


def checkpoint_row_names(paths) -> list:
    """The metrics.csv row name of each checkpoint in ``paths``: its file
    stem, which must be a CSV cell, distinct, and neither base nor
    retrain, the names of the seed's own rows."""
    names = [os.path.splitext(os.path.basename(path))[0] for path in paths]
    for name in names:
        _text(name)
    clashes = sorted({n for n in names if names.count(n) > 1 or n in ("base", "retrain")})
    if clashes:
        raise ValueError(f"checkpoints named {clashes}: each row takes its checkpoint's "
                         "file stem, which must be distinct and neither base nor retrain")
    return names


def write_metrics_csv(rows, path) -> None:
    write_rows(path, ([getattr(r, c) for c in METRICS_HEADER] for r in rows),
               header=METRICS_HEADER)


def read_metrics_csv(path):
    """Parse a metrics CSV back into MetricsReport rows.  A row that
    repeats an earlier one's (method, seed, w), which would count its
    seed twice, is refused with both line numbers."""
    lines = read_rows(path)
    if tuple(next(lines, (0, ()))[1]) != METRICS_HEADER:
        raise ValueError(f"{path}: not a metrics CSV")
    hints = get_type_hints(MetricsReport)
    rows, first = [], {}
    for lineno, cells in lines:
        where = f"{path} line {lineno}"
        values = {name: parse_cell(hints[name], cell, where)
                  for name, cell in zip(METRICS_HEADER, cells)}
        try:
            row = MetricsReport(**values)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        key = (row.method, row.seed, row.w)
        if key in first:
            raise ValueError(f"{where}: method {row.method!r}, seed {row.seed} and w "
                             f"{row.w} repeat line {first[key]}")
        first[key] = lineno
        rows.append(row)
    return rows


def write_aggregated_csv(aggregates, path) -> None:
    write_rows(path, (
        [agg.method, agg.w, agg.n_seeds,
         *(x for name in REPORT_FIELDS for x in agg.stats[name])]
        for agg in aggregates), header=AGGREGATED_HEADER)


def write_sweep_csv(points, path) -> None:
    write_rows(path, ([getattr(p, c) for c in SWEEP_HEADER] for p in points),
               header=SWEEP_HEADER)


def write_manifest(config, selection_rule: str, selected: dict, failures, path) -> None:
    """The run's format, config, seeds, selection rule and failures."""
    manifest = {
        "format": REPORT_FORMAT,
        "config": config_to_dict(config),
        "seeds": list(config.seeds),
        "selection_rule": selection_rule,
        "selected": {
            method: {k: getattr(ucfg, k) for k in _SELECTED_KEYS}
            for method, ucfg in sorted(selected.items())
        },
        "failures": [asdict(f) for f in failures],
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
