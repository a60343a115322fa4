"""Forgetting and utility metrics.

Accuracies, two membership-inference attack scores with an exact
Mann-Whitney AUC, an averaged Jensen-Shannon divergence between two
models' predictions, and gap-to-retrain summaries.  Everything numeric
is reported in percent except the raw per-sample attack scores.

Each public metric forwards the models it is given and hands the
predictions to private array-level cores: the per-row ``_hits``,
``_true_label``, ``_rmia`` and ``js_divergence``, ``_reference_mean``,
and ``_percent``, the mean that turns a per-row vector into a reported
percentage.  ``harness.evaluate_model`` calls the same cores block by
block and reduces each split's per-row vector once, so each formula
exists once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import get_type_hints

import numpy as np

from .data import Dataset
from .models import Model, forward_log_probs, forward_probs

# Floor for the reference-average denominator of the likelihood-ratio
# attack; keeps the score finite when every reference assigns ~0 mass.
RMIA_DENOM_FLOOR = 1e-12


def _select(data: Dataset, indices):
    if indices is None:
        return data.features, data.labels
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("empty index selection")
    return data.features[idx], data.labels[idx]


def accuracy(model: Model, data: Dataset, indices=None) -> float:
    """Percent of rows whose argmax prediction matches the label.

    Ties in the argmax resolve to the lowest class index.
    """
    x, y = _select(data, indices)
    return _percent(_hits(forward_probs(model, x), y))


def _hits(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Whether each row's argmax prediction is its 1-based label."""
    return np.argmax(probs, axis=1) + 1 == y


def _percent(per_row: np.ndarray) -> float:
    """100 times the mean of a per-row vector."""
    return 100.0 * float(np.mean(per_row))


def _true_label(values: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row's entry at its 1-based label."""
    return values[np.arange(y.shape[0]), y - 1]


def smia_scores(model: Model, data: Dataset, indices=None) -> np.ndarray:
    """Per-sample confidence score: log probability of the true label.

    This equals the negated per-sample cross-entropy, so higher means
    the model fits the sample better (members tend to score higher).
    """
    x, y = _select(data, indices)
    return _true_label(forward_log_probs(model, x), y)


def rmia_lite_scores(target: Model, references, data: Dataset,
                     indices=None) -> np.ndarray:
    """Likelihood-ratio score of the target against reference models.

    score(x, y) = p_target(y|x) / max(floor, mean_over_refs p_ref(y|x)).
    The references are models trained without the evaluated rows, so a
    large ratio flags samples the target fits unusually well.
    """
    refs = list(references)
    if not refs:
        raise ValueError("need at least one reference model")
    x, y = _select(data, indices)
    p_refs = [_true_label(forward_probs(ref, x), y) for ref in refs]
    return _rmia(_true_label(forward_probs(target, x), y), _reference_mean(p_refs))


def _reference_mean(p_refs) -> np.ndarray:
    """Mean of the references' true-label probabilities, summed in order."""
    ref_mean = np.zeros(p_refs[0].shape[0])
    for p_ref in p_refs:
        ref_mean += p_ref
    ref_mean /= len(p_refs)
    return ref_mean


def _rmia(p_target: np.ndarray, ref_mean: np.ndarray) -> np.ndarray:
    return p_target / np.maximum(RMIA_DENOM_FLOOR, ref_mean)


@dataclass(frozen=True, eq=False)
class AttackScores:
    """Per-sample attack scores for members and non-members."""

    member_scores: np.ndarray
    nonmember_scores: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.member_scores, dtype=np.float64)
        n = np.asarray(self.nonmember_scores, dtype=np.float64)
        if m.ndim != 1 or n.ndim != 1 or m.size == 0 or n.size == 0:
            raise ValueError("score arrays must be non-empty and 1-d")
        object.__setattr__(self, "member_scores", m)
        object.__setattr__(self, "nonmember_scores", n)


def attack_auc(scores: AttackScores) -> float:
    """Mann-Whitney AUC of member vs non-member scores, in percent.

    Equal to 100 times the fraction of (member, non-member) pairs where
    the member scores higher, counting ties as half.  Computed exactly
    via midranks: pair counts are half-integers, so swapping the two
    groups gives aucs that sum to exactly 100.
    """
    m, n = scores.member_scores, scores.nonmember_scores
    ranks = _midranks(np.concatenate([m, n]))
    # rank sum minus its minimum counts won pairs (ties as 0.5)
    u = ranks[: m.size].sum() - m.size * (m.size + 1) / 2.0
    return 100.0 * u / (m.size * n.size)


def _midranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their mean rank (exact).

    A run of c equal values starting at 0-based sorted position i gets
    i + (c + 1) / 2, a half-integer, so every rank is exact in float64.
    Any NaN makes every rank NaN, as an AUC of NaN scores is undefined.
    """
    if np.isnan(v).any():
        return np.full(v.size, np.nan)
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    starts = np.flatnonzero(np.r_[True, sorted_v[1:] != sorted_v[:-1]])
    counts = np.diff(np.r_[starts, v.size])
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    return ranks


def js_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise Jensen-Shannon divergence in bits (base 2), in [0, 1]."""
    p = np.atleast_2d(np.asarray(p, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if p.shape != q.shape:
        raise ValueError("p and q must have the same shape")
    mid = 0.5 * (p + q)

    def kl_bits(a):
        ratio = np.divide(a, mid, out=np.ones_like(a), where=a > 0.0)
        term = np.where(a > 0.0, a * np.log2(ratio), 0.0)
        return term.sum(axis=1)

    # mathematically in [0, 1]; the clip removes summation noise only
    return np.clip(0.5 * (kl_bits(p) + kl_bits(q)), 0.0, 1.0)


def js_divergence_avg(model_a: Model, model_b: Model, data: Dataset,
                      indices=None) -> float:
    """Mean per-sample JS divergence between two models' predictive
    distributions over the given rows, times 100."""
    x, _ = _select(data, indices)
    return _percent(js_divergence(forward_probs(model_a, x), forward_probs(model_b, x)))


@dataclass(frozen=True)
class MetricsReport:
    """One evaluated model on one seed.

    Accuracies and AUCs are percentages.  retain_div / test_div are the
    averaged JS divergences against the retrained oracle.  The gap
    fields summarize distance to the oracle row and are zero for the
    oracle itself.  w is the retain weight for methods that have one,
    None otherwise.
    """

    method: str
    seed: int
    w: float | None
    retain_acc: float
    forget_acc: float
    test_acc: float
    val_acc: float
    retain_div: float
    test_div: float
    rmia_auc: float
    smia_auc: float
    gap_rftp: float = 0.0
    gap_tp: float = 0.0

    def __post_init__(self):
        for field in REPORT_FIELDS:
            v = getattr(self, field)
            if not (0.0 <= v <= 100.0):
                raise ValueError(f"{field}={v} outside [0, 100]")


# Numeric report fields (the float-typed ones) in their fixed file order.
REPORT_FIELDS = tuple(name for name, hint in get_type_hints(MetricsReport).items()
                      if hint is float)


def gap_report(report: MetricsReport, oracle: MetricsReport):
    """Mean absolute distance to the oracle row.

    gap_rftp averages over retain, forget, and test accuracy plus the
    RMIA AUC; gap_tp over test accuracy and RMIA AUC only.  Both are
    symmetric in their arguments.
    """
    d_retain = abs(report.retain_acc - oracle.retain_acc)
    d_forget = abs(report.forget_acc - oracle.forget_acc)
    d_test = abs(report.test_acc - oracle.test_acc)
    d_rmia = abs(report.rmia_auc - oracle.rmia_auc)
    gap_rftp = (d_retain + d_forget + d_test + d_rmia) / 4.0
    gap_tp = (d_test + d_rmia) / 2.0
    return gap_rftp, gap_tp


def with_gaps(report: MetricsReport, oracle: MetricsReport) -> MetricsReport:
    gap_rftp, gap_tp = gap_report(report, oracle)
    return replace(report, gap_rftp=gap_rftp, gap_tp=gap_tp)


def aggregate_seeds(reports) -> dict:
    """Mean and sample standard deviation of each numeric field.

    All reports must share one method and w (they are seeds of one
    table row).  Returns {field: (mean, std)} with std = 0.0 for a
    single seed (ddof = 1 otherwise).
    """
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to aggregate")
    keys = {(r.method, r.w) for r in reports}
    if len(keys) != 1:
        raise ValueError(f"mixed rows in aggregation: {sorted(keys)}")
    out = {}
    for field in REPORT_FIELDS:
        vals = np.array([getattr(r, field) for r in reports], dtype=np.float64)
        std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
        out[field] = (float(np.mean(vals)), std)
    return out
