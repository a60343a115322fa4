"""Reference distribution for guided forgetting.

Given a batch of forget-set labels, we mirror its class histogram onto
the held-out pool, sample that many held-out inputs per class, and
average the frozen reference model's predictive distributions over them.
The result is a single probability vector q that looks like "what the
original model says about fresh data with the same class mix", which the
unlearning loss then pulls the forget-set predictions toward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .data import Dataset, class_histogram
from .models import Model, forward_probs
from .textio import AT_LEAST_1, check_fields


class CoverageError(ValueError):
    """A class needed by the matched histogram has no held-out rows."""


@dataclass(frozen=True)
class RefDistConfig:
    """Settings for building the reference distribution.

    ``num_matched`` is the total number of held-out rows sampled per
    batch; None means "same as the forget batch size".  ``seed`` feeds
    the sampler only when the caller does not pass its own generator.
    """

    num_matched: Annotated[int | None, AT_LEAST_1] = None
    seed: int = 0

    def __post_init__(self):
        check_fields(self)


def match_histogram(counts, total: int, target_total: int) -> np.ndarray:
    """Rescale an integer histogram to a new total, largest remainder first.

    ``counts`` must be non-negative integers summing to ``total``.  Each
    entry starts at floor(target_total * c_k / total); the shortfall is
    handed out one unit at a time in order of descending remainder
    (target_total * c_k mod total), ties broken by ascending class
    index.  All arithmetic is exact integer arithmetic, zero entries
    stay zero, and the result sums to target_total.
    """
    c = np.asarray(counts, dtype=np.int64)
    if c.ndim != 1:
        raise ValueError("counts must be 1-d")
    if np.any(c < 0):
        raise ValueError("counts must be non-negative")
    if total < 1:
        raise ValueError("total must be >= 1")
    if int(c.sum()) != total:
        raise ValueError(f"counts sum to {int(c.sum())}, expected {total}")
    if target_total < 1:
        raise ValueError("target_total must be >= 1")
    scaled = target_total * c
    out = scaled // total
    rem = scaled % total
    deficit = target_total - int(out.sum())
    if deficit:
        # descending remainder, ascending index on ties; entries with
        # zero remainder can never be picked because the deficit is
        # always smaller than the number of positive remainders
        order = np.lexsort((np.arange(c.size), -rem))
        out[order[:deficit]] += 1
    return out


def build_refdist(forget_labels, pool: Dataset, held_out,
                  reference_model: Model, config: RefDistConfig,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Histogram-matched average reference prediction for one batch.

    Parameters
    ----------
    forget_labels : labels of the current forget batch, values in
        [1, num_classes]
    pool : the training pool dataset
    held_out : index array of held-out rows within ``pool``, each in [0, n)
    reference_model : model whose predictive distributions are averaged;
        any Model works, the caller decides what to freeze
    config : RefDistConfig
    rng : optional generator; when omitted a fresh one is seeded from
        the config

    Sampling is per class in ascending class order, without replacement
    whenever the class has enough held-out rows and with replacement
    otherwise.  Raises CoverageError if a class required by the matched
    histogram has no held-out rows at all.

    Returns the length-num_classes probability vector q.
    """
    forget_labels = np.asarray(forget_labels)
    if forget_labels.size == 0:
        raise ValueError("forget batch is empty")
    held_out = np.asarray(held_out, dtype=np.int64)
    if held_out.size == 0:
        raise ValueError("held-out index set is empty")
    bad = held_out[(held_out < 0) | (held_out >= pool.num_samples)]
    if bad.size:
        raise ValueError(f"held-out row index {bad[0]} is outside the pool's "
                         f"{pool.num_samples} rows")
    k = pool.num_classes
    if reference_model.arch.num_classes != k:
        raise ValueError("reference model and pool disagree on num_classes")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    batch = forget_labels.size
    hist = class_histogram(forget_labels, k)
    target = batch if config.num_matched is None else config.num_matched
    matched = match_histogram(hist, batch, target)
    held_labels = pool.labels[held_out]
    chosen = []
    for cls in range(k):
        need = int(matched[cls])
        if need == 0:
            continue
        avail = held_out[held_labels == cls + 1]
        if avail.size == 0:
            raise CoverageError(
                f"class {cls + 1} needs {need} held-out rows but has none"
            )
        chosen.append(rng.choice(avail, size=need, replace=need > avail.size))
    picks = np.concatenate(chosen)
    probs = forward_probs(reference_model, pool.features[picks])
    return probs.mean(axis=0)
