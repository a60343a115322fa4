"""Synthetic tabular data, CSV I/O, and the four-way experiment split.

Datasets are plain float64 feature matrices with integer labels in
[1, num_classes].  The split logic carves a training pool into held-out,
forget, validation, and retain index sets with round-half-up sizing, and
carries the separate test set along.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Malformed dataset file or inconsistent dataset contents."""


class SplitError(ValueError):
    """Requested split is impossible for this pool."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix (n, d), labels (n,) in [1, num_classes]."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        x = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise DataError("features must be a non-empty 2-d array")
        if not np.all(np.isfinite(x)):
            raise DataError("features contain non-finite values")
        if y.shape != (x.shape[0],):
            raise DataError("labels must be 1-d with one entry per row")
        if self.num_classes < 2:
            raise DataError("num_classes must be >= 2")
        if y.size and (y.min() < 1 or y.max() > self.num_classes):
            raise DataError(f"labels must lie in [1, {self.num_classes}]")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class GenSpec:
    """Gaussian mixture generator settings.

    Each class k gets a random centroid of norm ``centroid_scale`` and
    contributes ``samples_per_class`` points drawn from an isotropic
    Gaussian with standard deviation ``noise_sigma`` around it.
    """

    num_classes: int
    input_dim: int
    samples_per_class: int
    centroid_scale: float = 3.0
    noise_sigma: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")
        if not (self.centroid_scale > 0.0):
            raise ValueError("centroid_scale must be > 0")
        if not (self.noise_sigma > 0.0):
            raise ValueError("noise_sigma must be > 0")


# Centroids depend only on the mixture shape, never on the sampling
# seed: two specs differing only in seed draw fresh points from the same
# fixed task, which is what makes a separately generated test set (and
# fresh reference-model training sets) meaningful.
_CENTROID_STREAM = 20240911


def class_centroids(num_classes: int, input_dim: int,
                    centroid_scale: float) -> np.ndarray:
    """Per-class centroids of norm centroid_scale, one row per class.

    Seeded by the shape fields alone, so every generator call for the
    same (K, d) geometry shares them.
    """
    rng = np.random.default_rng([_CENTROID_STREAM, num_classes, input_dim])
    dirs = rng.standard_normal((num_classes, input_dim))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    return centroid_scale * dirs / norms


def generate_gaussian_mixture(spec: GenSpec) -> Dataset:
    """Draw a balanced labelled sample of the mixture the spec describes.

    Class k contributes samples_per_class points from an isotropic
    Gaussian of stdev noise_sigma around its centroid, drawn in class
    order from a stream seeded by spec.seed.  The whole dataset is a
    pure function of the spec.
    """
    rng = np.random.default_rng(spec.seed)
    k, d, m = spec.num_classes, spec.input_dim, spec.samples_per_class
    centroids = class_centroids(k, d, spec.centroid_scale)
    features = np.empty((k * m, d))
    labels = np.empty(k * m, dtype=np.int64)
    for c in range(k):
        block = slice(c * m, (c + 1) * m)
        features[block] = centroids[c] + spec.noise_sigma * rng.standard_normal((m, d))
        labels[block] = c + 1
    return Dataset(features, labels, k)


def class_histogram(labels, num_classes: int) -> np.ndarray:
    """Count occurrences of each class.  Returns an int array of length
    num_classes whose k-th entry counts label k+1."""
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim != 1:
        raise ValueError("labels must be 1-d")
    if y.size and (y.min() < 1 or y.max() > num_classes):
        raise ValueError(f"labels must lie in [1, {num_classes}]")
    return np.bincount(y - 1, minlength=num_classes).astype(np.int64)


def round_half_up(x: float) -> int:
    """Round with .5 going up, e.g. 2.5 -> 3."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True, eq=False)
class DataSplits:
    """Index sets into the training pool, plus the separate test set.

    held_out, forget, validation, retain are disjoint sorted index
    arrays whose union covers every pool row.  The training set is
    forget + validation + retain; held_out rows never see training and
    feed the reference distribution instead.
    """

    held_out: np.ndarray
    forget: np.ndarray
    validation: np.ndarray
    retain: np.ndarray
    test: Dataset


def make_splits(pool: Dataset, test: Dataset, forget_fraction: float,
                seed: int) -> DataSplits:
    """Partition the pool into held-out / forget / validation / retain.

    Sizes use round-half-up: |held_out| = round(0.1 n); the remaining
    n - |held_out| rows form the training set, of which
    round(forget_fraction * train) are marked forget and round(0.1 *
    train) validation; retain is the rest.  One seeded permutation is
    sliced in the order held_out, forget, validation, retain.  Raises
    SplitError when any part would be empty or when the held-out slice
    misses a class (the reference distribution needs every class
    represented).
    """
    if not (0.0 < forget_fraction < 1.0):
        raise SplitError("forget_fraction must lie strictly between 0 and 1")
    if test.num_classes != pool.num_classes:
        raise SplitError("test and pool disagree on num_classes")
    if test.input_dim != pool.input_dim:
        raise SplitError("test and pool disagree on input_dim")
    n = pool.num_samples
    n_held = round_half_up(0.1 * n)
    n_train = n - n_held
    n_forget = round_half_up(forget_fraction * n_train)
    n_val = round_half_up(0.1 * n_train)
    n_retain = n_train - n_forget - n_val
    if min(n_held, n_forget, n_val, n_retain) < 1:
        raise SplitError(
            f"pool of {n} rows cannot supply all four parts "
            f"(held {n_held}, forget {n_forget}, val {n_val}, retain {n_retain})"
        )
    perm = np.random.default_rng(seed).permutation(n)
    held = np.sort(perm[:n_held])
    forget = np.sort(perm[n_held : n_held + n_forget])
    val = np.sort(perm[n_held + n_forget : n_held + n_forget + n_val])
    retain = np.sort(perm[n_held + n_forget + n_val :])
    present = np.unique(pool.labels[held])
    if present.size != pool.num_classes:
        missing = sorted(set(range(1, pool.num_classes + 1)) - set(present))
        raise SplitError(f"held-out slice is missing classes {missing}")
    return DataSplits(held, forget, val, retain, test)


def sample_minibatch(indices, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a batch of indices; without replacement when possible.

    Falls back to sampling with replacement when batch_size exceeds the
    number of available indices.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("cannot sample from an empty index set")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    replace = batch_size > indices.size
    return rng.choice(indices, size=batch_size, replace=replace)


# CSV rows are the feature columns followed by one integer label column.

def write_csv(data: Dataset, path, header: bool = False) -> None:
    """Write a dataset as comma-separated text, floats at 17 significant
    digits so load_csv(write_csv(d)) reproduces d exactly."""
    with open(path, "w") as fh:
        if header:
            cols = [f"x{j + 1}" for j in range(data.input_dim)] + ["label"]
            fh.write(",".join(cols) + "\n")
        for row, lab in zip(data.features, data.labels):
            cells = ["%.17g" % v for v in row]
            cells.append(str(int(lab)))
            fh.write(",".join(cells) + "\n")


def load_csv(path, header: bool = False,
             num_classes: int | None = None) -> Dataset:
    """Read a dataset written in the write_csv layout.

    ``num_classes`` is the class count of the dataset; labels above it
    are rejected.  None takes the maximum label seen, which is wrong for
    a file that happens to lack the top class (a small test set), so
    callers that know the count pass it.  Any malformed cell raises
    DataError naming the 1-based line number.
    """
    rows = []
    labels = []
    width = None
    with open(path) as fh:
        lines = fh.read().splitlines()
    start = 1 if header else 0
    for lineno, ln in enumerate(lines[start:], start=start + 1):
        if not ln.strip():
            continue
        cells = ln.split(",")
        if len(cells) < 2:
            raise DataError(f"{path} line {lineno}: need features and a label")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise DataError(
                f"{path} line {lineno}: expected {width} columns, got {len(cells)}"
            )
        try:
            feats = [float(c) for c in cells[:-1]]
        except ValueError:
            raise DataError(f"{path} line {lineno}: non-numeric feature") from None
        try:
            lab = int(cells[-1])
        except ValueError:
            raise DataError(f"{path} line {lineno}: label must be an integer") from None
        if lab < 1:
            raise DataError(f"{path} line {lineno}: labels start at 1")
        if num_classes is not None and lab > num_classes:
            raise DataError(
                f"{path} line {lineno}: label {lab} exceeds num_classes={num_classes}"
            )
        if not all(math.isfinite(v) for v in feats):
            raise DataError(f"{path} line {lineno}: non-finite feature")
        rows.append(feats)
        labels.append(lab)
    if not rows:
        raise DataError(f"{path}: no data rows")
    features = np.array(rows, dtype=np.float64)
    labs = np.array(labels, dtype=np.int64)
    k = int(labs.max()) if num_classes is None else num_classes
    return Dataset(features, labs, k)
