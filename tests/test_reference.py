"""Reference distribution: histogram matching and the averaged target q."""

from fractions import Fraction

import numpy as np
import pytest

import unlearnlab as ul
from unlearnlab import CoverageError


def oracle_match(counts, total, target_total):
    """Independent largest-remainder apportionment using exact fractions."""
    quotas = [Fraction(target_total) * c / total for c in counts]
    base = [int(q) for q in quotas]  # floor, quotas are non-negative
    rem = [q - b for q, b in zip(quotas, base)]
    deficit = target_total - sum(base)
    order = sorted(range(len(counts)), key=lambda i: (-rem[i], i))
    for i in order[:deficit]:
        base[i] += 1
    return base


# ------------------------------------------------------------ match_histogram


def test_match_histogram_identity():
    assert ul.match_histogram([2, 1, 1], 4, 4).tolist() == [2, 1, 1]


def test_match_histogram_upscale():
    assert ul.match_histogram([2, 1], 3, 4).tolist() == [3, 1]


def test_match_histogram_tie_goes_to_lowest_index():
    assert ul.match_histogram([1, 1, 1], 3, 4).tolist() == [2, 1, 1]


def test_match_histogram_validation():
    with pytest.raises(ValueError):
        ul.match_histogram([1, 1], 3, 4)  # sum mismatch
    with pytest.raises(ValueError):
        ul.match_histogram([-1, 4], 3, 4)
    with pytest.raises(ValueError):
        ul.match_histogram([1, 2], 3, 0)
    with pytest.raises(ValueError):
        ul.match_histogram([[1, 2]], 3, 4)


def test_match_histogram_against_fraction_oracle():
    rng = np.random.default_rng(31)
    for _ in range(2000):
        k = int(rng.integers(1, 9))
        counts = rng.integers(0, 12, size=k)
        if counts.sum() == 0:
            counts[int(rng.integers(k))] = 1
        total = int(counts.sum())
        target = int(rng.integers(1, 40))
        got = ul.match_histogram(counts, total, target)
        assert got.sum() == target
        assert np.all(got[counts == 0] == 0)
        assert np.all(np.abs(got - target * counts / total) < 1.0)
        assert got.tolist() == oracle_match(counts.tolist(), total, target)


def test_match_histogram_exact_at_integral_multiples():
    counts = np.array([4, 2, 6])
    assert ul.match_histogram(counts, 12, 24).tolist() == [8, 4, 12]
    assert ul.match_histogram(counts, 12, 6).tolist() == [2, 1, 3]


# -------------------------------------------------------------- build_refdist


def test_refdist_is_valid_probability_vector(toy):
    labels = toy.pool.labels[toy.splits.forget]
    q = ul.build_refdist(labels, toy.pool, toy.splits.held_out, toy.base,
                         ul.RefDistConfig(), rng=np.random.default_rng(0))
    assert q.shape == (3,)
    assert np.all(q > 0)
    assert abs(q.sum() - 1.0) < 1e-12


def test_refdist_deterministic_under_config_seed(toy):
    labels = toy.pool.labels[toy.splits.forget]
    a = ul.build_refdist(labels, toy.pool, toy.splits.held_out, toy.base,
                         ul.RefDistConfig(seed=5))
    b = ul.build_refdist(labels, toy.pool, toy.splits.held_out, toy.base,
                         ul.RefDistConfig(seed=5))
    assert np.array_equal(a, b)


def test_refdist_single_match_returns_single_prediction(toy):
    # m=1 forces exactly one sampled row, so q is that row's predictive
    labels = np.array([toy.pool.labels[toy.splits.forget][0]])
    rng = np.random.default_rng(3)
    q = ul.build_refdist(labels, toy.pool, toy.splits.held_out, toy.base,
                         ul.RefDistConfig(num_matched=1),
                         rng=np.random.default_rng(3))
    cls = labels[0]
    avail = toy.splits.held_out[toy.pool.labels[toy.splits.held_out] == cls]
    pick = rng.choice(avail, size=1, replace=False)
    expected = ul.forward_probs(toy.base, toy.pool.features[pick])[0]
    assert np.array_equal(q, expected)


def test_refdist_refuses_forget_labels_that_are_not_integers(toy):
    # [1.5] used to build a class-1 reference
    with pytest.raises(ValueError, match="^labels must be integers, got 1.5$"):
        ul.build_refdist([1.5], toy.pool, toy.splits.held_out, toy.base,
                         ul.RefDistConfig(), rng=np.random.default_rng(0))


def test_refdist_zero_theta_reference_is_uniform(toy):
    flat = toy.base.with_theta(np.zeros_like(toy.base.theta))
    labels = toy.pool.labels[toy.splits.forget][:6]
    q = ul.build_refdist(labels, toy.pool, toy.splits.held_out, flat,
                         ul.RefDistConfig(), rng=np.random.default_rng(0))
    assert np.allclose(q, 1.0 / 3.0, atol=1e-12)


def test_refdist_averages_forced_extreme_predictions():
    # a 1-d linear model with saturating weights answers [1,0] on x=+1
    # and [0,1] on x=-1; an even mix must average to [0.5, 0.5]
    feats = np.array([[1.0], [1.0], [-1.0], [-1.0], [1.0], [-1.0]])
    labels = np.array([1, 1, 2, 2, 1, 2])
    pool = ul.Dataset(feats, labels, 2)
    held = np.arange(4)  # two rows of each class
    model = ul.init_model(ul.ArchitectureSpec("linear", 1, 2), seed=0)
    model = model.with_theta(np.array([500.0, -500.0, 0.0, 0.0]))
    q = ul.build_refdist(np.array([1, 2]), pool, held, model,
                         ul.RefDistConfig(), rng=np.random.default_rng(0))
    assert np.allclose(q, [0.5, 0.5], atol=1e-12)


def test_refdist_default_match_count_is_batch_size():
    # held-out pool with exactly one row per class: sampling without
    # replacement forces each class's row, so q is the exact mean over
    # matched counts and reveals how many rows were drawn per class
    feats = np.array([[1.0], [-1.0]])
    pool = ul.Dataset(np.vstack([feats, feats]), np.array([1, 2, 1, 2]), 2)
    held = np.array([0, 1])
    model = ul.init_model(ul.ArchitectureSpec("linear", 1, 2), seed=0)
    model = model.with_theta(np.array([500.0, -500.0, 0.0, 0.0]))
    # batch of 3: histogram [2, 1], default target = 3 keeps it [2, 1]
    q = ul.build_refdist(np.array([1, 1, 2]), pool, held, model,
                         ul.RefDistConfig(), rng=np.random.default_rng(0))
    assert np.allclose(q, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    # num_matched=4 rescales [2,1] -> [3,1]
    q4 = ul.build_refdist(np.array([1, 1, 2]), pool, held, model,
                          ul.RefDistConfig(num_matched=4),
                          rng=np.random.default_rng(0))
    assert np.allclose(q4, [0.75, 0.25], atol=1e-12)


def test_refdist_coverage_error(toy):
    # held-out restricted to class-1 rows cannot serve a class-2 batch
    held = toy.splits.held_out
    only_one = held[toy.pool.labels[held] == 1]
    with pytest.raises(CoverageError, match="class 2"):
        ul.build_refdist(np.array([2, 2]), toy.pool, only_one, toy.base,
                         ul.RefDistConfig(), rng=np.random.default_rng(0))


def test_refdist_input_validation(toy):
    with pytest.raises(ValueError):
        ul.build_refdist(np.array([], dtype=int), toy.pool,
                         toy.splits.held_out, toy.base, ul.RefDistConfig())
    with pytest.raises(ValueError):
        ul.build_refdist(np.array([1]), toy.pool, np.array([], dtype=int),
                         toy.base, ul.RefDistConfig())
    wrong_k = ul.init_model(ul.ArchitectureSpec("linear", 4, 5), seed=0)
    with pytest.raises(ValueError):
        ul.build_refdist(np.array([1]), toy.pool, toy.splits.held_out,
                         wrong_k, ul.RefDistConfig())
    with pytest.raises(ValueError):
        ul.RefDistConfig(num_matched=0)


def test_refdist_refuses_a_held_out_row_past_the_pool(toy):
    n = toy.pool.num_samples
    held = np.append(toy.splits.held_out, n)
    with pytest.raises(ValueError,
                       match=f"^held-out row index {n} is outside the pool's {n} rows$"):
        ul.build_refdist(np.array([1]), toy.pool, held, toy.base, ul.RefDistConfig())
