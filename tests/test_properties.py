"""Property tests: the attack AUC, histogram matching and pool splits."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import unlearnlab as ul
from unlearnlab import AttackScores

# Scores drawn from a handful of integers, so most draws hold ties
# within and across the two groups.
tie_heavy = st.lists(st.integers(-3, 3), min_size=1, max_size=15)


def auc(members, nonmembers) -> float:
    return ul.attack_auc(AttackScores(np.array(members, dtype=np.float64),
                                      np.array(nonmembers, dtype=np.float64)))


# ----------------------------------------------------------------- attack auc


@settings(max_examples=300, deadline=None)
@given(tie_heavy, tie_heavy)
def test_auc_equals_the_exhaustive_pair_count(m, n):
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in m for b in n)
    assert auc(m, n) == 100.0 * wins / (len(m) * len(n))


@settings(max_examples=300, deadline=None)
@given(tie_heavy, tie_heavy)
def test_auc_of_swapped_groups_sums_to_exactly_100(m, n):
    assert auc(m, n) + auc(n, m) == 100.0


@settings(max_examples=200, deadline=None)
@given(tie_heavy, tie_heavy, st.booleans(), st.integers(0, 14))
def test_auc_with_any_nan_score_is_nan(m, n, in_members, at):
    scores = [float(v) for v in (m if in_members else n)]
    scores[at % len(scores)] = math.nan
    m, n = (scores, n) if in_members else (m, scores)
    assert math.isnan(auc(m, n))
    assert math.isnan(auc(n, m))


# ------------------------------------------------------------ match_histogram


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=1, max_size=10),
       st.integers(1, 60))
def test_match_histogram_invariants(counts, target):
    assume(sum(counts) > 0)
    total = sum(counts)
    got = ul.match_histogram(counts, total, target)
    assert int(got.sum()) == target
    for c, g in zip(counts, got.tolist()):
        if c == 0:
            assert g == 0
        # floor or ceiling of target * c / total, in exact integers
        floor = target * c // total
        ceil = -(-target * c // total)
        assert g in (floor, ceil)


# ---------------------------------------------------------------- make_splits


@settings(max_examples=150, deadline=None)
@given(st.integers(20, 300), st.floats(0.05, 0.85), st.integers(0, 2**32 - 1),
       st.integers(2, 3))
def test_make_splits_is_a_sorted_disjoint_cover_of_round_half_up_sizes(
        n, forget_fraction, seed, k):
    labels = np.arange(n) % k + 1
    pool = ul.Dataset(np.zeros((n, 2)), labels, k)
    test = ul.Dataset(np.zeros((k, 2)), np.arange(k) + 1, k)
    try:
        sp = ul.make_splits(pool, test, forget_fraction, seed)
    except ul.SplitError as exc:
        # a held-out slice that misses a class is a documented refusal
        assume("missing classes" not in str(exc))
        raise
    parts = (sp.held_out, sp.forget, sp.validation, sp.retain)
    for part in parts:
        assert np.all(np.diff(part) > 0)
    joined = np.concatenate(parts)
    assert joined.size == n
    assert np.array_equal(np.sort(joined), np.arange(n))

    n_held = ul.round_half_up(0.1 * n)
    n_train = n - n_held
    n_forget = ul.round_half_up(forget_fraction * n_train)
    n_val = ul.round_half_up(0.1 * n_train)
    assert [p.size for p in parts] == [n_held, n_forget, n_val,
                                       n_train - n_forget - n_val]
