"""Property tests: the attack AUC, histogram matching, pool splits and
bit-exact round trips of every row file."""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import unlearnlab as ul
from unlearnlab import AttackScores
from unlearnlab.harness import METRICS_HEADER, write_metrics_csv
from unlearnlab.metrics import REPORT_FIELDS

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


# ---------------------------------------------------------------- row files

MAX = 1.7976931348623157e308
# Any finite double, the signed zero, subnormal and extreme ones always
# among the candidates.
finite = st.one_of(st.sampled_from([-0.0, 5e-324, -5e-324, MAX, -MAX]),
                   st.floats(allow_nan=False, allow_infinity=False))


def bits(value):
    """A cell value with floats as their IEEE-754 bytes, so -0.0 != 0.0."""
    return struct.pack("<d", value) if isinstance(value, float) else value


def round_trip(write, read, value):
    """read(write(value)); writing what was read back must give the same
    bytes as the first write."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first"), Path(tmp, "second")
        write(value, first)
        back = read(first)
        write(back, second)
        assert second.read_bytes() == first.read_bytes()
    return back


@st.composite
def datasets(draw):
    n, d, k = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(2, 5))
    features = draw(arrays(np.float64, (n, d), elements=finite))
    labels = draw(arrays(np.int64, n, elements=st.integers(1, k)))
    return ul.Dataset(features, labels, k)


@settings(max_examples=150, deadline=None)
@given(datasets(), st.booleans())
def test_dataset_csv_round_trip_is_bitwise(data, header):
    back = round_trip(lambda d, p: ul.write_csv(d, p, header=header),
                      lambda p: ul.load_csv(p, header=header, num_classes=data.num_classes),
                      data)
    assert np.array_equal(back.features.view(np.uint64), data.features.view(np.uint64))
    assert np.array_equal(back.labels, data.labels)
    assert back.num_classes == data.num_classes


@st.composite
def models(draw):
    d, k = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    if draw(st.booleans()):
        arch = ul.ArchitectureSpec("linear", d, k)
    else:
        arch = ul.ArchitectureSpec("mlp1", d, k, hidden_dim=draw(st.integers(1, 4)),
                                   activation=draw(st.sampled_from(["tanh", "relu"])))
    theta = draw(arrays(np.float64, arch.num_params, elements=finite))
    return ul.Model(arch, theta, init_seed=draw(st.integers(0, 2**64 - 1)))


@settings(max_examples=150, deadline=None)
@given(models())
def test_checkpoint_round_trip_is_bitwise(model):
    back = round_trip(ul.save_checkpoint, ul.load_checkpoint, model)
    assert back.arch == model.arch
    assert back.init_seed == model.init_seed
    assert np.array_equal(back.theta.view(np.uint64), model.theta.view(np.uint64))


# A percentage, with its signed zero and smallest subnormal as candidates.
percent = st.one_of(st.sampled_from([-0.0, 5e-324, 100.0]), st.floats(0.0, 100.0))
# Method names may hold any character but the separators, including the
# ones str.splitlines() would break a line at.
names = st.text(st.characters(blacklist_characters=",\n\r",
                              blacklist_categories=("Cs",)), max_size=6)


@st.composite
def reports(draw):
    return ul.MetricsReport(
        method=draw(names), seed=draw(st.integers(-2**63, 2**63)),
        w=draw(st.none() | finite),
        **{name: draw(percent) for name in REPORT_FIELDS})


@settings(max_examples=150, deadline=None)
@given(st.lists(reports(), max_size=4))
def test_metrics_csv_round_trip_is_bitwise(rows):
    back = round_trip(write_metrics_csv, ul.read_metrics_csv, rows)
    assert [[bits(getattr(r, c)) for c in METRICS_HEADER] for r in back] == \
        [[bits(getattr(r, c)) for c in METRICS_HEADER] for r in rows]
