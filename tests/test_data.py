"""Data layer: mixture generator, histograms, splits, minibatches, CSV I/O."""

import math

import numpy as np
import pytest

import unlearnlab as ul
from unlearnlab import DataError, SplitError


# ------------------------------------------------------------------ generator


def test_genspec_validation():
    with pytest.raises(ValueError):
        ul.GenSpec(num_classes=1, input_dim=4, samples_per_class=10)
    with pytest.raises(ValueError):
        ul.GenSpec(num_classes=3, input_dim=0, samples_per_class=10)
    with pytest.raises(ValueError):
        ul.GenSpec(num_classes=3, input_dim=4, samples_per_class=0)
    with pytest.raises(ValueError):
        ul.GenSpec(num_classes=3, input_dim=4, samples_per_class=10,
                   noise_sigma=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="centroid_scale must be finite"):
            ul.GenSpec(3, 4, 10, centroid_scale=bad)
        with pytest.raises(ValueError, match="noise_sigma must be finite"):
            ul.GenSpec(3, 4, 10, noise_sigma=bad)


def test_mixture_is_balanced_and_deterministic():
    spec = ul.GenSpec(num_classes=3, input_dim=5, samples_per_class=10, seed=4)
    data = ul.generate_gaussian_mixture(spec)
    assert data.num_samples == 30 and data.input_dim == 5
    assert np.array_equal(ul.class_histogram(data.labels, 3), [10, 10, 10])
    again = ul.generate_gaussian_mixture(spec)
    assert np.array_equal(data.features, again.features)
    assert np.array_equal(data.labels, again.labels)


def test_centroids_have_requested_norm():
    cents = ul.class_centroids(4, 8, 2.5)
    assert cents.shape == (4, 8)
    assert np.allclose(np.linalg.norm(cents, axis=1), 2.5, atol=1e-12)


def test_centroids_shared_across_sampling_seeds():
    a = ul.GenSpec(num_classes=3, input_dim=4, samples_per_class=200,
                   centroid_scale=3.0, noise_sigma=0.01, seed=0)
    b = ul.GenSpec(num_classes=3, input_dim=4, samples_per_class=200,
                   centroid_scale=3.0, noise_sigma=0.01, seed=99)
    da, db = ul.generate_gaussian_mixture(a), ul.generate_gaussian_mixture(b)
    assert not np.array_equal(da.features, db.features)
    for c in range(1, 4):
        ma = da.features[da.labels == c].mean(axis=0)
        mb = db.features[db.labels == c].mean(axis=0)
        assert np.linalg.norm(ma - mb) < 0.01


def test_nearest_centroid_oracle_on_separated_mixture():
    # widely separated classes: labels must be recoverable from geometry
    spec = ul.GenSpec(num_classes=4, input_dim=8, samples_per_class=50,
                      centroid_scale=10.0, noise_sigma=1.0, seed=0)
    fit = ul.generate_gaussian_mixture(spec)
    means = np.stack([fit.features[fit.labels == c].mean(axis=0)
                      for c in range(1, 5)])
    fresh = ul.generate_gaussian_mixture(
        ul.GenSpec(num_classes=4, input_dim=8, samples_per_class=50,
                   centroid_scale=10.0, noise_sigma=1.0, seed=7))
    dists = ((fresh.features[:, None, :] - means[None]) ** 2).sum(axis=2)
    pred = dists.argmin(axis=1) + 1
    acc = 100.0 * (pred == fresh.labels).mean()
    assert acc >= 99.0


def test_dataset_validation():
    with pytest.raises(DataError):
        ul.Dataset(np.zeros((0, 3)), np.array([], dtype=int), 2)
    with pytest.raises(DataError):
        ul.Dataset(np.array([[np.nan, 0.0]]), np.array([1]), 2)
    with pytest.raises(DataError):
        ul.Dataset(np.zeros((2, 2)), np.array([1, 3]), 2)
    with pytest.raises(DataError):
        ul.Dataset(np.zeros((2, 2)), np.array([0, 1]), 2)


@pytest.mark.parametrize("labels, bad", [
    ([1.5, 2.9, 1.0], "1.5"), ([1.0, math.nan, 2.0], "nan"), ([math.inf, 1.0, 2.0], "inf")])
def test_dataset_refuses_labels_that_are_not_integers(labels, bad):
    # they used to be truncated (1.5 -> 1), and NaN raised numpy's own error
    with pytest.raises(DataError, match=f"^labels must be integers, got {bad}$"):
        ul.Dataset(np.zeros((3, 2)), labels, 3)


@pytest.mark.parametrize("k", [2.5, np.float64(2.0), True])
def test_dataset_refuses_a_class_count_that_is_not_an_integer(k):
    # 2.5 used to be kept, and the first class_histogram raised TypeError
    with pytest.raises(DataError, match=r"^num_classes: expected an integer, got "):
        ul.Dataset(np.zeros((2, 2)), [1, 2], k)


def test_dataset_stores_a_numpy_class_count_as_an_int():
    ds = ul.Dataset(np.zeros((2, 2)), [1, 3], np.int64(3))
    assert type(ds.num_classes) is int and ds.num_classes == 3
    assert ul.class_histogram(ds.labels, ds.num_classes).tolist() == [1, 0, 1]


def test_dataset_refuses_fewer_than_two_classes():
    with pytest.raises(DataError, match="^num_classes must be >= 2$"):
        ul.Dataset(np.zeros((2, 2)), [1, 1], 1)


def test_integral_float_labels_are_accepted():
    ds = ul.Dataset(np.zeros((3, 2)), np.array([1.0, 3.0, 2.0]), 3)
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 3, 2]
    assert ul.class_histogram([2.0, 2.0, 1.0], 3).tolist() == [1, 2, 0]


# ------------------------------------------------------- histogram / rounding


def test_class_histogram_example():
    assert np.array_equal(ul.class_histogram([1, 1, 2, 3], 3), [2, 1, 1])
    assert np.array_equal(ul.class_histogram([2], 4), [0, 1, 0, 0])
    assert np.array_equal(ul.class_histogram([], 3), [0, 0, 0])


def test_class_histogram_matches_brute_force_tally():
    rng = np.random.default_rng(17)
    labels = rng.integers(1, 7, size=10_000)
    got = ul.class_histogram(labels, 6)
    tally = [int(sum(1 for v in labels if v == c)) for c in range(1, 7)]
    assert got.tolist() == tally
    assert got.sum() == 10_000


def test_class_histogram_rejects_out_of_range():
    with pytest.raises(ValueError):
        ul.class_histogram([1, 4], 3)
    with pytest.raises(ValueError):
        ul.class_histogram([[1, 2]], 3)


@pytest.mark.parametrize("labels", [[1.7, 2.2], [1.0, math.nan]])
def test_class_histogram_refuses_labels_that_are_not_integers(labels):
    with pytest.raises(ValueError, match="^labels must be integers, got "):
        ul.class_histogram(labels, 3)


def test_round_half_up():
    assert ul.round_half_up(2.5) == 3
    assert ul.round_half_up(2.4) == 2
    assert ul.round_half_up(3.5) == 4
    assert ul.round_half_up(0.0) == 0
    assert ul.round_half_up(90.0) == 90


# --------------------------------------------------------------------- splits


def make_pool(n, num_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, 3))
    labels = rng.integers(1, num_classes + 1, size=n)
    labels[:num_classes] = np.arange(1, num_classes + 1)  # every class present
    return ul.Dataset(feats, labels, num_classes)


def test_split_sizes_thousand_rows():
    pool = make_pool(1000)
    test = make_pool(100, seed=1)
    sp = ul.make_splits(pool, test, forget_fraction=0.1, seed=0)
    assert sp.held_out.size == 100
    assert sp.forget.size == 90
    assert sp.validation.size == 90
    assert sp.retain.size == 720
    sp5 = ul.make_splits(pool, test, forget_fraction=0.5, seed=0)
    assert sp5.forget.size == 450
    assert sp5.retain.size == 360


def test_splits_partition_the_pool():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(60, 400))
        ff = float(rng.uniform(0.05, 0.6))
        pool = make_pool(n, seed=int(rng.integers(1 << 30)))
        test = make_pool(20, seed=int(rng.integers(1 << 30)))
        try:
            sp = ul.make_splits(pool, test, ff, seed=int(rng.integers(1 << 30)))
        except SplitError:
            continue
        parts = [sp.held_out, sp.forget, sp.validation, sp.retain]
        merged = np.concatenate(parts)
        assert merged.size == n
        assert np.array_equal(np.sort(merged), np.arange(n))
        for p in parts:
            assert np.array_equal(p, np.sort(p))
        assert np.intersect1d(sp.held_out, sp.forget).size == 0


def test_splits_deterministic_in_seed():
    pool, test = make_pool(300), make_pool(30, seed=5)
    a = ul.make_splits(pool, test, 0.2, seed=11)
    b = ul.make_splits(pool, test, 0.2, seed=11)
    c = ul.make_splits(pool, test, 0.2, seed=12)
    assert np.array_equal(a.forget, b.forget)
    assert not np.array_equal(a.forget, c.forget)


def test_split_errors():
    pool, test = make_pool(1000), make_pool(50, seed=1)
    with pytest.raises(SplitError):
        ul.make_splits(pool, test, 0.0, seed=0)
    with pytest.raises(SplitError):
        ul.make_splits(pool, test, 1.0, seed=0)
    # 30-row pool, ff=0.01: forget slice rounds to zero rows
    small = make_pool(30)
    with pytest.raises(SplitError):
        ul.make_splits(small, test, 0.01, seed=0)
    mismatched = ul.Dataset(np.zeros((10, 3)), np.ones(10, dtype=int), 2)
    with pytest.raises(SplitError):
        ul.make_splits(pool, mismatched, 0.2, seed=0)


def test_split_rejects_held_out_missing_a_class():
    # one row each of classes 1 and 4 in a 100-row pool: most
    # permutations leave one or both outside the 10-row held-out slice
    feats = np.random.default_rng(0).normal(size=(100, 2))
    labels = np.ones(100, dtype=np.int64)
    labels[1] = 2
    labels[2] = 3
    labels[3:50] = 2
    labels[50:99] = 3
    labels[99] = 4
    pool = ul.Dataset(feats, labels, 4)
    test = ul.Dataset(feats[:10], labels[:10].clip(1, 4), 4)
    seen = set()
    for seed in range(40):
        # the held-out slice is the permutation's first round(0.1 n) rows
        held = np.random.default_rng(seed).permutation(100)[:10]
        missing = sorted({1, 2, 3, 4} - set(labels[held].tolist()))
        try:
            sp = ul.make_splits(pool, test, 0.2, seed=seed)
        except SplitError as e:
            assert str(e) == f"held-out slice is missing classes {missing}"
            seen.add(str(missing))
        else:
            assert not missing and set(pool.labels[sp.held_out]) == {1, 2, 3, 4}
    assert seen == {"[1]", "[4]", "[1, 4]"}


# ------------------------------------------------------------------ minibatch


def test_minibatch_full_size_is_permutation():
    idx = np.array([3, 8, 9, 12])
    batch = ul.sample_minibatch(idx, 4, np.random.default_rng(0))
    assert np.array_equal(np.sort(batch), idx)


def test_minibatch_deterministic_per_rng_state():
    idx = np.arange(50)
    a = ul.sample_minibatch(idx, 8, np.random.default_rng(13))
    b = ul.sample_minibatch(idx, 8, np.random.default_rng(13))
    assert np.array_equal(a, b)


def test_minibatch_oversize_samples_with_replacement():
    idx = np.array([1, 2, 3])
    batch = ul.sample_minibatch(idx, 10, np.random.default_rng(0))
    assert batch.size == 10
    assert set(batch.tolist()) <= {1, 2, 3}


def test_minibatch_errors():
    with pytest.raises(ValueError):
        ul.sample_minibatch(np.array([], dtype=int), 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        ul.sample_minibatch(np.arange(5), 0, np.random.default_rng(0))


def test_minibatch_draws_are_roughly_uniform():
    idx = np.arange(10)
    rng = np.random.default_rng(29)
    counts = np.zeros(10, dtype=int)
    for _ in range(20_000):
        counts[ul.sample_minibatch(idx, 5, rng)] += 1
    # each index expects 10_000 hits; 3 sigma of a binomial(100k, 0.1)
    assert np.all(np.abs(counts - 10_000) <= 285)


# ------------------------------------------------------------------------ csv


def test_load_csv_minimal_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("0.0,1.0,1\n1.0,0.0,2\n")
    data = ul.load_csv(path)
    assert data.num_samples == 2 and data.input_dim == 2
    assert data.num_classes == 2
    assert np.array_equal(data.labels, [1, 2])


def test_csv_round_trip_is_bitwise(tmp_path):
    data = ul.generate_gaussian_mixture(
        ul.GenSpec(num_classes=3, input_dim=4, samples_per_class=9, seed=2))
    path = tmp_path / "mix.csv"
    ul.write_csv(data, path)
    back = ul.load_csv(path)
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.labels, data.labels)
    assert back.num_classes == 3


def test_csv_header_flag(tmp_path):
    data = ul.generate_gaussian_mixture(
        ul.GenSpec(num_classes=2, input_dim=2, samples_per_class=3, seed=0))
    path = tmp_path / "h.csv"
    ul.write_csv(data, path, header=True)
    first = path.read_text().splitlines()[0]
    assert first == "x1,x2,label"
    back = ul.load_csv(path, header=True)
    assert np.array_equal(back.features, data.features)


def test_load_csv_errors_name_the_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,1.0,1\n0.0,oops,2\n")
    with pytest.raises(DataError, match="line 2"):
        ul.load_csv(bad)
    bad.write_text("0.0,1.0,1\n0.0,2\n")
    with pytest.raises(DataError, match="line 2"):
        ul.load_csv(bad)
    bad.write_text("0.0,1.0,1\nnan,1.0,2\n")
    with pytest.raises(DataError, match="line 2"):
        ul.load_csv(bad)
    bad.write_text("0.0,1.0,0\n")
    with pytest.raises(DataError, match="line 1"):
        ul.load_csv(bad)
    bad.write_text("")
    with pytest.raises(DataError):
        ul.load_csv(bad)


@pytest.mark.parametrize("line, cell, expected", [
    ("0.5,1_0", "1_0", "an integer"),
    ("0.25, 2", " 2", "an integer"),
    ("1_0.5,1", "1_0.5", "a finite number"),
])
def test_load_csv_refuses_a_non_canonical_number(tmp_path, line, cell, expected):
    # int() and float() take digit underscores and padding spaces; a
    # dataset cell may not
    path = tmp_path / "data.csv"
    path.write_text(f"0.0,1\n{line}\n")
    with pytest.raises(DataError) as info:
        ul.load_csv(path)
    assert str(info.value) == f"{path} line 2: expected {expected}, got {cell!r}"


def test_load_csv_names_a_file_that_is_not_utf8(tmp_path):
    bad = tmp_path / "latin.csv"
    bad.write_bytes(b"0.0,1.0,1\n0.0,\xff,2\n")
    with pytest.raises(DataError) as info:
        ul.load_csv(bad)
    assert str(info.value).startswith(f"{bad}: not UTF-8 text: ")

def test_load_csv_takes_the_class_count_it_is_given(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("0.0,1.0,1\n1.0,0.0,2\n")
    assert ul.load_csv(path, num_classes=3).num_classes == 3
    path.write_text("0.0,1.0,1\n1.0,0.0,4\n")
    with pytest.raises(DataError, match="line 2: label 4 exceeds num_classes=3"):
        ul.load_csv(path, num_classes=3)
