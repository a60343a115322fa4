"""Property tests: the attack AUC, histogram matching, pool splits,
bit-exact round trips of every row file, exact gradients, the blocked
forward pass, the step plans of the paired unlearning methods and the
type rule of every config field."""

import importlib
import math
import re
import struct
import tempfile
from dataclasses import replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import unlearnlab as ul
from unlearnlab import AttackScores, LossSpec, UnlearnConfig
from unlearnlab.harness import METRICS_HEADER, write_metrics_csv
from unlearnlab.metrics import REPORT_FIELDS
from unlearnlab.textio import FLOAT_FMT, parse_cell

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


# ------------------------------------------------------------ exact gradients


def fd_gradient(fn, theta, h=1e-4):
    """Fourth-order central differences, coordinate by coordinate.

    With h = 1e-4 the truncation error (~h^4) is negligible and the
    rounding error (~1e-16 / h) is a few 1e-12, so entries above 1e-5
    are resolved to a relative 1e-6.  Plain central differences at
    h = 1e-5, with ~1e-11 of rounding error, miss that on entries near
    1e-5 by rounding alone.
    """
    grad = np.empty_like(theta)
    for i in range(theta.size):
        at = []
        for step in (-2.0, -1.0, 1.0, 2.0):
            t = theta.copy()
            t[i] += step * h
            at.append(fn(t))
        grad[i] = (8.0 * (at[2] - at[1]) - (at[3] - at[0])) / (12.0 * h)
    return grad


def draw_model(draw, rng, d, k):
    """A linear or mlp1 model on (d, k) with random N(0, 0.7) weights."""
    if draw(st.booleans()):
        arch = ul.ArchitectureSpec("linear", d, k)
    else:
        arch = ul.ArchitectureSpec("mlp1", d, k, hidden_dim=draw(st.integers(1, 6)),
                                   activation=draw(st.sampled_from(["tanh", "relu"])))
    return ul.Model(arch, rng.normal(scale=0.7, size=arch.num_params))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(2, 4), st.integers(1, 5),
       st.sampled_from(ul.models.LOSS_KINDS), st.sampled_from([0.0, 0.01, 0.3]),
       st.integers(0, 2**32 - 1))
def test_gradients_match_finite_differences_on_random_models(
        data, d, k, n, loss_kind, l1_weight, seed):
    rng = np.random.default_rng(seed)
    model = draw_model(data.draw, rng, d, k)
    # relu and |theta| have kinks without a derivative: keep every
    # parameter and hidden pre-activation clear of them by more than
    # the largest difference step can move it
    theta = model.theta
    model = model.with_theta(np.where(np.abs(theta) < 1e-3, np.copysign(1e-3, theta), theta))
    x = rng.normal(size=(n, d))
    if model.arch.kind == "mlp1" and model.arch.activation == "relu":
        w1, b1 = ul.models.unpack_params(model)[0]
        assume(np.abs(x @ w1.T + b1).min() > 1e-2)
    soft = loss_kind in ("ce_soft", "kl_to_target")
    spec = LossSpec(loss_kind, soft_target=rng.dirichlet(np.ones(k)) if soft else None,
                    l1_weight=l1_weight)
    labels = None if soft else rng.integers(1, k + 1, size=n)

    def loss_at(theta):
        return ul.loss_and_grad(model.with_theta(theta), x, labels, spec)[0]

    _, grad = ul.loss_and_grad(model, x, labels, spec)
    fd = fd_gradient(loss_at, model.theta)
    # entries below 1e-5 (a dead relu unit, an L1 term cancelling the
    # data term) are compared absolutely, to the differences' resolution
    rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-5)
    assert rel.max() < 1e-6


# ------------------------------------------------------------ blocked forward


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 64), st.integers(2, 16), st.integers(0, 300),
       st.sampled_from(["tanh", "relu"]), st.integers(1, 3000),
       st.integers(0, 2**32 - 1))
def test_blocked_logits_match_one_call_on_random_models(d, k, h, activation, n, seed):
    # h == 0 draws a linear model; a row's last bits may depend on how
    # many rows share its BLAS call, so only the rounding may differ
    arch = (ul.ArchitectureSpec("linear", d, k) if h == 0 else
            ul.ArchitectureSpec("mlp1", d, k, hidden_dim=h, activation=activation))
    rng = np.random.default_rng(seed)
    model = ul.Model(arch, rng.normal(scale=0.7, size=arch.num_params))
    x = rng.normal(size=(n, d))
    one_call, _ = ul.models._forward_cached(model, x)
    np.testing.assert_allclose(ul.forward_logits(model, x), one_call,
                               rtol=1e-12, atol=1e-12)


# -------------------------------------------------------- paired step plans

# the package attribute ``unlearn`` is the dispatch function, not the module
unlearn_module = importlib.import_module("unlearnlab.unlearn")


def public_paired_loop(model, pool, splits, cfg, reference):
    """The paired update loop written with public functions only: per
    step a retain batch from sample_minibatch, for regun a target from
    build_refdist, two loss_and_grad calls and one sgd_step."""
    rng = np.random.default_rng(cfg.seed)
    opt = ul.init_opt_state(model, cfg.lr, cfg.momentum)
    retain_bs = cfg.retain_batch_size or cfg.batch_size
    ce = LossSpec("ce_hard")
    for _ in range(cfg.epochs):
        shuffled = splits.forget[rng.permutation(splits.forget.size)]
        for start in range(0, shuffled.size, cfg.batch_size):
            batch_f = shuffled[start : start + cfg.batch_size]
            batch_r = ul.sample_minibatch(splits.retain, retain_bs, rng)
            if cfg.method == "regun":
                q = ul.build_refdist(pool.labels[batch_f], pool, splits.held_out,
                                     reference, ul.RefDistConfig(num_matched=cfg.num_matched),
                                     rng=rng)
                fy, fspec = None, LossSpec("kl_to_target", soft_target=q)
            else:
                fy, fspec = pool.labels[batch_f], LossSpec("neg_ce_hard")
            _, g_f = ul.loss_and_grad(model, pool.features[batch_f], fy, fspec)
            _, g_r = ul.loss_and_grad(model, pool.features[batch_r],
                                      pool.labels[batch_r], ce)
            model, opt = ul.sgd_step(model, (1.0 - cfg.w) * g_f + cfg.w * g_r, opt)
    return model


@st.composite
def paired_runs(draw):
    """(model, reference, pool, splits, cfg): a random pool of n rows in
    k classes cut into held-out, forget, retain and spare (validation)
    rows, a random model, and a paired-method config whose batches often
    leave a short last batch."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, k = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    sizes = [draw(st.integers(lo, hi)) for lo, hi in ((k, 12), (1, 11), (1, 12), (1, 3))]
    n = sum(sizes)
    labels = np.concatenate([np.arange(k) + 1, rng.integers(1, k + 1, size=n - k)])
    pool = ul.Dataset(rng.normal(size=(n, d)), labels, k)
    perm = rng.permutation(np.arange(k, n))
    held, forget, retain, spare = (np.sort(part) for part in np.split(
        np.concatenate([np.arange(k), perm]), np.cumsum(sizes)[:-1]))
    splits = ul.DataSplits(held, forget, spare, retain, pool)
    model = draw_model(draw, rng, d, k)
    reference = model if draw(st.booleans()) else model.with_theta(
        rng.normal(scale=0.7, size=model.theta.size))
    cfg = UnlearnConfig(
        method=draw(st.sampled_from(["regun", "neggrad_plus"])),
        lr=0.05, epochs=draw(st.integers(1, 3)),
        batch_size=draw(st.sampled_from([1, 2, 3, 4, 5, 16])),
        retain_batch_size=draw(st.sampled_from([None, 1, 3, 16])),
        w=draw(st.floats(0.0, 1.0)), momentum=0.9,
        num_matched=draw(st.sampled_from([None, 1, 7])),
        seed=draw(st.integers(0, 2**32 - 1)))
    return model, reference, pool, splits, cfg


def unlearned(model, reference, pool, splits, cfg):
    if cfg.method == "regun":
        return ul.regun(model, splits, pool, cfg, reference=reference)
    return ul.neggrad_plus(model, splits, pool, cfg)


@settings(max_examples=150, deadline=None)
@given(paired_runs(), st.floats(0.001, 0.2), st.floats(0.0, 1.0))
def test_plan_replay_equals_the_public_loop_bit_for_bit(run, lr, w):
    model, reference, pool, splits, cfg = run
    want = public_paired_loop(model, pool, splits, cfg, reference)
    got = unlearned(model, reference, pool, splits, cfg)
    assert np.array_equal(got.theta.view(np.uint64), want.theta.view(np.uint64))
    # a two-point slice replays one plan; each point is its own public loop
    points = [cfg, replace(cfg, lr=lr, w=w)]
    sliced = unlearn_module._run_slice(model, splits, pool, points, reference)
    for point, mine in zip(points, sliced, strict=True):
        want = public_paired_loop(model, pool, splits, point, reference)
        assert np.array_equal(mine.theta.view(np.uint64), want.theta.view(np.uint64))


def test_the_paired_methods_share_no_plan(toy):
    kw = dict(lr=0.05, epochs=2, batch_size=4, w=0.5, momentum=0.9, seed=3)
    regun_cfg = UnlearnConfig(method="regun", **kw)
    ngp_cfg = UnlearnConfig(method="neggrad_plus", **kw)
    for cfg in (regun_cfg, ngp_cfg, regun_cfg):
        got = unlearned(toy.base, toy.base, toy.pool, toy.splits, cfg)
        want = public_paired_loop(toy.base, toy.pool, toy.splits, cfg, toy.base)
        assert np.array_equal(got.theta, want.theta), cfg.method


# ---------------------------------------------------------------- step kernel


def public_train_loop(model, data, indices, cfg, spec):
    """``train`` written with public functions only: one loss_and_grad
    and one sgd_step per batch."""
    rng = np.random.default_rng(cfg.seed)
    opt = ul.init_opt_state(model, cfg.lr, cfg.momentum)
    for _ in range(cfg.epochs):
        shuffled = indices[rng.permutation(indices.size)]
        for start in range(0, shuffled.size, cfg.batch_size):
            batch = shuffled[start : start + cfg.batch_size]
            _, grad = ul.loss_and_grad(model, data.features[batch], data.labels[batch], spec)
            model, opt = ul.sgd_step(model, grad, opt)
    return model


@settings(max_examples=80, deadline=None)
@given(paired_runs(), st.sampled_from([0.0, 0.9]), st.sampled_from([0.0, 0.01]),
       st.data())
def test_the_step_kernel_is_the_public_loop_and_writes_no_input(run, momentum, l1, data):
    # draw_model draws linear, tanh and relu models
    model, reference, pool, splits, cfg = run
    cfg = replace(cfg, momentum=momentum)
    inputs = (model, reference)
    before = [m.theta.tobytes() for m in inputs]

    # a train batch size that leaves a short last batch where one exists
    indices = np.concatenate([splits.forget, splits.retain])
    n = indices.size
    batch_size = data.draw(st.sampled_from([b for b in range(2, n) if n % b] or [1]))
    tcfg = ul.TrainConfig(epochs=cfg.epochs, batch_size=batch_size, lr=cfg.lr,
                          momentum=momentum, seed=cfg.seed)
    spec = LossSpec("ce_hard", l1_weight=l1)
    got = ul.train(model, pool, indices, tcfg, loss=spec)
    want = public_train_loop(model, pool, indices, tcfg, spec)
    assert np.array_equal(got.theta.view(np.uint64), want.theta.view(np.uint64))

    for method in ("regun", "neggrad_plus"):
        point = replace(cfg, method=method)
        got = unlearned(model, reference, pool, splits, point)
        want = public_paired_loop(model, pool, splits, point, reference)
        assert np.array_equal(got.theta.view(np.uint64), want.theta.view(np.uint64)), method
    assert [m.theta.tobytes() for m in inputs] == before

    # every point of a slice hands over its own theta
    points = [cfg, replace(cfg, lr=0.01), replace(cfg, w=1.0 - cfg.w)]
    sliced = list(unlearn_module._run_slice(model, splits, pool, points, reference))
    assert [m.theta.tobytes() for m in inputs] == before
    thetas = [m.theta for m in (*sliced, *inputs)]
    for i, a in enumerate(thetas[:len(sliced)]):
        assert not any(np.shares_memory(a, b) for b in thetas[i + 1:])


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers())
def test_every_number_the_lab_writes_parses_back(value, count):
    back = parse_cell(float, FLOAT_FMT % value, "")
    assert struct.pack("<d", back) == struct.pack("<d", value)
    assert parse_cell(int, str(count), "") == count


# -------------------------------------------------------------- config fields

_cfg = ul.default_config()
# Every config class as a valid instance, the prefix of its field errors
# and the path of its fields in a config document (None: it holds none).
CONFIGS = [
    (_cfg, "", ""),
    (_cfg.arch, "", "arch."),
    (_cfg.base, "", "base."),
    (_cfg.gen, "", "data."),
    (_cfg.methods["regun"], "grid ", "methods.regun."),
    (UnlearnConfig("regun", lr=0.1), "", None),
    (ul.RefDistConfig(), "", None),
]
FIELDS = [(obj, prefix, path, name, hint) for obj, prefix, path in CONFIGS
          for name, hint in get_type_hints(type(obj)).items()]
# Fields a document leaves to the experiment, and the CSV source's keys.
DERIVED = {"seed", "gen", "data.num_classes", "data.input_dim"}
CSV_KEYS = {"pool_csv": "pool", "test_csv": "test", "csv_header": "header"}
any_number = st.integers() | st.floats()


def wrong_values(hint):
    """Values no field hinted ``hint`` takes, None aside."""
    if get_origin(hint) is UnionType:
        hint = get_args(hint)[0]
    return {
        int: st.booleans() | st.floats() | st.text(),
        float: st.booleans() | st.text(),
        str: any_number,
        bool: any_number | st.text(),
        tuple: any_number | st.booleans() | st.text(),
    }.get(get_origin(hint) or hint, any_number | st.text())  # an object


def document_key(path, name):
    """The dotted key of field ``name`` in a config document, or None."""
    if path is None or name in DERIVED or path + name in DERIVED:
        return None
    return "data." + CSV_KEYS[name] if path == "" and name in CSV_KEYS else path + name


def document(key, value):
    """A config document holding ``value`` at the dotted ``key``."""
    *parents, leaf = key.split(".")
    doc = node = {}
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value
    if key in ("data.pool", "data.test", "data.header"):
        node.update({"source": "csv", "pool": "p.csv", "test": "t.csv", leaf: value})
    return doc


@pytest.mark.parametrize("obj, prefix, path, name, hint", FIELDS,
                         ids=[f"{type(f[0]).__name__}.{f[3]}" for f in FIELDS])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_wrong_typed_field_is_refused_in_python_and_in_json(
        obj, prefix, path, name, hint, data):
    bad = data.draw(wrong_values(hint))
    with pytest.raises(ValueError, match=f"^{re.escape(prefix + name)}: expected "):
        replace(obj, **{name: bad})
    key = document_key(path, name)
    if key is not None:
        with pytest.raises(ValueError, match=f"^config key {re.escape(key)}: expected "):
            ul.config_from_dict(document(key, bad))
