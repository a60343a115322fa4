"""Model core: forward pass, losses and gradients, SGD, training, checkpoints."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import unlearnlab as ul
from unlearnlab import models
from unlearnlab.models import _forward_cached, _log_softmax, forward_log_probs


def random_model(rng, kind="linear", d=3, k=3, h=5, activation="tanh"):
    if kind == "linear":
        arch = ul.ArchitectureSpec("linear", d, k)
    else:
        arch = ul.ArchitectureSpec(kind, d, k, hidden_dim=h, activation=activation)
    model = ul.init_model(arch, seed=int(rng.integers(1 << 30)))
    return model.with_theta(rng.normal(scale=0.7, size=model.theta.size))


def fd_gradient(fn, theta, h=1e-5):
    """Central finite differences of a scalar function, coordinate by coordinate."""
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2.0 * h)
    return grad


# ---------------------------------------------------------------- architecture


def test_parameter_counts():
    assert ul.ArchitectureSpec("linear", 4, 3).num_params == 4 * 3 + 3
    arch = ul.ArchitectureSpec("mlp1", 4, 3, hidden_dim=5)
    assert arch.num_params == 5 * 4 + 5 + 3 * 5 + 3


def test_architecture_validation():
    with pytest.raises(ValueError):
        ul.ArchitectureSpec("conv", 4, 3)
    with pytest.raises(ValueError):
        ul.ArchitectureSpec("linear", 0, 3)
    with pytest.raises(ValueError):
        ul.ArchitectureSpec("linear", 4, 1)
    with pytest.raises(ValueError):
        ul.ArchitectureSpec("mlp1", 4, 3, hidden_dim=5, activation="gelu")


def test_init_model_shapes_and_bounds():
    arch = ul.ArchitectureSpec("mlp1", 6, 4, hidden_dim=5, activation="relu")
    model = ul.init_model(arch, seed=9)
    assert model.theta.size == arch.num_params
    assert model.init_seed == 9
    (w1, b1), (w2, b2) = ul.unpack_params(model)
    assert np.all(b1 == 0.0) and np.all(b2 == 0.0)
    a1 = math.sqrt(6.0 / (6 + 5))
    a2 = math.sqrt(6.0 / (5 + 4))
    assert np.all(np.abs(w1) <= a1) and np.all(np.abs(w2) <= a2)
    again = ul.init_model(arch, seed=9)
    assert np.array_equal(model.theta, again.theta)


# ------------------------------------------------------------------- forward


def test_zero_theta_gives_uniform_probabilities():
    model = ul.init_model(ul.ArchitectureSpec("linear", 4, 5), seed=0)
    model = model.with_theta(np.zeros_like(model.theta))
    probs = ul.forward_probs(model, np.random.default_rng(0).normal(size=(7, 4)))
    assert np.allclose(probs, 0.2, atol=1e-15)


def test_forced_two_class_logits():
    # weights chosen so the logits on x=[1] are exactly [0, ln 3]
    model = ul.init_model(ul.ArchitectureSpec("linear", 1, 2), seed=0)
    model = model.with_theta(np.array([0.0, math.log(3.0), 0.0, 0.0]))
    probs = ul.forward_probs(model, np.array([[1.0]]))
    assert np.allclose(probs, [[0.25, 0.75]], atol=1e-15)


def test_softmax_matches_independent_oracle():
    rng = np.random.default_rng(42)
    model = random_model(rng, d=4, k=3)
    x = rng.normal(size=(5, 4))
    z = ul.forward_logits(model, x)
    naive = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    assert np.allclose(ul.forward_probs(model, x), naive, atol=1e-12)


def test_softmax_stable_for_huge_logits():
    model = ul.init_model(ul.ArchitectureSpec("linear", 1, 3), seed=0)
    model = model.with_theta(np.array([1e3, -1e3, 5e2, 0.0, 0.0, 0.0]))
    probs = ul.forward_probs(model, np.array([[1.0]]))
    assert np.all(np.isfinite(probs)) and np.all(probs >= 0)
    assert abs(probs.sum() - 1.0) < 1e-9


def default_shape_model(kind, seed=0):
    """The default experiment's 32-256-10 shape (or 32-10 linear)."""
    if kind == "linear":
        arch = ul.ArchitectureSpec("linear", 32, 10)
    else:
        arch = ul.ArchitectureSpec("mlp1", 32, 10, hidden_dim=256, activation=kind)
    return ul.init_model(arch, seed=seed)


@pytest.mark.parametrize("kind", ["tanh", "relu", "linear"])
@pytest.mark.parametrize("n", [1, 257, 864, 1023, 1024, 1025, 1200, 2049, 6000])
def test_blocked_logits_equal_one_call_bytewise_on_default_shapes(kind, n):
    model = default_shape_model(kind)
    x = np.random.default_rng(n).normal(size=(n, 32))
    one_call, _ = _forward_cached(model, x)
    assert ul.forward_logits(model, x).tobytes() == one_call.tobytes()


@pytest.mark.parametrize("n", [1, 256, 257, 1024, 1025, 2048, 2049, 6000])
def test_forward_blocks_are_balanced_and_at_most_the_cap(n, monkeypatch):
    real, rows = models._forward_cached, []

    def recording(model, x):
        rows.append(x.shape[0])
        return real(model, x)

    monkeypatch.setattr(models, "_forward_cached", recording)
    ul.forward_logits(default_shape_model("tanh"), np.zeros((n, 32)))
    cap = models._BLOCK_ROWS
    assert sum(rows) == n and len(rows) == -(-n // cap)
    # balanced: sizes differ by at most one, so a batch of more than the
    # cap is never cut below half of it
    assert max(rows) - min(rows) <= 1 and max(rows) <= cap
    assert len(rows) == 1 or min(rows) >= cap // 2


def test_forward_memory_does_not_grow_with_the_batch():
    model = default_shape_model("tanh")
    x = np.random.default_rng(0).normal(size=(6000, 32))
    peaks = []
    for forward in (lambda: _forward_cached(model, x), lambda: ul.forward_probs(model, x)):
        tracemalloc.start()
        try:
            forward()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one_call, blocked = peaks
    assert blocked < one_call / 8


# SHA-256 of theta and of forward_probs on all 1,600 rows after 3 epochs
# (batch 64) on one generator draw.  They pin the relu and linear bits,
# which the report hashes (default tanh model only) never exercise.
# Recorded with numpy 2.4.6's bundled OpenBLAS on x86-64; another BLAS
# build may round differently.
GOLDEN_DIGESTS = {
    "relu": ("9e1f45f6d8576d1965685d2c5c406638b0bc027ffc9c5e7feca3be1c51b4cb9b",
             "366170c958baf907561720921a7f749baaaeb45159dc9c52d5382ffed8313478"),
    "tanh": ("7e0766f258e8569a22e628d1891e9284152322962baf73eb11d5a61bab8f7e78",
             "66bb19f06f7db21b68fe08bddf5d0f354f439b52c52a507b457cc732d1e928c5"),
    "linear": ("7b1228bc0baa72b42cf21fd0f0d4ec53d62ad118158a7b4446878ef0c1655af5",
               "bdd8a7f9635249c5cc5514779809f1527247d9da96de637a15a2d293715f3912"),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_DIGESTS))
def test_training_and_forward_bits_match_their_golden_digests(kind):
    data = ul.generate_gaussian_mixture(ul.GenSpec(10, 32, 160, seed=11))
    model = ul.train(default_shape_model(kind, seed=5), data, np.arange(data.num_samples),
                     ul.TrainConfig(epochs=3, batch_size=64, lr=0.05, seed=9))
    probs = ul.forward_probs(model, data.features)
    assert (hashlib.sha256(model.theta.tobytes()).hexdigest(),
            hashlib.sha256(probs.tobytes()).hexdigest()) == GOLDEN_DIGESTS[kind]


def test_forward_rejects_wrong_width():
    model = ul.init_model(ul.ArchitectureSpec("linear", 3, 2), seed=0)
    with pytest.raises(ValueError):
        ul.forward_probs(model, np.zeros((2, 4)))


# ------------------------------------------------------------- kl divergence


def test_kl_identical_distributions_is_zero():
    assert ul.kl_divergence(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0


def test_kl_zero_mass_terms_drop():
    got = ul.kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    assert abs(got - math.log(2.0)) < 1e-12


def test_kl_quarter_three_quarter():
    got = ul.kl_divergence(np.array([0.25, 0.75]), np.array([0.5, 0.5]))
    oracle = 0.25 * math.log(0.25 / 0.5) + 0.75 * math.log(0.75 / 0.5)
    assert abs(got - oracle) < 1e-15
    assert abs(got - 0.130812) < 1e-6


def test_kl_rejects_nonpositive_p():
    with pytest.raises(ValueError):
        ul.kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


def test_kl_nonnegative_and_zero_only_at_equality():
    rng = np.random.default_rng(3)
    for _ in range(200):
        q = rng.dirichlet(np.ones(4))
        p = rng.dirichlet(np.ones(4)) + 1e-9
        p /= p.sum()
        val = ul.kl_divergence(q, p)
        assert val >= 0.0
        if val < 1e-12:
            assert np.allclose(q, p, atol=1e-5)


# ------------------------------------------------------------ loss and grad


def test_soft_one_hot_equals_hard_label():
    rng = np.random.default_rng(5)
    model = random_model(rng, kind="mlp1", d=3, k=4, h=4)
    x = rng.normal(size=(6, 3))
    y = rng.integers(1, 5, size=6)
    hard_l, hard_g = ul.loss_and_grad(model, x, y, ul.LossSpec("ce_hard"))
    # one-hot targets only make sense batch-wise when every row shares a label
    x1, y1 = x[:1], y[:1]
    one_hot = np.zeros(4)
    one_hot[y1[0] - 1] = 1.0
    soft_l, soft_g = ul.loss_and_grad(
        model, x1, None, ul.LossSpec("ce_soft", soft_target=one_hot))
    ref_l, ref_g = ul.loss_and_grad(model, x1, y1, ul.LossSpec("ce_hard"))
    assert abs(soft_l - ref_l) < 1e-12
    assert np.allclose(soft_g, ref_g, atol=1e-12)
    assert np.isfinite(hard_l) and hard_g.shape == model.theta.shape


def test_kl_target_gradient_equals_soft_ce_gradient():
    rng = np.random.default_rng(6)
    model = random_model(rng, kind="mlp1", d=3, k=3, h=5, activation="relu")
    x = rng.normal(size=(4, 3))
    q = rng.dirichlet(np.ones(3))
    kl_l, kl_g = ul.loss_and_grad(
        model, x, None, ul.LossSpec("kl_to_target", soft_target=q))
    ce_l, ce_g = ul.loss_and_grad(
        model, x, None, ul.LossSpec("ce_soft", soft_target=q))
    assert np.array_equal(kl_g, ce_g)
    # losses differ exactly by the target's entropy
    entropy = -(q[q > 0] * np.log(q[q > 0])).sum()
    assert abs((ce_l - kl_l) - entropy) < 1e-12


def test_negated_hard_loss_is_exact_negation():
    rng = np.random.default_rng(7)
    model = random_model(rng, d=3, k=3)
    x = rng.normal(size=(5, 3))
    y = rng.integers(1, 4, size=5)
    pos_l, pos_g = ul.loss_and_grad(model, x, y, ul.LossSpec("ce_hard"))
    neg_l, neg_g = ul.loss_and_grad(model, x, y, ul.LossSpec("neg_ce_hard"))
    assert neg_l == -pos_l
    assert np.array_equal(neg_g, -pos_g)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    cases = []
    for kind in ("linear", "mlp1"):
        for act in ("tanh", "relu"):
            cases.append((kind, act, "ce_hard", 0.0))
            cases.append((kind, act, "neg_ce_hard", 0.0))
            cases.append((kind, act, "ce_soft", 0.0))
            cases.append((kind, act, "kl_to_target", 0.0))
            cases.append((kind, act, "ce_hard", 0.01))
    for kind, act, loss_kind, gamma in cases:
        model = random_model(rng, kind=kind, d=3, k=3, h=4, activation=act)
        x = rng.normal(size=(4, 3))
        y = rng.integers(1, 4, size=4)
        q = rng.dirichlet(np.ones(3))
        needs_q = loss_kind in ("ce_soft", "kl_to_target")
        spec = ul.LossSpec(loss_kind, soft_target=q if needs_q else None,
                           l1_weight=gamma)
        labels = None if needs_q else y

        def loss_at(theta):
            return ul.loss_and_grad(model.with_theta(theta), x, labels, spec)[0]

        _, grad = ul.loss_and_grad(model, x, labels, spec)
        fd = fd_gradient(loss_at, model.theta)
        rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
        assert rel.max() < 1e-6, (kind, act, loss_kind, gamma, rel.max())


@pytest.mark.parametrize("bad", [True, "0.5"])
def test_loss_spec_checks_l1_weight_with_the_field_rule(bad):
    with pytest.raises(ValueError, match=r"l1_weight: expected a finite number, got "):
        ul.LossSpec("ce_hard", l1_weight=bad)


def test_l1_subgradient_is_zero_at_zero():
    rng = np.random.default_rng(9)
    model = random_model(rng, d=3, k=3)
    theta = model.theta.copy()
    theta[2] = 0.0
    model = model.with_theta(theta)
    x = rng.normal(size=(3, 3))
    y = rng.integers(1, 4, size=3)
    _, plain = ul.loss_and_grad(model, x, y, ul.LossSpec("ce_hard"))
    _, penal = ul.loss_and_grad(model, x, y, ul.LossSpec("ce_hard", l1_weight=0.5))
    diff = penal - plain
    assert diff[2] == 0.0
    nonzero = theta != 0.0
    assert np.allclose(diff[nonzero], 0.5 * np.sign(theta[nonzero]), atol=1e-15)


def test_loss_rejects_bad_inputs():
    rng = np.random.default_rng(10)
    model = random_model(rng, d=3, k=3)
    with pytest.raises(ValueError):
        ul.loss_and_grad(model, np.zeros((0, 3)), np.array([], dtype=int),
                         ul.LossSpec("ce_hard"))
    with pytest.raises(ValueError):
        ul.loss_and_grad(model, np.zeros((1, 3)), np.array([4]),
                         ul.LossSpec("ce_hard"))
    with pytest.raises(ValueError):
        ul.LossSpec("ce_soft")  # missing target
    with pytest.raises(ValueError):
        ul.LossSpec("ce_hard", l1_weight=-1.0)


@pytest.mark.parametrize("target, match", [
    ([[0.5, 0.5]], "must be a 1-d distribution"),
    ([-0.5, 1.5], "must be a 1-d distribution"),
    ([-0.5, 0.5], "must be a 1-d distribution"),
    ([0.2, 0.2], "must sum to 1"),
    ([], "must sum to 1"),
    ([math.nan, math.nan], "must be a 1-d distribution"),
    ([math.nan, 1.0], "must be a 1-d distribution"),
    ([math.inf, 0.0], "must sum to 1"),
])
def test_soft_target_checks(target, match):
    for kind in ("ce_soft", "kl_to_target"):
        with pytest.raises(ValueError, match=match):
            ul.LossSpec(kind, soft_target=target)


def test_loss_specs_compare_by_identity():
    # array fields make field-wise equality ambiguous, as for Model
    spec = ul.LossSpec("ce_soft", soft_target=[0.5, 0.5])
    assert spec == spec
    assert spec != ul.LossSpec("ce_soft", soft_target=[0.5, 0.5])
    assert len({spec, ul.LossSpec("ce_hard")}) == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build, match", [
    (lambda v: ul.TrainConfig(epochs=1, batch_size=1, lr=v), "lr must be finite"),
    (lambda v: ul.TrainConfig(epochs=1, batch_size=1, lr=0.1, momentum=v),
     "momentum must lie in"),
    (lambda v: ul.init_opt_state(ul.init_model(ul.ArchitectureSpec("linear", 1, 2), 0), v),
     "lr must be finite"),
    (lambda v: ul.LossSpec("ce_hard", l1_weight=v), "l1_weight must be finite"),
], ids=["train_lr", "train_momentum", "opt_lr", "l1_weight"])
def test_non_finite_hyperparameters_are_rejected(build, match, bad):
    # a NaN l1_weight used to pass "< 0" and then switch the penalty off
    with pytest.raises(ValueError, match=match):
        build(bad)


# ---------------------------------------------------------------- sgd / train


def test_plain_sgd_step():
    model = ul.init_model(ul.ArchitectureSpec("linear", 1, 2), seed=0)
    model = model.with_theta(np.array([1.0, 1.0, 0.0, 0.0]))
    opt = ul.init_opt_state(model, lr=0.1, momentum=0.0)
    stepped, _ = ul.sgd_step(model, np.array([1.0, -2.0, 0.0, 0.0]), opt)
    assert np.array_equal(stepped.theta[:2], [0.9, 1.2])


def test_zero_gradient_is_fixed_point():
    rng = np.random.default_rng(11)
    model = random_model(rng, d=2, k=2)
    opt = ul.init_opt_state(model, lr=0.5, momentum=0.9)
    stepped, _ = ul.sgd_step(model, np.zeros_like(model.theta), opt)
    assert np.array_equal(stepped.theta, model.theta)


def test_momentum_accumulates_over_two_steps():
    model = ul.init_model(ul.ArchitectureSpec("linear", 1, 2), seed=0)
    model = model.with_theta(np.zeros(4))
    opt = ul.init_opt_state(model, lr=1.0, momentum=0.9)
    g = np.array([1.0, 0.0, 0.0, 0.0])
    m1, opt = ul.sgd_step(model, g, opt)
    m2, _ = ul.sgd_step(m1, g, opt)
    assert m1.theta[0] == -1.0
    assert abs(m2.theta[0] - (-2.9)) < 1e-15


@pytest.mark.parametrize("label", [2.5, math.nan])
def test_loss_refuses_hard_labels_that_are_not_integers(label):
    # 2.5 used to train on label 2
    model = random_model(np.random.default_rng(10), d=3, k=3)
    with pytest.raises(ValueError, match="^labels must be integers, got "):
        ul.loss_and_grad(model, np.zeros((1, 3)), [label], ul.LossSpec("ce_hard"))
    loss, _ = ul.loss_and_grad(model, np.zeros((1, 3)), [2.0], ul.LossSpec("ce_hard"))
    assert loss == ul.loss_and_grad(model, np.zeros((1, 3)), [2], ul.LossSpec("ce_hard"))[0]


@pytest.mark.parametrize("field", ["lr", "momentum"])
def test_opt_state_refuses_a_bool_like_every_config_class(field):
    args = {"lr": 0.1, "momentum": 0.0, field: True}
    with pytest.raises(ValueError, match=f"^{field}: expected a finite number, got True$"):
        ul.OptState(args["lr"], args["momentum"], np.zeros(2))


def test_momentum_zero_is_plain_descent():
    rng = np.random.default_rng(12)
    model = random_model(rng, d=3, k=3)
    g = rng.normal(size=model.theta.size)
    opt = ul.init_opt_state(model, lr=0.3, momentum=0.0)
    stepped, _ = ul.sgd_step(model, g, opt)
    assert np.array_equal(stepped.theta, model.theta - 0.3 * g)


def test_sgd_rejects_nonfinite_gradient():
    rng = np.random.default_rng(13)
    model = random_model(rng, d=2, k=2)
    opt = ul.init_opt_state(model, lr=0.1, momentum=0.0)
    bad = np.zeros_like(model.theta)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        ul.sgd_step(model, bad, opt)


def test_train_zero_epochs_is_identity(toy):
    cfg = ul.TrainConfig(epochs=0, batch_size=16, lr=0.1, seed=0)
    out = ul.train(toy.base, toy.pool, toy.train_idx, cfg)
    assert np.array_equal(out.theta, toy.base.theta)


def test_train_reaches_full_accuracy_on_separable_classes():
    gen = ul.GenSpec(num_classes=2, input_dim=4, samples_per_class=30,
                     centroid_scale=8.0, noise_sigma=0.5, seed=0)
    data = ul.generate_gaussian_mixture(gen)
    model = ul.init_model(ul.ArchitectureSpec("linear", 4, 2), seed=0)
    model = ul.train(model, data, np.arange(data.num_samples),
                     ul.TrainConfig(epochs=50, batch_size=8, lr=0.1, seed=0))
    assert ul.accuracy(model, data) == 100.0


def test_train_is_deterministic(toy):
    cfg = ul.TrainConfig(epochs=3, batch_size=16, lr=0.1, seed=21)
    a = ul.train(toy.base, toy.pool, toy.train_idx, cfg)
    b = ul.train(toy.base, toy.pool, toy.train_idx, cfg)
    assert np.array_equal(a.theta, b.theta)


def test_train_rejects_empty_indices(toy):
    with pytest.raises(ValueError):
        ul.train(toy.base, toy.pool, np.array([], dtype=int),
                 ul.TrainConfig(epochs=1, batch_size=4, lr=0.1))


@pytest.mark.parametrize("loss", [None, ul.LossSpec("ce_soft", soft_target=np.full(3, 1 / 3))],
                         ids=["ce_hard", "ce_soft"])
@pytest.mark.parametrize("end", [False, True], ids=["minus_one", "n"])
def test_train_refuses_an_out_of_range_row_before_the_first_step(toy, loss, end, monkeypatch):
    # -1 would silently wrap to the last row, and n would fail only at
    # the step whose batch holds it, with an IndexError
    n = toy.pool.num_samples
    bad = n if end else -1
    steps = []
    monkeypatch.setattr(models._Kernel, "step", lambda *args: steps.append(args))
    with pytest.raises(ValueError, match=f"^row index {bad} is outside the data's {n} rows$"):
        ul.train(toy.base, toy.pool, np.append(toy.train_idx, bad),
                 ul.TrainConfig(epochs=1, batch_size=4, lr=0.1), loss=loss)
    assert steps == []


# ------------------------------------------------- log-softmax and fast loops


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def logit_matrices():
    shapes = st.tuples(st.integers(1, 8), st.integers(2, 12))
    plain = st.floats(-60.0, 60.0)
    huge = st.floats(-1e300, 1e300)
    # few distinct values, so row maxima are often tied
    tied = st.sampled_from([-3.0, 0.0, 0.5, 2.0])
    return shapes.flatmap(lambda shape: st.one_of(
        arrays(np.float64, shape, elements=plain),
        arrays(np.float64, shape, elements=huge),
        arrays(np.float64, shape, elements=tied),
    ))


@settings(max_examples=400, deadline=None, database=None)
@given(logit_matrices())
def test_log_softmax_is_scipy_within_rounding_on_finite_rows(logits):
    # both forms shift by the row maximum c; they differ only in how the
    # log of the shifted sum is rounded and where c is subtracted, so an
    # entry may differ by a few ulps of |z| + |c| + log(k), and no more
    special = pytest.importorskip("scipy.special")
    want = logits - special.logsumexp(logits, axis=1, keepdims=True)
    got = _log_softmax(logits)
    c = logits.max(axis=1, keepdims=True)
    scale = np.abs(logits) + np.abs(c) + np.log(logits.shape[1])
    assert np.all(np.abs(got - want) <= 4 * np.finfo(np.float64).eps * scale)


def test_log_softmax_rows_with_inf_or_nan_are_all_nan():
    # a row holding +inf or NaN, or only -inf, has no finite maximum to
    # shift by: every entry is NaN (scipy gives -inf beside a +inf).
    # A -inf beside a finite maximum stays -inf, and no row touches another.
    inf, nan = np.inf, np.nan
    rows = {
        "+inf": ([inf, 0.0, 1.0], [nan] * 3),
        "nan": ([nan, 0.0, 1.0], [nan] * 3),
        "+inf and -inf": ([inf, -inf, 0.0], [nan] * 3),
        "all -inf": ([-inf] * 3, [nan] * 3),
        "-inf beside a finite max": ([-inf, 2.0, 2.0], [-inf, -np.log(2.0), -np.log(2.0)]),
        "finite": ([1e308] * 3, [-np.log(3.0)] * 3),
    }
    with np.errstate(invalid="ignore"):
        got = _log_softmax(np.array([row for row, _ in rows.values()]))
    for (name, (_, want)), row in zip(rows.items(), got):
        assert np.array_equal(row, want, equal_nan=True), name


def bias_model(logits_row):
    """A linear model on one input whose logits are ``logits_row`` for
    the input 0: zero weights, the row as the bias."""
    k = logits_row.size
    return ul.Model(ul.ArchitectureSpec("linear", 1, k), np.concatenate([np.zeros(k), logits_row]))


@settings(max_examples=200, deadline=None, database=None)
@given(logit_matrices())
def test_the_gradient_takes_its_probabilities_from_softmax(logits):
    # with no target row and weight 1, a one-row batch's bias gradient is
    # p itself: the same bits as _softmax, the one probability path
    for row in logits:
        with np.errstate(all="ignore"):
            _, grad = models._grad(bias_model(row), np.zeros((1, 1)), None, 1.0)
            want = models._softmax(row[np.newaxis])[0]
        assert np.array_equal(_bits(grad[row.size:]), _bits(want))


@settings(max_examples=200, deadline=None, database=None)
@given(logit_matrices(), st.data())
def test_loss_values_are_negated_log_softmax_entries(logits, data):
    # loss values and log-probabilities take one path: a one-row batch's
    # loss is -_log_softmax of its logits, exactly (the batch sum may
    # drop the sign of a zero, which == ignores)
    for row in logits:
        k = row.size
        log_p = _log_softmax(row[np.newaxis])[0]
        assume(np.isfinite(log_p).all())
        y = data.draw(st.integers(1, k))
        q = np.full(k, 1.0 / k)
        model, x = bias_model(row), np.zeros((1, 1))
        with np.errstate(all="ignore"):
            hard, _ = ul.loss_and_grad(model, x, [y], ul.LossSpec("ce_hard"))
            soft, _ = ul.loss_and_grad(model, x, None, ul.LossSpec("ce_soft", soft_target=q))
        assert hard == -log_p[y - 1]
        assert soft == -(log_p * q).sum()


def mixed_rows(rng, kind, k, n, l1_weight):
    """A weighted LossSpec over one first row of ``kind`` and n - 1
    ce_hard rows, the labels, and the rows' one-row specs of the
    standard kinds with their (positive) weights."""
    labels = rng.integers(1, k + 1, size=n)
    targets = np.eye(k)[labels - 1]
    weights = rng.uniform(0.1, 1.0, size=n)
    signed = weights.copy()
    if kind == "kl_to_target":
        targets[0] = rng.dirichlet(np.ones(k))
        parts = [ul.LossSpec("kl_to_target", soft_target=targets[0])]
    else:
        signed[0] = -signed[0]  # ascent on the first row
        parts = [ul.LossSpec("neg_ce_hard")]
    parts += [ul.LossSpec("ce_hard")] * (n - 1)
    spec = ul.LossSpec("kl_to_target" if kind == "kl_to_target" else "ce_soft",
                       soft_target=targets, weights=signed, l1_weight=l1_weight)
    return spec, labels, parts, weights


@pytest.mark.parametrize("kind", ["kl_to_target", "neg_ce_hard"])
@pytest.mark.parametrize("l1_weight", [0.0, 0.01])
def test_the_weighted_loss_on_mixed_rows_matches_finite_differences(kind, l1_weight):
    rng = np.random.default_rng(12)
    for model_kind, act in (("linear", "tanh"), ("mlp1", "tanh"), ("mlp1", "relu")):
        model = random_model(rng, kind=model_kind, d=3, k=3, h=4, activation=act)
        x = rng.normal(size=(4, 3))
        spec, labels, parts, weights = mixed_rows(rng, kind, 3, 4, l1_weight)

        def loss_at(theta):
            return ul.loss_and_grad(model.with_theta(theta), x, None, spec)[0]

        # the loss is the weighted sum of the rows' losses of their kinds
        row_losses = [ul.loss_and_grad(model, x[i : i + 1], labels[i : i + 1], part)[0]
                      for i, part in enumerate(parts)]
        l1 = l1_weight * np.abs(model.theta).sum()
        assert abs(loss_at(model.theta) - (np.dot(weights, row_losses) + l1)) < 1e-12
        # explicit weights keep neg_ce_hard an ascent
        pos = ul.loss_and_grad(model, x, labels, ul.LossSpec("ce_hard", weights=weights))
        neg = ul.loss_and_grad(model, x, labels, ul.LossSpec("neg_ce_hard", weights=weights))
        assert neg[0] == -pos[0] and np.array_equal(neg[1], -pos[1])
        _, grad = ul.loss_and_grad(model, x, None, spec)
        fd = fd_gradient(loss_at, model.theta)
        rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
        assert rel.max() < 1e-6, (model_kind, act, rel.max())


def test_import_leaves_scipy_unloaded():
    code = ("import sys, unlearnlab; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    # import this checkout's package, not whichever one is installed
    src = os.path.dirname(os.path.dirname(ul.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


@settings(max_examples=30, deadline=None, database=None)
@given(kind=st.sampled_from(["linear", "tanh", "relu"]),
       d=st.integers(1, 5), k=st.integers(2, 4), h=st.integers(1, 6),
       batch_size=st.integers(1, 9), epochs=st.integers(1, 3),
       loss_kind=st.sampled_from(["ce_hard", "neg_ce_hard"]),
       l1_weight=st.sampled_from([0.0, 0.01]),
       momentum=st.sampled_from([0.0, 0.9]), seed=st.integers(0, 2**16))
def test_train_is_bitwise_the_public_loop(kind, d, k, h, batch_size, epochs,
                                          loss_kind, l1_weight, momentum, seed):
    # train checks its rows once and calls the gradient core; a loop of
    # the public, per-batch-checked loss_and_grad must give the same bits
    if kind == "linear":
        arch = ul.ArchitectureSpec("linear", d, k)
    else:
        arch = ul.ArchitectureSpec("mlp1", d, k, hidden_dim=h, activation=kind)
    data = ul.generate_gaussian_mixture(
        ul.GenSpec(num_classes=k, input_dim=d, samples_per_class=6, seed=seed))
    indices = np.random.default_rng(seed).permutation(data.num_samples)[: 4 * k]
    model = ul.init_model(arch, seed=seed)
    cfg = ul.TrainConfig(epochs=epochs, batch_size=batch_size, lr=0.05,
                         momentum=momentum, seed=seed)
    spec = ul.LossSpec(loss_kind, l1_weight=l1_weight)

    got = ul.train(model, data, indices, cfg, loss=spec)

    rng = np.random.default_rng(cfg.seed)
    opt = ul.init_opt_state(model, cfg.lr, cfg.momentum)
    want = model
    for _ in range(cfg.epochs):
        shuffled = indices[rng.permutation(indices.size)]
        for start in range(0, shuffled.size, cfg.batch_size):
            batch = shuffled[start : start + cfg.batch_size]
            _, grad = ul.loss_and_grad(want, data.features[batch],
                                       data.labels[batch], spec)
            want, opt = ul.sgd_step(want, grad, opt)
    assert np.array_equal(_bits(got.theta), _bits(want.theta))


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_train_divergence_stops_at_the_step_check(toy):
    model = ul.init_model(
        ul.ArchitectureSpec("mlp1", 4, 3, hidden_dim=16, activation="relu"), seed=5)
    before = model.theta.tobytes()
    cfg = ul.TrainConfig(epochs=2, batch_size=1, lr=1e306, momentum=0.9, seed=0)
    with pytest.raises(ValueError, match="gradient contains non-finite entries"):
        ul.train(model, toy.pool, toy.train_idx, cfg)
    assert model.theta.tobytes() == before


def test_train_checks_every_row_before_the_first_step(toy):
    cfg = ul.TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=0)
    bad_label = toy.pool_with_label_four(toy.train_idx[-1])
    with pytest.raises(ValueError, match=r"labels must lie in \[1, 3\]"):
        ul.train(toy.base, bad_label, toy.train_idx, cfg)
    with pytest.raises(ValueError, match="3 features, model expects 4"):
        ul.train(toy.base, toy.narrow_pool(), toy.train_idx, cfg)


# ------------------------------------------------------------ cache alignment

@pytest.mark.parametrize("dtype", [np.float64, np.bool_])
@pytest.mark.parametrize("shape", [(1,), (3, 5), (65, 256), (11018,)])
def test_aligned_arrays_start_on_a_cache_line(shape, dtype):
    for _ in range(20):
        a = models._aligned(shape, dtype)
        assert a.ctypes.data % 64 == 0
        assert a.shape == shape and a.dtype == dtype
        assert a.flags.c_contiguous and a.flags.writeable


@pytest.mark.parametrize("arch", [
    ul.ArchitectureSpec("linear", 5, 3),
    ul.ArchitectureSpec("mlp1", 5, 3, hidden_dim=7, activation="tanh"),
    ul.ArchitectureSpec("mlp1", 5, 3, hidden_dim=7, activation="relu"),
], ids=["linear", "tanh", "relu"])
def test_every_array_a_step_touches_starts_on_a_cache_line(arch, monkeypatch):
    # 5 features and 7 hidden units: no row is a whole number of cache
    # lines, so a buffer's leading rows are aligned only if it is
    rng = np.random.default_rng(0)
    pool = ul.Dataset(rng.normal(size=(150, 5)), rng.integers(1, 4, size=150), 3)
    real, steps = models._Kernel.step, []

    def checked(kernel, x, *args):
        real(kernel, x, *args)
        assert np.shares_memory(x, kernel.ws.bufs["x"]), "the step's rows are the row buffer"
        arrays = {"theta": kernel.model.theta, "velocity": kernel.velocity,
                  "tmp": kernel.tmp, "grad": kernel.ws.grad, "rows": x, **kernel.ws.bufs}
        steps.append(x.shape[0])
        assert {name: a.ctypes.data % 64 for name, a in arrays.items()} == \
            dict.fromkeys(arrays, 0)

    monkeypatch.setattr(models._Kernel, "step", checked)
    model = ul.init_model(arch, seed=0)
    # 64-row steps and a short last batch of 22, then 1-row steps with L1
    ul.train(model, pool, np.arange(150), ul.TrainConfig(epochs=1, batch_size=64, lr=0.1))
    ul.train(model, pool, np.arange(3), ul.TrainConfig(epochs=1, batch_size=1, lr=0.1),
             loss=ul.LossSpec("ce_hard", l1_weight=0.1))
    assert steps == [64, 64, 22, 1, 1, 1]
    # paired steps: 1 forget row over 64 retain rows, hard and soft targets
    splits = ul.make_splits(pool, pool, 0.1, seed=0)
    for method in ("neggrad_plus", "regun"):
        steps.clear()
        cfg = ul.UnlearnConfig(method, lr=0.1, epochs=1, batch_size=1, retain_batch_size=64)
        ul.unlearn(model, splits, pool, cfg)
        assert steps == [65] * splits.forget.size


# ------------------------------------------------------------------ checkpoint


def test_checkpoint_round_trip(tmp_path, toy):
    path = tmp_path / "model.ckpt"
    ul.save_checkpoint(toy.base, path)
    loaded = ul.load_checkpoint(path)
    assert loaded.arch == toy.base.arch
    assert loaded.init_seed == toy.base.init_seed
    assert np.array_equal(loaded.theta, toy.base.theta)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(ValueError):
        ul.load_checkpoint(path)


def test_checkpoint_rejects_truncated_theta(tmp_path, toy):
    path = tmp_path / "model.ckpt"
    ul.save_checkpoint(toy.base, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ValueError):
        ul.load_checkpoint(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "abc"])
def test_checkpoint_rejects_a_bad_value_naming_its_line(tmp_path, toy, bad):
    path = tmp_path / "model.ckpt"
    ul.save_checkpoint(toy.base, path)
    lines = path.read_text().splitlines()
    lines[11] = bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        ul.load_checkpoint(path)
    assert str(info.value) == f"{path} line 12: expected a finite number, got {bad!r}"


def test_checkpoint_rejects_a_bad_header_value_naming_its_line(tmp_path, toy):
    path = tmp_path / "model.ckpt"
    ul.save_checkpoint(toy.base, path)
    text = path.read_text()
    path.write_text(text.replace("input_dim=", "input_dim=x", 1))
    with pytest.raises(ValueError, match="line 3: expected an integer, got 'x"):
        ul.load_checkpoint(path)


def test_checkpoint_skips_blank_lines_but_still_counts_values(tmp_path, toy):
    path = tmp_path / "model.ckpt"
    ul.save_checkpoint(toy.base, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(["", *lines[:5], "  ", *lines[5:12], ""]
                              + lines[12:]) + "\n\n")
    loaded = ul.load_checkpoint(path)
    assert loaded.arch == toy.base.arch
    assert np.array_equal(loaded.theta.view(np.uint64), toy.base.theta.view(np.uint64))
    path.write_text("\n".join(lines[:-1] + [""]) + "\n")
    with pytest.raises(ValueError, match="parameter count mismatch"):
        ul.load_checkpoint(path)
