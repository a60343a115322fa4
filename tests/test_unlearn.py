"""Unlearning methods: degeneracies, per-step replication, directional checks."""

import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

import unlearnlab as ul
from unlearnlab import LossSpec, UnlearnConfig
from unlearnlab.unlearn import METHOD_TABLE


def cfg_for(method, toy, **overrides):
    base = dict(method=method, lr=0.05, epochs=1,
                batch_size=toy.splits.forget.size, w=0.5,
                momentum=0.0, seed=11)
    base.update(overrides)
    return UnlearnConfig(**base)


def forget_ce(model, toy):
    idx = toy.splits.forget
    loss, _ = ul.loss_and_grad(model, toy.pool.features[idx],
                               toy.pool.labels[idx], LossSpec("ce_hard"))
    return loss


def paired_step_oracle(model, toy, cfg, forget_loss_builder):
    """Replay one epoch of the paired forget/retain update loop.

    forget_loss_builder(batch_f, rng) -> (features, labels, LossSpec)
    must consume the generator exactly as the method under test does.
    """
    rng = np.random.default_rng(cfg.seed)
    opt = ul.init_opt_state(model, cfg.lr, cfg.momentum)
    retain_bs = cfg.retain_batch_size or cfg.batch_size
    forget = toy.splits.forget
    ce = LossSpec("ce_hard")
    for _ in range(cfg.epochs):
        shuffled = forget[rng.permutation(forget.size)]
        for start in range(0, shuffled.size, cfg.batch_size):
            batch_f = shuffled[start : start + cfg.batch_size]
            batch_r = ul.sample_minibatch(toy.splits.retain, retain_bs, rng)
            fx, fy, fspec = forget_loss_builder(batch_f, rng)
            _, g_f = ul.loss_and_grad(model, fx, fy, fspec)
            _, g_r = ul.loss_and_grad(model, toy.pool.features[batch_r],
                                      toy.pool.labels[batch_r], ce)
            combined = (1.0 - cfg.w) * g_f + cfg.w * g_r
            model, opt = ul.sgd_step(model, combined, opt)
    return model


def fused_step_oracle(model, toy, cfg, forget_loss_builder):
    """The same loop with one public gradient per step, as the methods
    take it: the forget rows stacked over the retain rows in one LossSpec
    of per-row targets and weights, (1 - w) / n_f on forget rows
    (negated for neg_ce_hard) and w / n_r on retain rows."""
    rng = np.random.default_rng(cfg.seed)
    opt = ul.init_opt_state(model, cfg.lr, cfg.momentum)
    retain_bs = cfg.retain_batch_size or cfg.batch_size
    forget = toy.splits.forget
    one_hot = np.eye(toy.pool.num_classes)
    for _ in range(cfg.epochs):
        shuffled = forget[rng.permutation(forget.size)]
        for start in range(0, shuffled.size, cfg.batch_size):
            batch_f = shuffled[start : start + cfg.batch_size]
            batch_r = ul.sample_minibatch(toy.splits.retain, retain_bs, rng)
            fx, fy, fspec = forget_loss_builder(batch_f, rng)
            w_f = (1.0 - cfg.w) / batch_f.size
            if fspec.kind == "neg_ce_hard":
                t_f, w_f = one_hot[fy - 1], -w_f
            else:
                t_f = np.tile(fspec.soft_target, (batch_f.size, 1))
            spec = LossSpec(
                "kl_to_target",
                soft_target=np.vstack([t_f, one_hot[toy.pool.labels[batch_r] - 1]]),
                weights=np.repeat([w_f, cfg.w / batch_r.size], [batch_f.size, batch_r.size]))
            _, grad = ul.loss_and_grad(
                model, np.vstack([fx, toy.pool.features[batch_r]]), None, spec)
            model, opt = ul.sgd_step(model, grad, opt)
    return model


def regun_loss_builder(toy, cfg, reference):
    def build(batch_f, rng):
        q = ul.build_refdist(toy.pool.labels[batch_f], toy.pool,
                             toy.splits.held_out, reference,
                             ul.RefDistConfig(num_matched=cfg.num_matched),
                             rng=rng)
        return toy.pool.features[batch_f], None, LossSpec(
            "kl_to_target", soft_target=q)
    return build


def neg_loss_builder(toy):
    def build(batch_f, rng):
        return (toy.pool.features[batch_f], toy.pool.labels[batch_f],
                LossSpec("neg_ce_hard"))
    return build


# --------------------------------------------------------------- degeneracies


@pytest.mark.parametrize("method", ul.METHODS)
def test_zero_epochs_is_identity(method, toy):
    cfg = cfg_for(method, toy, epochs=0)
    out = ul.unlearn(toy.base, toy.splits, toy.pool, cfg)
    assert np.array_equal(out.theta, toy.base.theta)


def test_l1_zero_gamma_is_exactly_finetune(toy):
    kw = dict(lr=0.05, epochs=2, batch_size=16, momentum=0.9, seed=5)
    sparse = ul.l1_sparse(toy.base, toy.splits, toy.pool,
                          UnlearnConfig(method="l1_sparse", gamma=0.0, **kw))
    tuned = ul.finetune(toy.base, toy.splits, toy.pool,
                        UnlearnConfig(method="finetune", **kw))
    assert np.array_equal(sparse.theta, tuned.theta)


def test_regun_w_one_is_pure_retain_descent(toy):
    # w = 1 zeroes the forget term; each step must equal the retain-only
    # cross-entropy step built from the identically consumed generator
    cfg = cfg_for("regun", toy, w=1.0, epochs=2, momentum=0.9)
    got = ul.regun(toy.base, toy.splits, toy.pool, cfg)
    builder = regun_loss_builder(toy, cfg, toy.base)
    want = paired_step_oracle(toy.base, toy, cfg, builder)
    assert np.array_equal(got.theta, want.theta)


def test_neggrad_plus_w_extremes(toy):
    for w in (0.0, 1.0):
        cfg = cfg_for("neggrad_plus", toy, w=w, epochs=2, momentum=0.9)
        got = ul.neggrad_plus(toy.base, toy.splits, toy.pool, cfg)
        want = paired_step_oracle(toy.base, toy, cfg, neg_loss_builder(toy))
        assert np.array_equal(got.theta, want.theta), w


# --------------------------------------------------------- step replication


def test_neggrad_is_two_epoch_ascent(toy):
    cfg = cfg_for("neggrad", toy, epochs=7, momentum=0.9, batch_size=8)
    got = ul.neggrad(toy.base, toy.splits, toy.pool, cfg)
    # budget in the config is ignored: always exactly two epochs
    tc = ul.TrainConfig(epochs=2, batch_size=8, lr=cfg.lr,
                        momentum=0.9, seed=cfg.seed)
    want = ul.train(toy.base, toy.pool, toy.splits.forget, tc,
                    loss=LossSpec("neg_ce_hard"))
    assert np.array_equal(got.theta, want.theta)


def test_neggrad_single_batch_moves_up_the_gradient(toy):
    # full-batch, zero momentum: theta_1 = theta_0 + lr * grad_ce(theta_0)
    cfg = cfg_for("neggrad", toy, lr=0.01)
    got = ul.neggrad(toy.base, toy.splits, toy.pool, cfg)
    idx = toy.splits.forget
    spec = LossSpec("ce_hard")
    _, g0 = ul.loss_and_grad(toy.base, toy.pool.features[idx],
                             toy.pool.labels[idx], spec)
    theta1 = toy.base.theta + 0.01 * g0
    _, g1 = ul.loss_and_grad(toy.base.with_theta(theta1),
                             toy.pool.features[idx], toy.pool.labels[idx], spec)
    theta2 = theta1 + 0.01 * g1
    assert np.allclose(got.theta, theta2, atol=1e-12)


def test_neggrad_increases_forget_loss(toy):
    cfg = cfg_for("neggrad", toy, lr=0.01, batch_size=8)
    out = ul.neggrad(toy.base, toy.splits, toy.pool, cfg)
    assert forget_ce(out, toy) > forget_ce(toy.base, toy)


def test_regun_matches_paired_oracle_exactly(toy):
    cfg = cfg_for("regun", toy, w=0.4, epochs=3, batch_size=8,
                  momentum=0.9, num_matched=8)
    got = ul.regun(toy.base, toy.splits, toy.pool, cfg)
    builder = regun_loss_builder(toy, cfg, toy.base)
    want = fused_step_oracle(toy.base, toy, cfg, builder)
    assert np.array_equal(got.theta, want.theta)


def test_neggrad_plus_matches_paired_oracle_exactly(toy):
    cfg = cfg_for("neggrad_plus", toy, w=0.5, epochs=3, batch_size=4,
                  momentum=0.9, retain_batch_size=12)
    got = ul.neggrad_plus(toy.base, toy.splits, toy.pool, cfg)
    want = fused_step_oracle(toy.base, toy, cfg, neg_loss_builder(toy))
    assert np.array_equal(got.theta, want.theta)


# One fused gradient rounds differently from the two-pass combine
# (1 - w) * g_f + w * g_r; on these runs theta stays within 1e-12.
@pytest.mark.parametrize("method", ["regun", "neggrad_plus"])
def test_the_paired_methods_stay_within_rounding_of_the_two_pass_loop(method, toy):
    cfg = cfg_for(method, toy, w=0.4, epochs=3, batch_size=4, momentum=0.9,
                  retain_batch_size=12)
    builder = (regun_loss_builder(toy, cfg, toy.base) if method == "regun"
               else neg_loss_builder(toy))
    got = ul.unlearn(toy.base, toy.splits, toy.pool, cfg)
    want = paired_step_oracle(toy.base, toy, cfg, builder)
    np.testing.assert_allclose(got.theta, want.theta, rtol=0.0, atol=1e-12)


def test_regun_first_order_loss_drop(toy):
    # tiny step, pure forget term: the KL objective must fall by about
    # lr * ||grad||^2 (first-order Taylor)
    lr = 1e-4
    cfg = cfg_for("regun", toy, lr=lr, w=0.0)
    rng = np.random.default_rng(cfg.seed)
    forget = toy.splits.forget
    shuffled = forget[rng.permutation(forget.size)]
    ul.sample_minibatch(toy.splits.retain, cfg.batch_size, rng)
    q = ul.build_refdist(toy.pool.labels[shuffled], toy.pool,
                         toy.splits.held_out, toy.base,
                         ul.RefDistConfig(), rng=rng)
    spec = LossSpec("kl_to_target", soft_target=q)
    x = toy.pool.features[shuffled]
    loss0, grad = ul.loss_and_grad(toy.base, x, None, spec)
    stepped = ul.regun(toy.base, toy.splits, toy.pool, cfg)
    loss1, _ = ul.loss_and_grad(stepped, x, None, spec)
    drop = loss0 - loss1
    predicted = lr * float(grad @ grad)
    assert abs(drop - predicted) < 0.1 * predicted


# ----------------------------------------------------------- method behavior


def test_finetune_is_retain_training(toy):
    cfg = cfg_for("finetune", toy, epochs=2, batch_size=16, momentum=0.9)
    got = ul.finetune(toy.base, toy.splits, toy.pool, cfg)
    want = ul.train(toy.base, toy.pool, toy.splits.retain, cfg.train_config())
    assert np.array_equal(got.theta, want.theta)
    before = ul.accuracy(toy.base, toy.pool, indices=toy.splits.retain)
    after = ul.accuracy(got, toy.pool, indices=toy.splits.retain)
    assert after >= before - 1.0


def test_l1_shrinks_parameter_norm(toy):
    cfg = UnlearnConfig(method="l1_sparse", lr=0.05, epochs=5, batch_size=16,
                        momentum=0.9, gamma=10.0, seed=5)
    out = ul.l1_sparse(toy.base, toy.splits, toy.pool, cfg)
    assert np.abs(out.theta).sum() < np.abs(toy.base.theta).sum()


def test_regun_reads_forget_labels_only_through_the_histogram(toy):
    # permuting labels inside the forget set leaves every full-set batch
    # histogram unchanged, so the run must be bit-identical
    cfg = cfg_for("regun", toy, epochs=2, w=0.5)
    rng = np.random.default_rng(3)
    forget = toy.splits.forget
    new_labels = toy.pool.labels.copy()
    new_labels[forget] = rng.permutation(new_labels[forget])
    assert not np.array_equal(new_labels, toy.pool.labels)
    shuffled_pool = ul.Dataset(toy.pool.features, new_labels,
                               toy.pool.num_classes)
    a = ul.regun(toy.base, toy.splits, toy.pool, cfg)
    b = ul.regun(toy.base, toy.splits, shuffled_pool, cfg)
    assert np.array_equal(a.theta, b.theta)


def test_regun_reference_defaults_to_incoming_model(toy):
    cfg = cfg_for("regun", toy, epochs=2)
    default = ul.regun(toy.base, toy.splits, toy.pool, cfg)
    explicit = ul.regun(toy.base, toy.splits, toy.pool, cfg,
                        reference=toy.base)
    assert np.array_equal(default.theta, explicit.theta)


def test_regun_accepts_external_reference(toy):
    cfg = cfg_for("regun", toy, epochs=2)
    flat = toy.base.with_theta(np.zeros_like(toy.base.theta))
    out = ul.regun(toy.base, toy.splits, toy.pool, cfg, reference=flat)
    assert np.all(np.isfinite(out.theta))
    default = ul.regun(toy.base, toy.splits, toy.pool, cfg)
    assert not np.array_equal(out.theta, default.theta)


@pytest.mark.parametrize("method", ul.METHODS)
def test_dispatcher_matches_direct_calls(method, toy):
    cfg = cfg_for(method, toy, epochs=1, batch_size=8, momentum=0.9)
    via_dispatch = ul.unlearn(toy.base, toy.splits, toy.pool, cfg)
    fn = getattr(ul, method)
    direct = fn(toy.base, toy.splits, toy.pool, cfg)
    assert np.array_equal(via_dispatch.theta, direct.theta)


def test_unlearn_config_validation():
    ok = dict(method="regun", lr=0.1)
    UnlearnConfig(**ok)
    with pytest.raises(ValueError):
        UnlearnConfig(method="ascent", lr=0.1)
    with pytest.raises(ValueError):
        UnlearnConfig(method="regun", lr=0.0)
    with pytest.raises(ValueError):
        UnlearnConfig(method="regun", lr=0.1, epochs=-1)
    with pytest.raises(ValueError):
        UnlearnConfig(method="regun", lr=0.1, batch_size=0)
    with pytest.raises(ValueError):
        UnlearnConfig(method="regun", lr=0.1, retain_batch_size=0)
    with pytest.raises(ValueError):
        UnlearnConfig(method="regun", lr=0.1, w=1.5)
    with pytest.raises(ValueError):
        UnlearnConfig(method="regun", lr=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        UnlearnConfig(method="regun", lr=0.1, gamma=-0.1)
    with pytest.raises(ValueError):
        UnlearnConfig(method="regun", lr=0.1, num_matched=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field, match", [
    ("lr", "lr must be finite"),
    ("momentum", "momentum must lie in"),
    ("gamma", "gamma must be finite"),
])
def test_unlearn_config_rejects_non_finite_values(field, match, bad):
    knobs = {"lr": 0.1, field: bad}
    with pytest.raises(ValueError, match=match):
        UnlearnConfig(method="l1_sparse", **knobs)


# ------------------------------------------------------------ entry checks


@pytest.mark.parametrize("method", ["regun", "neggrad_plus"])
@pytest.mark.parametrize("split", ["forget", "retain"])
def test_paired_methods_check_every_label_on_entry(method, split, toy):
    # one bad retain row is rarely sampled in a batch-1 epoch, so only a
    # check over the whole index set finds it before the first step
    cfg = cfg_for(method, toy, batch_size=1)
    bad = toy.pool_with_label_four(getattr(toy.splits, split)[0])
    with pytest.raises(ValueError, match=r"labels must lie in \[1, 3\]"):
        ul.unlearn(toy.base, toy.splits, bad, cfg)


@pytest.mark.parametrize("method", ul.METHODS)
@pytest.mark.parametrize("epochs", [0, 1])
def test_every_method_refuses_an_empty_walked_set(method, epochs, toy):
    # the walked set is checked before the zero-budget identity
    split = METHOD_TABLE[method].rows
    assert split == ("retain" if method in ("finetune", "l1_sparse") else "forget")
    splits = replace(toy.splits, **{split: np.array([], dtype=np.int64)})
    with pytest.raises(ValueError, match=f"^{split} index set is empty$"):
        ul.unlearn(toy.base, splits, toy.pool, cfg_for(method, toy, epochs=epochs))


def test_finetune_refuses_a_negative_retain_row(toy):
    # -1 would silently wrap to the pool's last row
    splits = replace(toy.splits, retain=np.append(toy.splits.retain, -1))
    n = toy.pool.num_samples
    with pytest.raises(ValueError, match=f"^row index -1 is outside the data's {n} rows$"):
        ul.finetune(toy.base, splits, toy.pool, cfg_for("finetune", toy))


@pytest.mark.parametrize("method", ["regun", "neggrad_plus"])
def test_paired_methods_check_feature_width(method, toy):
    cfg = cfg_for(method, toy)
    with pytest.raises(ValueError, match="3 features, model expects 4"):
        ul.unlearn(toy.base, toy.splits, toy.narrow_pool(), cfg)


def test_regun_names_a_reference_of_another_width(toy):
    # a reference passed by the caller goes through the same input
    # checks as any forward, so a width mismatch names both widths
    wide = ul.init_model(ul.ArchitectureSpec("linear", 5, 3), seed=1)
    cfg = cfg_for("regun", toy)
    with pytest.raises(ValueError, match="4 features, model expects 5"):
        ul.regun(toy.base, toy.splits, toy.pool, cfg, reference=wide)


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_neggrad_plus_divergence_still_stops_at_the_step_check(toy):
    arch = ul.ArchitectureSpec("mlp1", 4, 3, hidden_dim=16, activation="relu")
    model = ul.init_model(arch, seed=5)
    cfg = cfg_for("neggrad_plus", toy, lr=1e306, batch_size=1, epochs=2,
                  momentum=0.9)
    with pytest.raises(ValueError, match="gradient contains non-finite entries"):
        ul.neggrad_plus(model, toy.splits, toy.pool, cfg)


# ----------------------------------------------------------- method table


AXIS_CHANGES = {"w": (0.5, 0.9), "gamma": (0.0, 0.01)}


@pytest.mark.parametrize("method", ul.METHODS)
@pytest.mark.parametrize("axis", sorted(AXIS_CHANGES))
def test_a_method_reads_exactly_the_axes_its_record_lists(method, axis, toy):
    # an axis the record lists moves theta; any other leaves every bit
    thetas = [
        ul.unlearn(toy.base, toy.splits, toy.pool,
                   cfg_for(method, toy, epochs=1, batch_size=8, momentum=0.9,
                           **{axis: value})).theta
        for value in AXIS_CHANGES[axis]
    ]
    listed = axis in METHOD_TABLE[method].axes
    assert np.array_equal(*thetas) != listed


def test_w_methods_are_the_records_listing_w():
    assert ul.harness.W_METHODS == tuple(
        m for m in ul.METHODS if "w" in METHOD_TABLE[m].axes)
    assert ul.harness.W_METHODS == ("regun", "neggrad_plus")
    assert tuple(METHOD_TABLE) == ul.METHODS


@pytest.mark.parametrize("spoil, match", [
    (lambda q: q * 2.0, "soft_target must sum to 1"),
    (lambda q: q + np.arange(q.size) - np.arange(q.size).mean(),
     "soft_target must be a 1-d distribution"),
    (lambda q: np.full_like(q, np.nan), "must be a 1-d distribution"),
])
def test_regun_checks_its_planned_targets_before_the_first_step(
        toy, monkeypatch, spoil, match):
    # the third planned target is no distribution: the plan is refused
    # with LossSpec's message before any step
    unlearn_module = importlib.import_module("unlearnlab.unlearn")
    real, drawn, steps = unlearn_module.build_refdist, [], []

    def spoilt(*args, **kwargs):
        q = real(*args, **kwargs)
        drawn.append(q)
        return spoil(q) if len(drawn) == 3 else q

    real_step = unlearn_module._Kernel.step

    def counted(*args):
        steps.append(1)
        return real_step(*args)

    monkeypatch.setattr(unlearn_module, "build_refdist", spoilt)
    monkeypatch.setattr(unlearn_module._Kernel, "step", counted)
    cfg = cfg_for("regun", toy, epochs=2, batch_size=4, num_matched=8)
    with pytest.raises(ValueError, match=match):
        ul.regun(toy.base, toy.splits, toy.pool, cfg)
    assert len(drawn) > 3 and steps == []
