"""evaluate_model against the public metric functions it must agree with."""

import pickle
import sys
import tracemalloc
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

import unlearnlab as ul
from unlearnlab import harness
from unlearnlab.models import _log_softmax, _row_blocks, _softmax


@pytest.fixture(scope="module")
def ctx(tiny_cfg):
    return ul.prepare_seed(tiny_cfg, 0)


@pytest.fixture(scope="module")
def models(tiny_cfg, ctx):
    ucfg = harness.method_grid_configs(tiny_cfg, "finetune", ctx.seed)[0]
    tuned = ul.unlearn(ctx.base_model, ctx.splits, ctx.pool, ucfg)
    return {"base": ctx.base_model, "retrain": ctx.retrain_model,
            "finetune": tuned}


@pytest.fixture
def forwarded(monkeypatch):
    """The models passed to forward_logits while the test runs, whichever
    unlearnlab namespace the call went through."""
    calls = []
    real = ul.models.forward_logits

    def counting(model, x):
        calls.append(model)
        return real(model, x)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "unlearnlab" and vars(mod).get("forward_logits") is real:
            monkeypatch.setattr(mod, "forward_logits", counting)
    return calls


def public_report(name, model, ctx):
    """The report spelled out with the public per-metric functions."""
    pool, s = ctx.pool, ctx.splits
    oracle, refs = ctx.retrain_model, ctx.references
    smia = ul.AttackScores(ul.smia_scores(model, pool, s.forget),
                           ul.smia_scores(model, s.test))
    rmia = ul.AttackScores(ul.rmia_lite_scores(model, refs, pool, s.forget),
                           ul.rmia_lite_scores(model, refs, s.test))
    return ul.MetricsReport(
        method=name, seed=ctx.seed, w=None,
        retain_acc=ul.accuracy(model, pool, s.retain),
        forget_acc=ul.accuracy(model, pool, s.forget),
        test_acc=ul.accuracy(model, s.test),
        val_acc=ul.accuracy(model, pool, s.validation),
        retain_div=ul.js_divergence_avg(model, oracle, pool, s.retain),
        test_div=ul.js_divergence_avg(model, oracle, s.test),
        rmia_auc=ul.attack_auc(rmia),
        smia_auc=ul.attack_auc(smia),
    )


@pytest.mark.parametrize("name", ["base", "retrain", "finetune"])
def test_every_field_equals_the_public_metric_functions(ctx, models, name):
    got = ul.evaluate_model(name, models[name], ctx)
    assert asdict(got) == asdict(public_report(name, models[name], ctx))


def test_a_pickled_context_carries_its_predictions(ctx, models, forwarded):
    back = pickle.loads(pickle.dumps(ctx))
    assert forwarded == []  # unpickling recomputes nothing
    for name, model in models.items():
        assert ul.evaluate_model(name, model, back) == ul.evaluate_model(name, model, ctx)


def test_a_context_without_references_cannot_evaluate(tiny_cfg):
    bare = ul.prepare_seed(tiny_cfg, 0, with_references=False)
    assert bare.ref_means is None
    with pytest.raises(ValueError, match="need at least one reference model"):
        ul.evaluate_model("base", bare.base_model, bare)


@pytest.mark.parametrize("name", ["base", "retrain", "finetune"])
def test_only_the_evaluated_model_is_forwarded_once_per_split(ctx, models,
                                                              forwarded, name):
    ul.evaluate_model(name, models[name], ctx)
    assert len(forwarded) == 4
    assert all(m is models[name] for m in forwarded)


def test_building_a_context_forwards_the_oracle_and_each_reference(tiny_cfg, forwarded):
    built = ul.prepare_seed(tiny_cfg, 0)
    # the oracle on retain and test, every reference on forget and test,
    # the base model never
    assert Counter(map(id, forwarded)) == Counter(
        [id(built.retrain_model)] * 2 + [id(ref) for ref in built.references] * 2)


@pytest.mark.parametrize("arch", [
    ul.ArchitectureSpec("mlp1", 4, 2, hidden_dim=8),
    ul.ArchitectureSpec("mlp1", 4, 5, hidden_dim=8),
    ul.ArchitectureSpec("mlp1", 6, 3, hidden_dim=8),
])
def test_a_model_of_another_shape_is_rejected_before_any_forward(ctx, arch,
                                                                  forwarded):
    model = ul.init_model(arch, seed=0)
    with pytest.raises(ValueError) as err:
        ul.evaluate_model("odd", model, ctx)
    msg = str(err.value)
    assert (f"input_dim {arch.input_dim} and num_classes {arch.num_classes}" in msg
            and "input_dim 4 and num_classes 3" in msg)
    assert forwarded == []


def overflowing(model):
    """``model`` with hidden unit 0 at exactly sign(first feature) and
    output weight and bias 1e308 from it to class 1, so class 1's logit
    overflows to inf on every row whose first feature is positive and
    is 0 on the others."""
    broken = model.with_theta(model.theta.copy())
    (w1, b1), (w2, b2) = ul.models.unpack_params(broken)
    w1[...], b1[...], w2[...], b2[...] = 0.0, 0.0, 0.0, 0.0
    w1[0, 0], w2[0, 0], b2[0] = 1e6, 1e308, 1e308
    return broken


def test_non_finite_logits_name_the_model_split_and_row_count(ctx):
    broken = overflowing(ctx.base_model)
    retain = ctx.splits.retain
    bad = int(np.count_nonzero(ctx.pool.features[retain, 0] > 0.0))
    assert 0 < bad < retain.size
    with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
        ul.evaluate_model("broken", broken, ctx)
    assert str(err.value) == (f"model 'broken' gives non-finite logits on {bad} of "
                              f"{retain.size} retain rows")


def test_a_diverged_grid_point_fails_at_its_evaluate_stage(tiny_cfg, ctx, monkeypatch):
    unlearn_module = sys.modules["unlearnlab.unlearn"]
    monkeypatch.setattr(unlearn_module, "_run", lambda _, base, *__: overflowing(base))
    ucfg = harness.method_grid_configs(tiny_cfg, "finetune", ctx.seed)[0]
    with harness._mapper(1, tiny_cfg), np.errstate(over="ignore"):
        [failure] = harness._score_unit(ctx, [ucfg])
    assert failure.stage == "evaluate:finetune"
    assert failure.error.startswith(
        "ValueError: model 'finetune' gives non-finite logits on ")


# ------------------------------------------------------ block-wise scoring


@pytest.fixture(scope="module")
def wide_ctx(tiny_cfg):
    """A tiny-architecture seed whose retain (1,215 rows) and test (1,800
    rows) splits are scored in five and eight blocks."""
    cfg = replace(tiny_cfg, gen=replace(tiny_cfg.gen, samples_per_class=600),
                  base=replace(tiny_cfg.base, epochs=1), rmia_refs=1)
    return ul.prepare_seed(cfg, 0)


def test_block_wise_scoring_equals_the_public_metric_functions(wide_ctx):
    s = wide_ctx.splits
    assert len(_row_blocks(s.retain.size)) == 5 and len(_row_blocks(s.test.num_samples)) == 8
    for name, model in (("base", wide_ctx.base_model), ("retrain", wide_ctx.retrain_model)):
        got = ul.evaluate_model(name, model, wide_ctx)
        assert asdict(got) == asdict(public_report(name, model, wide_ctx))


def test_non_finite_rows_are_counted_over_every_block(wide_ctx):
    broken = overflowing(wide_ctx.base_model)
    retain = wide_ctx.splits.retain
    positive = wide_ctx.pool.features[retain, 0] > 0.0
    assert all(0 < np.count_nonzero(positive[rows]) < rows.stop - rows.start
               for rows in _row_blocks(retain.size))
    with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
        ul.evaluate_model("broken", broken, wide_ctx)
    assert str(err.value) == (f"model 'broken' gives non-finite logits on "
                              f"{np.count_nonzero(positive)} of {retain.size} retain rows")


def traced_peak(fn) -> int:
    """Bytes ``fn()`` allocates at its peak beyond what it starts with."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scoring_memory_is_bounded_by_a_block_not_the_split():
    # a narrow model, so the split-sized temporaries, not the hidden
    # layer, would set the whole-split peak
    arch = ul.ArchitectureSpec("mlp1", 32, 10, hidden_dim=16)
    pool = ul.generate_gaussian_mixture(ul.GenSpec(10, 32, 120, seed=1))
    test = ul.generate_gaussian_mixture(ul.GenSpec(10, 32, 600, seed=2))
    splits = ul.make_splits(pool, test, 0.1, seed=0)
    model, oracle = ul.init_model(arch, seed=0), ul.init_model(arch, seed=1)
    oracle_probs = {"retain": ul.forward_probs(oracle, pool.features[splits.retain]),
                    "test": ul.forward_probs(oracle, test.features)}
    ref_means = {"forget": np.full(splits.forget.size, 0.1),
                 "test": np.full(test.num_samples, 0.1)}
    ctx = harness.SeedContext(0, pool, splits, model, oracle, (oracle,),
                              oracle_probs, ref_means)

    def whole_split():
        logits = ul.forward_logits(model, test.features)
        probs = _softmax(logits)
        return _log_softmax(logits), ul.js_divergence(probs, oracle_probs["test"])

    whole = traced_peak(whole_split)
    blocked = traced_peak(lambda: ul.evaluate_model("m", model, ctx))
    assert test.num_samples == 6000 and blocked < whole / 2
