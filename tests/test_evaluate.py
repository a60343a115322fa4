"""evaluate_model against the public metric functions it must agree with."""

import pickle
import sys
from collections import Counter
from dataclasses import asdict

import pytest

import unlearnlab as ul
from unlearnlab import harness


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
