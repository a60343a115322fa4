"""Acceptance gate: nine checks, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Every expected value is produced by an independently written oracle in
this file, asserted at the stated tolerance, and timed against the
stated budget.
"""

import math
import time

import numpy as np
import pytest

import unlearnlab as ul
from test_report_digests import check_digests
from unlearnlab.harness import DEFAULT_SWEEP_WS


def verdict(label, ok, detail=""):
    line = f"{label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ------------------------------------------------------------------------
# 1. analytic gradients vs central finite differences of an independent
#    loss evaluator, 100 random draws, per-coordinate relative error


def naive_forward_log_probs(arch, theta, x):
    """Forward pass written from the layout definition, no package code."""
    d, k, h = arch.input_dim, arch.num_classes, arch.hidden_dim
    if arch.kind == "linear":
        w = theta[: k * d].reshape(k, d)
        b = theta[k * d :]
        z = x @ w.T + b
    else:
        o1, o2, o3 = h * d, h * d + h, h * d + h + k * h
        w1 = theta[:o1].reshape(h, d)
        b1 = theta[o1:o2]
        w2 = theta[o2:o3].reshape(k, h)
        b2 = theta[o3:]
        pre = x @ w1.T + b1
        act = np.tanh(pre) if arch.activation == "tanh" else np.maximum(pre, 0.0)
        z = act @ w2.T + b2
    zmax = z.max(axis=1, keepdims=True)
    return z - zmax - np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))


def naive_loss(arch, theta, x, y, kind, q, gamma):
    log_p = naive_forward_log_probs(arch, theta, x)
    n = x.shape[0]
    if kind == "ce_hard":
        val = -log_p[np.arange(n), y - 1].mean()
    elif kind == "neg_ce_hard":
        val = log_p[np.arange(n), y - 1].mean()
    elif kind == "ce_soft":
        val = -(q * log_p).sum(axis=1).mean()
    else:  # kl_to_target
        pos = q > 0
        val = ((q[pos] * np.log(q[pos])).sum() - (q * log_p)[:, pos].sum(axis=1).mean())
    return val + gamma * np.abs(theta).sum()


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        if rng.random() < 0.4:
            arch = ul.ArchitectureSpec("linear", int(rng.integers(2, 6)),
                                       int(rng.integers(2, 5)))
        else:
            arch = ul.ArchitectureSpec(
                "mlp1", int(rng.integers(2, 6)), int(rng.integers(2, 5)),
                hidden_dim=int(rng.integers(3, 7)),
                activation=("tanh", "relu")[int(rng.integers(2))])
        model = ul.init_model(arch, seed=int(rng.integers(1 << 30)))
        theta = rng.normal(scale=0.6, size=model.theta.size)
        n = int(rng.integers(1, 7))
        x = rng.normal(size=(n, arch.input_dim))
        y = rng.integers(1, arch.num_classes + 1, size=n)
        kind = ("ce_hard", "neg_ce_hard", "ce_soft", "kl_to_target")[
            int(rng.integers(4))]
        gamma = float(rng.choice([0.0, 0.01]))
        if gamma > 0.0:
            # the |theta| fold is non-differentiable; central differences
            # only measure the gradient when no coordinate sits within h
            # of zero, so push everything at least 1e-3 away
            theta += 1e-3 * np.where(theta >= 0.0, 1.0, -1.0)
        model = model.with_theta(theta)
        q = rng.dirichlet(np.ones(arch.num_classes))
        soft = kind in ("ce_soft", "kl_to_target")
        spec = ul.LossSpec(kind, soft_target=q if soft else None, l1_weight=gamma)
        _, grad = ul.loss_and_grad(model, x, None if soft else y, spec)

        h = 1e-5
        fd = np.empty_like(grad)
        for i in range(grad.size):
            up, down = model.theta.copy(), model.theta.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (naive_loss(arch, up, x, y, kind, q, gamma)
                     - naive_loss(arch, down, x, y, kind, q, gamma)) / (2 * h)
        rel = np.abs(grad - fd) / np.maximum(
            np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
        worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - start
    verdict("criterion 1 gradient correctness",
            worst <= 1e-6 and elapsed < 30.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# ------------------------------------------------------------------------
# 2. gradient of the target-directed KL equals the soft cross-entropy
#    gradient, 50 random cases


def test_criterion_2_kl_ce_gradient_identity():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        kind = ("linear", "mlp1")[int(rng.integers(2))]
        if kind == "linear":
            arch = ul.ArchitectureSpec("linear", 4, 3)
        else:
            arch = ul.ArchitectureSpec("mlp1", 4, 3, hidden_dim=6,
                                       activation=("tanh", "relu")[int(rng.integers(2))])
        model = ul.init_model(arch, seed=int(rng.integers(1 << 30)))
        model = model.with_theta(rng.normal(scale=0.7, size=model.theta.size))
        x = rng.normal(size=(int(rng.integers(1, 8)), 4))
        q = rng.dirichlet(np.ones(3))
        _, g_kl = ul.loss_and_grad(model, x, None,
                                   ul.LossSpec("kl_to_target", soft_target=q))
        _, g_ce = ul.loss_and_grad(model, x, None,
                                   ul.LossSpec("ce_soft", soft_target=q))
        worst = max(worst, float(np.abs(g_kl - g_ce).max()))
    elapsed = time.monotonic() - start
    verdict("criterion 2 KL/CE gradient identity",
            worst <= 1e-12 and elapsed < 5.0,
            f"worst abs diff {worst:.2e}, {elapsed:.1f}s")


# ------------------------------------------------------------------------
# 3. histogram matching contract over 10^4 random (counts, total, target)


def test_criterion_3_histogram_contract():
    rng = np.random.default_rng(303)
    start = time.monotonic()
    ok = True
    for _ in range(10_000):
        k = int(rng.integers(1, 11))
        counts = rng.integers(0, 21, size=k)
        if counts.sum() == 0:
            counts[int(rng.integers(k))] = int(rng.integers(1, 21))
        b = int(counts.sum())
        m = int(rng.integers(1, 101))
        matched = ul.match_histogram(counts, b, m)
        exact = m * counts / b
        ok = ok and int(matched.sum()) == m
        ok = ok and bool(np.all(np.abs(matched - exact) < 1.0))
        ok = ok and bool(np.all(matched[counts == 0] == 0))
        if not ok:
            break
    elapsed = time.monotonic() - start
    verdict("criterion 3 histogram matching contract",
            ok and elapsed < 5.0, f"{elapsed:.1f}s")


# ------------------------------------------------------------------------
# 4. AUC equals exhaustive pair counting exactly on 500 score-set pairs


def pair_counting_auc(m, n):
    wins = (m[:, None] > n[None, :]).sum()
    ties = (m[:, None] == n[None, :]).sum()
    return 100.0 * (wins + 0.5 * ties) / (m.size * n.size)


def test_criterion_4_auc_oracle_equivalence():
    rng = np.random.default_rng(404)
    start = time.monotonic()
    ok = True
    for trial in range(500):
        nm = int(rng.integers(1, 201))
        nn = int(rng.integers(1, 201))
        if trial % 5 == 0:
            # heavy ties: integer scores from a narrow range
            m = rng.integers(0, 4, size=nm).astype(float)
            n = rng.integers(0, 4, size=nn).astype(float)
        elif trial % 5 == 1:
            # all scores identical across both groups
            m = np.full(nm, 1.5)
            n = np.full(nn, 1.5)
        else:
            m = np.round(rng.normal(size=nm), 1)
            n = np.round(rng.normal(size=nn), 1)
        got = ul.attack_auc(ul.AttackScores(m, n))
        if got != pair_counting_auc(m, n):
            ok = False
            break
    elapsed = time.monotonic() - start
    verdict("criterion 4 AUC equals pair counting",
            ok and elapsed < 10.0, f"{elapsed:.1f}s")


# ------------------------------------------------------------------------
# 5. gap formulas reproduce fixed reference numbers from hand arithmetic


def test_criterion_5_gap_formula_check():
    fill = dict(val_acc=90.0, retain_div=1.0, test_div=1.0, smia_auc=50.0)
    oracle = ul.MetricsReport(method="retrain", seed=0, w=None,
                              retain_acc=100.00, forget_acc=94.22,
                              test_acc=94.34, rmia_auc=49.98, **fill)
    base = ul.MetricsReport(method="base", seed=0, w=None,
                            retain_acc=100.00, forget_acc=100.00,
                            test_acc=94.20, rmia_auc=60.11, **fill)
    gap_rftp, gap_tp = ul.gap_report(base, oracle)
    ok = (abs(gap_tp - 5.135) < 1e-9 and abs(gap_tp - 5.14) <= 0.30
          and abs(gap_rftp - 4.0125) < 1e-9 and abs(gap_rftp - 3.88) <= 0.30)
    verdict("criterion 5 gap formulas vs reference values", ok,
            f"gap_tp {gap_tp:.4f} (ref 5.14), gap_rftp {gap_rftp:.4f} (ref 3.88)")


# ------------------------------------------------------------------------
# 6. degeneracy identities


def test_criterion_6_degeneracies(toy):
    start = time.monotonic()
    results = []

    # zero epoch budget is the identity for every method
    for method in ul.METHODS:
        cfg = ul.UnlearnConfig(method=method, lr=0.05, epochs=0)
        out = ul.unlearn(toy.base, toy.splits, toy.pool, cfg)
        results.append(np.array_equal(out.theta, toy.base.theta))

    # full retain weight degenerates each step to the finetune update
    # computed from the identically consumed generator stream
    cfg = ul.UnlearnConfig(method="regun", lr=0.05, epochs=2,
                           batch_size=toy.splits.forget.size,
                           w=1.0, momentum=0.9, seed=13)
    got = ul.regun(toy.base, toy.splits, toy.pool, cfg)
    rng = np.random.default_rng(cfg.seed)
    model = toy.base
    opt = ul.init_opt_state(model, cfg.lr, cfg.momentum)
    ce = ul.LossSpec("ce_hard")
    for _ in range(cfg.epochs):
        shuffled = toy.splits.forget[rng.permutation(toy.splits.forget.size)]
        batch_r = ul.sample_minibatch(toy.splits.retain, cfg.batch_size, rng)
        ul.build_refdist(toy.pool.labels[shuffled], toy.pool,
                         toy.splits.held_out, toy.base, ul.RefDistConfig(),
                         rng=rng)
        # the finetune per-step rule on the shared stream's retain batch
        _, g_r = ul.loss_and_grad(model, toy.pool.features[batch_r],
                                  toy.pool.labels[batch_r], ce)
        model, opt = ul.sgd_step(model, g_r, opt)
    results.append(np.array_equal(got.theta, model.theta))

    # zero penalty weight makes the sparse method the finetune bitwise
    kw = dict(lr=0.05, epochs=3, batch_size=16, momentum=0.9, seed=7)
    sparse = ul.l1_sparse(toy.base, toy.splits, toy.pool,
                          ul.UnlearnConfig(method="l1_sparse", gamma=0.0, **kw))
    tuned = ul.finetune(toy.base, toy.splits, toy.pool,
                        ul.UnlearnConfig(method="finetune", **kw))
    results.append(np.array_equal(sparse.theta, tuned.theta))

    # the ascent baseline moves up the forget gradient: full batch, zero
    # momentum, so each step is theta + lr * grad and the first step's
    # displacement must align positively with the ascent direction
    cfg = ul.UnlearnConfig(method="neggrad", lr=0.01, momentum=0.0,
                           batch_size=toy.splits.forget.size, seed=3)
    out = ul.neggrad(toy.base, toy.splits, toy.pool, cfg)
    idx = toy.splits.forget
    ce_spec = ul.LossSpec("ce_hard")
    _, g0 = ul.loss_and_grad(toy.base, toy.pool.features[idx],
                             toy.pool.labels[idx], ce_spec)
    theta1 = toy.base.theta + cfg.lr * g0
    _, g1 = ul.loss_and_grad(toy.base.with_theta(theta1),
                             toy.pool.features[idx], toy.pool.labels[idx],
                             ce_spec)
    theta2 = theta1 + cfg.lr * g1
    results.append(bool(np.allclose(out.theta, theta2, atol=1e-12)))
    results.append(float((out.theta - toy.base.theta) @ g0) > 0.0)

    elapsed = time.monotonic() - start
    verdict("criterion 6 degeneracy identities",
            all(results) and elapsed < 30.0,
            f"{sum(results)}/{len(results)} identities, {elapsed:.1f}s")


# ------------------------------------------------------------------------
# 7-9. the calibrated default experiment, shared across the last three
# criteria


@pytest.fixture(scope="module")
def full_run():
    cfg = ul.default_config()
    start = time.monotonic()
    result = ul.run_experiment(cfg)
    return cfg, result, time.monotonic() - start


def agg_by_method(result):
    return {a.method: a for a in result.aggregates}


def test_criterion_7a_base_memorizes(full_run):
    _, result, elapsed = full_run
    base = agg_by_method(result)["base"].stats
    forget = base["forget_acc"][0]
    smia = base["smia_auc"][0]
    rmia = base["rmia_auc"][0]
    verdict("criterion 7a base memorizes",
            forget >= 99.0 and smia >= 60.0 and rmia >= 60.0
            and elapsed < 600.0,
            f"forget {forget:.2f}, smia {smia:.2f}, rmia {rmia:.2f}, "
            f"run {elapsed:.0f}s")


def test_criterion_7b_retrain_is_the_null(full_run):
    _, result, _ = full_run
    rt = agg_by_method(result)["retrain"].stats
    smia, rmia = rt["smia_auc"][0], rt["rmia_auc"][0]
    acc_gap = abs(rt["forget_acc"][0] - rt["test_acc"][0])
    verdict("criterion 7b retrain at chance",
            45.0 <= smia <= 55.0 and 45.0 <= rmia <= 55.0 and acc_gap <= 3.0,
            f"smia {smia:.2f}, rmia {rmia:.2f}, |forget-test| {acc_gap:.2f}")


def test_criterion_7c_guided_method_forgets(full_run):
    _, result, _ = full_run
    aggs = agg_by_method(result)
    rmia = aggs["regun"].stats["rmia_auc"][0]
    test = aggs["regun"].stats["test_acc"][0]
    rt_test = aggs["retrain"].stats["test_acc"][0]
    verdict("criterion 7c guided unlearner forgets",
            abs(rmia - 50.0) <= 5.0 and abs(test - rt_test) <= 5.0,
            f"rmia {rmia:.2f}, test {test:.2f} vs retrain {rt_test:.2f}")


def test_criterion_7d_gap_ordering(full_run):
    _, result, _ = full_run
    aggs = agg_by_method(result)
    g_regun = aggs["regun"].stats["gap_tp"][0]
    g_neg = aggs["neggrad"].stats["gap_tp"][0]
    g_base = aggs["base"].stats["gap_tp"][0]
    verdict("criterion 7d gap-to-oracle ordering",
            g_regun < g_neg and g_regun < g_base,
            f"regun {g_regun:.2f} < neggrad {g_neg:.2f}, base {g_base:.2f}")


def test_criterion_8_sweep_stability(full_run):
    cfg, result, run_elapsed = full_run
    start = time.monotonic()
    spreads = {}
    for method in ("regun", "neggrad_plus"):
        points = ul.sweep_tradeoff(cfg, method, DEFAULT_SWEEP_WS, result=result,
                                   workers=2)
        accs = [p.test_acc_mean for p in points]
        spreads[method] = max(accs) - min(accs)
    elapsed = run_elapsed + (time.monotonic() - start)
    verdict("criterion 8 sweep utility stability",
            spreads["regun"] < spreads["neggrad_plus"] and elapsed < 900.0,
            f"spread regun {spreads['regun']:.2f} < "
            f"neggrad_plus {spreads['neggrad_plus']:.2f}, {elapsed:.0f}s")


def test_criterion_9_determinism(full_run, tmp_path):
    cfg, result, _ = full_run
    again = ul.run_experiment(cfg)
    parallel = ul.run_experiment(cfg, workers=2)
    dirs = {"first": result, "again": again, "parallel": parallel}
    for name, res in dirs.items():
        ul.write_report(res, tmp_path / name)
    ok = True
    for name in ("metrics.csv", "aggregated.csv", "manifest.json"):
        ref = (tmp_path / "first" / name).read_bytes()
        ok = ok and (tmp_path / "again" / name).read_bytes() == ref
        ok = ok and (tmp_path / "parallel" / name).read_bytes() == ref
    verdict("criterion 9 byte-identical reruns", ok,
            "serial rerun and 2-worker run both match")


def test_the_default_run_writes_its_golden_bytes(full_run, tmp_path):
    # not a criterion: the shared run's report files against their
    # recorded digests (see test_report_digests.py)
    _, result, _ = full_run
    ul.write_report(result, tmp_path)
    check_digests(tmp_path, "default")
