"""All five unlearning methods head to head on one seed.

Prepares one seed of the default task at reduced size, runs each method
with hand-picked settings, and prints the metric table next to the base
model and the retrained oracle.  The interesting columns: forget_acc
should drop toward test_acc, the attack AUCs toward 50, and gap_tp
summarizes closeness to the oracle.
"""

import argparse
from dataclasses import replace

import unlearnlab as ul


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cfg = ul.default_config()
    # quarter-size task so the demo finishes in a few seconds
    cfg = replace(cfg,
                  gen=replace(cfg.gen, samples_per_class=60),
                  arch=replace(cfg.arch, hidden_dim=128),
                  base=replace(cfg.base, epochs=30),
                  rmia_refs=2)
    print("preparing seed (base, oracle, attack references) ...")
    ctx = ul.prepare_seed(cfg, args.seed)

    base, retrain = ul.harness.score_base_and_retrain(ctx)
    rows = [base, retrain]

    for method in ul.METHODS:
        ucfg = ul.harness.method_grid_configs(cfg, method, args.seed)[0]
        model = ul.unlearn(ctx.base_model, ctx.splits, ctx.pool, ucfg)
        w = ucfg.w if method in ul.harness.W_METHODS else None
        report = ul.evaluate_model(method, model, ctx, w=w)
        rows.append(ul.with_gaps(report, retrain))

    header = f"{'method':14s} {'retain':>7s} {'forget':>7s} {'test':>7s} " \
             f"{'rmia':>6s} {'smia':>6s} {'gap_tp':>7s}"
    print("\n" + header)
    print("-" * len(header))
    for r in rows:
        print(f"{r.method:14s} {r.retain_acc:7.2f} {r.forget_acc:7.2f} "
              f"{r.test_acc:7.2f} {r.rmia_auc:6.2f} {r.smia_auc:6.2f} "
              f"{r.gap_tp:7.2f}")


if __name__ == "__main__":
    main()
