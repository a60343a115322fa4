"""Forgetting/utility trade-off curves for the two mixed-objective methods.

Sweeps the retain weight w for the guided unlearner and for the mixed
ascent baseline on a shared run, then prints both curves as text.  The
point of the picture: the ascent baseline collapses test accuracy at low
w while the guided method stays nearly flat, because its forget term
pulls toward the reference prediction instead of away from the labels.
Run: python demos/tradeoff_sweep.py [--small]
"""

import argparse
from dataclasses import replace

import unlearnlab as ul


def bar(value, lo=0.0, hi=100.0, width=40):
    filled = int(round(width * (value - lo) / (hi - lo)))
    return "#" * max(0, min(width, filled))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--small", action="store_true",
                        help="quarter-size task and 5 sweep points")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    cfg = ul.default_config()
    ws = ul.harness.DEFAULT_SWEEP_WS
    if args.small:
        cfg = replace(cfg,
                      gen=replace(cfg.gen, samples_per_class=60),
                      arch=replace(cfg.arch, hidden_dim=128),
                      base=replace(cfg.base, epochs=30),
                      seeds=(0, 1),
                      rmia_refs=2)
        ws = (0.1, 0.3, 0.5, 0.7, 0.9)

    print("running the base experiment once (both sweeps reuse it) ...")
    result = ul.run_experiment(cfg, workers=args.workers)

    curves = {}
    for method in ("regun", "neggrad_plus"):
        print(f"sweeping {method} over w = {[f'{w:g}' for w in ws]}")
        curves[method] = ul.sweep_tradeoff(cfg, method, ws, result=result,
                                           workers=args.workers)

    for method, points in curves.items():
        print(f"\n{method}: test accuracy vs w")
        for p in points:
            print(f"  w={p.w:3.1f}  {p.test_acc_mean:6.2f}  "
                  f"|{bar(p.test_acc_mean):40s}|  rmia {p.rmia_auc_mean:5.2f}")
        accs = [p.test_acc_mean for p in points]
        print(f"  spread (max-min): {max(accs) - min(accs):.2f}")


if __name__ == "__main__":
    main()
