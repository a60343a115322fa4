"""Benchmark workloads: the experiment config each one runs.

A workload seed ``s`` becomes the experiment seed tuple ``(s,)``, the run
``unlearnlab run --seed s`` makes.  One experiment seed per repetition keeps
a repetition of the slowest workload at 15-25 s on a 2-core machine; three
seeds per repetition (about 47 s serial and over 100 s with two workers)
would not fit the benchmark's time budget.  ``s = 0`` is the calibrated
default seed.

``FAMILY`` groups workloads that run the same computation, so their
reports must hash identically at the same seed.
"""

from __future__ import annotations

from dataclasses import replace

WORKLOADS = ("default_serial", "default_workers2", "wide_train")

# Used only by selfcheck.py: a pipeline that runs in well under a second.
SELFCHECK = "tiny"

FAMILY = {
    "default_serial": "default",
    "default_workers2": "default",
    "wide_train": "wide_train",
    SELFCHECK: SELFCHECK,
}

WORKERS = {"default_workers2": 2}


def build(name: str, seed: int):
    """The ExperimentConfig and worker count of workload ``name``."""
    import unlearnlab as ul

    if name in ("default_serial", "default_workers2"):
        cfg = replace(ul.default_config(), seeds=(seed,))
    elif name == "wide_train":
        # Batch-64 training and evaluation on a 5x larger pool, with only
        # the methods that make no batch-1 step and no reference pass.
        cfg = ul.default_config()
        cfg = replace(
            cfg,
            gen=replace(cfg.gen, samples_per_class=600),
            base=replace(cfg.base, epochs=20),
            methods={m: cfg.methods[m] for m in ("finetune", "l1_sparse", "neggrad")},
            seeds=(seed,),
        )
    elif name == SELFCHECK:
        arch = ul.ArchitectureSpec("mlp1", 4, 3, hidden_dim=8, activation="tanh")
        gen = ul.GenSpec(num_classes=3, input_dim=4, samples_per_class=20,
                         centroid_scale=3.0, noise_sigma=1.0)
        methods = {
            "regun": ul.MethodGrid(lrs=(0.05,), ws=(0.5, 0.9), batch_size=4),
            "finetune": ul.MethodGrid(lrs=(0.05,)),
        }
        cfg = ul.ExperimentConfig(
            arch=arch, gen=gen, forget_fraction=0.15,
            base=ul.TrainConfig(epochs=5, batch_size=16, lr=0.1),
            unlearn_epochs=2, methods=methods, seeds=(seed, seed + 1),
            rmia_refs=2)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return cfg, WORKERS.get(name, 1)
