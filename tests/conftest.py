"""Shared fixtures: a small memorizable task and a fast experiment config."""

import numpy as np
import pytest

import unlearnlab as ul


class ToyTask:
    """A 3-class mixture a 16-unit MLP overfits in a fraction of a second."""

    def __init__(self):
        gen = ul.GenSpec(num_classes=3, input_dim=4, samples_per_class=40,
                         centroid_scale=3.0, noise_sigma=1.0, seed=0)
        self.pool = ul.generate_gaussian_mixture(gen)
        self.test = ul.generate_gaussian_mixture(
            ul.GenSpec(3, 4, 40, 3.0, 1.0, seed=1))
        self.splits = ul.make_splits(self.pool, self.test, 0.15, seed=0)
        self.arch = ul.ArchitectureSpec("mlp1", 4, 3, hidden_dim=16,
                                        activation="tanh")
        self.train_idx = np.sort(
            np.concatenate([self.splits.forget, self.splits.retain]))
        self.base = ul.train(
            ul.init_model(self.arch, seed=7), self.pool, self.train_idx,
            ul.TrainConfig(epochs=30, batch_size=16, lr=0.1, seed=3))

    def pool_with_label_four(self, row):
        """The pool as a 4-class dataset whose only label 4 is at ``row``."""
        labels = self.pool.labels.copy()
        labels[row] = 4
        return ul.Dataset(self.pool.features, labels, 4)

    def narrow_pool(self):
        """The pool without its last feature column."""
        return ul.Dataset(self.pool.features[:, :3], self.pool.labels, 3)


@pytest.fixture(scope="session")
def toy():
    return ToyTask()


@pytest.fixture(scope="session")
def tiny_cfg():
    """A config whose full pipeline runs in well under a second."""
    arch = ul.ArchitectureSpec("mlp1", 4, 3, hidden_dim=8, activation="tanh")
    gen = ul.GenSpec(num_classes=3, input_dim=4, samples_per_class=20,
                     centroid_scale=3.0, noise_sigma=1.0)
    methods = {
        "regun": ul.MethodGrid(lrs=(0.05,), ws=(0.5, 0.9), batch_size=4),
        "finetune": ul.MethodGrid(lrs=(0.05,)),
    }
    return ul.ExperimentConfig(
        arch=arch, gen=gen, forget_fraction=0.15,
        base=ul.TrainConfig(epochs=5, batch_size=16, lr=0.1),
        unlearn_epochs=2, methods=methods, seeds=(0, 1), rmia_refs=2)
