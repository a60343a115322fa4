"""Golden digests of the report files: a run's bytes, pinned.

Each entry is the SHA-256 of one report file written by one small run.
Determinism tests compare a run with a rerun; these compare it with the
bytes recorded here, so a change that moves any reported bit, column or
row fails until the table is updated on purpose, old -> new stated with
the change.  Recorded with numpy 2.4.6's bundled OpenBLAS 0.3.31 on
x86-64; another BLAS build may round differently, so a mismatch prints
the new digests and the BLAS build.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

import unlearnlab as ul

GOLDEN = {
    "default": {  # default_config(), seeds (0, 1, 2), through test_acceptance's full_run
        "metrics.csv": "0f393231209716f69c8137259d0880a9130ea64242079c35d9bc8a55bd5aaf12",
        "aggregated.csv": "f9bc0c732b71bc0238a5d24dda914f769c291cdd6f707eeeda7a56d09e7118b5",
        "manifest.json": "d812d13576a622fd31c1c14c9fbd4842bd50b545e9ddecca17c208661102d3ea",
    },
    "mlp1-tanh": {  # serial and workers=2
        "metrics.csv": "2c70da704b646a5cb564219921b15edbef7eeee350a1c3b7f02fd8db7ecd4dc5",
        "aggregated.csv": "47a699d44982ad79c9d44b7fc67f081f3b76f24c3de3b5ca02093ad833c4d377",
        "manifest.json": "573fc2065413538866ecbd4cabc4b8396d86e7ea18d4aa7a3500b586b1e98afa",
    },
    "mlp1-relu": {
        "metrics.csv": "4c12ae2808cb7da742d8147ceca0632f00832ecb08d91e72fd91774126fecfc3",
        "aggregated.csv": "ed5cfae80872a8b5ce1acb7b617bc28cff0de1751435d5d67c382446540a5214",
        "manifest.json": "8a1a6f1c421404e2dd9245c47e0b3dd72c677d3681a850940f3539540d5e3922",
    },
    "linear": {
        "metrics.csv": "03d32403e13d77e8a46b9c2cbff8e24649f558547097d40015ee928bde51e9c2",
        "aggregated.csv": "1970042f24069310070ecc180e027dd91b5ec151d3209193ec42b42fae1c8319",
        "manifest.json": "75613bf29f44c74c3584c68974e10730a1b57be380e6ea6688511450f46f7d2f",
    },
    "csv": {  # mlp1-tanh on CSV files of two generator draws
        "metrics.csv": "5c58cfd738d7df5bb73c21345085691aa80c2f337bf27c5c7c0134dc916cbffe",
        "aggregated.csv": "04a40b192d1d69c3d429964e4ef37ebb388bf41b003e34e7abde79c8a0cb70c4",
        "manifest.json": "d461940c932bc77182b02033dc57fc40cd752e8505eda20e5c27362571746ff0",
    },
    "sweep": {  # regun over w (0.3, 0.7), anchored on the mlp1-tanh run
        "sweep.csv": "04e331f33fdf9835c8b048590063bbe81ea4590c12148d3c3e4f4321c635df0e",
    },
    "sweep-reuse": {  # regun over w (0.5, 0.7): 0.5 is a point of the run's grid
        "sweep.csv": "9543a80794ed4bc57a6d2297545845b0374a8c73196367f0db28e20b475507cb",
    },
}

# The tiny runs: tiny_cfg's shapes with every method, over three seeds.
ARCHS = {
    "mlp1-tanh": dict(kind="mlp1", hidden_dim=8, activation="tanh"),
    "mlp1-relu": dict(kind="mlp1", hidden_dim=8, activation="relu"),
    "linear": dict(kind="linear", hidden_dim=0),
}


def blas_build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}"


def check_digests(out_dir, key, names=("metrics.csv", "aggregated.csv", "manifest.json")):
    got = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
           for name in names}
    want = {name: GOLDEN[key][name] for name in names}
    assert got == want, (f"{key}: report bytes moved; new digests "
                         f"{json.dumps(got, indent=1)} (BLAS: {blas_build()})")


def golden_cfg(tiny_cfg, arch):
    methods = {
        "regun": ul.MethodGrid(lrs=(0.05,), ws=(0.5, 0.9), batch_size=4),
        "neggrad": ul.MethodGrid(lrs=(0.01,)),
        "neggrad_plus": ul.MethodGrid(lrs=(0.05,), ws=(0.5, 0.9), batch_size=4),
        "finetune": ul.MethodGrid(lrs=(0.05,)),
        "l1_sparse": ul.MethodGrid(lrs=(0.05,), gammas=(1e-3,)),
    }
    return replace(tiny_cfg, arch=replace(tiny_cfg.arch, **ARCHS[arch]),
                   methods=methods, seeds=(5, 6, 7))


@pytest.fixture(scope="module")
def tanh_run(tiny_cfg):
    return ul.run_experiment(golden_cfg(tiny_cfg, "mlp1-tanh"))


@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_a_tiny_run_writes_its_golden_bytes(arch, tiny_cfg, tanh_run, tmp_path):
    cfg = golden_cfg(tiny_cfg, arch)
    ul.write_report(tanh_run if arch == "mlp1-tanh" else ul.run_experiment(cfg), tmp_path)
    check_digests(tmp_path, arch)


def test_a_pooled_tiny_run_writes_the_serial_golden_bytes(tiny_cfg, tmp_path):
    ul.write_report(ul.run_experiment(golden_cfg(tiny_cfg, "mlp1-tanh"), workers=2), tmp_path)
    check_digests(tmp_path, "mlp1-tanh")


def test_a_csv_source_run_writes_its_golden_bytes(tiny_cfg, tmp_path, monkeypatch):
    # relative paths, so the manifest's data keys do not name tmp_path
    monkeypatch.chdir(tmp_path)
    cfg = golden_cfg(tiny_cfg, "mlp1-tanh")
    for name, seed in (("pool", 5), ("test", 6)):
        ul.write_csv(ul.generate_gaussian_mixture(replace(cfg.gen, seed=seed)), f"{name}.csv")
    cfg = replace(cfg, gen=None, pool_csv="pool.csv", test_csv="test.csv")
    ul.write_report(ul.run_experiment(cfg), tmp_path / "out")
    check_digests(tmp_path / "out", "csv")


@pytest.mark.parametrize("ws, key", [pytest.param((0.3, 0.7), "sweep", id="sweep"),
                                     pytest.param((0.5, 0.7), "sweep-reuse", id="sweep-reuse")])
def test_a_sweep_writes_its_golden_bytes(tiny_cfg, tanh_run, tmp_path, ws, key):
    # a point taken from the run's grid writes the bytes of one scored again
    cfg = golden_cfg(tiny_cfg, "mlp1-tanh")
    points = ul.sweep_tradeoff(cfg, "regun", ws, result=tanh_run)
    ul.write_report(tanh_run, tmp_path, sweep_points=points)
    check_digests(tmp_path, key, ("sweep.csv",))
