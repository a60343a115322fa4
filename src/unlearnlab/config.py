"""The config document: ExperimentConfig, its method grids, the defaults and their JSON form."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Annotated, get_args, get_origin, get_type_hints

from .data import GenSpec
from .models import ArchitectureSpec, TrainConfig
from .textio import (_EXPECTED, AT_LEAST_0, AT_LEAST_1, DISTINCT, NON_NEGATIVE, OPEN_UNIT,
                     POSITIVE, UNIT, _value, check_fields)
from .unlearn import METHOD_TABLE, METHODS


@dataclass(frozen=True)
class MethodGrid:
    """Hyperparameter grid for one method.

    Only the axes a method actually reads are expanded: lr always, w and
    gamma when its record in METHOD_TABLE lists them.  The remaining
    loader knobs are fixed per method, not swept: ``batch_size`` (None
    means inherit the base training batch size), ``retain_batch_size``
    (methods with a w axis) and ``num_matched`` (regun's reference
    match; None means the per-step forget batch size).
    """

    lrs: Annotated[tuple[Annotated[float, POSITIVE], ...], DISTINCT] = (0.05,)
    ws: Annotated[tuple[Annotated[float, UNIT], ...], DISTINCT] = (0.5,)
    gammas: Annotated[tuple[Annotated[float, NON_NEGATIVE], ...], DISTINCT] = (0.0,)
    batch_size: Annotated[int | None, AT_LEAST_1] = None
    retain_batch_size: Annotated[int | None, AT_LEAST_1] = None
    num_matched: Annotated[int | None, AT_LEAST_1] = None

    def __post_init__(self):
        check_fields(self, "grid ")
        if not self.lrs or not self.ws or not self.gammas:
            raise ValueError("grid axes must be non-empty")


_DEFAULT_GRID = MethodGrid()


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything a full run depends on.

    Data comes either from the Gaussian-mixture generator (``gen``) or
    from CSV files; exactly one source must be set.  ``base`` is the
    training recipe shared by the base model, the retrain oracle, and
    the attack reference models (its seed field is ignored; per-seed
    streams are derived).  Unlearning takes lr / w / gamma and the fixed
    loader knobs from the per-method grids, momentum from ``base``.
    """

    arch: ArchitectureSpec
    gen: GenSpec | None = None
    pool_csv: str | None = None
    test_csv: str | None = None
    csv_header: bool = False
    forget_fraction: Annotated[float, OPEN_UNIT] = 0.1
    base: TrainConfig = TrainConfig(epochs=60, batch_size=64, lr=0.05)
    unlearn_epochs: Annotated[int, AT_LEAST_0] = 10
    methods: dict[str, MethodGrid] = field(default_factory=dict)
    seeds: Annotated[tuple[Annotated[int, AT_LEAST_0], ...], DISTINCT] = (0, 1, 2)
    rmia_refs: Annotated[int, AT_LEAST_1] = 4

    def __post_init__(self):
        check_fields(self)
        if (self.gen is None) == (self.pool_csv is None):
            raise ValueError("configure exactly one of gen or pool_csv")
        if self.pool_csv is not None and self.test_csv is None:
            raise ValueError("CSV data needs both pool_csv and test_csv")
        if self.gen is not None:
            if self.gen.num_classes != self.arch.num_classes:
                raise ValueError("gen and arch disagree on num_classes")
            if self.gen.input_dim != self.arch.input_dim:
                raise ValueError("gen and arch disagree on input_dim")
        if not self.seeds:
            raise ValueError("need at least one seed")
        for name, grid in self.methods.items():
            if name not in METHODS:
                raise ValueError(f"unknown method {name!r} in config")
            if not isinstance(grid, MethodGrid):
                raise ValueError(f"method {name!r} needs a MethodGrid")
            spec = METHOD_TABLE[name]
            for axis in ("w", "gamma"):
                key, default = axis + "s", getattr(_DEFAULT_GRID, axis + "s")
                if axis not in spec.axes and getattr(grid, key) != default:
                    raise ValueError(
                        f"config key methods.{name}.{key}: {name} does not sweep "
                        f"{axis}; leave {key} out or at its default {list(default)}")
            # the loader knobs of the paired loop and of the reference match
            for key, reads in (("retain_batch_size", "w" in spec.axes),
                               ("num_matched", spec.forget_loss == "kl_to_target")):
                if not reads and getattr(grid, key) is not None:
                    raise ValueError(f"config key methods.{name}.{key}: {name} does not "
                                     f"read {key}; leave it out")


def default_config() -> ExperimentConfig:
    """The desk-scale task: a 10-class mixture a small MLP can memorize.

    Calibrated so the base model memorizes its training rows (forget
    accuracy 100, membership AUCs well above chance) while a retrained
    oracle scores at chance, and so reference-guided unlearning can
    close the gap without wrecking test accuracy.  That needs isolated
    training points: few samples per class, a wide hidden layer, and
    moderate class overlap.  The reference-distillation grid uses
    single-row forget batches, which make the matched reference target
    class-conditional instead of a batch-level class mixture; the mixed
    ascent baseline gets the same loader so its forget term sees enough
    steps to matter within the small epoch budget.
    """
    arch = ArchitectureSpec("mlp1", input_dim=32, num_classes=10,
                            hidden_dim=256, activation="tanh")
    gen = GenSpec(num_classes=10, input_dim=32, samples_per_class=120,
                  centroid_scale=3.0, noise_sigma=1.2)
    base = TrainConfig(epochs=40, batch_size=64, lr=0.05)
    methods = {
        "regun": MethodGrid(lrs=(0.01, 0.02), ws=(0.85, 0.9),
                            batch_size=1, num_matched=16,
                            retain_batch_size=64),
        "neggrad": MethodGrid(lrs=(0.002, 0.005, 0.01)),
        "neggrad_plus": MethodGrid(lrs=(0.02, 0.05), ws=(0.85, 0.9, 0.95, 0.99),
                                   batch_size=1, retain_batch_size=64),
        "finetune": MethodGrid(lrs=(0.02, 0.05)),
        "l1_sparse": MethodGrid(lrs=(0.05,), gammas=(5e-5, 5e-4)),
    }
    return ExperimentConfig(arch=arch, gen=gen, base=base, methods=methods)


# A config document holds every dataclass field except those the
# experiment sets itself: per-seed streams come from derive_seed, the
# generator's shape from arch, and the data source from the "data"
# object, whose CSV keys name the fields in _CSV_KEYS.
_DERIVED = {"seed", "gen", "pool_csv", "test_csv", "csv_header"}
_ARCH_FIELDS = {f.name for f in fields(ArchitectureSpec)}
_CSV_KEYS = {"pool": "pool_csv", "test": "test_csv", "header": "csv_header"}


def _config_keys(cls) -> dict:
    """{document key: field name} for the fields of ``cls`` a config holds."""
    skip = _DERIVED if cls is ArchitectureSpec else _DERIVED | _ARCH_FIELDS
    return {f.name: f.name for f in fields(cls) if f.name not in skip}


def _plain(value):
    """A config value as JSON: a dataclass becomes an object of its
    config keys with None knobs left out, a tuple becomes a list."""
    if is_dataclass(value):
        return {k: _plain(getattr(value, k)) for k in _config_keys(type(value))
                if getattr(value, k) is not None}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in sorted(value.items())}
    return list(value) if isinstance(value, tuple) else value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-type mirror of the config, suitable for JSON."""
    if cfg.gen is not None:
        data = {"source": "gaussian", **_plain(cfg.gen)}
    else:
        data = {"source": "csv",
                **{k: getattr(cfg, f) for k, f in _CSV_KEYS.items()}}
    return {**_plain(cfg), "data": data}


def _read(cls, doc: dict, defaults, path: str, keys=None) -> dict:
    """Keyword arguments for ``cls`` from the object ``doc``.

    ``keys`` maps each allowed document key to its field (default
    ``_config_keys(cls)``); an absent key takes the field's value in
    ``defaults``.  ``path`` prefixes key names in error messages.
    """
    keys = keys or _config_keys(cls)
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        kind = "grid" if cls is MethodGrid else "config"
        raise ValueError(f"unknown {kind} keys: {[path + k for k in unknown]}")
    hints = get_type_hints(cls)
    return {f: _typed(hints[f], doc[k], path + k, getattr(defaults, f))
            if k in doc else getattr(defaults, f) for k, f in keys.items()}


def _typed(hint, value, path: str, default=None):
    """``value`` as a field of type ``hint``: a list becomes a tuple and an
    object a dataclass (absent keys from ``default``) or a dict of them;
    the rest must pass ``textio._value`` and, as floats, be finite."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple and isinstance(value, list):
        return tuple(_typed(args[0], v, f"{path}[{i}]")
                     for i, v in enumerate(value))
    if origin is dict and isinstance(value, dict):
        return {k: _typed(args[1], v, f"{path}.{k}", args[1]())
                for k, v in value.items()}
    if is_dataclass(hint) and isinstance(value, dict):
        return hint(**_read(hint, value, default, path + "."))
    value = _value(hint, value, f"config key {path}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"config key {path}: expected {_EXPECTED[float]}, got {value!r}")
    return value


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from a JSON-style dict, filling defaults.

    Unknown keys raise at every level so typos do not silently fall back
    to defaults, and each value must have its field's type (see
    ``_typed``); both raise ValueError naming the key.
    """
    defaults = default_config()
    doc = dict(_value(dict, doc, "config"))
    data = dict(_value(dict, doc.pop("data", {}), "config key data"))
    source = data.pop("source", "gaussian")
    kwargs = _read(ExperimentConfig, doc, defaults, "")
    if source == "gaussian":
        arch = kwargs["arch"]
        shape = {f.name: getattr(arch, f.name) for f in fields(GenSpec)
                 if f.name in _ARCH_FIELDS}
        kwargs["gen"] = GenSpec(**shape, **_read(GenSpec, data, defaults.gen, "data."))
    elif source == "csv":
        kwargs.update(_read(ExperimentConfig, data, defaults, "data.", _CSV_KEYS))
        for key in ("pool", "test"):
            if kwargs[_CSV_KEYS[key]] is None:
                raise ValueError(f"config key data.{key}: the csv source needs a file path")
    else:
        raise ValueError(f"unknown data source {source!r}")
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON config: {exc}") from None
    return config_from_dict(doc)
