"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
module and name, so a rename or move in src silently zeroes its spans.
These checks read the tracer's target list without changing it."""

import importlib
import importlib.util
from pathlib import Path

import unlearnlab  # imports every submodule the targets name

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def tracer_targets():
    return [(module, name) for module, name, _ in load_spans().TARGETS]


def test_every_tracer_target_is_a_function_of_its_module():
    targets = tracer_targets()
    assert targets
    missing = [f"unlearnlab.{module}.{name}" for module, name in targets
               if not callable(getattr(importlib.import_module(f"unlearnlab.{module}"),
                                       name, None))]
    assert missing == []


def test_unlearn_module_holds_the_traced_gradient():
    # the tracer times loss_and_grad in every namespace that holds it
    unlearn_module = importlib.import_module("unlearnlab.unlearn")
    models = importlib.import_module("unlearnlab.models")
    assert unlearn_module.loss_and_grad is models.loss_and_grad


def test_a_traced_run_counts_one_preparation_per_seed(tiny_cfg):
    # the probe perfbench's selfcheck makes, on a serial tiny run
    spans = load_spans()
    with spans.tracing() as tracer:
        unlearnlab.run_experiment(tiny_cfg)
    assert tracer.spans["harness.prepare_seed"].calls == len(tiny_cfg.seeds)
    assert tracer.spans["reference.build_refdist"].calls > 0
    assert spans.leftover_wrappers() == []
