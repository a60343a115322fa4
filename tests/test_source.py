"""Checks on the package source itself rather than on its behaviour."""

import ast
import sys
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import unlearnlab

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "unlearnlab").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_rebinds_its_globals(path):
    # module-level state that a function rebinds outlives the call that
    # set it: results then depend on what ran earlier in the process
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{node.lineno} global {', '.join(node.names)}"
             for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert found == []


def test_the_source_list_is_the_package():
    assert {p.name for p in SOURCES} >= {"__init__.py", "config.py", "harness.py", "report.py",
                                         "unlearn.py"}


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_only_report_names_the_report_files():
    # every file a run writes is named in report.py alone
    names = {"metrics.csv", "aggregated.csv", "sweep.csv", "manifest.json"}
    found = {(node.value, path.name) for path in SOURCES for node in ast.walk(parsed(path))
             if isinstance(node, ast.Constant) and node.value in names}
    assert found == {(name, "report.py") for name in names}


@pytest.mark.parametrize("name", ["config.py", "report.py"])
def test_the_format_modules_import_nothing_from_the_runner(name):
    # relative or absolute, of the module or from it
    path = next(p for p in SOURCES if p.name == name)
    imported = [node.module or alias.name if isinstance(node, ast.ImportFrom) else alias.name
                for node in ast.walk(parsed(path))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert "textio" in imported
    assert [m for m in imported if "harness" in m.split(".")] == []


def absolute_imports(path):
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_the_runtime_needs_numpy_alone():
    # numpy is the one runtime dependency; scipy stays test-only
    top = {name.split(".")[0] for path in SOURCES for name in absolute_imports(path)}
    assert sorted(top - set(sys.stdlib_module_names)) == ["numpy"]


def load_time_imports(path):
    """The dotted name of everything imported outside a function body: the
    module, or for a ``from`` import the module's imported name."""
    todo = list(parsed(path).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        todo.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_loads_the_process_pool_on_import(path):
    # the pool's modules cost about 1 MB; only a run that opens a pool pays it
    pool = ("concurrent.futures", "multiprocessing")
    found = [name for name in load_time_imports(path)
             if any(name == top or name.startswith(top + ".") for top in pool)]
    assert found == []


# unlearnlab's public names that are not modules; a split or move in src
# must keep every one of them
PUBLIC_NAMES = [
    "AggregateRow", "ArchitectureSpec", "AttackScores", "CoverageError", "DataError",
    "DataSplits", "Dataset", "ExperimentConfig", "GenSpec", "GridResult", "LossSpec",
    "METHODS", "MethodGrid", "MetricsReport", "Model", "OptState", "RefDistConfig",
    "RunResult", "SeedContext", "SplitError", "SweepPoint", "TrainConfig",
    "UnlearnConfig", "accuracy", "aggregate_seeds", "attack_auc", "build_refdist",
    "class_centroids", "class_histogram", "config_from_dict", "config_to_dict",
    "default_config", "derive_seed", "evaluate_model", "finetune", "forward_log_probs",
    "forward_logits", "forward_probs", "gap_report", "generate_gaussian_mixture",
    "init_model", "init_opt_state", "js_divergence", "js_divergence_avg",
    "kl_divergence", "l1_sparse", "load_checkpoint", "load_config", "load_csv",
    "loss_and_grad", "make_splits", "match_histogram", "neggrad", "neggrad_plus",
    "prepare_seed", "read_metrics_csv", "regun", "rmia_lite_scores", "round_half_up",
    "run_experiment", "sample_minibatch", "save_checkpoint", "select_hyperparams",
    "sgd_step", "smia_scores", "sweep_tradeoff", "train", "unlearn", "unpack_params",
    "with_gaps", "write_csv", "write_report",
]


def test_the_public_names_are_pinned():
    names = sorted(name for name in dir(unlearnlab) if not name.startswith("_")
                   and not isinstance(getattr(unlearnlab, name), ModuleType))
    assert len(PUBLIC_NAMES) == 72
    assert names == PUBLIC_NAMES


def test_the_step_kernel_allocates_only_through_aligned():
    # every array a step touches starts on a cache line: _Kernel and
    # _Workspace create arrays only with _aligned, and each numpy call in
    # them writes into an out= array (a reduction to a scalar aside)
    path = next(p for p in SOURCES if p.name == "models.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    found, aligned = [], set()
    for name in ("_Kernel", "_Workspace"):
        for call in (n for n in ast.walk(classes[name]) if isinstance(n, ast.Call)):
            func, where = call.func, f"{name} line {call.lineno}"
            keywords = {k.arg for k in call.keywords}
            if isinstance(func, ast.Name) and func.id == "_aligned":
                aligned.add(name)
            elif isinstance(func, ast.Attribute) and func.attr in ("copy", "astype"):
                found.append(f"{where}: .{func.attr}()")
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id == "np" and "out" not in keywords):
                found.append(f"{where}: np.{func.attr} without out=")
            elif (isinstance(func, ast.Attribute) and func.attr == "reduce"
                  and isinstance(func.value, ast.Attribute)
                  and isinstance(getattr(np, func.value.attr, None), np.ufunc)
                  and keywords & {"axis", "keepdims"} and "out" not in keywords):
                found.append(f"{where}: a reduction to an array without out=")
    assert found == []
    assert aligned == {"_Kernel", "_Workspace"}


RANGE_PHRASES = ("must be >=", "must be finite", "must lie in")
# a bound set by another field's value, which no hint can declare
CROSS_FIELD_BOUNDS = {("Dataset", "labels must lie in [1, ")}


def test_classes_on_the_field_rule_declare_ranges_on_their_hints():
    # a class whose __post_init__ runs the field rule (check_fields or
    # _value) leaves ranges to textio, so the two rules cannot drift apart
    found, guarded = [], set()
    for path in SOURCES:
        for cls in (n for n in ast.walk(parsed(path)) if isinstance(n, ast.ClassDef)):
            post = next((f for f in cls.body if isinstance(f, ast.FunctionDef)
                         and f.name == "__post_init__"), None)
            if post is None or not any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                                       and n.func.id in ("check_fields", "_value")
                                       for n in ast.walk(post)):
                continue
            guarded.add(cls.name)
            found += [f"{path.name}:{n.lineno} {cls.name}: {n.value!r}" for n in ast.walk(post)
                      if isinstance(n, ast.Constant) and isinstance(n.value, str)
                      and any(p in n.value for p in RANGE_PHRASES)
                      and (cls.name, n.value) not in CROSS_FIELD_BOUNDS]
    assert found == []
    assert guarded == {"ArchitectureSpec", "Dataset", "ExperimentConfig", "GenSpec",
                       "LossSpec", "MethodGrid", "OptState", "RefDistConfig",
                       "TrainConfig", "UnlearnConfig"}


def _opens_a_run(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "set" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "_run")


def test_only_the_mapper_and_the_pool_initializer_open_a_run():
    # a run opened anywhere else could outlive its block or serve one
    # config's data to another; each call is named by its innermost function
    found = []
    for path in SOURCES:
        tree = parsed(path)
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for call in filter(_opens_a_run, ast.walk(tree)):
            owners = [f.name for f in functions if any(n is call for n in ast.walk(f))]
            found.append(f"{path.name}:{owners[-1] if owners else '<module>'}")
    assert sorted(found) == ["harness.py:_init_worker", "harness.py:_mapper"]


def test_only_the_scoring_round_takes_a_map():
    # every other block joins its open run's map (see harness._mapper), so
    # no caller can hand a function the map of another run
    found = []
    for path in SOURCES:
        for fn in ast.walk(parsed(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = fn.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                if any(p is not None and p.arg == "pmap" for p in params):
                    found.append(f"{path.name}:{fn.name}")
    assert found == ["harness.py:_score"]
