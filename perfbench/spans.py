"""Per-layer timing by wrapping unlearnlab's public functions from outside.

``tracing()`` swaps each target function for a timing wrapper in every
``unlearnlab`` module namespace that holds it, because modules import
these functions by name (``loss_and_grad`` lives in both ``models`` and
``unlearn``), and puts the originals back on exit.  Submodules are reached
through ``sys.modules``: the package attribute ``unlearnlab.unlearn`` is
the dispatch function, not the module.

Each span name accumulates calls, inclusive seconds ``s``, self seconds
``self_s`` (``s`` minus the time of wrapped callees) and ``rows`` where a
row count applies.  Wrappers record only in the process that installed
them: pool workers forked from it time their own copies and discard them.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "unlearnlab"
METHODS = ("regun", "neggrad", "neggrad_plus", "finetune", "l1_sparse")


def _package_modules() -> dict:
    return {n: m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _batch_span(tracer, args, kwargs):
    n = _arg(args, kwargs, 1, "x").shape[0]
    return ("models.loss_and_grad.b1" if n == 1 else "models.loss_and_grad.bN"), 0


def _forward_rows(tracer, args, kwargs):
    return "models.forward_probs", _arg(args, kwargs, 1, "x").shape[0]


def _refdist_rows(tracer, args, kwargs):
    tracer.note_held_out(_arg(args, kwargs, 1, "pool"), _arg(args, kwargs, 2, "held_out"))
    config = _arg(args, kwargs, 4, "config")
    if config.num_matched is not None:
        return "reference.build_refdist", config.num_matched
    return "reference.build_refdist", len(_arg(args, kwargs, 0, "forget_labels"))


def _fixed(span):
    return lambda tracer, args, kwargs: (span, 0)


# (defining module, function name, (tracer, args, kwargs) -> (span name, rows))
TARGETS = (
    ("models", "loss_and_grad", _batch_span),
    ("models", "sgd_step", _fixed("models.sgd_step")),
    ("models", "train", _fixed("models.train")),
    ("models", "forward_probs", _forward_rows),
    ("data", "sample_minibatch", _fixed("data.sample_minibatch")),
    ("data", "generate_gaussian_mixture", _fixed("data.generate_gaussian_mixture")),
    ("data", "make_splits", _fixed("data.make_splits")),
    ("reference", "build_refdist", _refdist_rows),
    *(("unlearn", m, _fixed(f"unlearn.{m}")) for m in METHODS),
    *(("metrics", f, _fixed(f"metrics.{f}"))
      for f in ("attack_auc", "rmia_lite_scores", "js_divergence_avg", "accuracy")),
    *(("harness", f, _fixed(f"harness.{f}"))
      for f in ("prepare_seed", "evaluate_model", "select_hyperparams", "write_report")),
)


class Span:
    __slots__ = ("calls", "s", "self_s", "rows")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.rows = 0


class Tracer:
    """Span statistics plus the patches that feed them."""

    def __init__(self):
        self.spans = {}
        self.patches = []          # (module, name, original)
        self._stack = []           # wrapped-callee seconds of each open span
        self._held_out = {}        # id(pool) -> distinct held-out rows seen
        self._held_refs = {}       # (id(pool), id(held_out)) -> held_out

    def span(self, name) -> Span:
        if name not in self.spans:
            self.spans[name] = Span()
        return self.spans[name]

    def distinct_held_out_rows(self) -> int:
        return sum(len(rows) for rows in self._held_out.values())

    def note_held_out(self, pool, held_out):
        key = (id(pool), id(held_out))
        if key not in self._held_refs:
            # keeping references pins the ids for the life of the tracer
            self._held_refs[key] = (pool, held_out)
            self._held_out.setdefault(id(pool), set()).update(
                int(i) for i in held_out)

    def _wrap(self, fn, span_of):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                name, rows = span_of(self, args, kwargs)
                st = self.span(name)
                st.calls += 1
                st.s += dt
                st.self_s += dt - child
                st.rows += rows

        wrapper._perfbench_original = fn
        return wrapper

    def install(self):
        modules = _package_modules().values()
        for mod_name, fn_name, span_of in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self._wrap(original, span_of)
            for mod in modules:
                if vars(mod).get(fn_name) is original:
                    self.patches.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self):
        while self.patches:
            mod, fn_name, original = self.patches.pop()
            setattr(mod, fn_name, original)


@contextmanager
def tracing():
    """Install the wrappers for the duration of the block; yields the Tracer."""
    import unlearnlab  # noqa: F401  (loads every submodule)

    tracer = Tracer()
    try:
        tracer.install()
        yield tracer
    finally:
        tracer.uninstall()


def leftover_wrappers() -> list:
    """Names in unlearnlab's namespaces that still hold a timing wrapper."""
    return [f"{n}.{attr}" for n, mod in _package_modules().items()
            for attr, value in vars(mod).items() if hasattr(value, "_perfbench_original")]
