"""Spans around rtadapt's public entry points, for the traced study process.

Nothing in ``src/`` is changed: :func:`install` replaces each entry point
at the place where the adaptive loop looks it up (a module attribute or a
class attribute reached through the loop's own module) with a wrapper that
records a span ``[layer, label, start, end, parent, attrs]``.  Spans stay
in memory and are handed back as plain lists when the study ends.

Only the traced study process imports this module.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np


def _refine_attrs(args, kwargs, result):
    mesh, marked = args[0], args[1] if len(args) > 1 else kwargs["marked"]
    return {"before": mesh.num_elements, "after": result.num_elements,
            "marked": int(np.unique(np.asarray(marked)).size)}


def _assemble_attrs(args, kwargs, result):
    return {"dim": result.dimension, "nnz": result.matrix.nnz}


def _splu_attrs(args, kwargs, result):
    # SuperLU's own count of stored L+U entries; building result.L and
    # result.U to count them would copy the factors inside the parent span
    return {"fill": int(result.nnz), "a_nnz": args[0].nnz}


# (layer, owner, attribute, attrs-from-call).  The owner is "module" or
# "module:Name" where Name is looked up in that module, i.e. in the
# namespace the caller uses.  The label of a span is "owner.attribute".
PATCHES = (
    ("adapt.loop", "rtadapt.adapt", "adaptive_loop", None),
    ("adapt.mark", "rtadapt.adapt", "dorfler_mark", None),
    ("mesh.refine", "rtadapt.mesh:Triangulation", "refine", _refine_attrs),
    ("mesh.build", "rtadapt.mesh:Triangulation", "__init__", None),
    ("problem.fields", "rtadapt.problem:ProblemData", "fields", None),
    ("problem.patch", "rtadapt.estimators", "patch_quantities", None),
    ("assembly.assemble", "rtadapt.assembly", "assemble_centered",
     _assemble_attrs),
    ("assembly.assemble", "rtadapt.assembly", "assemble_upwind",
     _assemble_attrs),
    ("solver.solve", "rtadapt.solver", "solve", None),
    ("solver.factorize", "rtadapt.solver:spla", "splu", _splu_attrs),
    ("postprocess.jump", "rtadapt.estimators", "tangential_jump_sq", None),
    ("estimators.context", "rtadapt.adapt:EstimatorContext", "__init__",
     None),
    ("estimators.compute", "rtadapt.adapt:EstimatorContext", "compute", None),
    ("estimators.singular", "rtadapt.estimators",
     "detect_singular_vertices", None),
    ("verify.energy", "rtadapt.verify", "energy_error", None),
    ("cli.write", "rtadapt.cli", "write_history", None),
    ("cli.write", "rtadapt.mesh:Triangulation", "dump", None),
    ("cli.write", "rtadapt.mesh:Triangulation", "to_svg", None),
    ("cli.write", "rtadapt.estimators:EstimatorBreakdown", "to_csv", None),
    ("cli.write", "rtadapt.postprocess", "nodal_average", None),
)


class PatchError(Exception):
    pass


def _resolve(owner: str):
    module_name, _, name = owner.partition(":")
    obj = importlib.import_module(module_name)
    if name:
        if not hasattr(obj, name):
            raise PatchError(f"{module_name} no longer defines {name}")
        obj = getattr(obj, name)
    return obj


class Tracer:
    """Span recorder; spans nest by call order within the one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, label: str, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, label, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced


def install() -> Tracer:
    """Wrap every entry point of PATCHES; fails naming a vanished target."""
    tracer = Tracer()
    for layer, owner, attr, attrs in PATCHES:
        target = _resolve(owner)
        original = target.__dict__.get(attr) if isinstance(target, type) \
            else getattr(target, attr, None)
        if original is None:
            raise PatchError(f"{owner} no longer defines {attr}")
        label = f"{owner}.{attr}"
        setattr(target, attr, tracer.wrap(layer, label, original, attrs))
    return tracer



def summarize(spans: list[list]) -> dict:
    """Self time per layer, calls per label and the counts of the study.

    A span's self time is its duration minus that of its direct children.
    ``adapt.mark`` is the marking phase of the loop: from the end of each
    iteration's energy evaluation to the start of the refinement that
    follows it, which holds ``dorfler_mark`` (or, in uniform mode, the
    all-elements marked set) and the history record.  ``adapt.loop`` keeps
    the rest of the loop's own time.
    """
    child_s = [0.0] * len(spans)
    calls: dict[str, int] = {}
    for layer, label, start, end, parent, _ in spans:
        calls[label] = calls.get(label, 0) + 1
        if parent >= 0:
            child_s[parent] += end - start
    self_s: dict[str, float] = {}
    for i, (layer, _, start, end, _, _) in enumerate(spans):
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child_s[i]

    loops = [i for i, span in enumerate(spans) if span[0] == "adapt.loop"]
    mark_phase = 0.0
    energy_end = None
    for layer, _, start, end, parent, _ in spans:
        if not loops or parent != loops[-1]:
            continue
        if layer == "verify.energy":
            energy_end = end
        elif layer == "mesh.refine" and energy_end is not None:
            mark_phase += start - energy_end
            energy_end = None
    in_mark = self_s.pop("adapt.mark", 0.0)
    self_s["adapt.loop"] = self_s.get("adapt.loop", 0.0) \
        - (mark_phase - in_mark)
    self_s["adapt.mark"] = mark_phase

    refines = [span[5] for span in spans if span[0] == "mesh.refine"]
    assembled = [span[5] for span in spans if span[0] == "assembly.assemble"]
    factored = [span[5] for span in spans if span[0] == "solver.factorize"]
    marked = sum(r["marked"] for r in refines)
    closure = sum(r["after"] - r["before"] - r["marked"] for r in refines)
    counts = {"adapt.marked": marked, "mesh.closure_added": closure,
              "mesh.closure_ratio": closure / marked if marked else 0.0,
              "problem.fields_calls": sum(
                  1 for span in spans if span[0] == "problem.fields")}
    if assembled:
        counts["assembly.dim_final"] = assembled[-1]["dim"]
        counts["assembly.nnz_final"] = assembled[-1]["nnz"]
    if factored:
        counts["solver.fill_final"] = factored[-1]["fill"]
        counts["solver.fill_ratio_final"] = \
            factored[-1]["fill"] / factored[-1]["a_nnz"]
    return {"self_s": self_s, "calls": calls, "counts": counts}
