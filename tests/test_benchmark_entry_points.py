"""The names and argument lists that the benchmark harness in ``perfbench``
relies on.

``perfbench/tracing.py`` wraps the entry points listed in its ``PATCHES``
and ``perfbench/study.py`` repeats the last iteration of a study through
``adapt.run_iteration`` and ``verify.energy_error``.  The harness's own
smoke test starts study processes and is not part of this suite, so a
renamed entry point would otherwise go unnoticed here.  These tests load
the harness modules from their files and start no process.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from rtadapt import adapt, verify
from rtadapt.mesh import Triangulation
from rtadapt.problem import benchmark

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


TRACING = load("tracing")
RUN = load("run")


@pytest.mark.parametrize("layer, owner, attr", [
    patch[:3] for patch in TRACING.PATCHES])
def test_patch_target_resolves(layer, owner, attr):
    """Each wrapped entry point is found where ``tracing.install`` looks
    for it: in the class's own namespace or as a module attribute."""
    target = TRACING._resolve(owner)
    original = target.__dict__.get(attr) if isinstance(target, type) \
        else getattr(target, attr, None)
    assert callable(original), f"{owner} no longer defines {attr}"


@pytest.mark.parametrize("workload", sorted(RUN.WORKLOADS))
def test_final_step_calls(workload):
    """The final-step repetition of ``study.repeat_final_step``, with its
    argument lists, on a once-refined initial mesh read back from a dump."""
    spec = RUN.WORKLOADS[workload]
    domain, data, exact = benchmark(spec.benchmark)
    mesh = Triangulation.parse(data.initial_mesh(domain).uniform_refine()
                               .dump())
    solution, ctx = adapt.run_iteration(mesh, data, spec.scheme, True)
    eta = ctx.compute(spec.policy).family_totals()["total"]
    energy, _ = verify.energy_error(mesh, ctx.fields, ctx.flux,
                                    solution.pressure, exact)
    assert eta > 0.0 and energy > 0.0
