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
    argument lists, on the final mesh of a short study of the workload
    (its default theta and eps, stopped at 384 elements) read back from a
    dump.  E and eta equal the study's last record bit for bit, which
    ``perfbench/run.py`` requires of every benchmark study."""
    spec = RUN.WORKLOADS[workload]
    domain, data, exact = benchmark(
        spec.benchmark, **({"eps": spec.eps[0]} if spec.eps else {}))
    study = adapt.adaptive_loop(
        data, data.initial_mesh(domain), scheme=spec.scheme,
        policy=spec.policy, mode=spec.mode, max_dof=384, exact=exact,
        **({"theta": spec.theta[0]} if spec.theta else {}))
    mesh = Triangulation.parse(study.mesh.dump())
    solution, ctx = adapt.run_iteration(mesh, data, spec.scheme, True)
    eta = ctx.compute(spec.policy).family_totals()["total"]
    energy, _ = verify.energy_error(mesh, ctx.fields, ctx.flux,
                                    solution.pressure, exact)
    last = study.records[-1]
    assert mesh.num_elements == last.dof >= 384
    assert energy == last.energy_error and eta == last.eta
