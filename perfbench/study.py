"""One ``rtadapt run`` study in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/study.py '<json spec>'``; the
last line of its standard output is a JSON report.  The spec holds the
checkout root, the monotonic time at which the parent spawned this
process, the problem parameters, the ``rtadapt run`` argument list and
whether to trace.

Untraced, the process imports nothing from the benchmark's tracing code.
After the study it reads the final mesh back from ``mesh_final.txt`` and
repeats the last iteration (solve, estimate, energy error) on it, which
is what ``RunRecord.wall_time`` of the last history row measures; the
command line keeps the records to itself.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def wrapped_entry_points() -> list[str]:
    """rtadapt names (and scipy's splu) whose code lives in this directory.

    Any hit is a span wrapper of the benchmark that reached this process.
    """
    import scipy.sparse.linalg as spla

    here = str(Path(__file__).resolve().parent)
    members = [("scipy.sparse.linalg.splu", spla.splu)]
    for name, module in sorted(sys.modules.items()):
        if name != "rtadapt" and not name.startswith("rtadapt."):
            continue
        for attr, value in vars(module).items():
            members.append((f"{name}.{attr}", value))
            if isinstance(value, type) and value.__module__ == name:
                members += [(f"{name}.{attr}.{key}", member)
                            for key, member in vars(value).items()]
    found = []
    for label, member in members:
        code = getattr(getattr(member, "__func__", member), "__code__", None)
        if code is not None and code.co_filename.startswith(here):
            found.append(label)
    return found


def repeat_final_step(spec, data, exact) -> dict:
    """Time one loop iteration on the final mesh of the study."""
    from rtadapt import adapt, verify
    from rtadapt.mesh import Triangulation

    out = Path(spec["out"])
    mesh = Triangulation.parse((out / "mesh_final.txt").read_text())
    start = time.perf_counter()
    solution, ctx = adapt.run_iteration(mesh, data, spec["scheme"], True)
    breakdown = ctx.compute(spec["policy"])
    energy, _ = verify.energy_error(mesh, ctx.fields, ctx.flux,
                                    solution.pressure, exact)
    eta = breakdown.family_totals()["total"]
    return {"final_step_s": time.perf_counter() - start,
            "final_elements": mesh.num_elements, "final_E": energy,
            "final_eta": eta}


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = (Path(spec["root"]) / "src").resolve()

    import numpy
    import scipy
    import rtadapt
    from rtadapt import cli, problem

    if not Path(rtadapt.__file__).resolve().is_relative_to(src):
        print(f"rtadapt was imported from {rtadapt.__file__}, not {src}",
              file=sys.stderr)
        return 2
    domain, data, exact = problem.benchmark(spec["benchmark"],
                                            **spec["problem_kwargs"])
    data.initial_mesh(domain)
    tracer = None
    if spec["traced"]:
        import tracing
        tracer = tracing.install()

    ready = time.monotonic()
    error = None
    try:
        status = cli.main(spec["argv"])
    except Exception:
        status, error = None, traceback.format_exc()
    done = time.monotonic()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {
        "status": status,
        "error": error,
        "setup_s": ready - spec["spawned"],
        "study_s": done - ready,
        "peak_rss_mb": peak_kib / 1024.0,
        "wrappers": wrapped_entry_points(),
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        report["trace"] = tracing.summarize(tracer.spans)
    elif status == 0:
        try:
            report.update(repeat_final_step(spec, data, exact))
        except Exception:
            report["error"] = traceback.format_exc()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
