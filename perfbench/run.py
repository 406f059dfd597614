"""End-to-end and per-layer benchmark of ``rtadapt run``.

Usage, from the root of a checkout (no install needed; ``src/`` is put
on the children's ``PYTHONPATH``)::

    python3 perfbench/run.py --workload kellogg-xi --seed 1 \
        --seconds 30 --trace 0

Each study is one ``rtadapt.cli.main(["run", ...])`` in a fresh
interpreter (``study.py``), writing its artifacts into a scratch
directory under ``perfbench/.work``.  The run repeats studies with the
parameters drawn from ``--seed`` until ``--seconds`` have passed and
reports medians.  ``--trace 0`` prints the end-to-end metrics of untraced
studies; ``--trace 1`` alternates untraced and traced studies and prints
the per-layer metrics of the traced ones plus the tracing overhead.
Every study's outputs are checked; a study that fails a check is counted
as failed and the run goes on.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; a full record with the
environment is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# BLAS/OpenMP threads of every study process; the figures in README.md
# were taken single-threaded, and one thread keeps studies from competing.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_UNTRACED = 3          # studies per --trace 0 run, however short --seconds
MIN_PAIRS = 2             # untraced/traced pairs per --trace 1 run
RUN_LIMIT_S = 150.0       # no new study starts after this, nor runs past it
WARMUP_ELEMENTS = 64      # fills bytecode and file caches before timing
SMOKE_ELEMENTS_MIN = 16


@dataclass(frozen=True)
class Workload:
    """One adaptive study setting and the ranges its seed draws from.

    Seed 0 gives the README defaults (``theta``, ``eps``) and the middle
    of the element-target range.  The ranges are narrow on purpose: each
    target range sits inside one refinement step for every theta in its
    range, so every seed runs the same number of iterations and the work
    per study stays within a few percent.  ``rate_E``/``rate_eta`` bound
    the convergence rates fitted over the second half of the history;
    they hold the rates measured at seed 0 (README.md) and the
    theoretical rate, with room for the energy-error quadrature fix.
    """

    benchmark: str
    scheme: str
    policy: str
    mode: str
    target: tuple[int, int]
    theta: tuple[float, float, float] | None     # (default, low, high)
    eps: tuple[float, float, float] | None
    rate_E: tuple[float, float]
    rate_eta: tuple[float, float]

    def draw(self, seed: int) -> dict:
        rng = random.Random(seed)
        lo, hi = self.target
        params = {"target": (lo + hi) // 2 if seed == 0
                  else rng.randint(lo, hi)}
        for name in ("theta", "eps"):
            rng_range = getattr(self, name)
            if rng_range is not None:
                default, low, high = rng_range
                value = default if seed == 0 else rng.uniform(low, high)
                params[name] = float(f"{value:.4g}")
        return params


WORKLOADS = {
    "kellogg-xi": Workload(
        "kellogg1", "centered", "xi", "adaptive", (11000, 11800),
        (0.7, 0.699, 0.701), None, (0.30, 0.65), (0.30, 0.65)),
    "layer-upwind": Workload(
        "layer", "upwind", "theorem", "adaptive", (9500, 10000),
        (0.5, 0.499, 0.501), (1e-3, 0.99e-3, 1.01e-3),
        (0.30, 0.80), (0.30, 0.90)),
    "lshape-uniform": Workload(
        "lshape", "centered", "theorem", "uniform", (12289, 24576),
        None, None, (0.25, 0.45), (0.25, 0.45)),
}

END_TO_END = {"setup_s": "s", "study_s": "s", "final_step_s": "s",
              "peak_rss_mb": "MiB"}
LAYER_TIMES = ("adapt.self", "adapt.mark", "mesh.refine", "mesh.build",
               "problem.fields", "problem.patch", "assembly.assemble",
               "solver.factorize", "solver.solve", "postprocess.jump",
               "estimators.context", "estimators.compute",
               "estimators.singular", "verify.energy", "cli.write")
LAYER_COUNTS = {"adapt.iterations": "count", "adapt.elem_iters": "count",
                "adapt.marked": "count", "mesh.final_elements": "count",
                "mesh.closure_added": "count", "mesh.closure_ratio": "ratio",
                "problem.fields_calls": "count",
                "assembly.dim_final": "count", "assembly.nnz_final": "count",
                "solver.fill_final": "count",
                "solver.fill_ratio_final": "ratio"}


def cli_argv(workload: Workload, params: dict, out: Path) -> list[str]:
    argv = ["run", "--benchmark", workload.benchmark, "--scheme",
            workload.scheme, "--policy", workload.policy, "--mode",
            workload.mode, "--max-dof", str(params["target"]),
            "--max-iter", "200", "--out", str(out)]
    if "theta" in params:
        argv += ["--theta", repr(params["theta"])]
    if "eps" in params:
        argv += ["--eps", repr(params["eps"])]
    return argv


def expected_calls(workload: Workload, iterations: int) -> dict[str, int]:
    """Least number of times each wrapped entry point fires in a study."""
    n = iterations
    assemble = "assemble_centered" if workload.scheme == "centered" \
        else "assemble_upwind"
    return {
        "rtadapt.adapt.adaptive_loop": 1,
        "rtadapt.adapt.dorfler_mark": n - 1 if workload.mode == "adaptive"
        else 0,
        "rtadapt.mesh:Triangulation.refine": n - 1,
        "rtadapt.mesh:Triangulation.__init__": n,
        "rtadapt.problem:ProblemData.fields": n,
        "rtadapt.estimators.patch_quantities": n,
        f"rtadapt.assembly.{assemble}": n,
        "rtadapt.solver.solve": n,
        "rtadapt.solver:spla.splu": n,
        "rtadapt.estimators.tangential_jump_sq": n,
        "rtadapt.adapt:EstimatorContext.__init__": n,
        "rtadapt.adapt:EstimatorContext.compute": n,
        "rtadapt.estimators.detect_singular_vertices": n,
        "rtadapt.verify.energy_error": n,
        "rtadapt.cli.write_history": 1,
        "rtadapt.mesh:Triangulation.dump": 1,
        "rtadapt.mesh:Triangulation.to_svg": 1,
        "rtadapt.estimators:EstimatorBreakdown.to_csv": 1,
        "rtadapt.postprocess.nodal_average":
            1 if workload.benchmark == "layer" else 0,
    }


class CheckError(Exception):
    pass


def read_history(path: Path) -> list[dict]:
    """Rows of history.csv as dicts of floats; CheckError if malformed."""
    lines = path.read_text().splitlines()
    if len(lines) < 3 or not lines[0].startswith("#"):
        raise CheckError("history.csv has no comment line or no rows")
    rows = list(csv.DictReader(lines[1:]))
    header = lines[1].split(",")
    if header[:4] != ["k", "dof", "E", "eta"]:
        raise CheckError(f"history.csv header {lines[1]!r}")
    try:
        parsed = [{key: float(value) for key, value in row.items()}
                  for row in rows]
    except (TypeError, ValueError) as exc:
        raise CheckError(f"history.csv does not parse: {exc}") from exc
    for i, row in enumerate(parsed, start=1):
        if row["k"] != i or len(row) != len(header):
            raise CheckError(f"history.csv row {i} is malformed")
        if not (row["E"] > 0.0 and row["eta"] > 0.0
                and math.isfinite(row["E"]) and math.isfinite(row["eta"])):
            raise CheckError(f"history.csv row {i}: E or eta not positive")
    if any(b["dof"] <= a["dof"] for a, b in zip(parsed, parsed[1:])):
        raise CheckError("element counts in history.csv do not increase")
    return parsed


def fitted_rate(rows: list[dict], key: str) -> float:
    """-slope of log(key) against log(elements) over the second half."""
    half = rows[len(rows) // 2:]
    x = [math.log(r["dof"]) for r in half]
    y = [math.log(r[key]) for r in half]
    return -statistics.linear_regression(x, y).slope


def check_study(workload: Workload, params: dict, out: Path, report: dict,
                check_rates: bool) -> dict:
    """Output checks of one study; returns facts the run compares later."""
    if report["status"] != 0 or report["error"]:
        raise CheckError(f"rtadapt run exited with {report['status']}: "
                         f"{report['error'] or report.get('stderr')}")
    history_text = (out / "history.csv").read_text()
    rows = read_history(out / "history.csv")
    final = int(rows[-1]["dof"])
    if final < params["target"]:
        raise CheckError(f"final element count {final} below the target "
                         f"{params['target']}")
    for name in ("mesh_final.txt", "mesh_final.svg", "estimators.csv",
                 "config.txt") + (("ptilde_nodal.csv",)
                                  if workload.benchmark == "layer" else ()):
        if not (out / name).is_file():
            raise CheckError(f"{name} was not written")
    mesh_header = (out / "mesh_final.txt").read_text().split("\n", 1)[0]
    if int(mesh_header.split()[2]) != final:
        raise CheckError("mesh_final.txt does not hold the final mesh")
    with (out / "estimators.csv").open() as handle:
        if sum(1 for _ in handle) != final + 1:
            raise CheckError("estimators.csv does not cover the final mesh")
    rates = {"E": fitted_rate(rows, "E"), "eta": fitted_rate(rows, "eta")}
    if check_rates:
        for key, band in (("E", workload.rate_E), ("eta", workload.rate_eta)):
            if not band[0] <= rates[key] <= band[1]:
                raise CheckError(f"fitted {key} rate {rates[key]:.3f} "
                                 f"outside {band}")
    if "final_E" in report and (report["final_E"] != rows[-1]["E"]
                                or report["final_eta"] != rows[-1]["eta"]):
        raise CheckError("the repeated final step does not reproduce the "
                         "last history row")
    if "trace" not in report and report["wrappers"]:
        raise CheckError(f"span wrappers in the untraced process: "
                         f"{report['wrappers']}")
    facts = {"history": history_text, "rows": rows, "rates": rates}
    if "trace" in report:
        calls = report["trace"]["calls"]
        for label, least in expected_calls(workload, len(rows)).items():
            if calls.get(label, 0) < least:
                raise CheckError(
                    f"span {label} fired {calls.get(label, 0)} times over "
                    f"{len(rows)} iterations, expected at least {least}")
        counts = dict(report["trace"]["counts"])
        counts.update({"adapt.iterations": len(rows),
                       "adapt.elem_iters": int(sum(r["dof"] for r in rows)),
                       "mesh.final_elements": final})
        facts["counts"] = counts
    return facts


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_VARS:
        env[name] = str(THREAD_CAP)
    return env


def spawn_study(workload: Workload, params: dict, out: Path, traced: bool,
                timeout: float) -> dict:
    """Run study.py once and return its report (or a failure report)."""
    spec = {"root": str(ROOT), "out": str(out), "traced": traced,
            "benchmark": workload.benchmark, "scheme": workload.scheme,
            "policy": workload.policy,
            "problem_kwargs": {"eps": params["eps"]} if "eps" in params
            else {},
            "argv": cli_argv(workload, params, out)}
    if out.exists():
        shutil.rmtree(out)
    spec["spawned"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "study.py"), json.dumps(spec)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"status": None, "error": f"study exceeded {timeout:.0f} s"}
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"status": proc.returncode,
                "error": f"no report; stderr: {stderr.strip()[-2000:]}"}
    report["stderr"] = stderr.strip()[-2000:]
    return report


def read_git_sha() -> str:
    """HEAD of the checkout from .git, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run(workload_name: str, seed: int, seconds: float, traced: bool,
        elements: int | None) -> int:
    workload = WORKLOADS[workload_name]
    params = workload.draw(seed)
    if elements is not None:
        params["target"] = elements
    work = HERE / ".work" / f"{workload_name}-{seed}-{os.getpid()}"
    started = time.monotonic()
    studies, failures = [], []
    attempts = 0

    def attempt(kind: str, study_params: dict, check_rates: bool):
        nonlocal attempts
        attempts += 1
        out = work / f"{kind}-{attempts}"
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        report = spawn_study(workload, study_params, out, kind == "traced",
                             remaining)
        try:
            facts = check_study(workload, study_params, out, report,
                                check_rates)
            reference = studies[0]["history"] if studies else None
            if kind != "warmup" and reference not in (None, facts["history"]):
                raise CheckError("history.csv differs from the one of the "
                                 "run's first study")
            counted = [s["counts"] for s in studies if s["kind"] == "traced"]
            if kind == "traced" and counted and facts["counts"] != counted[0]:
                raise CheckError("per-layer counts differ between the traced "
                                 "studies of the run")
        except (CheckError, OSError, ValueError, KeyError) as exc:
            partial = out / "history.csv"
            failures.append({"kind": kind, "error": str(exc),
                             "partial_history": partial.read_text()
                             if partial.is_file() else None})
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return dict(report, kind=kind, **facts)

    try:
        warm = attempt("warmup", dict(params, target=WARMUP_ELEMENTS), False)
        order, step = 0, 0.0
        while True:
            elapsed = time.monotonic() - started
            done = attempts - 1 >= (2 * MIN_PAIRS if traced else MIN_UNTRACED)
            # end the run as close to --seconds as whole rounds allow
            if (done and elapsed + step / 2 > seconds) \
                    or elapsed >= RUN_LIMIT_S:
                break
            kinds = ["untraced", "traced"] if traced else ["untraced"]
            if order % 2:
                kinds.reverse()
            order += 1
            for kind in kinds:
                study = attempt(kind, params, elements is None)
                if study is not None:
                    studies.append(study)
            step = time.monotonic() - started - elapsed
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [s for s in studies if s["kind"] == "untraced"]
    traced_studies = [s for s in studies if s["kind"] == "traced"]
    metrics = None
    if traced and untraced and traced_studies:
        metrics = {}
        for layer in LAYER_TIMES:
            key = "adapt.loop" if layer == "adapt.self" else layer
            metrics[f"{layer}_s"] = (statistics.median(
                s["trace"]["self_s"].get(key, 0.0)
                for s in traced_studies), "s")
        for name, unit in LAYER_COUNTS.items():
            metrics[name] = (traced_studies[0]["counts"][name], unit)
        metrics["trace.overhead_s"] = (
            statistics.median(s["study_s"] for s in traced_studies)
            - statistics.median(s["study_s"] for s in untraced), "s")
    elif not traced and untraced:
        metrics = {name: (statistics.median(s[name] for s in untraced),
                          unit) for name, unit in END_TO_END.items()}

    environment = {
        "git_sha": read_git_sha(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_caps": {name: THREAD_CAP for name in THREAD_VARS},
        "versions": (warm or studies[0])["versions"] if warm or studies
        else None,
        "workload": workload_name, "seed": seed, "params": params,
        "seconds": seconds, "trace": traced,
    }
    print("environment " + json.dumps(environment))
    for s in studies:
        print(f"study {s['kind']:8s} setup_s={s['setup_s']:.4f} "
              f"study_s={s['study_s']:.4f} "
              f"final_step_s={s.get('final_step_s', math.nan):.4f} "
              f"peak_rss_mb={s['peak_rss_mb']:.1f} "
              f"rate_E={s['rates']['E']:.3f} "
              f"rate_eta={s['rates']['eta']:.3f}")
    for failure in failures:
        last_line = (failure["error"].strip().splitlines() or [""])[-1]
        print(f"failed {failure['kind']}: {last_line}")
    print(f"studies_attempted {attempts}")
    print(f"studies_failed {len(failures)}")

    record = {"environment": environment, "failures": failures,
              "studies": [{key: value for key, value in s.items()
                           if key not in ("history", "rows")}
                          for s in studies],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in (metrics or {}).items()}}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload_name}-seed{seed}-trace{int(traced)}.json") \
        .write_text(json.dumps(record, indent=1))
    if metrics is None:
        print("no metrics: every study of a kind the run needs failed",
              file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({"correct": not failures, "attempted": attempts,
                      "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--elements", type=int,
                        help="element target in place of the drawn one "
                             "(smoke tests); skips the rate bands, which "
                             "hold at the drawn targets only")
    args = parser.parse_args(argv)
    if args.elements is not None and args.elements < SMOKE_ELEMENTS_MIN:
        parser.error(f"--elements must be at least {SMOKE_ELEMENTS_MIN}")
    if not (ROOT / "src" / "rtadapt" / "cli.py").is_file():
        print(f"no rtadapt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace),
               args.elements)


if __name__ == "__main__":
    sys.exit(main())
