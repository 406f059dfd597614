"""Command-line driver: configure a run, execute it, emit artifacts.

Artifacts per run: ``history.csv`` (one row per adaptive iteration with
errors, estimator totals, convergence rates and effectivity), a final
mesh dump and an SVG rendering shaded by the marking indicator, and for
the benchmarks that take parameters (the internal layer) the nodally
averaged displacement values.  Every name list (benchmarks, schemes,
policies, modes, estimator families) is read from the module that
implements it.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path
from typing import TextIO

import numpy as np

from . import (adapt, assembly, estimators, mesh as meshmod, postprocess,
               problem, solver, verify)
from .assembly import CENTERED, UPWIND
from .estimators import THEOREM, XI


class ConfigError(Exception):
    pass


# benchmark -> (scheme, indicator policy, theta), one row for each
# benchmark of problem.BENCHMARKS
BENCHMARK_DEFAULTS = {
    "lshape": (CENTERED, THEOREM, 0.5),
    "kellogg1": (CENTERED, XI, 0.7),
    "kellogg2": (CENTERED, XI, 0.94),
    "layer": (UPWIND, THEOREM, 0.5),
}

# config key -> its choices
CHOICES = {"benchmark": tuple(problem.BENCHMARKS), "scheme": assembly.SCHEMES,
           "policy": estimators.POLICIES, "mode": adapt.MODES}
# the parameters of all benchmarks, in declaration order
PARAMETERS = tuple(dict.fromkeys(
    key for params in problem.BENCHMARKS.values() for key in params))
# the marking indicator is the eta column of the history, ahead of these
HISTORY_FAMILIES = tuple(name for name in estimators.FAMILIES
                         if name != estimators.TOTAL)

# the comment line of history.csv: how the run's mode refines
CSV_COMMENT = {adapt.ADAPTIVE: "# marking=dorfler, threshold=theta^2 on the "
                               "squared indicator sum",
               adapt.UNIFORM: "# refinement=uniform, every element bisected "
                              "twice per step"}
CSV_HEADER = ",".join(("k", "dof", "E", "eta") + HISTORY_FAMILIES
                      + ("EOC_E", "EOC_eta", "effectivity"))


@dataclass
class RunConfig:
    """Fully resolved parameters of one study (runs are seed-free);
    ``params`` holds those of the benchmark (``problem.BENCHMARKS``)."""

    benchmark: str
    scheme: str
    policy: str
    theta: float
    mode: str = adapt.ADAPTIVE
    max_dof: int = 100_000
    max_iter: int = 60
    params: dict = field(default_factory=dict)
    out: str = "out"

    def validate(self) -> "RunConfig":
        for key, choices in CHOICES.items():
            if getattr(self, key) not in choices:
                raise ConfigError(f"unknown {key} {getattr(self, key)!r}")
        for key in self.params:
            if key not in problem.BENCHMARKS[self.benchmark]:
                takers = " and ".join(name for name, params
                                      in problem.BENCHMARKS.items()
                                      if key in params)
                raise ConfigError(f"{key} only applies to the {takers} "
                                  "benchmark")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError(f"theta={self.theta} outside (0, 1]")
        if not all(0.0 < value < math.inf for value in self.params.values()):
            raise ConfigError(" and ".join(self.params) + " outside (0, inf)")
        if self.max_dof < 1 or self.max_iter < 1:
            raise ConfigError("stop criteria must be positive")
        return self

    def render(self) -> str:
        """Canonical key=value form (one per line, diffable), each entry of
        ``params`` a key of its own."""
        lines = []
        for f in dc_fields(self):
            value = getattr(self, f.name)
            items = value.items() if f.name == "params" else [(f.name, value)]
            lines += [f"{key}={v!r}" if isinstance(v, float) else f"{key}={v}"
                      for key, v in items]
        return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> dict:
    """key=value lines, '#' comments; values stay as strings."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


# config key -> type name: the fields of RunConfig, with the float
# parameters of the benchmarks in the place of ``params``
_KEY_TYPES = {f.name: f.type for f in dc_fields(RunConfig)
              if f.name != "params"} | dict.fromkeys(PARAMETERS, "float")


def _coerce(key: str, value: str):
    if key not in _KEY_TYPES:
        raise ConfigError(f"unknown key {key!r}")
    kind = _KEY_TYPES[key]
    try:
        if kind == "float":
            return float(value)
        if kind == "int":
            return int(value)
    except ValueError as exc:
        raise ConfigError(f"malformed value for {key}: {value!r}") from exc
    return value


def parse_config(args=None, config_file: str | None = None) -> RunConfig:
    """Resolve a RunConfig from flags and/or a key=value file.

    Flags override file entries; benchmark defaults (``BENCHMARK_DEFAULTS``
    and the parameters of ``problem.BENCHMARKS``) fill the rest.
    """
    values = {}
    if config_file is not None:
        raw = parse_config_text(Path(config_file).read_text())
        values.update({k: _coerce(k, v) for k, v in raw.items()})
    if args:
        values.update({k: v for k, v in args.items() if v is not None})

    benchmark = values.get("benchmark")
    if benchmark is None:
        raise ConfigError("a benchmark must be selected")
    if benchmark not in problem.BENCHMARKS:
        raise ConfigError(f"unknown benchmark {benchmark!r}")
    params = dict(problem.BENCHMARKS[benchmark])
    params.update({key: values.pop(key) for key in PARAMETERS
                   if key in values})
    scheme, policy, theta = BENCHMARK_DEFAULTS[benchmark]
    merged = dict(benchmark=benchmark, scheme=scheme, policy=policy,
                  theta=theta, params=params)
    merged.update(values)
    return RunConfig(**merged).validate()


def write_history(records, path: Path, mode: str) -> None:
    dofs = [r.dof for r in records]
    errs = [r.energy_error for r in records]
    etas = [r.eta for r in records]
    eoc_e, eoc_eta = ([math.nan] + (list(verify.eoc(dofs, values))
                                    if len(records) > 1 else [])
                      for values in (errs, etas))
    eff = verify.effectivity(etas, errs)
    # k and dof, then the other columns of CSV_HEADER
    line = "%d,%d" + ",%.17g" * (CSV_HEADER.count(",") - 1)
    lines = [CSV_COMMENT[mode], CSV_HEADER]
    lines += [line % (r.k, r.dof, r.energy_error, r.eta,
                      *(r.totals[name] for name in HISTORY_FAMILIES),
                      eoc_e[i], eoc_eta[i], eff[i])
              for i, r in enumerate(records)]
    path.write_text("\n".join(lines) + "\n")


def _output_directory(out: str) -> Path:
    """The directory ``out``, made if missing; ConfigError if it can't be."""
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: {exc.strerror}") from exc
    return Path(out)


def run(config: RunConfig) -> int:
    """Execute a configured study and write its artifacts."""
    outdir = _output_directory(config.out)
    domain, data, exact = problem.benchmark(config.benchmark, **config.params)
    try:
        result = adapt.adaptive_loop(
            data, data.initial_mesh(domain), scheme=config.scheme,
            policy=config.policy, theta=config.theta, mode=config.mode,
            max_dof=config.max_dof, max_iter=config.max_iter, exact=exact,
        )
    except Exception as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1

    solver.release_heap()     # the loop's last arrays, before the writers
    write_history(result.records, outdir / "history.csv", config.mode)
    _stream(outdir / "mesh_final.txt", result.mesh.dump)
    _stream(outdir / "mesh_final.svg", result.mesh.to_svg,
            result.breakdown.total)
    _stream(outdir / "estimators.csv", result.breakdown.to_csv)
    (outdir / "config.txt").write_text(config.render())
    if config.params:
        _stream(outdir / "ptilde_nodal.csv", write_nodal,
                postprocess.nodal_average(result.mesh,
                                          result.solution.pressure))
    return 0


def write_nodal(nodal: np.ndarray, out: TextIO | None = None) -> str | None:
    """The ``ptilde_nodal.csv`` text, one row per vertex led by its id;
    written to the open file ``out``, or returned without it."""
    return meshmod.write_text(out, ["vertex,value\n"], meshmod.text_rows(
        "%d,%.17g\n", nodal.size, nodal))


def _stream(path: Path, writer, *args) -> None:
    """Run the block writer ``writer(*args, out=...)`` into the file
    ``path``."""
    with path.open("w") as out:
        writer(*args, out=out)


def dump_mesh(domain: str, refinements: int, out: str) -> int:
    """Dump and render a (uniformly refined) benchmark domain mesh."""
    if refinements < 0:
        raise ConfigError(f"--refinements {refinements} is negative")
    m = meshmod.build_initial_mesh(domain)
    for _ in range(refinements):
        m = m.uniform_refine()
    outdir = _output_directory(out)
    _stream(outdir / "mesh.txt", m.dump)
    _stream(outdir / "mesh.svg", m.to_svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtadapt",
        description="Adaptive RT0 mixed FEM studies for "
                    "convection-diffusion-reaction benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute a refinement study")
    for key, choices in CHOICES.items():
        runp.add_argument(f"--{key}", choices=choices)
    runp.add_argument("--theta", type=float)
    runp.add_argument("--max-dof", type=int, dest="max_dof")
    runp.add_argument("--max-iter", type=int, dest="max_iter")
    for key in PARAMETERS:
        runp.add_argument(f"--{key}", type=float)
    runp.add_argument("--out")
    runp.add_argument("--config", help="key=value config file")

    meshp = sub.add_parser("mesh", help="dump/render a refined mesh")
    meshp.add_argument("--domain", choices=meshmod.DOMAINS, required=True)
    meshp.add_argument("--refinements", type=int, default=0)
    meshp.add_argument("--out", default="out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command == "run":
            flag_values = {key: getattr(ns, key) for key in _KEY_TYPES}
            config = parse_config(flag_values, config_file=ns.config)
            return run(config)
        if ns.command == "mesh":
            return dump_mesh(ns.domain, ns.refinements, ns.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except meshmod.MeshError as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
