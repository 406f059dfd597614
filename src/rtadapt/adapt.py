"""Bulk marking and the adaptive solve-estimate-mark-refine loop."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import assembly, solver, verify
from .estimators import THEOREM, TOTAL, EstimatorBreakdown, EstimatorContext
from .mesh import INTERIOR, Triangulation
from .problem import ExactSolution, ProblemData


class AdaptError(Exception):
    pass


# refinement modes: Dörfler marking, or every element bisected twice
ADAPTIVE = "adaptive"
UNIFORM = "uniform"
MODES = (ADAPTIVE, UNIFORM)

# indicators within this relative distance of each other form a tie group
TIE_TOL = 1e-10


@dataclass
class RunRecord:
    """One adaptive iteration: counts, errors and estimator totals."""

    k: int
    dof: int
    energy_error: float          # nan when no exact solution is supplied
    totals: dict                 # EstimatorBreakdown.family_totals()
    wall_time: float

    @property
    def eta(self) -> float:
        """Global total of the active indicator."""
        return self.totals[TOTAL]


@dataclass
class RunResult:
    records: list
    mesh: Triangulation
    solution: assembly.MixedSolution
    breakdown: EstimatorBreakdown


def dorfler_mark(indicators: np.ndarray, theta: float) -> np.ndarray:
    """Bulk set closed under ties: the smallest prefix of the elements
    sorted by decreasing indicator whose squared sum reaches theta^2 times
    the squared total, extended by every element whose indicator lies
    within ``TIE_TOL`` relative of the last one in that prefix.

    The bulk criterion holds, and the set is minimal up to that last tie
    group.  Which of several (nearly) equal indicators reach the prefix
    depends on round-off and on the element numbering; closing the group
    makes the marked set a function of the indicator values alone, the
    same under any permutation of the elements.

    Returns ascending element ids; empty when all indicators vanish.
    """
    indicators = np.asarray(indicators, dtype=float)
    if not 0.0 < theta <= 1.0:
        raise AdaptError(f"marking fraction theta={theta} outside (0, 1]")
    if np.any(indicators < 0.0):
        raise AdaptError("negative indicator")
    squares = indicators**2
    total = squares.sum()
    if total == 0.0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-indicators, kind="stable")
    csum = np.cumsum(squares[order])
    target = theta**2 * total
    # tolerate roundoff so exact-fraction prefixes are accepted
    cut = int(np.searchsorted(csum, target * (1.0 - 1e-12))) + 1
    negated = -indicators[order]                  # ascending
    last = negated[min(cut, order.size) - 1]
    cut = int(np.searchsorted(negated, last * (1.0 - TIE_TOL), side="right"))
    marked = order[:cut]
    marked = marked[indicators[marked] > 0.0]
    return np.sort(marked)


def run_iteration(mesh: Triangulation, problem: ProblemData, scheme: str,
                  subtract_boundary_data: bool = True
                  ) -> tuple[assembly.MixedSolution, EstimatorContext]:
    """Assemble, solve and set up the estimators on one mesh from one shared
    Discretization, which ``ctx.flux`` carries on to the energy error.

    The estimators always subtract the Dirichlet datum's slope from the
    boundary traces.  ``subtract_boundary_data`` remains because the
    benchmark harness (``perfbench/study.py``) passes True in its place;
    False is refused.
    """
    if not subtract_boundary_data:
        raise AdaptError("the estimators always subtract the boundary data")
    if scheme not in assembly.SCHEMES:
        raise AdaptError(f"unknown scheme {scheme!r}")
    solver.check_dimension(np.count_nonzero(mesh.edge_flag == INTERIOR)
                           + (scheme == assembly.UPWIND) * mesh.num_elements)
    assemble = (assembly.assemble_centered if scheme == assembly.CENTERED
                else assembly.assemble_upwind)
    disc = assembly.Discretization(mesh, problem)
    solution = solver.solve(assemble(disc))
    return solution, EstimatorContext(disc, solution)


def adaptive_loop(problem: ProblemData, initial_mesh: Triangulation,
                  scheme: str = assembly.CENTERED, policy: str = THEOREM,
                  theta: float = 0.5, mode: str = ADAPTIVE,
                  max_dof: int = 100_000, max_iter: int = 60,
                  exact: ExactSolution | None = None) -> RunResult:
    """Iterate solve -> estimate -> mark -> refine until a stop criterion.

    Stops after recording the first iteration whose element count reaches
    ``max_dof``, after ``max_iter`` records, or when the marked set is
    empty (indicator stagnation).  A ``UNIFORM`` step halves h by two
    ``uniform_refine`` rounds, so it can overshoot ``max_dof`` up to 4x.
    Deterministic for fixed inputs.
    """
    if mode not in MODES:
        raise AdaptError(f"unknown refinement mode {mode!r}")
    mesh = initial_mesh
    records = []
    last = None
    for k in range(1, max_iter + 1):
        start = time.perf_counter()
        solution, ctx = run_iteration(mesh, problem, scheme)
        breakdown = ctx.compute(policy)
        energy = math.nan if exact is None else verify.energy_error(
            mesh, ctx.fields, ctx.flux, solution.pressure, exact)[0]
        records.append(RunRecord(
            k=k, dof=mesh.num_elements, energy_error=energy,
            totals=breakdown.family_totals(),
            wall_time=time.perf_counter() - start,
        ))
        last = RunResult(records, mesh, solution, breakdown)
        if mesh.num_elements >= max_dof or k == max_iter:
            break
        if mode == ADAPTIVE:
            marked = dorfler_mark(breakdown.total, theta)
            if marked.size == 0:
                break
        # the next solve runs without this iteration's arrays
        last = solution = ctx = breakdown = None
        mesh = (mesh.uniform_refine().uniform_refine() if mode == UNIFORM
                else mesh.refine(marked))
    return last
