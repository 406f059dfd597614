"""Bulk marking and the adaptive solve-estimate-mark-refine loop."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import assembly, solver, verify
from .estimators import EstimatorBreakdown, EstimatorContext
from .mesh import Triangulation
from .problem import ExactSolution, ProblemData


class AdaptError(Exception):
    pass


# indicators within this relative distance of each other form a tie group
TIE_TOL = 1e-10


@dataclass
class RunRecord:
    """One adaptive iteration: counts, errors and estimator totals."""

    k: int
    dof: int
    energy_error: float          # nan when no exact solution is supplied
    eta: float                   # global total of the active indicator
    eta_D: float
    eta_R: float
    eta_NC: float
    eta_C: float
    eta_U: float
    xi: float
    wall_time: float


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
                  subtract_boundary_data: bool = False
                  ) -> tuple[assembly.MixedSolution, EstimatorContext]:
    """Assemble, solve and set up the estimators on one mesh from one shared
    Discretization, which ``ctx.flux`` carries on to the energy error."""
    if scheme == assembly.CENTERED:
        assemble = assembly.assemble_centered
    elif scheme == assembly.UPWIND:
        assemble = assembly.assemble_upwind
    else:
        raise AdaptError(f"unknown scheme {scheme!r}")
    disc = assembly.Discretization(mesh, problem)
    solution = solver.solve(assemble(disc))
    ctx = EstimatorContext(disc, solution,
                           subtract_boundary_data=subtract_boundary_data)
    return solution, ctx


def adaptive_loop(problem: ProblemData, initial_mesh: Triangulation,
                  scheme: str = assembly.CENTERED, policy: str = "theorem",
                  theta: float = 0.5, mode: str = "adaptive",
                  max_dof: int = 100_000, max_iter: int = 60,
                  exact: ExactSolution | None = None) -> RunResult:
    """Iterate solve -> estimate -> mark -> refine until a stop criterion.

    Stops after recording the first iteration whose element count reaches
    ``max_dof``, after ``max_iter`` records, or when the marked set is
    empty (indicator stagnation).  Deterministic for fixed inputs.

    The estimators subtract the boundary data: the boundary face terms
    measure the mismatch against the Dirichlet datum rather than the raw
    one-sided trace, which is the consistent reading for nonhomogeneous
    data and reduces to the plain trace when the datum vanishes.
    """
    if mode not in ("adaptive", "uniform"):
        raise AdaptError(f"unknown refinement mode {mode!r}")
    mesh = initial_mesh
    records = []
    last = None
    for k in range(1, max_iter + 1):
        start = time.perf_counter()
        solution, ctx = run_iteration(mesh, problem, scheme, True)
        breakdown = ctx.compute(policy)
        if exact is not None:
            energy, _ = verify.energy_error(mesh, ctx.fields, ctx.flux,
                                            solution.pressure, exact)
        else:
            energy = math.nan
        totals = breakdown.family_totals()
        records.append(RunRecord(
            k=k, dof=mesh.num_elements, energy_error=energy,
            eta=totals["total"], eta_D=totals["eta_D"],
            eta_R=totals["eta_R"], eta_NC=totals["eta_NC"],
            eta_C=totals["eta_C"], eta_U=totals["eta_U"], xi=totals["xi"],
            wall_time=time.perf_counter() - start,
        ))
        last = RunResult(records, mesh, solution, breakdown)
        if mesh.num_elements >= max_dof or k == max_iter:
            break
        if mode == "uniform":
            marked = np.arange(mesh.num_elements)
        else:
            marked = dorfler_mark(breakdown.total, theta)
        if marked.size == 0:
            break
        # the next solve runs without this iteration's arrays
        last = solution = ctx = breakdown = None
        mesh = mesh.refine(marked)
    return last
