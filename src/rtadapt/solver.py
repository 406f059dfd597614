"""Sparse direct solution of the assembled systems.

The centered scheme arrives hybridized (:class:`~rtadapt.assembly.HybridSystem`):
one LU factorization of the interior-edge multiplier system, after which
the fluxes and pressures are recovered element by element.  The upwind
scheme arrives as the saddle-point system itself.  Both are nonsymmetric
in general and moderately conditioned under the coefficient contrasts
exercised here, so a direct LU factorization with partial pivoting (SuperLU
with its default COLAMD ordering) removes iterative-tolerance noise from
the estimator studies.  Every solve is checked by the relative residual
of the full mixed equations.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import MatrixRankWarning
import warnings

from .assembly import (HybridSystem, MixedSolution, SaddleSystem,
                       SingularSystemError, SolverError)

MAX_DIMENSION = 500_000
RESIDUAL_TOL = 1e-10


def _diagnose_singularity(system: SaddleSystem | HybridSystem) -> str:
    absmat = abs(system.matrix)
    row_sums = np.asarray(absmat.sum(axis=1)).ravel()
    dead = np.flatnonzero(row_sums == 0.0)
    if dead.size:
        return f"zero pivot row {int(dead[0])}"
    return "singular factorization (no empty row; likely rank deficiency)"


def solve(system: SaddleSystem | HybridSystem, num_edges: int
          ) -> MixedSolution:
    """Factorize and solve, enforcing a relative residual of 1e-10 on the
    mixed equations.

    Raises SingularSystemError on factorization breakdown and SolverError
    when the residual tolerance is not met (the achieved residual is part
    of the message).
    """
    if system.dimension > MAX_DIMENSION:
        raise SolverError(
            f"system dimension {system.dimension} exceeds {MAX_DIMENSION}"
        )
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            # the factors are freed before the recovery below
            x = spla.splu(system.matrix.tocsc()).solve(system.rhs)
        except (RuntimeError, MatrixRankWarning) as exc:
            raise SingularSystemError(
                f"{_diagnose_singularity(system)}: {exc}"
            ) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(_diagnose_singularity(system))

    solution, residual, rhs = system.recover(x, num_edges)
    norm_b = np.linalg.norm(rhs)
    residual = np.linalg.norm(residual)
    relative = residual / norm_b if norm_b > 0.0 else residual
    if relative > RESIDUAL_TOL:
        raise SolverError(
            f"solver residual {relative:.3e} exceeds {RESIDUAL_TOL:.0e}"
        )
    return solution
