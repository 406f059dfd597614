"""Sparse direct solution of the assembled systems.

Both schemes arrive hybridized (:class:`~rtadapt.assembly.HybridSystem`):
the centered one on the interior-edge multipliers, the upwind one on the
multipliers and the element pressures.  One LU factorization of that
system is followed by the element-by-element recovery of the fluxes and
pressures.  The systems are nonsymmetric in general (convection) and
moderately conditioned under the coefficient contrasts exercised here, so
a direct LU factorization removes iterative-tolerance noise from the
estimator studies.

The pressure diagonal of the upwind system holds -B^T M^-1 B < 0, so it
never vanishes, and the factorization runs in SuperLU's symmetric mode:
minimum degree on the pattern of A + A^T, with a diagonal pivot accepted
down to 1% of its column's largest entry.  Minimum degree depends
strongly on the initial numbering (George & Liu, SIAM Review 1989) and
degenerates on the numbering that uniform refinement leaves, so the rows
and columns are first permuted by reverse Cuthill-McKee on that pattern.
Every solve is checked by the relative residual of the full mixed
equations.
"""

from __future__ import annotations

import ctypes
import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import MatrixRankWarning

from .assembly import HybridSystem, MixedSolution, SingularSystemError, \
    SolverError

MAX_DIMENSION = 500_000
RESIDUAL_TOL = 1e-10

# SuperLU settings of every factorization, after the RCM pre-order, with
# supernodes (Demmel et al., SIMAX 1999) smaller than SuperLU's defaults
PERMC_SPEC = "MMD_AT_PLUS_A"
DIAG_PIVOT_THRESH = 0.01
RELAX = 4
PANEL_SIZE = 4
OPTIONS = {"SymmetricMode": True}

# glibc keeps freed heap pages resident: its trim threshold follows the
# largest block freed so far, up to 64 MiB, so SuperLU's workspace and
# the arrays of earlier iterations would otherwise stay in the process's
# memory under every later factorization and the artifact writers.
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):    # not glibc
    _malloc_trim = None


def _diagnose_singularity(system: HybridSystem) -> str:
    absmat = abs(system.matrix)
    row_sums = np.asarray(absmat.sum(axis=1)).ravel()
    dead = np.flatnonzero(row_sums == 0.0)
    if dead.size:
        return f"zero pivot row {int(dead[0])}"
    return "singular factorization (no empty row; likely rank deficiency)"


def rcm_permuted(matrix: sp.spmatrix) -> tuple[sp.csc_matrix, np.ndarray]:
    """The matrix with rows and columns in reverse Cuthill-McKee order on
    the pattern of A + A^T, and that order: ``permuted[i, j] =
    matrix[order[i], order[j]]``."""
    matrix = matrix.tocsc()
    structure = sp.csc_matrix((np.ones(matrix.nnz, dtype=np.int8),
                               matrix.indices, matrix.indptr),
                              shape=matrix.shape)
    order = reverse_cuthill_mckee(structure + structure.T,
                                  symmetric_mode=True)
    return matrix[order][:, order].tocsc(), order


def solve(system: HybridSystem, num_edges: int) -> MixedSolution:
    """Factorize and solve, enforcing a relative residual of 1e-10 on the
    mixed equations.

    Raises SingularSystemError on factorization breakdown, naming rows in
    the system's own numbering, and SolverError when the residual
    tolerance is not met (the achieved residual is part of the message).
    """
    if system.dimension > MAX_DIMENSION:
        raise SolverError(
            f"system dimension {system.dimension} exceeds {MAX_DIMENSION}"
        )
    permuted, order = rcm_permuted(system.matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            # the factors are freed before the recovery below
            y = spla.splu(permuted, permc_spec=PERMC_SPEC,
                          diag_pivot_thresh=DIAG_PIVOT_THRESH, relax=RELAX,
                          panel_size=PANEL_SIZE,
                          options=OPTIONS).solve(system.rhs[order])
        except (RuntimeError, MatrixRankWarning) as exc:
            raise SingularSystemError(
                f"{_diagnose_singularity(system)}: {exc}"
            ) from exc
    if _malloc_trim is not None:
        _malloc_trim(0)       # hand the freed LU workspace back to the OS
    x = np.empty_like(y)
    x[order] = y
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
