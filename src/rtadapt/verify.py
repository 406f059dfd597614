"""True-error computation in the weighted norm, convergence rates, effectivity."""

from __future__ import annotations

import numpy as np

from . import quadrature as quad
from .mesh import Triangulation
from .postprocess import FluxField
from .problem import ExactSolution


class VerifyError(Exception):
    pass


def energy_error(mesh: Triangulation, fields, flux: FluxField,
                 pressure: np.ndarray, exact: ExactSolution
                 ) -> tuple[float, np.ndarray]:
    """Weighted stress-plus-displacement error against the exact solution.

    E_K^2 = ||S^-1/2 (u - u_h)||_K^2 + c_wr ||p - p_K||_K^2, the first
    term as the quadratic form (u - u_h)^T S^-1 (u - u_h), with c_wr = r
    since w is constant per element (div w = 0).  Both terms
    are integrated by the seven-point degree-5 rule, except on elements
    having one of ``exact.singular_points`` as a vertex: there the
    integrand behaves like r^(2 alpha - 2) and the seven-point rule
    misses a fixed fraction of it on every mesh, so those elements use
    the graded collapsed rule ``quad.SINGULAR_VERTEX`` with the collapse
    at that vertex.  No rule evaluates the exact fields at a vertex.
    """
    per_elem_sq = _error_sq(quad.SEVEN_POINT, flux.disc.seven_points,
                            slice(None), mesh, fields, flux, pressure, exact)
    elems, first = _singular_vertex_elements(mesh, exact.singular_points)
    if elems.size:
        order = (first[:, None] + np.arange(3)) % 3
        rotated = np.take_along_axis(mesh.elem_coords[elems],
                                     order[..., None], axis=1)
        rule = quad.SINGULAR_VERTEX
        per_elem_sq[elems] = _error_sq(rule, rule.physical_points(rotated),
                                       elems, mesh, fields, flux, pressure,
                                       exact)
    per_elem = np.sqrt(per_elem_sq)
    return float(np.sqrt(per_elem_sq.sum())), per_elem


def _error_sq(rule: quad.Rule, pts: np.ndarray, elems,
              mesh: Triangulation, fields, flux: FluxField,
              pressure: np.ndarray, exact: ExactSolution) -> np.ndarray:
    """E_K^2 on ``elems`` (indices or a slice) by ``rule`` at its physical
    nodes ``pts``."""
    area = mesh.elem_area[elems]
    x, y = pts[..., 0], pts[..., 1]
    u, p = exact.u_and_p(x, y)
    a, b = flux.a[elems], flux.b[elems, None]
    d0 = u[..., 0] - (a[:, 0, None] + b * x)
    d1 = u[..., 1] - (a[:, 1, None] + b * y)
    A = fields.Sinv[elems]
    form = A[:, 0, 0, None] * d0 * d0 \
        + (A[:, 0, 1] + A[:, 1, 0])[:, None] * d0 * d1 \
        + A[:, 1, 1, None] * d1 * d1
    stress_sq = rule.integrate(form, area)
    disp_sq = rule.integrate((p - pressure[elems, None]) ** 2, area)
    return stress_sq + fields.r[elems] * disp_sq


def _singular_vertex_elements(mesh: Triangulation, points
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Elements with a vertex at one of ``points``, and that vertex's
    local index (the first one if several qualify)."""
    hit = np.zeros(mesh.num_vertices, dtype=bool)
    for x, y in points:
        hit |= (np.abs(mesh.vert_coords[:, 0] - x) <= 1e-12) \
            & (np.abs(mesh.vert_coords[:, 1] - y) <= 1e-12)
    at = hit[mesh.elem_verts.T]                  # (3, NT)
    elems = np.flatnonzero(at.any(axis=0))
    return elems, np.where(at[0, elems], 0, np.where(at[1, elems], 1, 2))


def eoc(dofs, errors) -> np.ndarray:
    """Experimental orders of convergence between consecutive records.

    EOC_k = log(e_{k-1} / e_k) / log(dof_k / dof_{k-1}) aligned with
    iterations 2..k; invalid entries (nonpositive errors, non-increasing
    dofs) are flagged as nan rather than fabricated.
    """
    dofs = np.asarray(dofs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if dofs.size != errors.size:
        raise VerifyError("dof and error histories differ in length")
    if dofs.size < 2:
        raise VerifyError("need at least two records for a rate")
    out = np.full(dofs.size - 1, np.nan)
    for k in range(1, dofs.size):
        if (errors[k - 1] > 0.0 and errors[k] > 0.0
                and dofs[k] > dofs[k - 1]):
            out[k - 1] = np.log(errors[k - 1] / errors[k]) \
                / np.log(dofs[k] / dofs[k - 1])
    return out


def effectivity(etas, errors) -> np.ndarray:
    """Per-iteration ratio estimator / true error; nan where E vanishes."""
    etas = np.asarray(etas, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if etas.size != errors.size:
        raise VerifyError("histories differ in length")
    out = np.full(etas.size, np.nan)
    good = errors > 0.0
    out[good] = etas[good] / errors[good]
    return out
