"""Elementwise quadratic postprocessing of the mixed solution.

On each element the postprocessed scalar is the quadratic whose weighted
gradient reproduces the negative flux reconstruction exactly and whose
element mean equals the pressure constant.  Polynomials are stored in
global monomial coordinates (1, x, y, x^2, xy, y^2) so that edge traces
and tangential jumps can be evaluated without reference mappings.
"""

from __future__ import annotations

import numpy as np

from . import quadrature as quad
from .assembly import Discretization, MixedSolution, mat_vec, reconstruct
from .mesh import DIRICHLET, Triangulation
from .problem import CoefficientFields, ProblemDataError


class FluxField:
    """Elementwise affine flux reconstruction u_h|_K = a_K + b_K x."""

    def __init__(self, disc: Discretization, solution: MixedSolution):
        self.disc = disc
        self.a, self.b = reconstruct(disc.mesh, solution)

    def u(self, elems, pts):
        """u_h on the given elements at points of shape (..., 2)."""
        return self.a[elems][..., None, :] \
            + self.b[elems][..., None, None] * pts


def build_ptilde(mesh: Triangulation, fields: CoefficientFields,
                 solution: MixedSolution) -> np.ndarray:
    """Monomial coefficients (NT, 6) of the postprocessed scalar.

    grad ptilde = -S^-1 (a + b x) elementwise; the constant is fixed so
    the element mean equals the pressure constant (quadratic integrands,
    midpoint rule exact).
    """
    a, b = reconstruct(mesh, solution)
    A = fields.Sinv
    coeffs = np.zeros((mesh.num_elements, 6))
    coeffs[:, 1:3] = -np.column_stack(mat_vec(A, a))         # x and y
    coeffs[:, 3] = -0.5 * b * A[:, 0, 0]
    coeffs[:, 4] = -b * A[:, 0, 1]
    coeffs[:, 5] = -0.5 * b * A[:, 1, 1]

    pts = quad.MIDPOINT.physical_points(mesh.elem_coords)
    mean_wo_const = quad.MIDPOINT.integrate(ptilde_values(coeffs, pts), 1.0)
    coeffs[:, 0] = solution.pressure - mean_wo_const
    return coeffs


def ptilde_values(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Evaluate the postprocessed scalar; pts shaped (NT, nq, 2) or
    (NT, 2)."""
    x = pts[..., 0]
    y = pts[..., 1]
    c = coeffs[:, None, :] if pts.ndim == 3 else coeffs
    return (c[..., 0] + c[..., 1] * x + c[..., 2] * y + c[..., 3] * x * x
            + c[..., 4] * x * y + c[..., 5] * y * y)


def tangential_jump_sq(flux: FluxField) -> tuple[np.ndarray, np.ndarray]:
    """Edge integrals of the squared tangential jumps of S^-1 u_h and of
    S^-1/2 u_h, two arrays of shape (NE,) on the mesh of ``flux``.

    Each side's trace is t . W u_h = v . u_h, v = W^T t (``_traces``).
    Interior edges take the difference of the two one-sided traces, a
    quadratic along the edge that ``quad.EDGE_GAUSS2`` integrates exactly.
    Boundary edges take the one-sided trace minus the trace that the
    Dirichlet datum implies (``datum_slopes``, zero on Neumann edges).
    That is as smooth as the datum but not polynomial, so boundary edges
    are integrated with ``quad.DATA_EDGE`` (20-point Gauss; on the
    benchmark meshes it agrees with a 40-point rule to about 1e-11
    relative, 4e-8 on the coarsest internal-layer mesh).
    """
    mesh = flux.disc.mesh
    out = (np.empty(mesh.num_edges), np.empty(mesh.num_edges))
    left, right = mesh.edge_elems[:, 0], mesh.edge_elems[:, 1]
    h = mesh.edge_length

    inner = np.flatnonzero(right >= 0)
    x, y = _edge_points(mesh, inner, quad.EDGE_GAUSS2)
    for jumps, one, other in zip(out, _traces(flux, left, inner, x, y),
                                 _traces(flux, right, inner, x, y)):
        jumps[inner] = _integrate_sq(quad.EDGE_GAUSS2, one - other, h[inner])

    bdry = np.flatnonzero(right < 0)
    x, y = _edge_points(mesh, bdry, quad.DATA_EDGE)
    for jumps, trace, slope in zip(out, _traces(flux, left, bdry, x, y),
                                   datum_slopes(flux.disc, bdry, x, y)):
        jumps[bdry] = _integrate_sq(quad.DATA_EDGE, trace - slope, h[bdry])
    return out


def datum_slopes(disc: Discretization, edges: np.ndarray, x: np.ndarray,
                 y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tangential traces of S^-1 u and of S^-1/2 u that the Dirichlet
    datum g implies at the points (x, y), of shape (nq, ne), of the
    boundary ``edges``: -dg/dt and sqrt(c_S) times it, zero off
    Dirichlet edges.

    gamma_t(S^-1 u) = -dp/dt on the boundary, with dg/dt taken by central
    differences along the edge line.  S^-1/2 u has sqrt(c_S) times that
    trace only for a scalar diffusion tensor, so a nonzero slope on an
    edge whose element has a non-scalar tensor raises ProblemDataError.
    """
    mesh, fields = disc.mesh, disc.fields
    slope = np.zeros(x.shape)
    cols = np.flatnonzero(mesh.edge_flag[edges] == DIRICHLET)
    if cols.size:
        e = edges[cols]
        delta = 6e-6 * mesh.edge_length[e]
        dx = delta * mesh.edge_tangent[e, 0]
        dy = delta * mesh.edge_tangent[e, 1]
        x, y = x[:, cols], y[:, cols]
        datum = disc.problem.dirichlet_data
        slope[:, cols] = -(datum(x + dx, y + dy) - datum(x - dx, y - dy)) \
            / (2.0 * delta)
    elems = mesh.edge_elems[edges, 0]
    c_S, C_S = fields.c_S[elems], fields.C_S[elems]
    clash = np.flatnonzero((C_S - c_S > 1e-12 * C_S) & slope.any(axis=0))
    if clash.size:
        raise ProblemDataError(
            f"the Dirichlet datum has a slope on edge {edges[clash[0]]}, "
            "whose diffusion tensor is not scalar; the S^-1/2 boundary "
            "trace needs a scalar tensor there")
    return slope, np.sqrt(c_S) * slope


def _edge_points(mesh: Triangulation, edges: np.ndarray, rule: quad.Rule
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The x and y coordinates (nq, ne) of the nodes of an edge rule on
    ``edges``, each equal to that component of ``rule.physical_points``."""
    ends = np.take(mesh.edge_verts, edges, axis=0).T
    return tuple(rule.points @ mesh.vert_coords[:, k][ends] for k in range(2))


def _traces(flux: FluxField, side: np.ndarray, edges: np.ndarray,
            x: np.ndarray, y: np.ndarray):
    """The traces t . W u_h (nq, ne) of the elements ``side[edges]`` at
    the points (x, y) of ``edges``, for W = S^-1 and then S^-1/2, from
    per-edge rows gathered from column views (faster in numpy)."""
    elems = side[edges]
    b = flux.b[elems]
    u0, u1 = (flux.a[:, k][elems] + b * xk for k, xk in enumerate((x, y)))
    t0, t1 = (flux.disc.mesh.edge_tangent[:, k][edges] for k in range(2))
    for mat in (flux.disc.fields.Sinv, flux.disc.fields.Sinvhalf):
        (w00, w01), (w10, w11) = ([mat[:, i, j][elems] for j in range(2)]
                                  for i in range(2))
        yield u0 * (w00 * t0 + w10 * t1) + u1 * (w01 * t0 + w11 * t1)


def _integrate_sq(rule: quad.Rule, values: np.ndarray, length) -> np.ndarray:
    """``rule.integrate`` of the squares of ``values`` (nq, ne)."""
    return rule.integrate(np.ascontiguousarray((values**2).T), length)


def nodal_average(mesh: Triangulation, pressure: np.ndarray) -> np.ndarray:
    """Vertex rendering values: mean of the incident element constants."""
    # local vertex 0 of every element, then 1, then 2
    verts, nv = mesh.elem_verts.T.ravel(), mesh.num_vertices
    sums = np.bincount(verts, np.tile(pressure, 3), nv)
    return sums / np.maximum(np.bincount(verts, minlength=nv), 1.0)
