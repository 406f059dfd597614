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
from .mesh import Triangulation
from .problem import CoefficientFields


class FluxField:
    """Elementwise affine flux reconstruction u_h|_K = a_K + b_K x."""

    def __init__(self, disc: Discretization, solution: MixedSolution):
        self.disc = disc
        self.fields = disc.fields
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


def tangential_jump_sq(mesh: Triangulation, flux: FluxField,
                       boundary_slopes=None, rule: quad.Rule = quad.EDGE_GAUSS2
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Edge integrals of the squared tangential jumps of S^-1 u_h and of
    S^-1/2 u_h, two arrays of shape (NE,).

    Each side's trace is t . W u_h = v . u_h, v = W^T t (``_traces``).
    Interior edges take the difference of the two one-sided traces;
    boundary edges take the one-sided trace.  These integrands are
    quadratic along each edge, so the two-point ``rule`` is exact for them.
    ``boundary_slopes``, a callable ``slopes(edge_ids, x, y)``
    returning -dp/dt at the points (x, y) of shape (nq, ne), optionally
    supplies the expected tangential trace of S^-1 u_h on boundary edges
    (from boundary data), scaled by sqrt(c_S) for S^-1/2 u_h, which is
    subtracted before squaring.  That trace is as smooth as the data but
    not polynomial, so boundary edges are then integrated with
    ``quad.DATA_EDGE`` instead (20-point Gauss; on the benchmark meshes it
    agrees with a 40-point rule to about 1e-11 relative, 4e-8 on the
    coarsest internal-layer mesh).
    """
    out = (np.empty(mesh.num_edges), np.empty(mesh.num_edges))
    left, right = mesh.edge_elems[:, 0], mesh.edge_elems[:, 1]
    h = mesh.edge_length

    inner = np.flatnonzero(right >= 0)
    x, y = _edge_points(mesh, inner, rule)
    for jumps, one, other in zip(out, _traces(mesh, flux, left, inner, x, y),
                                 _traces(mesh, flux, right, inner, x, y)):
        jumps[inner] = _integrate_sq(rule, one - other, h[inner])

    bdry = np.flatnonzero(right < 0)
    if boundary_slopes is not None:
        rule = quad.DATA_EDGE
    x, y = _edge_points(mesh, bdry, rule)
    slopes = (0.0, 0.0)
    if boundary_slopes is not None:
        slope = boundary_slopes(bdry, x, y)
        slopes = (slope, np.sqrt(flux.fields.c_S[left[bdry]]) * slope)
    for jumps, trace, slope in zip(out, _traces(mesh, flux, left, bdry, x, y),
                                   slopes):
        jumps[bdry] = _integrate_sq(rule, trace - slope, h[bdry])
    return out


def _edge_points(mesh: Triangulation, edges: np.ndarray, rule: quad.Rule
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The x and y coordinates (nq, ne) of the nodes of an edge rule on
    ``edges``, each equal to that component of ``rule.physical_points``."""
    ends = np.take(mesh.edge_verts, edges, axis=0).T
    return tuple(rule.points @ mesh.vert_coords[:, k][ends] for k in range(2))


def _traces(mesh: Triangulation, flux: FluxField, side: np.ndarray,
            edges: np.ndarray, x: np.ndarray, y: np.ndarray):
    """The traces t . W u_h (nq, ne) of the elements ``side[edges]`` at
    the points (x, y) of ``edges``, for W = S^-1 and then S^-1/2, from
    per-edge rows gathered from column views (faster in numpy)."""
    elems = side[edges]
    b = flux.b[elems]
    u0, u1 = (flux.a[:, k][elems] + b * xk for k, xk in enumerate((x, y)))
    t0, t1 = (mesh.edge_tangent[:, k][edges] for k in range(2))
    for mat in (flux.fields.Sinv, flux.fields.Sinvhalf):
        (w00, w01), (w10, w11) = ([mat[:, i, j][elems] for j in range(2)]
                                  for i in range(2))
        yield u0 * (w00 * t0 + w10 * t1) + u1 * (w01 * t0 + w11 * t1)


def _integrate_sq(rule: quad.Rule, values: np.ndarray, length) -> np.ndarray:
    """``rule.integrate`` of the squares of ``values`` (nq, ne)."""
    return rule.integrate(np.ascontiguousarray((values**2).T), length)


def nodal_average(mesh: Triangulation, pressure: np.ndarray) -> np.ndarray:
    """Vertex rendering values: mean of the incident element constants."""
    sums = np.zeros(mesh.num_vertices)
    counts = np.zeros(mesh.num_vertices)
    for i in range(3):
        np.add.at(sums, mesh.elem_verts[:, i], pressure)
        np.add.at(counts, mesh.elem_verts[:, i], 1.0)
    return sums / np.maximum(counts, 1.0)
