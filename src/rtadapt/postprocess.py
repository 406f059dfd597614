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
from .assembly import Discretization, MixedSolution, dot, mat_vec, \
    reconstruct
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

    u_h is evaluated once at the edge points.  On the side of element K
    the trace is t . W u_h = v . u_h with v = W^T t, W the weighting
    tensor of K, so each weighting takes one vector per (edge, side).
    Interior edges take the difference of the two one-sided traces;
    boundary edges take the one-sided trace.  These integrands are
    quadratic along each edge, so the two-point ``rule`` is exact for
    them.  ``boundary_slopes``, a callable ``slopes(edge_ids, pts)``
    returning -dp/dt there, optionally supplies the expected tangential
    trace of S^-1 u_h on boundary edges (from boundary data), scaled by
    sqrt(c_S) for S^-1/2 u_h, which is subtracted before squaring.  That
    trace is as smooth as the data but not polynomial, so boundary edges
    are then integrated with ``quad.DATA_EDGE`` instead (20-point Gauss;
    on the benchmark meshes it agrees with a 40-point rule to about 1e-11
    relative, 4e-8 on the coarsest internal-layer mesh).
    """
    fields = flux.fields
    weightings = (fields.Sinv, fields.Sinvhalf)
    out = (np.empty(mesh.num_edges), np.empty(mesh.num_edges))
    left = mesh.edge_elems[:, 0]
    right = mesh.edge_elems[:, 1]

    inner = np.flatnonzero(right >= 0)
    pts = _edge_points(mesh, inner, rule)
    tangents = mesh.edge_tangent[inner]
    u_left = flux.u(left[inner], pts)
    u_right = flux.u(right[inner], pts)
    for jumps, mat in zip(out, weightings):
        jump = _tangential_trace(mat, left[inner], tangents, u_left) \
            - _tangential_trace(mat, right[inner], tangents, u_right)
        jumps[inner] = rule.integrate(jump**2, mesh.edge_length[inner])

    bdry = np.flatnonzero(right < 0)
    if boundary_slopes is not None:
        rule = quad.DATA_EDGE
    pts = _edge_points(mesh, bdry, rule)
    tangents = mesh.edge_tangent[bdry]
    u_left = flux.u(left[bdry], pts)
    slopes = (0.0, 0.0)
    if boundary_slopes is not None:
        slope = boundary_slopes(bdry, pts)
        slopes = (slope, np.sqrt(fields.c_S[left[bdry]])[:, None] * slope)
    for jumps, mat, slope in zip(out, weightings, slopes):
        jump = _tangential_trace(mat, left[bdry], tangents, u_left) - slope
        jumps[bdry] = rule.integrate(jump**2, mesh.edge_length[bdry])
    return out


def _edge_points(mesh: Triangulation, edges: np.ndarray,
                 rule: quad.Rule) -> np.ndarray:
    """Physical nodes (ne, nq, 2) of an edge rule on ``edges``."""
    return rule.physical_points(mesh.vert_coords[mesh.edge_verts[edges]])


def _tangential_trace(mat: np.ndarray, elems: np.ndarray,
                      tangents: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Tangential component t . W u_h of the flux weighted by the tensors
    ``mat`` (NT, 2, 2) of ``elems``, from the values (ne, nq, 2) of u_h at
    the points of edges with unit ``tangents`` (ne, 2), as v . u_h with
    v = W^T t."""
    v = np.column_stack(mat_vec(mat[elems].swapaxes(1, 2), tangents))
    return dot(values, v[:, None])


def nodal_average(mesh: Triangulation, pressure: np.ndarray) -> np.ndarray:
    """Vertex rendering values: mean of the incident element constants."""
    sums = np.zeros(mesh.num_vertices)
    counts = np.zeros(mesh.num_vertices)
    for i in range(3):
        np.add.at(sums, mesh.elem_verts[:, i], pressure)
        np.add.at(counts, mesh.elem_verts[:, i], 1.0)
    return sums / np.maximum(counts, 1.0)
