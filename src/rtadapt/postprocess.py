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
from .assembly import (Discretization, MixedSolution, apply_tensor, dot,
                       reconstruct)
from .mesh import Triangulation
from .problem import CoefficientFields


class FluxField:
    """Elementwise affine flux reconstruction with weighted evaluations."""

    def __init__(self, disc: Discretization, solution: MixedSolution):
        self.disc = disc
        self.fields = disc.fields
        self.a, self.b = reconstruct(disc.mesh, solution)

    def u(self, elems, pts):
        """u_h on the given elements at points of shape (..., 2)."""
        return self.a[elems][..., None, :] \
            + self.b[elems][..., None, None] * pts

    def weighted(self, elems, pts, weighting: str = "inv"):
        """S^-1 u_h or S^-1/2 u_h at points, per-element coefficients."""
        return self.weight(elems, self.u(elems, pts), weighting)

    def weight(self, elems, values, weighting: str = "inv"):
        """S^-1 or S^-1/2 of the given elements applied to values of u_h
        there, shaped (..., nq, 2)."""
        mat = self.fields.Sinv if weighting == "inv" else self.fields.Sinvhalf
        return apply_tensor(mat[elems], values)


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
    coeffs[:, 1:3] = -apply_tensor(A, a[:, None])[:, 0]     # x and y
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


def ptilde_gradient(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    x = pts[..., 0]
    y = pts[..., 1]
    c = coeffs[:, None, :]
    gx = c[..., 1] + 2.0 * c[..., 3] * x + c[..., 4] * y
    gy = c[..., 2] + c[..., 4] * x + 2.0 * c[..., 5] * y
    return np.stack([gx, gy], axis=-1)


def tangential_jump_sq(mesh: Triangulation, flux: FluxField,
                       weightings: tuple[str, ...], boundary_slopes=None,
                       rule: quad.EdgeRule = quad.EDGE_GAUSS2
                       ) -> tuple[np.ndarray, ...]:
    """Edge integrals of the squared tangential jump of the weighted flux,
    one array of shape (NE,) per weighting ("inv" for S^-1 u_h, "invsqrt"
    for S^-1/2 u_h).  u_h is evaluated once at the edge points and
    weighted once per weighting.

    Interior edges take the difference of the two one-sided traces;
    boundary edges take the one-sided trace.  These integrands are
    quadratic along each edge, so the two-point ``rule`` is exact for
    them.  ``boundary_slopes``, one ``slope(edge_ids, pts)`` per
    weighting, optionally supply the expected tangential trace on
    boundary edges (from boundary data), which is subtracted before
    squaring.  That trace is as smooth as the data but not polynomial, so
    boundary edges are then integrated with ``quad.DATA_EDGE`` instead
    (20-point Gauss; on the benchmark meshes it agrees with a 40-point
    rule to about 1e-11 relative, 4e-8 on the coarsest internal-layer
    mesh).
    """
    out = tuple(np.empty(mesh.num_edges) for _ in weightings)
    left = mesh.edge_elems[:, 0]
    right = mesh.edge_elems[:, 1]

    inner = np.flatnonzero(right >= 0)
    pts = _edge_points(mesh, inner, rule)
    u_left = flux.u(left[inner], pts)
    u_right = flux.u(right[inner], pts)
    for jumps, w in zip(out, weightings):
        jump = _tangential_trace(mesh, flux, w, left[inner], inner, u_left) \
            - _tangential_trace(mesh, flux, w, right[inner], inner, u_right)
        jumps[inner] = rule.integrate(jump**2, mesh.edge_length[inner])

    bdry = np.flatnonzero(right < 0)
    if boundary_slopes is not None:
        rule = quad.DATA_EDGE
    pts = _edge_points(mesh, bdry, rule)
    u_left = flux.u(left[bdry], pts)
    for k, (jumps, w) in enumerate(zip(out, weightings)):
        jump = _tangential_trace(mesh, flux, w, left[bdry], bdry, u_left)
        if boundary_slopes is not None:
            jump = jump - boundary_slopes[k](bdry, pts)
        jumps[bdry] = rule.integrate(jump**2, mesh.edge_length[bdry])
    return out


def _edge_points(mesh: Triangulation, edges: np.ndarray,
                 rule: quad.EdgeRule) -> np.ndarray:
    a = mesh.vert_coords[mesh.edge_verts[edges, 0]]
    b = mesh.vert_coords[mesh.edge_verts[edges, 1]]
    return rule.physical_points(a, b)                    # (ne, nq, 2)


def _tangential_trace(mesh: Triangulation, flux: FluxField, weighting: str,
                      elems: np.ndarray, edges: np.ndarray,
                      values: np.ndarray) -> np.ndarray:
    """Tangential component of the weighted flux of ``elems``, from the
    values of u_h at the points of ``edges``."""
    return dot(flux.weight(elems, values, weighting),
               mesh.edge_tangent[edges][:, None])


def nodal_average(mesh: Triangulation, pressure: np.ndarray) -> np.ndarray:
    """Vertex rendering values: mean of the incident element constants."""
    sums = np.zeros(mesh.num_vertices)
    counts = np.zeros(mesh.num_vertices)
    for i in range(3):
        np.add.at(sums, mesh.elem_verts[:, i], pressure)
        np.add.at(counts, mesh.elem_verts[:, i], 1.0)
    return sums / np.maximum(counts, 1.0)
