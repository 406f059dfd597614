"""Quadrature rules on triangles and edges.

Triangle rules are stored in barycentric coordinates with weights summing
to one; physical integrals are obtained by multiplying with the element
area.  Edge rules live on the unit interval with weights summing to one
and scale with the edge length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TriangleRule:
    """Quadrature rule on a triangle.

    Attributes
    ----------
    points : numpy.ndarray
        Barycentric coordinates, shape (n, 3), rows summing to one.
    weights : numpy.ndarray
        Weights summing to one, shape (n,).
    degree : int
        Largest total polynomial degree integrated exactly.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int

    @property
    def npoints(self) -> int:
        return self.points.shape[0]

    def physical_points(self, coords: np.ndarray) -> np.ndarray:
        """Map the rule nodes onto triangles.

        Parameters
        ----------
        coords : numpy.ndarray
            Vertex coordinates with shape (..., 3, 2).

        Returns
        -------
        numpy.ndarray of shape (..., n, 2).
        """
        return self.points @ coords

    def integrate(self, values: np.ndarray, area) -> np.ndarray:
        """Integrate nodal values over triangles of the given areas.

        ``values`` has shape (..., n); ``area`` broadcasts against the
        leading axes.
        """
        return values @ self.weights * area


@dataclass(frozen=True)
class EdgeRule:
    """Gauss rule on the unit interval (weights sum to one)."""

    points: np.ndarray
    weights: np.ndarray
    degree: int

    @property
    def npoints(self) -> int:
        return self.points.shape[0]

    def physical_points(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Map nodes onto segments a->b; a, b have shape (..., 2)."""
        t = self.points
        return a[..., None, :] * (1.0 - t)[:, None] + b[..., None, :] * t[:, None]

    def integrate(self, values: np.ndarray, length) -> np.ndarray:
        return values @ self.weights * length


def midpoint_rule() -> TriangleRule:
    """Edge-midpoint rule, exact for quadratics."""
    pts = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    wts = np.full(3, 1.0 / 3.0)
    return TriangleRule(pts, wts, degree=2)


def seven_point_rule() -> TriangleRule:
    """Seven-point degree-5 rule (centroid plus two symmetric orbits)."""
    s15 = math.sqrt(15.0)
    a = (6.0 + s15) / 21.0
    b = (6.0 - s15) / 21.0
    wa = (155.0 + s15) / 1200.0
    wb = (155.0 - s15) / 1200.0
    pts = [[1.0 / 3.0] * 3]
    wts = [9.0 / 40.0]
    for c, w in ((a, wa), (b, wb)):
        rest = 1.0 - 2.0 * c
        pts += [[rest, c, c], [c, rest, c], [c, c, rest]]
        wts += [w, w, w]
    return TriangleRule(np.array(pts), np.array(wts), degree=5)


def graded_collapsed_rule(n: int = 10, grading: int = 8) -> TriangleRule:
    """Collapsed Gauss rule graded toward vertex 0 (point-singularity rule).

    An n-by-n Gauss-Legendre grid on (tau, t) in the unit square is mapped
    by s = tau^grading and barycentric coordinates (1 - s, s(1-t), s t),
    so the Duffy factor s cancels one power of the distance to vertex 0
    and the grading clusters nodes there.  Integrands behaving like
    r^beta near vertex 0 with beta > -2 (r the distance to that vertex)
    become smooth enough in tau for plain Gauss rules.  Polynomial
    exactness is given up for that: only constants are integrated
    exactly, hence degree 0.  No node lies on vertex 0.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (x + 1.0)
    wts_1d = 0.5 * w
    TAU, T = np.meshgrid(nodes, nodes, indexing="ij")
    WTAU, WT = np.meshgrid(wts_1d, wts_1d, indexing="ij")
    S = TAU**grading
    # reference area 1/2: d(area) = s ds dt, ds = grading tau^(grading-1)
    wts = (2.0 * grading * TAU ** (2 * grading - 1) * WTAU * WT).ravel()
    lam = np.column_stack([(1.0 - S).ravel(), (S * (1.0 - T)).ravel(),
                           (S * T).ravel()])
    return TriangleRule(lam, wts / wts.sum(), degree=0)


def gauss_edge_rule(n: int) -> EdgeRule:
    """n-point Gauss rule on [0, 1], exact to degree 2n-1."""
    x, w = np.polynomial.legendre.leggauss(n)
    return EdgeRule(0.5 * (x + 1.0), 0.5 * w, degree=2 * n - 1)


# Shared instances; tests/test_quadrature.py checks each against the
# monomial integrals up to its degree
MIDPOINT = midpoint_rule()
SEVEN_POINT = seven_point_rule()
SINGULAR_VERTEX = graded_collapsed_rule(10, 8)
EDGE_GAUSS2 = gauss_edge_rule(2)
EDGE_GAUSS3 = gauss_edge_rule(3)
DATA_EDGE = gauss_edge_rule(20)
