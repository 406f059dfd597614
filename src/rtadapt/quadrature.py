"""Quadrature rules on triangles and edges.

A rule is stored in barycentric coordinates, three per node on a triangle
and two on an edge, with weights summing to one; physical nodes are the
barycentric rows times the vertex coordinates, and physical integrals are
obtained by multiplying with the element area or the edge length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Rule:
    """Quadrature rule on a triangle or an edge.

    Attributes
    ----------
    points : numpy.ndarray
        Barycentric coordinates, shape (n, 3) on a triangle or (n, 2) on
        an edge, rows summing to one.
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
        """Map the rule nodes onto triangles or edges.

        Parameters
        ----------
        coords : numpy.ndarray
            Vertex coordinates with shape (..., 3, 2) for a triangle rule
            or (..., 2, 2) for an edge rule.

        Returns
        -------
        numpy.ndarray of shape (..., n, 2).
        """
        return self.points @ coords

    def integrate(self, values: np.ndarray, measure) -> np.ndarray:
        """Integrate nodal values over triangles or edges of the given
        areas or lengths.

        ``values`` has shape (..., n); ``measure`` broadcasts against the
        leading axes.
        """
        return values @ self.weights * measure


def midpoint_rule() -> Rule:
    """Edge-midpoint rule, exact for quadratics."""
    pts = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    wts = np.full(3, 1.0 / 3.0)
    return Rule(pts, wts, degree=2)


def seven_point_rule() -> Rule:
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
    return Rule(np.array(pts), np.array(wts), degree=5)


def graded_collapsed_rule(n: int = 10, grading: int = 8) -> Rule:
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
    return Rule(lam, wts / wts.sum(), degree=0)


def gauss_edge_rule(n: int) -> Rule:
    """n-point Gauss rule on an edge, exact to degree 2n-1."""
    x, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (x + 1.0)
    return Rule(np.column_stack([1.0 - t, t]), 0.5 * w, degree=2 * n - 1)


# Shared instances; tests/test_quadrature.py checks each against the
# monomial integrals up to its degree
MIDPOINT = midpoint_rule()
SEVEN_POINT = seven_point_rule()
SINGULAR_VERTEX = graded_collapsed_rule(10, 8)
EDGE_GAUSS2 = gauss_edge_rule(2)
EDGE_GAUSS3 = gauss_edge_rule(3)
DATA_EDGE = gauss_edge_rule(20)
