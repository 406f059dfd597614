import math

import numpy as np
import pytest

from oracles import (ORACLE_EDGE, ORACLE_TRI, QuadratureError,
                     validate_edge_rule, validate_triangle_rule)
from rtadapt import quadrature as quad


def reference_integral(i, j):
    return math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)


@pytest.mark.parametrize("rule,degree", [
    (quad.MIDPOINT, 2),
    (quad.SEVEN_POINT, 5),
    (ORACLE_TRI, 10),
])
def test_triangle_rules_exact_to_degree(rule, degree):
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = rule.physical_points(coords)
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            approx = 0.5 * np.dot(rule.weights, pts[:, 0] ** i * pts[:, 1] ** j)
            assert approx == pytest.approx(reference_integral(i, j), abs=1e-14)


def test_seven_point_rule_shape():
    assert quad.SEVEN_POINT.npoints == 7
    assert quad.SEVEN_POINT.weights.sum() == pytest.approx(1.0, abs=1e-15)
    # all nodes strictly interior, never on a vertex singularity
    assert quad.SEVEN_POINT.points.min() > 0.0


@pytest.mark.parametrize("beta", [2 * 0.12690207 - 2, 2 * 0.53544095 - 2,
                                  -2.0 / 3.0, 0.5])
def test_singular_vertex_rule_integrates_vertex_powers(beta):
    """int r^beta over the reference triangle, r the distance to vertex 0,
    against the polar form int_0^(pi/2) R(th)^(beta+2) / (beta+2) dth
    with R = 1 / (cos th + sin th)."""
    rule = quad.SINGULAR_VERTEX
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = rule.physical_points(coords)
    approx = 0.5 * np.dot(rule.weights, np.hypot(pts[:, 0], pts[:, 1])**beta)
    polar = quad.gauss_edge_rule(60)
    th = 0.5 * math.pi * polar.points[:, 1]
    radius = 1.0 / (np.cos(th) + np.sin(th))
    exact = 0.5 * math.pi * np.dot(polar.weights,
                                   radius ** (beta + 2) / (beta + 2))
    assert approx == pytest.approx(exact, rel=2e-6)
    # the seven-point rule misses these by far more
    seven = quad.SEVEN_POINT.physical_points(coords)
    approx7 = 0.5 * np.dot(quad.SEVEN_POINT.weights,
                           np.hypot(seven[:, 0], seven[:, 1])**beta)
    assert abs(approx7 - exact) > 100 * abs(approx - exact)


def test_singular_vertex_rule_avoids_vertex():
    assert quad.SINGULAR_VERTEX.points[:, 0].max() < 1.0
    assert quad.SINGULAR_VERTEX.weights.sum() == pytest.approx(1.0,
                                                               abs=1e-15)


def test_rule_fails_beyond_its_degree():
    # midpoint rule is not exact for cubics
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = quad.MIDPOINT.physical_points(coords)
    approx = 0.5 * np.dot(quad.MIDPOINT.weights, pts[:, 0] ** 3)
    assert abs(approx - reference_integral(3, 0)) > 1e-6


def test_validation_rejects_bad_rule():
    bad = quad.Rule(quad.MIDPOINT.points, quad.MIDPOINT.weights, degree=5)
    with pytest.raises(QuadratureError):
        validate_triangle_rule(bad)


@pytest.mark.parametrize("rule", [quad.MIDPOINT, quad.SEVEN_POINT,
                                  quad.SINGULAR_VERTEX, ORACLE_TRI])
def test_triangle_rule_tables_validate(rule):
    validate_triangle_rule(rule)


@pytest.mark.parametrize("rule", [quad.EDGE_GAUSS2, quad.EDGE_GAUSS3,
                                  quad.DATA_EDGE, ORACLE_EDGE])
def test_edge_rule_tables_validate(rule):
    validate_edge_rule(rule)


@pytest.mark.parametrize("n", [2, 3, 10])
def test_edge_rules(n):
    rule = quad.gauss_edge_rule(n)
    for k in range(rule.degree + 1):
        assert np.dot(rule.weights, rule.points[:, 1]**k) == pytest.approx(
            1.0 / (k + 1), abs=1e-14
        )


def test_physical_mapping_and_integration():
    coords = np.array([[[1.0, 1.0], [3.0, 1.0], [1.0, 4.0]]])
    area = 3.0
    pts = quad.SEVEN_POINT.physical_points(coords)
    vals = 2.0 * pts[..., 0] + pts[..., 1]  # affine integrand
    got = quad.SEVEN_POINT.integrate(vals, np.array([area]))
    # int over triangle of (2x + y) = area * value at barycenter
    barycenter = coords[0].mean(axis=0)
    assert got[0] == pytest.approx(area * (2 * barycenter[0] + barycenter[1]),
                                   rel=1e-14)


def test_edge_physical_points():
    rule = quad.gauss_edge_rule(3)
    a = np.array([0.0, 0.0])
    b = np.array([2.0, 0.0])
    pts = rule.physical_points(np.stack([a, b], axis=-2))
    vals = pts[:, 0] ** 2
    assert rule.integrate(vals, 2.0) == pytest.approx(8.0 / 3.0, rel=1e-14)
