import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import barycenters, loop_patch_maxima
from rtadapt import mesh as meshmod, problem
from rtadapt.mesh import DIRICHLET, INTERIOR, NEUMANN
from rtadapt.problem import (ProblemData, ProblemDataError, benchmark,
                             coefficient_table, patch_quantities)


def table_of(S, w=(0.0, 0.0), r=0.0, n=1):
    """The coefficient table of n elements carrying S, w and r."""
    return coefficient_table(np.tile(np.asarray(S, dtype=float), (n, 1, 1)),
                             np.tile(np.asarray(w, dtype=float), (n, 1)),
                             np.full(n, float(r)))


def data_of(S, w=(0.0, 0.0), r=0.0, n=6, **kw):
    """ProblemData with the same S, w and r on all n coarse elements."""
    return ProblemData(np.tile(np.asarray(S, dtype=float), (n, 1, 1)),
                       np.tile(np.asarray(w, dtype=float), (n, 1)),
                       np.full(n, float(r)), **kw)


class TestDeriveBounds:
    """The bounds and the validation of ``coefficient_table``."""

    def test_scaled_identity(self):
        b = table_of(5.0 * np.eye(2))
        assert b.c_S == b.C_S == pytest.approx(5.0)
        assert b.C_w == 0.0
        assert b.r == 0.0

    def test_layer_data(self):
        eps = 1e-3
        b = table_of(eps * np.eye(2), w=(0.0, 1.0), r=1.0)
        assert b.c_S == b.C_S == pytest.approx(eps)
        assert b.C_w == pytest.approx(1.0)
        assert b.r == pytest.approx(1.0)

    def test_diagonal(self):
        b = table_of(np.diag([2.0, 1.0]))
        assert b.c_S == pytest.approx(1.0)
        assert b.C_S == pytest.approx(2.0)

    def test_rejects_indefinite(self):
        with pytest.raises(ProblemDataError, match="SPD"):
            table_of([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_nan_tensor(self):
        with pytest.raises(ProblemDataError, match="SPD"):
            table_of([[1.0, np.nan], [np.nan, 1.0]])

    def test_rejects_non_symmetric(self):
        with pytest.raises(ProblemDataError, match="symmetric"):
            table_of([[2.0, 0.5], [0.4, 2.0]])

    @pytest.mark.parametrize("w", [(np.nan, 0.0), (0.0, np.inf),
                                   (-np.inf, 1.0)])
    def test_rejects_non_finite_velocity(self, w):
        with pytest.raises(ProblemDataError, match="velocity not finite"):
            table_of(np.eye(2), w=w)

    @pytest.mark.parametrize("r", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_reaction(self, r):
        with pytest.raises(ProblemDataError, match="reaction not finite"):
            table_of(np.eye(2), r=r)

    def test_rejects_negative_reaction(self):
        with pytest.raises(ProblemDataError, match="negative"):
            table_of(np.eye(2), r=-1.0)

    @pytest.mark.parametrize("shapes", [((3, 2, 2), (2, 2), (3,)),
                                        ((3, 2, 2), (3, 2), (2,)),
                                        ((3, 2, 3), (3, 2), (3,)),
                                        ((3, 2, 2), (3, 3), (3,)),
                                        ((3, 2, 2), (3, 2), (3, 1))])
    def test_rejects_mismatched_shapes(self, shapes):
        S, w, r = shapes
        with pytest.raises(ProblemDataError, match="shapes"):
            coefficient_table(np.tile(np.eye(*S[1:]), (S[0], 1, 1)),
                              np.zeros(w), np.zeros(r))

    def test_rejects_wrong_coefficient_count(self):
        with pytest.raises(ProblemDataError, match="coarse elements"):
            data_of(np.eye(2), n=5).initial_mesh("lshape")

    def test_rejects_ancestor_outside_table(self):
        data = data_of(np.eye(2), n=8)
        mesh = meshmod.build_initial_mesh("square2x2")
        data.fields(mesh)
        small = data_of(np.eye(2), n=7)
        with pytest.raises(ProblemDataError, match="ancestor"):
            small.fields(mesh)

    def test_eigenvalue_bounds_random_spd(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            Q = rng.normal(size=(2, 2))
            S = Q @ Q.T + 0.1 * np.eye(2)
            b = table_of(S)
            v = rng.normal(size=(100, 2))
            quad_form = np.einsum("kd,de,ke->k", v, S, v)
            norms = (v**2).sum(axis=1)
            assert np.all(quad_form >= b.c_S * norms - 1e-10)
            assert np.all(quad_form <= b.C_S * norms + 1e-10)


@st.composite
def coefficient_sets(draw):
    """n elements with SPD S of eigenvalues in [1e-2, 1e2] in a random
    orientation, w in [-10, 10]^2 and r in [0, 10]."""
    n = draw(st.integers(1, 8))
    log_eig = st.floats(-2.0, 2.0)
    eigs = 10.0 ** np.array(draw(st.lists(st.tuples(log_eig, log_eig),
                                          min_size=n, max_size=n)))
    angle = np.array(draw(st.lists(st.floats(0.0, math.pi), min_size=n,
                                   max_size=n)))
    c, s = np.cos(angle), np.sin(angle)
    Q = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], 1)
    S = (Q * eigs[:, None, :]) @ Q.swapaxes(1, 2)
    S = 0.5 * (S + S.swapaxes(1, 2))
    coord = st.floats(-10.0, 10.0)
    w = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n,
                               max_size=n)))
    r = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=n,
                               max_size=n)))
    return S, w, r


class TestCoefficientTable:
    @given(coefficient_sets())
    def test_bounds_and_inverses(self, coeffs):
        S, w, r = coeffs
        t = coefficient_table(S, w, r)
        eig = np.linalg.eigvalsh(S)
        assert np.all(np.abs(t.c_S - eig[:, 0]) <= 1e-11 * eig[:, 0])
        assert np.all(np.abs(t.C_S - eig[:, 1]) <= 1e-11 * eig[:, 1])
        assert np.abs(t.Sinv @ S - np.eye(2)).max() <= 1e-11
        assert np.abs(t.Sinvhalf @ S @ t.Sinvhalf - np.eye(2)).max() <= 1e-11
        assert np.array_equal(t.C_w, np.hypot(w[:, 0], w[:, 1]))
        assert np.array_equal(t.r, r)

    @given(coefficient_sets(), st.integers(0, 2))
    def test_fields_gather_the_table(self, coeffs, steps):
        S, w, r = coeffs
        n = 8
        S, w, r = (np.resize(x, (n,) + x.shape[1:]) for x in (S, w, r))
        data = ProblemData(S, w, r)
        mesh = data.initial_mesh("square2x2")
        for _ in range(steps):
            mesh = mesh.uniform_refine()
        fields = data.fields(mesh)
        anc = mesh.elem_ancestor
        assert fields.S is None       # the mesh computations use S^-1
        for name, values in vars(data.table).items():
            if name != "S":
                assert np.array_equal(getattr(fields, name), values[anc]), \
                    name


class TestPatchQuantities:
    def test_homogeneous(self):
        _, data, _ = benchmark("lshape")
        mesh = data.initial_mesh("lshape")
        patch = patch_quantities(mesh, data.fields(mesh))
        assert np.allclose(patch.lam_sigma, 1.0)
        assert np.all(patch.lam_w_sigma == 0.0)
        assert np.all(patch.lam_wr == 0.0)

    def test_checkerboard_interface_edge(self):
        _, data, _ = benchmark("kellogg1")
        mesh = data.initial_mesh("square2x2")
        fields = data.fields(mesh)
        patch = patch_quantities(mesh, fields)
        mids = mesh.edge_midpoints()
        on_axis = (np.abs(mids[:, 0]) < 1e-12) | (np.abs(mids[:, 1]) < 1e-12)
        interface = on_axis & (mesh.edge_flag == 0)
        assert np.all(patch.lam_sigma[interface] == pytest.approx(5.0))

    def test_zero_velocity_weights_vanish(self):
        _, data, _ = benchmark("kellogg2")
        mesh = data.initial_mesh("square2x2")
        fields = data.fields(mesh)
        oracle = loop_patch_maxima(mesh, fields)
        lam_w_sigma = patch_quantities(mesh, fields).lam_w_sigma
        assert np.all(oracle["lambda_w_sigma"] == 0.0)
        assert np.all(oracle["p_w_sigma"] == 0.0)
        assert np.array_equal(lam_w_sigma, oracle["lam_w_sigma"])
        assert np.all(lam_w_sigma == 0.0)


class TestBenchmarks:
    def test_lshape_is_the_corner_solution(self):
        """The L-shape case of the corner family is p = r^(2/3) sin(2
        theta / 3), bit for bit from ``p`` and ``u_and_p``, and u = -grad p
        = (2/3) r^(-1/3) (sin(theta/3), -cos(theta/3)) within 1e-14
        relative, on random points of (-1, 1) x (0, 1) u (-1, 0) x (-1, 0)."""
        domain, data, exact = benchmark("lshape")
        assert domain == "lshape"
        assert np.array_equal(data.table.S, np.tile(np.eye(2), (6, 1, 1)))
        pts = np.random.default_rng(23).uniform(-1.0, 1.0, (200_000, 2))
        x, y = pts[(pts[:, 0] < 0.0) | (pts[:, 1] > 0.0)].T
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        theta = np.where(theta < 0.0, theta + 2.0 * math.pi, theta)
        expected = r ** (2.0 / 3.0) * np.sin(2.0 / 3.0 * theta)
        got, p = exact.u_and_p(x, y)
        assert np.array_equal(exact.p(x, y), expected)
        assert np.array_equal(p, expected)
        u = (2.0 / 3.0) * r[:, None] ** (-1.0 / 3.0) * np.column_stack(
            [np.sin(theta / 3.0), -np.cos(theta / 3.0)])
        err = np.hypot(*(got - u).T) / np.hypot(*u.T)
        assert err.max() <= 1e-14

    def test_kellogg1_constants(self):
        _, alpha, s, a, b = problem.CORNER_CASES["kellogg1"]
        assert alpha == 0.53544095
        assert a[0] == 0.44721360
        assert b[0] == 1.0
        assert s == (5.0, 1.0, 5.0, 1.0)

    def test_kellogg2_constants(self):
        _, alpha, s, a, b = problem.CORNER_CASES["kellogg2"]
        assert alpha == 0.12690207
        assert s[0] == s[2] == 100.0

    def test_unknown_case(self):
        with pytest.raises(ProblemDataError):
            benchmark("poisson9")

    def test_layer_parameter_validation(self):
        with pytest.raises(ProblemDataError):
            benchmark("layer", eps=-1.0)
        with pytest.raises(ProblemDataError):
            benchmark("layer", a=0.0)
        with pytest.raises(ProblemDataError):
            benchmark("layer", eps=math.nan)
        with pytest.raises(ProblemDataError):
            benchmark("layer", a=math.inf)

    @pytest.mark.parametrize("case, key", [("lshape", "eps"),
                                           ("kellogg2", "a"),
                                           ("layer", "alpha")])
    def test_foreign_parameter_refused(self, case, key):
        with pytest.raises(ProblemDataError,
                           match=f"{case!r} takes no parameter {key!r}"):
            benchmark(case, **{key: 0.1})

    def test_layer_boundary_partition(self):
        domain, data, _ = benchmark("layer", eps=0.01, a=0.05)
        mesh = data.initial_mesh(domain)
        mids = mesh.edge_midpoints()
        for e in np.flatnonzero(mesh.edge_flag != INTERIOR):
            expected = NEUMANN if mids[e, 1] > 1 - 1e-12 else DIRICHLET
            assert mesh.edge_flag[e] == expected

    def test_layer_exact_flux_formula(self):
        eps, a = 0.01, 0.05
        _, _, exact = benchmark("layer", eps=eps, a=a)
        rng = np.random.default_rng(11)
        x = rng.uniform(0.2, 0.8, size=10)
        y = rng.uniform(0.0, 1.0, size=10)
        u = exact.u_and_p(x, y)[0]
        p_x = 0.5 / (a * np.cosh((0.5 - x) / a) ** 2)
        assert np.allclose(u[:, 0], -eps * p_x, rtol=1e-13)
        assert np.all(u[:, 1] == 0.0)
        # gradient against central differences
        h = 1e-6
        dpdx = (exact.p(x + h, y) - exact.p(x - h, y)) / (2 * h)
        rel = np.abs(-u[:, 0] / eps - dpdx) / np.abs(dpdx)
        assert rel.max() < 1e-6


def pde_residual(exact, table, k, x, y, h=1e-5):
    """div u + div(p w) + r p by central differences, u = -S grad p from
    ``exact.u_and_p`` (``test_u_is_minus_s_grad_p``), for the
    coefficients of coarse element k."""
    w, r = table.w[k], table.r[k]

    def u(xx, yy):
        return exact.u_and_p(xx, yy)[0]

    div_u = (u(x + h, y)[:, 0] - u(x - h, y)[:, 0]) / (2 * h) \
        + (u(x, y + h)[:, 1] - u(x, y - h)[:, 1]) / (2 * h)
    div_pw = w[0] * (exact.p(x + h, y) - exact.p(x - h, y)) / (2 * h) \
        + w[1] * (exact.p(x, y + h) - exact.p(x, y - h)) / (2 * h)
    return div_u + div_pw + r * exact.p(x, y)


class TestExactSolutionsSatisfyPde:
    @pytest.mark.parametrize("case",
                             ["lshape", "kellogg1", "kellogg2", "layer"])
    def test_u_is_minus_s_grad_p(self, case):
        """``u_and_p`` gives p bit for bit as ``p`` does, and u = -S grad p
        within 1e-6 of central differences of p, on points inside each
        coefficient quadrant (inside the unit square for the layer)."""
        _, data, exact = benchmark(case)
        signs = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
        regions = [(0, 1, 1)] if case == "layer" else [
            (2 * q, sx, sy) for q, (sx, sy) in enumerate(signs)
        ][:3 if case == "lshape" else 4]
        rng = np.random.default_rng(3)
        h = 1e-6
        for k, sx, sy in regions:
            x = sx * rng.uniform(0.1, 0.9, size=10)
            y = sy * rng.uniform(0.1, 0.9, size=10)
            u, p = exact.u_and_p(x, y)
            assert np.array_equal(p, exact.p(x, y))
            grad = np.column_stack([exact.p(x + h, y) - exact.p(x - h, y),
                                    exact.p(x, y + h) - exact.p(x, y - h)])
            expected = -grad / (2 * h) @ data.table.S[k].T
            assert np.abs(u - expected).max() \
                <= 1e-6 * np.abs(expected).max()

    def test_lshape_harmonic(self):
        _, data, exact = benchmark("lshape")
        rng = np.random.default_rng(0)
        pts = []
        while len(pts) < 30:
            x, y = rng.uniform(-0.9, 0.9, size=2)
            inside = (y > 0.05 or (x < -0.05 and y < -0.05))
            if inside and math.hypot(x, y) > 0.2:
                pts.append((x, y))
        x, y = np.array(pts).T
        resid = pde_residual(exact, data.table, 0, x, y)
        scale = np.abs(exact.p(x, y)).max()
        assert np.abs(resid).max() < 1e-4 * scale

    @pytest.mark.parametrize("case", ["kellogg1", "kellogg2"])
    def test_kellogg_piecewise_harmonic(self, case):
        _, data, exact = benchmark(case)
        rng = np.random.default_rng(1)
        # interior points away from axes and the origin
        signs = np.array([(1, 1), (-1, 1), (-1, -1), (1, -1)])
        for quad_i in range(4):
            sx, sy = signs[quad_i]
            x = sx * rng.uniform(0.3, 0.9, size=10)
            y = sy * rng.uniform(0.3, 0.9, size=10)
            resid = pde_residual(exact, data.table, 2 * quad_i, x, y)
            assert np.abs(resid).max() < 1e-4

    def test_layer_with_source(self):
        _, data, exact = benchmark("layer", eps=0.05, a=0.1)
        rng = np.random.default_rng(2)
        x = rng.uniform(0.1, 0.9, size=20)
        y = rng.uniform(0.1, 0.9, size=20)
        resid = pde_residual(exact, data.table, 0, x, y) - data.f(x, y)
        assert np.abs(resid).max() < 1e-4

    @pytest.mark.parametrize("case", ["kellogg1", "kellogg2"])
    def test_kellogg_normal_flux_continuity(self, case):
        _, data, exact = benchmark(case)
        radii = np.linspace(0.1, 0.9, 9)
        # across the positive y-axis: normal (1, 0)
        u_right = exact.u_and_p(1e-9 * np.ones_like(radii), radii)[0]
        u_left = exact.u_and_p(-1e-9 * np.ones_like(radii), radii)[0]
        rel = np.abs(u_right[:, 0] - u_left[:, 0]) / np.abs(u_right[:, 0])
        assert rel.max() < 1e-5
        # the tangential component of the stress jumps with the coefficient
        assert np.abs(u_right[:, 1] - u_left[:, 1]).max() > 1e-3


class TestFieldsGather:
    def test_inheritance_through_refinement(self):
        domain, data, _ = benchmark("kellogg1")
        mesh = data.initial_mesh(domain)
        for _ in range(3):
            mesh = mesh.uniform_refine()
        fields = data.fields(mesh)
        bary = barycenters(mesh)
        in_q13 = (bary[:, 0] * bary[:, 1]) > 0
        assert np.all(fields.C_S[in_q13] == pytest.approx(5.0))
        assert np.all(fields.C_S[~in_q13] == pytest.approx(1.0))

    def test_sinvhalf_is_inverse_sqrt(self):
        rng = np.random.default_rng(5)
        Q = rng.normal(size=(2, 2))
        S = Q @ Q.T + 0.5 * np.eye(2)
        data = data_of(S)
        mesh = data.initial_mesh("lshape")
        fields = data.fields(mesh)
        root = fields.Sinvhalf[0]
        assert np.allclose(root @ S @ root, np.eye(2), atol=1e-12)
