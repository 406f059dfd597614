import math

import numpy as np
import pytest

from oracles import barycenters
from rtadapt import mesh as meshmod, problem
from rtadapt.mesh import DIRICHLET, NEUMANN
from rtadapt.problem import (ElementCoefficients, ProblemDataError, benchmark,
                             derive_bounds, patch_quantities)


def make_coeffs(S, w=(0.0, 0.0), r=0.0, divw=0.0):
    return ElementCoefficients(np.asarray(S, dtype=float), np.asarray(w),
                               r, divw)


class TestDeriveBounds:
    def test_scaled_identity(self):
        b = derive_bounds(make_coeffs(5.0 * np.eye(2)))
        assert b.c_S == b.C_S == pytest.approx(5.0)
        assert b.C_w == 0.0
        assert b.c_wr == 0.0 and b.C_wr == 0.0

    def test_layer_data(self):
        eps = 1e-3
        b = derive_bounds(make_coeffs(eps * np.eye(2), w=(0.0, 1.0), r=1.0))
        assert b.c_S == b.C_S == pytest.approx(eps)
        assert b.C_w == pytest.approx(1.0)
        assert b.c_wr == pytest.approx(1.0)
        assert b.C_wr == pytest.approx(1.0)
        assert b.C_divw == 0.0

    def test_diagonal(self):
        b = derive_bounds(make_coeffs(np.diag([2.0, 1.0])))
        assert b.c_S == pytest.approx(1.0)
        assert b.C_S == pytest.approx(2.0)

    def test_rejects_indefinite(self):
        with pytest.raises(ProblemDataError):
            derive_bounds(make_coeffs([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_negative_reaction(self):
        with pytest.raises(ProblemDataError):
            derive_bounds(make_coeffs(np.eye(2), r=-1.0))

    def test_rejects_degenerate_incompatibility(self):
        # c_wr = divw/2 + r = 0 but divw + r != 0
        with pytest.raises(ProblemDataError):
            derive_bounds(make_coeffs(np.eye(2), r=-1.0, divw=2.0))

    def test_eigenvalue_bounds_random_spd(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            Q = rng.normal(size=(2, 2))
            S = Q @ Q.T + 0.1 * np.eye(2)
            b = derive_bounds(make_coeffs(S))
            v = rng.normal(size=(100, 2))
            quad_form = np.einsum("kd,de,ke->k", v, S, v)
            norms = (v**2).sum(axis=1)
            assert np.all(quad_form >= b.c_S * norms - 1e-10)
            assert np.all(quad_form <= b.C_S * norms + 1e-10)


class TestPatchQuantities:
    def test_homogeneous(self):
        _, data, _ = benchmark("lshape")
        mesh = data.initial_mesh("lshape")
        patch = patch_quantities(mesh, data.fields(mesh))
        assert np.allclose(patch.lam_sigma, 1.0)
        assert np.all(patch.lam_w_sigma == 0.0)
        assert np.all(patch.lam_wr == 0.0)
        assert np.all(patch.lam_divw == 0.0)

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
        patch = patch_quantities(mesh, data.fields(mesh))
        assert np.all(patch.lambda_w_sigma == 0.0)
        assert np.all(patch.p_w_sigma == 0.0)
        assert np.all(patch.lam_w_sigma == 0.0)


class TestBenchmarks:
    def test_kellogg1_constants(self):
        alpha, s, a, b = problem.KELLOGG_CASES[1]
        assert alpha == 0.53544095
        assert a[0] == 0.44721360
        assert b[0] == 1.0
        assert s == (5.0, 1.0, 5.0, 1.0)

    def test_kellogg2_constants(self):
        alpha, s, a, b = problem.KELLOGG_CASES[2]
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

    def test_layer_boundary_partition(self):
        domain, data, _ = benchmark("layer", eps=0.01, a=0.05)
        mesh = data.initial_mesh(domain)
        mids = mesh.edge_midpoints()
        for e in np.flatnonzero(mesh.is_boundary_edge()):
            expected = NEUMANN if mids[e, 1] > 1 - 1e-12 else DIRICHLET
            assert mesh.edge_flag[e] == expected

    def test_layer_exact_flux_formula(self):
        eps, a = 0.01, 0.05
        _, _, exact = benchmark("layer", eps=eps, a=a)
        rng = np.random.default_rng(11)
        x = rng.uniform(0.2, 0.8, size=10)
        y = rng.uniform(0.0, 1.0, size=10)
        u = exact.u(x, y)
        p_x = 0.5 / (a * np.cosh((0.5 - x) / a) ** 2)
        assert np.allclose(u[:, 0], -eps * p_x, rtol=1e-13)
        assert np.all(u[:, 1] == 0.0)
        # gradient against central differences
        h = 1e-6
        dpdx = (exact.p(x + h, y) - exact.p(x - h, y)) / (2 * h)
        rel = np.abs(exact.grad_p(x, y)[:, 0] - dpdx) / np.abs(dpdx)
        assert rel.max() < 1e-6


def pde_residual(exact, coeff, x, y, h=1e-5):
    """-div(S grad p) + div(p w) + r p by central differences."""
    S, w, r = coeff.S, coeff.w, coeff.r

    def flux_x(xx, yy):
        g = exact.grad_p(xx, yy)
        return S[0, 0] * g[..., 0] + S[0, 1] * g[..., 1]

    def flux_y(xx, yy):
        g = exact.grad_p(xx, yy)
        return S[1, 0] * g[..., 0] + S[1, 1] * g[..., 1]

    div_S_grad = (flux_x(x + h, y) - flux_x(x - h, y)) / (2 * h) \
        + (flux_y(x, y + h) - flux_y(x, y - h)) / (2 * h)
    div_pw = w[0] * (exact.p(x + h, y) - exact.p(x - h, y)) / (2 * h) \
        + w[1] * (exact.p(x, y + h) - exact.p(x, y - h)) / (2 * h)
    return -div_S_grad + div_pw + r * exact.p(x, y)


class TestExactSolutionsSatisfyPde:
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
        resid = pde_residual(exact, data.coefficients[0], x, y)
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
            coeff = data.coefficients[2 * quad_i]
            resid = pde_residual(exact, coeff, x, y)
            assert np.abs(resid).max() < 1e-4

    def test_layer_with_source(self):
        _, data, exact = benchmark("layer", eps=0.05, a=0.1)
        rng = np.random.default_rng(2)
        x = rng.uniform(0.1, 0.9, size=20)
        y = rng.uniform(0.1, 0.9, size=20)
        resid = pde_residual(exact, data.coefficients[0], x, y) - data.f(x, y)
        assert np.abs(resid).max() < 1e-4

    @pytest.mark.parametrize("case", ["kellogg1", "kellogg2"])
    def test_kellogg_normal_flux_continuity(self, case):
        _, data, exact = benchmark(case)
        radii = np.linspace(0.1, 0.9, 9)
        # across the positive y-axis: normal (1, 0)
        u_right = exact.u(1e-9 * np.ones_like(radii), radii)
        u_left = exact.u(-1e-9 * np.ones_like(radii), radii)
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
        coeffs = [make_coeffs(S)] * 6
        data = problem.ProblemData(coeffs)
        mesh = data.initial_mesh("lshape")
        fields = data.fields(mesh)
        root = fields.Sinvhalf[0]
        assert np.allclose(root @ S @ root, np.eye(2), atol=1e-12)
