import math

import numpy as np
import pytest

from rtadapt import assembly, quadrature as quad, solver, verify
from rtadapt.assembly import Discretization
from rtadapt.mesh import build_initial_mesh
from rtadapt.postprocess import FluxField
from rtadapt.problem import ExactSolution, ProblemData, benchmark

from oracles import barycenters, boundary_identity_energy


class TestEnergyError:
    def test_rt0_representable_solution_is_exact(self):
        """Affine p with S = I, w = r = 0: zero error up to roundoff."""
        mesh = build_initial_mesh("unit-square").uniform_refine()
        data = ProblemData(np.tile(np.eye(2), (8, 1, 1)), np.zeros((8, 2)),
                           np.zeros(8))
        fields = data.fields(mesh)

        grad = np.array([2.0, -1.0])
        def p(x, y):
            return 1.0 + grad[0] * x + grad[1] * y

        exact = ExactSolution(p, lambda x, y: (
            np.broadcast_to(-grad, np.shape(x) + (2,)), p(x, y)))
        flux_dofs = -grad @ mesh.edge_normal.T
        bary = barycenters(mesh)
        pressure = exact.p(bary[:, 0], bary[:, 1])
        sol = assembly.MixedSolution(flux_dofs, pressure, "centered")
        flux = FluxField(Discretization(mesh, data), sol)
        E, per = verify.energy_error(mesh, fields, flux, pressure, exact)
        assert E <= 1e-10
        assert per.shape == (mesh.num_elements,)

    def test_kellogg_first_iteration_value(self):
        """Exact value on the initial mesh, bitwise reproducible."""
        domain, data, exact = benchmark("kellogg1")
        mesh = data.initial_mesh(domain)
        values = []
        for _ in range(2):
            sol = solver.solve(assembly.assemble_centered(Discretization(mesh,
                               data)),
                               mesh.num_edges)
            fields = data.fields(mesh)
            flux = FluxField(Discretization(mesh, data), sol)
            E, _ = verify.energy_error(mesh, fields, flux, sol.pressure,
                                       exact)
            values.append(E)
        assert values[0] == values[1]
        reference = boundary_identity_energy(mesh, data, exact, sol)
        assert values[0] == pytest.approx(reference, rel=1e-4)

    @pytest.mark.parametrize("case", ["lshape", "kellogg1", "kellogg2"])
    def test_singular_vertex_rule_matches_identity(self, case):
        """Initial mesh and one uniform refinement, against the boundary
        identity; the seven-point rule alone misses 6-42% here."""
        domain, data, exact = benchmark(case)
        mesh = data.initial_mesh(domain)
        for _ in range(2):
            sol = solver.solve(assembly.assemble_centered(Discretization(mesh,
                               data)),
                               mesh.num_edges)
            fields = data.fields(mesh)
            flux = FluxField(Discretization(mesh, data), sol)
            E, _ = verify.energy_error(mesh, fields, flux, sol.pressure,
                                       exact)
            reference = boundary_identity_energy(mesh, data, exact, sol)
            assert E == pytest.approx(reference, rel=1e-4)
            mesh = mesh.uniform_refine()

    def test_layer_keeps_seven_point_path(self):
        """Without singular points every element uses the seven-point
        rule: bit for bit its kernel on all elements, and within 1e-14
        the per-point formula, S^-1/2 applied at each node."""
        domain, data, exact = benchmark("layer", eps=0.01, a=0.05)
        assert exact.singular_points == ()
        mesh = data.initial_mesh(domain).uniform_refine().uniform_refine()
        sol = solver.solve(assembly.assemble_upwind(Discretization(mesh,
                           data)),
                           mesh.num_edges)
        fields = data.fields(mesh)
        flux = FluxField(Discretization(mesh, data), sol)
        E, per = verify.energy_error(mesh, fields, flux, sol.pressure, exact)

        rule = quad.SEVEN_POINT
        pts = rule.physical_points(mesh.elem_coords)
        kernel_sq = verify._error_sq(rule, pts, np.arange(mesh.num_elements),
                                     mesh, fields, flux, sol.pressure, exact)
        assert np.array_equal(per, np.sqrt(kernel_sq))
        assert E == float(np.sqrt(kernel_sq.sum()))

        u = exact.u_and_p(pts[..., 0], pts[..., 1])[0]
        diff = u - flux.u(np.arange(mesh.num_elements), pts)
        A = fields.Sinvhalf[:, None]
        wx = A[..., 0, 0] * diff[..., 0] + A[..., 0, 1] * diff[..., 1]
        wy = A[..., 1, 0] * diff[..., 0] + A[..., 1, 1] * diff[..., 1]
        stress_sq = rule.integrate(wx * wx + wy * wy, mesh.elem_area)
        disp_sq = rule.integrate(
            (exact.p(pts[..., 0], pts[..., 1]) - sol.pressure[:, None])**2,
            mesh.elem_area)
        expected_sq = stress_sq + fields.r * disp_sq
        assert np.abs(kernel_sq - expected_sq).max() \
            <= 1e-14 * expected_sq.max()

    def test_decomposition(self):
        domain, data, exact = benchmark("layer", eps=0.1, a=0.1)
        mesh = data.initial_mesh(domain).uniform_refine()
        sol = solver.solve(assembly.assemble_upwind(Discretization(mesh,
                           data)),
                           mesh.num_edges)
        fields = data.fields(mesh)
        flux = FluxField(Discretization(mesh, data), sol)
        E, per = verify.energy_error(mesh, fields, flux, sol.pressure, exact)
        assert E**2 == pytest.approx((per**2).sum(), rel=1e-12)
        assert np.all(per >= 0.0)


class TestEoc:
    def test_halving_error_quadrupling_dof(self):
        rates = verify.eoc([100, 400], [1.0, 0.5])
        assert rates[0] == pytest.approx(0.5, rel=1e-12)

    def test_table_row(self):
        rates = verify.eoc([8, 20], [1.3665, 1.1346])
        assert rates[0] == pytest.approx(0.2030, abs=5e-5)

    def test_constant_error(self):
        rates = verify.eoc([10, 20, 40], [1.0, 1.0, 1.0])
        assert np.allclose(rates, 0.0)

    def test_flagged_entries(self):
        rates = verify.eoc([10, 10, 20], [1.0, 0.5, -0.1])
        assert np.all(np.isnan(rates))

    def test_short_history_rejected(self):
        with pytest.raises(verify.VerifyError):
            verify.eoc([10], [1.0])


class TestEffectivity:
    def test_table_first_row(self):
        eff = verify.effectivity([5.0938], [1.3665])
        assert eff[0] == pytest.approx(3.728, abs=1e-3)

    def test_equal_gives_one(self):
        assert verify.effectivity([2.0], [2.0])[0] == 1.0

    def test_zero_error_flagged(self):
        eff = verify.effectivity([1.0, 2.0], [0.5, 0.0])
        assert eff[0] == 2.0
        assert math.isnan(eff[1])

    def test_length_mismatch(self):
        with pytest.raises(verify.VerifyError):
            verify.effectivity([1.0], [1.0, 2.0])
