import numpy as np
import pytest

from oracles import (ORACLE_EDGE, barycenters, edge_mean_mismatch,
                     element_quadratic, ptilde_gradient,
                     single_weighting_jump_sq, weighted)
from rtadapt import assembly, postprocess, quadrature as quad, solver
from rtadapt.assembly import (Discretization, MixedSolution,
                              assemble_centered)
from rtadapt.mesh import Triangulation, build_initial_mesh
from rtadapt.postprocess import (FluxField, build_ptilde, nodal_average,
                                 ptilde_values, tangential_jump_sq)
from rtadapt.problem import ProblemData, benchmark


def make_problem(mesh, S=None, n=None):
    n = mesh.num_elements if n is None else n
    S = np.eye(2) if S is None else S
    return ProblemData(np.tile(S, (n, 1, 1)), np.zeros((n, 2)), np.zeros(n))


def dofs_from_field(mesh, func):
    """Edge coefficients (mean normal trace) of an arbitrary vector field."""
    rule = quad.gauss_edge_rule(5)
    a = mesh.vert_coords[mesh.edge_verts[:, 0]]
    b = mesh.vert_coords[mesh.edge_verts[:, 1]]
    pts = rule.physical_points(np.stack([a, b], axis=-2))
    vals = func(pts[..., 0], pts[..., 1])
    trace = np.einsum("eqd,ed->eq", vals, mesh.edge_normal)
    return trace @ rule.weights


class TestBuildPtilde:
    def test_zero_flux_gives_constant(self):
        mesh = build_initial_mesh("unit-square")
        data = make_problem(mesh)
        sol = MixedSolution(np.zeros(mesh.num_edges),
                            np.arange(mesh.num_elements, dtype=float),
                            "centered")
        coeffs = build_ptilde(mesh, data.fields(mesh), sol)
        assert np.allclose(coeffs[:, 1:], 0.0, atol=1e-15)
        assert np.allclose(coeffs[:, 0], sol.pressure, atol=1e-15)

    def test_constant_field_recovers_linear(self):
        # u_h = (1, 0), S = I, p_K = 0: ptilde = -(x - xbar_K)
        mesh = build_initial_mesh("unit-square")
        data = make_problem(mesh)
        sol = MixedSolution(
            dofs_from_field(mesh, lambda x, y: np.stack(
                [np.ones_like(x), np.zeros_like(y)], axis=-1)),
            np.zeros(mesh.num_elements), "centered")
        coeffs = build_ptilde(mesh, data.fields(mesh), sol)
        bary = barycenters(mesh)
        for t in range(mesh.num_elements):
            q = element_quadratic(coeffs, t)
            assert q.coeffs[1] == pytest.approx(-1.0, abs=1e-13)
            assert np.allclose(q.coeffs[2:], 0.0, atol=1e-13)
            assert q.coeffs[0] == pytest.approx(bary[t, 0], abs=1e-13)

    def test_mean_reproduction_random(self):
        mesh = build_initial_mesh("square2x2")
        rng = np.random.default_rng(31)
        for _ in range(100):
            Q = rng.normal(size=(2, 2))
            S = Q @ Q.T + 0.2 * np.eye(2)
            data = make_problem(mesh, S=S)
            sol = MixedSolution(rng.normal(size=mesh.num_edges),
                                rng.normal(size=mesh.num_elements),
                                "centered")
            coeffs = build_ptilde(mesh, data.fields(mesh), sol)
            pts = quad.SEVEN_POINT.physical_points(mesh.elem_coords)
            means = ptilde_values(coeffs, pts) @ quad.SEVEN_POINT.weights
            assert np.abs(means - sol.pressure).max() <= 1e-12

    def test_gradient_identity_at_quadrature_points(self):
        mesh = build_initial_mesh("square2x2").uniform_refine()
        rng = np.random.default_rng(8)
        Q = rng.normal(size=(2, 2))
        S = Q @ Q.T + 0.5 * np.eye(2)
        data = make_problem(mesh, S=S, n=8)
        fields = data.fields(mesh)
        sol = MixedSolution(rng.normal(size=mesh.num_edges),
                            rng.normal(size=mesh.num_elements), "centered")
        coeffs = build_ptilde(mesh, fields, sol)
        flux = FluxField(Discretization(mesh, data), sol)
        pts = quad.SEVEN_POINT.physical_points(mesh.elem_coords)
        grad = ptilde_gradient(coeffs, pts)
        u_h = flux.u(np.arange(mesh.num_elements), pts)
        S = data.table.S[mesh.elem_ancestor]
        resid = np.einsum("tab,tqb->tqa", S, grad) + u_h
        scale = 1.0 + np.abs(u_h).max()
        assert np.abs(resid).max() <= 1e-12 * scale


class TestTangentialJumps:
    def test_continuous_gradient_no_interior_jump(self):
        # u = S grad q for affine q and S = I: S^-1 u = grad q is continuous
        mesh = build_initial_mesh("unit-square").uniform_refine()
        data = make_problem(mesh, n=8)
        g = np.array([2.0, -3.0])
        sol = MixedSolution(
            dofs_from_field(mesh, lambda x, y: np.broadcast_to(
                g, x.shape + (2,))),
            np.zeros(mesh.num_elements), "centered")
        flux = FluxField(Discretization(mesh, data), sol)
        jumps = tangential_jump_sq(flux)[0]
        interior = mesh.edge_flag == 0
        assert np.abs(jumps[interior]).max() <= 1e-26
        # one-sided boundary traces equal |gamma_t(g)|^2 * length
        for e in np.flatnonzero(~interior):
            expected = (g @ mesh.edge_tangent[e]) ** 2 * mesh.edge_length[e]
            assert jumps[e] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_random_patch_against_oracle(self):
        mesh = build_initial_mesh("square2x2")
        rng = np.random.default_rng(77)
        for trial in range(20):
            Q = rng.normal(size=(2, 2))
            S = Q @ Q.T + 0.3 * np.eye(2)
            data = make_problem(mesh, S=S)
            fields = data.fields(mesh)
            sol = MixedSolution(rng.normal(size=mesh.num_edges),
                                rng.normal(size=mesh.num_elements),
                                "centered")
            flux = FluxField(Discretization(mesh, data), sol)
            got = tangential_jump_sq(flux)[0]
            oracle = single_weighting_jump_sq(mesh, flux, rule=ORACLE_EDGE)
            assert np.abs(got - oracle).max() <= 1e-12 * (1 + oracle.max())

    def test_boundary_data_rule(self):
        """Dirichlet edges subtract the slope of the datum, which is not
        polynomial, so boundary edges take the data rule; interior edges
        do not see the datum."""
        mesh = build_initial_mesh("unit-square").uniform_refine()
        n = mesh.num_elements
        data = ProblemData(np.tile(np.eye(2), (n, 1, 1)), np.zeros((n, 2)),
                           np.zeros(n),
                           dirichlet_data=lambda x, y: np.sin(4.0 * x)
                           * np.exp(y))
        rng = np.random.default_rng(15)
        sol = MixedSolution(rng.normal(size=mesh.num_edges),
                            np.zeros(mesh.num_elements), "centered")
        disc = Discretization(mesh, data)
        flux = FluxField(disc, sol)
        got = tangential_jump_sq(flux)[0]
        bdry = np.flatnonzero(mesh.edge_elems[:, 1] < 0)
        tangent = mesh.edge_tangent[bdry]
        ends = np.stack([mesh.vert_coords[mesh.edge_verts[bdry, k]]
                         for k in range(2)], axis=-2)

        def mismatch(rule):
            """Points of ``rule`` on the boundary edges, the trace minus
            the datum's exact slope -dg/dt there, and that slope."""
            pts = rule.physical_points(ends)
            x, y = pts[..., 0], pts[..., 1]
            slope = -np.exp(y) * (4.0 * np.cos(4.0 * x) * tangent[:, None, 0]
                                  + np.sin(4.0 * x) * tangent[:, None, 1])
            trace = np.einsum(
                "eqd,ed->eq",
                weighted(flux, mesh.edge_elems[bdry, 0], pts), tangent)
            return pts, trace - slope, slope

        # the central differences at the nodes of the data rule, and the
        # most they can move the integrals (h int 2 err |m| + err^2)
        pts, m, slope = mismatch(quad.DATA_EDGE)
        diffs = postprocess.datum_slopes(disc, bdry, pts[..., 0].T,
                                         pts[..., 1].T)[0].T
        err = np.abs(diffs - slope).max()
        assert err <= 1e-9 * np.abs(slope).max()
        moved = quad.DATA_EDGE.integrate(2.0 * err * np.abs(m) + err**2,
                                         mesh.edge_length[bdry])
        for rule in (quad.gauss_edge_rule(40), quad.EDGE_GAUSS2):
            ref = rule.integrate(mismatch(rule)[1]**2, mesh.edge_length[bdry])
            close = np.all(np.abs(got[bdry] - ref) <= 1e-12 * ref + moved)
            # the dense rule agrees; the two-point rule does not
            assert close == (rule.weights.size == 40)
            assert np.allclose(got[bdry], ref, rtol=1e-4) == close
        interior = mesh.edge_elems[:, 1] >= 0
        plain = tangential_jump_sq(
            FluxField(Discretization(mesh, make_problem(mesh)), sol))[0]
        assert np.array_equal(got[interior], plain[interior])

    def test_scaled_weighting_factor(self):
        # S = 4I on both sides: S^-1 scales traces by 1/16 in the square,
        # S^-1/2 by 1/4, so the squared-jump ratio is 4
        mesh = build_initial_mesh("unit-square")
        data4 = make_problem(mesh, S=4.0 * np.eye(2))
        rng = np.random.default_rng(13)
        sol = MixedSolution(rng.normal(size=mesh.num_edges),
                            np.zeros(mesh.num_elements), "centered")
        flux = FluxField(Discretization(mesh, data4), sol)
        j_inv, j_half = tangential_jump_sq(flux)
        assert np.allclose(j_half, 4.0 * j_inv, rtol=1e-12)

    def test_identity_weighting_coincides(self):
        mesh = build_initial_mesh("unit-square")
        data = make_problem(mesh)
        rng = np.random.default_rng(14)
        sol = MixedSolution(rng.normal(size=mesh.num_edges),
                            np.zeros(mesh.num_elements), "centered")
        flux = FluxField(Discretization(mesh, data), sol)
        j_inv, j_half = tangential_jump_sq(flux)
        assert np.allclose(j_inv, j_half, rtol=1e-14)
        oracle = single_weighting_jump_sq(mesh, flux, "invsqrt",
                                          rule=ORACLE_EDGE)
        assert np.abs(j_half - oracle).max() <= 1e-12 * (1 + oracle.max())

    def test_zero_field(self):
        mesh = build_initial_mesh("lshape")
        data = make_problem(mesh)
        sol = MixedSolution(np.zeros(mesh.num_edges),
                            np.zeros(mesh.num_elements), "centered")
        flux = FluxField(Discretization(mesh, data), sol)
        assert np.all(tangential_jump_sq(flux)[0] == 0.0)

    def test_hand_computed_two_element_patch(self):
        # square split along the diagonal; prescribe raw affine fields
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        mesh = Triangulation(coords, np.array([[0, 1, 2], [0, 2, 3]]))
        data = make_problem(mesh)
        fields = data.fields(mesh)
        sol = MixedSolution(np.zeros(mesh.num_edges),
                            np.zeros(mesh.num_elements), "centered")
        flux = FluxField(Discretization(mesh, data), sol)
        # overwrite the reconstruction: side 0 carries u = (y, 0), side 1 zero
        flux.a = np.array([[0.0, 0.0], [0.0, 0.0]])
        flux.b = np.array([0.0, 0.0])
        # u = a + b x only spans fields with u_x,x = u_y,y; use b = 0 and
        # constant a = (1, 0) against zero: jump of gamma_t across y = x
        flux.a[0] = [1.0, 0.0]
        diag = [e for e in range(mesh.num_edges)
                if mesh.edge_flag[e] == 0][0]
        t = mesh.edge_tangent[diag]
        expected = (np.array([1.0, 0.0]) @ t) ** 2 * mesh.edge_length[diag]
        got = tangential_jump_sq(flux)[0][diag]
        assert got == pytest.approx(expected, rel=1e-14)


class TestSolvedSolutionProperties:
    def test_edge_mean_continuity_pure_diffusion(self):
        _, data, _ = benchmark("lshape")
        mesh = data.initial_mesh("lshape").uniform_refine()
        sol = solver.solve(assemble_centered(Discretization(mesh, data)))
        coeffs = build_ptilde(mesh, data.fields(mesh), sol)
        mismatch = edge_mean_mismatch(mesh, coeffs)
        interior = mesh.edge_flag == 0
        scale = np.abs(sol.pressure).max()
        assert np.abs(mismatch[interior]).max() <= 1e-8 * scale

    def test_dirichlet_edge_means_match_data(self):
        _, data, _ = benchmark("lshape")
        mesh = data.initial_mesh("lshape").uniform_refine()
        sol = solver.solve(assemble_centered(Discretization(mesh, data)))
        coeffs = build_ptilde(mesh, data.fields(mesh), sol)
        mismatch = edge_mean_mismatch(mesh, coeffs)
        pd = Discretization(mesh, data).pd_mean
        boundary = mesh.edge_flag == 1
        assert np.abs(mismatch[boundary] - pd[boundary]).max() <= 1e-8


def test_edge_mean_continuity_reported_for_upwind():
    # the mean-continuity identity follows from the flux equation, which
    # both schemes share; for the upwind scheme it is reported, not relied
    # upon, so this check only prints the observed magnitude
    domain, data, _ = benchmark("layer", eps=0.01, a=0.1)
    mesh = data.initial_mesh(domain).uniform_refine()
    sol = solver.solve(assembly.assemble_upwind(Discretization(mesh, data)))
    coeffs = build_ptilde(mesh, data.fields(mesh), sol)
    mismatch = edge_mean_mismatch(mesh, coeffs)
    interior = mesh.edge_flag == 0
    observed = np.abs(mismatch[interior]).max()
    print(f"upwind interior edge-mean mismatch: {observed:.3e}")
    assert np.isfinite(observed)


def test_nodal_average():
    mesh = build_initial_mesh("unit-square")
    values = np.arange(mesh.num_elements, dtype=float)
    nodal = nodal_average(mesh, values)
    # the center vertex touches all 8 elements
    assert nodal[8] == pytest.approx(values.mean())
