import math

import numpy as np
import pytest

from oracles import (ORACLE_TRI, edge_patch, element_indicator,
                     flux_through_edge, hat_hat_edges, hat_hat_p,
                     loop_patch_maxima,
                     star_walk_singular_vertices, total_indicator,
                     vertex_star, weighted)
from rtadapt import adapt, assembly, quadrature as quad, solver
from rtadapt.assembly import (Discretization, assemble_centered,
                              assemble_upwind)
from rtadapt.estimators import (EstimatorContext, EstimatorError,
                                detect_singular_vertices, residual_weights)
from rtadapt.mesh import DIRICHLET, build_initial_mesh
from rtadapt.postprocess import FluxField
from rtadapt.problem import ProblemData, ProblemDataError, benchmark


def diffusion_data(s, **kw):
    """ProblemData with S = s_k I, w = 0 and r = 0 on coarse element k."""
    s = np.asarray(s, dtype=float)
    return ProblemData(s[:, None, None] * np.eye(2), np.zeros((s.size, 2)),
                       np.zeros(s.size), **kw)


def zero_datum(case):
    """The coefficients of a benchmark with a homogeneous Dirichlet datum
    and no source, on its coarse mesh."""
    domain, data, _ = benchmark(case)
    table = data.table
    zero = ProblemData(table.S, table.w, table.r,
                       boundary_rule=data.boundary_rule)
    return zero, zero.initial_mesh(domain)


def solved_context(case, refines=1, scheme="centered", **bench_kw):
    domain, data, exact = benchmark(case, **bench_kw)
    mesh = data.initial_mesh(domain)
    for _ in range(refines):
        mesh = mesh.uniform_refine()
    assemble = assemble_centered if scheme == "centered" else assemble_upwind
    disc = Discretization(mesh, data)
    sol = solver.solve(assemble(disc))
    return mesh, data, exact, sol, EstimatorContext(disc, sol)


class TestResidualWeights:
    def test_pure_diffusion_fallback(self):
        _, data, _ = benchmark("lshape")
        mesh = data.initial_mesh("lshape")
        alpha, beta = residual_weights(mesh, data.fields(mesh))
        assert np.allclose(alpha, mesh.elem_diam)  # c_S = 1
        assert np.all(beta == 0.0)

    def test_reaction_cap(self):
        domain, data, _ = benchmark("layer", eps=1.0, a=0.1)
        mesh = data.initial_mesh(domain)
        alpha, beta = residual_weights(mesh, data.fields(mesh))
        expected = np.minimum(mesh.elem_diam, 1.0)
        assert np.allclose(alpha, expected)
        assert np.allclose(beta, mesh.elem_diam * alpha)


class TestEtaD:
    def test_vanishes_without_reaction(self):
        _, _, _, _, ctx = solved_context("lshape")
        assert np.all(ctx.eta_D_all() == 0.0)

    def test_vanishes_for_zero_flux(self):
        domain, data, _ = benchmark("layer", eps=0.1, a=0.1)
        mesh = data.initial_mesh(domain)
        sol = assembly.MixedSolution(np.zeros(mesh.num_edges),
                                     np.zeros(mesh.num_elements), "centered")
        ctx = EstimatorContext(Discretization(mesh, data), sol)
        assert np.all(ctx.eta_D_all() == 0.0)

    def test_matches_oracle_quadrature(self):
        mesh, data, _, sol, ctx = solved_context("layer", eps=0.01, a=0.1,
                                                 scheme="upwind")
        fields = ctx.fields
        rule = ORACLE_TRI
        pts = rule.physical_points(mesh.elem_coords)
        vals = weighted(ctx.flux, np.arange(mesh.num_elements), pts)
        norm_sq = rule.integrate((vals**2).sum(axis=-1), mesh.elem_area)
        oracle = np.sqrt(fields.r) * mesh.elem_diam * np.sqrt(norm_sq)
        got = ctx.eta_D_all()
        assert np.abs(got - oracle).max() <= 1e-12 * (1 + oracle.max())


class TestEtaR:
    def test_pure_diffusion_zero_source_is_exactly_zero(self):
        _, _, _, _, ctx = solved_context("lshape")
        assert np.all(ctx.eta_R_all() == 0.0)

    def test_pure_diffusion_general_source(self):
        # eta_R reduces to alpha_K || f - f_K ||_K
        mesh = build_initial_mesh("unit-square")
        data = diffusion_data(np.ones(8), f=lambda x, y: x * y + x**2,
                              dirichlet_data=lambda x, y: np.zeros_like(x))
        sol = solver.solve(assemble_centered(Discretization(mesh, data)))
        ctx = EstimatorContext(Discretization(mesh, data), sol)
        rule = quad.SEVEN_POINT
        pts = rule.physical_points(mesh.elem_coords)
        fvals = data.f(pts[..., 0], pts[..., 1])
        fmean = fvals @ rule.weights
        osc = rule.integrate((fvals - fmean[:, None]) ** 2, mesh.elem_area)
        expected = mesh.elem_diam * np.sqrt(osc)  # c_S = 1
        assert np.allclose(ctx.eta_R_all(), expected, rtol=1e-12)

    def test_layer_element_against_recomputation(self):
        mesh, data, _, sol, ctx = solved_context("layer", eps=0.01, a=0.1,
                                                 scheme="upwind")
        fields = ctx.fields
        alpha, beta = residual_weights(mesh, fields)
        rule = quad.SEVEN_POINT
        flux = ctx.flux
        got = ctx.eta_R_all()
        rng = np.random.default_rng(2)
        for t in rng.choice(mesh.num_elements, size=10, replace=False):
            coords = mesh.elem_coords[t]
            pts = rule.physical_points(coords)
            u = flux.a[t] + flux.b[t] * pts
            sinv_u = u @ fields.Sinv[t].T
            resid = (data.f(pts[:, 0], pts[:, 1]) - 2.0 * flux.b[t]
                     + sinv_u @ fields.w[t]
                     - fields.r[t] * sol.pressure[t])
            r_sq = rule.integrate(resid**2, mesh.elem_area[t])
            u_sq = rule.integrate((sinv_u**2).sum(axis=-1), mesh.elem_area[t])
            expected = math.sqrt(alpha[t] ** 2 * r_sq
                                 + beta[t] ** 2 * u_sq)
            assert got[t] == pytest.approx(expected, rel=1e-10)


class TestEtaNC:
    def test_jump_free_consistent_field(self):
        mesh = build_initial_mesh("unit-square")
        data = diffusion_data(np.ones(8))
        g = np.array([1.0, 2.0])
        rule = quad.gauss_edge_rule(3)
        a = mesh.vert_coords[mesh.edge_verts[:, 0]]
        b = mesh.vert_coords[mesh.edge_verts[:, 1]]
        pts = rule.physical_points(np.stack([a, b], axis=-2))
        trace = np.einsum("d,ed->e", g, mesh.edge_normal)
        sol = assembly.MixedSolution(trace, np.zeros(mesh.num_elements),
                                     "centered")
        ctx = EstimatorContext(Discretization(mesh, data), sol)
        eta = ctx.eta_NC_all()
        # interior jumps vanish; only the one-sided boundary terms remain
        interior_only = ctx._jump_sum(
            np.where(mesh.edge_flag == 0, ctx.jump_inv, 0.0),
            ctx.patch.lam_sigma)
        assert np.abs(interior_only).max() <= 1e-24

    def test_pure_diffusion_reduction(self):
        mesh, data, _, sol, ctx = solved_context("kellogg1")
        face_only = ctx._jump_sum(ctx.jump_inv, ctx.patch.lam_sigma)
        assert np.allclose(ctx.eta_NC_all(), np.sqrt(face_only), rtol=1e-14)

    def test_hand_built_patch(self):
        # two unit right triangles; piecewise-constant flux reconstruction
        from rtadapt.mesh import Triangulation
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        mesh = Triangulation(coords, np.array([[0, 1, 2], [0, 2, 3]]))
        data = diffusion_data(np.ones(2))
        sol = assembly.MixedSolution(np.zeros(mesh.num_edges),
                                     np.zeros(mesh.num_elements), "centered")
        ctx = EstimatorContext(Discretization(mesh, data), sol)
        ctx.flux.a = np.array([[1.0, 1.0], [0.0, 0.0]])
        ctx.flux.b = np.array([0.0, 0.0])
        ctx.jump_inv = __import__(
            "rtadapt.postprocess", fromlist=["tangential_jump_sq"]
        ).tangential_jump_sq(ctx.flux)[0]
        diag = int(np.flatnonzero(mesh.edge_flag == 0)[0])
        tvec = mesh.edge_tangent[diag]
        jump_val = np.array([1.0, 1.0]) @ tvec
        expected_diag = jump_val**2 * mesh.edge_length[diag]
        assert ctx.jump_inv[diag] == pytest.approx(expected_diag, rel=1e-14)
        eta0 = ctx.eta_NC_all()[0]
        # element 0 edges: diagonal (interior, delta 1/2) + two boundary
        b_edges = [e for e in mesh.elem_edges[0] if e != diag]
        expected = 0.5 * 1.0 * mesh.edge_length[diag] * expected_diag
        for e in b_edges:
            expected += mesh.edge_length[e] * ctx.jump_inv[e]
        assert eta0 == pytest.approx(math.sqrt(expected), rel=1e-12)


class TestEtaC:
    def test_zero_velocity(self):
        _, _, _, _, ctx = solved_context("kellogg1")
        assert np.all(ctx.eta_C_all() == 0.0)

    def test_constant_velocity_volume_term_vanishes(self):
        mesh, data, _, sol, ctx = solved_context("layer", eps=0.1, a=0.1,
                                                 scheme="upwind")
        assert np.array_equal(
            ctx.patch.lam_w_sigma,
            loop_patch_maxima(mesh, ctx.fields)["lam_w_sigma"])
        face_only = ctx._jump_sum(ctx.jump_inv, ctx.patch.lam_w_sigma**2)
        assert np.allclose(ctx.eta_C_all(), np.sqrt(face_only), rtol=1e-14)

    def test_matches_recomputation(self):
        mesh, data, _, sol, ctx = solved_context("layer", eps=0.05, a=0.1)
        E = mesh.elem_edges
        deltas = np.where(mesh.edge_flag[E] == 0, 0.5, 1.0)
        expected_sq = (deltas * ctx.patch.lam_w_sigma[E]**2
                       * mesh.edge_length[E] * ctx.jump_inv[E]).sum(axis=1)
        assert np.allclose(ctx.eta_C_all(), np.sqrt(expected_sq), rtol=1e-12)


class TestHatHatP:
    def test_centered_limit_interior(self):
        mesh, data, _, sol, ctx = solved_context("layer", eps=10.0, a=0.2,
                                                 scheme="upwind")
        # large diffusion caps every active weight at 1/2
        nu = assembly.upwind_weights(
            ctx.disc, assembly._edge_fluxes(mesh, ctx.fields))
        interior = mesh.edge_flag == 0
        active = interior & (np.abs(nu - 0.5) < 1e-14)
        assert active.any()
        vals = hat_hat_edges(ctx)
        assert np.abs(vals[active]).max() <= 1e-14

    def test_equal_pressures_interior(self):
        domain, data, _ = benchmark("layer", eps=0.01, a=0.1)
        mesh = data.initial_mesh(domain)
        system = assemble_upwind(Discretization(mesh, data))
        sol = solver.solve(system)
        sol.pressure[:] = 3.14
        ctx = EstimatorContext(Discretization(mesh, data), sol)
        vals = hat_hat_edges(ctx)
        interior = mesh.edge_flag == 0
        assert np.abs(vals[interior]).max() <= 1e-15

    def test_boundary_outflow_formula(self):
        """Homogeneous datum, w >= 0: hat-hat = -nu p_K."""
        domain, data, _ = benchmark("layer", eps=0.01, a=0.1)
        mesh = data.initial_mesh(domain)
        import rtadapt.problem as prb
        data0 = prb.ProblemData(data.table.S, data.table.w, data.table.r,
                                f=data.f,
                                dirichlet_data=None,
                                boundary_rule=None)  # all-Dirichlet, zero datum
        mesh0 = data0.initial_mesh(domain)
        system = assemble_upwind(Discretization(mesh0, data0))
        sol = solver.solve(system)
        sol.pressure[:] = 2.0
        ctx = EstimatorContext(Discretization(mesh0, data0), sol)
        vals = hat_hat_edges(ctx)
        edge_fluxes = assembly._edge_fluxes(mesh0, ctx.fields)
        nu = assembly.upwind_weights(ctx.disc, edge_fluxes)
        wflux = assembly._left_values(mesh0, edge_fluxes)
        top = np.flatnonzero((mesh0.edge_flag != 0) & (wflux > 0))
        assert top.size > 0 and np.all(nu[top] > 0.0)
        for e in top:
            assert vals[e] == pytest.approx(-nu[e] * 2.0, rel=1e-13)

    def test_requires_upwind_solution(self):
        mesh, data, _, sol, ctx = solved_context("kellogg1", refines=0)
        with pytest.raises(EstimatorError):
            hat_hat_p(ctx, 0)


class TestEtaU:
    def test_zero_velocity(self):
        _, data, _ = benchmark("kellogg1")
        mesh = data.initial_mesh("square2x2")
        sol = solver.solve(assemble_upwind(Discretization(mesh, data)))
        ctx = EstimatorContext(Discretization(mesh, data), sol)
        assert np.all(ctx.eta_U_all() == 0.0)

    def test_rejects_centered_solution(self):
        _, _, _, _, ctx = solved_context("kellogg1", refines=0)
        with pytest.raises(EstimatorError):
            ctx.eta_U_all()

    def test_single_element_hand_formula(self):
        mesh, data, _, sol, ctx = solved_context("layer", eps=0.01, a=0.1,
                                                 scheme="upwind")
        fields = ctx.fields
        hathat = ctx._hat_hat_all()
        got = ctx.eta_U_all()
        t = 3
        total = 0.0
        for i in range(3):
            e = mesh.elem_edges[t, i]
            w_ke = flux_through_edge(fields.w[t], mesh, t, i)
            wn = w_ke / mesh.edge_length[e]
            patch = edge_patch(mesh, e)
            omega = sum(ctx.norm_sq[s] for s in patch)
            total += wn**2 * (hathat[i, t] ** 2 * mesh.edge_length[e]
                              + mesh.edge_length[e] * omega)
        expected = math.sqrt(mesh.elem_diam[t] / fields.c_S[t] * total)
        assert got[t] == pytest.approx(expected, rel=1e-12)


class TestSingularVertices:
    def test_homogeneous_has_none(self):
        _, data, _ = benchmark("lshape")
        mesh = data.initial_mesh("lshape").uniform_refine()
        fields = data.fields(mesh)
        assert detect_singular_vertices(mesh, fields.C_S) == set()

    def test_checkerboard_origin(self):
        _, data, _ = benchmark("kellogg1")
        mesh = data.initial_mesh("square2x2")
        fields = data.fields(mesh)
        singular = detect_singular_vertices(mesh, fields.C_S)
        assert singular == {0}

    def test_interface_mid_edge_vertex_not_singular(self):
        # two half-planes: maximal side stays edge-connected around any
        # vertex on the interface line
        _, data, _ = benchmark("kellogg1")
        mesh = data.initial_mesh("square2x2").uniform_refine()
        fields = data.fields(mesh)
        singular = detect_singular_vertices(mesh, fields.C_S)
        origin = [v for v in range(mesh.num_vertices)
                  if np.allclose(mesh.vert_coords[v], 0.0)]
        assert singular == set(origin)

    def test_persists_under_refinement(self):
        _, data, _ = benchmark("kellogg2")
        mesh = data.initial_mesh("square2x2")
        for _ in range(3):
            mesh = mesh.uniform_refine()
        singular = detect_singular_vertices(mesh, data.fields(mesh).C_S)
        assert len(singular) == 1

    @pytest.mark.parametrize("s", [(1, 5, 1, 5, 1, 5), (5, 5, 1, 5, 5, 1),
                                   (5, 1, 1, 1, 1, 5), (1, 1, 1, 1, 1, 1)])
    def test_reentrant_corner_open_fan(self, s):
        # the six coarse L-shape triangles form the open fan of the
        # boundary vertex 0; two or three separated blocks of the larger
        # coefficient make it singular, one class does not.  (5,1,1,1,1,5)
        # has its blocks at the two ends of the fan, which a closed fan
        # would join into one
        expected = {0} if len(set(s)) > 1 else set()
        data = diffusion_data(s)
        mesh = data.initial_mesh("lshape")
        assert vertex_star(mesh, 0)[1]
        rng = np.random.default_rng(5)
        for refinements in range(6):
            if refinements:
                nt = mesh.num_elements
                mesh = mesh.refine(rng.choice(nt, size=max(1, nt // 3),
                                              replace=False))
            C_S = data.fields(mesh).C_S
            assert detect_singular_vertices(mesh, C_S) == expected
            assert star_walk_singular_vertices(mesh, C_S) == expected


class TestXi:
    def test_homogeneous_equals_unit_weight_jump_sum(self):
        mesh, data, _, sol, ctx = solved_context("lshape")
        E = mesh.elem_edges
        expected = np.sqrt(
            (mesh.edge_length[E] * ctx.jump_half[E]).sum(axis=1))
        assert np.allclose(ctx.xi_all(), expected, rtol=1e-14)

    def test_zero_field(self):
        data, mesh = zero_datum("kellogg1")
        sol = assembly.MixedSolution(np.zeros(mesh.num_edges),
                                     np.zeros(mesh.num_elements), "centered")
        ctx = EstimatorContext(Discretization(mesh, data), sol)
        assert np.all(ctx.xi_all() == 0.0)

    def test_singular_branch_uses_patch_maximum(self):
        mesh, data, _, sol, ctx = solved_context("kellogg1", refines=0)
        assert np.all(ctx.singular_elements())
        assert np.all(ctx.patch.C_S_patch == 5.0)
        E = mesh.elem_edges
        expected = np.sqrt(
            5.0 * (mesh.edge_length[E] * ctx.jump_inv[E]).sum(axis=1))
        assert np.allclose(ctx.xi_all(), expected, rtol=1e-14)

    def test_branch_split_on_refined_mesh(self):
        mesh, data, _, sol, ctx = solved_context("kellogg1", refines=2)
        singular = ctx.singular_elements()
        assert singular.any() and not singular.all()


class TestTotals:
    def test_pure_diffusion_zero_source_total_is_nc(self):
        _, _, _, _, ctx = solved_context("lshape")
        bd = ctx.compute("theorem")
        assert np.all(bd.eta_D == 0.0)
        assert np.all(bd.eta_R == 0.0)
        assert np.all(bd.eta_C == 0.0)
        assert np.allclose(bd.total, bd.eta_NC, rtol=1e-14)

    def test_zero_solution_zero_totals(self):
        data, mesh = zero_datum("kellogg1")
        sol = assembly.MixedSolution(np.zeros(mesh.num_edges),
                                     np.zeros(mesh.num_elements), "centered")
        bd = EstimatorContext(Discretization(mesh, data), sol) \
            .compute("theorem")
        assert np.all(bd.total == 0.0)

    def test_xi_policy_total(self):
        mesh, data, _, sol, ctx = solved_context("kellogg1")
        bd = ctx.compute("xi")
        assert np.array_equal(bd.total, bd.xi)
        assert total_indicator(ctx, 2, "xi") == bd.xi[2]
        assert total_indicator(ctx, 2, "theorem") == pytest.approx(
            math.sqrt(element_indicator(ctx, "eta_NC", 2) ** 2), rel=1e-14)

    def test_unknown_policy(self):
        _, _, _, _, ctx = solved_context("lshape")
        with pytest.raises(EstimatorError):
            ctx.compute("maximum")

    def test_upwind_total_includes_eta_u(self):
        mesh, data, _, sol, ctx = solved_context("layer", eps=0.01, a=0.1,
                                                 scheme="upwind")
        bd = ctx.compute("theorem")
        manual = np.sqrt(bd.eta_D**2 + bd.eta_R**2 + bd.eta_NC**2
                         + bd.eta_C**2 + bd.eta_U**2)
        assert np.allclose(bd.total, manual, rtol=1e-14)

    def test_csv_schema(self):
        _, _, _, _, ctx = solved_context("lshape")
        lines = ctx.compute("theorem").to_csv().splitlines()
        assert lines[0] == "element_id,eta_D,eta_R,eta_NC,eta_C,eta_U,xi,total"
        assert len(lines[1].split(",")) == 8


class TestBoundaryData:
    def test_zero_solution_measures_the_datum_slope(self):
        """For u_h = 0 the Dirichlet face terms are the data-rule
        integrals of the squared slope -dg/dt = t . S^-1 u of the datum,
        and c_S times that for S^-1/2, up to the central differences."""
        domain, data, exact = benchmark("kellogg1")
        mesh = data.initial_mesh(domain).uniform_refine()
        sol = assembly.MixedSolution(np.zeros(mesh.num_edges),
                                     np.zeros(mesh.num_elements), "centered")
        ctx = EstimatorContext(Discretization(mesh, data), sol)
        edges = np.flatnonzero(mesh.edge_flag == DIRICHLET)
        pts = quad.DATA_EDGE.physical_points(
            mesh.vert_coords[mesh.edge_verts[edges]])
        u, _ = exact.u_and_p(pts[..., 0], pts[..., 1])
        s = ctx.fields.c_S[mesh.edge_elems[edges, 0]]
        slope = np.einsum("eqd,ed->eq", u, mesh.edge_tangent[edges]) \
            / s[:, None]
        expected = quad.DATA_EDGE.integrate(slope**2,
                                            mesh.edge_length[edges])
        assert edges.size > 0 and np.all(expected > 0.0)
        assert np.allclose(ctx.jump_inv[edges], expected, rtol=1e-9, atol=0)
        assert np.allclose(ctx.jump_half[edges], s * expected, rtol=1e-9,
                           atol=0)

    @staticmethod
    def anisotropic_kellogg1(**kw):
        """kellogg1 with S = diag(1, 2) on the first coarse element."""
        domain, data, exact = benchmark("kellogg1")
        S = data.table.S.copy()
        S[0] = np.diag([1.0, 2.0])
        return domain, ProblemData(S, data.table.w, data.table.r, **kw), exact

    def test_datum_slope_on_anisotropic_tensor_raises(self):
        _, _, exact = benchmark("kellogg1")
        domain, data, _ = self.anisotropic_kellogg1(dirichlet_data=exact.p)
        mesh = data.initial_mesh(domain)
        disc = Discretization(mesh, data)
        sol = solver.solve(assemble_centered(disc))
        with pytest.raises(ProblemDataError, match="not scalar"):
            EstimatorContext(disc, sol)

    def test_anisotropic_tensor_with_zero_datum_runs(self):
        domain, data, _ = self.anisotropic_kellogg1(
            f=lambda x, y: np.ones_like(x))
        res = adapt.adaptive_loop(data, data.initial_mesh(domain),
                                  policy="xi", theta=0.7, max_iter=3)
        assert [r.k for r in res.records] == [1, 2, 3]
        assert all(r.eta > 0.0 for r in res.records)


class TestStructuralProperties:
    def test_scheme_limit_consistency(self):
        """With w = r = 0 the centered and upwind solutions coincide."""
        _, data, _ = benchmark("kellogg1")
        mesh = data.initial_mesh("square2x2").uniform_refine()
        sol_c = solver.solve(assemble_centered(Discretization(mesh, data)))
        sol_u = solver.solve(assemble_upwind(Discretization(mesh, data)))
        scale = np.abs(sol_c.flux).max()
        assert np.abs(sol_c.flux - sol_u.flux).max() <= 1e-10 * scale
        disc = Discretization(mesh, data)
        bd_c = EstimatorContext(disc, sol_c).compute("theorem")
        bd_u = EstimatorContext(disc, sol_u).compute("theorem")
        assert np.all(bd_u.eta_U == 0.0)
        assert np.allclose(bd_c.total, bd_u.total, rtol=1e-12, atol=1e-14)

    def test_degree_one_homogeneity(self):
        """With no source and a zero datum every family is homogeneous of
        degree one in (u_h, p_h).  The layer's convection and reaction and
        a random field make each one nonzero."""
        data, mesh = zero_datum("layer")
        mesh = mesh.uniform_refine()
        disc = Discretization(mesh, data)
        rng = np.random.default_rng(3)
        sol = assembly.MixedSolution(rng.normal(size=mesh.num_edges),
                                     rng.normal(size=mesh.num_elements),
                                     "centered")
        bd1 = EstimatorContext(disc, sol).compute("theorem")
        scaled = assembly.MixedSolution(2.5 * sol.flux, 2.5 * sol.pressure,
                                        sol.scheme)
        bd2 = EstimatorContext(disc, scaled).compute("theorem")
        for name in ("eta_D", "eta_R", "eta_NC", "eta_C", "xi", "total"):
            assert getattr(bd1, name).any(), name
            assert np.allclose(getattr(bd2, name),
                               2.5 * getattr(bd1, name),
                               rtol=1e-12, atol=1e-14)

    def test_reliability_and_efficiency_harness(self):
        """eta/E ratios stay within a factor-5 band along a run."""
        from rtadapt import verify
        domain, data, exact = benchmark("lshape")
        mesh = data.initial_mesh(domain)
        res = adapt.adaptive_loop(data, mesh, scheme="centered",
                                  policy="theorem", theta=0.5,
                                  max_iter=14, max_dof=3000, exact=exact)
        etas = np.array([r.eta for r in res.records])
        errs = np.array([r.energy_error for r in res.records])
        eff = verify.effectivity(etas, errs)
        assert np.all(np.isfinite(eff))
        assert eff.max() / eff.min() <= 5.0
