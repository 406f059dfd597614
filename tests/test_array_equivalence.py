"""The array code in mesh, problem, estimators, assembly and the artifact
writers against the entity-by-entity loop references of ``oracles``,
exactly (no tolerance), and the component and matmul kernels against
their ``einsum`` forms.

The meshes come from the first adaptive steps of each benchmark, plus
randomly refined meshes under a pure-convection coefficient set, whose
vanishing reaction makes the velocity quotient infinite.  Refinement is
compared with recursive longest-edge (Rivara) bisection up to numbering.
The kernels are checked on adaptive meshes of about 1.5k elements, under
the benchmark's coefficients and under full anisotropic tensors: bit for
bit where they keep the operation order of ``einsum``, within 1e-14 of
the largest entry where a matmul sums in another order.  The tangential
jumps of both weightings, from one evaluation of u_h, are bit-equal to
one pass per weighting.
"""

import numpy as np
import pytest

import oracles
from oracles import (canonical, dict_topology, loop_dump, loop_estimator_csv,
                     loop_nodal_csv, loop_patch_maxima, loop_svg,
                     loop_upwind_weights, rivara_refine,
                     star_walk_singular_vertices)
from rtadapt import adapt, assembly, cli, estimators, postprocess
from rtadapt import quadrature as quad, solver, verify
from rtadapt.estimators import EstimatorContext, detect_singular_vertices
from rtadapt.mesh import (DIRICHLET, DOMAINS, INTERIOR, NEUMANN,
                          Triangulation, build_initial_mesh)
from rtadapt.problem import (ElementCoefficients, ProblemData, benchmark,
                             patch_quantities)

STEPS = 12
CASES = {
    # case: (scheme, policy, theta)
    "lshape": (assembly.CENTERED, "theorem", 0.5),
    "kellogg1": (assembly.CENTERED, "xi", 0.7),
    "kellogg2": (assembly.CENTERED, "xi", 0.94),
    "layer": (assembly.UPWIND, "theorem", 0.5),
}


def adaptive_meshes(case):
    """Problem data, the meshes of the first STEPS adaptive steps and the
    marked sets that lead from each mesh to the next."""
    scheme, policy, theta = CASES[case]
    domain, data, _ = benchmark(case)
    mesh = data.initial_mesh(domain)
    meshes, marks = [mesh], []
    for _ in range(STEPS - 1):
        _, ctx = adapt.run_iteration(mesh, data, scheme,
                                     subtract_boundary_data=True)
        marks.append(adapt.dorfler_mark(ctx.compute(policy).total, theta))
        mesh = mesh.refine(marks[-1])
        meshes.append(mesh)
    return data, meshes, marks


def pure_convection_meshes():
    """Varying diffusion, w != 0, r = divw = 0 on the unit square, under
    random partial refinement."""
    rng = np.random.default_rng(3)
    coeffs = [ElementCoefficients(s * np.eye(2), np.array([0.3, -1.0]), 0.0)
              for s in (1e-3, 1.0, 1.0, 1e-3, 1e-3, 2.0, 2.0, 1e-3)]
    data = ProblemData(coeffs)
    mesh = data.initial_mesh("unit-square")
    meshes, marks = [mesh], []
    for _ in range(STEPS - 1):
        nt = mesh.num_elements
        marks.append(rng.choice(nt, size=max(1, nt // 4), replace=False))
        mesh = mesh.refine(marks[-1])
        meshes.append(mesh)
    return data, meshes, marks


@pytest.fixture(scope="module", params=[*CASES, "pure-convection"])
def case_meshes(request):
    if request.param == "pure-convection":
        return pure_convection_meshes()
    return adaptive_meshes(request.param)


def boundary_flags(mesh):
    return {tuple(int(v) for v in mesh.edge_verts[e]): int(mesh.edge_flag[e])
            for e in np.flatnonzero(mesh.edge_flag != INTERIOR)}


def test_meshes_are_adaptive(case_meshes):
    _, meshes, _ = case_meshes
    assert len(meshes) >= 10
    sizes = [m.num_elements for m in meshes]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_topology_matches_dict_build(case_meshes):
    _, meshes, _ = case_meshes
    for mesh in meshes:
        ref = dict_topology(mesh.elem_verts, boundary_flags(mesh))
        for got, want in zip((mesh.edge_verts, mesh.elem_edges,
                              mesh.edge_elems, mesh.edge_flag), ref):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_topology_of_shuffled_elements(case_meshes):
    """First-occurrence numbering on an element order unrelated to the
    refinement history, with rotated local vertex order."""
    _, meshes, _ = case_meshes
    mesh = meshes[-1]
    rng = np.random.default_rng(11)
    perm = rng.permutation(mesh.num_elements)
    shift = rng.integers(0, 3, mesh.num_elements)
    local = (np.arange(3)[None, :] + shift[:, None]) % 3
    elems = np.take_along_axis(mesh.elem_verts, local, axis=1)[perm]
    flags = boundary_flags(mesh)
    shuffled = Triangulation(mesh.vert_coords, elems, flags)
    ref = dict_topology(elems, flags)
    for got, want in zip((shuffled.edge_verts, shuffled.elem_edges,
                          shuffled.edge_elems, shuffled.edge_flag), ref):
        assert np.array_equal(got, want)


def test_patch_maxima_match_loop(case_meshes):
    data, meshes, _ = case_meshes
    for mesh in meshes:
        fields = data.fields(mesh)
        patch = patch_quantities(mesh, fields)
        for name, want in loop_patch_maxima(mesh, fields).items():
            assert np.array_equal(getattr(patch, name), want), name


def test_singular_vertices_match_star_walk(case_meshes):
    data, meshes, _ = case_meshes
    for mesh in meshes:
        C_S = data.fields(mesh).C_S
        assert detect_singular_vertices(mesh, C_S) \
            == star_walk_singular_vertices(mesh, C_S)


def test_upwind_weights_match_loop(case_meshes):
    data, meshes, _ = case_meshes
    for mesh in meshes:
        disc = assembly.Discretization(mesh, data)
        assert np.array_equal(assembly.upwind_weights(disc),
                              loop_upwind_weights(disc))


def test_pure_convection_quotients():
    """c_wr = 0 with C_w > 0: the velocity quotient is infinite on every
    star, so the edge weight falls back to the mesh Peclet quotient."""
    data, meshes, _ = pure_convection_meshes()
    for mesh in meshes:
        patch = patch_quantities(mesh, data.fields(mesh))
        assert np.all(np.isinf(patch.lambda_w_sigma))
        assert np.array_equal(patch.lam_w_sigma, patch.p_w_sigma)
        assert np.all(np.isfinite(patch.lam_w_sigma))
        assert np.all(patch.lam_divw == 0.0)


def test_refine_matches_rivara(case_meshes):
    _, meshes, marks = case_meshes
    for mesh, marked, fine in zip(meshes, marks, meshes[1:]):
        assert canonical(fine) == canonical(rivara_refine(mesh, marked))


@pytest.mark.parametrize("domain", DOMAINS)
def test_uniform_refine_matches_rivara(domain):
    mesh = build_initial_mesh(
        domain, lambda x, y: NEUMANN if y > 1.0 - 1e-12 else DIRICHLET)
    for _ in range(6):
        fine = mesh.uniform_refine()
        assert canonical(fine) == canonical(
            rivara_refine(mesh, range(mesh.num_elements)))
        mesh = fine


def test_writers_match_row_writers(case_meshes):
    """``dump`` and ``to_svg`` are byte-identical to the writers that
    format every row, and every coordinate, where it is written."""
    rng = np.random.default_rng(7)
    _, meshes, _ = case_meshes
    for mesh in meshes[::3] + [meshes[-1].uniform_refine().uniform_refine()]:
        assert mesh.dump() == oracles.row_dump(mesh)
        values = rng.random(mesh.num_elements)
        assert mesh.to_svg(values) == oracles.row_svg(mesh, values)
        assert mesh.to_svg(size=333) == oracles.row_svg(mesh, size=333)


def test_artifacts_match_loop_writers(tmp_path):
    """The files of a layer run (Neumann top edge) against the line-by-line
    writers, on the final mesh read back and solved again."""
    assert cli.main(["run", "--benchmark", "layer", "--max-dof", "600",
                     "--out", str(tmp_path)]) == 0
    text = (tmp_path / "mesh_final.txt").read_text()
    mesh = Triangulation.parse(text)
    assert NEUMANN in mesh.edge_flag
    assert text == loop_dump(mesh)
    domain, data, _ = benchmark("layer")
    solution, ctx = adapt.run_iteration(mesh, data, assembly.UPWIND,
                                        subtract_boundary_data=True)
    breakdown = ctx.compute("theorem")
    assert (tmp_path / "estimators.csv").read_text() \
        == breakdown.to_csv() == loop_estimator_csv(breakdown)
    assert (tmp_path / "mesh_final.svg").read_text() \
        == loop_svg(mesh, breakdown.total)
    assert mesh.to_svg() == loop_svg(mesh)
    nodal = postprocess.nodal_average(mesh, solution.pressure)
    assert (tmp_path / "ptilde_nodal.csv").read_text() \
        == loop_nodal_csv(nodal)


# ----------------------------------------------------------------------
# 2x2 and quadrature kernels against their einsum forms
# ----------------------------------------------------------------------

KERNEL_CASES = {
    # case: (scheme, policy)
    "lshape": (assembly.CENTERED, "theorem"),
    "kellogg1": (assembly.CENTERED, "xi"),
    "layer": (assembly.UPWIND, "theorem"),
}


def anisotropic(n_coarse):
    """Full SPD tensors, velocities and reactions on the coarse elements,
    and a smooth source."""
    rng = np.random.default_rng(5)
    coeffs = []
    for _ in range(n_coarse):
        Q = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        S = Q @ np.diag(rng.uniform(0.01, 10.0, 2)) @ Q.T
        coeffs.append(ElementCoefficients(0.5 * (S + S.T), rng.normal(size=2),
                                          rng.uniform(0.0, 2.0)))
    return ProblemData(coeffs, f=lambda x, y: np.sin(3 * x) * np.cos(2 * y))


@pytest.fixture(scope="module",
                params=[(case, coeffs) for case in KERNEL_CASES
                        for coeffs in ("benchmark", "anisotropic")],
                ids=lambda p: "-".join(p))
def solved(request):
    """An adaptive mesh of about 1.5k elements, solved, with its context
    and exact solution."""
    case, coeffs = request.param
    scheme, policy = KERNEL_CASES[case]
    domain, data, exact = benchmark(case)
    mesh = adapt.adaptive_loop(data, data.initial_mesh(domain), scheme=scheme,
                               policy=policy, max_dof=1500).mesh
    assert 1400 <= mesh.num_elements <= 2000
    if coeffs == "anisotropic":
        data = anisotropic(len(data.coefficients))
    disc = assembly.Discretization(mesh, data)
    assemble = assembly.assemble_centered if scheme == assembly.CENTERED \
        else assembly.assemble_upwind
    solution = solver.solve(assemble(disc), mesh.num_edges)
    return disc, solution, EstimatorContext(disc, solution), exact


def assert_close(got, want, rel=1e-14):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def test_physical_points_match_einsum(solved):
    coords = solved[0].mesh.elem_coords
    for rule in (quad.MIDPOINT, quad.SEVEN_POINT, quad.SINGULAR_VERTEX):
        assert_close(rule.physical_points(coords),
                     oracles.einsum_physical_points(rule, coords))


def test_integrate_matches_einsum(solved):
    mesh = solved[0].mesh
    rng = np.random.default_rng(8)
    for rule, measure in ((quad.SEVEN_POINT, mesh.elem_area),
                          (quad.DATA_EDGE, mesh.edge_length)):
        values = rng.normal(size=(measure.size, rule.npoints))
        assert_close(rule.integrate(values, measure),
                     oracles.einsum_integrate(rule, values, measure))


def test_weighted_flux_is_bit_equal(solved):
    disc, _, ctx, _ = solved
    elems = np.arange(disc.mesh.num_elements)
    for pts in (disc.midpoints, disc.seven_points):
        for weighting in ("inv", "invsqrt"):
            assert np.array_equal(
                ctx.flux.weighted(elems, pts, weighting),
                oracles.einsum_weighted(ctx.flux, elems, pts, weighting))


def test_tangential_trace_is_bit_equal(solved):
    disc, _, ctx, _ = solved
    mesh = disc.mesh
    edges = np.arange(mesh.num_edges)
    pts = postprocess._edge_points(mesh, edges, quad.EDGE_GAUSS2)
    for weighting in ("inv", "invsqrt"):
        assert np.array_equal(
            postprocess._tangential_trace(
                mesh, ctx.flux, weighting, mesh.edge_elems[:, 0], edges,
                ctx.flux.u(mesh.edge_elems[:, 0], pts)),
            oracles.einsum_tangential_trace(mesh, ctx.flux, weighting,
                                            mesh.edge_elems[:, 0], edges,
                                            pts))


def test_jumps_are_bit_equal_to_one_weighting_each(solved):
    """The context's single pass over the edge points, u_h evaluated once
    and weighted twice, gives the jumps of two single-weighting passes."""
    disc, solution, ctx, _ = solved
    passes = [(ctx, None, None)]
    fields = disc.fields
    # the square-root weighting of the data needs a scalar diffusion tensor
    if not np.any(fields.C_S - fields.c_S > 1e-12 * fields.C_S):
        passes.append((EstimatorContext(disc, solution, True),
                       estimators._data_slope(disc, "inv"),
                       estimators._data_slope(disc, "invsqrt")))
    for context, slope_inv, slope_half in passes:
        for jumps, weighting, slope in ((context.jump_inv, "inv", slope_inv),
                                        (context.jump_half, "invsqrt",
                                         slope_half)):
            assert np.array_equal(jumps, oracles.single_weighting_jump_sq(
                disc.mesh, context.flux, weighting, slope))


def test_reconstruction_is_bit_equal(solved):
    disc, solution, ctx, _ = solved
    a, b = oracles.einsum_reconstruct(disc.mesh, solution)
    assert np.array_equal(ctx.flux.a, a)
    assert np.array_equal(ctx.flux.b, b)
    coeffs = postprocess.build_ptilde(disc.mesh, disc.fields, solution)
    assert np.array_equal(coeffs[:, 1:3],
                          oracles.einsum_ptilde_linear(disc.fields, a))


def test_edge_fluxes_are_bit_equal(solved):
    disc = solved[0]
    assert np.array_equal(disc.edge_fluxes,
                          oracles.einsum_edge_fluxes(disc.mesh, disc.fields))


def test_local_blocks_match_einsum(solved):
    disc = solved[0]
    M, B, conv, react = assembly._local_blocks(disc)
    eM, eB, econv, ereact = oracles.einsum_local_blocks(disc.mesh,
                                                        disc.fields)
    assert_close(M, eM)
    if np.any(econv):
        assert_close(conv, econv)
    else:
        assert not np.any(conv)
    assert np.array_equal(B, eB)
    assert np.array_equal(react, ereact)


def test_estimator_integrals_match_einsum(solved):
    ctx = solved[2]
    assert_close(ctx.norm_sq, oracles.einsum_weighted_norm_sq(ctx))
    assert_close(ctx._residual_norm_sq(), oracles.einsum_residual_norm_sq(ctx))


def test_energy_error_matches_einsum(solved):
    disc, solution, ctx, exact = solved
    elems = np.arange(disc.mesh.num_elements)
    args = (quad.SEVEN_POINT, disc.seven_points, elems, disc.mesh,
            ctx.fields, ctx.flux, solution.pressure, exact)
    assert_close(verify._error_sq(*args), oracles.einsum_error_sq(*args))
