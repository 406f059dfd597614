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
the largest entry where they contract the coefficient tensors once per
element instead of at every quadrature point.  The estimator context's
tangential jumps are bit-equal to one ``tangential_jump_sq`` pass.  The
per-element contractions are also checked against the per-point forms
on randomly refined meshes under random SPD tensors.
"""

import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from oracles import (canonical, dict_topology, loop_dump, loop_estimator_csv,
                     loop_nodal_csv, loop_patch_maxima, loop_svg,
                     loop_upwind_weights, rivara_refine,
                     star_walk_singular_vertices)
from rtadapt import adapt, assembly, cli, mesh as meshmod, postprocess
from rtadapt import quadrature as quad, solver, verify
from rtadapt.estimators import (EstimatorBreakdown, EstimatorContext,
                                detect_singular_vertices)
from rtadapt.mesh import (DIRICHLET, DOMAINS, INTERIOR, NEUMANN,
                          Triangulation, apply_boundary_rule,
                          build_initial_mesh)
from rtadapt.problem import (ExactSolution, ProblemData, benchmark,
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
        _, ctx = adapt.run_iteration(mesh, data, scheme)
        marks.append(adapt.dorfler_mark(ctx.compute(policy).total, theta))
        mesh = mesh.refine(marks[-1])
        meshes.append(mesh)
    return data, meshes, marks


def pure_convection_meshes():
    """Varying diffusion, w != 0, r = 0 on the unit square, under random
    partial refinement."""
    rng = np.random.default_rng(3)
    s = np.array([1e-3, 1.0, 1.0, 1e-3, 1e-3, 2.0, 2.0, 1e-3])
    data = ProblemData(s[:, None, None] * np.eye(2),
                       np.tile([0.3, -1.0], (8, 1)), np.zeros(8))
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
                              mesh.edge_elems, mesh.edge_flag,
                              mesh.elem_signs), ref, strict=True):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_topology_of_shuffled_elements(case_meshes):
    """First-occurrence numbering and edge signs on an element order
    unrelated to the refinement history, with rotated local vertex
    order."""
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
                          shuffled.edge_elems, shuffled.edge_flag,
                          shuffled.elem_signs), ref, strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_patch_maxima_match_loop(case_meshes):
    data, meshes, _ = case_meshes
    for mesh in meshes:
        fields = data.fields(mesh)
        want = loop_patch_maxima(mesh, fields)
        for name, got in vars(patch_quantities(mesh, fields)).items():
            assert np.array_equal(got, want[name]), name


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
    """r = 0 with C_w > 0: the velocity quotient is infinite on every
    star, so the edge weight falls back to the mesh Peclet quotient."""
    data, meshes, _ = pure_convection_meshes()
    for mesh in meshes:
        fields = data.fields(mesh)
        patch = patch_quantities(mesh, fields)
        oracle = loop_patch_maxima(mesh, fields)
        assert np.all(np.isinf(oracle["lambda_w_sigma"]))
        assert np.array_equal(patch.lam_w_sigma, oracle["p_w_sigma"])
        assert np.all(np.isfinite(patch.lam_w_sigma))


def test_refine_matches_rivara(case_meshes):
    _, meshes, marks = case_meshes
    for mesh, marked, fine in zip(meshes, marks, meshes[1:]):
        assert canonical(fine) == canonical(rivara_refine(mesh, marked))


@pytest.mark.parametrize("domain", DOMAINS)
def test_uniform_refine_matches_rivara(domain):
    mesh = apply_boundary_rule(
        build_initial_mesh(domain),
        lambda x, y: NEUMANN if y > 1.0 - 1e-12 else DIRICHLET)
    for _ in range(6):
        fine = mesh.uniform_refine()
        assert canonical(fine) == canonical(
            rivara_refine(mesh, range(mesh.num_elements)))
        mesh = fine


def test_writers_match_row_writers(case_meshes, monkeypatch):
    """``dump`` and ``to_svg`` are byte-identical to the writers that
    format every row, and every coordinate, where it is written, also at
    another SVG size."""
    rng = np.random.default_rng(7)
    _, meshes, _ = case_meshes
    for mesh in meshes[::3] + [meshes[-1].uniform_refine().uniform_refine()]:
        assert mesh.dump() == oracles.row_dump(mesh)
        values = rng.random(mesh.num_elements)
        assert mesh.to_svg(values) == oracles.row_svg(mesh, values)
        with monkeypatch.context() as patch:
            patch.setattr(meshmod, "SVG_SIZE", 333)
            assert mesh.to_svg() == oracles.row_svg(mesh, size=333)


def block_rows(count, offset):
    """The smallest block size of at least three rows that splits
    ``count`` rows into two or more blocks and leaves them ``offset`` rows
    past a block boundary (-1: one row short of it); None if none does."""
    return next((rows for rows in range(3, count // 2 + 1)
                 if (count - offset) % rows == 0), None)


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "on", "past"])
@pytest.mark.parametrize("kind", ["num_vertices", "num_edges",
                                  "num_elements"])
def test_block_writers_at_block_boundaries(kind, offset, monkeypatch):
    """With blocks of a few rows, every block writer, as a string and
    into an open file, equals its row oracle on meshes whose vertex, edge
    or element count ends one row short of a block boundary, on one, or
    one row past one."""
    rng = np.random.default_rng(11)
    domain, data, _ = benchmark("layer")
    mesh = data.initial_mesh(domain)
    checked = 0
    for _ in range(6):
        mesh = mesh.uniform_refine()
        rows = block_rows(getattr(mesh, kind), offset)
        if rows is None:
            continue
        monkeypatch.setattr(meshmod, "BLOCK_ROWS", rows)
        values = rng.random(mesh.num_elements)
        breakdown = EstimatorBreakdown(*rng.random((7, mesh.num_elements)))
        nodal = rng.random(mesh.num_vertices)
        for write, args, want in [
                (mesh.dump, (), oracles.row_dump(mesh)),
                (mesh.to_svg, (values,), oracles.row_svg(mesh, values)),
                (mesh.to_svg, (), oracles.row_svg(mesh)),
                (breakdown.to_csv, (), loop_estimator_csv(breakdown)),
                (cli.write_nodal, (nodal,), loop_nodal_csv(nodal))]:
            assert write(*args) == want
            out = io.StringIO()
            assert write(*args, out=out) is None
            assert out.getvalue() == want
        checked += 1
    assert checked >= 2


def test_empty_breakdown_csv():
    """No elements: the header line alone, as a string and into a file."""
    empty = EstimatorBreakdown(*np.empty((7, 0)))
    want = loop_estimator_csv(empty)
    assert want == "element_id,eta_D,eta_R,eta_NC,eta_C,eta_U,xi,total\n"
    assert empty.to_csv() == want
    out = io.StringIO()
    empty.to_csv(out)
    assert out.getvalue() == want


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
    solution, ctx = adapt.run_iteration(mesh, data, assembly.UPWIND)
    breakdown = ctx.compute("theorem")
    assert (tmp_path / "estimators.csv").read_text() \
        == breakdown.to_csv() == loop_estimator_csv(breakdown)
    assert (tmp_path / "mesh_final.svg").read_text() \
        == loop_svg(mesh, breakdown.total)
    assert mesh.to_svg() == loop_svg(mesh)
    nodal = postprocess.nodal_average(mesh, solution.pressure)
    assert (tmp_path / "ptilde_nodal.csv").read_text() \
        == loop_nodal_csv(nodal)


def test_estimator_csv_of_zero_columns(tmp_path):
    """A centered pure-diffusion run, four of whose seven estimator
    columns are +0.0 on every element, and a column of zeros with one
    -0.0 entry, against the value-by-value writer."""
    assert cli.main(["run", "--benchmark", "kellogg1", "--max-dof", "600",
                     "--out", str(tmp_path)]) == 0
    mesh = Triangulation.parse((tmp_path / "mesh_final.txt").read_text())
    domain, data, _ = benchmark("kellogg1")
    _, ctx = adapt.run_iteration(mesh, data, assembly.CENTERED)
    breakdown = ctx.compute("xi")
    assert [name for name in ("eta_D", "eta_R", "eta_NC", "eta_C", "eta_U")
            if not getattr(breakdown, name).any()] \
        == ["eta_D", "eta_R", "eta_C", "eta_U"]
    assert (tmp_path / "estimators.csv").read_text() \
        == breakdown.to_csv() == loop_estimator_csv(breakdown)
    breakdown.eta_C[3] = -0.0
    assert breakdown.to_csv() == loop_estimator_csv(breakdown)
    assert breakdown.to_csv().splitlines()[4].split(",")[4] == "-0"


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
        coeffs.append((0.5 * (S + S.T), rng.normal(size=2),
                       rng.uniform(0.0, 2.0)))
    return ProblemData(*map(np.array, zip(*coeffs)),
                       f=lambda x, y: np.sin(3 * x) * np.cos(2 * y))


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
        data = anisotropic(data.table.r.size)
    disc = assembly.Discretization(mesh, data)
    assemble = assembly.assemble_centered if scheme == assembly.CENTERED \
        else assembly.assemble_upwind
    solution = solver.solve(assemble(disc))
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
        values = rng.normal(size=(measure.size, rule.weights.size))
        assert_close(rule.integrate(values, measure),
                     oracles.einsum_integrate(rule, values, measure))


def test_weighted_flux_is_bit_equal(solved):
    """The per-point weighting of the oracles, the reference for the
    per-element contractions."""
    disc, _, ctx, _ = solved
    elems = np.arange(disc.mesh.num_elements)
    for rule in (quad.MIDPOINT, quad.SEVEN_POINT):
        pts = rule.physical_points(disc.mesh.elem_coords)
        for weighting in ("inv", "invsqrt"):
            assert np.array_equal(
                oracles.weighted(ctx.flux, elems, pts, weighting),
                oracles.einsum_weighted(ctx.flux, elems, pts, weighting))


def test_tangential_trace_is_bit_equal(solved):
    """The per-point tangential trace of the oracles."""
    disc, _, ctx, _ = solved
    mesh = disc.mesh
    edges = np.arange(mesh.num_edges)
    pts = quad.EDGE_GAUSS2.physical_points(
        mesh.vert_coords[mesh.edge_verts[edges]])
    for weighting in ("inv", "invsqrt"):
        assert np.array_equal(
            oracles.tangential_trace(
                mesh, ctx.flux, weighting, mesh.edge_elems[:, 0], edges,
                ctx.flux.u(mesh.edge_elems[:, 0], pts)),
            oracles.einsum_tangential_trace(mesh, ctx.flux, weighting,
                                            mesh.edge_elems[:, 0], edges,
                                            pts))


def test_contracted_traces_match_per_point(solved):
    """t . W u_h as v . u_h, one v = W^T t per (edge, side), on both sides
    of every edge, from per-edge rows at the edge points of
    ``_edge_points``, which are those of ``physical_points`` bit for bit."""
    disc, _, ctx, _ = solved
    mesh = disc.mesh
    edges = np.arange(mesh.num_edges)
    pts = quad.EDGE_GAUSS2.physical_points(
        mesh.vert_coords[mesh.edge_verts[edges]])
    for side in mesh.edge_elems.T:
        edges_s, elems = edges[side >= 0], side[side >= 0]
        x, y = postprocess._edge_points(mesh, edges_s, quad.EDGE_GAUSS2)
        assert np.array_equal(np.stack([x.T, y.T], axis=-1), pts[edges_s])
        values = ctx.flux.u(elems, pts[edges_s])
        for weighting, trace in zip(("inv", "invsqrt"), postprocess._traces(
                ctx.flux, side, edges_s, x, y)):
            assert_close(trace.T,
                         oracles.tangential_trace(mesh, ctx.flux, weighting,
                                                  elems, edges_s, values))


def test_jumps_are_bit_equal_to_one_weighting_each(solved):
    """The context's two weightings are those of one ``tangential_jump_sq``
    pass bit for bit, and each matches the per-point single-weighting
    jumps of the oracles within 1e-14, with the datum's slope
    (``postprocess.datum_slopes``) scaled by sqrt(c_S) for S^-1/2."""
    disc, _, ctx, _ = solved
    mesh = disc.mesh
    both = postprocess.tangential_jump_sq(ctx.flux)
    for jumps, again, weighting in zip((ctx.jump_inv, ctx.jump_half), both,
                                       ("inv", "invsqrt")):
        assert np.array_equal(jumps, again)

        def slope(e, p, half=weighting == "invsqrt"):
            s = postprocess.datum_slopes(disc, e, p[..., 0].T,
                                         p[..., 1].T)[0].T
            c_S = disc.fields.c_S[mesh.edge_elems[e, 0]]
            return np.sqrt(c_S)[:, None] * s if half else s

        assert_close(jumps, oracles.single_weighting_jump_sq(
            mesh, ctx.flux, weighting, slope))


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
    assert np.array_equal(disc.face_rule[0].T,
                          oracles.einsum_edge_fluxes(disc.mesh, disc.fields))


def test_local_blocks_match_einsum(solved):
    disc = solved[0]
    M, B, conv, react = oracles.element_major_blocks(disc)
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
    pts = quad.SEVEN_POINT.physical_points(ctx.mesh.elem_coords)
    assert_close(ctx.norm_sq, oracles.einsum_weighted_norm_sq(ctx))
    assert_close(ctx._residual_norm_sq(),
                 oracles.einsum_residual_norm_sq(ctx, pts))


def test_energy_error_matches_einsum(solved):
    disc, solution, ctx, exact = solved
    elems = np.arange(disc.mesh.num_elements)
    pts = quad.SEVEN_POINT.physical_points(disc.mesh.elem_coords)
    args = (quad.SEVEN_POINT, pts, elems, disc.mesh, ctx.fields, ctx.flux,
            solution.pressure, exact)
    assert_close(verify._error_sq(*args), oracles.einsum_error_sq(*args))


# ----------------------------------------------------------------------
# per-element contractions against the per-point forms, on random
# refinements under random SPD tensors
# ----------------------------------------------------------------------

def random_problem(n_coarse, rng):
    """Random SPD tensors (eigenvalues 0.01-10) on the coarse elements,
    each element either pure diffusion or with a random velocity and a
    positive reaction, a smooth source and a smooth exact solution."""
    coeffs = []
    for _ in range(n_coarse):
        Q = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        S = Q @ np.diag(rng.uniform(0.01, 10.0, 2)) @ Q.T
        pure = rng.random() < 0.3
        coeffs.append((0.5 * (S + S.T),
                       np.zeros(2) if pure else rng.normal(size=2),
                       0.0 if pure else rng.uniform(0.1, 2.0)))
    data = ProblemData(*map(np.array, zip(*coeffs)),
                       f=lambda x, y: np.sin(3 * x) * np.cos(2 * y))
    exact = ExactSolution(
        p=lambda x, y: np.exp(x) * np.sin(y),
        u_and_p=lambda x, y: (np.stack([np.cos(x + y), x * np.exp(y)],
                                       axis=-1), np.exp(x) * np.sin(y)))
    return data, exact


@given(domain=st.sampled_from(DOMAINS), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_contractions_match_per_point(domain, seed, data):
    """The closed-form M and conv, the weighted norm, the residual, the
    tangential jumps of both weightings and the energy kernel within 1e-14
    of their per-point forms, for a random flux and pressure."""
    rng = np.random.default_rng(seed)
    mesh = build_initial_mesh(domain)
    problem, exact = random_problem(mesh.num_elements, rng)
    for _ in range(data.draw(st.integers(0, 3), label="depth")):
        mesh = mesh.refine(data.draw(
            st.sets(st.integers(0, mesh.num_elements - 1)), label="marked"))
    disc = assembly.Discretization(mesh, problem)
    solution = assembly.MixedSolution(rng.normal(size=mesh.num_edges),
                                      rng.normal(size=mesh.num_elements),
                                      assembly.CENTERED)
    ctx = EstimatorContext(disc, solution)

    M, _, conv, _ = oracles.element_major_blocks(disc)
    eM, _, econv, _ = oracles.einsum_local_blocks(mesh, disc.fields)
    assert_close(M, eM)
    assert_close(conv, econv)
    assert_close(ctx.norm_sq, oracles.einsum_weighted_norm_sq(ctx))
    pts = quad.SEVEN_POINT.physical_points(mesh.elem_coords)
    assert_close(ctx._residual_norm_sq(),
                 oracles.einsum_residual_norm_sq(ctx, pts))
    assert_close(ctx.jump_inv,
                 oracles.single_weighting_jump_sq(mesh, ctx.flux, "inv"))
    assert_close(ctx.jump_half,
                 oracles.single_weighting_jump_sq(mesh, ctx.flux, "invsqrt"))
    args = (quad.SEVEN_POINT, pts, np.arange(mesh.num_elements), mesh,
            disc.fields, ctx.flux, solution.pressure, exact)
    assert_close(verify._error_sq(*args), oracles.einsum_error_sq(*args))
