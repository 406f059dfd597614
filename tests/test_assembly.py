import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, strategies as st

from oracles import (ORACLE_TRI, dump_matrix, edge_patch, element_row,
                     flux_through_edge, local_matrices,
                     loop_neumann_coefficients, mixed_centered, mixed_upwind,
                     upwind_value_coeffs, upwind_weight)
from rtadapt import adapt, assembly, postprocess, quadrature as quad, solver
from rtadapt.assembly import (CENTERED, Discretization, SingularSystemError,
                              assemble_centered,
                              assemble_upwind, basis_factors, reconstruct)
from rtadapt.mesh import (DIRICHLET, INTERIOR, NEUMANN, Triangulation,
                          build_initial_mesh)
from rtadapt.problem import ProblemData, benchmark


def identity_problem(n_coarse, f=None, dirichlet=None, w=(0.0, 0.0), r=0.0,
                     S=None):
    S = np.eye(2) if S is None else S
    return ProblemData(np.tile(S, (n_coarse, 1, 1)),
                       np.tile(np.asarray(w, dtype=float), (n_coarse, 1)),
                       np.full(n_coarse, float(r)), f=f,
                       dirichlet_data=dirichlet)


def reference_triangle():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    elems = np.array([[0, 1, 2]])
    return Triangulation(coords, elems)


def oracle_mass_entry(mesh, Sinv, t, i, j):
    """High-order quadrature of int_K (S^-1 phi_i) . phi_j."""
    rule = ORACLE_TRI
    coords = mesh.elem_coords[t]
    pts = rule.physical_points(coords)
    C = basis_factors(mesh)[:, t]
    phi_i = C[i] * (pts - coords[i])
    phi_j = C[j] * (pts - coords[j])
    integrand = np.einsum("qa,ab,qb->q", phi_i, Sinv, phi_j)
    return float(rule.integrate(integrand, mesh.elem_area[t]))


class TestLocalMatrices:
    def test_reference_triangle_identity(self):
        mesh = reference_triangle()
        data = identity_problem(1)
        local = local_matrices(Discretization(mesh, data))[0]
        Sinv = np.eye(2)
        for i in range(3):
            for j in range(3):
                assert local.M[i, j] == pytest.approx(
                    oracle_mass_entry(mesh, Sinv, 0, i, j), abs=1e-12
                )

    def test_random_triangles_random_spd(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            coords = rng.uniform(-1, 1, size=(3, 2))
            d1, d2 = coords[1] - coords[0], coords[2] - coords[0]
            if d1[0] * d2[1] - d1[1] * d2[0] < 0.05:
                continue
            mesh = Triangulation(coords, np.array([[0, 1, 2]]))
            Q = rng.normal(size=(2, 2))
            S = Q @ Q.T + 0.3 * np.eye(2)
            data = identity_problem(1, S=S)
            local = local_matrices(Discretization(mesh, data))[0]
            Sinv = np.linalg.inv(S)
            for i in range(3):
                for j in range(3):
                    assert local.M[i, j] == pytest.approx(
                        oracle_mass_entry(mesh, Sinv, 0, i, j),
                        rel=1e-12, abs=1e-13,
                    )

    def test_divergence_integrals_are_signed_lengths(self):
        mesh = build_initial_mesh("lshape")
        data = identity_problem(6)
        for t, local in enumerate(local_matrices(Discretization(mesh, data))):
            expected = mesh.elem_signs[t] * mesh.edge_length[mesh.elem_edges[t]]
            assert np.array_equal(local.B, expected)

    def test_zero_velocity_kills_convection(self):
        mesh = build_initial_mesh("unit-square")
        data = identity_problem(8)
        for local in local_matrices(Discretization(mesh, data)):
            assert np.all(local.conv == 0.0)

    def test_reaction_block(self):
        mesh = reference_triangle()
        data = identity_problem(1, r=3.0)
        local = local_matrices(Discretization(mesh, data))[0]
        assert local.react == pytest.approx(3.0 * 0.5)


class TestFluxThroughEdge:
    def test_horizontal_edge(self):
        # unit-square mesh: element 0 is ((0,0),(0.5,0),(0.5,0.5));
        # its edge opposite the apex lies on y=0 with outward normal (0,-1)
        mesh = build_initial_mesh("unit-square")
        t = 0
        local = None
        for i in range(3):
            e = mesh.elem_edges[t, i]
            mid = mesh.edge_midpoints()[e]
            if abs(mid[1]) < 1e-12:
                local = i
        w = np.array([0.0, 1.0])
        got = flux_through_edge(w, mesh, t, local)
        assert got == pytest.approx(-0.5)  # outward normal (0,-1), length 1/2

    def test_vertical_velocity_through_vertical_edge(self):
        mesh = build_initial_mesh("unit-square")
        mids = mesh.edge_midpoints()
        w = np.array([0.0, 1.0])
        for t in range(mesh.num_elements):
            for i in range(3):
                e = mesh.elem_edges[t, i]
                a, b = mesh.edge_verts[e]
                dvec = mesh.vert_coords[b] - mesh.vert_coords[a]
                if abs(dvec[0]) < 1e-12:  # vertical edge
                    assert flux_through_edge(w, mesh, t, i) == pytest.approx(0.0)

    def test_antisymmetry_across_interior_edges(self):
        mesh = build_initial_mesh("square2x2")
        rng = np.random.default_rng(5)
        w = rng.normal(size=2)
        for e in range(mesh.num_edges):
            patch = edge_patch(mesh, e)
            if len(patch) != 2:
                continue
            vals = []
            for t in patch:
                i = int(np.flatnonzero(mesh.elem_edges[t] == e)[0])
                vals.append(flux_through_edge(w, mesh, t, i))
            assert vals[0] == pytest.approx(-vals[1], rel=1e-14, abs=1e-15)


class TestUpwindWeight:
    def test_zero_flux(self):
        assert upwind_weight(1.0, 1.0, 0.5, 0.0, False) == 0.0

    def test_inflow_boundary(self):
        assert upwind_weight(1.0, None, 0.5, -2.0, True) == 0.0

    def test_harmonic_average_case(self):
        eps = 1e-3
        # equal eigenvalues, flux 4*eps: min(eps/(4 eps), 1/2) = 1/4
        assert upwind_weight(eps, eps, 1.0, 4 * eps, False) == pytest.approx(0.25)

    def test_cap_at_half(self):
        assert upwind_weight(10.0, 10.0, 1.0, 1.0, False) == 0.5

    def test_coefficient_pairs(self):
        assert upwind_value_coeffs(0.5, 1.0, True) == (0.5, 0.5)
        assert upwind_value_coeffs(0.0, 1.0, True) == (1.0, 0.0)
        # inflow boundary with nu = 0 puts full weight on the datum slot,
        # so a homogeneous datum gives a vanishing face value
        c_own, c_dat = upwind_value_coeffs(0.0, -1.0, False)
        assert c_own == 0.0 and c_dat == 1.0


def with_neumann_data(data, g):
    """The problem ``data`` with the Neumann datum ``g``."""
    return ProblemData(data.table.S, data.table.w, data.table.r, f=data.f,
                       dirichlet_data=data.dirichlet_data, neumann_data=g,
                       boundary_rule=data.boundary_rule)


def neumann_layer():
    """Centered layer problem with a nonzero flux on its Neumann top edge."""
    domain, data, _ = benchmark("layer", eps=0.1, a=0.1)
    data = with_neumann_data(data, lambda x, y: np.sin(3.0 * x) + 0.5)
    return data.initial_mesh(domain).uniform_refine(), data


class TestAssembleCentered:
    def test_dimension(self):
        mesh = build_initial_mesh("lshape")
        data = identity_problem(6)
        system = assemble_centered(Discretization(mesh, data))
        assert system.dimension == np.count_nonzero(
            mesh.edge_flag == INTERIOR)
        n_free = int(np.count_nonzero(mesh.edge_flag != NEUMANN))
        assert mixed_centered(mesh, data).dimension == \
            n_free + mesh.num_elements

    def test_symmetric_for_pure_diffusion(self):
        _, data, _ = benchmark("kellogg1")
        mesh = data.initial_mesh("square2x2").uniform_refine()
        for system in (assemble_centered(Discretization(mesh, data)),
                       mixed_centered(mesh, data)):
            asym = abs(system.matrix - system.matrix.T).max()
            assert asym <= 1e-14

    def test_pure_diffusion_zero_source_rhs_support(self):
        _, data, _ = benchmark("lshape")
        mesh = data.initial_mesh("lshape")
        system = mixed_centered(mesh, data)
        rhs = system.rhs
        dir_rows = set(system.edge_dof[np.flatnonzero(mesh.edge_flag == 1)])
        for row in range(system.dimension):
            if row in dir_rows:
                continue
            assert rhs[row] == pytest.approx(0.0, abs=1e-15)
        assert np.abs(rhs).max() > 0.0
        # hybridized: only the edges of elements with a Dirichlet edge
        hybrid = assemble_centered(Discretization(mesh, data))
        touching = np.any(mesh.edge_flag[mesh.elem_edges] == DIRICHLET, axis=1)
        support = hybrid.edge_dof[np.unique(mesh.elem_edges[touching])]
        outside = np.setdiff1d(np.arange(hybrid.dimension), support)
        assert np.all(hybrid.rhs[outside] == 0.0)
        assert np.abs(hybrid.rhs).max() > 0.0

    def test_nonsymmetric_with_convection(self):
        domain, data, _ = benchmark("layer", eps=0.1, a=0.1)
        mesh = data.initial_mesh(domain)
        for system in (assemble_centered(Discretization(mesh, data)),
                       mixed_centered(mesh, data)):
            assert abs(system.matrix - system.matrix.T).max() > 1e-8
            # sparsity pattern still symmetric
            pattern = system.matrix.copy()
            pattern.data = np.ones_like(pattern.data)
            assert abs(pattern - pattern.T).max() == 0.0

    def test_matrix_dump_format(self):
        mesh = reference_triangle()
        data = identity_problem(1)
        system = mixed_centered(mesh, data)
        for line in dump_matrix(system).strip().splitlines():
            r, c, v = line.split()
            int(r), int(c), float(v)


def adapted(case, **kw):
    """A mesh after a few adaptive steps of the centered scheme."""
    policy = "xi" if case.startswith("kellogg") else "theorem"
    domain, data, _ = benchmark(case, **kw)
    run = adapt.adaptive_loop(data, data.initial_mesh(domain),
                              scheme=CENTERED, policy=policy, theta=0.5,
                              max_dof=1500)
    return run.mesh, data


HYBRID_CASES = {
    "lshape": lambda: adapted("lshape"),
    "kellogg1": lambda: adapted("kellogg1"),
    "kellogg2": lambda: adapted("kellogg2"),
    "layer": lambda: adapted("layer", eps=1e-2, a=0.1),
    "layer-neumann": neumann_layer,
}


class TestHybridAgainstOracle:
    @pytest.mark.parametrize("case", sorted(HYBRID_CASES))
    def test_solutions_agree(self, case):
        mesh, data = HYBRID_CASES[case]()
        hybrid = solver.solve(assemble_centered(Discretization(mesh, data)),
                              mesh.num_edges)
        mixed = solver.solve(mixed_centered(mesh, data), mesh.num_edges)
        scale = np.abs(mixed.flux).max()
        assert np.abs(hybrid.flux - mixed.flux).max() <= 1e-10 * scale
        assert np.abs(hybrid.pressure - mixed.pressure).max() <= \
            1e-10 * np.abs(mixed.pressure).max()
        neumann = mesh.edge_flag == NEUMANN
        assert np.array_equal(hybrid.flux[neumann], mixed.flux[neumann])

    @pytest.mark.parametrize("case", ["lshape", "kellogg1", "layer"])
    def test_multipliers_are_ptilde_edge_means(self, case):
        """The interior multiplier is the edge mean of the postprocessed
        scalar, from either side (Marini, SINUM 1985)."""
        mesh, data = HYBRID_CASES[case]()
        system = assemble_centered(Discretization(mesh, data))
        lam = spla.splu(system.matrix.tocsc()).solve(system.rhs)
        sol = solver.solve(system, mesh.num_edges)
        coeffs = postprocess.build_ptilde(mesh, data.fields(mesh), sol)
        interior = np.flatnonzero(system.edge_dof >= 0)
        rule = quad.EDGE_GAUSS2          # exact for quadratic traces
        pts = rule.physical_points(mesh.vert_coords[mesh.edge_verts[interior]])
        for side in (0, 1):
            elems = mesh.edge_elems[interior, side]
            means = postprocess.ptilde_values(coeffs[elems], pts) \
                @ rule.weights
            assert np.abs(means - lam[system.edge_dof[interior]]).max() \
                <= 1e-12 * np.abs(lam).max()

    def test_mixed_residual_is_oracle_residual(self):
        """The matrix-free residual and right-hand side are those of the
        assembled mixed equations."""
        mesh, data = neumann_layer()
        hybrid = assemble_centered(Discretization(mesh, data))
        mixed = mixed_centered(mesh, data)
        lam = spla.splu(hybrid.matrix.tocsc()).solve(hybrid.rhs)
        sol, residual, rhs = hybrid.recover(lam, mesh.num_edges)
        free = np.flatnonzero(mixed.edge_dof >= 0)
        x = np.concatenate([sol.flux[free], sol.pressure])
        assert np.abs(rhs - mixed.rhs).max() <= 1e-14 * np.abs(mixed.rhs).max()
        assert np.abs(residual - (mixed.matrix @ x - mixed.rhs)).max() <= \
            1e-14 * np.abs(mixed.rhs).max()
        # a wrong multiplier shows in the mixed residual
        _, residual, _ = hybrid.recover(lam + 1e-6, mesh.num_edges)
        assert np.linalg.norm(residual) > 1e-8 * np.linalg.norm(rhs)


class TestAssembleUpwind:
    def test_zero_velocity_equals_centered(self):
        _, data, _ = benchmark("kellogg1")
        mesh = data.initial_mesh("square2x2").uniform_refine()
        sys_c = mixed_centered(mesh, data)
        sys_u = mixed_upwind(mesh, data)
        assert abs(sys_c.matrix - sys_u.matrix).max() <= 1e-14
        assert np.allclose(sys_c.rhs, sys_u.rhs, atol=1e-15)

    def test_interior_edge_in_two_rows_with_opposite_fluxes(self):
        domain, data, _ = benchmark("layer", eps=0.01, a=0.05)
        mesh = data.initial_mesh(domain)
        fields = data.fields(mesh)
        wflux = assembly._edge_fluxes(mesh, fields)
        for e in range(mesh.num_edges):
            patch = edge_patch(mesh, e)
            if len(patch) != 2:
                continue
            vals = []
            for t in patch:
                i = int(np.flatnonzero(mesh.elem_edges[t] == e)[0])
                vals.append(wflux[t, i])
            assert vals[0] == pytest.approx(-vals[1], abs=1e-15)

    def test_upwind_element_rows_against_reevaluation(self):
        """Element rows rebuilt independently edge by edge."""
        domain, data, _ = benchmark("layer", eps=0.01, a=0.05)
        mesh = data.initial_mesh(domain).uniform_refine()
        fields = data.fields(mesh)
        system = mixed_upwind(mesh, data)
        A = system.matrix.tocsr()
        nu = system.nu
        pd_mean = assembly.dirichlet_edge_means(mesh, data)
        frow = assembly.load_vector(Discretization(mesh, data))

        for t in range(mesh.num_elements):
            row = element_row(system, t)
            expected = {}
            rhs_expected = -frow[t]

            def add(col, val):
                expected[col] = expected.get(col, 0.0) + val

            add(row, -fields.r[t] * mesh.elem_area[t])
            for i in range(3):
                e = mesh.elem_edges[t, i]
                w_ke = flux_through_edge(fields.w[t], mesh, t, i)
                dof = system.edge_dof[e]
                if dof >= 0:
                    add(dof, -mesh.elem_signs[t, i] * mesh.edge_length[e])
                if w_ke == 0.0:
                    continue
                c_own, c_other = upwind_value_coeffs(float(nu[e]), w_ke, True)
                patch = edge_patch(mesh, e)
                if len(patch) == 2:
                    other = patch[0] if patch[1] == t else patch[1]
                    add(row, -w_ke * c_own)
                    add(element_row(system, other), -w_ke * c_other)
                elif mesh.edge_flag[e] == DIRICHLET:
                    add(row, -w_ke * c_own)
                    rhs_expected += w_ke * c_other * pd_mean[e]
                else:  # Neumann outflow: interior value
                    add(row, -w_ke)
            got = {int(c): v for c, v in
                   zip(A.indices[A.indptr[row]:A.indptr[row + 1]],
                       A.data[A.indptr[row]:A.indptr[row + 1]])}
            assert set(got) == set(expected)
            for col, val in expected.items():
                assert got[col] == pytest.approx(val, rel=1e-13, abs=1e-15)
            assert system.rhs[row] == pytest.approx(rhs_expected, rel=1e-13)


class TestHybridUpwind:
    @pytest.mark.parametrize("case", sorted(HYBRID_CASES))
    def test_solutions_agree(self, case):
        mesh, data = HYBRID_CASES[case]()
        disc = Discretization(mesh, data)
        system = assemble_upwind(disc)
        assert system.dimension == \
            np.count_nonzero(mesh.edge_flag == INTERIOR) + mesh.num_elements
        hybrid = solver.solve(system, mesh.num_edges)
        mixed_system = mixed_upwind(mesh, data)
        mixed = solver.solve(mixed_system, mesh.num_edges)
        assert np.abs(hybrid.flux - mixed.flux).max() <= \
            1e-10 * np.abs(mixed.flux).max()
        assert np.abs(hybrid.pressure - mixed.pressure).max() <= \
            1e-10 * np.abs(mixed.pressure).max()
        neumann = mesh.edge_flag == NEUMANN
        assert np.array_equal(hybrid.flux[neumann], mixed.flux[neumann])
        nu = assembly.upwind_weights(disc,
                                     assembly._edge_fluxes(mesh, disc.fields))
        assert np.array_equal(nu, mixed_system.nu)

    @pytest.mark.parametrize("case", ["lshape", "kellogg1"])
    def test_pure_diffusion_is_symmetric_and_centered(self, case):
        """With w = 0 and r = 0 the face values drop out: the hybrid matrix
        is symmetric and the solution is the centered one."""
        mesh, data = HYBRID_CASES[case]()
        fields = data.fields(mesh)
        assert not np.any(fields.w) and not np.any(fields.r)
        system = assemble_upwind(Discretization(mesh, data))
        assert abs(system.matrix - system.matrix.T).max() <= \
            1e-14 * abs(system.matrix).max()
        upwind = solver.solve(system, mesh.num_edges)
        centered = solver.solve(assemble_centered(Discretization(mesh, data)),
                                mesh.num_edges)
        assert np.abs(upwind.flux - centered.flux).max() <= \
            1e-12 * np.abs(centered.flux).max()
        assert np.abs(upwind.pressure - centered.pressure).max() <= \
            1e-12 * np.abs(centered.pressure).max()

    def test_mixed_residual_is_oracle_residual(self):
        """The matrix-free residual and right-hand side, face-value
        coupling included, are those of the assembled mixed equations."""
        mesh, data = neumann_layer()
        hybrid = assemble_upwind(Discretization(mesh, data))
        mixed = mixed_upwind(mesh, data)
        x = spla.splu(hybrid.matrix.tocsc()).solve(hybrid.rhs)
        sol, residual, rhs = hybrid.recover(x, mesh.num_edges)
        free = np.flatnonzero(mixed.edge_dof >= 0)
        y = np.concatenate([sol.flux[free], sol.pressure])
        scale = np.abs(mixed.rhs).max()
        assert np.abs(rhs - mixed.rhs).max() <= 1e-14 * scale
        assert np.abs(residual - (mixed.matrix @ y - mixed.rhs)).max() <= \
            1e-13 * scale
        # a wrong multiplier or pressure shows in the mixed residual
        for i in (0, x.size - 1):
            wrong = x.copy()
            wrong[i] += 1e-6
            _, residual, _ = hybrid.recover(wrong, mesh.num_edges)
            assert np.linalg.norm(residual) > 1e-8 * np.linalg.norm(rhs)


@pytest.mark.parametrize("assemble", [assemble_centered, assemble_upwind])
class TestAssembledSystem:
    @staticmethod
    def layer_disc():
        domain, data, _ = benchmark("layer")
        return Discretization(data.initial_mesh(domain).uniform_refine(),
                              data)

    def test_matrix_has_canonical_format(self, assemble):
        """Sorted row indices in each column and no duplicate entries,
        which the factorization and the pattern comparisons rely on."""
        matrix = assemble(self.layer_disc()).matrix
        assert matrix.format == "csc" and matrix.has_canonical_format
        cols = np.repeat(np.arange(matrix.shape[1]), np.diff(matrix.indptr))
        assert np.all(np.diff(cols * matrix.shape[0] + matrix.indices) > 0)

    def test_non_finite_block_names_the_element(self, assemble):
        disc = self.layer_disc()
        # an infinite reaction on one element, set past the coefficient
        # table, which rejects it
        disc.fields.r[5] = np.inf
        with pytest.raises(SingularSystemError, match="element 5$"):
            assemble(disc)


class TestClosedFormInverse:
    """The cofactor inverses and the pressure condensation of assembly
    against LAPACK, on the element blocks of every benchmark after one
    uniform refinement."""

    @staticmethod
    def close(inverse, blocks):
        """Entry-major (n, n, NT) inverses against LAPACK's."""
        reference = np.linalg.inv(blocks.transpose(2, 0, 1))
        scale = np.abs(reference).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(inverse.transpose(2, 0, 1) - reference)
                      <= 1e-13 * scale)

    @pytest.mark.parametrize("case", ["lshape", "kellogg1", "kellogg2",
                                      "layer"])
    def test_agrees_with_lapack(self, case):
        domain, data, _ = benchmark(case)
        mesh = data.initial_mesh(domain).uniform_refine()
        assert (NEUMANN in mesh.edge_flag) == (case == "layer")
        neumann = mesh.edge_flag[mesh.elem_edges.T] == NEUMANN
        disc = Discretization(mesh, data)
        centered = assemble_centered(disc)
        self.close(centered.inverse, identity_rows(
            centered.blocks[:3, :3], neumann))
        upwind = assemble_upwind(disc)
        self.close(upwind.inverse, identity_rows(
            upwind.blocks[:3, :3], neumann))
        M = assembly._local_blocks(disc)[0]
        self.close(assembly._inverse3(M), M)
        # the condensed (u, p) of the centered blocks, to their own load
        # and a random trace
        lam = np.random.default_rng(3).normal(size=neumann.shape)
        rhs = centered.load.copy()
        rhs[:3] += centered.fixed_flux[mesh.elem_edges.T]
        assert_solutions(*eliminated_solutions(centered.blocks, neumann,
                                               rhs, lam), 1e-13, False)


def coefficient_sets(n):
    """n coarse coefficient sets: an SPD S with eigenvalues in [1e-2, 1e2],
    w in [-10, 10]^2 and r >= 0."""
    one = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                    st.floats(0.0, np.pi),
                    st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
                    st.floats(0.0, 10.0))
    return st.lists(one, min_size=n, max_size=n)


def identity_rows(blocks, neumann):
    """A copy of the (n, n, NT) blocks with the flux rows set in the (3, NT)
    mask ``neumann`` made identity rows, as Neumann rows are."""
    eliminated = blocks.copy()
    i, t = np.nonzero(neumann)
    eliminated[i, :, t] = 0.0
    eliminated[i, i, t] = 1.0
    return eliminated


def drawn_blocks(sets, neumann):
    """Entry-major centered element blocks (4, 4, 16) of the once refined
    unit square under the coefficient ``sets``, with the flux rows set in
    the (3, 16) mask ``neumann`` made identity rows."""
    S, w, r = [], [], []
    for lo, hi, angle, vel, react in sets:
        Q = np.array([[np.cos(angle), -np.sin(angle)],
                      [np.sin(angle), np.cos(angle)]])
        S.append(Q @ np.diag([10.0**lo, 10.0**hi]) @ Q.T)
        w.append(vel)
        r.append(react)
    mesh = build_initial_mesh("unit-square").uniform_refine()
    data = ProblemData(np.array(S), np.array(w), np.array(r))
    M, B, conv, react = assembly._local_blocks(Discretization(mesh, data))
    blocks = np.empty((4, 4, mesh.num_elements))
    blocks[:3, :3] = M
    blocks[:3, 3] = -B
    blocks[3, :3] = -B + conv
    blocks[3, 3] = -react
    return identity_rows(blocks, neumann)


def assert_inverse(inverse, blocks):
    """Per element within 1e-12 of LAPACK's inverse, relative to its
    largest entry, on blocks of condition number up to 1e4.  Beyond that
    the bound grows with the condition number, as neither inverse is more
    accurate there: in 32,000 blocks of 2,000 random draws of
    ``drawn_blocks`` with Neumann rows, 0.9% have a condition number
    above 1e4, up to 5.5e6, and differ by up to 1.9e-11; the others
    differ by at most 2.9e-13."""
    elementwise = blocks.transpose(2, 0, 1)
    reference = np.linalg.inv(elementwise)
    scale = np.abs(reference).max(axis=(1, 2)) \
        * np.maximum(1.0, np.linalg.cond(elementwise) / 1e4)
    assert np.all(np.abs(inverse.transpose(2, 0, 1) - reference)
                  <= 1e-12 * scale[:, None, None])


def eliminated_solutions(blocks, neumann, rhs, lam):
    """The per-element (u, p) of [[M, -B], [c, d]] (u, p) = rhs - (B lambda,
    0), blocks (4, 4, NT), rhs (4, NT) and lambda (3, NT), with the flux
    rows set in the (3, NT) mask ``neumann`` made identity rows.

    Returns (u, p) from ``_eliminate_fluxes`` and ``_condense_pressure``,
    as the centered assembly computes it, and from LAPACK's solver, with
    the eliminated blocks and their right-hand sides, element-major."""
    _, v, q, H, cH = assembly._eliminate_fluxes(blocks, neumann, rhs[:3])
    offset, gain = assembly._condense_pressure(blocks, rhs, v, q, cH)
    p = offset + (gain * lam).sum(axis=0)
    u = q + v * p - assembly._apply(H, lam)
    eliminated = identity_rows(blocks, neumann)
    full = rhs.copy()
    full[:3] += eliminated[:3, 3] * lam
    A, f = eliminated.transpose(2, 0, 1), full.T
    return (np.concatenate([u, p[None]]).T,
            np.linalg.solve(A, f[..., None])[..., 0], A, f)


def assert_solutions(solution, reference, A, f, tol, conditioned=True):
    """Per element within ``tol`` of LAPACK's solution, relative to the
    largest entries of the inverse and of the right-hand side, and with
    ``conditioned`` proportionally looser for a condition number above
    1e4, as in ``assert_inverse``.  In 448,000 blocks of 28,000 random
    draws of ``drawn_blocks`` with Neumann rows, right-hand sides and
    traces, 0.7-0.9% have a condition number above 1e4, up to 1.3e8, and
    differ by up to 2.2e-11 (at most 8.3e-13 after the scaling); the
    others differ by at most 8.3e-13."""
    scale = np.abs(np.linalg.inv(A)).max(axis=(1, 2)) * np.abs(f).max(axis=1)
    if conditioned:
        scale *= np.maximum(1.0, np.linalg.cond(A) / 1e4)
    assert np.all(np.abs(solution - reference) <= tol * scale[:, None])


class TestBatchedInverseProperties:
    """``_inverse3``, and the flux elimination with the pressure
    condensation, on element blocks under random SPD tensors, velocities,
    reactions, Neumann rows, right-hand sides and traces."""

    @given(sets=coefficient_sets(8), data=st.data())
    def test_agree_with_lapack(self, sets, data):
        # at most two Neumann edges per element, as on a mesh of more than
        # one element; three would leave a pure-Neumann element
        rows = data.draw(st.lists(st.sampled_from(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
             (1, 0, 1), (0, 1, 1)]), min_size=16, max_size=16),
            label="neumann")
        neumann = np.array(rows, dtype=bool).T
        blocks = drawn_blocks(sets, neumann)
        assert_inverse(assembly._inverse3(blocks[:3, :3]), blocks[:3, :3])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="seed"))
        rhs = rng.normal(size=(4, 16))
        lam = np.where(neumann, 0.0, rng.normal(size=(3, 16)))
        assert_solutions(*eliminated_solutions(blocks, neumann, rhs, lam),
                         1e-12)

    @given(sets=coefficient_sets(8),
           singular=st.sets(st.integers(0, 15), min_size=1, max_size=3))
    def test_vanishing_schur_complement_names_first_element(self, sets,
                                                             singular):
        neumann = np.zeros((3, 16), dtype=bool)
        blocks = drawn_blocks(sets, neumann)
        load = np.zeros((4, 16))
        _, v, q, _, cH = assembly._eliminate_fluxes(blocks, neumann,
                                                    load[:3])
        # d = -c . v in the kernel's own arithmetic, so s = 0 exactly
        c_v = (blocks[3, :3] * v).sum(axis=0)
        elems = sorted(singular)
        blocks[3, 3, elems] = -c_v[elems]
        with pytest.raises(SingularSystemError,
                           match=f"element {elems[0]}$"):
            assembly._condense_pressure(blocks, load, v, q, cH)

    @given(sets=coefficient_sets(8), elem=st.integers(0, 15),
           row=st.integers(0, 2))
    def test_zero_determinant_names_the_element(self, sets, elem, row):
        blocks = drawn_blocks(sets, np.zeros((3, 16), dtype=bool))
        blocks[row, :3, elem] = 0.0
        with pytest.raises(SingularSystemError, match=f"element {elem}$"):
            assembly._inverse3(blocks[:3, :3])


class TestSolutionMapping:
    def test_reconstruction_normal_traces(self):
        """The flux coefficient is the constant normal trace on its edge."""
        mesh = build_initial_mesh("unit-square")
        rng = np.random.default_rng(9)
        sol = assembly.MixedSolution(
            flux=rng.normal(size=mesh.num_edges),
            pressure=rng.normal(size=mesh.num_elements),
            scheme=CENTERED,
        )
        a, b = reconstruct(mesh, sol)
        rule = quad.gauss_edge_rule(2)
        for t in range(mesh.num_elements):
            for i in range(3):
                e = mesh.elem_edges[t, i]
                va = mesh.vert_coords[mesh.edge_verts[e, 0]]
                vb = mesh.vert_coords[mesh.edge_verts[e, 1]]
                pts = rule.physical_points(np.stack([va, vb], axis=-2))
                u = a[t] + b[t] * pts
                trace = u @ mesh.edge_normal[e]
                mean = rule.integrate(trace, 1.0)
                assert mean == pytest.approx(sol.flux[e], rel=1e-12, abs=1e-13)

    def test_neumann_elimination_roundtrip(self):
        domain, data, _ = benchmark("layer", eps=0.1, a=0.1)
        mesh = data.initial_mesh(domain)
        system = assemble_centered(Discretization(mesh, data))
        neumann = np.flatnonzero(mesh.edge_flag == NEUMANN)
        assert neumann.size == 2
        assert not np.any(system.fixed_flux)
        sol = solver.solve(system, mesh.num_edges)
        for e in neumann:
            assert sol.flux[e] == system.fixed_flux[e] == 0.0

    def test_nonzero_neumann_flux_is_kept(self):
        mesh, data = neumann_layer()
        for system in (assemble_centered(Discretization(mesh, data)),
                       assemble_upwind(Discretization(mesh, data))):
            sol = solver.solve(system, mesh.num_edges)
            neumann = mesh.edge_flag == NEUMANN
            assert np.all(system.fixed_flux[neumann] != 0.0)
            assert np.array_equal(sol.flux[neumann],
                                  system.fixed_flux[neumann])

    def test_neumann_coefficients_match_loop(self):
        """One vectorized pass, bit-equal to the edge-by-edge evaluation."""
        mesh, data = neumann_layer()
        mesh = mesh.uniform_refine()
        got = assembly.neumann_fixed_coefficients(mesh, data)
        want = loop_neumann_coefficients(mesh, data)
        assert np.count_nonzero(want) == \
            np.count_nonzero(mesh.edge_flag == NEUMANN)
        assert np.array_equal(got, want)
