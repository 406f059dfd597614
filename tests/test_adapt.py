import dataclasses
import functools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtadapt import adapt, assembly, estimators, quadrature as quad, \
    solver, verify
from rtadapt.adapt import AdaptError, adaptive_loop, dorfler_mark
from rtadapt.cli import BENCHMARK_DEFAULTS
from rtadapt.mesh import Triangulation, apply_boundary_rule, \
    build_initial_mesh
from rtadapt.problem import CoefficientFields, ProblemData, benchmark


class TestDorflerMark:
    def test_hand_enumeration(self):
        # squares (9, 16, 0); theta^2 * 25 = 16 is reached by {4} alone
        marked = dorfler_mark(np.array([3.0, 4.0, 0.0]), 0.8)
        assert marked.tolist() == [1]

    def test_theta_one_marks_all_nonzero(self):
        marked = dorfler_mark(np.array([3.0, 0.0, 1.0, 2.0]), 1.0)
        assert marked.tolist() == [0, 2, 3]

    def test_single_element(self):
        for theta in (0.1, 0.5, 1.0):
            assert dorfler_mark(np.array([2.0]), theta).tolist() == [0]

    def test_all_zero_returns_empty(self):
        assert dorfler_mark(np.zeros(5), 0.5).size == 0

    def test_tie_group_is_marked_whole(self):
        # theta^2 * 16 = 10.24 needs three of the four equal entries;
        # the fourth is in their tie group and is marked with them
        marked = dorfler_mark(np.array([2.0, 2.0, 2.0, 2.0]), 0.8)
        assert marked.tolist() == [0, 1, 2, 3]

    def test_tie_tolerance_is_relative(self):
        # one of the three near-equal entries reaches theta^2 * total;
        # 1e-13 apart is a tie, 1e-9 apart is not
        near = dorfler_mark(np.array([1.0, 3.0, 3.0 * (1 - 1e-13), 3.0]),
                            0.5)
        assert near.tolist() == [1, 2, 3]
        apart = dorfler_mark(np.array([1.0, 3.0, 3.0 * (1 - 1e-9), 3.0]),
                             0.5)
        assert apart.tolist() == [1, 3]

    def test_invalid_theta(self):
        with pytest.raises(AdaptError):
            dorfler_mark(np.ones(3), 0.0)
        with pytest.raises(AdaptError):
            dorfler_mark(np.ones(3), 1.5)

    def test_negative_indicator_rejected(self):
        with pytest.raises(AdaptError):
            dorfler_mark(np.array([1.0, -0.5]), 0.5)

    def test_minimality(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            ind = rng.uniform(0.0, 1.0, size=rng.integers(2, 40))
            theta = rng.uniform(0.05, 1.0)
            marked = dorfler_mark(ind, theta)
            total = (ind**2).sum()
            got = (ind[marked] ** 2).sum()
            assert got >= theta**2 * total * (1 - 1e-12)
            if marked.size:
                weakest = marked[np.argmin(ind[marked])]
                rest = np.setdiff1d(marked, [weakest])
                assert (ind[rest] ** 2).sum() < theta**2 * total * (1 - 1e-12)


def indicator_sets():
    """Indicators with deliberate exact and near ties: values drawn from a
    few levels, each possibly perturbed within the tie tolerance."""
    level = st.sampled_from([0.0, 0.3, 1.0, 1.7, 2.5])
    jitter = st.sampled_from([0.0, 1e-15, -3e-14, 2e-13])
    value = st.one_of(st.floats(0.0, 10.0),
                      st.builds(lambda v, d: v * (1.0 + d), level, jitter))
    return st.lists(value, min_size=1, max_size=30).map(np.array)


def bulk_target(ind, theta):
    return theta**2 * (ind**2).sum() * (1 - 1e-12)


class TestDorflerProperties:
    """Dorfler marking with tie closure: the marked set reaches the bulk
    criterion, is minimal up to its last tie group, grows with theta and
    depends only on the indicator values."""

    @given(ind=indicator_sets(), theta=st.floats(0.01, 1.0))
    def test_bulk_and_minimal_up_to_ties(self, ind, theta):
        marked = dorfler_mark(ind, theta)
        if (ind**2).sum() == 0.0:         # all vanish, or square to 0
            assert marked.size == 0
            return
        assert (ind[marked] ** 2).sum() >= bulk_target(ind, theta)
        weakest = ind[marked].min()
        # an upper set of the positive indicators
        unmarked = np.setdiff1d(np.flatnonzero(ind > 0), marked)
        assert np.all(ind[unmarked] < weakest)
        # without its last tie group the set misses the bulk criterion
        stronger = ind[marked][ind[marked] > weakest / (1 - adapt.TIE_TOL)]
        assert (stronger**2).sum() < bulk_target(ind, theta)

    @given(ind=indicator_sets(), thetas=st.tuples(st.floats(0.01, 1.0),
                                                  st.floats(0.01, 1.0)))
    def test_monotone_in_theta(self, ind, thetas):
        low, high = sorted(thetas)
        assert set(dorfler_mark(ind, low)) <= set(dorfler_mark(ind, high))

    @given(ind=indicator_sets(), theta=st.floats(0.01, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_permutation_invariant(self, ind, theta, seed):
        perm = np.random.default_rng(seed).permutation(ind.size)
        marked = dorfler_mark(ind, theta)
        assert np.array_equal(np.sort(perm[dorfler_mark(ind[perm], theta)]),
                              marked)


class TestAdaptiveLoop:
    def test_lshape_three_iterations(self):
        domain, data, exact = benchmark("lshape")
        mesh = data.initial_mesh(domain)
        res = adaptive_loop(data, mesh, theta=0.5, max_iter=3, exact=exact)
        assert [r.k for r in res.records] == [1, 2, 3]
        dofs = [r.dof for r in res.records]
        assert dofs[0] == 6
        assert all(b > a for a, b in zip(dofs, dofs[1:]))
        assert all(math.isfinite(r.energy_error) for r in res.records)

    def test_uniform_mode_quadruples(self):
        domain, data, _ = benchmark("lshape")
        mesh = data.initial_mesh(domain)
        res = adaptive_loop(data, mesh, mode="uniform", max_iter=4)
        dofs = [r.dof for r in res.records]
        for a, b in zip(dofs, dofs[1:]):
            assert b == 4 * a

    def test_uniform_step_is_two_uniform_refinements(self):
        """Uniform record k solves on the mesh of 2(k - 1) uniform_refine
        rounds: its E and eta equal those of a solve there bit for bit, and
        the final mesh is that of six rounds."""
        domain, data, exact = benchmark("lshape")
        meshes = [data.initial_mesh(domain)]
        for _ in range(6):
            meshes.append(meshes[-1].uniform_refine())
        res = adaptive_loop(data, meshes[0], mode="uniform", max_iter=4,
                            exact=exact)
        for record, mesh in zip(res.records, meshes[::2], strict=True):
            solution, ctx = adapt.run_iteration(mesh, data, "centered")
            eta = ctx.compute("theorem").family_totals()["total"]
            energy, _ = verify.energy_error(mesh, ctx.fields, ctx.flux,
                                            solution.pressure, exact)
            assert record.dof == mesh.num_elements
            assert record.energy_error == energy and record.eta == eta
        assert res.mesh.dump() == meshes[6].dump()

    def test_max_dof_stop(self):
        domain, data, _ = benchmark("lshape")
        mesh = data.initial_mesh(domain)
        res = adaptive_loop(data, mesh, mode="uniform", max_iter=50,
                            max_dof=100)
        assert res.records[-1].dof >= 100
        assert res.records[-2].dof < 100

    def test_energy_error_nan_without_exact(self):
        domain, data, _ = benchmark("lshape")
        mesh = data.initial_mesh(domain)
        res = adaptive_loop(data, mesh, max_iter=2)
        assert all(math.isnan(r.energy_error) for r in res.records)

    def test_unknown_mode(self):
        domain, data, _ = benchmark("lshape")
        mesh = data.initial_mesh(domain)
        with pytest.raises(AdaptError):
            adaptive_loop(data, mesh, mode="random")

    def test_plain_boundary_trace_refused(self):
        """The estimators always subtract the boundary data."""
        domain, data, _ = benchmark("lshape")
        mesh = data.initial_mesh(domain)
        with pytest.raises(AdaptError, match="always subtract"):
            adapt.run_iteration(mesh, data, "centered", False)

    def test_deterministic(self):
        domain, data, exact = benchmark("kellogg1")
        mesh = data.initial_mesh(domain)
        runs = [adaptive_loop(data, mesh, policy="xi", theta=0.7,
                              max_iter=6, exact=exact) for _ in range(2)]
        for a, b in zip(*[r.records for r in runs]):
            assert a.dof == b.dof
            assert a.energy_error == b.energy_error
            assert a.eta == b.eta

    def test_stagnation_stops_with_partial_history(self):
        # zero data: the discrete solution and all indicators vanish,
        # so the first marking round is empty and the loop stops
        domain, data, _ = benchmark("lshape")
        import rtadapt.problem as prb
        silent = prb.ProblemData(data.table.S, data.table.w, data.table.r,
                                 f=None, dirichlet_data=None)
        mesh = silent.initial_mesh(domain)
        res = adaptive_loop(silent, mesh, max_iter=10)
        assert len(res.records) == 1
        assert res.records[0].eta == 0.0

    def test_lshape_error_monotone_after_two(self):
        domain, data, exact = benchmark("lshape")
        mesh = data.initial_mesh(domain)
        res = adaptive_loop(data, mesh, theta=0.5, max_iter=14, exact=exact)
        errs = [r.energy_error for r in res.records]
        assert all(b <= a + 1e-12 for a, b in zip(errs[1:], errs[2:]))


class TestSharedDiscretization:
    """One iteration gathers the coefficient fields once and shares its
    per-mesh quantities between assembly, estimators and energy error."""

    @pytest.fixture
    def field_calls(self, monkeypatch):
        calls = []
        gather = ProblemData.fields

        def counted(problem, mesh):
            calls.append(mesh.num_elements)
            return gather(problem, mesh)

        monkeypatch.setattr(ProblemData, "fields", counted)
        return calls

    @pytest.mark.parametrize("case, scheme", [("kellogg1", "centered"),
                                              ("layer", "upwind")])
    def test_one_gather_per_iteration(self, field_calls, case, scheme):
        domain, data, exact = benchmark(case)
        mesh = data.initial_mesh(domain).uniform_refine()
        solution, ctx = adapt.run_iteration(mesh, data, scheme)
        ctx.compute("theorem")
        verify.energy_error(mesh, ctx.fields, ctx.flux, solution.pressure,
                            exact)
        assert field_calls == [mesh.num_elements]
        assert isinstance(ctx.disc, assembly.Discretization)
        assert ctx.flux.disc is ctx.disc and ctx.fields is ctx.disc.fields

    def test_one_jump_pass_and_one_left_flux_gather(self, monkeypatch):
        """An upwind iteration evaluates both jump weightings in one call
        and gathers the first-element edge fluxes once."""
        jump_calls, gathers = [], []
        jumps, left_values = estimators.tangential_jump_sq, \
            assembly._left_values

        def counted_jumps(flux):
            jump_calls.append(flux.disc.mesh.num_elements)
            return jumps(flux)

        def counted_gather(mesh, per_elem_edge):
            if per_elem_edge.dtype.kind == "f":      # not the int8 signs
                gathers.append(per_elem_edge.shape)
            return left_values(mesh, per_elem_edge)

        monkeypatch.setattr(estimators, "tangential_jump_sq", counted_jumps)
        monkeypatch.setattr(assembly, "_left_values", counted_gather)
        domain, data, _ = benchmark("layer")
        mesh = data.initial_mesh(domain).uniform_refine()
        _, ctx = adapt.run_iteration(mesh, data, "upwind")
        ctx.compute("theorem")
        assert jump_calls == [mesh.num_elements]
        assert gathers == [(mesh.num_elements, 3)]

    @pytest.mark.parametrize("case, scheme, expected",
                             [("kellogg1", "centered", 0),
                              ("layer", "upwind", 1)])
    def test_face_rule_built_once_per_upwind_iteration(
            self, monkeypatch, case, scheme, expected):
        """The assembly, the residual of the recovery and eta_U share the
        Discretization's face rule, and the centered scheme never builds
        it."""
        calls = []
        sides = assembly.upwind_sides

        def counted(*args):
            calls.append(args[0].num_elements)
            return sides(*args)

        monkeypatch.setattr(assembly, "upwind_sides", counted)
        domain, data, _ = benchmark(case)
        mesh = data.initial_mesh(domain).uniform_refine()
        _, ctx = adapt.run_iteration(mesh, data, scheme)
        ctx.compute("theorem")
        assert calls == [mesh.num_elements] * expected

    @pytest.mark.parametrize("case, scheme", [("kellogg1", "centered"),
                                              ("layer", "upwind")])
    def test_each_datum_evaluated_once(self, case, scheme):
        """One iteration evaluates the source once where the problem has
        one (the layer; a Kellogg problem has none, and takes a zero source
        without evaluating it), the Dirichlet datum for its edge means and
        once per side of the central difference that gives both boundary
        slopes, and the exact u and p jointly once per energy rule and
        block of ``mesh.BLOCK_ROWS`` elements, one block here."""
        domain, data, exact = benchmark(case)
        calls = Counter()

        def counted(name, func):
            def wrapper(x, y):
                calls[name] += 1
                return func(x, y)
            return wrapper

        data.f = counted("f", data.f)
        data.dirichlet_data = counted("datum", data.dirichlet_data)
        exact = dataclasses.replace(
            exact, p=counted("p", exact.p),
            u_and_p=counted("u_and_p", exact.u_and_p))
        mesh = data.initial_mesh(domain).uniform_refine()
        solution, ctx = adapt.run_iteration(mesh, data, scheme)
        ctx.compute("theorem")
        verify.energy_error(mesh, ctx.fields, ctx.flux, solution.pressure,
                            exact)
        rules = 1 + len(exact.singular_points)
        sources = {"kellogg1": 0, "layer": 1}[case]
        assert calls == Counter(f=sources, datum=3, u_and_p=rules)

    @pytest.mark.parametrize("case, mappings", [("lshape", 0), ("kellogg1", 0),
                                                ("layer", 1)])
    def test_source_nodes_mapped_only_for_a_source(self, monkeypatch, case,
                                                   mappings):
        """A problem without a source takes a read-only zero source and
        maps no seven-point nodes for it; the layer's source maps them
        once."""
        calls = []
        physical_points = quad.Rule.physical_points

        def counted(rule, coords):
            calls.append(rule is quad.SEVEN_POINT)
            return physical_points(rule, coords)

        monkeypatch.setattr(quad.Rule, "physical_points", counted)
        domain, data, _ = benchmark(case)
        mesh = data.initial_mesh(domain).uniform_refine()
        disc = assembly.Discretization(mesh, data)
        assert sum(calls) == mappings
        assert disc.source.shape == (mesh.num_elements, 7)
        assert not disc.source.flags.writeable
        assert disc.source.any() == (case == "layer")

    @pytest.mark.parametrize("case, scheme", [("kellogg1", "centered"),
                                              ("layer", "upwind")])
    def test_factorization_runs_without_estimator_data(
            self, monkeypatch, case, scheme):
        """At the splu call the fields that only the estimators read
        (S^-1/2, C_S and C_w) are not yet gathered, and the system holds
        no (3, 3, NT) flux inverse; over the iteration every field but S
        is gathered exactly once."""
        systems, at_splu, gathered = [], [], Counter()
        assemble, splu = getattr(assembly, f"assemble_{scheme}"), \
            solver.spla.splu
        gather = CoefficientFields.__getattr__

        def recorded(disc):
            systems.append(assemble(disc))
            return systems[-1]

        def inspected(*args, **kwargs):
            system = systems[-1]
            shapes = [np.shape(value) for value in vars(system).values()]
            at_splu.append((set(vars(system.disc.fields)), shapes))
            return splu(*args, **kwargs)

        def counted(fields, name):
            gathered[name] += 1
            return gather(fields, name)

        monkeypatch.setattr(assembly, f"assemble_{scheme}", recorded)
        monkeypatch.setattr(solver.spla, "splu", inspected)
        monkeypatch.setattr(CoefficientFields, "__getattr__", counted)
        domain, data, exact = benchmark(case)
        mesh = data.initial_mesh(domain).uniform_refine()
        solution, ctx = adapt.run_iteration(mesh, data, scheme)
        ctx.compute("theorem")
        verify.energy_error(mesh, ctx.fields, ctx.flux, solution.pressure,
                            exact)
        (names, shapes), = at_splu
        assert not names & {"Sinvhalf", "C_S", "C_w"}
        assert (3, 3, mesh.num_elements) not in shapes
        assert gathered == Counter(dict.fromkeys(
            ["Sinv", "Sinvhalf", "w", "r", "c_S", "C_S", "C_w"], 1))

    def test_loop_gathers_once_per_record(self, field_calls):
        domain, data, exact = benchmark("lshape")
        res = adaptive_loop(data, data.initial_mesh(domain), max_iter=4,
                            exact=exact)
        assert field_calls == [r.dof for r in res.records]


class TestRelabelingInvariance:
    """The adaptive loop does not depend on how the initial mesh is
    numbered: with its elements in another order, its vertices under other
    ids and each element's vertices rotated, a study with the CLI defaults
    of the benchmark records the same element counts, and E and eta
    within round-off, step for step."""

    STEPS = 15

    @classmethod
    def history(cls, case, mesh, data, exact):
        scheme, policy, theta = BENCHMARK_DEFAULTS[case]
        records = adaptive_loop(data, mesh, scheme=scheme, policy=policy,
                                theta=theta, max_iter=cls.STEPS,
                                exact=exact).records
        return ([r.dof for r in records],
                np.array([(r.energy_error, r.eta) for r in records]))

    @classmethod
    @functools.cache
    def reference(cls, case):
        domain, data, exact = benchmark(case)
        return cls.history(case, data.initial_mesh(domain), data, exact)

    @pytest.mark.parametrize("case", ["lshape", "kellogg1", "kellogg2",
                                      "layer"])
    @settings(max_examples=8)
    @given(draw=st.data())
    def test_same_history_under_relabeling(self, case, draw):
        domain, data, exact = benchmark(case)
        coarse = build_initial_mesh(domain)
        nt, nv = coarse.num_elements, coarse.num_vertices
        order = np.array(draw.draw(st.permutations(range(nt))))
        new_id = np.array(draw.draw(st.permutations(range(nv))))
        shift = np.array(draw.draw(st.lists(st.integers(0, 2), min_size=nt,
                                            max_size=nt)))
        # element t of the relabeled mesh is coarse element order[t], and
        # keeps its coefficients; vertex v becomes new_id[v]
        coords = np.empty_like(coarse.vert_coords)
        coords[new_id] = coarse.vert_coords
        verts = np.take_along_axis(new_id[coarse.elem_verts[order]],
                                   (shift[:, None] + np.arange(3)) % 3, axis=1)
        mesh = Triangulation(coords, verts)
        if data.boundary_rule is not None:
            mesh = apply_boundary_rule(mesh, data.boundary_rule)
        table = data.table
        relabeled = ProblemData(table.S[order], table.w[order],
                                table.r[order], f=data.f,
                                dirichlet_data=data.dirichlet_data,
                                neumann_data=data.neumann_data,
                                boundary_rule=data.boundary_rule)
        dof, values = self.history(case, mesh, relabeled, exact)
        ref_dof, ref_values = self.reference(case)
        assert len(dof) == self.STEPS and dof == ref_dof
        np.testing.assert_allclose(values, ref_values, rtol=1e-10, atol=0)
