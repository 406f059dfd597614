import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rtadapt import adapt, assembly, estimators, verify
from rtadapt.adapt import AdaptError, adaptive_loop, dorfler_mark
from rtadapt.problem import ProblemData, benchmark


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

    def test_uniform_mode_doubles(self):
        domain, data, _ = benchmark("lshape")
        mesh = data.initial_mesh(domain)
        res = adaptive_loop(data, mesh, mode="uniform", max_iter=4)
        dofs = [r.dof for r in res.records]
        for a, b in zip(dofs, dofs[1:]):
            assert b == 2 * a

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
        solution, ctx = adapt.run_iteration(mesh, data, scheme, True)
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

        def counted_jumps(*args, **kwargs):
            jump_calls.append(kwargs["boundary_slopes"] is not None)
            return jumps(*args, **kwargs)

        def counted_gather(mesh, per_elem_edge):
            if per_elem_edge.dtype.kind == "f":      # not the int8 signs
                gathers.append(per_elem_edge.shape)
            return left_values(mesh, per_elem_edge)

        monkeypatch.setattr(estimators, "tangential_jump_sq", counted_jumps)
        monkeypatch.setattr(assembly, "_left_values", counted_gather)
        domain, data, _ = benchmark("layer")
        mesh = data.initial_mesh(domain).uniform_refine()
        _, ctx = adapt.run_iteration(mesh, data, "upwind", True)
        ctx.compute("theorem")
        assert jump_calls == [True]
        assert gathers == [(mesh.num_elements, 3)]

    @pytest.mark.parametrize("case, scheme", [("kellogg1", "centered"),
                                              ("layer", "upwind")])
    def test_each_datum_evaluated_once(self, case, scheme):
        """One iteration evaluates the source once, the Dirichlet datum
        for its edge means and once per side of the central difference
        that gives both boundary slopes, and the exact u and p jointly once
        per energy rule."""
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
        solution, ctx = adapt.run_iteration(mesh, data, scheme, True)
        ctx.compute("theorem")
        verify.energy_error(mesh, ctx.fields, ctx.flux, solution.pressure,
                            exact)
        rules = 1 + len(exact.singular_points)
        assert calls == {"f": 1, "datum": 3, "u_and_p": rules}

    def test_loop_gathers_once_per_record(self, field_calls):
        domain, data, exact = benchmark("lshape")
        res = adaptive_loop(data, data.initial_mesh(domain), max_iter=4,
                            exact=exact)
        assert field_calls == [r.dof for r in res.records]
