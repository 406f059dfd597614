import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from oracles import SaddleSystem, element_major_blocks, mixed_centered
from rtadapt import adapt, assembly, solver
from rtadapt.assembly import (CENTERED, UPWIND, Discretization,
                              assemble_centered, assemble_upwind)
from rtadapt.problem import benchmark
from rtadapt.solver import SingularSystemError, SolverError, solve


def lshape_system():
    """The L-shape's centered scheme as the oracle's saddle-point system."""
    _, data, _ = benchmark("lshape")
    mesh = data.initial_mesh("lshape")
    return mesh, mixed_centered(mesh, data)


def forged(system, **changes):
    return dataclasses.replace(system, **changes)


def test_smallest_mesh_residual():
    mesh, system = lshape_system()
    _, data, _ = benchmark("lshape")
    sol = solve(assemble_centered(Discretization(mesh, data)))
    x = np.concatenate([
        sol.flux[system.edge_dof >= 0][np.argsort(
            system.edge_dof[system.edge_dof >= 0])],
        sol.pressure,
    ])
    resid = np.linalg.norm(system.matrix @ x - system.rhs)
    assert resid / np.linalg.norm(system.rhs) <= 1e-10


def test_manufactured_recovery():
    _, system = lshape_system()
    rng = np.random.default_rng(21)
    x_true = rng.normal(size=system.dimension)
    sol = solve(forged(system, rhs=system.matrix @ x_true))
    got = np.concatenate([
        sol.flux[np.flatnonzero(system.edge_dof >= 0)], sol.pressure
    ])
    want = np.concatenate([
        x_true[:system.n_free], x_true[system.n_free:]
    ])
    assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(x_true).max())


def test_singular_system_raises():
    _, system = lshape_system()
    bad = system.matrix.tolil()
    bad[3, :] = 0.0
    with pytest.raises(SingularSystemError) as err:
        solve(forged(system, matrix=bad.tocsr()))
    assert "row 3" in str(err.value)


def test_rhs_scaling_linearity():
    _, system = lshape_system()
    base = solve(system)
    scaled = solve(forged(system, rhs=7.0 * system.rhs))
    free = np.flatnonzero(system.edge_dof >= 0)
    assert np.allclose(scaled.flux[free], 7.0 * base.flux[free], rtol=1e-12)
    assert np.allclose(scaled.pressure, 7.0 * base.pressure, rtol=1e-12)


def test_determinism():
    mesh, _ = lshape_system()
    _, data, _ = benchmark("lshape")
    sols = [solve(assemble_centered(Discretization(mesh, data)))
            for _ in range(2)]
    assert np.array_equal(sols[0].flux, sols[1].flux)
    assert np.array_equal(sols[0].pressure, sols[1].pressure)


def uniform(case, **kw):
    domain, data, _ = benchmark(case, **kw)
    mesh = data.initial_mesh(domain)
    while mesh.num_elements < 1500:
        mesh = mesh.uniform_refine()
    return mesh, data


def adaptive(case, scheme, **kw):
    domain, data, _ = benchmark(case, **kw)
    policy = "xi" if case.startswith("kellogg") else "theorem"
    run = adapt.adaptive_loop(data, data.initial_mesh(domain), scheme=scheme,
                              policy=policy, theta=0.5, max_dof=1500)
    return run.mesh, data


LAYER = {"eps": 1e-3, "a": 0.05}
FILL_CASES = {
    "lshape-uniform-centered": (lambda: uniform("lshape"), CENTERED),
    "kellogg1-adaptive-centered":
        (lambda: adaptive("kellogg1", CENTERED), CENTERED),
    "layer-uniform-upwind": (lambda: uniform("layer", **LAYER), UPWIND),
    "layer-adaptive-upwind":
        (lambda: adaptive("layer", UPWIND, **LAYER), UPWIND),
    # w = 0 and r = 0: the mixed upwind system has a zero pressure diagonal
    "lshape-uniform-upwind": (lambda: uniform("lshape"), UPWIND),
    "kellogg1-adaptive-upwind":
        (lambda: adaptive("kellogg1", UPWIND), UPWIND),
}


@pytest.mark.parametrize("case", sorted(FILL_CASES))
def test_fill_at_most_colamd(case, monkeypatch):
    """The RCM-preordered symmetric-mode factorization of ``solve`` stores
    no more L+U entries than SuperLU's default COLAMD one."""
    build, scheme = FILL_CASES[case]
    mesh, data = build()
    assemble = assemble_centered if scheme == CENTERED else assemble_upwind
    system = assemble(Discretization(mesh, data))
    factors = []
    splu = spla.splu

    def recorded(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(solver.spla, "splu", recorded)
    solve(system)
    assert len(factors) == 1
    assert factors[0].nnz <= splu(system.matrix.tocsc()).nnz


def test_singular_row_named_in_system_numbering():
    """The row is named as in ``system.matrix``, not in the RCM order."""
    mesh, data = uniform("layer", **LAYER)
    system = assemble_upwind(Discretization(mesh, data))
    _, order = solver.rcm_permuted(system.matrix)
    row = 3
    assert np.flatnonzero(order == row)[0] != row
    bad = system.matrix.tolil()
    bad[row, :] = 0.0
    with pytest.raises(SingularSystemError, match=f"zero pivot row {row}:"):
        solve(forged(system, matrix=bad.tocsc()))


def test_rcm_permuted_is_a_symmetric_permutation():
    mesh, data = uniform("layer", **LAYER)
    matrix = assemble_upwind(Discretization(mesh, data)).matrix
    permuted, order = solver.rcm_permuted(matrix)
    assert np.array_equal(np.sort(order), np.arange(matrix.shape[0]))
    assert abs(permuted - matrix[order][:, order]).max() == 0.0


@pytest.mark.parametrize("scheme", [CENTERED, UPWIND])
@pytest.mark.parametrize("case", ["lshape", "kellogg1", "layer"])
def test_rcm_orders_the_symmetric_pattern(case, scheme):
    """The assembled pattern equals its transpose, so RCM on the pattern
    alone gives the order of RCM on the pattern of A + A^T."""
    mesh, data = uniform(case, **(LAYER if case == "layer" else {}))
    assemble = assemble_centered if scheme == CENTERED else assemble_upwind
    matrix = assemble(Discretization(mesh, data)).matrix.tocsc()
    structure = sp.csc_matrix((np.ones(matrix.nnz, dtype=np.int8),
                               matrix.indices, matrix.indptr),
                              shape=matrix.shape)
    assert (structure != structure.T).nnz == 0
    _, order = solver.rcm_permuted(matrix)
    assert np.array_equal(order, reverse_cuthill_mckee(
        structure + structure.T, symmetric_mode=True))


def test_residual_norms_bypass_blas(monkeypatch):
    """The residual check sums squares itself: np.linalg.norm goes through
    BLAS, which may run threaded."""
    mesh, data = uniform("layer", **LAYER)
    system = assemble_upwind(Discretization(mesh, data))
    reference = solve(system)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.norm called")

    monkeypatch.setattr(np.linalg, "norm", refuse)
    solution = solve(system)
    assert np.array_equal(solution.flux, reference.flux)
    assert np.array_equal(solution.pressure, reference.pressure)


def test_supernode_settings_reach_splu(monkeypatch):
    calls = []
    splu = spla.splu

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return splu(*args, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", recorded)
    mesh, data = uniform("layer", **LAYER)
    solve(assemble_upwind(Discretization(mesh, data)))
    assert len(calls) == 1
    assert calls[0]["relax"] == solver.RELAX
    assert calls[0]["panel_size"] == solver.PANEL_SIZE


def test_heap_released_after_factorization(monkeypatch):
    """Freed heap pages go back to the OS once per solve, after the
    factorization."""
    events = []
    splu = spla.splu

    def recorded(*args, **kwargs):
        events.append("splu")
        return splu(*args, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", recorded)
    monkeypatch.setattr(solver, "_malloc_trim", events.append)
    mesh, data = uniform("layer", **LAYER)
    solve(assemble_upwind(Discretization(mesh, data)))
    assert events == ["splu", 0]


def test_dimension_guard():
    huge = sp.eye(solver.MAX_DIMENSION + 1, format="csr")
    system = SaddleSystem(
        matrix=huge, rhs=np.zeros(huge.shape[0]),
        edge_dof=np.empty(0, dtype=np.int64), n_free=huge.shape[0],
        fixed_flux=np.zeros(0), scheme="centered",
    )
    with pytest.raises(SolverError):
        solve(system)


def test_wrong_multipliers_fail_the_mixed_residual():
    """The hybrid solve is gated by the residual of the mixed equations."""
    _, data, _ = benchmark("lshape")
    mesh = data.initial_mesh("lshape").uniform_refine()
    system = assemble_centered(Discretization(mesh, data))
    rhs = system.rhs.copy()
    rhs[0] += 1e-3 * np.abs(rhs).max()
    with pytest.raises(SolverError, match="residual"):
        solve(forged(system, rhs=rhs))


def forged_reaction(data, mesh, elements, value=None):
    """``data`` whose r makes the local blocks of ``elements``
    singular (pressure Schur complement zero), or sets it to ``value``."""
    fields = data.fields(mesh)
    M, B, conv, _ = element_major_blocks(Discretization(mesh, data))
    r = fields.r.copy()
    for t in elements:
        # s = -react - (B - conv)^T M^-1 B vanishes
        react = -(B[t] - conv[t]) @ np.linalg.solve(M[t], B[t])
        r[t] = react / mesh.elem_area[t] if value is None else value
    forged_fields = dataclasses.replace(fields, r=r)
    data.fields = lambda mesh: forged_fields
    return data


@pytest.mark.parametrize("case", ["lshape", "layer"])
def test_singular_local_block_names_first_element(case):
    params = {"eps": 0.1, "a": 0.1} if case == "layer" else {}
    domain, data, _ = benchmark(case, **params)
    mesh = data.initial_mesh(domain).uniform_refine()
    with pytest.raises(SingularSystemError, match="element 5$"):
        assemble_centered(
            Discretization(mesh, forged_reaction(data, mesh, [9, 5])))


@pytest.mark.parametrize("value", [0.0, np.nan])
def test_singular_flux_block_names_first_element(value):
    """A vanishing or NaN S^-1 makes the upwind flux blocks of those
    elements singular or not finite."""
    domain, data, _ = benchmark("layer")
    mesh = data.initial_mesh(domain).uniform_refine()
    fields = data.fields(mesh)
    Sinv = fields.Sinv.copy()
    Sinv[[9, 5]] = value
    forged_fields = dataclasses.replace(fields, Sinv=Sinv)
    data.fields = lambda mesh: forged_fields
    with pytest.raises(SingularSystemError, match="element 5$"):
        assemble_upwind(Discretization(mesh, data))


def test_nonfinite_local_block_names_element():
    _, data, _ = benchmark("lshape")
    mesh = data.initial_mesh("lshape").uniform_refine()
    with pytest.raises(SingularSystemError, match="element 7$"):
        assemble_centered(Discretization(mesh, forged_reaction(data, mesh, [7],
                                                value=np.nan)))
