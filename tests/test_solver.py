import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import mixed_centered
from rtadapt import assembly, solver
from rtadapt.assembly import SaddleSystem, assemble_centered
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
    sol = solve(assemble_centered(mesh, data), mesh.num_edges)
    x = np.concatenate([
        sol.flux[system.edge_dof >= 0][np.argsort(
            system.edge_dof[system.edge_dof >= 0])],
        sol.pressure,
    ])
    resid = np.linalg.norm(system.matrix @ x - system.rhs)
    assert resid / np.linalg.norm(system.rhs) <= 1e-10


def test_manufactured_recovery():
    mesh, system = lshape_system()
    rng = np.random.default_rng(21)
    x_true = rng.normal(size=system.dimension)
    sol = solve(forged(system, rhs=system.matrix @ x_true), mesh.num_edges)
    got = np.concatenate([
        sol.flux[np.flatnonzero(system.edge_dof >= 0)], sol.pressure
    ])
    want = np.concatenate([
        x_true[:system.n_free], x_true[system.n_free:]
    ])
    assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(x_true).max())


def test_singular_system_raises():
    mesh, system = lshape_system()
    bad = system.matrix.tolil()
    bad[3, :] = 0.0
    with pytest.raises(SingularSystemError) as err:
        solve(forged(system, matrix=bad.tocsr()), mesh.num_edges)
    assert "row 3" in str(err.value)


def test_rhs_scaling_linearity():
    mesh, system = lshape_system()
    base = solve(system, mesh.num_edges)
    scaled = solve(forged(system, rhs=7.0 * system.rhs), mesh.num_edges)
    free = np.flatnonzero(system.edge_dof >= 0)
    assert np.allclose(scaled.flux[free], 7.0 * base.flux[free], rtol=1e-12)
    assert np.allclose(scaled.pressure, 7.0 * base.pressure, rtol=1e-12)


def test_determinism():
    mesh, _ = lshape_system()
    _, data, _ = benchmark("lshape")
    sols = [solve(assemble_centered(mesh, data), mesh.num_edges)
            for _ in range(2)]
    assert np.array_equal(sols[0].flux, sols[1].flux)
    assert np.array_equal(sols[0].pressure, sols[1].pressure)


def test_dimension_guard():
    huge = sp.eye(solver.MAX_DIMENSION + 1, format="csr")
    system = SaddleSystem(
        matrix=huge, rhs=np.zeros(huge.shape[0]),
        edge_dof=np.empty(0, dtype=np.int64), n_free=huge.shape[0],
        fixed_flux=np.zeros(0), scheme="centered",
    )
    with pytest.raises(SolverError):
        solve(system, 0)


def test_wrong_multipliers_fail_the_mixed_residual():
    """The hybrid solve is gated by the residual of the mixed equations."""
    _, data, _ = benchmark("lshape")
    mesh = data.initial_mesh("lshape").uniform_refine()
    system = assemble_centered(mesh, data)
    rhs = system.rhs.copy()
    rhs[0] += 1e-3 * np.abs(rhs).max()
    with pytest.raises(SolverError, match="residual"):
        solve(forged(system, rhs=rhs), mesh.num_edges)


def forged_reaction(data, mesh, elements, value=None):
    """``data`` whose r + div w makes the local blocks of ``elements``
    singular (pressure Schur complement zero), or sets it to ``value``."""
    fields = data.fields(mesh)
    M, B, conv, _ = assembly._local_blocks(mesh, fields)
    r = fields.r.copy()
    for t in elements:
        # s = -react - (B - conv)^T M^-1 B vanishes
        react = -(B[t] - conv[t]) @ np.linalg.solve(M[t], B[t])
        r[t] = (react / mesh.elem_area[t] - fields.divw[t]
                if value is None else value)
    forged_fields = dataclasses.replace(fields, r=r)
    data.fields = lambda mesh: forged_fields
    return data


@pytest.mark.parametrize("case", ["lshape", "layer"])
def test_singular_local_block_names_first_element(case):
    domain, data, _ = benchmark(case, eps=0.1, a=0.1)
    mesh = data.initial_mesh(domain).uniform_refine()
    with pytest.raises(SingularSystemError, match="element 5$"):
        assemble_centered(mesh, forged_reaction(data, mesh, [9, 5]))


def test_nonfinite_local_block_names_element():
    _, data, _ = benchmark("lshape")
    mesh = data.initial_mesh("lshape").uniform_refine()
    with pytest.raises(SingularSystemError, match="element 7$"):
        assemble_centered(mesh, forged_reaction(data, mesh, [7],
                                                value=np.nan))
