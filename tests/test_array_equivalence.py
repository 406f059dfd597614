"""The array code in mesh, problem, estimators and assembly against the
entity-by-entity loop references of ``oracles``, exactly (no tolerance).

The meshes come from the first adaptive steps of each benchmark, plus
randomly refined meshes under a pure-convection coefficient set, whose
vanishing reaction makes the velocity quotient infinite.
"""

import numpy as np
import pytest

from oracles import (dict_topology, loop_patch_maxima, loop_upwind_weights,
                     star_walk_singular_vertices)
from rtadapt import adapt, assembly
from rtadapt.estimators import detect_singular_vertices
from rtadapt.mesh import INTERIOR, Triangulation
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
    """Problem data and the meshes of the first STEPS adaptive steps."""
    scheme, policy, theta = CASES[case]
    domain, data, _ = benchmark(case)
    mesh = data.initial_mesh(domain)
    meshes = [mesh]
    for _ in range(STEPS - 1):
        _, ctx = adapt.run_iteration(mesh, data, scheme,
                                     subtract_boundary_data=True)
        mesh = mesh.refine(adapt.dorfler_mark(ctx.compute(policy).total,
                                              theta))
        meshes.append(mesh)
    return data, meshes


def pure_convection_meshes():
    """Varying diffusion, w != 0, r = divw = 0 on the unit square, under
    random partial refinement."""
    rng = np.random.default_rng(3)
    coeffs = [ElementCoefficients(s * np.eye(2), np.array([0.3, -1.0]), 0.0)
              for s in (1e-3, 1.0, 1.0, 1e-3, 1e-3, 2.0, 2.0, 1e-3)]
    data = ProblemData(coeffs)
    mesh = data.initial_mesh("unit-square")
    meshes = [mesh]
    for _ in range(STEPS - 1):
        nt = mesh.num_elements
        mesh = mesh.refine(rng.choice(nt, size=max(1, nt // 4),
                                      replace=False))
        meshes.append(mesh)
    return data, meshes


@pytest.fixture(scope="module", params=[*CASES, "pure-convection"])
def case_meshes(request):
    if request.param == "pure-convection":
        return pure_convection_meshes()
    return adaptive_meshes(request.param)


def boundary_flags(mesh):
    return {tuple(int(v) for v in mesh.edge_verts[e]): int(mesh.edge_flag[e])
            for e in np.flatnonzero(mesh.edge_flag != INTERIOR)}


def test_meshes_are_adaptive(case_meshes):
    _, meshes = case_meshes
    assert len(meshes) >= 10
    sizes = [m.num_elements for m in meshes]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_topology_matches_dict_build(case_meshes):
    _, meshes = case_meshes
    for mesh in meshes:
        ref = dict_topology(mesh.elem_verts, boundary_flags(mesh))
        for got, want in zip((mesh.edge_verts, mesh.elem_edges,
                              mesh.edge_elems, mesh.edge_flag), ref):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_topology_of_shuffled_elements(case_meshes):
    """First-occurrence numbering on an element order unrelated to the
    refinement history, with rotated local vertex order."""
    _, meshes = case_meshes
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
    data, meshes = case_meshes
    for mesh in meshes:
        fields = data.fields(mesh)
        patch = patch_quantities(mesh, fields)
        for name, want in loop_patch_maxima(mesh, fields).items():
            assert np.array_equal(getattr(patch, name), want), name


def test_singular_vertices_match_star_walk(case_meshes):
    data, meshes = case_meshes
    for mesh in meshes:
        C_S = data.fields(mesh).C_S
        assert detect_singular_vertices(mesh, C_S) \
            == star_walk_singular_vertices(mesh, C_S)


def test_upwind_weights_match_loop(case_meshes):
    data, meshes = case_meshes
    for mesh in meshes:
        fields = data.fields(mesh)
        assert np.array_equal(assembly.upwind_weights(mesh, fields),
                              loop_upwind_weights(mesh, fields))


def test_pure_convection_quotients():
    """c_wr = 0 with C_w > 0: the velocity quotient is infinite on every
    star, so the edge weight falls back to the mesh Peclet quotient."""
    data, meshes = pure_convection_meshes()
    for mesh in meshes:
        patch = patch_quantities(mesh, data.fields(mesh))
        assert np.all(np.isinf(patch.lambda_w_sigma))
        assert np.array_equal(patch.lam_w_sigma, patch.p_w_sigma)
        assert np.all(np.isfinite(patch.lam_w_sigma))
        assert np.all(patch.lam_divw == 0.0)
