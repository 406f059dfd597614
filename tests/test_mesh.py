import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (barycenters, canonical, edge_patch, first_side_values,
                     rivara_refine, vertex_star)

from rtadapt import mesh as meshmod
from rtadapt.mesh import (DIRICHLET, INTERIOR, NEUMANN, MeshError,
                          Triangulation, apply_boundary_rule,
                          build_initial_mesh)


def conformity_audit(mesh):
    """Every interior edge has exactly 2 incident elements, boundary 1,
    and no hanging node: every mesh tested here covers a simply connected
    domain, whose conforming triangulations have V - E + T = 1, while
    each hanging node opens a zero-area hole and lowers it by one."""
    assert mesh.num_vertices - mesh.num_edges + mesh.num_elements == 1
    for e in range(mesh.num_edges):
        incident = edge_patch(mesh, e)
        if mesh.edge_flag[e] == INTERIOR:
            assert len(incident) == 2
        else:
            assert len(incident) == 1
    # per-element signs reconcile global and outward normals
    xy = mesh.vert_coords
    for t in range(mesh.num_elements):
        verts = mesh.elem_verts[t]
        for i in range(3):
            p, q = xy[verts[(i + 1) % 3]], xy[verts[(i + 2) % 3]]
            d = q - p
            outward = np.array([d[1], -d[0]]) / np.hypot(*d)
            e = mesh.elem_edges[t, i]
            dot = outward @ mesh.edge_normal[e]
            assert dot == pytest.approx(mesh.elem_signs[t, i], abs=1e-12)


class TestInitialMeshes:
    def test_lshape(self):
        m = build_initial_mesh("lshape")
        assert m.num_elements == 6
        assert m.num_vertices == 8
        assert m.total_area == pytest.approx(3.0, abs=1e-15)
        # reentrant corner is a mesh vertex shared by all origin triangles
        star, boundary = vertex_star(m, 0)
        assert boundary
        assert len(star) == 6
        conformity_audit(m)

    def test_square2x2(self):
        m = build_initial_mesh("square2x2")
        assert m.num_elements == 8
        assert m.total_area == pytest.approx(4.0, abs=1e-15)
        star, boundary = vertex_star(m, 0)
        assert not boundary
        assert len(star) == 8
        conformity_audit(m)

    def test_unit_square(self):
        m = build_initial_mesh("unit-square")
        assert m.num_elements == 8
        assert m.total_area == pytest.approx(1.0, abs=1e-15)
        conformity_audit(m)

    def test_unknown_domain(self):
        with pytest.raises(MeshError):
            build_initial_mesh("hexagon")

    def test_all_right_isoceles(self):
        for domain in meshmod.DOMAINS:
            m = build_initial_mesh(domain)
            assert m.min_angle() == pytest.approx(math.pi / 4, abs=1e-12)


class TestRefine:
    def test_mark_all_bisects_every_parent(self):
        m = build_initial_mesh("unit-square")
        fine = m.refine(range(m.num_elements))
        assert fine.num_elements == 16
        conformity_audit(fine)

    def test_closure_removes_hanging_nodes(self):
        # two triangles on a square; marking one forces its neighbor
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        elems = np.array([[0, 1, 2], [0, 2, 3]])
        m = Triangulation(coords, elems)
        fine = m.refine([0])
        assert fine.num_elements == 4
        conformity_audit(fine)

    def test_empty_mark_is_identity(self):
        m = build_initial_mesh("lshape")
        same = m.refine([])
        assert same.num_elements == m.num_elements
        assert np.array_equal(np.sort(same.elem_ancestor),
                              np.sort(m.elem_ancestor))

    def test_area_conservation(self):
        m = build_initial_mesh("lshape")
        rng = np.random.default_rng(7)
        for _ in range(6):
            marked = rng.choice(m.num_elements,
                                size=max(1, m.num_elements // 3),
                                replace=False)
            m = m.refine(marked)
            assert m.total_area == pytest.approx(3.0, rel=1e-12)
            conformity_audit(m)

    def test_uniform_refine_counts_increase(self):
        m = build_initial_mesh("lshape")
        fine = m.uniform_refine()
        assert fine.num_elements > m.num_elements
        assert fine.num_elements == 12

    def test_shape_regularity_under_uniform_refinement(self):
        m = build_initial_mesh("unit-square")
        initial_angle = m.min_angle()
        for _ in range(5):
            m = m.uniform_refine()
        # longest-edge bisection of right isoceles triangles is self-similar
        assert m.min_angle() >= initial_angle - 1e-12

    def test_genealogy_contains_barycenter(self):
        coarse = build_initial_mesh("square2x2")
        m = coarse
        rng = np.random.default_rng(3)
        for _ in range(4):
            marked = rng.choice(m.num_elements, size=m.num_elements // 2,
                                replace=False)
            m = m.refine(marked)
        bary = barycenters(m)
        coords = coarse.elem_coords
        for t in range(m.num_elements):
            anc = m.elem_ancestor[t]
            v0, v1, v2 = coords[anc]
            # barycentric coordinates in the ancestor must be in [0, 1]
            mat = np.column_stack([v1 - v0, v2 - v0])
            lam = np.linalg.solve(mat, bary[t] - v0)
            assert lam.min() >= -1e-12
            assert lam.sum() <= 1.0 + 1e-12

    def test_boundary_flags_inherited(self):
        rule = lambda x, y: NEUMANN if y > 1 - 1e-12 else DIRICHLET
        m = apply_boundary_rule(build_initial_mesh("unit-square"), rule)
        for _ in range(3):
            m = m.uniform_refine()
        mids = m.edge_midpoints()
        for e in range(m.num_edges):
            if mesh_is_top(mids[e], m.edge_flag[e]):
                assert m.edge_flag[e] == NEUMANN
            elif m.edge_flag[e] != INTERIOR:
                assert m.edge_flag[e] == DIRICHLET

    def test_invalid_marked_id(self):
        m = build_initial_mesh("lshape")
        with pytest.raises(MeshError):
            m.refine([99])

    def test_negative_marked_id(self):
        m = build_initial_mesh("lshape")
        with pytest.raises(MeshError):
            m.refine([-1])


def side_rule(x, y):
    """Neumann on the top and right sides of every domain, else Dirichlet;
    constant along each side, so a sub-edge keeps its side's flag."""
    return NEUMANN if y > 1 - 1e-12 or x > 1 - 1e-12 else DIRICHLET


def tall_strip():
    """Three isosceles triangles whose two longest edges tie exactly."""
    coords = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [1.0, 3.0],
                       [3.0, 3.0]])
    return Triangulation(coords, np.array([[0, 1, 3], [1, 4, 3], [1, 2, 4]]))


def skewed_square():
    """The unit-square mesh with its center moved off the diagonals."""
    m = build_initial_mesh("unit-square")
    coords = m.vert_coords.copy()
    coords[8] = (0.62, 0.41)
    return Triangulation(coords, m.elem_verts)


def check_refinement(coarse, mesh, marked, fine):
    """Invariants of ``fine = mesh.refine(marked)``, ``coarse`` being the
    root mesh that ``elem_ancestor`` refers to."""
    conformity_audit(fine)
    assert fine.total_area == pytest.approx(mesh.total_area, rel=1e-12)
    assert np.bincount(fine.elem_ancestor, fine.elem_area,
                       coarse.num_elements) \
        == pytest.approx(coarse.elem_area, rel=1e-12)

    # each child's barycenter lies in its coarse ancestor
    v = coarse.elem_coords[fine.elem_ancestor]
    frame = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)
    lam = np.linalg.solve(frame, (barycenters(fine) - v[:, 0])[..., None])
    assert lam.min() >= -1e-12
    assert lam.sum(axis=1).max() <= 1.0 + 1e-12

    # old vertices keep their ids; no marked element survives
    nv = mesh.num_vertices
    assert np.array_equal(fine.vert_coords[:nv], mesh.vert_coords)
    survivors = set(map(tuple, np.sort(fine.elem_verts, axis=1).tolist()))
    for t in marked:
        assert tuple(sorted(mesh.elem_verts[t].tolist())) not in survivors

    # one new vertex per bisected edge, one new element per bisected
    # edge and incident element
    new = set(map(tuple, fine.vert_coords[nv:].tolist()))
    bisected = [e for e, mid in enumerate(mesh.edge_midpoints().tolist())
                if tuple(mid) in new]
    assert len(bisected) == len(new) == fine.num_vertices - nv
    assert fine.num_elements - mesh.num_elements \
        == sum(len(edge_patch(mesh, e)) for e in bisected)


@pytest.mark.parametrize("build", [tall_strip, skewed_square])
def test_one_step_on_general_meshes_matches_rivara(build):
    """From a coarse mesh one step is still longest-edge bisection; on the
    tall strip this takes the tie-break between equal longest edges."""
    mesh = build()
    for marked in [[t] for t in range(mesh.num_elements)] \
            + [range(mesh.num_elements)]:
        assert canonical(mesh.refine(marked)) \
            == canonical(rivara_refine(mesh, marked))


def refine_at_random(coarse, data):
    """Yield (mesh, marked, mesh.refine(marked)) over a drawn number of
    steps with drawn marked sets, starting from ``coarse``."""
    mesh = coarse
    for _ in range(data.draw(st.integers(1, 4), label="depth")):
        marked = data.draw(st.sets(st.integers(0, mesh.num_elements - 1)),
                           label="marked")
        fine = mesh.refine(marked)
        yield mesh, marked, fine
        mesh = fine


class TestRefineProperties:
    @given(domain=st.sampled_from(meshmod.DOMAINS), data=st.data())
    def test_random_marks_on_domains(self, domain, data):
        coarse = apply_boundary_rule(build_initial_mesh(domain), side_rule)
        for mesh, marked, fine in refine_at_random(coarse, data):
            check_refinement(coarse, mesh, marked, fine)
            assert fine.min_angle() >= math.pi / 4 - 1e-12
            mids = fine.edge_midpoints()
            for e in np.flatnonzero(fine.edge_flag != INTERIOR):
                assert fine.edge_flag[e] == side_rule(*mids[e])

    @given(build=st.sampled_from([tall_strip, skewed_square]),
           data=st.data())
    def test_random_marks_on_general_meshes(self, build, data):
        """Off right isosceles meshes refinement stays conforming and
        keeps the area, with ties between longest edges broken."""
        coarse = build()
        for mesh, marked, fine in refine_at_random(coarse, data):
            check_refinement(coarse, mesh, marked, fine)

    @given(domain=st.sampled_from(meshmod.DOMAINS), data=st.data())
    def test_edge_sign_is_first_element_sign(self, domain, data):
        """Each edge's sign is the sign its first element gives it, on
        randomly refined meshes re-flagged by ``side_rule`` and on their
        relabelings: elements shuffled, local vertices rotated and
        vertices renumbered."""
        fine = build_initial_mesh(domain)
        for _, _, fine in refine_at_random(fine, data):
            pass
        fine = apply_boundary_rule(fine, side_rule)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="seed"))
        new_id = rng.permutation(fine.num_vertices)
        coords = np.empty_like(fine.vert_coords)
        coords[new_id] = fine.vert_coords
        local = (np.arange(3) + rng.integers(0, 3, (fine.num_elements, 1))) % 3
        elems = new_id[np.take_along_axis(fine.elem_verts, local, axis=1)]
        flags = {tuple(sorted(new_id[fine.edge_verts[e]].tolist())):
                 int(fine.edge_flag[e])
                 for e in np.flatnonzero(fine.edge_flag != INTERIOR)}
        relabeled = Triangulation(
            coords, elems[rng.permutation(fine.num_elements)], flags)
        assert np.any(relabeled.edge_flag == NEUMANN)
        for mesh in (fine, relabeled):
            assert mesh.edge_sign.dtype == np.int8
            assert np.array_equal(mesh.edge_sign,
                                  first_side_values(mesh, mesh.elem_signs))

    @pytest.mark.parametrize("rows", [2, 3, 7])
    def test_row_slices_leave_no_lone_row(self, monkeypatch, rows):
        """Blocks cover the rows in order, in blocks of ``BLOCK_ROWS``
        rows except the last, which takes a lone last row with it."""
        monkeypatch.setattr(meshmod, "BLOCK_ROWS", rows)
        for count in range(4 * rows + 2):
            blocks = list(meshmod.row_slices(count))
            assert [i for b in blocks for i in range(b.start, b.stop)] \
                == list(range(count))
            sizes = [b.stop - b.start for b in blocks]
            assert sizes[:-1] == [rows] * (len(sizes) - 1)
            assert all(min(count, 2) <= size <= rows + 1
                       for size in sizes[-1:])


def mesh_is_top(mid, flag):
    return flag != INTERIOR and mid[1] > 1 - 1e-12


class TestAdjacency:
    def test_edge_patch(self):
        m = build_initial_mesh("square2x2")
        for e in range(m.num_edges):
            patch = edge_patch(m, e)
            expected = 1 if m.edge_flag[e] != INTERIOR else 2
            assert len(patch) == expected
            for t in patch:
                assert e in m.elem_edges[t]

    def test_edge_patch_invalid(self):
        m = build_initial_mesh("lshape")
        with pytest.raises(MeshError):
            edge_patch(m, 10_000)

    @pytest.mark.parametrize("apex", [(0.5, -1.0), (2.0, 0.0), (1.0, 0.0)],
                             ids=["clockwise", "collinear", "repeated"])
    def test_nonpositive_area_rejected(self, apex):
        """Every element of nonpositive signed area raises MeshError, so
        no Discretization is built on one."""
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], apex])
        elems = np.array([[0, 1, 2], [0, 1, 3]])
        with pytest.raises(MeshError, match="element 1 is not "
                           "counterclockwise or degenerate"):
            Triangulation(coords, elems)

    def test_edge_shared_by_three_elements(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                           [0.5, 2.0]])
        elems = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
        with pytest.raises(MeshError, match="edge 2 shared by 3 elements"):
            Triangulation(coords, elems)

    def test_vertex_star_cyclic_order(self):
        m = build_initial_mesh("square2x2").uniform_refine().uniform_refine()
        for v in range(m.num_vertices):
            star, boundary = vertex_star(m, v)
            n = len(star)
            limit = n if not boundary else n - 1
            for i in range(limit):
                a, b = star[i], star[(i + 1) % n]
                shared = set(m.elem_edges[a]) & set(m.elem_edges[b])
                assert any(v in m.edge_verts[e] for e in shared)

    def test_corner_vertex_is_boundary(self):
        m = build_initial_mesh("unit-square")
        _, boundary = vertex_star(m, 0)   # (0, 0) corner
        assert boundary
        _, interior = vertex_star(m, 8)   # center
        assert not interior


class TestIO:
    def test_dump_parse_round_trip(self):
        rule = lambda x, y: NEUMANN if y > 1 - 1e-12 else DIRICHLET
        m = apply_boundary_rule(build_initial_mesh("unit-square"), rule)
        m = m.refine([0, 3])
        again = Triangulation.parse(m.dump())
        assert again.num_elements == m.num_elements
        assert np.allclose(again.vert_coords, m.vert_coords)
        assert np.array_equal(again.elem_verts, m.elem_verts)
        assert np.array_equal(again.edge_flag, m.edge_flag)
        assert np.array_equal(again.elem_ancestor, m.elem_ancestor)

    @given(domain=st.sampled_from(meshmod.DOMAINS), data=st.data())
    def test_dump_parse_round_trip_of_refined_meshes(self, domain, data):
        """Randomly refined meshes with Neumann and Dirichlet sides parse
        back from their dumps with the same coordinates (bit for bit),
        elements, edges, flags and ancestors."""
        coarse = apply_boundary_rule(build_initial_mesh(domain), side_rule)
        fine = coarse
        for _, _, fine in refine_at_random(coarse, data):
            pass
        assert np.any(fine.edge_flag == NEUMANN)
        again = Triangulation.parse(fine.dump())
        for name in ("vert_coords", "elem_verts", "edge_verts", "elem_edges",
                     "edge_elems", "edge_flag", "elem_ancestor"):
            assert np.array_equal(getattr(again, name), getattr(fine, name))

    def test_dump_header(self):
        m = build_initial_mesh("lshape")
        header = m.dump().splitlines()[0].split()
        assert [int(x) for x in header] == [m.num_vertices, m.num_edges,
                                            m.num_elements]

    def test_svg_render(self):
        m = build_initial_mesh("lshape")
        svg = m.to_svg(values=np.linspace(0, 1, m.num_elements))
        assert svg.startswith("<svg")
        assert svg.count("<polygon") == m.num_elements
        assert svg.count("<line") == m.num_edges


class TestDumpValidation:
    """Edited dumps whose element rows index outside the mesh, or whose
    row count differs from the header, raise MeshError instead of
    aliasing a vertex, gathering another coarse element's coefficients
    or leaving a hole."""

    @staticmethod
    def edited(column, value):
        """The dump of a refined square2x2 with one entry of its last
        element row (``id v0 v1 v2 e0 e1 e2 ancestor``) replaced."""
        m = build_initial_mesh("square2x2").refine([0, 5])
        lines = m.dump().splitlines()
        row = lines[-1].split()
        row[column] = str(value(m))
        return "\n".join(lines[:-1] + [" ".join(row)]) + "\n"

    @pytest.mark.parametrize("column, value, message", [
        (7, lambda m: -1, "ancestors"),
        (7, lambda m: -m.num_elements, "ancestors"),
        (1, lambda m: -1, "vertex id"),
        (2, lambda m: -m.num_vertices, "vertex id"),
        (3, lambda m: m.num_vertices, "vertex id"),
    ], ids=["ancestor-1", "ancestor-NT", "vertex-1", "vertex-NV",
            "vertex+NV"])
    def test_out_of_range_index(self, column, value, message):
        with pytest.raises(MeshError, match=message):
            Triangulation.parse(self.edited(column, value))

    @pytest.mark.parametrize("keep", [slice(None, -2), slice(None, -1)],
                             ids=["two-rows-cut", "one-row-cut"])
    def test_row_count_must_match_header(self, keep):
        """A dump cut off after its first element rows would otherwise
        parse into a mesh with a hole."""
        lines = build_initial_mesh("square2x2").refine([0, 5]).dump() \
            .splitlines()
        with pytest.raises(MeshError, match="rows for header"):
            Triangulation.parse("\n".join(lines[keep]) + "\n")

    def test_ancestor_count_must_match(self):
        m = Triangulation.parse(self.edited(7, lambda m: 0))   # valid edit
        for ancestors in (m.elem_ancestor[:3], m.elem_ancestor[:, None],
                          list(m.elem_ancestor) + [0]):
            with pytest.raises(MeshError, match="ancestors"):
                Triangulation(m.vert_coords, m.elem_verts,
                              ancestors=ancestors)


class TestBoundaryFlags:
    """A boundary edge is DIRICHLET or NEUMANN; any other flag, from the
    constructor, a boundary rule or a dump, raises MeshError naming the
    edge and the flag instead of turning the edge into an interior one or
    storing the flag as given."""

    @pytest.mark.parametrize("flag", [INTERIOR, 5])
    def test_rule_flag_outside_the_boundary_kinds(self, flag):
        with pytest.raises(MeshError, match=rf"boundary edge \d+ \(\d+, \d+\) "
                                            rf"has flag {flag}$"):
            apply_boundary_rule(build_initial_mesh("unit-square"),
                                lambda x, y: flag)

    def test_constructor_names_the_edge(self):
        verts, elems = meshmod.COARSE_MESHES["unit-square"]
        m = Triangulation(verts, elems)
        e = int(np.flatnonzero((m.edge_verts == [0, 4]).all(axis=1))[0])
        with pytest.raises(MeshError,
                           match=rf"boundary edge {e} \(0, 4\) has flag 3$"):
            Triangulation(verts, elems, {(0, 4): 3})

    def test_interior_entries_are_ignored(self):
        verts, elems = meshmod.COARSE_MESHES["unit-square"]
        m = Triangulation(verts, elems, {(0, 8): 7})
        assert np.array_equal(m.edge_flag,
                              Triangulation(verts, elems).edge_flag)

    @pytest.mark.parametrize("flag", [7, INTERIOR])
    def test_dump_with_a_bad_boundary_flag(self, flag):
        m = apply_boundary_rule(build_initial_mesh("lshape").uniform_refine(),
                                side_rule)
        lines = m.dump().splitlines()
        e = int(np.flatnonzero(m.edge_flag == NEUMANN)[0])
        row = lines[1 + m.num_vertices + e].split()
        assert int(row[0]) == e and int(row[3]) == NEUMANN
        row[3] = str(flag)
        lines[1 + m.num_vertices + e] = " ".join(row)
        with pytest.raises(MeshError,
                           match=rf"boundary edge {e} .* has flag {flag}$"):
            Triangulation.parse("\n".join(lines) + "\n")
