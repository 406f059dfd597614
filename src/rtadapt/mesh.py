"""Conforming triangulations with longest-edge bisection refinement.

A Triangulation stores vertices, edges and elements as flat numpy arrays.
Edges carry a fixed global orientation: the unit normal is the direction
from the lower-id to the higher-id endpoint rotated 90 degrees clockwise.
Each element records a sign per edge reconciling that global normal with
its own outward normal, which makes edge-based flux unknowns single-valued
across elements.

Instances are immutable after construction; refinement returns a new mesh.

Refinement bisects each element through its refinement edge, its longest
edge, and computes the conformity closure by edge marking: the refinement
edges of the marked elements are marked, and every element with a marked
edge gets its refinement edge marked too, until nothing changes.  Each
element is then split once by its pattern of marked edges: the refinement
edge alone gives two children, and each further marked edge bisects one of
those two again, for up to four.  This is newest-vertex bisection
(Funken, Praetorius & Wissgott 2011; Chen, iFEM 2008).  The built-in
domains consist of right isosceles triangles, whose children through the
hypotenuse are right isosceles again with the parent's legs as their
hypotenuses, so there it is exactly recursive longest-edge (Rivara)
bisection.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2
# width and height of the SVG rendering, in pixels
SVG_SIZE = 640
# rows per block of the text writers, which write each block into the
# file and drop it before formatting the next, so that no artifact is
# held whole in memory
BLOCK_ROWS = 4096


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


class Triangulation:
    """Conforming triangle mesh with adjacency and refinement genealogy.

    Parameters
    ----------
    vert_coords : (NV, 2) float array
    elem_verts : (NT, 3) int array
        Vertex ids per element, counterclockwise.
    boundary_flags : dict, optional
        Maps sorted boundary-edge vertex pairs to DIRICHLET/NEUMANN.
        Boundary edges without an entry default to DIRICHLET; any other
        flag of a boundary edge is a MeshError.  Entries of interior
        edges are ignored.
    ancestors : (NT,) int array, optional
        Coarse-ancestor element ids; defaults to 0..NT-1 (a root mesh).
    """

    def __init__(self, vert_coords, elem_verts, boundary_flags=None,
                 ancestors=None):
        self.vert_coords = np.asarray(vert_coords, dtype=float)
        self.elem_verts = np.asarray(elem_verts, dtype=np.int64)
        nt = self.elem_verts.shape[0]
        if ancestors is None:
            ancestors = np.arange(nt, dtype=np.int64)
        self.elem_ancestor = anc = np.asarray(ancestors, dtype=np.int64)
        if not np.all(np.isfinite(self.vert_coords)):
            raise MeshError("non-finite vertex coordinates")
        ids, nv = self.elem_verts, self.num_vertices
        if ids.size and not 0 <= ids.min() <= ids.max() < nv:
            raise MeshError(f"element vertex id outside 0..{nv - 1}")
        if anc.shape != (nt,) or np.any(anc < 0):
            raise MeshError(f"ancestors are not {nt} nonnegative ids")

        self._build_topology(boundary_flags or {})
        self._build_geometry()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _build_topology(self, boundary_flags):
        # edge i of element t joins local vertices i+1 and i+2; edge ids
        # follow the first occurrence of each key in element-major order
        tri = self.elem_verts
        a = tri[:, [1, 2, 0]].ravel()
        b = tri[:, [2, 0, 1]].ravel()
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        _, first, inverse = np.unique(lo * (hi.max(initial=0) + 1) + hi,
                                      return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        flat_edges = rank[inverse]
        ne = order.size
        first = first[order]
        self.edge_verts = np.column_stack([lo[first], hi[first]])
        self.elem_edges = flat_edges.reshape(-1, 3)
        # sign of the global edge normal against the element outward normal:
        # edge i of element t runs from vertex i+1 to i+2 in ccw order, so the
        # outward normal matches the global one iff the edge is stored with
        # the same orientation, low id first.
        self.elem_signs = np.where(a < b, 1, -1).astype(np.int8).reshape(-1, 3)
        # the sign at each edge's first occurrence, its first element's side
        self.edge_sign = self.elem_signs.ravel()[first]

        count = np.bincount(flat_edges, minlength=ne)
        crowded = np.flatnonzero(count > 2)
        if crowded.size:
            e = int(crowded[0])
            raise MeshError(
                f"edge {e} shared by {count[e]} elements (non-conforming)"
            )
        # incident elements of each edge in ascending element order
        elems = np.argsort(flat_edges, kind="stable") // 3
        start = np.cumsum(count) - count
        self.edge_elems = np.full((ne, 2), -1, dtype=np.int64)
        self.edge_elems[:, 0] = elems[start]
        shared = count == 2
        self.edge_elems[shared, 1] = elems[start[shared] + 1]

        self.edge_flag = np.zeros(ne, dtype=np.uint8)
        for e in np.flatnonzero(~shared):
            key = tuple(self.edge_verts[e].tolist())
            flag = boundary_flags.get(key, DIRICHLET)
            if flag not in (DIRICHLET, NEUMANN):
                raise MeshError(f"boundary edge {e} {key} has flag {flag!r}")
            self.edge_flag[e] = flag

    def _build_geometry(self):
        xy = self.vert_coords
        # vertex coordinates per element, (NT, 3, 2)
        self.elem_coords = coords = xy[self.elem_verts]
        d1 = coords[:, 1] - coords[:, 0]
        d2 = coords[:, 2] - coords[:, 0]
        twice_area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(twice_area <= 0.0):
            bad = int(np.argmin(twice_area))
            raise MeshError(f"element {bad} is not counterclockwise or degenerate")
        self.elem_area = 0.5 * twice_area

        ev = self.edge_verts
        dvec = xy[ev[:, 1]] - xy[ev[:, 0]]
        self.edge_length = np.hypot(dvec[:, 0], dvec[:, 1])
        if np.any(self.edge_length <= 0.0):
            raise MeshError("zero-length edge")
        tangent = dvec / self.edge_length[:, None]
        # 90 degree clockwise rotation of the low-to-high direction
        self.edge_normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])
        self.edge_tangent = tangent

        self.elem_diam = self.edge_length[self.elem_edges.T].max(axis=0)
        self.total_area = float(self.elem_area.sum())

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.vert_coords.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edge_verts.shape[0]

    @property
    def num_elements(self) -> int:
        return self.elem_verts.shape[0]

    def edge_midpoints(self) -> np.ndarray:
        return 0.5 * (
            self.vert_coords[self.edge_verts[:, 0]]
            + self.vert_coords[self.edge_verts[:, 1]]
        )

    def min_angle(self) -> float:
        """Smallest interior angle over all elements, in radians."""
        xy = self.elem_coords
        best = math.inf
        for i in range(3):
            a = xy[:, (i + 1) % 3] - xy[:, i]
            b = xy[:, (i + 2) % 3] - xy[:, i]
            cosang = (a * b).sum(axis=1) / (
                np.hypot(a[:, 0], a[:, 1]) * np.hypot(b[:, 0], b[:, 1])
            )
            best = min(best, float(np.arccos(np.clip(cosang, -1, 1)).min()))
        return best

    # ------------------------------------------------------------------
    # refinement
    # ------------------------------------------------------------------

    def refine(self, marked: Iterable[int]) -> "Triangulation":
        """Bisect every marked element through its refinement edge.

        The refinement edge of an element is its longest edge, ties going
        to the smallest sorted vertex pair.  Closure by edge marking: the
        refinement edges of the marked elements are marked, then every
        element with a marked edge has its refinement edge marked too,
        until nothing changes.  Each marked edge gets its midpoint as
        vertex ``NV + k``, k its rank among the marked edges by edge id.
        An element (c, p, q) with refinement edge p-q and midpoint m is
        bisected into (p, m, c) and (m, q, c); if c-p is marked as well,
        (p, m, c) is bisected again into (c, m1, m) and (m1, p, m), and if
        q-c is marked, (m, q, c) into (q, m2, m) and (m2, c, m).  So 1, 2
        or 3 marked edges give 2, 3 or 4 children, which take the parent's
        place in the element order and inherit its coarse ancestor;
        boundary flags pass to both halves of a bisected boundary edge.

        Every built-in domain is made of right isosceles triangles.  Their
        children through the hypotenuse are right isosceles again, with the
        parent's legs as hypotenuses, so the refinement edge of a child is
        the second-bisection edge above.  On such meshes this is exactly
        recursive longest-edge (Rivara) bisection.  On other meshes it is
        newest-vertex bisection from a longest-edge start: still conforming
        and area-preserving, but a child's refinement edge need not be its
        longest.
        """
        marked = np.unique(np.fromiter(marked, dtype=np.int64))
        nt, nv = self.num_elements, self.num_vertices
        if marked.size and not (marked[0] >= 0 and marked[-1] < nt):
            raise MeshError("marked set contains invalid element ids")
        xy = self.vert_coords
        ev = self.edge_verts
        d = xy[ev[:, 1]] - xy[ev[:, 0]]
        length2 = (d[:, 0] ** 2 + d[:, 1] ** 2)[self.elem_edges.T]
        pair = (ev[:, 0] * nv + ev[:, 1])[self.elem_edges.T]
        k0, k1, k2 = np.where(length2 == length2.max(axis=0), pair, nv * nv)
        # the first smallest key, as argmin takes it
        ref = np.where(k2 < np.minimum(k0, k1), 2, np.where(k1 < k0, 1, 0))
        ref_edge = self.elem_edges[np.arange(nt), ref]

        split = np.zeros(self.num_edges, dtype=bool)
        new = np.unique(ref_edge[marked])
        while new.size:  # marks at least one edge per pass
            split[new] = True
            elems = self.edge_elems[new].ravel()
            candidates = ref_edge[elems[elems >= 0]]
            new = np.unique(candidates[~split[candidates]])

        cut = np.flatnonzero(split)
        mid = np.full(self.num_edges, -1, dtype=np.int64)
        mid[cut] = nv + np.arange(cut.size)
        coords = np.concatenate([xy, 0.5 * (xy[ev[cut, 0]] + xy[ev[cut, 1]])])

        # local order rotated so the refinement edge is p-q, opposite c;
        # by the closure, m1 or m2 present implies m present
        rot = (ref[:, None] + np.arange(3)) % 3
        c, p, q = np.take_along_axis(self.elem_verts, rot, axis=1).T
        m, m2, m1 = mid[np.take_along_axis(self.elem_edges, rot, axis=1)].T
        whole, left, right = m < 0, m1 >= 0, m2 >= 0
        children = np.stack([
            self.elem_verts,
            np.column_stack([p, m, c]),
            np.column_stack([c, m1, m]), np.column_stack([m1, p, m]),
            np.column_stack([m, q, c]),
            np.column_stack([q, m2, m]), np.column_stack([m2, c, m]),
        ], axis=1)
        present = np.column_stack([whole, ~whole & ~left, left, left,
                                   ~whole & ~right, right, right])
        ancestors = np.broadcast_to(self.elem_ancestor[:, None],
                                    present.shape)[present]

        # a bisected boundary edge lo-hi passes its flag to lo-m and hi-m
        b = np.flatnonzero(self.edge_flag != INTERIOR)
        lo, hi, mb, flag = ev[b, 0], ev[b, 1], mid[b], self.edge_flag[b]
        half = mb >= 0
        ends = np.concatenate([lo, hi[half]])
        others = np.concatenate([np.where(half, mb, hi), mb[half]])
        flags = dict(zip(zip(ends.tolist(), others.tolist()),
                         np.concatenate([flag, flag[half]]).tolist()))

        refined = Triangulation(coords, children[present], flags, ancestors)
        if not math.isclose(refined.total_area, self.total_area,
                            rel_tol=1e-12, abs_tol=0.0):
            raise MeshError("refinement changed the total area")
        return refined

    def uniform_refine(self) -> "Triangulation":
        """Equivalent to marking every element."""
        return self.refine(range(self.num_elements))

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def dump(self, out: TextIO | None = None) -> str | None:
        """Plain-text dump: header `NV NE NT`, then vertex/edge/element
        lines; written to the open file ``out``, or returned without it."""
        x, y = self.vert_coords.T
        header = f"{self.num_vertices} {self.num_edges} {self.num_elements}\n"
        return write_text(
            out, [header], text_rows("%d %r %r\n", x.size, x, y),
            _index_rows(self.edge_verts, self.edge_flag),
            _index_rows(self.elem_verts, self.elem_edges, self.elem_ancestor))

    @staticmethod
    def parse(text: str) -> "Triangulation":
        """Rebuild a mesh from its dump (edge ids are re-derived)."""
        rows = [line.split() for line in text.strip().splitlines()]
        nv, ne, nt = (int(x) for x in rows[0])
        if len(rows) != 1 + nv + ne + nt:
            raise MeshError(f"{len(rows) - 1} rows for header {nv} {ne} {nt}")
        coords = np.array(
            [[float(r[1]), float(r[2])] for r in rows[1 : 1 + nv]]
        )
        flags = {}
        for r in rows[1 + nv : 1 + nv + ne]:
            a, b = int(r[1]), int(r[2])
            flags[(min(a, b), max(a, b))] = int(r[3])
        elems = np.array(
            [[int(r[1]), int(r[2]), int(r[3])] for r in rows[1 + nv + ne :]]
        )
        ancestors = np.array([int(r[7]) for r in rows[1 + nv + ne :]])
        return Triangulation(coords, elems, flags, ancestors)

    def to_svg(self, values: np.ndarray | None = None,
               out: TextIO | None = None) -> str | None:
        """Render the mesh as SVG, optionally heat-shading per-element
        values; written to the open file ``out``, or returned without it."""
        xy = self.vert_coords
        lo = xy.min(axis=0)
        hi = xy.max(axis=0)
        span = max(hi[0] - lo[0], hi[1] - lo[1])
        pad = 0.03 * span
        scale = SVG_SIZE / (span + 2 * pad)
        sx = (xy[:, 0] - lo[0] + pad) * scale
        sy = SVG_SIZE - (xy[:, 1] - lo[1] + pad) * scale
        fx = ["%.2f" % v for v in sx.tolist()]
        fy = ["%.2f" % v for v in sy.tolist()]

        # every element or edge line is led by its newline, and the file
        # ends without one
        def polygons(red, blue):
            for rows in row_slices(self.num_elements):
                yield "".join([
                    f'\n<polygon points="{fx[a]},{fy[a]} {fx[b]},{fy[b]} '
                    f'{fx[c]},{fy[c]}" fill="rgb({r},64,{g})" '
                    'fill-opacity="0.6" stroke="none"/>'
                    for a, b, c, r, g in zip(*self.elem_verts[rows].T.tolist(),
                                             red[rows].tolist(),
                                             blue[rows].tolist())])

        def lines():
            for rows in row_slices(self.num_edges):
                yield "".join([
                    f'\n<line x1="{fx[a]}" y1="{fy[a]}" x2="{fx[b]}" '
                    f'y2="{fy[b]}" stroke="black" stroke-width="0.4"/>'
                    for a, b in zip(*self.edge_verts[rows].T.tolist())])

        parts = [[f'<svg xmlns="http://www.w3.org/2000/svg" '
                  f'width="{SVG_SIZE}" height="{SVG_SIZE}" '
                  f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">']]
        if values is not None:
            values = np.asarray(values, dtype=float)
            vmax = values.max() if values.size else 1.0
            vmin = values.min() if values.size else 0.0
            rng = vmax - vmin if vmax > vmin else 1.0
            ts = (values - vmin) / rng
            parts.append(polygons((255 * ts).astype(np.int64),
                                  (255 * (1 - ts)).astype(np.int64)))
        parts += [lines(), ["\n</svg>"]]
        return write_text(out, *parts)


def row_slices(count: int) -> Iterator[slice]:
    """Consecutive slices of ``BLOCK_ROWS`` rows that cover ``count``; a lone
    last row joins the block before, as numpy sums one row differently."""
    step = BLOCK_ROWS
    return (slice(start, count if count - start <= step + 1 else start + step)
            for start in range(0, count - (count > 1), step))


def text_rows(line: str, count: int, *columns: np.ndarray) -> Iterator[str]:
    """Blocks of the rows ``line % (i, *row)``, i the row index, over the
    ``count`` rows of the columns, one ``row_slices`` block at a time."""
    for rows in row_slices(count):
        yield "".join([line % row for row in zip(
            range(rows.start, rows.stop),
            *(column[rows].tolist() for column in columns))])


def _index_rows(*columns: np.ndarray) -> Iterator[str]:
    """Blocks of integer rows, each led by its index, each block formatted
    in one ``%`` pass."""
    for rows in row_slices(len(columns[0])):
        block = np.column_stack([np.arange(rows.start, rows.stop),
                                 *(column[rows] for column in columns)])
        line = " ".join(["%d"] * block.shape[1]) + "\n"
        yield line * len(block) % tuple(block.ravel().tolist())


def write_text(out: TextIO | None, *parts: Iterable[str]) -> str | None:
    """Write the text blocks of ``parts`` to the open file ``out`` one at
    a time, or, with no file, return them joined."""
    if out is None:
        return "".join(block for part in parts for block in part)
    for part in parts:
        out.writelines(part)
    return None


# ----------------------------------------------------------------------
# benchmark domains
# ----------------------------------------------------------------------

# the unit squares around the origin, counterclockwise from (1, 0)
_RING = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [-1.0, 1.0],
         [-1.0, 0.0], [-1.0, -1.0], [0.0, -1.0], [1.0, -1.0]]
# domain -> (vertex coordinates, counterclockwise element vertices)
COARSE_MESHES = {
    "lshape": (_RING[:8], [[0, k, k + 1] for k in range(1, 7)]),
    "square2x2": (_RING, [[0, k, k % 8 + 1] for k in range(1, 9)]),
    "unit-square": (
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.0],
         [1.0, 0.5], [0.5, 1.0], [0.0, 0.5], [0.5, 0.5]],
        [[0, 4, 8], [0, 8, 7], [1, 5, 8], [1, 8, 4],
         [2, 6, 8], [2, 8, 5], [3, 7, 8], [3, 8, 6]]),
}
DOMAINS = tuple(COARSE_MESHES)


def build_initial_mesh(domain: str) -> Triangulation:
    """Initial coarse mesh of a benchmark domain.

    lshape      6 right isoceles triangles on (-1,1)x(0,1) u (-1,0)x(-1,0),
                one per unit square, diagonals through the reentrant corner.
    square2x2   8 triangles on (-1,1)^2, two per quadrant, origin shared.
    unit-square 8 triangles on (0,1)^2, sub-square diagonals through the
                center.

    All boundary edges are Dirichlet; ``apply_boundary_rule`` re-flags them.
    """
    if domain not in COARSE_MESHES:
        raise MeshError(f"unknown domain id {domain!r}")
    return Triangulation(*COARSE_MESHES[domain])


def apply_boundary_rule(mesh: Triangulation,
                        rule: Callable[[float, float], int]) -> Triangulation:
    """Re-flag boundary edges by a midpoint classification rule."""
    mids = mesh.edge_midpoints()
    flags = {}
    for e in np.flatnonzero(mesh.edge_flag != INTERIOR):
        flags[tuple(mesh.edge_verts[e])] = int(rule(mids[e, 0], mids[e, 1]))
    return Triangulation(mesh.vert_coords, mesh.elem_verts, flags,
                         mesh.elem_ancestor)
