"""Conforming triangulations with longest-edge bisection refinement.

A Triangulation stores vertices, edges and elements as flat numpy arrays.
Edges carry a fixed global orientation: the unit normal is the direction
from the lower-id to the higher-id endpoint rotated 90 degrees clockwise.
Each element records a sign per edge reconciling that global normal with
its own outward normal, which makes edge-based flux unknowns single-valued
across elements.

Instances are immutable after construction; refinement returns a new mesh.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

_FLAG_NAMES = {INTERIOR: "interior", DIRICHLET: "dirichlet", NEUMANN: "neumann"}


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
        Boundary edges without an entry default to DIRICHLET.
    ancestors : (NT,) int array, optional
        Coarse-ancestor element ids; defaults to 0..NT-1 (a root mesh).
    generation : int
        Refinement step counter.
    """

    def __init__(self, vert_coords, elem_verts, boundary_flags=None,
                 ancestors=None, generation=0):
        self.vert_coords = np.asarray(vert_coords, dtype=float)
        self.elem_verts = np.asarray(elem_verts, dtype=np.int64)
        self.generation = int(generation)
        nt = self.elem_verts.shape[0]
        if ancestors is None:
            ancestors = np.arange(nt, dtype=np.int64)
        self.elem_ancestor = np.asarray(ancestors, dtype=np.int64)
        if not np.all(np.isfinite(self.vert_coords)):
            raise MeshError("non-finite vertex coordinates")

        self._build_topology(boundary_flags or {})
        self._build_geometry()
        self._vertex_stars = None

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
            key = tuple(self.edge_verts[e])
            self.edge_flag[e] = boundary_flags.get(key, DIRICHLET)

    def _build_geometry(self):
        xy = self.vert_coords
        tri = self.elem_verts
        d1 = xy[tri[:, 1]] - xy[tri[:, 0]]
        d2 = xy[tri[:, 2]] - xy[tri[:, 0]]
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

        self.elem_diam = self.edge_length[self.elem_edges].max(axis=1)

        # sign of the global edge normal against the element outward normal:
        # edge i of element t runs from vertex i+1 to i+2 in ccw order, so the
        # outward normal matches the global one iff the edge is stored with
        # the same orientation.
        signs = np.empty((self.num_elements, 3), dtype=np.int8)
        for i in range(3):
            first_local = self.elem_verts[:, (i + 1) % 3]
            signs[:, i] = np.where(
                self.edge_verts[self.elem_edges[:, i], 0] == first_local, 1, -1
            )
        self.elem_signs = signs
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

    def elem_coords(self) -> np.ndarray:
        """Vertex coordinates per element, shape (NT, 3, 2)."""
        return self.vert_coords[self.elem_verts]

    def barycenters(self) -> np.ndarray:
        return self.elem_coords().mean(axis=1)

    def edge_midpoints(self) -> np.ndarray:
        return 0.5 * (
            self.vert_coords[self.edge_verts[:, 0]]
            + self.vert_coords[self.edge_verts[:, 1]]
        )

    def is_boundary_edge(self) -> np.ndarray:
        return self.edge_flag != INTERIOR

    def edge_patch(self, e: int) -> list[int]:
        """Element ids sharing edge e (2 interior, 1 boundary)."""
        if not 0 <= e < self.num_edges:
            raise MeshError(f"invalid edge id {e}")
        return [int(t) for t in self.edge_elems[e] if t >= 0]

    def _vertex_incidence(self):
        if self._vertex_stars is None:
            stars: list[list[int]] = [[] for _ in range(self.num_vertices)]
            for t in range(self.num_elements):
                for v in self.elem_verts[t]:
                    stars[v].append(t)
            self._vertex_stars = stars
        return self._vertex_stars

    def vertex_star(self, v: int) -> tuple[list[int], bool]:
        """Elements around vertex v in rotational order.

        Returns the cyclically ordered element ids and whether v lies on
        the boundary.  For a boundary vertex the walk starts at one end of
        the open fan.
        """
        if not 0 <= v < self.num_vertices:
            raise MeshError(f"invalid vertex id {v}")
        star = self._vertex_incidence()[v]
        if not star:
            raise MeshError(f"vertex {v} belongs to no element")

        # edges at v within the star, mapped to the incident star elements
        edge_to_elems: dict[int, list[int]] = {}
        for t in star:
            for i in range(3):
                e = int(self.elem_edges[t, i])
                if v in self.edge_verts[e]:
                    edge_to_elems.setdefault(e, []).append(t)
        boundary_edges = [e for e, ts in edge_to_elems.items() if len(ts) == 1]
        is_boundary = bool(boundary_edges)

        if is_boundary:
            start_edge = min(boundary_edges)
            current = edge_to_elems[start_edge][0]
        else:
            current = min(star)
            start_edge = min(
                int(e) for e in self.elem_edges[current] if v in self.edge_verts[e]
            )

        ordered = []
        prev_edge = start_edge
        seen = set()
        while True:
            ordered.append(current)
            seen.add(current)
            nxt = None
            for i in range(3):
                e = int(self.elem_edges[current, i])
                if e == prev_edge or v not in self.edge_verts[e]:
                    continue
                candidates = [t for t in edge_to_elems[e] if t != current]
                if candidates and candidates[0] not in seen:
                    nxt = (candidates[0], e)
                break
            if nxt is None:
                break
            current, prev_edge = nxt
            if len(ordered) > len(star):
                raise MeshError(f"vertex star walk failed at vertex {v}")
        if len(ordered) != len(star):
            raise MeshError(f"vertex star around {v} is not a single fan")
        return ordered, is_boundary

    def min_angle(self) -> float:
        """Smallest interior angle over all elements, in radians."""
        xy = self.elem_coords()
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
        """Bisect every marked element through its longest edge.

        Recursive longest-edge (Rivara) closure keeps the mesh conforming.
        Children inherit the coarse ancestor; boundary-edge flags carry
        over to the sub-edges.
        """
        marked = sorted(set(int(t) for t in marked))
        if marked and not (0 <= marked[0] and marked[-1] < self.num_elements):
            raise MeshError("marked set contains invalid element ids")
        builder = _RefineBuilder(self)
        for t in marked:
            builder.ensure_bisected(t)
        refined = builder.freeze(self.generation + 1)
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

    def dump(self) -> str:
        """Plain-text dump: header `NV NE NT`, then vertex/edge/element lines."""
        lines = [f"{self.num_vertices} {self.num_edges} {self.num_elements}"]
        for v in range(self.num_vertices):
            x, y = self.vert_coords[v]
            lines.append(f"{v} {float(x)!r} {float(y)!r}")
        for e in range(self.num_edges):
            a, b = self.edge_verts[e]
            lines.append(f"{e} {a} {b} {int(self.edge_flag[e])}")
        for t in range(self.num_elements):
            v0, v1, v2 = self.elem_verts[t]
            e0, e1, e2 = self.elem_edges[t]
            lines.append(
                f"{t} {v0} {v1} {v2} {e0} {e1} {e2} {int(self.elem_ancestor[t])}"
            )
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "Triangulation":
        """Rebuild a mesh from its dump (edge ids are re-derived)."""
        rows = [line.split() for line in text.strip().splitlines()]
        nv, ne, nt = (int(x) for x in rows[0])
        coords = np.array(
            [[float(r[1]), float(r[2])] for r in rows[1 : 1 + nv]]
        )
        flags = {}
        for r in rows[1 + nv : 1 + nv + ne]:
            flag = int(r[3])
            if flag != INTERIOR:
                flags[(min(int(r[1]), int(r[2])), max(int(r[1]), int(r[2])))] = flag
        elems = np.array(
            [[int(r[1]), int(r[2]), int(r[3])] for r in rows[1 + nv + ne :]]
        )
        ancestors = np.array([int(r[7]) for r in rows[1 + nv + ne :]])
        return Triangulation(coords, elems, flags, ancestors)

    def to_svg(self, values: np.ndarray | None = None, size: int = 640) -> str:
        """Render the mesh as SVG, optionally heat-shading per-element values."""
        xy = self.vert_coords
        lo = xy.min(axis=0)
        hi = xy.max(axis=0)
        span = max(hi[0] - lo[0], hi[1] - lo[1])
        pad = 0.03 * span
        scale = size / (span + 2 * pad)

        def sx(x):
            return (x - lo[0] + pad) * scale

        def sy(y):
            return size - (y - lo[1] + pad) * scale

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">'
        ]
        if values is not None:
            values = np.asarray(values, dtype=float)
            vmax = values.max() if values.size else 1.0
            vmin = values.min() if values.size else 0.0
            rng = vmax - vmin if vmax > vmin else 1.0
            for t in range(self.num_elements):
                ts = (values[t] - vmin) / rng
                r = int(255 * ts)
                b = int(255 * (1 - ts))
                pts = " ".join(
                    f"{sx(xy[v, 0]):.2f},{sy(xy[v, 1]):.2f}"
                    for v in self.elem_verts[t]
                )
                out.append(
                    f'<polygon points="{pts}" fill="rgb({r},64,{b})" '
                    f'fill-opacity="0.6" stroke="none"/>'
                )
        for e in range(self.num_edges):
            a, b = self.edge_verts[e]
            out.append(
                f'<line x1="{sx(xy[a, 0]):.2f}" y1="{sy(xy[a, 1]):.2f}" '
                f'x2="{sx(xy[b, 0]):.2f}" y2="{sy(xy[b, 1]):.2f}" '
                f'stroke="black" stroke-width="0.4"/>'
            )
        out.append("</svg>")
        return "\n".join(out)


class _RefineBuilder:
    """Mutable scratch representation used during a refine pass."""

    def __init__(self, mesh: Triangulation):
        self.coords: list[tuple[float, float]] = [
            (float(x), float(y)) for x, y in mesh.vert_coords
        ]
        # live elements in insertion order: id -> (v0, v1, v2, ancestor)
        self.elems: dict[int, tuple[int, int, int, int]] = {
            t: (*(int(v) for v in mesh.elem_verts[t]), int(mesh.elem_ancestor[t]))
            for t in range(mesh.num_elements)
        }
        self.edge_of: dict[tuple[int, int], list[int]] = {}
        for key, elems in zip(map(tuple, mesh.edge_verts), mesh.edge_elems):
            self.edge_of[key] = [int(t) for t in elems if t >= 0]
        self.bflag: dict[tuple[int, int], int] = {
            tuple(mesh.edge_verts[e]): int(mesh.edge_flag[e])
            for e in np.flatnonzero(mesh.edge_flag != INTERIOR)
        }
        self.next_elem = mesh.num_elements
        # generous cap; Rivara closure terminates long before this
        self.budget = 200 * (mesh.num_elements + mesh.num_vertices) + 10_000

    def _length2(self, a: int, b: int) -> float:
        xa, ya = self.coords[a]
        xb, yb = self.coords[b]
        return (xb - xa) ** 2 + (yb - ya) ** 2

    def _longest_edge(self, t: int) -> tuple[int, int]:
        v0, v1, v2, _ = self.elems[t]
        best_key = None
        best = -1.0
        for a, b in ((v0, v1), (v1, v2), (v2, v0)):
            key = (a, b) if a < b else (b, a)
            l2 = self._length2(*key)
            if l2 > best or (l2 == best and key < best_key):
                best = l2
                best_key = key
        return best_key

    def _midpoint(self, key: tuple[int, int]) -> int:
        a, b = key
        xa, ya = self.coords[a]
        xb, yb = self.coords[b]
        m = len(self.coords)
        self.coords.append((0.5 * (xa + xb), 0.5 * (ya + yb)))
        return m

    def _split_element(self, t: int, key: tuple[int, int], m: int) -> None:
        v0, v1, v2, anc = self.elems.pop(t)
        verts = (v0, v1, v2)
        # locate the split edge in ccw order (p -> q), c opposite
        for i in range(3):
            p, q = verts[(i + 1) % 3], verts[(i + 2) % 3]
            pk = (p, q) if p < q else (q, p)
            if pk == key:
                c = verts[i]
                break
        else:  # pragma: no cover - guarded by callers
            raise MeshError(f"edge {key} not in element {t}")

        for old in ((v0, v1), (v1, v2), (v2, v0)):
            ok = (old[0], old[1]) if old[0] < old[1] else (old[1], old[0])
            self.edge_of[ok].remove(t)
            if not self.edge_of[ok]:
                del self.edge_of[ok]

        for child_verts in ((p, m, c), (m, q, c)):
            cid = self.next_elem
            self.next_elem += 1
            self.elems[cid] = (*child_verts, anc)
            a, b, cc = child_verts
            for pair in ((a, b), (b, cc), (cc, a)):
                k = (pair[0], pair[1]) if pair[0] < pair[1] else (pair[1], pair[0])
                self.edge_of.setdefault(k, []).append(cid)

        flag = self.bflag.pop(key, None)
        if flag is not None:
            for half in ((key[0], m), (m, key[1])):
                hk = (half[0], half[1]) if half[0] < half[1] else (half[1], half[0])
                self.bflag[hk] = flag

    def _split_pair(self, key: tuple[int, int]) -> None:
        elems = list(self.edge_of[key])
        m = self._midpoint(key)
        for t in elems:
            self._split_element(t, key, m)

    def ensure_bisected(self, t: int) -> None:
        """Bisect element t, recursively pre-refining incompatible neighbors."""
        if t not in self.elems:
            return  # already split during closure of an earlier mark
        stack = [t]
        while stack:
            self.budget -= 1
            if self.budget < 0:
                raise MeshError("longest-edge closure exceeded iteration cap")
            cur = stack[-1]
            if cur not in self.elems:
                stack.pop()
                continue
            key = self._longest_edge(cur)
            neighbors = [s for s in self.edge_of[key] if s != cur]
            incompatible = [
                s for s in neighbors if self._longest_edge(s) != key
            ]
            if incompatible:
                stack.append(incompatible[0])
            else:
                self._split_pair(key)
                stack.pop()

    def freeze(self, generation: int) -> Triangulation:
        coords = np.array(self.coords)
        nt = len(self.elems)
        elem_verts = np.empty((nt, 3), dtype=np.int64)
        ancestors = np.empty(nt, dtype=np.int64)
        for new_id, (v0, v1, v2, anc) in enumerate(self.elems.values()):
            elem_verts[new_id] = (v0, v1, v2)
            ancestors[new_id] = anc
        return Triangulation(coords, elem_verts, self.bflag, ancestors, generation)


# ----------------------------------------------------------------------
# benchmark domains
# ----------------------------------------------------------------------

DOMAINS = ("lshape", "square2x2", "unit-square")


def build_initial_mesh(domain: str,
                       boundary_rule: Callable[[float, float], int] | None = None
                       ) -> Triangulation:
    """Initial coarse mesh of a benchmark domain.

    lshape      6 right isoceles triangles on (-1,1)x(0,1) u (-1,0)x(-1,0),
                one per unit square, diagonals through the reentrant corner.
    square2x2   8 triangles on (-1,1)^2, two per quadrant, origin shared.
    unit-square 8 triangles on (0,1)^2, sub-square diagonals through the
                center.

    ``boundary_rule`` maps a boundary-edge midpoint to DIRICHLET/NEUMANN;
    all boundary edges are Dirichlet by default.
    """
    if domain == "lshape":
        coords = np.array([
            [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
            [-1.0, 1.0], [-1.0, 0.0], [-1.0, -1.0], [0.0, -1.0],
        ])
        elems = np.array([
            [0, 1, 2], [0, 2, 3],
            [0, 3, 4], [0, 4, 5],
            [0, 5, 6], [0, 6, 7],
        ])
    elif domain == "square2x2":
        coords = np.array([
            [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
            [-1.0, 1.0], [-1.0, 0.0], [-1.0, -1.0], [0.0, -1.0],
            [1.0, -1.0],
        ])
        elems = np.array([
            [0, 1, 2], [0, 2, 3],
            [0, 3, 4], [0, 4, 5],
            [0, 5, 6], [0, 6, 7],
            [0, 7, 8], [0, 8, 1],
        ])
    elif domain == "unit-square":
        coords = np.array([
            [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
            [0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5],
            [0.5, 0.5],
        ])
        elems = np.array([
            [0, 4, 8], [0, 8, 7],
            [1, 5, 8], [1, 8, 4],
            [2, 6, 8], [2, 8, 5],
            [3, 7, 8], [3, 8, 6],
        ])
    else:
        raise MeshError(f"unknown domain id {domain!r}")

    mesh = Triangulation(coords, elems)
    if boundary_rule is not None:
        mesh = apply_boundary_rule(mesh, boundary_rule)
    return mesh


def apply_boundary_rule(mesh: Triangulation,
                        rule: Callable[[float, float], int]) -> Triangulation:
    """Re-flag boundary edges by a midpoint classification rule."""
    mids = mesh.edge_midpoints()
    flags = {}
    for e in np.flatnonzero(mesh.is_boundary_edge()):
        flags[tuple(mesh.edge_verts[e])] = int(rule(mids[e, 0], mids[e, 1]))
    return Triangulation(mesh.vert_coords, mesh.elem_verts, flags,
                         mesh.elem_ancestor, mesh.generation)
