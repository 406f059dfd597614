"""Independent reference values shared by the test modules.

Nothing here calls ``verify.energy_error`` or the estimator module: the
energy error comes from a boundary identity and the xi indicator from a
direct evaluation of its documented formula with its own quadrature and
its own coefficient bounds.  The loop references at the end compute the
topology, the patch maxima, the singular vertices and the upwind weights
entity by entity, refine by recursive longest-edge (Rivara) bisection over
dicts, and write the artifacts line by line, as checks on the array code
of the package.
"""

import math

import numpy as np

from rtadapt import quadrature as quad
from rtadapt.assembly import _edge_fluxes, _left_values, upwind_weight
from rtadapt.mesh import DIRICHLET, INTERIOR, Triangulation
from rtadapt.postprocess import FluxField


def _coarse_S(data, mesh):
    return np.array([c.S for c in data.coefficients])[mesh.elem_ancestor]


def _outward_normals(mesh, edges):
    """Unit outward normals of boundary edges, from the incident element."""
    a = mesh.vert_coords[mesh.edge_verts[edges, 0]]
    b = mesh.vert_coords[mesh.edge_verts[edges, 1]]
    d = (b - a) / np.hypot(*(b - a).T)[:, None]
    normal = np.column_stack([d[:, 1], -d[:, 0]])
    inner = mesh.vert_coords[mesh.elem_verts[mesh.edge_elems[edges, 0]]] \
        .mean(axis=1)
    side = np.sign(np.einsum("ed,ed->e", 0.5 * (a + b) - inner, normal))
    return normal * side[:, None]


def boundary_identity_energy(mesh, data, exact, solution,
                             rule=quad.gauss_edge_rule(30)) -> float:
    """Exact energy error of a pure-diffusion solution with f = 0.

    With u = -S grad p and div u = div u_h = 0, integrating by parts gives
    (S^-1 u, v) = -(grad p, v) = -<p, v.n> on the boundary for any
    divergence-free v, so

        E^2 = ||S^-1/2 (u - u_h)||^2
            = -<p, u.n> + 2 <p, u_h.n> + ||S^-1/2 u_h||^2.

    The boundary integrands are smooth on every boundary edge (a singular
    point is either interior or sits where p vanishes on both incident
    edges) and the volume integrand is quadratic per element, so no
    singular quadrature is involved.  The Dirichlet datum enters only
    through ``exact.p``, not through the assembly's edge means.
    """
    for c in data.coefficients:
        assert np.all(c.w == 0.0) and c.r == 0.0 and c.divw == 0.0
    elems = np.arange(mesh.num_elements)
    flux = FluxField(mesh, data.fields(mesh), solution)
    assert np.abs(2.0 * flux.b).max() <= 1e-10, "div u_h does not vanish"

    edges = np.flatnonzero(mesh.edge_elems[:, 1] < 0)
    a = mesh.vert_coords[mesh.edge_verts[edges, 0]]
    b = mesh.vert_coords[mesh.edge_verts[edges, 1]]
    pts = rule.physical_points(a, b)
    normal = _outward_normals(mesh, edges)[:, None, :]
    p = exact.p(pts[..., 0], pts[..., 1])
    u_n = (exact.u(pts[..., 0], pts[..., 1]) * normal).sum(axis=-1)
    uh_n = (flux.u(mesh.edge_elems[edges, 0], pts) * normal).sum(axis=-1)
    length = np.hypot(*(b - a).T)
    p_u = rule.integrate(p * u_n, length).sum()
    p_uh = rule.integrate(p * uh_n, length).sum()

    mid = quad.MIDPOINT
    vol_pts = mid.physical_points(mesh.elem_coords())
    uh = flux.u(elems, vol_pts)
    Sinv_uh = np.linalg.solve(_coarse_S(data, mesh)[:, None], uh[..., None])
    uh_sq = mid.integrate((uh * Sinv_uh[..., 0]).sum(axis=-1),
                          mesh.elem_area).sum()
    return float(np.sqrt(-p_u + 2.0 * p_uh + uh_sq))


def xi_reference(mesh, data, exact, solution, singular,
                 rule=quad.ORACLE_EDGE) -> np.ndarray:
    """Per-element xi as documented in ``EstimatorContext.xi_all`` with the
    Dirichlet datum subtracted, for a scalar diffusion coefficient.

    xi_K^2 = sum over the edges sigma of K of h_sigma int_sigma J^2, with
    J the tangential jump of S^-1 u_h times C_S_patch(K) on elements in
    ``singular``, of S^-1/2 u_h elsewhere.  On Dirichlet edges the jump
    is the trace plus s^(1/2 or 1) * dg/dt, with dg/dt = grad p . t taken
    from ``exact.grad_p``.  C_S_patch(K) is the largest coefficient over
    the elements sharing a vertex with K, from the coarse coefficients.
    """
    S = _coarse_S(data, mesh)
    s = S[:, 0, 0]
    assert np.all(S[:, 0, 1] == 0.0) and np.all(S[:, 1, 1] == s)
    vert_max = np.zeros(mesh.num_vertices)
    for t, verts in enumerate(mesh.elem_verts):
        vert_max[verts] = np.maximum(vert_max[verts], s[t])
    patch = vert_max[mesh.elem_verts].max(axis=1)

    flux = FluxField(mesh, data.fields(mesh), solution)
    a = mesh.vert_coords[mesh.edge_verts[:, 0]]
    b = mesh.vert_coords[mesh.edge_verts[:, 1]]
    length = np.hypot(*(b - a).T)
    tangent = (b - a) / length[:, None]
    pts = rule.physical_points(a, b)

    def trace(elems, power):
        u_t = (flux.u(elems, pts) * tangent[:, None, :]).sum(axis=-1)
        return u_t / s[elems][:, None] ** power

    left, right = mesh.edge_elems[:, 0], mesh.edge_elems[:, 1]
    inner = right >= 0
    dirichlet = mesh.edge_flag == DIRICHLET
    dg_dt = (exact.grad_p(pts[..., 0], pts[..., 1])
             * tangent[:, None, :]).sum(axis=-1)
    face = {}
    for name, power in (("inv", 1.0), ("half", 0.5)):
        jump = trace(left, power)
        jump[inner] -= trace(right.clip(min=0), power)[inner]
        jump[dirichlet] += s[left[dirichlet]][:, None] ** (1.0 - power) \
            * dg_dt[dirichlet]
        face[name] = length * rule.integrate(jump**2, length)
    E = mesh.elem_edges
    xi_sq = np.where(singular, patch * face["inv"][E].sum(axis=1),
                     face["half"][E].sum(axis=1))
    return np.sqrt(xi_sq)


# ----------------------------------------------------------------------
# loop references for the array code in mesh, problem and estimators
# ----------------------------------------------------------------------

def dict_topology(elem_verts, boundary_flags=None):
    """Edge numbering by a dict over element edges in element-major order.

    Returns (edge_verts, elem_edges, edge_elems, edge_flag) as built by
    ``Triangulation`` for the same elements and flags.
    """
    boundary_flags = boundary_flags or {}
    nt = len(elem_verts)
    edge_index = {}
    edge_verts = []
    elem_edges = np.empty((nt, 3), dtype=np.int64)
    incidence = []
    for t in range(nt):
        for i in range(3):
            a = int(elem_verts[t][(i + 1) % 3])
            b = int(elem_verts[t][(i + 2) % 3])
            key = (a, b) if a < b else (b, a)
            e = edge_index.get(key)
            if e is None:
                e = len(edge_verts)
                edge_index[key] = e
                edge_verts.append(key)
                incidence.append([])
            elem_edges[t, i] = e
            incidence[e].append(t)
    ne = len(edge_verts)
    edge_elems = np.full((ne, 2), -1, dtype=np.int64)
    edge_flag = np.zeros(ne, dtype=np.uint8)
    for e, elems in enumerate(incidence):
        assert len(elems) <= 2, f"edge {e} shared by {len(elems)} elements"
        edge_elems[e, :len(elems)] = elems
        if len(elems) == 1:
            edge_flag[e] = boundary_flags.get(edge_verts[e], DIRICHLET)
    return (np.array(edge_verts, dtype=np.int64), elem_edges, edge_elems,
            edge_flag)


def _guarded_quotient(numerator, c_wr):
    """numerator / sqrt(c_wr) with 0/0 := 0."""
    if numerator == 0.0:
        return 0.0
    if c_wr == 0.0:
        return math.inf
    return numerator / math.sqrt(c_wr)


def loop_patch_maxima(mesh, fields):
    """Patch weights of ``problem.patch_quantities`` by a loop over the
    (element, vertex) pairs; returns a dict keyed by field name."""
    nv = mesh.num_vertices
    star_cs = np.zeros(nv)
    star_cwr = np.zeros(nv)
    star_divq = np.zeros(nv)
    star_wq = np.zeros(nv)
    star_peclet = np.zeros(nv)
    div_quot = [_guarded_quotient(d, c)
                for d, c in zip(fields.C_divw, fields.c_wr)]
    w_quot = [_guarded_quotient(cw, c) for cw, c in zip(fields.C_w, fields.c_wr)]
    peclet = mesh.elem_diam * fields.C_w / np.sqrt(fields.c_S)
    for t in range(mesh.num_elements):
        for v in mesh.elem_verts[t]:
            star_cs[v] = max(star_cs[v], fields.C_S[t])
            star_cwr[v] = max(star_cwr[v], fields.c_wr[t])
            star_divq[v] = max(star_divq[v], div_quot[t])
            star_wq[v] = max(star_wq[v], w_quot[t])
            star_peclet[v] = max(star_peclet[v], peclet[t])

    def edge_max(star):
        return np.array([max(star[a], star[b]) for a, b in mesh.edge_verts])

    def elem_max(star):
        return np.array([max(star[v] for v in verts)
                         for verts in mesh.elem_verts])

    lambda_w_sigma = edge_max(star_wq)
    p_w_sigma = edge_max(star_peclet)
    return {
        "lam_sigma": edge_max(star_cs),
        "lam_w_sigma": np.array([min(a, b) for a, b
                                 in zip(lambda_w_sigma, p_w_sigma)]),
        "lambda_w_sigma": lambda_w_sigma,
        "p_w_sigma": p_w_sigma,
        "lam_wr": elem_max(star_cwr),
        "lam_divw": elem_max(star_divq),
        "C_S_patch": elem_max(star_cs),
    }


def star_walk_singular_vertices(mesh, C_S, rel_tol=1e-9):
    """Singular vertices by walking each star in rotational order and
    counting the blocks of top-class elements (``mesh.vertex_star``)."""
    singular = set()
    stars = mesh._vertex_incidence()
    for v in range(mesh.num_vertices):
        star = stars[v]
        if not star:
            continue
        values = C_S[star]
        top = values.max()
        if values.min() >= top * (1.0 - rel_tol):
            continue  # single coefficient class around v
        ordered, is_boundary = mesh.vertex_star(v)
        flags = [C_S[t] >= top * (1.0 - rel_tol) for t in ordered]
        blocks = 0
        for i in range(len(flags)):
            prev = flags[i - 1] if (i > 0 or not is_boundary) else False
            if flags[i] and not prev:
                blocks += 1
        if blocks >= 2:
            singular.add(v)
    return singular


def loop_upwind_weights(mesh, fields):
    """``assembly.upwind_weights`` edge by edge through ``upwind_weight``."""
    w_flux = _left_values(mesh, _edge_fluxes(mesh, fields))
    left, right = mesh.edge_elems[:, 0], mesh.edge_elems[:, 1]
    return np.array([
        upwind_weight(fields.c_S[left[e]],
                      None if right[e] < 0 else fields.c_S[right[e]],
                      float(mesh.edge_length[e]), float(w_flux[e]),
                      bool(right[e] < 0))
        for e in range(mesh.num_edges)
    ])


# ----------------------------------------------------------------------
# recursive longest-edge (Rivara) bisection, the reference for
# ``Triangulation.refine``
# ----------------------------------------------------------------------

def canonical(mesh):
    """The mesh up to numbering: sorted vertex coordinates, sorted elements
    as (coordinates in local vertex order, coarse ancestor), and sorted
    boundary edges as (endpoint coordinates, flag)."""
    xy = mesh.vert_coords.tolist()
    elems = sorted((tuple(xy[v] for v in verts), anc) for verts, anc in
                   zip(mesh.elem_verts.tolist(), mesh.elem_ancestor.tolist()))
    edges = sorted((tuple(sorted(xy[v] for v in mesh.edge_verts[e])),
                    int(mesh.edge_flag[e]))
                   for e in np.flatnonzero(mesh.edge_flag != INTERIOR))
    return sorted(xy), elems, edges


def rivara_refine(mesh, marked):
    """Bisect the marked elements of ``mesh`` through their longest edges,
    pre-refining incompatible neighbours recursively, with dicts keyed by
    sorted vertex pairs.  Children are appended after the surviving
    elements."""
    builder = _RivaraBuilder(mesh)
    for t in sorted(set(int(t) for t in marked)):
        builder.ensure_bisected(t)
    return builder.freeze(mesh.generation + 1)


class _RivaraBuilder:
    """Mutable dict representation of a mesh during a Rivara pass."""

    def __init__(self, mesh):
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
            raise AssertionError(f"edge {key} not in element {t}")

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
                raise AssertionError("longest-edge closure exceeded iteration cap")
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

    def freeze(self, generation: int):
        coords = np.array(self.coords)
        nt = len(self.elems)
        elem_verts = np.empty((nt, 3), dtype=np.int64)
        ancestors = np.empty(nt, dtype=np.int64)
        for new_id, (v0, v1, v2, anc) in enumerate(self.elems.values()):
            elem_verts[new_id] = (v0, v1, v2)
            ancestors[new_id] = anc
        return Triangulation(coords, elem_verts, self.bflag, ancestors, generation)


# ----------------------------------------------------------------------
# line-by-line references for the artifact writers
# ----------------------------------------------------------------------

def loop_dump(mesh):
    """``Triangulation.dump`` with one f-string per vertex, edge, element."""
    lines = [f"{mesh.num_vertices} {mesh.num_edges} {mesh.num_elements}"]
    for v in range(mesh.num_vertices):
        x, y = mesh.vert_coords[v]
        lines.append(f"{v} {float(x)!r} {float(y)!r}")
    for e in range(mesh.num_edges):
        a, b = mesh.edge_verts[e]
        lines.append(f"{e} {a} {b} {int(mesh.edge_flag[e])}")
    for t in range(mesh.num_elements):
        v0, v1, v2 = mesh.elem_verts[t]
        e0, e1, e2 = mesh.elem_edges[t]
        lines.append(
            f"{t} {v0} {v1} {v2} {e0} {e1} {e2} {int(mesh.elem_ancestor[t])}"
        )
    return "\n".join(lines) + "\n"


def loop_svg(mesh, values=None, size=640):
    """``Triangulation.to_svg`` with one f-string per element and edge."""
    xy = mesh.vert_coords
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
        for t in range(mesh.num_elements):
            ts = (values[t] - vmin) / rng
            r = int(255 * ts)
            b = int(255 * (1 - ts))
            pts = " ".join(
                f"{sx(xy[v, 0]):.2f},{sy(xy[v, 1]):.2f}"
                for v in mesh.elem_verts[t]
            )
            out.append(
                f'<polygon points="{pts}" fill="rgb({r},64,{b})" '
                f'fill-opacity="0.6" stroke="none"/>'
            )
    for e in range(mesh.num_edges):
        a, b = mesh.edge_verts[e]
        out.append(
            f'<line x1="{sx(xy[a, 0]):.2f}" y1="{sy(xy[a, 1]):.2f}" '
            f'x2="{sx(xy[b, 0]):.2f}" y2="{sy(xy[b, 1]):.2f}" '
            f'stroke="black" stroke-width="0.4"/>'
        )
    out.append("</svg>")
    return "\n".join(out)


def loop_estimator_csv(breakdown):
    """``EstimatorBreakdown.to_csv`` with one f-string per value."""
    lines = ["element_id,eta_D,eta_R,eta_NC,eta_C,eta_U,xi,total"]
    for t in range(breakdown.total.size):
        row = (breakdown.eta_D[t], breakdown.eta_R[t], breakdown.eta_NC[t],
               breakdown.eta_C[t], breakdown.eta_U[t], breakdown.xi[t],
               breakdown.total[t])
        lines.append(str(t) + "," + ",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def loop_nodal_csv(nodal):
    """The ``ptilde_nodal.csv`` text of ``cli.run``, row by row."""
    rows = ["vertex,value"]
    for v, val in enumerate(nodal):
        rows.append(f"{v},{'nan' if math.isnan(val) else f'{val:.17g}'}")
    return "\n".join(rows) + "\n"
