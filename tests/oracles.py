"""Independent reference values shared by the test modules.

First, the oracle quadrature (a collapsed Gauss rule on triangles and a
10-point Gauss rule on edges) and the monomial checks that
``tests/test_quadrature.py`` applies to every rule of the package.
The energy-error and xi references call neither ``verify.energy_error``
nor the estimator module: the energy error comes from a boundary identity
and the xi indicator from a direct evaluation of its documented formula
with its own quadrature and its own coefficient bounds.  The loop
references compute the topology, the patch maxima, the singular vertices
and the upwind weights entity by entity, refine by recursive longest-edge
(Rivara) bisection over dicts, and write the artifacts line by line, as
checks on the array code of the package.  ``mixed_centered`` and
``mixed_upwind`` assemble the two schemes as the saddle-point systems
that ``assembly.assemble_centered`` and ``assembly.assemble_upwind``
hybridize.  At the end: helpers only the tests call, the per-point
weighted flux and tangential jumps (one weighting at a time), which the
package replaces by per-element contractions, and the ``einsum`` forms
of the package's 2x2 and quadrature kernels.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from rtadapt import quadrature as quad
from rtadapt.assembly import (CENTERED, UPWIND, Discretization,
                              MixedSolution, _local_blocks)
from rtadapt.estimators import EstimatorError
from rtadapt.mesh import (DIRICHLET, INTERIOR, NEUMANN, MeshError,
                          Triangulation)
from rtadapt.postprocess import FluxField, ptilde_values


# ----------------------------------------------------------------------
# oracle quadrature and the exactness checks of the package's rules
# ----------------------------------------------------------------------

class QuadratureError(Exception):
    """A rule failed its exactness validation."""


def collapsed_gauss_rule(n: int = 6) -> quad.Rule:
    """Tensor Gauss rule collapsed onto the triangle (oracle rule).

    An n-by-n Gauss-Legendre grid on the unit square mapped by
    (s, t) -> (s(1-t), t) integrates total degree <= 2n-2 exactly.
    Structurally independent of the symmetric production rules.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    s = 0.5 * (x + 1.0)
    ws = 0.5 * w
    S, T = np.meshgrid(s, s, indexing="ij")
    WS, WT = np.meshgrid(ws, ws, indexing="ij")
    xs = (S * (1.0 - T)).ravel()
    ys = T.ravel()
    wts = (WS * WT * (1.0 - T)).ravel()
    lam = np.column_stack([1.0 - xs - ys, xs, ys])
    return quad.Rule(lam, wts / wts.sum(), degree=2 * n - 2)


def _reference_monomial_integral(i: int, j: int) -> float:
    # int over {x,y>=0, x+y<=1} of x^i y^j = i! j! / (i+j+2)!
    return math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)


def validate_triangle_rule(rule: quad.Rule, tol: float = 1e-14
                           ) -> None:
    """Check the rule against closed-form monomial integrals.

    Raises QuadratureError on the first monomial x^i y^j with
    i + j <= rule.degree whose quadrature error exceeds ``tol``.
    """
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = rule.physical_points(coords)
    if abs(rule.weights.sum() - 1.0) > tol:
        raise QuadratureError("rule weights do not sum to one")
    for i in range(rule.degree + 1):
        for j in range(rule.degree + 1 - i):
            approx = 0.5 * np.dot(rule.weights, pts[:, 0] ** i * pts[:, 1] ** j)
            exact = _reference_monomial_integral(i, j)
            if abs(approx - exact) > tol * max(1.0, abs(exact)):
                raise QuadratureError(
                    f"rule of degree {rule.degree} misses x^{i} y^{j}: "
                    f"{approx!r} vs {exact!r}"
                )


def validate_edge_rule(rule: quad.Rule, tol: float = 1e-14) -> None:
    """Check an edge rule against 1D monomial integrals."""
    for k in range(rule.degree + 1):
        approx = np.dot(rule.weights, rule.points[:, 1]**k)
        exact = 1.0 / (k + 1)
        if abs(approx - exact) > tol:
            raise QuadratureError(f"edge rule misses t^{k}")


ORACLE_TRI = collapsed_gauss_rule(6)
ORACLE_EDGE = quad.gauss_edge_rule(10)


def _coarse_S(data, mesh):
    return data.table.S[mesh.elem_ancestor]


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
    assert np.all(data.table.w == 0.0) and np.all(data.table.r == 0.0)
    elems = np.arange(mesh.num_elements)
    flux = FluxField(Discretization(mesh, data), solution)
    assert np.abs(2.0 * flux.b).max() <= 1e-10, "div u_h does not vanish"

    edges = np.flatnonzero(mesh.edge_elems[:, 1] < 0)
    a = mesh.vert_coords[mesh.edge_verts[edges, 0]]
    b = mesh.vert_coords[mesh.edge_verts[edges, 1]]
    pts = rule.physical_points(np.stack([a, b], axis=-2))
    normal = _outward_normals(mesh, edges)[:, None, :]
    u, p = exact.u_and_p(pts[..., 0], pts[..., 1])
    u_n = (u * normal).sum(axis=-1)
    uh_n = (flux.u(mesh.edge_elems[edges, 0], pts) * normal).sum(axis=-1)
    length = np.hypot(*(b - a).T)
    p_u = rule.integrate(p * u_n, length).sum()
    p_uh = rule.integrate(p * uh_n, length).sum()

    mid = quad.MIDPOINT
    vol_pts = mid.physical_points(mesh.elem_coords)
    uh = flux.u(elems, vol_pts)
    Sinv_uh = np.linalg.solve(_coarse_S(data, mesh)[:, None], uh[..., None])
    uh_sq = mid.integrate((uh * Sinv_uh[..., 0]).sum(axis=-1),
                          mesh.elem_area).sum()
    return float(np.sqrt(-p_u + 2.0 * p_uh + uh_sq))


def xi_reference(mesh, data, exact, solution, singular,
                 rule=ORACLE_EDGE) -> np.ndarray:
    """Per-element xi as documented in ``EstimatorContext.xi_all`` with the
    Dirichlet datum subtracted, for a scalar diffusion coefficient.

    xi_K^2 = sum over the edges sigma of K of h_sigma int_sigma J^2, with
    J the tangential jump of S^-1 u_h times C_S_patch(K) on elements in
    ``singular``, of S^-1/2 u_h elsewhere.  On Dirichlet edges the jump
    is the trace plus s^(1/2 or 1) * dg/dt, with dg/dt = grad p . t and
    grad p = -u / s from ``exact.u_and_p``.  C_S_patch(K) is the largest
    coefficient over the elements sharing a vertex with K, from the coarse
    coefficients.
    """
    S = _coarse_S(data, mesh)
    s = S[:, 0, 0]
    assert np.all(S[:, 0, 1] == 0.0) and np.all(S[:, 1, 1] == s)
    vert_max = np.zeros(mesh.num_vertices)
    for t, verts in enumerate(mesh.elem_verts):
        vert_max[verts] = np.maximum(vert_max[verts], s[t])
    patch = vert_max[mesh.elem_verts].max(axis=1)

    flux = FluxField(Discretization(mesh, data), solution)
    a = mesh.vert_coords[mesh.edge_verts[:, 0]]
    b = mesh.vert_coords[mesh.edge_verts[:, 1]]
    length = np.hypot(*(b - a).T)
    tangent = (b - a) / length[:, None]
    pts = rule.physical_points(np.stack([a, b], axis=-2))

    def trace(elems, power):
        u_t = (flux.u(elems, pts) * tangent[:, None, :]).sum(axis=-1)
        return u_t / s[elems][:, None] ** power

    left, right = mesh.edge_elems[:, 0], mesh.edge_elems[:, 1]
    inner = right >= 0
    dirichlet = mesh.edge_flag == DIRICHLET
    u = exact.u_and_p(pts[..., 0], pts[..., 1])[0]
    dg_dt = -(u * tangent[:, None, :]).sum(axis=-1) / s[left][:, None]
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

    Returns (edge_verts, elem_edges, edge_elems, edge_flag, elem_signs)
    as built by ``Triangulation`` for the same elements and flags; the
    sign of local edge i is +1 where the stored edge starts at the
    element's local vertex i+1, -1 where it ends there.
    """
    boundary_flags = boundary_flags or {}
    nt = len(elem_verts)
    edge_index = {}
    edge_verts = []
    elem_edges = np.empty((nt, 3), dtype=np.int64)
    elem_signs = np.empty((nt, 3), dtype=np.int8)
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
            elem_signs[t, i] = 1 if edge_verts[e][0] == a else -1
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
            edge_flag, elem_signs)


def _guarded_quotient(numerator, r):
    """numerator / sqrt(r) with 0/0 := 0."""
    if numerator == 0.0:
        return 0.0
    if r == 0.0:
        return math.inf
    return numerator / math.sqrt(r)


def loop_patch_maxima(mesh, fields):
    """Patch weights of ``problem.patch_quantities`` by a loop over the
    (element, vertex) pairs; returns a dict keyed by field name."""
    nv = mesh.num_vertices
    star_cs = np.zeros(nv)
    star_r = np.zeros(nv)
    star_wq = np.zeros(nv)
    star_peclet = np.zeros(nv)
    w_quot = [_guarded_quotient(cw, r) for cw, r in zip(fields.C_w, fields.r)]
    peclet = mesh.elem_diam * fields.C_w / np.sqrt(fields.c_S)
    for t in range(mesh.num_elements):
        for v in mesh.elem_verts[t]:
            star_cs[v] = max(star_cs[v], fields.C_S[t])
            star_r[v] = max(star_r[v], fields.r[t])
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
        "lam_wr": elem_max(star_r),
        "C_S_patch": elem_max(star_cs),
    }


def vertex_incidence(mesh):
    """Incident element ids per vertex."""
    stars = [[] for _ in range(mesh.num_vertices)]
    for t in range(mesh.num_elements):
        for v in mesh.elem_verts[t]:
            stars[v].append(t)
    return stars


def vertex_star(mesh, v, stars=None):
    """Elements around vertex v in rotational order.

    Returns the cyclically ordered element ids and whether v lies on
    the boundary.  For a boundary vertex the walk starts at one end of
    the open fan.  ``stars`` is ``vertex_incidence(mesh)`` when at hand.
    """
    if not 0 <= v < mesh.num_vertices:
        raise MeshError(f"invalid vertex id {v}")
    star = (stars or vertex_incidence(mesh))[v]
    if not star:
        raise MeshError(f"vertex {v} belongs to no element")

    # edges at v within the star, mapped to the incident star elements
    edge_to_elems: dict[int, list[int]] = {}
    for t in star:
        for i in range(3):
            e = int(mesh.elem_edges[t, i])
            if v in mesh.edge_verts[e]:
                edge_to_elems.setdefault(e, []).append(t)
    boundary_edges = [e for e, ts in edge_to_elems.items() if len(ts) == 1]
    is_boundary = bool(boundary_edges)

    if is_boundary:
        start_edge = min(boundary_edges)
        current = edge_to_elems[start_edge][0]
    else:
        current = min(star)
        start_edge = min(
            int(e) for e in mesh.elem_edges[current] if v in mesh.edge_verts[e]
        )

    ordered = []
    prev_edge = start_edge
    seen = set()
    while True:
        ordered.append(current)
        seen.add(current)
        nxt = None
        for i in range(3):
            e = int(mesh.elem_edges[current, i])
            if e == prev_edge or v not in mesh.edge_verts[e]:
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


def star_walk_singular_vertices(mesh, C_S, rel_tol=1e-9):
    """Singular vertices by walking each star in rotational order and
    counting the blocks of top-class elements (``vertex_star``)."""
    singular = set()
    stars = vertex_incidence(mesh)
    for v in range(mesh.num_vertices):
        star = stars[v]
        if not star:
            continue
        values = C_S[star]
        top = values.max()
        if values.min() >= top * (1.0 - rel_tol):
            continue  # single coefficient class around v
        ordered, is_boundary = vertex_star(mesh, v, stars)
        flags = [C_S[t] >= top * (1.0 - rel_tol) for t in ordered]
        blocks = 0
        for i in range(len(flags)):
            prev = flags[i - 1] if (i > 0 or not is_boundary) else False
            if flags[i] and not prev:
                blocks += 1
        if blocks >= 2:
            singular.add(v)
    return singular


def upwind_weight(c_s_left, c_s_right, edge_length, w_flux, boundary):
    """Upstream weighting coefficient of one edge.

    Harmonic average of the smallest diffusion eigenvalues across the
    edge; zero for a vanishing flux and for inflow boundary edges.  For a
    two-dimensional edge the measure and the diameter coincide.
    """
    if w_flux == 0.0:
        return 0.0
    if boundary:
        if w_flux < 0.0:
            return 0.0
        c_s = c_s_left
    else:
        c_s = 2.0 * c_s_left * c_s_right / (c_s_left + c_s_right)
    h_sigma = edge_length
    return min(c_s * edge_length / (h_sigma * abs(w_flux)), 0.5)


def first_side_values(mesh, per_side):
    """Each edge's value in the (NT, 3) ``per_side`` on the side of its
    first element, the local edge found by searching that element's
    edges."""
    first = mesh.edge_elems[:, 0]
    local = np.argmax(mesh.elem_edges[first]
                      == np.arange(mesh.num_edges)[:, None], axis=1)
    return per_side[first, local]


def loop_upwind_weights(disc):
    """``assembly.upwind_weights`` edge by edge through ``upwind_weight``."""
    mesh, fields = disc.mesh, disc.fields
    w_flux = first_side_values(mesh, einsum_edge_fluxes(mesh, fields))
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
    return builder.freeze()


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

    def freeze(self):
        coords = np.array(self.coords)
        nt = len(self.elems)
        elem_verts = np.empty((nt, 3), dtype=np.int64)
        ancestors = np.empty(nt, dtype=np.int64)
        for new_id, (v0, v1, v2, anc) in enumerate(self.elems.values()):
            elem_verts[new_id] = (v0, v1, v2)
            ancestors[new_id] = anc
        return Triangulation(coords, elem_verts, self.bflag, ancestors)


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


def row_dump(mesh):
    """``Triangulation.dump`` with one ``%`` call per vertex, edge and
    element row."""
    lines = [f"{mesh.num_vertices} {mesh.num_edges} {mesh.num_elements}"]
    lines += ["%d %r %r" % row for row in zip(
        range(mesh.num_vertices), *mesh.vert_coords.T.tolist())]
    lines += ["%d %d %d %d" % row for row in zip(
        range(mesh.num_edges), *mesh.edge_verts.T.tolist(),
        mesh.edge_flag.tolist())]
    lines += ["%d %d %d %d %d %d %d %d" % row for row in zip(
        range(mesh.num_elements), *mesh.elem_verts.T.tolist(),
        *mesh.elem_edges.T.tolist(), mesh.elem_ancestor.tolist())]
    return "\n".join(lines) + "\n"


def row_svg(mesh, values=None, size=640):
    """``Triangulation.to_svg`` with one ``%`` call per element and edge,
    formatting every coordinate where it is written."""
    xy = mesh.vert_coords
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    span = max(hi[0] - lo[0], hi[1] - lo[1])
    pad = 0.03 * span
    scale = size / (span + 2 * pad)
    sx = (xy[:, 0] - lo[0] + pad) * scale
    sy = size - (xy[:, 1] - lo[1] + pad) * scale

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">'
    ]
    if values is not None:
        values = np.asarray(values, dtype=float)
        vmax = values.max() if values.size else 1.0
        vmin = values.min() if values.size else 0.0
        rng = vmax - vmin if vmax > vmin else 1.0
        ts = (values - vmin) / rng
        tri = mesh.elem_verts
        points = np.stack([sx[tri], sy[tri]], axis=2).reshape(-1, 6)
        out += [
            '<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f" '
            'fill="rgb(%d,64,%d)" fill-opacity="0.6" stroke="none"/>' % row
            for row in zip(*points.T.tolist(),
                           (255 * ts).astype(np.int64).tolist(),
                           (255 * (1 - ts)).astype(np.int64).tolist())
        ]
    a, b = mesh.edge_verts.T
    out += [
        '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
        'stroke="black" stroke-width="0.4"/>' % row
        for row in zip(sx[a].tolist(), sy[a].tolist(),
                       sx[b].tolist(), sy[b].tolist())
    ]
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


# ----------------------------------------------------------------------
# the mixed saddle-point forms of both schemes, the references for the
# hybridized ``assembly.assemble_centered`` and ``assemble_upwind``, and
# the per-element and per-edge forms of the local matrices and upwind
# couplings
# ----------------------------------------------------------------------

@dataclass
class LocalMatrices:
    """Element matrices of the mixed bilinear forms.

    M : (3, 3) weighted velocity mass matrix, int_K (S^-1 phi_i) . phi_j
    B : (3,) divergence integrals, signed edge lengths
    conv : (3,) convection couplings, int_K (S^-1 phi_i) . w
    react : scalar, (r + div w) |K|
    """

    M: np.ndarray
    B: np.ndarray
    conv: np.ndarray
    react: float


def element_major_blocks(disc):
    """``assembly._local_blocks`` with the element axis first: M (NT, 3, 3),
    B and conv (NT, 3), react (NT,)."""
    M, B, conv, react = _local_blocks(disc)
    return M.transpose(2, 0, 1), B.T, conv.T, react


def local_matrices(disc):
    """``assembly._local_blocks`` as one LocalMatrices per element."""
    M, B, conv, react = element_major_blocks(disc)
    return [LocalMatrices(M[t], B[t], conv[t], float(react[t]))
            for t in range(disc.mesh.num_elements)]


def flux_through_edge(w, mesh, t, local):
    """Signed flux of the velocity through one element edge.

    Integral of w . n over the edge with n outward to element t; constant
    velocity along a straight edge.
    """
    e = mesh.elem_edges[t, local]
    n_out = mesh.elem_signs[t, local] * mesh.edge_normal[e]
    return float(np.dot(w, n_out) * mesh.edge_length[e])


def upwind_value_coeffs(nu, w_flux, interior):
    """Coefficients (on p_K, on the opposite value) of the upwind face value.

    The opposite value is the neighbor pressure on interior edges and the
    Dirichlet datum mean on boundary edges (zero in the homogeneous case).
    """
    if w_flux >= 0.0:
        return 1.0 - nu, nu
    return nu, 1.0 - nu


def loop_neumann_coefficients(mesh, problem, rule=quad.DATA_EDGE):
    """``Discretization.fixed_flux`` edge by edge.

    The datum is evaluated edge by edge, and the values of all Neumann
    edges are then weighted by one matrix-vector product, in the edge order
    of the assembly.  The product sums in another order than a dot product
    per edge, and the two differ in the last bits for 20 points.
    """
    fixed = np.zeros(mesh.num_edges)
    edges = np.flatnonzero(mesh.edge_flag == NEUMANN)
    values, signs = [], []
    for e in edges:
        t = int(mesh.edge_elems[e, 0])
        local = int(np.flatnonzero(mesh.elem_edges[t] == e)[0])
        a = mesh.vert_coords[mesh.edge_verts[e, 0]]
        b = mesh.vert_coords[mesh.edge_verts[e, 1]]
        pts = rule.physical_points(np.stack([a, b], axis=-2))
        values.append(problem.neumann_data(pts[..., 0], pts[..., 1]))
        signs.append(mesh.elem_signs[t, local])
    if values:
        fixed[edges] = np.array(signs) * (np.array(values) @ rule.weights)
    return fixed


@dataclass
class SaddleSystem:
    """Sparse saddle-point system with its DOF bookkeeping."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    edge_dof: np.ndarray          # (NE,) row index per free edge, -1 if fixed
    n_free: int                   # number of free edge DOFs
    fixed_flux: np.ndarray        # (NE,) Neumann coefficients, zero elsewhere
    scheme: str
    nu: np.ndarray | None = None  # per-edge upwind weights (upwind scheme)
    # the matrix again, for the residual: solver.solve recovers from a
    # copy of the system without ``matrix``
    mixed: sp.csr_matrix | None = None

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def recover(self, x):
        """Mixed solution from the system's solution vector, with the
        residual and the right-hand side of the mixed equations."""
        flux = self.fixed_flux.copy()
        free = self.edge_dof >= 0
        flux[free] = x[self.edge_dof[free]]
        solution = MixedSolution(flux=flux, pressure=x[self.n_free:],
                                 scheme=self.scheme)
        return solution, self.mixed @ x - self.rhs, self.rhs


def mixed_centered(mesh, problem):
    """The centered scheme as one sparse saddle-point system: free edge
    rows (Neumann edges eliminated with their flux fixed), then the
    sign-flipped element rows."""
    return _mixed(mesh, problem, CENTERED)


def mixed_upwind(mesh, problem):
    """The upwind scheme as one sparse saddle-point system, in the layout
    of ``mixed_centered``, with face-value convection in the element rows
    and the upwind weights of ``loop_upwind_weights``."""
    return _mixed(mesh, problem, UPWIND)


def _mixed(mesh, problem, scheme):
    disc = Discretization(mesh, problem)
    M, B, conv, react = element_major_blocks(disc)
    fsrc = quad.SEVEN_POINT.integrate(disc.source, mesh.elem_area)
    pd_mean = disc.pd_mean
    fixed = loop_neumann_coefficients(mesh, problem)

    ne, nt = mesh.num_edges, mesh.num_elements
    edge_dof = np.full(ne, -1, dtype=np.int64)
    free_edges = np.flatnonzero(mesh.edge_flag != NEUMANN)
    edge_dof[free_edges] = np.arange(free_edges.size)
    n_free = free_edges.size
    dim = n_free + nt
    E = mesh.elem_edges
    edof = edge_dof[E]
    prow = n_free + np.arange(nt)
    rows, cols, vals = [], [], []
    rhs = np.zeros(dim)

    # edge rows: velocity mass block and -B^T pressure coupling
    row_idx = np.broadcast_to(edof[:, :, None], (nt, 3, 3))
    col_idx = np.broadcast_to(edof[:, None, :], (nt, 3, 3))
    keep = (row_idx >= 0) & (col_idx >= 0)
    rows.append(row_idx[keep])
    cols.append(col_idx[keep])
    vals.append(M[keep])
    to_rhs = (row_idx >= 0) & (col_idx < 0)
    col_edges = np.broadcast_to(E[:, None, :], (nt, 3, 3))
    np.subtract.at(rhs, row_idx[to_rhs],
                   M[to_rhs] * fixed[col_edges[to_rhs]])
    keep = edof >= 0
    rows.append(edof[keep])
    cols.append(np.broadcast_to(prow[:, None], (nt, 3))[keep])
    vals.append(-B[keep])

    # natural Dirichlet boundary term
    dir_edges = np.flatnonzero(mesh.edge_flag == DIRICHLET)
    sgn_left = first_side_values(mesh, mesh.elem_signs.astype(np.int64))
    np.subtract.at(rhs, edge_dof[dir_edges],
                   sgn_left[dir_edges] * mesh.edge_length[dir_edges]
                   * pd_mean[dir_edges])

    # element rows: sign-flipped mass balance, with volumetric convection
    # (centered) or face-value convection (upwind)
    edge_coef = -B + conv if scheme == CENTERED else -B
    row_idx = np.broadcast_to(prow[:, None], (nt, 3))
    rows.append(row_idx[keep])
    cols.append(edof[keep])
    vals.append(edge_coef[keep])
    np.subtract.at(rhs, row_idx[~keep], edge_coef[~keep] * fixed[E[~keep]])
    rows.append(prow)
    cols.append(prow)
    nu_edges = None
    if scheme == CENTERED:
        vals.append(-react)
    else:
        vals.append(-disc.fields.r * mesh.elem_area)
        nu_edges = loop_upwind_weights(disc)
        wflux = einsum_edge_fluxes(mesh, disc.fields)
        nu = nu_edges[E]
        flag = mesh.edge_flag[E]
        lr = mesh.edge_elems[E]
        other = np.where(lr[..., 0] == np.arange(nt)[:, None], lr[..., 1],
                         lr[..., 0])
        upstream = wflux >= 0.0
        c_own = np.where(upstream, 1.0 - nu, nu)
        c_other = np.where(upstream, nu, 1.0 - nu)
        active = wflux != 0.0
        interior = active & (flag == INTERIOR)
        dirich = active & (flag == DIRICHLET)
        neum = active & (flag == NEUMANN)
        for mask, col, val in (
                (interior, row_idx, -wflux * c_own),
                (interior, n_free + other, -wflux * c_other),
                (dirich, row_idx, -wflux * c_own),
                # Neumann edges carry no pressure datum: interior value
                (neum, row_idx, -wflux)):
            rows.append(row_idx[mask])
            cols.append(col[mask])
            vals.append(val[mask])
        np.add.at(rhs, row_idx[dirich],
                  wflux[dirich] * c_other[dirich] * pd_mean[E[dirich]])
    rhs[prow] -= fsrc

    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim)).tocsr()
    matrix.sum_duplicates()
    matrix.sort_indices()
    return SaddleSystem(matrix=matrix, rhs=rhs, edge_dof=edge_dof,
                        n_free=n_free, fixed_flux=fixed, scheme=scheme,
                        nu=nu_edges, mixed=matrix)


def element_row(system, t):
    """Row of element t in a saddle-point system."""
    return system.n_free + t


def dump_matrix(system):
    """Coordinate text format, one `row col value` per line."""
    coo = system.matrix.tocoo()
    return "\n".join(f"{r} {c} {float(v)!r}"
                     for r, c, v in zip(coo.row, coo.col, coo.data)) + "\n"


# ----------------------------------------------------------------------
# helpers that only the tests call: single-element and single-edge
# accessors, barycenters, the square-root weighted jumps, edge means of
# the postprocessed scalar
# ----------------------------------------------------------------------

def barycenters(mesh):
    return mesh.elem_coords.mean(axis=1)


def edge_patch(mesh, e):
    """Element ids sharing edge e (2 interior, 1 boundary)."""
    if not 0 <= e < mesh.num_edges:
        raise MeshError(f"invalid edge id {e}")
    return [int(t) for t in mesh.edge_elems[e] if t >= 0]


def hat_hat_edges(ctx):
    """Face-value defect of the upwind pressure per edge, from the side of
    its first element (``EstimatorContext._hat_hat_all``)."""
    return first_side_values(ctx.mesh, ctx._hat_hat_all().T)


def hat_hat_p(ctx, e):
    """``hat_hat_edges`` on one edge."""
    if ctx.solution.scheme != UPWIND:
        raise EstimatorError("upwind face values need an upwind solution")
    return float(hat_hat_edges(ctx)[e])


def element_indicator(ctx, family, t):
    """One element's value of an estimator family, e.g. ``"eta_NC"``."""
    return float(getattr(ctx, f"{family}_all")()[t])


def total_indicator(ctx, t, policy="theorem"):
    return float(ctx.compute(policy).total[t])


@dataclass(frozen=True)
class ElementQuadratic:
    """Quadratic scalar on one element, global monomial coefficients."""

    element: int
    coeffs: np.ndarray  # (6,): 1, x, y, x^2, xy, y^2

    def __call__(self, x, y):
        c = self.coeffs
        return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y \
            + c[5] * y * y

    def gradient(self, x, y):
        c = self.coeffs
        gx = c[1] + 2.0 * c[3] * x + c[4] * y
        gy = c[2] + c[4] * x + 2.0 * c[5] * y
        return np.stack([gx, gy], axis=-1)


def element_quadratic(coeffs, t):
    return ElementQuadratic(t, coeffs[t])


def ptilde_gradient(coeffs, pts):
    """Gradient of the postprocessed scalar at points (NT, nq, 2)."""
    x = pts[..., 0]
    y = pts[..., 1]
    c = coeffs[:, None, :]
    gx = c[..., 1] + 2.0 * c[..., 3] * x + c[..., 4] * y
    gy = c[..., 2] + c[..., 4] * x + 2.0 * c[..., 5] * y
    return np.stack([gx, gy], axis=-1)


def edge_mean_mismatch(mesh, coeffs, rule=quad.EDGE_GAUSS2):
    """Per-edge jump of the mean of the postprocessed scalar.

    Interior edges report the difference of the two one-sided edge means
    (zero for the discrete solution up to solver residual); boundary edges
    report the one-sided mean itself.
    """
    a = mesh.vert_coords[mesh.edge_verts[:, 0]]
    b = mesh.vert_coords[mesh.edge_verts[:, 1]]
    pts = rule.physical_points(np.stack([a, b], axis=-2))
    left = mesh.edge_elems[:, 0]
    right = mesh.edge_elems[:, 1]
    mean_left = ptilde_values(coeffs[left], pts) @ rule.weights
    out = mean_left.copy()
    interior = right >= 0
    mean_right = ptilde_values(coeffs[right[interior]], pts[interior]) \
        @ rule.weights
    out[interior] -= mean_right
    return out


def weight(flux, elems, values, weighting="inv"):
    """S^-1 or S^-1/2 of the given elements applied to values of u_h
    there, shaped (..., nq, 2), point by point and component by
    component."""
    fields = flux.disc.fields
    mat = fields.Sinv if weighting == "inv" else fields.Sinvhalf
    m = mat[elems][..., None, :, :]
    vx, vy = values[..., 0], values[..., 1]
    out = np.empty(np.broadcast_shapes(m.shape[:-1], values.shape))
    out[..., 0] = m[..., 0, 0] * vx + m[..., 0, 1] * vy
    out[..., 1] = m[..., 1, 0] * vx + m[..., 1, 1] * vy
    return out


def weighted(flux, elems, pts, weighting="inv"):
    """S^-1 u_h or S^-1/2 u_h of the given elements at points."""
    return weight(flux, elems, flux.u(elems, pts), weighting)


def tangential_trace(mesh, flux, weighting, elems, edges, values):
    """Tangential component of the weighted flux of ``elems``, from the
    values of u_h at the points of ``edges``."""
    out = weight(flux, elems, values, weighting)
    tangent = mesh.edge_tangent[edges][:, None]
    return out[..., 0] * tangent[..., 0] + out[..., 1] * tangent[..., 1]


def single_weighting_jump_sq(mesh, flux, weighting="inv",
                             boundary_slope=None, rule=quad.EDGE_GAUSS2):
    """``postprocess.tangential_jump_sq`` for one weighting, weighting u_h
    at each edge point; ``boundary_slope(edge_ids, pts)`` returns the
    expected boundary trace of that weighting."""
    def trace(elems, edges, pts):
        return tangential_trace(mesh, flux, weighting, elems, edges,
                                flux.u(elems, pts))

    out = np.empty(mesh.num_edges)
    left, right = mesh.edge_elems[:, 0], mesh.edge_elems[:, 1]
    inner = np.flatnonzero(right >= 0)
    pts = rule.physical_points(mesh.vert_coords[mesh.edge_verts[inner]])
    jump = trace(left[inner], inner, pts) - trace(right[inner], inner, pts)
    out[inner] = rule.integrate(jump**2, mesh.edge_length[inner])
    bdry = np.flatnonzero(right < 0)
    if boundary_slope is not None:
        rule = quad.DATA_EDGE
    pts = rule.physical_points(mesh.vert_coords[mesh.edge_verts[bdry]])
    jump = trace(left[bdry], bdry, pts)
    if boundary_slope is not None:
        jump = jump - boundary_slope(bdry, pts)
    out[bdry] = rule.integrate(jump**2, mesh.edge_length[bdry])
    return out


# ----------------------------------------------------------------------
# the einsum forms of the small 2x2 and quadrature contractions, the
# references for the component and matmul kernels of the package
# ----------------------------------------------------------------------

def einsum_physical_points(rule, coords):
    """``Rule.physical_points``."""
    return np.einsum("qi,...id->...qd", rule.points, coords)


def einsum_integrate(rule, values, measure):
    """``Rule.integrate``."""
    return np.einsum("...q,q->...", values, rule.weights) * measure


def einsum_weighted(flux, elems, pts, weighting="inv"):
    """``weighted``."""
    fields = flux.disc.fields
    mat = fields.Sinv if weighting == "inv" else fields.Sinvhalf
    return np.einsum("...ab,...qb->...qa", mat[elems], flux.u(elems, pts))


def einsum_tangential_trace(mesh, flux, weighting, elems, edges, pts):
    """``tangential_trace``."""
    return np.einsum("eqd,ed->eq", einsum_weighted(flux, elems, pts,
                                                   weighting),
                     mesh.edge_tangent[edges])


def einsum_ptilde_linear(fields, a):
    """The x and y coefficients of ``postprocess.build_ptilde``."""
    return -np.einsum("tab,tb->ta", fields.Sinv, a)


def einsum_reconstruct(mesh, solution):
    """``assembly.reconstruct``."""
    C = mesh.elem_signs * mesh.edge_length[mesh.elem_edges] \
        / (2.0 * mesh.elem_area[:, None])
    dofs = solution.flux[mesh.elem_edges] * C
    return -np.einsum("ti,tid->td", dofs, mesh.elem_coords), dofs.sum(axis=1)


def einsum_edge_fluxes(mesh, fields):
    """The convective fluxes w_{K,sigma} per (element, local edge), (NT,
    3): ``Discretization.face_rule[0]`` transposed."""
    E = mesh.elem_edges
    wn = np.einsum("td,ted->te", fields.w, mesh.edge_normal[E])
    return mesh.elem_signs * wn * mesh.edge_length[E]


def einsum_local_blocks(mesh, fields, rule=quad.MIDPOINT):
    """``assembly._local_blocks``: M, B, conv, react."""
    coords = mesh.elem_coords
    pts = einsum_physical_points(rule, coords)              # (NT, nq, 2)
    C = mesh.elem_signs * mesh.edge_length[mesh.elem_edges] \
        / (2.0 * mesh.elem_area[:, None])
    D = pts[:, :, None, :] - coords[:, None, :, :]          # (NT, nq, 3, 2)
    AD = np.einsum("tab,tqib->tqia", fields.Sinv, D)
    M0 = np.einsum("tqia,tqja,q->tij", AD, D, rule.weights)
    M = M0 * mesh.elem_area[:, None, None] * C[:, :, None] * C[:, None, :]
    B = mesh.elem_signs * mesh.edge_length[mesh.elem_edges]
    conv0 = np.einsum("tqia,ta,q->ti", AD, fields.w, rule.weights)
    conv = conv0 * mesh.elem_area[:, None] * C
    react = fields.r * mesh.elem_area
    return M, B, conv, react


def einsum_weighted_norm_sq(ctx):
    """``EstimatorContext._weighted_norm_sq`` at the context's nodes."""
    mesh, rule = ctx.mesh, quad.MIDPOINT
    pts = einsum_physical_points(rule, mesh.elem_coords)
    vals = einsum_weighted(ctx.flux, np.arange(mesh.num_elements), pts)
    return einsum_integrate(rule, (vals**2).sum(axis=-1), mesh.elem_area)


def einsum_residual_norm_sq(ctx, pts):
    """``EstimatorContext._residual_norm_sq`` at the seven-point nodes
    ``pts`` of the context's mesh."""
    mesh, fields, rule = ctx.mesh, ctx.fields, quad.SEVEN_POINT
    fvals = np.broadcast_to(ctx.disc.problem.f(pts[..., 0], pts[..., 1]),
                            pts.shape[:-1])
    pure = (fields.C_w == 0.0) & (fields.r == 0.0)
    reduced = fvals - (fvals @ rule.weights)[:, None]
    sinv_u = einsum_weighted(ctx.flux, np.arange(mesh.num_elements), pts)
    general = (fvals - 2.0 * ctx.flux.b[:, None]
               + np.einsum("tqd,td->tq", sinv_u, fields.w)
               - (fields.r * ctx.solution.pressure)[:, None])
    resid = np.where(pure[:, None], reduced, general)
    return einsum_integrate(rule, resid**2, mesh.elem_area)


def einsum_error_sq(rule, pts, elems, mesh, fields, flux, pressure, exact):
    """``verify._error_sq`` at the physical nodes ``pts`` of ``rule``."""
    area = mesh.elem_area[elems]
    u, p_exact = exact.u_and_p(pts[..., 0], pts[..., 1])
    diff = u - flux.u(elems, pts)
    weighted = np.einsum("tab,tqb->tqa", fields.Sinvhalf[elems], diff)
    stress_sq = einsum_integrate(rule, (weighted**2).sum(axis=-1), area)
    disp_sq = einsum_integrate(rule, (p_exact - pressure[elems, None]) ** 2,
                               area)
    return stress_sq + fields.r[elems] * disp_sq
