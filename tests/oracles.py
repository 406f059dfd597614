"""Independent reference values shared by the test modules.

Nothing here calls ``verify.energy_error`` or the estimator module: the
energy error comes from a boundary identity and the xi indicator from a
direct evaluation of its documented formula with its own quadrature and
its own coefficient bounds.  The loop references at the end compute the
topology, the patch maxima, the singular vertices and the upwind weights
entity by entity, as checks on the array code of the package.
"""

import math

import numpy as np

from rtadapt import quadrature as quad
from rtadapt.assembly import _edge_fluxes, _left_values, upwind_weight
from rtadapt.mesh import DIRICHLET
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
