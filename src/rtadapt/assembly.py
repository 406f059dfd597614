"""RT0/P0 assembly of the centered and upwind-weighted mixed schemes.

Degrees of freedom: one coefficient per edge equal to the (constant)
normal component of the flux with respect to the fixed global edge
normal, plus one pressure constant per element.  With this normalization
the local basis function attached to edge i of element K is

    phi_i(x) = s_i |sigma_i| / (2|K|) (x - P_i),

P_i the opposite vertex, with elementwise-constant divergence
s_i |sigma_i| / |K|, so the divergence integrals are exactly the signed
edge lengths B_i = s_i |sigma_i|.

Each element contributes the 4x4 block [[M, -B], [c, d]] (element rows
stored with flipped sign, which makes it symmetric in the pure-diffusion
limit): c = -B + conv and d = -react for the centered scheme, c = -B and
d = -r|K| plus the element's own upwind face-value terms for the upwind
scheme.  Dirichlet data enters edge rows through its natural boundary
term (edge means), Neumann fluxes are fixed.

Both schemes are solved in hybridized form (Arnold & Brezzi, M2AN 1985):
RT0 continuity is broken and enforced by one multiplier per interior
edge, the pressure trace, and the fluxes are eliminated element by
element with one batched 3x3 inversion (:class:`HybridSystem`).  The
centered pressure row couples no neighbours, so the centered scheme
condenses the pressure too, by one scalar Schur step per element, which
leaves a system on the interior edges with Crouzeix-Raviart sparsity.
The upwind scheme couples neighbouring pressures through its face
values, so it keeps the element pressures next to the multipliers; the
face-value coupling stays in the pressure-pressure block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import quadrature as quad
from .mesh import DIRICHLET, INTERIOR, NEUMANN, Triangulation
from .problem import CoefficientFields, ProblemData


class SolverError(Exception):
    pass


class SingularSystemError(SolverError):
    pass


CENTERED = "centered"
UPWIND = "upwind"
SCHEMES = (CENTERED, UPWIND)

# a local block counts as singular when its pressure Schur complement is
# below this fraction of the terms it is computed from
SINGULAR_TOL = 1e-12


@dataclass
class MixedSolution:
    """Edge flux coefficients and elementwise pressure constants.  The
    upwind face rule is a per-mesh quantity, ``Discretization.face_rule``."""

    flux: np.ndarray
    pressure: np.ndarray
    scheme: str


@dataclass
class HybridSystem:
    """A scheme condensed onto the multipliers of the interior edges.

    The element arrays are entry-major: ``blocks[i, j]`` is one (NT,) row.
    On element t the fluxes u and the pressure p solve ``blocks[..., t] @
    (u, p) = load[:, t] - (B lambda, 0)``, lambda the pressure trace: the
    multiplier on interior edges, zero elsewhere (the Dirichlet edge means
    are part of ``load``).  Upwind element rows add ``coupling``, zero off
    the interior edges, times the pressures across, by the face rule of
    ``disc``, the Discretization the system was assembled from.

    Each Neumann row of M is an identity row, for the fixed flux.  The
    centered scheme condenses its pressure to p = offset + sum of gain_i
    lambda_i over the element's edges, and the unknowns of ``matrix`` are
    the multipliers; the upwind unknowns are the multipliers, then the
    element pressures.
    ``matrix`` enforces flux continuity, sum of B_i u_i over both sides,
    per interior edge, followed by the upwind element rows.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray
    edge_dof: np.ndarray          # (NE,) multiplier per interior edge, else -1
    disc: Discretization
    blocks: np.ndarray            # (4, 4, NT) element blocks [[M, -B], [c, d]]
    load: np.ndarray              # (4, NT) their right-hand sides
    fixed_flux: np.ndarray        # (NE,) Neumann coefficients, zero elsewhere
    # centered scheme only: the condensed pressure, (NT,) and (3, NT)
    offset: np.ndarray | None = None
    gain: np.ndarray | None = None
    # upwind scheme only: the (3, NT) coefficients of the pressures across
    coupling: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def recover(self, x: np.ndarray):
        """Fluxes and pressures element by element from the solution x,
        with the residual and the right-hand side of the mixed equations
        (free edge rows, then element rows), evaluated without the mixed
        matrix."""
        mesh = self.disc.mesh
        num_edges, E = mesh.num_edges, mesh.elem_edges.T
        flat = E.ravel()
        trace = np.zeros(num_edges)
        interior = self.edge_dof >= 0
        trace[interior] = x[self.edge_dof[interior]]
        neumann = mesh.edge_flag == NEUMANN
        lam = trace[E]
        if self.gain is None:
            pressure = x[np.count_nonzero(interior):].copy()
        else:
            pressure = self.offset + (self.gain * lam).sum(axis=0)
        # B (lambda - p) on the free edges of each element; the load and
        # the jump vanish in the Neumann rows, which hold the fixed flux
        jump = np.where(neumann[E], 0.0, lam - pressure)
        # the flux inverses again, which the factorization ran without
        local = _apply(_inverse3(self.blocks[:3, :3]), self.load[:3] + (
            self.fixed_flux[E] + self.blocks[:3, 3] * jump))
        # the two sides of an interior edge agree up to round-off
        flux = np.bincount(flat, local.ravel(), num_edges) \
            / np.bincount(flat, minlength=num_edges)
        flux[neumann] = self.fixed_flux[neumann]

        def rows(per_element):
            edge_rows = np.bincount(flat, per_element[:3].ravel(), num_edges)
            return np.concatenate([edge_rows[~neumann], per_element[3]])

        values = np.concatenate([flux[E], pressure[None]])
        residual = _apply(self.blocks, values) - self.load
        if self.coupling is not None:
            other = self.disc.face_rule[1]
            residual[3] += (self.coupling * pressure[other]).sum(axis=0)
        fixed = np.concatenate([self.fixed_flux[E], np.zeros((1, E.shape[1]))])
        scheme = CENTERED if self.coupling is None else UPWIND
        return (MixedSolution(flux, pressure, scheme), rows(residual),
                rows(self.load - _apply(self.blocks, fixed)))


class Discretization:
    """The problem on one mesh: the per-mesh quantities that the assembly,
    the estimators and the energy error of an iteration share, each
    computed once.

    fields : coefficient fields on the elements (``problem.fields``)
    source : (NT, 7) the source f at the nodes of ``quad.SEVEN_POINT``,
        a read-only zero broadcast for a problem without a source
    pd_mean : (NE,) Dirichlet datum means, zero off Dirichlet edges
    face_rule : the upwind face rule, built on first use (upwind only)
    """

    def __init__(self, mesh: Triangulation, problem: ProblemData):
        self.mesh = mesh
        self.problem = problem
        self.fields = problem.fields(mesh)
        self.source = np.broadcast_to(0.0, (mesh.num_elements, 7))
        if problem.has_source:
            pts = quad.SEVEN_POINT.physical_points(mesh.elem_coords)
            self.source = np.broadcast_to(problem.f(pts[..., 0], pts[..., 1]),
                                          pts.shape[:-1])
        self.pd_mean = dirichlet_edge_means(mesh, problem)

    @cached_property
    def face_rule(self) -> tuple[np.ndarray, ...]:
        """(wflux, other, c_own, c_other), (3, NT) each: the convective
        fluxes w_{K,sigma} and the face rule of ``upwind_sides``."""
        fluxes = _edge_fluxes(self.mesh, self.fields)
        return (fluxes.T, *upwind_sides(self.mesh, fluxes.T,
                                        upwind_weights(self, fluxes)))


def dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products of broadcast 2-vectors (..., 2), component by component."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]


def mat_vec(mat: np.ndarray, vec: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """The two components of the 2x2 tensors (..., 2, 2) applied to the
    broadcast vectors (..., 2)."""
    return (mat[..., 0, 0] * vec[..., 0] + mat[..., 0, 1] * vec[..., 1],
            mat[..., 1, 0] * vec[..., 0] + mat[..., 1, 1] * vec[..., 1])


def _apply(blocks: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Batched products of the entry-major blocks (m, n, NT) and vectors
    (n, NT), (m, NT) out, summed column by column."""
    out = blocks[:, 0] * vectors[0]
    for j in range(1, blocks.shape[1]):
        out += blocks[:, j] * vectors[j]
    return out


def _singular_at(bad: np.ndarray) -> None:
    """Raise SingularSystemError naming the first element set in ``bad``."""
    if bad.any():
        raise SingularSystemError("singular or non-finite local block of "
                                  f"element {int(np.argmax(bad))}")


def _inverse3(blocks: np.ndarray) -> np.ndarray:
    """Cofactor inverses of the entry-major (3, 3, NT) blocks.  Raises
    SingularSystemError at a zero or non-finite determinant."""
    (a, b, c), (d, e, f), (g, h, i) = blocks
    adjugate = np.array([[e * i - f * h, c * h - b * i, b * f - c * e],
                         [f * g - d * i, a * i - c * g, c * d - a * f],
                         [d * h - e * g, b * g - a * h, a * e - b * d]])
    det = a * adjugate[0, 0] + b * adjugate[1, 0] + c * adjugate[2, 0]
    _singular_at(~np.isfinite(det) | (det == 0.0))
    return adjugate / det


def _eliminate_fluxes(blocks: np.ndarray, neumann: np.ndarray, rhs):
    """Solve the flux rows of the element blocks [[M, -B], [c, d]], whose
    rows set in the (3, NT) mask ``neumann`` are identity rows of M, with
    right-hand sides ``rhs``, for u = q + v p - H lambda.  Returns v, q,
    H and cH = H^T c.  Raises SingularSystemError naming the first
    element whose block is not finite or whose M is singular."""
    _singular_at(~np.isfinite(blocks).all(axis=(0, 1)))
    inverse = _inverse3(blocks[:3, :3])
    b = np.where(neumann, 0.0, -blocks[:3, 3])
    v = _apply(inverse, b)
    q = _apply(inverse, rhs)
    H = inverse * b
    cH = _apply(H.swapaxes(0, 1), blocks[3, :3])
    return v, q, H, cH


def _condense_pressure(blocks: np.ndarray, load: np.ndarray, v, q, cH):
    """Solve the uncoupled pressure rows c . u + d p = load_p, with u from
    ``_eliminate_fluxes``, for p = offset + gain . lambda.  M is
    nonsingular on every element of positive area, so a block is singular
    exactly when s = c . v + d vanishes; raises SingularSystemError naming
    the first element where it does to working precision against d and
    c . v."""
    c, d = blocks[3, :3], blocks[3, 3]
    c_v = (c * v).sum(axis=0)
    s = c_v + d
    _singular_at(~(np.abs(s) > SINGULAR_TOL * (np.abs(d) + np.abs(c_v))))
    return (load[3] - (c * q).sum(axis=0)) / s, cH / s


def basis_factors(mesh: Triangulation) -> np.ndarray:
    """Per-(local edge, element) scalars s_i |sigma_i| / (2 |K|), (3, NT)."""
    lengths = mesh.edge_length[mesh.elem_edges.T]
    return mesh.elem_signs.T * lengths / (2.0 * mesh.elem_area)


def reconstruct(mesh: Triangulation, solution: MixedSolution
                ) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise affine form of the flux field: u_h|_K = a_K + b_K x.

    Returns (a, b) with shapes (NT, 2) and (NT,).
    """
    dofs = solution.flux[mesh.elem_edges.T] * basis_factors(mesh)
    X = mesh.elem_coords.T                                  # (2, 3, NT)
    a = np.empty((mesh.num_elements, 2))
    for k in range(2):
        a[:, k] = -(dofs[0] * X[k, 0] + dofs[1] * X[k, 1] + dofs[2] * X[k, 2])
    return a, dofs.sum(axis=0)


def _local_blocks(disc: Discretization):
    """Local matrices of the mixed bilinear forms, for every element, in
    closed form, entry-major (element axis last).

    With phi_i = C_i (x - P_i) = C_i (y + e_i), y = x - m_K and e_i =
    m_K - P_i, the first moment of y over K vanishes and its second
    moment is |K|/12 sum_k e_k e_k^T, so with A = S^-1

        int_K (A phi_i) . phi_j = C_i C_j |K| (A e_i . e_j
                                               + 1/12 sum_k A e_k . e_k),
        int_K (A phi_i) . w = C_i |K| A e_i . w.

    M : (3, 3, NT) weighted mass matrices, int_K (S^-1 phi_i) . phi_j
    B : (3, NT) divergence integrals, signed edge lengths
    conv : (3, NT) convection couplings, int_K (S^-1 phi_i) . w
    react : (NT,) r |K|
    """
    mesh, fields = disc.mesh, disc.fields
    area = mesh.elem_area
    C = basis_factors(mesh)
    X = np.ascontiguousarray(mesh.elem_coords.T)         # (2, 3, NT)
    e0, e1 = ((X[:, 0] + X[:, 1] + X[:, 2]) / 3.0)[:, None] - X
    (S00, S01), (S10, S11) = fields.Sinv.transpose(1, 2, 0)
    Ae0 = S00 * e0 + S01 * e1
    Ae1 = S10 * e0 + S11 * e1
    M = Ae0[:, None] * e0
    M += Ae1[:, None] * e1
    M += (Ae0 * e0 + Ae1 * e1).sum(axis=0) / 12.0
    M *= area
    M *= C[:, None]
    M *= C
    B = mesh.elem_signs.T * mesh.edge_length[mesh.elem_edges.T]
    w0, w1 = fields.w.T
    conv = (Ae0 * w0 + Ae1 * w1) * area * C
    react = fields.r * area
    return M, B, conv, react


def _edge_fluxes(mesh: Triangulation, fields: CoefficientFields) -> np.ndarray:
    """w_{K,sigma} per (element, local edge), shape (NT, 3)."""
    E = mesh.elem_edges
    wn = dot(fields.w[:, None], mesh.edge_normal[E])
    return mesh.elem_signs * wn * mesh.edge_length[E]


def upwind_weights(disc: Discretization, wflux: np.ndarray) -> np.ndarray:
    """Per-edge upstream weights, oriented by the first incident element.

    nu = min(c_S |sigma| / (h_sigma |w_sigma|), 1/2) with c_S the harmonic
    average of the smallest diffusion eigenvalues across the edge (the
    one-sided value on the boundary) and w_sigma the convective edge flux
    of ``wflux`` (NT, 3), from ``_edge_fluxes``; zero for a vanishing flux
    and on inflow boundary edges.  For a two-dimensional edge the measure
    and the diameter coincide.
    """
    mesh, fields = disc.mesh, disc.fields
    w_flux = _left_values(mesh, wflux)
    left, right = mesh.edge_elems[:, 0], mesh.edge_elems[:, 1]
    boundary = right < 0
    c_s_left = fields.c_S[left]
    c_s_right = fields.c_S[np.where(boundary, left, right)]
    c_s = np.where(boundary, c_s_left,
                   2.0 * c_s_left * c_s_right / (c_s_left + c_s_right))
    # measure over diameter, in the order of tests/oracles.py::upwind_weight
    length = mesh.edge_length
    with np.errstate(divide="ignore"):
        nu = np.minimum(c_s * length / (length * np.abs(w_flux)), 0.5)
    return np.where((w_flux == 0.0) | (boundary & (w_flux < 0.0)), 0.0, nu)


def upwind_sides(mesh: Triangulation, wflux: np.ndarray, nu: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The upwind face rule, per (local edge, element), shape (3, NT) each,
    from the convective fluxes ``wflux`` w_{K,sigma} in that layout: the
    element across (-1 on the boundary), and the coefficients c_own of
    the element's own pressure and c_other of the value across (the
    neighbour's pressure or the Dirichlet datum) in the face value.  An
    element with outflow w_{K,sigma} >= 0 is upstream and weighs its own
    pressure by 1 - nu."""
    left, right = (mesh.edge_elems[:, k][mesh.elem_edges.T] for k in (0, 1))
    other = np.where(left == np.arange(mesh.num_elements), right, left)
    nu = nu[mesh.elem_edges.T]
    upstream = wflux >= 0.0
    return (other, np.where(upstream, 1.0 - nu, nu),
            np.where(upstream, nu, 1.0 - nu))


def _left_values(mesh: Triangulation, per_elem_edge: np.ndarray) -> np.ndarray:
    """Gather a per-(element, local edge) array to per-edge, first-element side."""
    out = np.zeros(mesh.num_edges, dtype=per_elem_edge.dtype)
    left_mask = mesh.edge_elems[mesh.elem_edges, 0] == \
        np.arange(mesh.num_elements)[:, None]
    out[mesh.elem_edges[left_mask]] = per_elem_edge[left_mask]
    return out


def _edge_means(mesh: Triangulation, flag: int, data) -> np.ndarray:
    """Edge means of ``data`` on the edges flagged ``flag``, zero elsewhere,
    by ``quad.DATA_EDGE``, since boundary data need not be polynomial."""
    rule = quad.DATA_EDGE
    means = np.zeros(mesh.num_edges)
    edges = np.flatnonzero(mesh.edge_flag == flag)
    if edges.size:
        pts = rule.physical_points(mesh.vert_coords[mesh.edge_verts[edges]])
        means[edges] = data(pts[..., 0], pts[..., 1]) @ rule.weights
    return means


def dirichlet_edge_means(mesh: Triangulation, problem: ProblemData
                         ) -> np.ndarray:
    """Edge means of the Dirichlet datum (zero on non-Dirichlet edges)."""
    return _edge_means(mesh, DIRICHLET, problem.dirichlet_data)


def neumann_fixed_coefficients(mesh: Triangulation, problem: ProblemData
                               ) -> np.ndarray:
    """Fixed DOF coefficients on Neumann edges (zero on the other edges).

    The edge mean of the prescribed outward flux density g is converted to
    the global-normal coefficient through the incident element's
    orientation sign.
    """
    means = _edge_means(mesh, NEUMANN, problem.neumann_data)
    return _left_values(mesh, mesh.elem_signs) * means


def load_vector(disc: Discretization) -> np.ndarray:
    """Element integrals of the source term, by the seven-point rule."""
    return quad.SEVEN_POINT.integrate(disc.source, disc.mesh.elem_area)


def _element_system(disc: Discretization, M, B, c, d, load_p):
    """Entry-major element blocks [[M, -B], [c, d]], each Neumann row of M
    an identity row, their right-hand sides and the fixed Neumann fluxes."""
    mesh = disc.mesh
    blocks = np.empty((4, 4, mesh.num_elements))
    blocks[:3, :3] = M
    i, t = np.nonzero(mesh.edge_flag[mesh.elem_edges.T] == NEUMANN)
    blocks[i, :3, t] = 0.0
    blocks[i, i, t] = 1.0
    blocks[:3, 3] = -B
    blocks[3, :3] = c
    blocks[3, 3] = d
    # natural Dirichlet term; the datum means vanish off Dirichlet edges
    load = np.concatenate([-B * disc.pd_mean[mesh.elem_edges.T], load_p[None]])
    return blocks, load, neumann_fixed_coefficients(mesh, disc.problem)


def _multipliers(mesh: Triangulation) -> tuple[np.ndarray, int]:
    """Multiplier index per edge (-1 off the interior) and their number;
    int32, as the sparse matrix stores its indices."""
    edge_dof = np.full(mesh.num_edges, -1, dtype=np.int32)
    interior = np.flatnonzero(mesh.edge_flag == INTERIOR)
    edge_dof[interior] = np.arange(interior.size)
    return edge_dof, interior.size


def _multiplier_triplets(dof: np.ndarray, values: np.ndarray):
    """The (row, column, value) triplets of the (3, 3, NT) ``values`` that
    couple two multipliers, ``dof`` (3, NT) -1 off the interior edges."""
    rows = np.broadcast_to(dof[:, None], values.shape)
    cols = np.broadcast_to(dof, values.shape)
    keep = (rows >= 0) & (cols >= 0)
    return rows[keep], cols[keep], values[keep]


def assemble_centered(disc: Discretization) -> HybridSystem:
    """Centered mixed scheme (volumetric convection, full reaction block),
    hybridized onto the interior edges."""
    mesh = disc.mesh
    M, B, conv, react = _local_blocks(disc)
    blocks, load, fixed = _element_system(disc, M, B, -B + conv, -react,
                                          -load_vector(disc))
    E = mesh.elem_edges.T
    # each intermediate is dropped once read, so that none is alive
    # while the sparse matrix is built
    del M, conv, react
    v, q, H, cH = _eliminate_fluxes(blocks, mesh.edge_flag[E] == NEUMANN,
                                    load[:3] + fixed[E])
    offset, gain = _condense_pressure(blocks, load, v, q, cH)
    del cH

    # u = q + v p - H lambda with p = offset + gain . lambda turns
    # continuity into schur @ lambda = sum of B_i (q + v offset)_i, the
    # Schur complement B (H - v gain) built in the place of H
    edge_dof, n = _multipliers(mesh)
    dof = edge_dof[E]
    free = dof >= 0
    rhs = np.bincount(dof[free], (B * (q + v * offset))[free], n)
    H -= v[:, None] * gain
    H *= B[:, None]
    del q, v, B
    rows, cols, vals = _multiplier_triplets(dof, H)
    del H
    matrix = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
    return HybridSystem(matrix=matrix, rhs=rhs, edge_dof=edge_dof, disc=disc,
                        blocks=blocks, load=load, fixed_flux=fixed,
                        offset=offset, gain=gain)


def assemble_upwind(disc: Discretization) -> HybridSystem:
    """Upwind-weighted mixed scheme with face-value convection, hybridized
    onto the interior edges and the element pressures."""
    mesh = disc.mesh
    M, B, _, react = _local_blocks(disc)
    E = mesh.elem_edges.T
    nt = mesh.num_elements
    wflux, other, c_own, c_other = disc.face_rule
    flag = mesh.edge_flag[E]
    interior = (wflux != 0.0) & (flag == INTERIOR)
    dirich = (wflux != 0.0) & (flag == DIRICHLET)
    # face values: the upwind mix with the neighbour or the Dirichlet datum;
    # Neumann edges carry no pressure datum and take the interior value
    own = -wflux * np.where(flag == NEUMANN, 1.0, c_own)
    coupling = np.where(interior, -wflux * c_other, 0.0)
    datum = np.where(dirich, wflux * c_other, 0.0) * disc.pd_mean[E]
    d = -react + own.sum(axis=0)
    blocks, load, fixed = _element_system(
        disc, M, B, -B, d, datum.sum(axis=0) - load_vector(disc))
    # as in assemble_centered, each intermediate is dropped once read
    del M, react, own, datum
    v, q, H, cH = _eliminate_fluxes(blocks, flag == NEUMANN,
                                    load[:3] + fixed[E])
    c = blocks[3, :3]

    edge_dof, n = _multipliers(mesh)
    dof = edge_dof[E]
    lp = dof >= 0
    rhs = np.concatenate([np.bincount(dof[lp], (-B * q)[lp], n),
                          load[3] - (c * q).sum(axis=0)])
    H *= -B[:, None]
    del q
    rows, cols, vals = _multiplier_triplets(dof, H)
    del H
    prow = np.broadcast_to(np.arange(n, n + nt, dtype=np.int32), (3, nt))
    rows = np.concatenate([rows, dof[lp], prow[lp], prow[0], prow[interior]])
    cols = np.concatenate([cols, prow[lp], dof[lp], prow[0],
                           (n + other[interior]).astype(np.int32)])
    vals = np.concatenate([vals, (B * v)[lp], -cH[lp],
                           (c * v).sum(axis=0) + d, coupling[interior]])
    del v, cH
    matrix = sp.csc_matrix((vals, (rows, cols)), shape=(n + nt, n + nt))
    return HybridSystem(matrix=matrix, rhs=rhs, edge_dof=edge_dof, disc=disc,
                        blocks=blocks, load=load, fixed_flux=fixed,
                        coupling=coupling)
