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
element (:class:`HybridSystem`).  The centered scheme eliminates the
pressure too, with one batched 4x4 inversion, which leaves a system on
the interior edges with Crouzeix-Raviart sparsity.  The upwind scheme
couples neighbouring pressures through its face values, so it eliminates
the fluxes only, with one batched 3x3 inversion, and keeps the element
pressures next to the multipliers; the face-value coupling stays in the
pressure-pressure block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import quadrature as quad
from .mesh import DIRICHLET, INTERIOR, NEUMANN, Triangulation
from .problem import CoefficientFields, ProblemData


class AssemblyError(Exception):
    pass


class SolverError(Exception):
    pass


class SingularSystemError(SolverError):
    pass


CENTERED = "centered"
UPWIND = "upwind"

# a local block counts as singular when its pressure Schur complement is
# below this fraction of the terms it is computed from
SINGULAR_TOL = 1e-12


@dataclass
class MixedSolution:
    """Edge flux coefficients and elementwise pressure constants."""

    flux: np.ndarray
    pressure: np.ndarray
    scheme: str
    nu: np.ndarray | None = None


@dataclass
class HybridSystem:
    """A scheme condensed onto the multipliers of the interior edges.

    On element t the fluxes u and the pressure p solve
    ``blocks[t] @ (u, p) = load[t] - (B lambda, 0)``, lambda the pressure
    trace: the multiplier on interior edges, zero elsewhere (the Dirichlet
    edge means are part of ``load``).  Upwind element rows add
    ``coupling`` times the pressures of the ``neighbours``.

    ``inverse`` inverts the blocks (centered: the unknowns of ``matrix``
    are the multipliers) or their flux parts (upwind: the multipliers,
    then the element pressures), with each Neumann row made an identity
    row for the fixed flux.  ``matrix`` enforces flux continuity, sum of
    B_i u_i over both sides, per interior edge, followed by the upwind
    element rows.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray
    edge_dof: np.ndarray          # (NE,) multiplier per interior edge, else -1
    edge_flag: np.ndarray         # (NE,)
    elem_edges: np.ndarray        # (NT, 3)
    blocks: np.ndarray            # (NT, 4, 4) element blocks [[M, -B], [c, d]]
    load: np.ndarray              # (NT, 4) their right-hand sides
    inverse: np.ndarray           # (NT, 4, 4) centered, (NT, 3, 3) upwind
    fixed_flux: np.ndarray        # (NE,) Neumann coefficients, zero elsewhere
    # upwind scheme only: per-edge weights, and per element and local edge
    # the element across and the coefficient of its pressure
    nu: np.ndarray | None = None
    neighbours: np.ndarray | None = None
    coupling: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def recover(self, x: np.ndarray, num_edges: int):
        """Fluxes and pressures element by element from the solution x,
        with the residual and the right-hand side of the mixed equations
        (free edge rows, then element rows), evaluated without the mixed
        matrix."""
        E = self.elem_edges
        trace = np.zeros(num_edges)
        interior = self.edge_dof >= 0
        trace[interior] = x[self.edge_dof[interior]]
        neumann = self.edge_flag == NEUMANN
        if self.coupling is None:
            local = _apply(self.inverse, _local_rhs(
                self.load, self.blocks, self.fixed_flux[E], trace[E]))
            pressure = local[:, 3].copy()
        else:
            # B (lambda - p) on the free edges of each element
            pressure = x[np.count_nonzero(interior):].copy()
            jump = np.where(neumann[E], 0.0, trace[E] - pressure[:, None])
            local = _apply(self.inverse, _local_rhs(
                self.load, self.blocks, self.fixed_flux[E], jump)[:, :3])
        # the two sides of an interior edge agree up to round-off
        flux = np.bincount(E.ravel(), local[:, :3].ravel(), num_edges) \
            / np.bincount(E.ravel(), minlength=num_edges)
        flux[neumann] = self.fixed_flux[neumann]

        def rows(per_element):
            edge_rows = np.bincount(E.ravel(), per_element[:, :3].ravel(),
                                    num_edges)
            return np.concatenate([edge_rows[~neumann], per_element[:, 3]])

        values = np.column_stack([flux[E], pressure])
        residual = _apply(self.blocks, values) - self.load
        if self.coupling is not None:
            residual[:, 3] += (self.coupling
                               * pressure[self.neighbours]).sum(axis=1)
        fixed = np.column_stack([self.fixed_flux[E], np.zeros_like(pressure)])
        scheme = CENTERED if self.coupling is None else UPWIND
        return (MixedSolution(flux, pressure, scheme, self.nu),
                rows(residual), rows(self.load - _apply(self.blocks, fixed)))


class Discretization:
    """The problem on one mesh: the per-mesh quantities that the assembly,
    the estimators and the energy error of an iteration share, each
    computed once.

    fields : coefficient fields on the elements (``problem.fields``)
    seven_points : (NT, 7, 2) physical nodes of ``quad.SEVEN_POINT``
    source : (NT, 7) the source f there
    edge_fluxes : (NT, 3) convective fluxes w_{K,sigma}
    pd_mean : (NE,) Dirichlet datum means, zero off Dirichlet edges
    """

    def __init__(self, mesh: Triangulation, problem: ProblemData):
        self.mesh = mesh
        self.problem = problem
        self.fields = problem.fields(mesh)
        self.seven_points = pts = \
            quad.SEVEN_POINT.physical_points(mesh.elem_coords)
        self.source = np.broadcast_to(problem.f(pts[..., 0], pts[..., 1]),
                                      pts.shape[:-1])
        self.edge_fluxes = _edge_fluxes(mesh, self.fields)
        self.pd_mean = dirichlet_edge_means(mesh, problem)


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
    """Batched products (NT, m, n) by (NT, n), summed column by column."""
    out = blocks[..., 0] * vectors[:, None, 0]
    for j in range(1, blocks.shape[-1]):
        out += blocks[..., j] * vectors[:, None, j]
    return out


def _local_rhs(load, blocks, fixed, trace):
    """Right-hand sides of the eliminated local systems: ``load`` minus
    (B trace, 0), with the fixed flux in the Neumann rows.  ``load`` and
    ``trace`` vanish on Neumann edges and ``fixed`` vanishes off them."""
    rhs = load.copy()
    rhs[:, :3] += fixed + blocks[:, :3, 3] * trace
    return rhs


def _eliminate_neumann(mesh: Triangulation, blocks: np.ndarray) -> np.ndarray:
    """A copy of the (NT, n, n) element blocks, n >= 3, with each Neumann
    edge row made an identity row for the fixed flux."""
    eliminated = blocks.copy()
    t, i = np.nonzero(mesh.edge_flag[mesh.elem_edges] == NEUMANN)
    eliminated[t, i] = 0.0
    eliminated[t, i, i] = 1.0
    return eliminated


def _singular_at(bad: np.ndarray) -> None:
    """Raise SingularSystemError naming the first element set in ``bad``."""
    if bad.any():
        raise SingularSystemError("singular or non-finite local block of "
                                  f"element {int(np.argmax(bad))}")


def _inverse3(blocks: np.ndarray) -> np.ndarray:
    """Cofactor inverses of the (NT, 3, 3) blocks, stored entry by entry.
    Raises SingularSystemError at a zero or non-finite determinant."""
    (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(blocks, 0, -1)
    adjugate = np.array([[e * i - f * h, c * h - b * i, b * f - c * e],
                         [f * g - d * i, a * i - c * g, c * d - a * f],
                         [d * h - e * g, b * g - a * h, a * e - b * d]])
    det = a * adjugate[0, 0] + b * adjugate[1, 0] + c * adjugate[2, 0]
    _singular_at(~np.isfinite(det) | (det == 0.0))
    return np.moveaxis(adjugate / det, -1, 0)


def _invert_blocks(blocks: np.ndarray) -> np.ndarray:
    """Batched inverse of the blocks [[M, b], [c, d]] through the Schur
    complement s = d - c M^-1 b of the pressure entry.

    M is nonsingular on every element of positive area, so a block is
    singular exactly when s vanishes.  Raises SingularSystemError naming
    the first element whose block is not finite or whose s vanishes to
    working precision against its terms d and c M^-1 b.
    """
    _singular_at(~np.isfinite(blocks).all(axis=(1, 2)))
    b, c, d = blocks[:, :3, 3], blocks[:, 3, :3], blocks[:, 3, 3]
    Minv = _inverse3(blocks[:, :3, :3])
    Minv_b = _apply(Minv, b)
    c_Minv = _apply(np.swapaxes(Minv, 1, 2), c)
    c_Minv_b = (c * Minv_b).sum(axis=1)
    s = d - c_Minv_b
    _singular_at(~(np.abs(s) > SINGULAR_TOL * (np.abs(d) + np.abs(c_Minv_b))))
    inverse = np.empty_like(blocks)
    inverse[:, :3, :3] = Minv + Minv_b[:, :, None] * c_Minv[:, None, :] \
        / s[:, None, None]
    inverse[:, :3, 3] = -Minv_b / s[:, None]
    inverse[:, 3, :3] = -c_Minv / s[:, None]
    inverse[:, 3, 3] = 1.0 / s
    return inverse


def basis_factors(mesh: Triangulation) -> np.ndarray:
    """Per-(element, local edge) scalars s_i |sigma_i| / (2 |K|)."""
    lengths = mesh.edge_length[mesh.elem_edges]
    return mesh.elem_signs * lengths / (2.0 * mesh.elem_area[:, None])


def reconstruct(mesh: Triangulation, solution: MixedSolution
                ) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise affine form of the flux field: u_h|_K = a_K + b_K x.

    Returns (a, b) with shapes (NT, 2) and (NT,).
    """
    C = basis_factors(mesh)
    dofs = solution.flux[mesh.elem_edges] * C
    b = dofs.sum(axis=1)
    X = mesh.elem_coords
    a = -(dofs[:, 0, None] * X[:, 0] + dofs[:, 1, None] * X[:, 1]
          + dofs[:, 2, None] * X[:, 2])
    return a, b


def _local_blocks(disc: Discretization, couplings: bool = True):
    """Local matrices of the mixed bilinear forms, for every element, in
    closed form.

    With phi_i = C_i (x - P_i) = C_i (y + e_i), y = x - m_K and e_i =
    m_K - P_i, the first moment of y over K vanishes and its second
    moment is |K|/12 sum_k e_k e_k^T, so with A = S^-1

        int_K (A phi_i) . phi_j = C_i C_j |K| (A e_i . e_j
                                               + 1/12 sum_k A e_k . e_k),
        int_K (A phi_i) . w = C_i |K| A e_i . w.

    M : (NT, 3, 3) weighted velocity mass matrices, int_K (S^-1 phi_i) . phi_j
    B : (NT, 3) divergence integrals, signed edge lengths
    conv : (NT, 3) convection couplings, int_K (S^-1 phi_i) . w, or None
        without ``couplings`` (the upwind scheme drops conv and react)
    react : (NT,) r |K|
    """
    mesh, fields = disc.mesh, disc.fields
    if np.any(mesh.elem_area <= 0.0):
        raise AssemblyError("degenerate element with nonpositive area")
    C = basis_factors(mesh)
    X = mesh.elem_coords
    e = ((X[:, 0] + X[:, 1] + X[:, 2]) / 3.0)[:, None] - X  # (NT, 3, 2)
    e0, e1 = e[..., 0], e[..., 1]
    Ae0, Ae1 = mat_vec(fields.Sinv[:, None], e)
    G = Ae0[:, :, None] * e0[:, None, :] + Ae1[:, :, None] * e1[:, None, :]
    G += ((Ae0 * e0 + Ae1 * e1).sum(axis=1) / 12.0)[:, None, None]
    M = G * mesh.elem_area[:, None, None] * C[:, :, None] * C[:, None, :]
    B = mesh.elem_signs * mesh.edge_length[mesh.elem_edges]
    conv = None
    if couplings:
        w = fields.w[:, None]
        conv = (Ae0 * w[..., 0] + Ae1 * w[..., 1]) \
            * mesh.elem_area[:, None] * C
    react = fields.r * mesh.elem_area
    return M, B, conv, react


def _edge_fluxes(mesh: Triangulation, fields: CoefficientFields) -> np.ndarray:
    """w_{K,sigma} per (element, local edge), shape (NT, 3)."""
    E = mesh.elem_edges
    wn = dot(fields.w[:, None], mesh.edge_normal[E])
    return mesh.elem_signs * wn * mesh.edge_length[E]


def upwind_weights(disc: Discretization) -> np.ndarray:
    """Per-edge upstream weights, oriented by the first incident element.

    nu = min(c_S |sigma| / (h_sigma |w_sigma|), 1/2) with c_S the harmonic
    average of the smallest diffusion eigenvalues across the edge (the
    one-sided value on the boundary) and w_sigma the convective edge flux;
    zero for a vanishing flux and on inflow boundary edges.  For a
    two-dimensional edge the measure and the diameter coincide.
    """
    mesh, fields = disc.mesh, disc.fields
    w_flux = _left_values(mesh, disc.edge_fluxes)
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


def upwind_sides(mesh: Triangulation, edge_fluxes: np.ndarray, nu: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The upwind face rule, per (element, local edge), shape (NT, 3) each:
    the element across (-1 on the boundary), and the coefficients c_own of
    the element's own pressure and c_other of the value across (the
    neighbour's pressure or the Dirichlet datum) in the face value.  An
    element with outflow w_{K,sigma} >= 0 is upstream and weighs its own
    pressure by 1 - nu."""
    lr = mesh.edge_elems[mesh.elem_edges]
    other = np.where(lr[..., 0] == np.arange(mesh.num_elements)[:, None],
                     lr[..., 1], lr[..., 0])
    nu = nu[mesh.elem_edges]
    upstream = edge_fluxes >= 0.0
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
    by the three-point Gauss rule."""
    means = np.zeros(mesh.num_edges)
    edges = np.flatnonzero(mesh.edge_flag == flag)
    if edges.size:
        rule = quad.EDGE_GAUSS3
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

    The prescribed outward flux density g is converted to the global-normal
    coefficient through the incident element's orientation sign.
    """
    means = _edge_means(mesh, NEUMANN, problem.neumann_data)
    return _left_values(mesh, mesh.elem_signs) * means


def load_vector(disc: Discretization) -> np.ndarray:
    """Element integrals of the source term, by the seven-point rule."""
    return quad.SEVEN_POINT.integrate(disc.source, disc.mesh.elem_area)


def _coo_to_csc(rows, cols, vals, dim: int) -> sp.csc_matrix:
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsc()
    matrix.sum_duplicates()
    matrix.sort_indices()
    return matrix


def _element_system(disc: Discretization, M, B, c, d, load_p):
    """Element blocks [[M, -B], [c, d]] with their right-hand sides, and
    the fixed Neumann coefficients."""
    mesh = disc.mesh
    E = mesh.elem_edges
    blocks = np.empty((mesh.num_elements, 4, 4))
    blocks[:, :3, :3] = M
    blocks[:, :3, 3] = -B
    blocks[:, 3, :3] = c
    blocks[:, 3, 3] = d
    load = np.empty((mesh.num_elements, 4))
    # natural Dirichlet term; the datum means vanish off Dirichlet edges
    load[:, :3] = -B * disc.pd_mean[E]
    load[:, 3] = load_p
    return blocks, load, neumann_fixed_coefficients(mesh, disc.problem)


def _multipliers(mesh: Triangulation) -> tuple[np.ndarray, int]:
    """Multiplier index per edge (-1 off the interior) and their number."""
    edge_dof = np.full(mesh.num_edges, -1, dtype=np.int64)
    interior = np.flatnonzero(mesh.edge_flag == INTERIOR)
    edge_dof[interior] = np.arange(interior.size)
    return edge_dof, interior.size


def assemble_centered(disc: Discretization) -> HybridSystem:
    """Centered mixed scheme (volumetric convection, full reaction block),
    hybridized onto the interior edges."""
    mesh = disc.mesh
    M, B, conv, react = _local_blocks(disc)
    blocks, load, fixed = _element_system(disc, M, B, -B + conv, -react,
                                          -load_vector(disc))
    inverse = _invert_blocks(_eliminate_neumann(mesh, blocks))
    E = mesh.elem_edges

    # (u, p) = inverse @ (local rhs - (B lambda, 0)) turns continuity
    # into schur @ lambda = sum of B_i (inverse @ local rhs)_i
    schur = B[:, :, None] * inverse[:, :3, :3] * B[:, None, :]
    local = B * _apply(inverse[:, :3, :], _local_rhs(load, blocks, fixed[E],
                                                     0.0))
    edge_dof, n = _multipliers(mesh)
    dof = edge_dof[E]
    rows = np.broadcast_to(dof[:, :, None], schur.shape)
    cols = np.broadcast_to(dof[:, None, :], schur.shape)
    keep = (rows >= 0) & (cols >= 0)
    matrix = _coo_to_csc(rows[keep], cols[keep], schur[keep], n)
    rhs = np.bincount(dof[dof >= 0], local[dof >= 0], n)
    return HybridSystem(matrix=matrix, rhs=rhs, edge_dof=edge_dof,
                        edge_flag=mesh.edge_flag, elem_edges=E, blocks=blocks,
                        load=load, inverse=inverse, fixed_flux=fixed)


def assemble_upwind(disc: Discretization) -> HybridSystem:
    """Upwind-weighted mixed scheme with face-value convection, hybridized
    onto the interior edges and the element pressures."""
    mesh = disc.mesh
    M, B, _, _ = _local_blocks(disc, couplings=False)
    E = mesh.elem_edges
    nt = mesh.num_elements
    nu = upwind_weights(disc)
    wflux = disc.edge_fluxes
    flag = mesh.edge_flag[E]
    own_elem = np.arange(nt)[:, None]
    other, c_own, c_other = upwind_sides(mesh, wflux, nu)
    interior = (wflux != 0.0) & (flag == INTERIOR)
    dirich = (wflux != 0.0) & (flag == DIRICHLET)
    # face values: the upwind mix with the neighbour or the Dirichlet datum;
    # Neumann edges carry no pressure datum and take the interior value
    own = -wflux * np.where(flag == NEUMANN, 1.0, c_own)
    coupling = np.where(interior, -wflux * c_other, 0.0)
    datum = np.where(dirich, wflux * c_other, 0.0) * disc.pd_mean[E]
    d = -disc.fields.r * mesh.elem_area + own.sum(axis=1)
    blocks, load, fixed = _element_system(
        disc, M, B, -B, d, datum.sum(axis=1) - load_vector(disc))

    # u = inverse @ (local rhs - B lambda + B p) on each element: v and q
    # are the responses to p and to the local rhs, -H the response to lambda
    inverse = _inverse3(_eliminate_neumann(mesh, blocks[:, :3, :3]))
    b = np.where(flag == NEUMANN, 0.0, B)
    c = blocks[:, 3, :3]
    v = _apply(inverse, b)
    q = _apply(inverse, _local_rhs(load, blocks, fixed[E], 0.0)[:, :3])
    H = inverse * b[:, None, :]
    cH = _apply(np.swapaxes(H, 1, 2), c)

    edge_dof, n = _multipliers(mesh)
    dof = edge_dof[E]
    prow = np.broadcast_to(n + own_elem, (nt, 3))
    rows_ll = np.broadcast_to(dof[:, :, None], H.shape)
    cols_ll = np.broadcast_to(dof[:, None, :], H.shape)
    ll = (rows_ll >= 0) & (cols_ll >= 0)
    lp = dof >= 0
    rows = [rows_ll[ll], dof[lp], prow[lp], prow[:, 0], prow[interior]]
    cols = [cols_ll[ll], prow[lp], dof[lp], prow[:, 0], n + other[interior]]
    vals = [(-B[:, :, None] * H)[ll], (B * v)[lp], -cH[lp],
            (c * v).sum(axis=1) + d, coupling[interior]]
    matrix = _coo_to_csc(np.concatenate(rows), np.concatenate(cols),
                         np.concatenate(vals), n + nt)
    rhs = np.concatenate([np.bincount(dof[lp], (-B * q)[lp], n),
                          load[:, 3] - (c * q).sum(axis=1)])
    return HybridSystem(matrix=matrix, rhs=rhs, edge_dof=edge_dof,
                        edge_flag=mesh.edge_flag, elem_edges=E, blocks=blocks,
                        load=load, inverse=inverse, fixed_flux=fixed, nu=nu,
                        neighbours=np.where(interior, other, own_elem),
                        coupling=coupling)
