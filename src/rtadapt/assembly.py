"""RT0/P0 assembly of the centered and upwind-weighted mixed schemes.

Degrees of freedom: one coefficient per edge equal to the (constant)
normal component of the flux with respect to the fixed global edge
normal, plus one pressure constant per element.  With this normalization
the local basis function attached to edge i of element K is

    phi_i(x) = s_i |sigma_i| / (2|K|) (x - P_i),

P_i the opposite vertex, with elementwise-constant divergence
s_i |sigma_i| / |K|, so the divergence integrals are exactly the signed
edge lengths B_i = s_i |sigma_i|.

Each element contributes the 4x4 block [[M, -B], [-B + conv, -react]]
(element rows stored with flipped sign, which makes it symmetric in the
pure-diffusion limit).  Dirichlet data enters edge rows through its
natural boundary term (edge means), Neumann fluxes are fixed.

The centered scheme is solved in hybridized form (Arnold & Brezzi, M2AN
1985): RT0 continuity is broken and enforced by one multiplier per
interior edge, the pressure trace.  The fluxes and the pressure are then
eliminated element by element with one batched 4x4 inversion, which
leaves a system on the interior edges with Crouzeix-Raviart sparsity
(:class:`HybridSystem`).  The upwind scheme couples neighbouring
pressures through its face values, so it stays a saddle-point system
(:class:`SaddleSystem`).
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
class SaddleSystem:
    """Sparse saddle-point system with its DOF bookkeeping."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    edge_dof: np.ndarray          # (NE,) row index per free edge, -1 if fixed
    n_free: int                   # number of free edge DOFs
    fixed_flux: np.ndarray        # (NE,) Neumann coefficients, zero elsewhere
    scheme: str
    nu: np.ndarray | None = None  # per-edge upwind weights (upwind scheme)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def recover(self, x: np.ndarray, num_edges: int):
        """Mixed solution from the system's solution vector, with the
        residual and the right-hand side of the mixed equations."""
        flux = self.fixed_flux.copy()
        free = self.edge_dof >= 0
        flux[free] = x[self.edge_dof[free]]
        solution = MixedSolution(flux=flux, pressure=x[self.n_free:],
                                 scheme=self.scheme, nu=self.nu)
        return solution, self.matrix @ x - self.rhs, self.rhs


@dataclass
class HybridSystem:
    """Centered scheme condensed onto the multipliers of the interior edges.

    On element t the fluxes u and the pressure p solve
    ``blocks[t] @ (u, p) = load[t] - (B lambda, 0)``, lambda the pressure
    trace: the multiplier on interior edges, zero elsewhere (the Dirichlet
    edge means are part of ``load``).  ``inverse`` inverts the blocks with
    each Neumann row made an identity row for the fixed flux.  ``matrix``
    enforces flux continuity, sum of B_i u_i over both sides, per interior
    edge.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    edge_dof: np.ndarray          # (NE,) multiplier per interior edge, else -1
    edge_flag: np.ndarray         # (NE,)
    elem_edges: np.ndarray        # (NT, 3)
    blocks: np.ndarray            # (NT, 4, 4) element blocks [[M, -B], [c, d]]
    load: np.ndarray              # (NT, 4) their right-hand sides
    inverse: np.ndarray           # (NT, 4, 4)
    fixed_flux: np.ndarray        # (NE,) Neumann coefficients, zero elsewhere

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def recover(self, x: np.ndarray, num_edges: int):
        """Fluxes and pressures element by element from the multipliers x,
        with the residual and the right-hand side of the mixed equations
        (free edge rows, then element rows), evaluated without the mixed
        matrix."""
        E = self.elem_edges
        trace = np.zeros(num_edges)
        interior = self.edge_dof >= 0
        trace[interior] = x[self.edge_dof[interior]]
        local = _apply(self.inverse, _local_rhs(self.load, self.blocks,
                                                self.fixed_flux[E], trace[E]))
        # the two sides of an interior edge agree up to round-off
        flux = np.bincount(E.ravel(), local[:, :3].ravel(), num_edges) \
            / np.bincount(E.ravel(), minlength=num_edges)
        neumann = self.edge_flag == NEUMANN
        flux[neumann] = self.fixed_flux[neumann]
        pressure = local[:, 3].copy()

        def rows(per_element):
            edge_rows = np.bincount(E.ravel(), per_element[:, :3].ravel(),
                                    num_edges)
            return np.concatenate([edge_rows[~neumann], per_element[:, 3]])

        values = np.column_stack([flux[E], pressure])
        fixed = np.column_stack([self.fixed_flux[E], np.zeros_like(pressure)])
        return (MixedSolution(flux, pressure, CENTERED),
                rows(_apply(self.blocks, values) - self.load),
                rows(self.load - _apply(self.blocks, fixed)))


def _apply(blocks: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Batched matrix-vector products, (NT, m, n) by (NT, n)."""
    return (blocks @ vectors[..., None])[..., 0]


def _local_rhs(load, blocks, fixed, trace):
    """Right-hand sides of the eliminated local systems: ``load`` minus
    (B trace, 0), with the fixed flux in the Neumann rows.  ``load`` and
    ``trace`` vanish on Neumann edges and ``fixed`` vanishes off them."""
    rhs = load.copy()
    rhs[:, :3] += fixed + blocks[:, :3, 3] * trace
    return rhs


def _invert_blocks(blocks: np.ndarray) -> np.ndarray:
    """Batched inverse of the blocks [[M, b], [c, d]] through the Schur
    complement s = d - c M^-1 b of the pressure entry.

    M is nonsingular on every element of positive area, so a block is
    singular exactly when s vanishes.  Raises SingularSystemError naming
    the first element whose block is not finite or whose s vanishes to
    working precision against its terms d and c M^-1 b.
    """
    bad = np.flatnonzero(~np.isfinite(blocks).all(axis=(1, 2)))
    if not bad.size:
        M, b, c, d = (blocks[:, :3, :3], blocks[:, :3, 3], blocks[:, 3, :3],
                      blocks[:, 3, 3])
        Minv = np.linalg.inv(M)
        Minv_b = _apply(Minv, b)
        c_Minv = _apply(np.swapaxes(Minv, 1, 2), c)
        c_Minv_b = (c * Minv_b).sum(axis=1)
        s = d - c_Minv_b
        bad = np.flatnonzero(~(np.abs(s) > SINGULAR_TOL
                               * (np.abs(d) + np.abs(c_Minv_b))))
    if bad.size:
        raise SingularSystemError(
            f"singular or non-finite local block of element {int(bad[0])}")
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
    a = -np.einsum("ti,tid->td", dofs, mesh.elem_coords())
    return a, b


def _local_blocks(mesh: Triangulation, fields: CoefficientFields,
                  rule: quad.TriangleRule = quad.MIDPOINT):
    """Local matrices of the mixed bilinear forms, for every element.

    M : (NT, 3, 3) weighted velocity mass matrices, int_K (S^-1 phi_i) . phi_j
    B : (NT, 3) divergence integrals, signed edge lengths
    conv : (NT, 3) convection couplings, int_K (S^-1 phi_i) . w
    react : (NT,) (r + div w) |K|
    """
    if np.any(mesh.elem_area <= 0.0):
        raise AssemblyError("degenerate element with nonpositive area")
    coords = mesh.elem_coords()
    pts = rule.physical_points(coords)                      # (NT, nq, 2)
    C = basis_factors(mesh)                                 # (NT, 3)
    D = pts[:, :, None, :] - coords[:, None, :, :]          # (NT, nq, 3, 2)
    AD = np.einsum("tab,tqib->tqia", fields.Sinv, D)
    M0 = np.einsum("tqia,tqja,q->tij", AD, D, rule.weights)
    M = M0 * mesh.elem_area[:, None, None] * C[:, :, None] * C[:, None, :]
    B = mesh.elem_signs * mesh.edge_length[mesh.elem_edges]
    conv0 = np.einsum("tqia,ta,q->ti", AD, fields.w, rule.weights)
    conv = conv0 * mesh.elem_area[:, None] * C
    react = (fields.r + fields.divw) * mesh.elem_area
    return M, B, conv, react


def _edge_fluxes(mesh: Triangulation, fields: CoefficientFields) -> np.ndarray:
    """w_{K,sigma} per (element, local edge), shape (NT, 3)."""
    E = mesh.elem_edges
    wn = np.einsum("td,ted->te", fields.w,
                   mesh.edge_normal[E])
    return mesh.elem_signs * wn * mesh.edge_length[E]


def upwind_weight(c_s_left: float, c_s_right: float | None,
                  edge_length: float, w_flux: float,
                  boundary: bool) -> float:
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


def upwind_weights(mesh: Triangulation, fields: CoefficientFields
                   ) -> np.ndarray:
    """Per-edge upstream weights, oriented by the first incident element."""
    w_flux = _left_values(mesh, _edge_fluxes(mesh, fields))
    left, right = mesh.edge_elems[:, 0], mesh.edge_elems[:, 1]
    boundary = right < 0
    c_s_left = fields.c_S[left]
    c_s_right = fields.c_S[np.where(boundary, left, right)]
    c_s = np.where(boundary, c_s_left,
                   2.0 * c_s_left * c_s_right / (c_s_left + c_s_right))
    # measure over diameter, in the operation order of upwind_weight
    length = mesh.edge_length
    with np.errstate(divide="ignore"):
        nu = np.minimum(c_s * length / (length * np.abs(w_flux)), 0.5)
    return np.where((w_flux == 0.0) | (boundary & (w_flux < 0.0)), 0.0, nu)


def _left_values(mesh: Triangulation, per_elem_edge: np.ndarray) -> np.ndarray:
    """Gather a per-(element, local edge) array to per-edge, first-element side."""
    out = np.zeros(mesh.num_edges, dtype=per_elem_edge.dtype)
    left_mask = mesh.edge_elems[mesh.elem_edges, 0] == \
        np.arange(mesh.num_elements)[:, None]
    out[mesh.elem_edges[left_mask]] = per_elem_edge[left_mask]
    return out


def _edge_means(mesh: Triangulation, flag: int, data, rule: quad.EdgeRule
                ) -> np.ndarray:
    """Edge means of ``data`` on the edges flagged ``flag``, zero elsewhere."""
    means = np.zeros(mesh.num_edges)
    edges = np.flatnonzero(mesh.edge_flag == flag)
    if edges.size:
        a = mesh.vert_coords[mesh.edge_verts[edges, 0]]
        b = mesh.vert_coords[mesh.edge_verts[edges, 1]]
        pts = rule.physical_points(a, b)
        means[edges] = data(pts[..., 0], pts[..., 1]) @ rule.weights
    return means


def dirichlet_edge_means(mesh: Triangulation, problem: ProblemData,
                         rule: quad.EdgeRule = quad.EDGE_GAUSS3) -> np.ndarray:
    """Edge means of the Dirichlet datum (zero on non-Dirichlet edges)."""
    return _edge_means(mesh, DIRICHLET, problem.dirichlet_data, rule)


def neumann_fixed_coefficients(mesh: Triangulation, problem: ProblemData,
                               rule: quad.EdgeRule = quad.EDGE_GAUSS3
                               ) -> np.ndarray:
    """Fixed DOF coefficients on Neumann edges (zero on the other edges).

    The prescribed outward flux density g is converted to the global-normal
    coefficient through the incident element's orientation sign.
    """
    means = _edge_means(mesh, NEUMANN, problem.neumann_data, rule)
    return _left_values(mesh, mesh.elem_signs) * means


def load_vector(mesh: Triangulation, problem: ProblemData,
                rule: quad.TriangleRule = quad.SEVEN_POINT) -> np.ndarray:
    """Element integrals of the source term."""
    pts = rule.physical_points(mesh.elem_coords())
    vals = problem.f(pts[..., 0], pts[..., 1])
    return rule.integrate(vals, mesh.elem_area)


def _coo_to_csr(rows, cols, vals, dim: int) -> sp.csr_matrix:
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    matrix.sum_duplicates()
    matrix.sort_indices()
    return matrix


def assemble_centered(mesh: Triangulation, problem: ProblemData
                      ) -> HybridSystem:
    """Centered mixed scheme (volumetric convection, full reaction block),
    hybridized onto the interior edges."""
    M, B, conv, react = _local_blocks(mesh, problem.fields(mesh))
    E = mesh.elem_edges
    blocks = np.empty((mesh.num_elements, 4, 4))
    blocks[:, :3, :3] = M
    blocks[:, :3, 3] = -B
    blocks[:, 3, :3] = -B + conv
    blocks[:, 3, 3] = -react
    load = np.empty((mesh.num_elements, 4))
    # natural Dirichlet term; the datum means vanish off Dirichlet edges
    load[:, :3] = -B * dirichlet_edge_means(mesh, problem)[E]
    load[:, 3] = -load_vector(mesh, problem)

    fixed = neumann_fixed_coefficients(mesh, problem)
    eliminated = blocks.copy()
    t, i = np.nonzero(mesh.edge_flag[E] == NEUMANN)
    eliminated[t, i] = 0.0
    eliminated[t, i, i] = 1.0
    inverse = _invert_blocks(eliminated)

    # (u, p) = inverse @ (local rhs - (B lambda, 0)) turns continuity
    # into schur @ lambda = sum of B_i (inverse @ local rhs)_i
    schur = B[:, :, None] * inverse[:, :3, :3] * B[:, None, :]
    local = B * _apply(inverse[:, :3, :], _local_rhs(load, blocks, fixed[E],
                                                     0.0))
    edge_dof = np.full(mesh.num_edges, -1, dtype=np.int64)
    interior = np.flatnonzero(mesh.edge_flag == INTERIOR)
    edge_dof[interior] = np.arange(interior.size)
    dof = edge_dof[E]
    rows = np.broadcast_to(dof[:, :, None], schur.shape)
    cols = np.broadcast_to(dof[:, None, :], schur.shape)
    keep = (rows >= 0) & (cols >= 0)
    matrix = _coo_to_csr(rows[keep], cols[keep], schur[keep], interior.size)
    rhs = np.bincount(dof[dof >= 0], local[dof >= 0], interior.size)
    return HybridSystem(matrix=matrix, rhs=rhs, edge_dof=edge_dof,
                        edge_flag=mesh.edge_flag, elem_edges=E, blocks=blocks,
                        load=load, inverse=inverse, fixed_flux=fixed)


def assemble_upwind(mesh: Triangulation, problem: ProblemData) -> SaddleSystem:
    """Upwind-weighted mixed scheme with face-value convection."""
    fields = problem.fields(mesh)
    M, B, _, _ = _local_blocks(mesh, fields)
    fsrc = load_vector(mesh, problem)
    pd_mean = dirichlet_edge_means(mesh, problem)
    fixed_vals = neumann_fixed_coefficients(mesh, problem)

    ne, nt = mesh.num_edges, mesh.num_elements
    edge_dof = np.full(ne, -1, dtype=np.int64)
    free_edges = np.flatnonzero(mesh.edge_flag != NEUMANN)
    edge_dof[free_edges] = np.arange(free_edges.size)
    n_free = free_edges.size
    dim = n_free + nt

    E = mesh.elem_edges
    edof = edge_dof[E]                      # (NT, 3)
    prow = n_free + np.arange(nt)

    rows, cols, vals = [], [], []
    rhs = np.zeros(dim)

    def add_block(r, c, v):
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(v.ravel())

    # --- edge rows: velocity mass block and -B^T pressure coupling -----
    row_idx = np.broadcast_to(edof[:, :, None], (nt, 3, 3))
    col_idx = np.broadcast_to(edof[:, None, :], (nt, 3, 3))
    keep = (row_idx >= 0) & (col_idx >= 0)
    add_block(row_idx[keep], col_idx[keep], M[keep])
    to_rhs = (row_idx >= 0) & (col_idx < 0)
    if np.any(to_rhs):
        col_edges = np.broadcast_to(E[:, None, :], (nt, 3, 3))
        np.subtract.at(rhs, row_idx[to_rhs], M[to_rhs] * fixed_vals[col_edges[to_rhs]])

    row_idx = edof
    col_idx = np.broadcast_to(prow[:, None], (nt, 3))
    keep = row_idx >= 0
    add_block(row_idx[keep], col_idx[keep], -B[keep])

    # natural Dirichlet boundary term on the edge rows
    dir_edges = np.flatnonzero(mesh.edge_flag == DIRICHLET)
    sgn_left = _left_values(mesh, mesh.elem_signs.astype(np.int64))
    rhs_rows = edge_dof[dir_edges]
    np.subtract.at(
        rhs, rhs_rows,
        sgn_left[dir_edges] * mesh.edge_length[dir_edges] * pd_mean[dir_edges],
    )

    # --- element rows (sign-flipped mass balance) ----------------------
    edge_coef = -B
    row_idx = np.broadcast_to(prow[:, None], (nt, 3))
    keep = edof >= 0
    add_block(row_idx[keep], edof[keep], edge_coef[keep])
    to_rhs = ~keep
    if np.any(to_rhs):
        np.subtract.at(rhs, row_idx[to_rhs],
                       edge_coef[to_rhs] * fixed_vals[E[to_rhs]])

    add_block(prow, prow, -fields.r * mesh.elem_area)
    nu_edges = upwind_weights(mesh, fields)
    wflux = _edge_fluxes(mesh, fields)
    nu = nu_edges[E]
    flag = mesh.edge_flag[E]
    lr = mesh.edge_elems[E]
    t_index = np.arange(nt)[:, None]
    other = np.where(lr[..., 0] == t_index, lr[..., 1], lr[..., 0])
    upstream = wflux >= 0.0
    c_own = np.where(upstream, 1.0 - nu, nu)
    c_other = np.where(upstream, nu, 1.0 - nu)

    active = wflux != 0.0
    interior = active & (flag == INTERIOR)
    dirich = active & (flag == DIRICHLET)
    neum = active & (flag == NEUMANN)

    add_block(row_idx[interior], row_idx[interior],
              -wflux[interior] * c_own[interior])
    add_block(row_idx[interior], n_free + other[interior],
              -wflux[interior] * c_other[interior])
    add_block(row_idx[dirich], row_idx[dirich],
              -wflux[dirich] * c_own[dirich])
    np.add.at(rhs, row_idx[dirich],
              wflux[dirich] * c_other[dirich] * pd_mean[E[dirich]])
    # Neumann edges carry no pressure datum: take the interior value
    add_block(row_idx[neum], row_idx[neum], -wflux[neum])

    rhs[prow] -= fsrc

    matrix = _coo_to_csr(np.concatenate(rows), np.concatenate(cols),
                         np.concatenate(vals), dim)
    return SaddleSystem(matrix=matrix, rhs=rhs, edge_dof=edge_dof,
                        n_free=n_free, fixed_flux=fixed_vals, scheme=UPWIND,
                        nu=nu_edges)
