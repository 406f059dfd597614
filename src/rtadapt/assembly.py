"""RT0/P0 assembly of the centered and upwind-weighted mixed schemes.

Degrees of freedom: one coefficient per edge equal to the (constant)
normal component of the flux with respect to the fixed global edge
normal, plus one pressure constant per element.  With this normalization
the local basis function attached to edge i of element K is

    phi_i(x) = s_i |sigma_i| / (2|K|) (x - P_i),

P_i the opposite vertex, with elementwise-constant divergence
s_i |sigma_i| / |K|, so the divergence integrals are exactly the signed
edge lengths.

Element rows are stored with flipped sign, which makes the matrix
symmetric in the pure-diffusion limit; the assembled equations are
unchanged.  Dirichlet data enters edge rows through its natural boundary
term (edge means), Neumann edges are eliminated with their flux fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import quadrature as quad
from .mesh import DIRICHLET, INTERIOR, NEUMANN, Triangulation
from .problem import CoefficientFields, ProblemData


class AssemblyError(Exception):
    pass


CENTERED = "centered"
UPWIND = "upwind"


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


@dataclass
class SaddleSystem:
    """Sparse saddle-point system with its DOF bookkeeping."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    edge_dof: np.ndarray          # (NE,) row index per free edge, -1 if fixed
    n_free: int                   # number of free edge DOFs
    fixed_flux: dict              # Neumann edge id -> prescribed coefficient
    scheme: str
    nu: np.ndarray | None = None  # per-edge upwind weights (upwind scheme)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def element_row(self, t: int) -> int:
        return self.n_free + t

    def split_solution(self, x: np.ndarray, num_edges: int) -> "MixedSolution":
        """Map a solution vector back to edge/element DOFs."""
        flux = np.zeros(num_edges)
        free = self.edge_dof >= 0
        flux[free] = x[self.edge_dof[free]]
        for e, value in self.fixed_flux.items():
            flux[e] = value
        pressure = x[self.n_free:]
        return MixedSolution(flux=flux, pressure=pressure, scheme=self.scheme,
                             nu=self.nu)

    def dump_matrix(self) -> str:
        """Coordinate text format, one `row col value` per line."""
        coo = self.matrix.tocoo()
        return "\n".join(
            f"{r} {c} {float(v)!r}"
            for r, c, v in zip(coo.row, coo.col, coo.data)
        ) + "\n"


@dataclass
class MixedSolution:
    """Edge flux coefficients and elementwise pressure constants."""

    flux: np.ndarray
    pressure: np.ndarray
    scheme: str
    nu: np.ndarray | None = None


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


def local_matrices(mesh: Triangulation, fields: CoefficientFields,
                   rule: quad.TriangleRule = quad.MIDPOINT) -> list:
    """Local matrices for every element (vectorized internally)."""
    M, B, conv, react = _local_blocks(mesh, fields, rule)
    return [
        LocalMatrices(M[t], B[t], conv[t], float(react[t]))
        for t in range(mesh.num_elements)
    ]


def _local_blocks(mesh: Triangulation, fields: CoefficientFields,
                  rule: quad.TriangleRule = quad.MIDPOINT):
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


def flux_through_edge(w: np.ndarray, mesh: Triangulation, t: int,
                      local: int) -> float:
    """Signed flux of the velocity through one element edge.

    Integral of w . n over the edge with n outward to element t; constant
    velocity along a straight edge.
    """
    e = mesh.elem_edges[t, local]
    n_out = mesh.elem_signs[t, local] * mesh.edge_normal[e]
    return float(np.dot(w, n_out) * mesh.edge_length[e])


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


def upwind_value_coeffs(nu: float, w_flux: float, interior: bool
                        ) -> tuple[float, float]:
    """Coefficients (on p_K, on the opposite value) of the upwind face value.

    The opposite value is the neighbor pressure on interior edges and the
    Dirichlet datum mean on boundary edges (zero in the homogeneous case).
    """
    if w_flux >= 0.0:
        return 1.0 - nu, nu
    return nu, 1.0 - nu


def _left_values(mesh: Triangulation, per_elem_edge: np.ndarray) -> np.ndarray:
    """Gather a per-(element, local edge) array to per-edge, first-element side."""
    out = np.zeros(mesh.num_edges, dtype=per_elem_edge.dtype)
    left_mask = mesh.edge_elems[mesh.elem_edges, 0] == \
        np.arange(mesh.num_elements)[:, None]
    out[mesh.elem_edges[left_mask]] = per_elem_edge[left_mask]
    return out


def dirichlet_edge_means(mesh: Triangulation, problem: ProblemData,
                         rule: quad.EdgeRule = quad.EDGE_GAUSS3) -> np.ndarray:
    """Edge means of the Dirichlet datum (zero on non-Dirichlet edges)."""
    means = np.zeros(mesh.num_edges)
    dir_edges = np.flatnonzero(mesh.edge_flag == DIRICHLET)
    if dir_edges.size:
        a = mesh.vert_coords[mesh.edge_verts[dir_edges, 0]]
        b = mesh.vert_coords[mesh.edge_verts[dir_edges, 1]]
        pts = rule.physical_points(a, b)
        vals = problem.dirichlet_data(pts[..., 0], pts[..., 1])
        means[dir_edges] = vals @ rule.weights
    return means


def neumann_fixed_coefficients(mesh: Triangulation, problem: ProblemData,
                               rule: quad.EdgeRule = quad.EDGE_GAUSS3) -> dict:
    """Fixed DOF coefficients on Neumann edges.

    The prescribed outward flux density g is converted to the global-normal
    coefficient through the incident element's orientation sign.
    """
    fixed = {}
    for e in np.flatnonzero(mesh.edge_flag == NEUMANN):
        t = int(mesh.edge_elems[e, 0])
        local = int(np.flatnonzero(mesh.elem_edges[t] == e)[0])
        a = mesh.vert_coords[mesh.edge_verts[e, 0]]
        b = mesh.vert_coords[mesh.edge_verts[e, 1]]
        pts = rule.physical_points(a, b)
        mean = float(problem.neumann_data(pts[..., 0], pts[..., 1])
                     @ rule.weights)
        fixed[int(e)] = mesh.elem_signs[t, local] * mean
    return fixed


def load_vector(mesh: Triangulation, problem: ProblemData,
                rule: quad.TriangleRule = quad.SEVEN_POINT) -> np.ndarray:
    """Element integrals of the source term."""
    pts = rule.physical_points(mesh.elem_coords())
    vals = problem.f(pts[..., 0], pts[..., 1])
    return rule.integrate(vals, mesh.elem_area)


def _assemble(mesh: Triangulation, problem: ProblemData, scheme: str
              ) -> SaddleSystem:
    fields = problem.fields(mesh)
    M, B, conv, react = _local_blocks(mesh, fields)
    fsrc = load_vector(mesh, problem)
    pd_mean = dirichlet_edge_means(mesh, problem)
    fixed = neumann_fixed_coefficients(mesh, problem)

    ne, nt = mesh.num_edges, mesh.num_elements
    edge_dof = np.full(ne, -1, dtype=np.int64)
    free_edges = np.flatnonzero(mesh.edge_flag != NEUMANN)
    edge_dof[free_edges] = np.arange(free_edges.size)
    n_free = free_edges.size
    dim = n_free + nt

    fixed_vals = np.zeros(ne)
    for e, v in fixed.items():
        fixed_vals[e] = v

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
    if scheme == CENTERED:
        edge_coef = -B + conv
    elif scheme == UPWIND:
        edge_coef = -B
    else:
        raise AssemblyError(f"unknown scheme {scheme!r}")

    row_idx = np.broadcast_to(prow[:, None], (nt, 3))
    keep = edof >= 0
    add_block(row_idx[keep], edof[keep], edge_coef[keep])
    to_rhs = ~keep
    if np.any(to_rhs):
        np.subtract.at(rhs, row_idx[to_rhs],
                       edge_coef[to_rhs] * fixed_vals[E[to_rhs]])

    nu_edges = None
    if scheme == CENTERED:
        add_block(prow, prow, -react)
    else:
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

    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocsr()
    matrix.sum_duplicates()
    matrix.sort_indices()
    return SaddleSystem(matrix=matrix, rhs=rhs, edge_dof=edge_dof,
                        n_free=n_free, fixed_flux=fixed, scheme=scheme,
                        nu=nu_edges)


def assemble_centered(mesh: Triangulation, problem: ProblemData
                      ) -> SaddleSystem:
    """Centered mixed scheme: volumetric convection, full reaction block."""
    return _assemble(mesh, problem, CENTERED)


def assemble_upwind(mesh: Triangulation, problem: ProblemData) -> SaddleSystem:
    """Upwind-weighted mixed scheme with face-value convection."""
    return _assemble(mesh, problem, UPWIND)
