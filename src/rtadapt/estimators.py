"""Elementwise a posteriori error estimators and the total indicator.

Every estimator is computable from the mixed solution alone: volume terms
are weighted norms of S^-1 u_h, face terms are tangential jumps of the
weighted flux, and the upwind estimator adds face-value differences of
the pressure constants.  Integrands are piecewise polynomial, so the
production quadrature is exact except for the source term, which uses the
degree-5 rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature as quad
from .assembly import Discretization, MixedSolution, UPWIND, dot
from .mesh import DIRICHLET, INTERIOR, Triangulation
from .postprocess import FluxField, tangential_jump_sq
from .problem import patch_quantities


class EstimatorError(Exception):
    pass


POLICIES = ("theorem", "xi")


@dataclass
class ResidualWeights:
    """Residual scaling factors alpha_K and beta_K."""

    alpha: np.ndarray
    beta: np.ndarray


@dataclass
class EstimatorBreakdown:
    """Per-element estimator values and the marking indicator."""

    eta_D: np.ndarray
    eta_R: np.ndarray
    eta_NC: np.ndarray
    eta_C: np.ndarray
    eta_U: np.ndarray
    xi: np.ndarray
    total: np.ndarray
    policy: str

    def family_totals(self) -> dict:
        return {
            name: float(np.sqrt((getattr(self, name) ** 2).sum()))
            for name in ("eta_D", "eta_R", "eta_NC", "eta_C", "eta_U",
                         "xi", "total")
        }

    def to_csv(self) -> str:
        lines = ["element_id,eta_D,eta_R,eta_NC,eta_C,eta_U,xi,total"]
        columns = (self.eta_D, self.eta_R, self.eta_NC, self.eta_C,
                   self.eta_U, self.xi, self.total)
        fmt = "%d" + ",%.17g" * len(columns)
        lines += [fmt % row for row in zip(range(self.total.size),
                                           *(c.tolist() for c in columns))]
        return "\n".join(lines) + "\n"


def residual_weights(mesh: Triangulation, fields) -> ResidualWeights:
    """alpha_K = min(h_K / sqrt(c_S), 1 / sqrt(c_wr)), beta_K = C_wr h alpha.

    With a vanishing combined reaction alpha_K falls back to the diffusive
    scaling h_K / sqrt(c_S).
    """
    diffusive = mesh.elem_diam / np.sqrt(fields.c_S)
    with np.errstate(divide="ignore"):
        reactive = np.where(fields.c_wr > 0.0,
                            1.0 / np.sqrt(np.maximum(fields.c_wr, 1e-300)),
                            np.inf)
    alpha = np.minimum(diffusive, reactive)
    beta = fields.C_wr * mesh.elem_diam * alpha
    return ResidualWeights(alpha=alpha, beta=beta)


def detect_singular_vertices(mesh: Triangulation, C_S: np.ndarray,
                             rel_tol: float = 1e-9) -> set:
    """Vertices where the maximal-coefficient elements do not form one fan.

    A vertex v is singular when the elements of its star attaining the
    largest diffusion bound there (within ``rel_tol`` relatively), its top
    class, split into more than one edge-connected block around v.

    The blocks are counted through their ends.  Each edge at v counts as a
    transition of v when exactly one of its sides lies in the top class; a
    boundary edge has the exterior as its second side, which is never in
    the top class.  Walking around v, every block begins and ends at a
    transition: in a closed fan (interior vertex) at the edges where the
    class changes, in an open fan (boundary vertex) also at a boundary
    edge when the block reaches the end of the fan.  No transition lies
    inside a block or between two blocks, so the transitions are exactly
    twice the blocks, and v is singular iff it has at least 4 of them.  A
    closed fan lying wholly in its top class has no transition and one
    block, and is not singular either way.
    """
    top = np.zeros(mesh.num_vertices)
    np.maximum.at(top, mesh.elem_verts.ravel(), np.repeat(C_S, 3))
    left, right = mesh.edge_elems[:, 0], mesh.edge_elems[:, 1]
    transitions = np.zeros(mesh.num_vertices, dtype=np.int64)
    for v in mesh.edge_verts.T:
        cut = top[v] * (1.0 - rel_tol)
        in_left = C_S[left] >= cut
        in_right = (right >= 0) & (C_S[right] >= cut)
        transitions += np.bincount(v[in_left != in_right],
                                   minlength=mesh.num_vertices)
    return set(np.flatnonzero(transitions >= 4).tolist())


class EstimatorContext:
    """All estimator ingredients for one solved mesh.

    ``subtract_boundary_data`` switches the boundary face terms from the
    plain one-sided trace to the trace minus the tangential derivative of
    the Dirichlet datum (computable from the boundary data alone); it only
    affects Dirichlet boundary edges.
    """

    def __init__(self, disc: Discretization, solution: MixedSolution,
                 subtract_boundary_data: bool = False):
        self.disc = disc
        self.mesh = mesh = disc.mesh
        self.solution = solution
        self.fields = disc.fields
        self.flux = FluxField(disc, solution)
        self.patch = patch_quantities(mesh, self.fields)
        self.weights = residual_weights(mesh, self.fields)

        slopes = None
        if subtract_boundary_data:
            slopes = (_data_slope(disc, "inv"), _data_slope(disc, "invsqrt"))
        # one evaluation of u_h at the edge points, weighted twice
        self.jump_inv, self.jump_half = tangential_jump_sq(
            mesh, self.flux, ("inv", "invsqrt"), boundary_slopes=slopes)

        self.norm_sq = self._weighted_norm_sq()
        self._singular_elems = None

    # -- volume ingredients ------------------------------------------------

    def _weighted_norm_sq(self) -> np.ndarray:
        """int_K |S^-1 u_h|^2 per element (quadratic integrand)."""
        vals = self.flux.weighted(np.arange(self.mesh.num_elements),
                                  self.disc.midpoints)
        return quad.MIDPOINT.integrate(dot(vals, vals), self.mesh.elem_area)

    def _residual_norm_sq(self) -> np.ndarray:
        """int_K R^2 with the pure-diffusion reduction where it applies.

        Elements with no convection and no reaction satisfy the discrete
        identity div u_h = mean(f), so the residual reduces to f - f_K
        there and vanishes identically for f = 0.
        """
        mesh, fields = self.mesh, self.fields
        rule = quad.SEVEN_POINT
        pts = self.disc.seven_points
        fvals = self.disc.problem.f(pts[..., 0], pts[..., 1])
        if fvals.shape != pts.shape[:-1]:
            fvals = np.broadcast_to(fvals, pts.shape[:-1])

        pure = (fields.C_w == 0.0) & (fields.r == 0.0) & (fields.divw == 0.0)
        fmean = fvals @ rule.weights
        reduced = fvals - fmean[:, None]

        sinv_u = self.flux.weighted(np.arange(mesh.num_elements), pts)
        div_u = 2.0 * self.flux.b
        general = (
            fvals
            - div_u[:, None]
            + dot(sinv_u, fields.w[:, None])
            - ((fields.r + fields.divw) * self.solution.pressure)[:, None]
        )
        resid = np.where(pure[:, None], reduced, general)
        return rule.integrate(resid**2, mesh.elem_area)

    # -- per-element estimator families -------------------------------------

    def eta_D_all(self) -> np.ndarray:
        return np.sqrt(self.fields.c_wr) * self.mesh.elem_diam \
            * np.sqrt(self.norm_sq)

    def eta_R_all(self) -> np.ndarray:
        w = self.weights
        return np.sqrt(w.alpha**2 * self._residual_norm_sq()
                       + w.beta**2 * self.norm_sq)

    def _jump_sum(self, jumps: np.ndarray, edge_factor: np.ndarray,
                  delta: bool = True) -> np.ndarray:
        """Sum over element edges of factor * h_sigma * jump integral."""
        mesh = self.mesh
        E = mesh.elem_edges
        contrib = edge_factor[E] * mesh.edge_length[E] * jumps[E]
        if delta:
            deltas = np.where(mesh.edge_flag[E] == INTERIOR, 0.5, 1.0)
            contrib = contrib * deltas
        return contrib.sum(axis=1)

    def eta_NC_all(self) -> np.ndarray:
        volume = self.patch.lam_wr * self.mesh.elem_diam**2 * self.norm_sq
        face = self._jump_sum(self.jump_inv, self.patch.lam_sigma)
        return np.sqrt(volume + face)

    def eta_C_all(self) -> np.ndarray:
        volume = self.patch.lam_divw**2 * self.mesh.elem_diam**2 * self.norm_sq
        face = self._jump_sum(self.jump_inv, self.patch.lam_w_sigma**2)
        return np.sqrt(volume + face)

    def _hat_hat_all(self) -> np.ndarray:
        """Face-value defect of the upwind pressure per edge.

        Interior edges: (1/2 - nu)(upstream - downstream).  Boundary
        edges: upwind face value minus the element constant, which for a
        homogeneous Dirichlet datum reduces to -nu p_K (outflow) or
        -(1 - nu) p_K (inflow).
        """
        mesh = self.mesh
        nu = self.solution.nu
        p = self.solution.pressure
        wflux_left = self.disc.left_fluxes
        left = mesh.edge_elems[:, 0]
        right = mesh.edge_elems[:, 1]
        out = np.zeros(mesh.num_edges)

        interior = right >= 0
        up = np.where(wflux_left >= 0.0, left, np.where(interior, right, left))
        down = np.where(wflux_left >= 0.0, np.where(interior, right, left), left)
        out[interior] = (0.5 - nu[interior]) \
            * (p[up[interior]] - p[down[interior]])

        dirich = (~interior) & (mesh.edge_flag == DIRICHLET)
        if np.any(dirich):
            c_own = np.where(wflux_left >= 0.0, 1.0 - nu, nu)
            c_dat = np.where(wflux_left >= 0.0, nu, 1.0 - nu)
            p_hat = c_own * p[left] + c_dat * self.disc.pd_mean
            out[dirich] = p_hat[dirich] - p[left[dirich]]
        # Neumann edges use the interior value, so the defect vanishes
        return out

    def eta_U_all(self) -> np.ndarray:
        if self.solution.scheme != UPWIND:
            raise EstimatorError(
                "the upwind estimator is undefined for a centered solution"
            )
        mesh = self.mesh
        hathat = self._hat_hat_all()
        wflux = self.disc.edge_fluxes                    # (NT, 3)
        E = mesh.elem_edges
        lengths = mesh.edge_length[E]
        wn = wflux / lengths                             # (w . n)|_sigma
        patch_norm = self.norm_sq[mesh.edge_elems[:, 0]]
        interior = mesh.edge_elems[:, 1] >= 0
        patch_norm = patch_norm + np.where(
            interior, self.norm_sq[mesh.edge_elems[:, 1].clip(min=0)], 0.0
        )
        face = wn**2 * (hathat[E] ** 2 * lengths + lengths * patch_norm[E])
        return np.sqrt(self.mesh.elem_diam / self.fields.c_S
                       * face.sum(axis=1))

    def singular_elements(self) -> np.ndarray:
        if self._singular_elems is None:
            singular = detect_singular_vertices(self.mesh, self.fields.C_S)
            mask = np.zeros(self.mesh.num_elements, dtype=bool)
            if singular:
                for i in range(3):
                    mask |= np.isin(self.mesh.elem_verts[:, i],
                                    list(singular))
            self._singular_elems = mask
        return self._singular_elems

    def xi_all(self) -> np.ndarray:
        """Alternative face indicator switching on singular nodes.

        xi_K^2 = sum over the three edges sigma of K, each at full weight
        (no halving on interior edges), of h_sigma int_sigma J_sigma^2:

        - on elements with a vertex from ``detect_singular_vertices``,
          J_sigma is the tangential jump of S^-1 u_h and the sum is
          multiplied by ``C_S_patch``, the largest C_S over the elements
          sharing a vertex with K;
        - elsewhere J_sigma is the tangential jump of S^-1/2 u_h.

        On interior edges the jump is the difference of the two one-sided
        traces.  On boundary edges it is the one-sided trace; with
        ``subtract_boundary_data`` Dirichlet edges subtract the trace the
        datum implies, -dg/dt (times sqrt(c_S) for S^-1/2).

        This is the implemented convention.  The source paper's own
        definition of xi is not available here, and this one gives
        eta_1 = 7.990 on the first Kellogg mesh against the paper's
        5.0938.
        """
        plain = self._jump_sum(self.jump_half, np.ones(self.mesh.num_edges),
                               delta=False)
        weighted = self._jump_sum(
            self.jump_inv,
            np.ones(self.mesh.num_edges), delta=False,
        )
        weighted = weighted * self.patch.C_S_patch
        return np.sqrt(np.where(self.singular_elements(), weighted, plain))

    def compute(self, policy: str = "theorem") -> EstimatorBreakdown:
        """Assemble the full per-element breakdown under a marking policy."""
        if policy not in POLICIES:
            raise EstimatorError(f"unknown indicator policy {policy!r}")
        nt = self.mesh.num_elements
        eta_D = self.eta_D_all()
        eta_R = self.eta_R_all()
        eta_NC = self.eta_NC_all()
        eta_C = self.eta_C_all()
        eta_U = (self.eta_U_all() if self.solution.scheme == UPWIND
                 else np.zeros(nt))
        xi = self.xi_all()
        if policy == "theorem":
            total_sq = eta_D**2 + eta_R**2 + eta_NC**2 + eta_C**2
            if self.solution.scheme == UPWIND:
                total_sq = total_sq + eta_U**2
            total = np.sqrt(total_sq)
        else:
            total = xi.copy()
        return EstimatorBreakdown(eta_D=eta_D, eta_R=eta_R, eta_NC=eta_NC,
                                  eta_C=eta_C, eta_U=eta_U, xi=xi,
                                  total=total, policy=policy)


def _data_slope(disc: Discretization, weighting: str):
    """Expected boundary tangential trace of the weighted flux, from data.

    gamma_t(S^-1 u) = -dp/dt on the boundary; the S^-1/2 variant scales by
    sqrt(c_S) and requires a scalar diffusion tensor.  The tangential
    derivative of the Dirichlet datum is taken by central differences
    along the edge line; Neumann edges carry no datum and get no
    correction.
    """
    mesh, problem, fields = disc.mesh, disc.problem, disc.fields
    if weighting == "invsqrt" and np.any(
        fields.C_S - fields.c_S > 1e-12 * fields.C_S
    ):
        raise EstimatorError(
            "boundary data subtraction for the square-root weighting "
            "needs a scalar diffusion tensor"
        )
    left = mesh.edge_elems[:, 0]
    factor = np.ones(mesh.num_edges) if weighting == "inv" \
        else np.sqrt(fields.c_S[left])
    dirichlet = mesh.edge_flag == DIRICHLET

    def slope(edge_ids, pts):
        out = np.zeros(pts.shape[:-1])
        rows = np.flatnonzero(dirichlet[edge_ids])
        if rows.size:
            e = edge_ids[rows]
            delta = 6e-6 * mesh.edge_length[e]
            step = delta[:, None, None] * mesh.edge_tangent[e][:, None, :]
            plus = pts[rows] + step
            minus = pts[rows] - step
            dpdt = (problem.dirichlet_data(plus[..., 0], plus[..., 1])
                    - problem.dirichlet_data(minus[..., 0], minus[..., 1])) \
                / (2.0 * delta)[:, None]
            out[rows] = -factor[e][:, None] * dpdt
        return out

    return slope
