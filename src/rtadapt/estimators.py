"""Elementwise a posteriori error estimators and the total indicator.

Every estimator is computable from the mixed solution alone: volume terms
are weighted norms of S^-1 u_h, face terms are tangential jumps of the
weighted flux, and the upwind estimator adds face-value differences of
the pressure constants.  Integrands are piecewise polynomial, so the
production quadrature is exact except for two terms: the source term,
which uses the degree-5 rule, and the boundary face terms, which integrate
the trace minus the datum's slope with ``quad.DATA_EDGE``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from . import quadrature as quad
from .assembly import Discretization, MixedSolution, UPWIND, dot, mat_vec
from .mesh import DIRICHLET, INTERIOR, Triangulation, text_rows, write_text
from .postprocess import FluxField, tangential_jump_sq
from .problem import patch_quantities


class EstimatorError(Exception):
    pass


# marking policies: the paper's sum of the families, or xi alone
THEOREM = "theorem"
XI = "xi"
POLICIES = (THEOREM, XI)

TOP_CLASS_TOL = 1e-9


@dataclass
class EstimatorBreakdown:
    """Per-element values of the estimator families, the marking indicator
    ``total`` last.  The field order is the order of ``FAMILIES`` and of
    every artifact column that lists them."""

    eta_D: np.ndarray
    eta_R: np.ndarray
    eta_NC: np.ndarray
    eta_C: np.ndarray
    eta_U: np.ndarray
    xi: np.ndarray
    total: np.ndarray

    def family_totals(self) -> dict:
        """Global value, the root of the summed squares, of each family."""
        return {name: float(np.sqrt((getattr(self, name) ** 2).sum()))
                for name in FAMILIES}

    def to_csv(self, out: TextIO | None = None) -> str | None:
        """One row per element, led by its id, the families in field
        order; written to the open file ``out``, or returned without it."""
        columns = [getattr(self, name) for name in FAMILIES]
        # an all-+0.0 column enters the row format as its %.17g text "0"
        zero = [not (c.any() or np.signbit(c).any()) for c in columns]
        line = "%d" + "".join(",0" if z else ",%.17g" for z in zero) + "\n"
        kept = [c for c, z in zip(columns, zero) if not z]
        header = ",".join(("element_id",) + FAMILIES) + "\n"
        return write_text(out, [header],
                          text_rows(line, self.total.size, *kept))


FAMILIES = tuple(f.name for f in dataclasses.fields(EstimatorBreakdown))
TOTAL = FAMILIES[-1]


def residual_weights(mesh: Triangulation, fields
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Residual scaling factors (alpha_K, beta_K): alpha_K = min(h_K /
    sqrt(c_S), 1 / sqrt(r)), beta_K = r h_K alpha_K.

    These are the paper's weights with c_wr = C_wr = r, which holds since
    w is constant per element (div w = 0).  With a vanishing reaction
    alpha_K falls back to the diffusive scaling h_K / sqrt(c_S).
    """
    diffusive = mesh.elem_diam / np.sqrt(fields.c_S)
    with np.errstate(divide="ignore"):
        reactive = np.where(fields.r > 0.0,
                            1.0 / np.sqrt(np.maximum(fields.r, 1e-300)),
                            np.inf)
    alpha = np.minimum(diffusive, reactive)
    return alpha, fields.r * mesh.elem_diam * alpha


def detect_singular_vertices(mesh: Triangulation, C_S: np.ndarray) -> set:
    """Vertices where the maximal-coefficient elements do not form one fan.

    A vertex v is singular when the elements of its star attaining the
    largest diffusion bound there (within ``TOP_CLASS_TOL`` relatively),
    its top class, split into more than one edge-connected block around v.

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
        cut = top[v] * (1.0 - TOP_CLASS_TOL)
        in_left = C_S[left] >= cut
        in_right = (right >= 0) & (C_S[right] >= cut)
        transitions += np.bincount(v[in_left != in_right],
                                   minlength=mesh.num_vertices)
    return set(np.flatnonzero(transitions >= 4).tolist())


class EstimatorContext:
    """All estimator ingredients for one solved mesh.

    The boundary face terms measure the one-sided trace against the
    trace that the Dirichlet datum implies (``tangential_jump_sq``), which
    is the plain trace where the datum is constant or the edge Neumann.
    """

    def __init__(self, disc: Discretization, solution: MixedSolution):
        self.disc = disc
        self.mesh = mesh = disc.mesh
        self.solution = solution
        self.fields = disc.fields
        self.flux = FluxField(disc, solution)
        self.patch = patch_quantities(mesh, self.fields)
        self.weights = residual_weights(mesh, self.fields)
        self.jump_inv, self.jump_half = tangential_jump_sq(self.flux)
        self.norm_sq = self._weighted_norm_sq()

    # -- volume ingredients ------------------------------------------------

    def _weighted_norm_sq(self) -> np.ndarray:
        """int_K |S^-1 u_h|^2 per element (quadratic integrand)."""
        u = self.flux.u(slice(None), quad.MIDPOINT.physical_points(
            self.mesh.elem_coords))
        v0, v1 = mat_vec(self.fields.Sinv[:, None], u)
        return quad.MIDPOINT.integrate(v0 * v0 + v1 * v1,
                                       self.mesh.elem_area)

    def _residual_norm_sq(self) -> np.ndarray:
        """int_K R^2 with the pure-diffusion reduction where it applies.

        Elements with no convection and no reaction satisfy the discrete
        identity div u_h = mean(f), so the residual reduces to f - f_K
        there and vanishes identically for f = 0.  The other elements
        take the general residual.
        """
        fields, rule = self.fields, quad.SEVEN_POINT
        pure = (fields.C_w == 0.0) & (fields.r == 0.0)
        if not pure.any():
            resid = self._general_residual(slice(None))
        else:
            fvals = self.disc.source
            resid = fvals - (fvals @ rule.weights)[:, None]
            if not pure.all():
                general = np.flatnonzero(~pure)
                resid[general] = self._general_residual(general)
        return rule.integrate(resid**2, self.mesh.elem_area)

    def _general_residual(self, elems) -> np.ndarray:
        """f - div u_h + w . S^-1 u_h - r p_K at the seven-point
        nodes of ``elems`` (indices or a slice), with w . S^-1 u_h = g . u_h
        for g = S^-T w."""
        fields, flux = self.fields, self.flux
        g = np.column_stack(mat_vec(fields.Sinv[elems].swapaxes(1, 2),
                                    fields.w[elems]))
        u = flux.u(elems, quad.SEVEN_POINT.physical_points(
            self.mesh.elem_coords[elems]))
        react = fields.r[elems] * self.solution.pressure[elems]
        return (self.disc.source[elems] - 2.0 * flux.b[elems, None]
                + dot(u, g[:, None]) - react[:, None])

    # -- per-element estimator families -------------------------------------

    def eta_D_all(self) -> np.ndarray:
        return np.sqrt(self.fields.r) * self.mesh.elem_diam \
            * np.sqrt(self.norm_sq)

    def eta_R_all(self) -> np.ndarray:
        alpha, beta = self.weights
        return np.sqrt(alpha**2 * self._residual_norm_sq()
                       + beta**2 * self.norm_sq)

    def _jump_sum(self, jumps: np.ndarray, edge_factor: np.ndarray,
                  delta: bool = True) -> np.ndarray:
        """Sum over element edges of factor * h_sigma * jump integral."""
        mesh = self.mesh
        E = mesh.elem_edges.T
        contrib = edge_factor[E] * mesh.edge_length[E] * jumps[E]
        if delta:
            contrib *= np.where(mesh.edge_flag[E] == INTERIOR, 0.5, 1.0)
        return contrib.sum(axis=0)

    def eta_NC_all(self) -> np.ndarray:
        volume = self.patch.lam_wr * self.mesh.elem_diam**2 * self.norm_sq
        face = self._jump_sum(self.jump_inv, self.patch.lam_sigma)
        return np.sqrt(volume + face)

    def eta_C_all(self) -> np.ndarray:
        """eta_C,K^2 = sum over the edges sigma of K of delta_sigma
        lam_w_sigma^2 h_sigma ||[t . S^-1 u_h]||_sigma^2.

        The paper adds the volume term lambda_div^2 h_K^2 ||S^-1 u_h||_K^2,
        lambda_div the patch maximum of |div w| / sqrt(c_wr).  w is
        constant per element, so div w = 0 and that term vanishes.
        """
        return np.sqrt(self._jump_sum(self.jump_inv,
                                      self.patch.lam_w_sigma**2))

    def _hat_hat_all(self) -> np.ndarray:
        """Face-value defect of the upwind pressure per (local edge,
        element), (3, NT), by the face rule that the assembly used
        (``Discretization.face_rule``).

        Interior edges: (1/2 - c_other)(p_K - p_other), which is
        (1/2 - nu)(upstream - downstream) up to its sign.  Dirichlet
        edges: the face value minus the element constant, which for a
        homogeneous datum reduces to -nu p_K (outflow) or -(1 - nu) p_K
        (inflow).  Neumann edges take the interior value, so the defect
        vanishes.
        """
        E = self.mesh.elem_edges.T
        p = self.solution.pressure
        _, other, c_own, c_other = self.disc.face_rule
        flag = self.mesh.edge_flag[E]
        p_hat = c_own * p + c_other * self.disc.pd_mean[E]
        return np.where(
            flag == INTERIOR, (0.5 - c_other) * (p - p[other]),
            np.where(flag == DIRICHLET, p_hat - p, 0.0))

    def eta_U_all(self) -> np.ndarray:
        if self.solution.scheme != UPWIND:
            raise EstimatorError(
                "the upwind estimator is undefined for a centered solution"
            )
        mesh = self.mesh
        hathat = self._hat_hat_all()                     # (3, NT)
        E = mesh.elem_edges.T
        lengths = mesh.edge_length[E]
        wn = self.disc.face_rule[0] / lengths           # (w . n)|_sigma
        left, right = mesh.edge_elems.T
        patch_norm = self.norm_sq[left] \
            + np.where(right >= 0, self.norm_sq[right], 0.0)
        face = wn**2 * (hathat**2 * lengths + lengths * patch_norm[E])
        return np.sqrt(self.mesh.elem_diam / self.fields.c_S
                       * face.sum(axis=0))

    def singular_elements(self) -> np.ndarray:
        singular = detect_singular_vertices(self.mesh, self.fields.C_S)
        # reduced over the leading axis, which numpy does faster than over
        # an axis of length 3
        return np.isin(self.mesh.elem_verts.T, list(singular)).any(axis=0)

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
        traces.  On boundary edges it is the one-sided trace; Dirichlet
        edges subtract the trace the datum implies, -dg/dt (times
        sqrt(c_S) for S^-1/2).

        This is the implemented convention.  The source paper's own
        definition of xi is not available here, and this one gives
        eta_1 = 7.990 on the first Kellogg mesh against the paper's
        5.0938.
        """
        ones = np.ones(self.mesh.num_edges)
        plain = self._jump_sum(self.jump_half, ones, delta=False)
        weighted = self._jump_sum(self.jump_inv, ones, delta=False) \
            * self.patch.C_S_patch
        return np.sqrt(np.where(self.singular_elements(), weighted, plain))

    def compute(self, policy: str = THEOREM) -> EstimatorBreakdown:
        """Assemble the full per-element breakdown under a marking policy."""
        if policy not in POLICIES:
            raise EstimatorError(f"unknown indicator policy {policy!r}")
        summed = dict(eta_D=self.eta_D_all(), eta_R=self.eta_R_all(),
                      eta_NC=self.eta_NC_all(), eta_C=self.eta_C_all(),
                      eta_U=(self.eta_U_all() if self.solution.scheme == UPWIND
                             else np.zeros(self.mesh.num_elements)))
        xi = self.xi_all()
        # eta_U is zero for the centered scheme, and adding it changes nothing
        total = xi.copy() if policy == XI else np.sqrt(
            sum(values**2 for values in summed.values()))
        return EstimatorBreakdown(**summed, xi=xi, total=total)
