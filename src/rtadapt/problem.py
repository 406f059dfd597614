"""Problem data, derived coefficient bounds, and benchmark definitions.

Coefficients are piecewise constant on the original triangulation; refined
elements inherit them through their coarse ancestor, so no interpolation
error ever enters.  Degenerate weights follow the convention that any
quotient with a vanishing reaction-convection constant is zero whenever
its numerator vanishes (which the data assumptions force).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import mesh as meshmod
from .mesh import DIRICHLET, NEUMANN, Triangulation


class ProblemDataError(Exception):
    """Coefficient data violating the admissibility assumptions."""


@dataclass(frozen=True)
class ElementCoefficients:
    """Constant coefficients on one coarse element.

    S : 2x2 symmetric positive-definite diffusion tensor
    w : constant velocity vector
    r : reaction constant
    divw : divergence of the velocity (0 for constant w)
    """

    S: np.ndarray
    w: np.ndarray
    r: float
    divw: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "S", np.asarray(self.S, dtype=float))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        if self.S.shape != (2, 2):
            raise ProblemDataError("S must be 2x2")
        if abs(self.S[0, 1] - self.S[1, 0]) > 1e-14 * (1 + abs(self.S).max()):
            raise ProblemDataError("S must be symmetric")

    @property
    def c_wr(self) -> float:
        return 0.5 * self.divw + self.r

    @property
    def C_wr(self) -> float:
        return abs(self.divw + self.r)


@dataclass(frozen=True)
class CoefficientBounds:
    """Per-element scalar bounds derived from ElementCoefficients."""

    c_S: float
    C_S: float
    C_w: float
    c_wr: float
    C_wr: float
    C_divw: float


def derive_bounds(c: ElementCoefficients) -> CoefficientBounds:
    """Exact eigenvalue bounds and convection-reaction constants.

    Raises ProblemDataError for a non-SPD tensor, negative combined
    reaction, or data violating the degenerate-case compatibility rule.
    """
    a, b, d = c.S[0, 0], c.S[0, 1], c.S[1, 1]
    half_trace = 0.5 * (a + d)
    radius = math.hypot(0.5 * (a - d), b)
    c_s = half_trace - radius
    c_big = half_trace + radius
    if c_s <= 0.0:
        raise ProblemDataError(f"diffusion tensor not SPD (min eigenvalue {c_s})")
    c_wr = c.c_wr
    if c_wr < 0.0:
        raise ProblemDataError(f"combined reaction {c_wr} negative")
    if c_wr == 0.0 and c.C_wr != 0.0:
        raise ProblemDataError(
            "vanishing combined reaction requires a vanishing reaction bound"
        )
    return CoefficientBounds(
        c_S=c_s,
        C_S=c_big,
        C_w=float(np.hypot(c.w[0], c.w[1])),
        c_wr=c_wr,
        C_wr=c.C_wr,
        C_divw=abs(c.divw),
    )


@dataclass
class PatchQuantities:
    """Coefficient-variation weights over vertex-neighbor patches.

    Per edge: lam_sigma (largest C_S touching the edge) and
    lam_w_sigma = min(velocity/reaction quotient, mesh Peclet quotient).
    Per element: lam_wr (largest combined reaction over the patch) and
    lam_divw (largest divergence quotient over the patch).
    """

    lam_sigma: np.ndarray
    lam_w_sigma: np.ndarray
    lambda_w_sigma: np.ndarray
    p_w_sigma: np.ndarray
    lam_wr: np.ndarray
    lam_divw: np.ndarray
    C_S_patch: np.ndarray


@dataclass
class CoefficientFields:
    """Coefficient data gathered onto the elements of one mesh."""

    S: np.ndarray          # (NT, 2, 2)
    Sinv: np.ndarray       # (NT, 2, 2)
    Sinvhalf: np.ndarray   # (NT, 2, 2)
    w: np.ndarray          # (NT, 2)
    r: np.ndarray          # (NT,)
    divw: np.ndarray       # (NT,)
    c_S: np.ndarray
    C_S: np.ndarray
    C_w: np.ndarray
    c_wr: np.ndarray
    C_wr: np.ndarray
    C_divw: np.ndarray


def _sym_inv(S: np.ndarray) -> np.ndarray:
    det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    return np.array([[S[1, 1], -S[0, 1]], [-S[1, 0], S[0, 0]]]) / det


def _sym_inv_sqrt(S: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(S)
    return (vecs / np.sqrt(vals)) @ vecs.T


class ProblemData:
    """Coefficients on the original mesh plus source and boundary data.

    Parameters
    ----------
    coefficients : sequence of ElementCoefficients
        One entry per element of the original triangulation.
    f : callable (x, y) -> values
    dirichlet_data : callable (x, y) -> values, used on Dirichlet edges
    neumann_data : callable (x, y) -> values (outward normal flux), used
        on Neumann edges
    boundary_rule : callable (x, y) -> flag for boundary-edge midpoints
    """

    def __init__(self, coefficients: Sequence[ElementCoefficients],
                 f: Callable = None, dirichlet_data: Callable = None,
                 neumann_data: Callable = None,
                 boundary_rule: Callable = None):
        self.coefficients = list(coefficients)
        self.bounds = [derive_bounds(c) for c in self.coefficients]
        self.f = f if f is not None else (lambda x, y: np.zeros_like(x))
        self.dirichlet_data = (dirichlet_data if dirichlet_data is not None
                               else (lambda x, y: np.zeros_like(x)))
        self.neumann_data = (neumann_data if neumann_data is not None
                             else (lambda x, y: np.zeros_like(x)))
        self.boundary_rule = boundary_rule
        self._Sinv = [_sym_inv(c.S) for c in self.coefficients]
        self._Sinvhalf = [_sym_inv_sqrt(c.S) for c in self.coefficients]

    def initial_mesh(self, domain: str) -> Triangulation:
        m = meshmod.build_initial_mesh(domain)
        if len(self.coefficients) != m.num_elements:
            raise ProblemDataError(
                f"{len(self.coefficients)} coefficient sets for "
                f"{m.num_elements} coarse elements"
            )
        if self.boundary_rule is not None:
            m = meshmod.apply_boundary_rule(m, self.boundary_rule)
        return m

    def fields(self, mesh: Triangulation) -> CoefficientFields:
        """Gather coefficients onto the mesh elements via coarse ancestors."""
        anc = mesh.elem_ancestor
        if anc.max(initial=-1) >= len(self.coefficients):
            raise ProblemDataError("mesh ancestor outside the coefficient table")

        def gather(values):
            return np.asarray(values)[anc]

        return CoefficientFields(
            S=gather([c.S for c in self.coefficients]),
            Sinv=gather(self._Sinv),
            Sinvhalf=gather(self._Sinvhalf),
            w=gather([c.w for c in self.coefficients]),
            r=gather([c.r for c in self.coefficients]),
            divw=gather([c.divw for c in self.coefficients]),
            c_S=gather([b.c_S for b in self.bounds]),
            C_S=gather([b.C_S for b in self.bounds]),
            C_w=gather([b.C_w for b in self.bounds]),
            c_wr=gather([b.c_wr for b in self.bounds]),
            C_wr=gather([b.C_wr for b in self.bounds]),
            C_divw=gather([b.C_divw for b in self.bounds]),
        )


def patch_quantities(mesh: Triangulation, fields: CoefficientFields
                     ) -> PatchQuantities:
    """Vertex-neighbor maxima of the coefficient bounds.

    "Touching" means a nonempty closure intersection, so patches include
    elements meeting an edge or element only at a vertex.
    """
    tv = mesh.elem_verts

    def star_max(values):
        out = np.zeros(mesh.num_vertices)
        np.maximum.at(out, tv.ravel(), np.repeat(values, 3))
        return out

    def reaction_quotient(numerator):
        """numerator / sqrt(c_wr) with 0/0 := 0 and x/0 := inf."""
        root = np.sqrt(fields.c_wr)
        out = np.divide(numerator, root, out=np.full(root.shape, np.inf),
                        where=root > 0.0)
        out[numerator == 0.0] = 0.0
        return out

    star_cs = star_max(fields.C_S)
    star_cwr = star_max(fields.c_wr)
    star_divq = star_max(reaction_quotient(fields.C_divw))
    star_wq = star_max(reaction_quotient(fields.C_w))
    star_peclet = star_max(mesh.elem_diam * fields.C_w / np.sqrt(fields.c_S))

    ev = mesh.edge_verts
    lam_sigma = np.maximum(star_cs[ev[:, 0]], star_cs[ev[:, 1]])
    lambda_w_sigma = np.maximum(star_wq[ev[:, 0]], star_wq[ev[:, 1]])
    p_w_sigma = np.maximum(star_peclet[ev[:, 0]], star_peclet[ev[:, 1]])
    lam_w_sigma = np.minimum(lambda_w_sigma, p_w_sigma)

    lam_wr = np.maximum.reduce([star_cwr[tv[:, i]] for i in range(3)])
    lam_divw = np.maximum.reduce([star_divq[tv[:, i]] for i in range(3)])
    c_s_patch = np.maximum.reduce([star_cs[tv[:, i]] for i in range(3)])

    for name, arr in (("edge convection weight", lam_w_sigma),
                      ("element divergence weight", lam_divw)):
        if not np.all(np.isfinite(arr)):
            raise ProblemDataError(f"{name} is infinite; data violate (D6)")
    return PatchQuantities(lam_sigma, lam_w_sigma, lambda_w_sigma,
                           p_w_sigma, lam_wr, lam_divw, c_s_patch)


@dataclass(frozen=True)
class ExactSolution:
    """Reference solution fields for error computation.

    ``singular_points`` lists the points (x, y) where grad p is unbounded;
    error integrals use a singularity-aware rule on elements having such
    a point as a vertex.
    """

    p: Callable
    grad_p: Callable
    u: Callable
    singular_points: tuple = ()


# ----------------------------------------------------------------------
# benchmarks
# ----------------------------------------------------------------------

KELLOGG_CASES = {
    # alpha, (s_1..s_4), (a_1..a_4), (b_1..b_4)
    1: (
        0.53544095,
        (5.0, 1.0, 5.0, 1.0),
        (0.44721360, -0.74535599, -0.94411759, -2.40170264),
        (1.00000000, 2.33333333, 0.55555555, -0.48148148),
    ),
    2: (
        0.12690207,
        (100.0, 1.0, 100.0, 1.0),
        (0.10000000, -9.60396040, -0.48035487, 7.70156488),
        (1.00000000, 2.96039604, -0.88275659, -6.45646175),
    ),
}


def _lshape_exact() -> ExactSolution:
    two_thirds = 2.0 / 3.0

    def polar(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        rho = np.hypot(x, y)
        theta = np.arctan2(y, x)
        theta = np.where(theta < 0.0, theta + 2.0 * math.pi, theta)
        return rho, theta

    def p(x, y):
        rho, theta = polar(x, y)
        with np.errstate(invalid="ignore"):
            out = rho**two_thirds * np.sin(two_thirds * theta)
        return np.where(rho == 0.0, 0.0, out)

    def grad_p(x, y):
        rho, theta = polar(x, y)
        safe = np.where(rho == 0.0, 1.0, rho)
        fac = two_thirds * safe ** (two_thirds - 1.0)
        s, c = np.sin(two_thirds * theta), np.cos(two_thirds * theta)
        gx = fac * (s * np.cos(theta) - c * np.sin(theta))
        gy = fac * (s * np.sin(theta) + c * np.cos(theta))
        zero = rho == 0.0
        return np.stack([np.where(zero, 0.0, gx), np.where(zero, 0.0, gy)],
                        axis=-1)

    def u(x, y):
        return -grad_p(x, y)

    return ExactSolution(p, grad_p, u, singular_points=((0.0, 0.0),))


def _kellogg_exact(case: int) -> ExactSolution:
    alpha, s_vals, a_vals, b_vals = KELLOGG_CASES[case]
    a_vals = np.asarray(a_vals)
    b_vals = np.asarray(b_vals)
    s_vals = np.asarray(s_vals)

    def polar(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        theta = np.where(theta < 0.0, theta + 2.0 * math.pi, theta)
        quad = np.minimum((theta // (0.5 * math.pi)).astype(int), 3)
        return r, theta, quad

    def p(x, y):
        r, theta, quad = polar(x, y)
        phi = a_vals[quad] * np.sin(alpha * theta) \
            + b_vals[quad] * np.cos(alpha * theta)
        with np.errstate(invalid="ignore"):
            out = r**alpha * phi
        return np.where(r == 0.0, 0.0, out)

    def gradient(x, y):
        """grad p and the quadrant index, from one polar evaluation."""
        r, theta, quad = polar(x, y)
        a, b = a_vals[quad], b_vals[quad]
        sin_a, cos_a = np.sin(alpha * theta), np.cos(alpha * theta)
        power = np.where(r == 0.0, 1.0, r) ** (alpha - 1.0)
        radial = alpha * power * (a * sin_a + b * cos_a)
        angular = power * (alpha * (a * cos_a - b * sin_a))
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        gx = radial * cos_t - angular * sin_t
        gy = radial * sin_t + angular * cos_t
        zero = r == 0.0
        return np.stack([np.where(zero, 0.0, gx), np.where(zero, 0.0, gy)],
                        axis=-1), quad

    def grad_p(x, y):
        return gradient(x, y)[0]

    def u(x, y):
        grad, quad = gradient(x, y)
        return -s_vals[quad][..., None] * grad

    return ExactSolution(p, grad_p, u, singular_points=((0.0, 0.0),))


def _layer_exact(eps: float, a: float) -> ExactSolution:
    def profile(x):
        return 0.5 * (1.0 - np.tanh((0.5 - x) / a))

    def p(x, y):
        x = np.asarray(x, dtype=float)
        return profile(x) * np.ones_like(np.asarray(y, dtype=float))

    def p_x(x):
        return 0.5 / (a * np.cosh((0.5 - x) / a) ** 2)

    def grad_p(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.stack([p_x(x) * np.ones_like(y), np.zeros_like(y)], axis=-1)

    def u(x, y):
        return -eps * grad_p(x, y)

    return ExactSolution(p, grad_p, u)


def benchmark(case_id: str, eps: float = 1e-3, a: float = 0.05
              ) -> tuple[str, ProblemData, ExactSolution]:
    """Benchmark problem definitions.

    Returns (domain id, problem data, exact solution).  ``eps`` and ``a``
    are only meaningful for the internal-layer case.
    """
    eye = np.eye(2)
    zero_w = np.zeros(2)
    if case_id == "lshape":
        exact = _lshape_exact()
        coeffs = [ElementCoefficients(eye, zero_w, 0.0) for _ in range(6)]
        data = ProblemData(coeffs, f=None, dirichlet_data=exact.p)
        return "lshape", data, exact

    if case_id in ("kellogg1", "kellogg2"):
        case = 1 if case_id == "kellogg1" else 2
        exact = _kellogg_exact(case)
        s_vals = KELLOGG_CASES[case][1]
        # two coarse triangles per quadrant, ordered quadrant 1..4
        coeffs = []
        for quad in range(4):
            for _ in range(2):
                coeffs.append(
                    ElementCoefficients(s_vals[quad] * eye, zero_w, 0.0)
                )
        data = ProblemData(coeffs, f=None, dirichlet_data=exact.p)
        return "square2x2", data, exact

    if case_id == "layer":
        if eps <= 0.0 or a <= 0.0:
            raise ProblemDataError("layer benchmark needs eps > 0 and a > 0")
        exact = _layer_exact(eps, a)

        def f(x, y):
            x = np.asarray(x, dtype=float)
            z = (0.5 - x) / a
            sech2 = 1.0 / np.cosh(z) ** 2
            p_xx = sech2 * np.tanh(z) / a**2
            return (-eps * p_xx + 0.5 * (1.0 - np.tanh(z))) \
                * np.ones_like(np.asarray(y, dtype=float))

        def boundary_rule(x, y):
            return NEUMANN if y > 1.0 - 1e-12 else DIRICHLET

        coeffs = [
            ElementCoefficients(eps * eye, np.array([0.0, 1.0]), 1.0)
            for _ in range(8)
        ]
        data = ProblemData(coeffs, f=f, dirichlet_data=exact.p,
                           neumann_data=lambda x, y: np.zeros_like(x),
                           boundary_rule=boundary_rule)
        return "unit-square", data, exact

    raise ProblemDataError(f"unknown benchmark {case_id!r}")
