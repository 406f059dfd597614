"""Problem data, the coefficient table, patch weights and benchmarks.

Coefficients are piecewise constant on the original triangulation; refined
elements inherit them through their coarse ancestor, so no interpolation
error ever enters.  Degenerate weights follow the convention that any
quotient with a vanishing reaction is zero whenever its numerator
vanishes (which the data assumptions force).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import mesh as meshmod
from .mesh import DIRICHLET, NEUMANN, Triangulation


class ProblemDataError(Exception):
    """Coefficient data violating the admissibility assumptions."""


@dataclass
class PatchQuantities:
    """Coefficient-variation weights over vertex-neighbor patches.

    Per edge: lam_sigma (largest C_S touching the edge) and
    lam_w_sigma = min(velocity/reaction quotient, mesh Peclet quotient).
    Per element: lam_wr (largest reaction over the patch) and C_S_patch
    (largest C_S over the patch).
    """

    lam_sigma: np.ndarray
    lam_w_sigma: np.ndarray
    lam_wr: np.ndarray
    C_S_patch: np.ndarray


@dataclass
class CoefficientFields:
    """Coefficients and their bounds, one row per element.

    c_S and C_S are the extreme eigenvalues of S, C_w = |w|.  The velocity
    is constant on every element, so div w = 0 and the convection-reaction
    bounds of the analysis reduce to the reaction: c_wr = C_wr = r.
    """

    S: np.ndarray | None   # (NT, 2, 2); None on a mesh, where S^-1 serves
    Sinv: np.ndarray       # (NT, 2, 2)
    Sinvhalf: np.ndarray   # (NT, 2, 2)
    w: np.ndarray          # (NT, 2)
    r: np.ndarray          # (NT,)
    c_S: np.ndarray
    C_S: np.ndarray
    C_w: np.ndarray

    def __getattr__(self, name: str) -> np.ndarray:
        """Gather a field of ``ProblemData.fields`` on its first read."""
        if "_rows" not in vars(self):    # a table, or a copy being built
            raise AttributeError(name)
        # np.take gathers rows several times faster than values[rows]
        values = np.take(getattr(self._table, name), self._rows, axis=0)
        setattr(self, name, values)
        return values


def coefficient_table(S, w, r) -> CoefficientFields:
    """Validate per-element S (n, 2, 2), w (n, 2) and r (n,) and derive
    S^-1, S^-1/2 and the bounds in one array pass.

    Raises ProblemDataError for mismatched shapes, a non-symmetric or
    non-SPD tensor (NaN included), a non-finite velocity or reaction, or a
    negative reaction.
    """
    S, w, r = (np.asarray(x, dtype=float) for x in (S, w, r))
    n = r.shape[0] if r.ndim == 1 else -1
    if S.shape != (n, 2, 2) or w.shape != (n, 2):
        raise ProblemDataError(
            f"coefficient shapes {S.shape}, {w.shape}, {r.shape} are not "
            "(n, 2, 2), (n, 2), (n,)")
    a, b, c, d = S[:, 0, 0], S[:, 0, 1], S[:, 1, 0], S[:, 1, 1]
    if np.any(abs(b - c) > 1e-14 * (1 + abs(S).max(axis=(1, 2)))):
        raise ProblemDataError("S must be symmetric")
    half_trace = 0.5 * (a + d)
    radius = np.hypot(0.5 * (a - d), b)
    c_S = half_trace - radius
    if not np.all(c_S > 0.0):
        raise ProblemDataError(
            f"diffusion tensor not SPD (min eigenvalue {c_S.min()})")
    for name, values in (("velocity", w), ("reaction", r)):
        if not np.all(np.isfinite(values)):
            raise ProblemDataError(f"{name} not finite")
    if not np.all(r >= 0.0):
        raise ProblemDataError(f"reaction {r.min()} negative")
    Sinv = np.empty_like(S)
    Sinv[:, 0, 0], Sinv[:, 0, 1], Sinv[:, 1, 0], Sinv[:, 1, 1] = d, -b, -c, a
    Sinv /= (a * d - b * c)[:, None, None]
    vals, vecs = np.linalg.eigh(S)
    Sinvhalf = (vecs / np.sqrt(vals)[:, None, :]) @ vecs.swapaxes(1, 2)
    return CoefficientFields(S, Sinv, Sinvhalf, w, r, c_S, half_trace + radius,
                             np.hypot(w[:, 0], w[:, 1]))


class ProblemData:
    """Coefficients on the original mesh plus source and boundary data.

    Parameters
    ----------
    S, w, r : arrays (n, 2, 2), (n, 2) and (n,)
        Diffusion tensor, velocity and reaction, one row per element of
        the original triangulation; kept as ``table``, a
        ``CoefficientFields`` over those elements.
    f : callable (x, y) -> values
    dirichlet_data : callable (x, y) -> values, used on Dirichlet edges
    neumann_data : callable (x, y) -> values (outward normal flux), used
        on Neumann edges
    boundary_rule : callable (x, y) -> flag for boundary-edge midpoints
    """

    def __init__(self, S, w, r, f: Callable = None,
                 dirichlet_data: Callable = None,
                 neumann_data: Callable = None,
                 boundary_rule: Callable = None):
        self.table = coefficient_table(S, w, r)
        # data not given is zero, and a zero source is never evaluated
        self.has_source = f is not None
        self.f, self.dirichlet_data, self.neumann_data = (
            g if g is not None else (lambda x, y: np.zeros_like(x))
            for g in (f, dirichlet_data, neumann_data))
        self.boundary_rule = boundary_rule

    def initial_mesh(self, domain: str) -> Triangulation:
        m = meshmod.build_initial_mesh(domain)
        if self.table.r.size != m.num_elements:
            raise ProblemDataError(
                f"{self.table.r.size} coefficient sets for "
                f"{m.num_elements} coarse elements"
            )
        if self.boundary_rule is not None:
            m = meshmod.apply_boundary_rule(m, self.boundary_rule)
        return m

    def fields(self, mesh: Triangulation) -> CoefficientFields:
        """The coefficient table on the mesh elements via their coarse
        ancestors, all of it but S, each field gathered on its first read."""
        anc = mesh.elem_ancestor
        if anc.max(initial=-1) >= self.table.r.size:
            raise ProblemDataError("mesh ancestor outside the coefficient table")
        fields = object.__new__(CoefficientFields)
        fields.S, fields._table, fields._rows = None, self.table, anc
        return fields


def patch_quantities(mesh: Triangulation, fields: CoefficientFields
                     ) -> PatchQuantities:
    """Vertex-neighbor maxima of the coefficient bounds.

    "Touching" means a nonempty closure intersection, so patches include
    elements meeting an edge or element only at a vertex.
    """
    tv = mesh.elem_verts
    ev = mesh.edge_verts

    def star_max(values):
        out = np.zeros(mesh.num_vertices)
        np.maximum.at(out, tv.ravel(), np.repeat(values, 3))
        return out

    def edge_max(star):
        return np.maximum(star[ev[:, 0]], star[ev[:, 1]])

    def elem_max(star):
        return np.maximum.reduce([star[tv[:, i]] for i in range(3)])

    # C_w / sqrt(r) with 0/0 := 0 and x/0 := inf
    root = np.sqrt(fields.r)
    w_quot = np.divide(fields.C_w, root, out=np.full(root.shape, np.inf),
                       where=root > 0.0)
    w_quot[fields.C_w == 0.0] = 0.0
    star_cs = star_max(fields.C_S)
    peclet = star_max(mesh.elem_diam * fields.C_w / np.sqrt(fields.c_S))
    lam_w_sigma = np.minimum(edge_max(star_max(w_quot)), edge_max(peclet))
    if not np.all(np.isfinite(lam_w_sigma)):
        raise ProblemDataError(
            "edge convection weight is infinite; data violate (D6)")
    return PatchQuantities(edge_max(star_cs), lam_w_sigma,
                           elem_max(star_max(fields.r)), elem_max(star_cs))


@dataclass(frozen=True)
class ExactSolution:
    """Reference solution for error computation.

    ``p(x, y)`` is the scalar displacement, which the benchmarks also take
    as their Dirichlet datum.  ``u_and_p(x, y)`` returns the flux u =
    -S grad p, shape (..., 2), and p at the same points from one
    evaluation.  ``singular_points`` lists the points (x, y) where grad p
    is unbounded; error integrals use a singularity-aware rule on elements
    having such a point as a vertex.
    """

    p: Callable
    u_and_p: Callable
    singular_points: tuple = ()


# ----------------------------------------------------------------------
# benchmarks
# ----------------------------------------------------------------------

CORNER_CASES = {
    # domain, alpha, (s_1..s_4), (a_1..a_4), (b_1..b_4) per quadrant
    "lshape": ("lshape", 2.0 / 3.0, (1.0,) * 4, (1.0,) * 4, (0.0,) * 4),
    "kellogg1": (
        "square2x2", 0.53544095,
        (5.0, 1.0, 5.0, 1.0),
        (0.44721360, -0.74535599, -0.94411759, -2.40170264),
        (1.00000000, 2.33333333, 0.55555555, -0.48148148),
    ),
    "kellogg2": (
        "square2x2", 0.12690207,
        (100.0, 1.0, 100.0, 1.0),
        (0.10000000, -9.60396040, -0.48035487, 7.70156488),
        (1.00000000, 2.96039604, -0.88275659, -6.45646175),
    ),
}


def _corner_exact(alpha: float, s_vals, a_vals, b_vals) -> ExactSolution:
    """Corner singularity p = r^alpha (a_i sin(alpha theta) + b_i cos(alpha
    theta)) with u = -s_i grad p in quadrant i (Kellogg's form), theta in
    [0, 2 pi)."""
    a_vals = np.asarray(a_vals)
    b_vals = np.asarray(b_vals)
    s_vals = np.asarray(s_vals)

    def polar(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        theta = np.where(theta < 0.0, theta + 2.0 * math.pi, theta)
        # theta >= 0, so truncation is the floor, and cheaper than //
        quad = np.minimum((theta / (0.5 * math.pi)).astype(int), 3)
        return r, theta, quad

    def value(r, phi):
        with np.errstate(invalid="ignore"):
            out = r**alpha * phi
        return np.where(r == 0.0, 0.0, out)

    def p(x, y):
        r, theta, quad = polar(x, y)
        return value(r, a_vals[quad] * np.sin(alpha * theta)
                     + b_vals[quad] * np.cos(alpha * theta))

    def u_and_p(x, y):
        """u = -s_i grad p and p from one polar evaluation; -s_i scales
        the radial and angular parts of grad p before they are combined.
        Each array is dropped once read, for fewer alive at the peak."""
        r, theta, quad = polar(x, y)
        a, b = a_vals[quad], b_vals[quad]
        sin_a, cos_a = np.sin(alpha * theta), np.cos(alpha * theta)
        phi = a * sin_a + b * cos_a
        dphi = a * cos_a - b * sin_a
        del a, b, sin_a, cos_a
        power = np.where(r == 0.0, 1.0, r) ** (alpha - 1.0)
        radial = alpha * power * phi
        angular = power * (alpha * dphi)
        del dphi, power
        scale = -s_vals[quad]
        radial *= scale
        angular *= scale
        del scale, quad
        p_values = value(r, phi)
        del phi
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        del theta
        zero = r == 0.0
        u = np.empty(r.shape + (2,))
        u[..., 0] = np.where(zero, 0.0, radial * cos_t - angular * sin_t)
        u[..., 1] = np.where(zero, 0.0, radial * sin_t + angular * cos_t)
        return u, p_values

    return ExactSolution(p, u_and_p, singular_points=((0.0, 0.0),))


def _layer_exact(eps: float, a: float) -> ExactSolution:
    """p = (1 - tanh((1/2 - x) / a)) / 2, constant in y, and u = -eps grad
    p."""
    def profile(x, y):
        """The offset (1/2 - x) / a and ones in the shape of y."""
        x = np.asarray(x, dtype=float)
        return (0.5 - x) / a, np.ones_like(np.asarray(y, dtype=float))

    def p(x, y):
        z, ones = profile(x, y)
        return 0.5 * (1.0 - np.tanh(z)) * ones

    def u_and_p(x, y):
        z, ones = profile(x, y)
        p_x = 0.5 / (a * np.cosh(z) ** 2)
        u = -eps * np.stack([p_x * ones, np.zeros_like(ones)], axis=-1)
        return u, 0.5 * (1.0 - np.tanh(z)) * ones

    return ExactSolution(p, u_and_p)


# every benchmark and the parameters it takes, with their defaults: the
# corner cases take none, the internal layer its diffusion eps and its
# width a
BENCHMARKS = {**{case: {} for case in CORNER_CASES},
              "layer": {"eps": 1e-3, "a": 0.05}}


def benchmark(case_id: str, **params
              ) -> tuple[str, ProblemData, ExactSolution]:
    """Benchmark problem definitions.

    Returns (domain id, problem data, exact solution).  ``params`` set the
    parameters that ``BENCHMARKS`` declares for the case, which default to
    the values declared there; any other parameter is refused.
    """
    if case_id not in BENCHMARKS:
        raise ProblemDataError(f"unknown benchmark {case_id!r}")
    for key in params:
        if key not in BENCHMARKS[case_id]:
            raise ProblemDataError(
                f"benchmark {case_id!r} takes no parameter {key!r}")
    eye = np.eye(2)
    if case_id in CORNER_CASES:
        domain, *case = CORNER_CASES[case_id]
        exact = _corner_exact(*case)
        # two coarse triangles per quadrant, quadrants in order; the
        # L-shape has three
        s = np.repeat(case[1], 2)[:len(meshmod.COARSE_MESHES[domain][1])]
        data = ProblemData(s[:, None, None] * eye, np.zeros((s.size, 2)),
                           np.zeros(s.size), dirichlet_data=exact.p)
        return domain, data, exact

    layer = {**BENCHMARKS[case_id], **params}
    eps, a = layer["eps"], layer["a"]
    if not (0.0 < eps < math.inf and 0.0 < a < math.inf):
        raise ProblemDataError("layer benchmark needs eps and a in (0, inf)")
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

    data = ProblemData(np.tile(eps * eye, (8, 1, 1)),
                       np.tile([0.0, 1.0], (8, 1)), np.ones(8), f=f,
                       dirichlet_data=exact.p, boundary_rule=boundary_rule)
    return "unit-square", data, exact
