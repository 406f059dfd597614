"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL line
per criterion.  The expensive refinement studies are shared through
module-scoped fixtures; the full module takes a few minutes.
"""

import math

import numpy as np
import pytest

from rtadapt import adapt, assembly, quadrature as quad, solver, verify
from rtadapt.assembly import (Discretization, assemble_centered,
                              assemble_upwind)
from rtadapt.estimators import EstimatorContext
from rtadapt.mesh import DIRICHLET, Triangulation
from rtadapt.postprocess import build_ptilde, ptilde_values, \
    tangential_jump_sq
from rtadapt.problem import ProblemData, benchmark

from oracles import (ORACLE_EDGE, ORACLE_TRI, barycenters,
                     boundary_identity_energy, edge_patch,
                     flux_through_edge, local_matrices, ptilde_gradient,
                     single_weighting_jump_sq, upwind_value_coeffs,
                     weighted, xi_reference)


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}",
          flush=True)


def solve_state(data, mesh, scheme):
    assemble = assemble_centered if scheme == "centered" else assemble_upwind
    disc = Discretization(mesh, data)
    solution = solver.solve(assemble(disc))
    return solution, EstimatorContext(disc, solution)


# ----------------------------------------------------------------------
# shared expensive runs
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def lshape_runs():
    domain, data, exact = benchmark("lshape")
    mesh = data.initial_mesh(domain)
    adaptive = adapt.adaptive_loop(data, mesh, scheme="centered",
                                   policy="theorem", theta=0.5,
                                   max_iter=200, max_dof=20_000, exact=exact)
    uniform = adapt.adaptive_loop(data, mesh, scheme="centered",
                                  policy="theorem", theta=0.5,
                                  mode="uniform", max_iter=6, exact=exact)
    return data, exact, adaptive, uniform


@pytest.fixture(scope="module")
def kellogg_run():
    domain, data, exact = benchmark("kellogg1")
    mesh = data.initial_mesh(domain)
    result = adapt.adaptive_loop(data, mesh, scheme="centered", policy="xi",
                                 theta=0.7, max_iter=200, max_dof=45_000,
                                 exact=exact)
    return data, exact, result


@pytest.fixture(scope="module")
def solved_states():
    """(label, problem, mesh, scheme, solution, context) across the suite."""
    states = []
    for case, scheme, kw in (
        ("lshape", "centered", {}),
        ("kellogg1", "centered", {}),
        ("kellogg2", "centered", {}),
        ("layer", "centered", {"eps": 0.01, "a": 0.05}),
        ("layer", "upwind", {"eps": 0.01, "a": 0.05}),
        ("layer", "upwind", {"eps": 0.001, "a": 0.05}),
    ):
        domain, data, exact = benchmark(case, **kw)
        mesh = data.initial_mesh(domain)
        solution, ctx = solve_state(data, mesh, scheme)
        states.append((f"{case}/{scheme}/initial", data, mesh, scheme,
                       solution, ctx))
        run = adapt.adaptive_loop(data, mesh, scheme=scheme,
                                  policy="theorem", theta=0.5,
                                  max_iter=8, exact=exact)
        fine = run.mesh
        solution, ctx = solve_state(data, fine, scheme)
        states.append((f"{case}/{scheme}/adapted", data, fine, scheme,
                       solution, ctx))
    return states


# ----------------------------------------------------------------------
# criterion 1: local conservation
# ----------------------------------------------------------------------

def centered_conservation_defect(data, mesh, ctx, solution):
    """int_K (f - div u_h + (S^-1 u_h) . w - (r + div w) p_h)."""
    fields = ctx.fields
    fsrc = quad.SEVEN_POINT.integrate(ctx.disc.source, mesh.elem_area)
    div_term = 2.0 * ctx.flux.b * mesh.elem_area
    bary = barycenters(mesh)
    sinv_u_bar = np.einsum(
        "tab,tb->ta", fields.Sinv,
        ctx.flux.a + ctx.flux.b[:, None] * bary)
    conv_term = np.einsum("ta,ta->t", sinv_u_bar, fields.w) * mesh.elem_area
    react_term = fields.r * solution.pressure * mesh.elem_area
    return fsrc - div_term + conv_term - react_term, fsrc


def upwind_conservation_defect(data, mesh, ctx, solution):
    """int_K div u_h + sum_sigma phat w_K,sigma + r p_K |K| - int_K f."""
    fields = ctx.fields
    fsrc = quad.SEVEN_POINT.integrate(ctx.disc.source, mesh.elem_area)
    pd_mean = ctx.disc.pd_mean
    nu = assembly.upwind_weights(ctx.disc)
    defect = 2.0 * ctx.flux.b * mesh.elem_area \
        + fields.r * solution.pressure * mesh.elem_area - fsrc
    for t in range(mesh.num_elements):
        for i in range(3):
            e = mesh.elem_edges[t, i]
            w_ke = flux_through_edge(fields.w[t], mesh, t, i)
            if w_ke == 0.0:
                continue
            c_own, c_other = upwind_value_coeffs(
                float(nu[e]), w_ke, True)
            patch = edge_patch(mesh, e)
            if len(patch) == 2:
                other = patch[0] if patch[1] == t else patch[1]
                p_hat = c_own * solution.pressure[t] \
                    + c_other * solution.pressure[other]
            elif mesh.edge_flag[e] == DIRICHLET:
                p_hat = c_own * solution.pressure[t] + c_other * pd_mean[e]
            else:
                p_hat = solution.pressure[t]
            defect[t] += p_hat * w_ke
    return defect, fsrc


def test_criterion_1_local_conservation(solved_states):
    worst = 0.0
    worst_label = ""
    ok = True
    for label, data, mesh, scheme, solution, ctx in solved_states:
        if scheme == "centered":
            defect, fsrc = centered_conservation_defect(data, mesh, ctx,
                                                        solution)
        else:
            defect, fsrc = upwind_conservation_defect(data, mesh, ctx,
                                                      solution)
        bound = 1e-9 * (1.0 + np.abs(fsrc))
        ratio = float(np.max(np.abs(defect) / bound))
        if ratio > worst:
            worst, worst_label = ratio, label
        ok = ok and ratio <= 1.0
    report(1, ok, f"worst defect/bound = {worst:.2e} ({worst_label})")
    assert ok


# ----------------------------------------------------------------------
# criterion 2: postprocessing identities
# ----------------------------------------------------------------------

def test_criterion_2_postprocessing_identities(solved_states):
    worst_grad = 0.0
    worst_mean = 0.0
    for label, data, mesh, scheme, solution, ctx in solved_states:
        coeffs = build_ptilde(mesh, ctx.fields, solution)
        pts = quad.SEVEN_POINT.physical_points(mesh.elem_coords)
        grad = ptilde_gradient(coeffs, pts)
        u_h = ctx.flux.u(np.arange(mesh.num_elements), pts)
        S = data.table.S[mesh.elem_ancestor]
        resid = np.einsum("tab,tqb->tqa", S, grad) + u_h
        scale = 1.0 + np.abs(u_h).max()
        worst_grad = max(worst_grad, float(np.abs(resid).max() / scale))
        means = ptilde_values(coeffs, pts) @ quad.SEVEN_POINT.weights
        worst_mean = max(worst_mean,
                         float(np.abs(means - solution.pressure).max()))
    ok = worst_grad <= 1e-12 and worst_mean <= 1e-12
    report(2, ok, f"max |S grad ptilde + u_h| / (1+|u_h|) = {worst_grad:.2e}, "
                  f"max |mean(ptilde) - p_K| = {worst_mean:.2e}")
    assert ok


# ----------------------------------------------------------------------
# criterion 3: pure-diffusion reductions on the L-shape
# ----------------------------------------------------------------------

def test_criterion_3_pure_diffusion_reductions(lshape_runs):
    data, exact, adaptive, uniform = lshape_runs
    ok = True
    for result in (adaptive, uniform):
        bd = result.breakdown
        ok = ok and bool(np.all(bd.eta_D == 0.0))
        ok = ok and bool(np.all(bd.eta_R == 0.0))
        ok = ok and bool(np.all(bd.eta_C == 0.0))
        # total = sqrt(eta_NC^2); equal up to one rounding of the square
        ok = ok and bool(np.allclose(bd.total, bd.eta_NC,
                                     rtol=1e-14, atol=0.0))
    report(3, ok, "eta_D = eta_R = eta_C = 0 exactly, total = eta_NC")
    assert ok


# ----------------------------------------------------------------------
# criterion 4: Kellogg case 1, first iteration
# ----------------------------------------------------------------------

def test_criterion_4_kellogg_first_iteration(kellogg_run):
    """E_1 and eta_1 against references computed here, independently.

    E_1 comes from the boundary identity (exact for this pure-diffusion,
    f = 0 problem); the paper's 1.3665 lies 7% below it and is not
    reachable by a correct evaluation on this mesh.  eta_1 is checked
    against the documented xi formula; the paper's 5.0938 used an xi
    definition that is not available here, so both deviations from the
    paper are reported but not asserted.
    """
    data, exact, result = kellogg_run
    first = result.records[0]
    e1, eta1 = first.energy_error, first.eta

    domain, _, _ = benchmark("kellogg1")
    mesh = data.initial_mesh(domain)
    solution = solver.solve(assemble_centered(Discretization(mesh, data)))
    # the checkerboard's four coefficient classes meet only at the origin
    at_origin = np.all(mesh.vert_coords[mesh.elem_verts] == 0.0, axis=-1)
    e_ref = boundary_identity_energy(mesh, data, exact, solution)
    eta_ref = float(np.sqrt((xi_reference(mesh, data, exact, solution,
                                          at_origin.any(axis=1))**2).sum()))

    e_err = abs(e1 - e_ref) / e_ref
    eta_err = abs(eta1 - eta_ref) / eta_ref
    ok = e_err <= 1e-4 and eta_err <= 1e-9
    report(4, ok, f"E_1 = {e1:.6f} (identity {e_ref:.6f}, rel {e_err:.1e}; "
                  f"paper 1.3665, dev {abs(e1 - 1.3665) / 1.3665:.2%}), "
                  f"eta_1 = {eta1:.6f} (oracle {eta_ref:.6f}, "
                  f"rel {eta_err:.1e}; paper 5.0938, "
                  f"dev {abs(eta1 - 5.0938) / 5.0938:.2%})")
    assert ok


# ----------------------------------------------------------------------
# criterion 5: Kellogg case 1 asymptotics
# ----------------------------------------------------------------------

def test_criterion_5_kellogg_asymptotics(kellogg_run):
    data, exact, result = kellogg_run
    records = result.records
    dofs = [r.dof for r in records]
    errs = [r.energy_error for r in records]
    etas = [r.eta for r in records]
    eoc_e = verify.eoc(dofs, errs)
    eoc_eta = verify.eoc(dofs, etas)
    in_band = [
        0.39 <= eoc_e[i] <= 0.55 and 0.39 <= eoc_eta[i] <= 0.55
        for i in range(len(eoc_e)) if dofs[i + 1] > 10_000
    ]
    streak = best = 0
    for flag in in_band:
        streak = streak + 1 if flag else 0
        best = max(best, streak)
    terminal = dofs[-1]
    ok = best >= 3 and 40_000 <= terminal <= 150_000
    report(5, ok, f"{best} consecutive in-band EOC pairs beyond dof 1e4 "
                  f"(of {len(in_band)}), terminal dof {terminal}")
    assert ok


# ----------------------------------------------------------------------
# criterion 6: L-shape optimal rate and localization
# ----------------------------------------------------------------------

def test_criterion_6_lshape_rates(lshape_runs):
    data, exact, adaptive, uniform = lshape_runs
    dofs = np.array([r.dof for r in adaptive.records], dtype=float)
    errs = np.array([r.energy_error for r in adaptive.records])
    slope = np.polyfit(np.log(dofs[-5:]), np.log(errs[-5:]), 1)[0]

    dofs_u = np.array([r.dof for r in uniform.records], dtype=float)
    errs_u = np.array([r.energy_error for r in uniform.records])
    # the last three records, one per halving of h, span 384-6,144 elements
    slope_u = np.polyfit(np.log(dofs_u[-3:]), np.log(errs_u[-3:]), 1)[0]

    bary = barycenters(adaptive.mesh)
    near = np.hypot(bary[:, 0], bary[:, 1]) < 0.1
    frac = float(near.mean())
    area_frac = (0.75 * math.pi * 0.1**2) / 3.0

    ok = (-0.6 <= slope <= -0.4
          and abs(slope) - abs(slope_u) >= 0.07
          and frac >= 10.0 * area_frac)
    report(6, ok, f"adaptive slope {slope:.3f}, uniform {slope_u:.3f}, "
                  f"origin fraction {frac:.3f} (need >= {10 * area_frac:.3f})")
    assert ok


# ----------------------------------------------------------------------
# criterion 7: layer localization
# ----------------------------------------------------------------------

def test_criterion_7_layer_localization():
    domain, data, exact = benchmark("layer", eps=0.001, a=0.05)
    mesh = data.initial_mesh(domain)
    result = adapt.adaptive_loop(data, mesh, scheme="upwind",
                                 policy="theorem", theta=0.5,
                                 max_iter=200, max_dof=15_000, exact=exact)
    bary = barycenters(result.mesh)
    frac = float((np.abs(bary[:, 0] - 0.5) < 0.15).mean())
    ok = frac >= 0.5
    report(7, ok, f"{frac:.1%} of {result.mesh.num_elements} elements "
                  f"within |x - 0.5| < 0.15")
    assert ok


# ----------------------------------------------------------------------
# criterion 8: robustness of the run-wise reliability constants
# ----------------------------------------------------------------------

def test_criterion_8_layer_robustness():
    constants = {}
    for eps in (1e-1, 1e-2, 1e-3):
        domain, data, exact = benchmark("layer", eps=eps, a=0.1)
        mesh = data.initial_mesh(domain)
        result = adapt.adaptive_loop(data, mesh, scheme="centered",
                                     policy="theorem", theta=0.5,
                                     max_iter=250, max_dof=60_000,
                                     exact=exact)
        errs = np.array([r.energy_error for r in result.records])
        etas = np.array([r.eta for r in result.records])
        constants[eps] = float(np.max(errs / etas))
    spread = max(constants.values()) / min(constants.values())
    ok = spread <= 3.0
    raw = ", ".join(f"eps={k:g}: C_rel={v:.4f}" for k, v in constants.items())
    report(8, ok, f"{raw}; max/min = {spread:.2f}")
    assert ok


# ----------------------------------------------------------------------
# criterion 9: oracle equivalence on randomized patches
# ----------------------------------------------------------------------

def random_patch(rng):
    """Two-triangle patch across a random interior edge, random SPD data."""
    base = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    jitter = rng.uniform(-0.25, 0.25, size=(4, 2))
    coords = base + jitter
    mesh = Triangulation(coords, np.array([[0, 1, 2], [0, 2, 3]]))
    coeffs = []
    for _ in range(2):
        Q = rng.normal(size=(2, 2))
        S = Q @ Q.T + 0.4 * np.eye(2)
        coeffs.append((S, rng.normal(size=2), float(rng.uniform(0.0, 2.0))))
    poly = rng.normal(size=6)

    def f(x, y):
        return (poly[0] + poly[1] * x + poly[2] * y + poly[3] * x * x
                + poly[4] * x * y + poly[5] * y * y)

    data = ProblemData(*map(np.array, zip(*coeffs)), f=f)
    return mesh, data


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    oracle_rule = ORACLE_TRI
    for _ in range(100):
        mesh, data = random_patch(rng)
        fields = data.fields(mesh)
        local = local_matrices(Discretization(mesh, data))
        C = assembly.basis_factors(mesh).T
        coords = mesh.elem_coords
        pts = oracle_rule.physical_points(coords)

        # mass matrices against the collapsed-Gauss oracle
        for t in range(2):
            phi = C[t][None, :, None] * (pts[t][:, None, :] - coords[t])
            sinv_phi = np.einsum("ab,qib->qia", fields.Sinv[t], phi)
            oracle_M = np.einsum(
                "qia,qja,q->ij", sinv_phi, phi, oracle_rule.weights
            ) * mesh.elem_area[t]
            dev = np.abs(local[t].M - oracle_M).max() / (1 + np.abs(oracle_M).max())
            worst = max(worst, float(dev))

        solution = assembly.MixedSolution(rng.normal(size=mesh.num_edges),
                                          rng.normal(size=2), "centered")
        ctx = EstimatorContext(Discretization(mesh, data), solution)

        # volume estimator integrals
        vals = weighted(ctx.flux, np.arange(2), pts)
        oracle_norm = oracle_rule.integrate((vals**2).sum(axis=-1),
                                            mesh.elem_area)
        dev = np.abs(ctx.norm_sq - oracle_norm).max() / (1 + oracle_norm.max())
        worst = max(worst, float(dev))

        # residual estimator against an independent recomputation
        got_eta_r = ctx.eta_R_all()
        alpha, beta = ctx.weights
        for t in range(2):
            u = ctx.flux.a[t] + ctx.flux.b[t] * pts[t]
            sinv_u = u @ fields.Sinv[t].T
            resid = (data.f(pts[t][:, 0], pts[t][:, 1]) - 2.0 * ctx.flux.b[t]
                     + sinv_u @ fields.w[t]
                     - fields.r[t] * solution.pressure[t])
            r_sq = oracle_rule.integrate(resid**2, mesh.elem_area[t])
            u_sq = oracle_rule.integrate((sinv_u**2).sum(axis=-1),
                                         mesh.elem_area[t])
            oracle_eta = math.sqrt(alpha[t]**2 * r_sq + beta[t]**2 * u_sq)
            dev = abs(got_eta_r[t] - oracle_eta) / (1 + oracle_eta)
            worst = max(worst, float(dev))

        # tangential jump integrals against the dense edge rule
        got_j = tangential_jump_sq(ctx.flux)[0]
        oracle_j = single_weighting_jump_sq(mesh, ctx.flux,
                                            rule=ORACLE_EDGE)
        dev = np.abs(got_j - oracle_j).max() / (1 + oracle_j.max())
        worst = max(worst, float(dev))

    ok = worst <= 1e-10
    report(9, ok, f"worst relative oracle deviation {worst:.2e} "
                  f"over 100 random patches")
    assert ok


# ----------------------------------------------------------------------
# criterion 10: scheme-limit equivalence
# ----------------------------------------------------------------------

def test_criterion_10_scheme_limit():
    domain, data, _ = benchmark("kellogg1")
    mesh = data.initial_mesh(domain)
    for _ in range(2):
        mesh = mesh.uniform_refine()
    sol_c = solver.solve(assemble_centered(Discretization(mesh, data)))
    sol_u = solver.solve(assemble_upwind(Discretization(mesh, data)))
    scale = np.abs(sol_c.flux).max()
    flux_dev = float(np.abs(sol_c.flux - sol_u.flux).max() / scale)
    eta_u = EstimatorContext(Discretization(mesh, data), sol_u).eta_U_all()
    ok = flux_dev <= 1e-10 and bool(np.all(eta_u == 0.0))
    report(10, ok, f"flux deviation {flux_dev:.2e}, eta_U identically zero: "
                   f"{bool(np.all(eta_u == 0.0))}")
    assert ok
