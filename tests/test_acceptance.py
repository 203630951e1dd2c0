"""Release gate: one test per advertised guarantee, at its pinned tolerance.

Run with -v to get a single PASS/FAIL line per guarantee.  Every test,
both breakdown thresholds included, runs in the default suite; the two
breakdown runs go to full depth and print their stop, grid and fit.
"""

import numpy as np

from ntcircle import (
    GOLDEN_MEAN,
    ContinuationPolicy,
    Forcing,
    QpProblem,
    QpState,
    StandardNonTwistMap,
    breakdown_extrapolate,
    continue_in_eps,
    fourier,
    frame_fields,
    half_shift_deviation,
    newton_solve,
    tangent,
    vartheta_general,
    vartheta_qp,
)
from ntcircle.maps import ParamPoint
from ntcircle.solver_general import (
    ambient_rotation_number,
    induced_internal_map,
    interp_stencil,
    rotation_number,
    sweep_parameter,
)
from ntcircle.solver_qp import TorusEmbedding
from dataclasses import replace

OMEGA = GOLDEN_MEAN
SIGMA = 0.8


def family(variant):
    return StandardNonTwistMap(SIGMA, variant)


def march(variant, eps_target, start=None, **problem_kw):
    """Continue a branch from the integrable circle to eps_target."""
    problem = QpProblem(family(variant), **problem_kw)
    if start is None:
        start = QpState.flat_start(64, OMEGA, problem.b_a0)
    result = continue_in_eps(problem, start, eps_target, ContinuationPolicy())
    assert result.reason == "target", f"stopped early: {result.reason}"
    return problem, result


def test_1_integrable_closed_form():
    # flat circles with prescribed twist: a = b/2, mu = omega - a^2,
    # K the zero section, unit mu-twist, a-twist at the prescribed level
    for b in (0.0, 0.2, -0.2):
        problem = QpProblem(family(Forcing.SYMMETRIC), b_a0=b)
        state = newton_solve(problem, QpState.flat_start(64, OMEGA, b))
        assert abs(state.a - b / 2.0) <= 1e-10
        assert abs(state.mu - (OMEGA - state.a ** 2)) <= 1e-10
        assert np.max(np.abs(state.k.eta_x)) <= 1e-10
        assert np.max(np.abs(state.k.k_y)) <= 1e-10
        assert abs(state.diagnostics.twist_mu - 1.0) <= 1e-10
        assert abs(state.diagnostics.twist_a - b) <= 1e-10


def test_2_symmetric_continuation_checkpoints():
    problem, res2 = march(Forcing.SYMMETRIC, 2.0, n_max=16384)
    state2 = res2.state
    assert abs(state2.mu - 0.6015602) <= 1e-6
    assert abs(state2.a) <= 1e-8

    res3 = continue_in_eps(problem, state2, 3.0, ContinuationPolicy())
    assert res3.reason == "target"
    assert abs(res3.state.mu - 0.5843217) <= 1e-6
    assert max(r.n for r in res2.records + res3.records) <= 16384


def test_3_nonsymmetric_continuation_checkpoints():
    problem, res1 = march(Forcing.NONSYMMETRIC, 1.0)
    state1 = res1.state
    assert abs(state1.a - 7.646104e-4) <= 1e-7
    assert abs(state1.mu - 0.6031124) <= 1e-6

    res2 = continue_in_eps(problem, state1, 1.2, ContinuationPolicy())
    assert res2.reason == "target"
    assert abs(res2.state.a - (-9.571568e-4)) <= 1e-7
    assert abs(res2.state.mu - 0.5951423) <= 1e-6
    assert max(abs(r.a) for r in res1.records + res2.records) <= 2.6e-3


def run_breakdown(variant, n_max):
    problem = QpProblem(family(variant), tol=1e-10, tol_phase=1e-12,
                        tol_twist=1e-10, n_max=n_max)
    policy = ContinuationPolicy(step_init=0.05, alpha_floor=1e-3)
    result = continue_in_eps(
        problem, QpState.flat_start(64, OMEGA, 0.0), 10.0, policy)
    assert result.reason in ("step-floor", "alpha-floor", "n-max")
    fit = breakdown_extrapolate(result.records, window=20)
    # one line to hold against the recorded baseline (pytest -rP shows it)
    print(f"{variant} breakdown: {result.reason} at eps = "
          f"{result.state.eps:.6f} on N = {result.state.k.n}, "
          f"{len(result.records)} records, eps_c = {fit.eps_c:.7f}, "
          f"reliable = {fit.reliable}")
    return fit


def test_4a_breakdown_threshold_symmetric():
    fit = run_breakdown(Forcing.SYMMETRIC, 1 << 18)
    assert fit.reliable
    assert abs(fit.eps_c - 3.662396) <= 0.005 * 3.662396


def test_4b_breakdown_threshold_nonsymmetric():
    fit = run_breakdown(Forcing.NONSYMMETRIC, 1 << 19)
    assert fit.reliable
    assert abs(fit.eps_c - 1.240522) <= 0.005 * 1.240522


def test_5_rotation_number_sweep():
    problem, res = march(Forcing.SYMMETRIC, 2.2)
    state = res.state
    assert abs(state.mu - 0.5984626) <= 1e-6
    assert abs(state.a) <= 1e-8

    xy0 = (state.k.eta_x[0], state.k.k_y[0])   # K(0)
    par = ParamPoint(state.a, state.mu, state.eps)

    recs = sweep_parameter(problem.family, par, xy0, "a", 0.1, 0.004)
    rho = {r.param: r for r in recs}
    grid = sorted(p for p in rho if p > 0.0 and -p in rho)

    # even in a, curving up at the non-twist point
    assert max(abs(rho[p].rho - rho[-p].rho) for p in grid) <= 1e-8
    h = grid[0]
    assert rho[h].rho - 2.0 * rho[0.0].rho + rho[-h].rho > 0.0

    # resonance plateau at 5/8 on both flanks
    for sign in (1.0, -1.0):
        plateau = [r for r in recs
                   if r.locked and sign * r.param > 0.0
                   and abs(r.rho - 0.625) <= 1e-8]
        assert plateau, f"5/8 plateau missing for a {'>' if sign > 0 else '<'} 0"

    # rho(mu) climbs monotonically away from plateaus
    recs_mu = sweep_parameter(problem.family, par, xy0, "mu", 0.012, 0.002)
    assert len(recs_mu) >= 9
    for lo, hi in zip(recs_mu, recs_mu[1:]):
        if lo.locked and hi.locked:
            assert abs(hi.rho - lo.rho) <= 1e-12
        else:
            assert hi.rho > lo.rho


def test_6_property_suite():
    rng = np.random.default_rng(7)

    # cohomological solvers against their defining identities
    u = fourier.PeriodicScalar(rng.standard_normal(256))
    xi = fourier.solve_contractive(u, SIGMA, OMEGA)
    res = float(np.max(np.abs(SIGMA * xi.values
                              - fourier.shift(xi, OMEGA).values
                              - u.values))) / u.sup()
    assert res <= 1e-10
    xi2, mean = fourier.solve_small_divisor(u, OMEGA)
    res2 = float(np.max(np.abs(xi2.values - fourier.shift(xi2, OMEGA).values
                               - (u.values - mean)))) / u.sup()
    assert res2 <= 1e-10

    # frame identities on a forced circle: det [L N] = N^T Omega L = 1
    problem, result = march(Forcing.SYMMETRIC, 0.5)
    state = result.state
    _, _, _, nx, ny = frame_fields(problem, state)
    l = tangent(state.k)
    pairing = l[0] * ny - l[1] * nx
    assert float(np.max(np.abs(pairing - 1.0))) <= 1e-10

    # both torsion solvers agree on rigid internal dynamics
    theta = fourier.grid(256)
    two_pi = 2.0 * np.pi
    t0 = 0.3 + 0.2 * np.sin(two_pi * theta) + 0.1 * np.cos(2.0 * two_pi * theta)
    vth_qp = vartheta_qp(t0, SIGMA, OMEGA)
    idx, w = interp_stencil(256, theta + OMEGA, 6)
    vth_gen, _ = vartheta_general(t0, np.ones(256), SIGMA, idx, w)
    assert float(np.max(np.abs(vth_qp - vth_gen))) <= 1e-9

    # analytic Jacobians against centered differences
    for variant in (Forcing.SYMMETRIC, Forcing.NONSYMMETRIC):
        fam = family(variant)
        x = rng.uniform(size=32)
        y = rng.uniform(-0.3, 0.7, size=32)
        par = ParamPoint(0.01, 0.6, 0.8)
        jac = np.asarray(fam.jacobian(x, y, par))
        h = 1e-6
        for col, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
            fp = fam.eval_lift(x + dx, y + dy, par)
            fm = fam.eval_lift(x - dx, y - dy, par)
            fd = np.array([(fp[0] - fm[0]), (fp[1] - fm[1])]) / (2.0 * h)
            assert float(np.max(np.abs(jac[:, col] - fd))) <= 1e-6

    # Newton contraction is quadratic while above the tolerance floor
    bump = 3e-3 * np.sin(2.0 * np.pi * fourier.grid(state.k.n))
    rough = replace(state,
                    k=TorusEmbedding(state.k.eta_x + bump, state.k.k_y - bump),
                    diagnostics=None)
    sol = newton_solve(problem, rough)
    decades = [h for h in sol.history if h > 100.0 * problem.tol]
    assert len(decades) >= 3
    exps = [np.log(decades[i + 2] / decades[i + 1])
            / np.log(decades[i + 1] / decades[i])
            for i in range(len(decades) - 2)]
    assert max(exps) >= 1.7

    # circle-map view of the converged circle rotates by omega, and so
    # does the ambient orbit from its point K(0): two independent checks
    # of the circle's rotation number
    par = ParamPoint(state.a, state.mu, state.eps)
    base = state.k.resample(512)
    f = induced_internal_map(base, problem.family, par)
    assert abs(rotation_number(f, 1e-12) - OMEGA) <= 1e-9
    xy0 = (state.k.eta_x[0], state.k.k_y[0])
    rho = ambient_rotation_number(problem.family, par, xy0, 1e-12)
    assert abs(rho - OMEGA) <= 1e-9


def test_7_symmetry_suite():
    # symmetric forcing at a = 0: the circle is invariant under
    # S(x, y) = (x - 1/2, -y) composed with the half-period shift,
    # and the a-twist vanishes
    for eps in (1.5, 2.2):
        problem, result = march(Forcing.SYMMETRIC, eps)
        state = result.state
        assert half_shift_deviation(state.k) <= 1e-8
        assert abs(state.diagnostics.twist_a) <= 1e-9
