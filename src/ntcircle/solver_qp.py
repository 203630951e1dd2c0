"""Newton continuation of quasi-periodic invariant circles, fixed rotation.

Unknowns are the embedding K, the unfolding parameter a and the drift mu;
the rotation number omega and the twist level b_a0 are prescribed.  Each
iteration reduces the linearized invariance equation to two scalar
cohomological equations in the adapted frame, fixes mu from the average
of the tangent component, and closes the remaining scalar condition
b_a(K, a, mu) = b_a0 with a derivative-free Steffensen update in a.  The
solve is exact to first order, so convergence is quadratic.

At a = 0 with the odd-symmetric forcing, b_a = 2a places the circle at
the extremum of the rotation-number profile: these are the non-twist
(shearless) circles.  Prescribing b_a0 != 0 selects circles off the
extremum and sweeping b_a0 charts the twist surface.

Each field of the linearization is one formula on sample arrays, kept as
a read-only array checked for finiteness once (fourier.checked); the
intermediates of a formula are never checked, nor are the map's
derivatives along the circle: DF is the (2, 2, N) array of
Evaluation.jacobian, as in the grid solver, D_eps F a pair of arrays and
D_a F its x row, as Evaluation.d_a gives it.  The embedding of a state
or a candidate holds two such arrays (frame.TorusEmbedding checks them),
so a candidate K + t*d is one formula per field, scanned once by
TorusEmbedding.fresh; the gram of the frame alone is wrapped
(fourier._fresh).  Every spectral operator runs on a block of the fields
that are ready at the same time, one rfft and one irfft per block.
J_11 = sigma, D_a F_y = 0 and D_mu F = (1, 0) are taken as given, as
tests/test_maps.py checks in
test_constant_rows_solver_qp_takes_as_given: J_11 stays out of the
blocks and the other two are never formed.

Two bands.  The 1/3 truncation cuts the start of a solve, the
composition and D_eps F, and the invariance residual is measured on that
filtered system; DF and D_a F are read raw.  The correction is cut to
the narrower band |k| <= N/4 (_correction_band): corrected in the very
band it is measured on, band-edge error is pumped through the small
divisors instead of contracted (the 2/3 rule; Boyd, Chebyshev and
Fourier Spectral Methods, 2001, ch. 11).  The residual's modes between
the two bands, whose l1 mass is the gap, are beyond any correction: the
gap is the floor of the level, and a solve ends there once the gap holds
half its residual.

Continuation grows the grid in one place, inside the step: a step
whose floor is above _LEVEL_SUSPECT * tol is solved again on the next
dyadic level, from the state it settled on or, when its solve raised,
from its prediction, on three finer levels at most (nested iteration:
the coarse solution starts the fine level; Briggs, Henson & McCormick,
A Multigrid Tutorial, 2000, ch. 3).  The floor is the residual the solve
settled on or, for a DivergenceError, its best residual when that is at
most 1e-3; a blow-up or any other error has none.  A level whose floor
is within the bound ends the regrid: on its own state when it settled,
else on the state of the level below, and a step with no state halves.
A step whose base asks for a level above n_max stops the run on n-max.

The step in eps is the step memory cut to the target and, while the
last two records show alpha falling, to eps*, where the secant of alpha
through them meets zero.  alpha vanishes at the breakdown, where the
tangent and normal bundles collide, and no circle exists beyond it for
a solve to reach.  The memory doubles, up to _STEP_MAX, after an accept
whose solve took at most _QUICK_SOLVE = 2 Newton iterations, the
quadratic convergence of a good prediction (Allgower & Georg 2003, 6.1),
and stays after a slower one, so the step stops growing where solves
get hard, near breakdown; a failed step leaves it at half the step
tried, so a cut step is never tried again unchanged.  A step that ends
within rounding of the target ends on it.

A point of the iteration is built in stages, each run only when
something reads it.  The map is evaluated along the circle once per
point (maps.Evaluation: sin(2 pi x), the forcing p(x) and
q = sigma*y + eps*p(x) - a), and the composition, DF, D_a F and D_eps F
are all read from it.  The residual stage takes the invariance residual
E and the gap, in one block of four rows: the
cut composition with the shifted embedding.  The frame stage takes DF
and D_a F_x along the circle, the frame, the frame at theta + omega and
the twist b_a, in two blocks: the tangent with its shift, and vartheta
with its shift.  Only L and vartheta need a spectrum: N0 o f is N0 of
the shifted tangent, which the torsion reads, and N(. + omega) =
L(. + omega) vartheta(. + omega) + N0 o f, an exact frame at
theta + omega (det 1), all from the sample kernels of frame that the
grid solver uses too.  A probe and a kept point run the same frame
stage.  Completion adds b_mu and the frame projections of E, with no
transform.

The correction is affine in the twist unknown delta_a, so a Newton
iteration solves its linearization once: _solve_linear returns the
correction at delta_a = 0 and its rate per unit delta_a, in two blocks
of four rows (both cohomological equations for both, then both
corrections cut to their band), and the Steffensen probes, the step and
its damped fractions all combine that basis on samples.  The probes read
only b_a, and the export of N only the frame, so they run the frame
stage alone.  A step or a damped fraction of it is judged on its
residual alone, 2 FFTs, and only the point that is kept runs the frame
stage and completion: a full geometry is 2 + 4 FFTs, and a Newton
iteration with the twist open costs 18: one solve (4), three frame
stages (two probes and the kept point, 4 each) and one residual (2).
When the twist is already closed the zero probe is the full-step
candidate, and the iteration takes its residual instead of building it
again.  The eps-derivative makes one solve and no frame stage: it reads
D_eps F and the frame from the workspace of the solve that converged its
state instead of building the geometry again, and takes the rate of a
from its caller.

A solve keeps a field alive only while it reads it.  An iterate that
has passed the checks at the top of the loop lets go of the map
evaluation, DF, E, the shifted L_x and N_x, and keeps what the linear
solve reads: the frame, eta_l, eta_n, b_la, D_a F_x and the shifted
N_y and L_y.  Once the basis is built it keeps only its point (K, a,
mu, eps and err), so the probes and the trials run beside K and the
basis alone.  A frame stage runs with at most the current iterate and
the point being built, and lets go of N0 once N is in; a kept point is
completed after the previous iterate and its step are gone, and the
start projected onto the band goes with the first iterate.  The
continuation drops the previous step's tangent and prediction before
the next predictor runs, and a coarser level's workspace before the
step is solved on a finer one.  The floor snapshot is kept as its
state, not its workspace, so a state accepted at the floor of an
earlier iterate hands over no workspace and the eps-derivative builds
its geometry, bitwise the same.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import fourier
from .errors import (
    DivergenceError,
    MuDegeneracyError,
    NtCircleError,
    TwistDegeneracyError,
)
from .fourier import _fresh, checked
from .frame import (
    AdaptedFrame,
    Diagnostics,
    TorusEmbedding,
    min_angle,
    normal0_values,
    normal_values,
    reducibility_error,
    tangent,
    torsion0,
    vartheta_qp,
)
from .maps import ParamPoint, StandardNonTwistMap

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0

_TWIST_SLOPE_FLOOR = 1e-8
_DRIFT_FLOOR = 1e-8
_BLOWUP_FACTOR = 1e3
_LEVEL_SUSPECT = 100.0   # step floor above this * tol: distrust the level
_FLOOR_FACTOR = 1e4      # a solve accepts a residual floor up to this * tol
_FIT_MIN_POINTS = 5      # fewest records a breakdown fit takes
_QUICK_SOLVE = 2         # Newton iterations of a quadratic solve: grow the step
_N_START = 64            # grid of a branch's flat start
_MAX_NEWTON = 20         # Newton iterations of one solve
_STEP_MIN = 1e-6         # a step halved below this stops the run
_STEP_MAX = 0.1          # the step memory grows up to this


@dataclass(frozen=True)
class QpProblem:
    """Problem data and policies for one circle family."""

    family: StandardNonTwistMap
    omega: float = GOLDEN_MEAN
    b_a0: float = 0.0
    tol: float = 1e-11            # invariance residual, sup-norm
    tol_phase: float = 1e-11      # |<eta_x>|
    tol_twist: float = 1e-11      # |b_a - b_a0|
    n_max: int = 1 << 19


@dataclass(frozen=True)
class QpState:
    """A circle candidate (converged when diagnostics is set)."""

    k: TorusEmbedding
    a: float
    mu: float
    eps: float
    diagnostics: Diagnostics | None = None
    history: tuple[float, ...] = ()
    iterations: int = 0

    @classmethod
    def flat_start(cls, n: int, omega: float, b_a0: float = 0.0) -> "QpState":
        """Exact eps = 0 circle: y = 0, a = b_a0/2, mu = omega - a^2."""
        a = b_a0 / 2.0
        return cls(TorusEmbedding.zero_section(n), a, omega - a * a, 0.0)


@dataclass(frozen=True)
class ContinuationRecord:
    """One accepted continuation point, ready for serialization."""

    eps: float
    a: float
    mu: float
    n: int
    err: float
    alpha: float
    b_a: float
    b_mu: float
    iters: int
    wall_ms: float


@dataclass(frozen=True)
class ContinuationPolicy:
    """First step, angle floor and timing of continuation in eps."""

    step_init: float = 0.01
    alpha_floor: float = 1e-4     # stop when the frame angle drops below
    timing: bool = False          # keep wall_ms at 0 for reproducible output


@dataclass(frozen=True)
class ContinuationResult:
    records: tuple[ContinuationRecord, ...]
    reason: str     # target / alpha-floor / step-floor / n-max / converged
    state: QpState | None         # None only on a twist_surface branch that raised


class NewtonWorkspace:
    """All fields of one linearization, shared by step and closure.

    E is the dealiased invariance residual, (eta_l, eta_n) its projection
    -P(theta+omega)^{-1} E on the frame and bla = N_y(. + omega) D_a F_x
    the tangent projection of D_a F, all checked read-only sample arrays.
    A point is filled in stages: _point sets k, a, mu, eps and ev, the
    map evaluated along K; the residual stage sets ex, ey, err, e_p and
    gap; the frame stage frame, dfk, d_a (D_a F_x), alpha, the
    shifted frame nx_s, ny_s, lx_s and ly_s, bla, b_a and e_b, in either
    order; completion sets b_mu, eta_l and eta_n.
    keep_only empties it again, field by field, as its readers finish.
    """

    __slots__ = (
        "k", "a", "mu", "eps", "ev", "frame", "dfk", "d_a",
        "nx_s", "ny_s", "lx_s", "ly_s",
        "ex", "ey", "err", "e_p", "e_b",
        "eta_l", "eta_n", "bla",
        "b_a", "b_mu", "alpha", "gap",
    )

    def keep_only(self, names: tuple) -> None:
        """Let go of every field but names; the others read None after."""
        for name in _dropped(names):
            setattr(self, name, None)


@functools.cache
def _dropped(names: tuple) -> tuple:
    """The workspace slots outside names, in slot order."""
    return tuple(f for f in NewtonWorkspace.__slots__ if f not in names)


# the point of a workspace, all an iterate keeps once its basis is built
_POINT = ("k", "a", "mu", "eps", "err")
# what _solve_linear reads of a workspace, its point aside
_LINEAR = _POINT + ("frame", "eta_l", "eta_n", "bla", "d_a", "ny_s", "ly_s",
                    "b_a", "b_mu", "e_p")


def _mean(v: np.ndarray) -> float:
    """np.mean(v) bit for bit: the same sum, divided by v.size, undispatched."""
    return float(np.add.reduce(v, axis=None)) / v.size


def _point(problem: QpProblem, k, a, mu, eps) -> NewtonWorkspace:
    """The workspace of (K, a, mu, eps), with the map evaluated along K."""
    ws = NewtonWorkspace()
    ws.k, ws.a, ws.mu, ws.eps = k, a, mu, eps
    ws.ev = problem.family.evaluate(k.x_lift(), k.k_y, ParamPoint(a, mu, eps))
    ws.frame = None
    return ws


def _frame_stage(problem: QpProblem, ws: NewtonWorkspace) -> NewtonWorkspace:
    """Frame, shifted frame, torsion and twist b_a at the point ws.

    DF is the evaluation's array and D_a F_x its own row, both raw: a
    NaN or inf in them reaches vartheta or b_la, whose checks raise
    NonFiniteError from this call.  The frame at theta + omega is the
    frame's own formulas on the shifted tangent and vartheta, so
    det [L, N] = 1 holds there too.
    """
    om = problem.omega
    sig = problem.family.sigma
    dfk = ws.ev.jacobian()
    dax = ws.ev.d_a()
    l, (lx_s, ly_s) = tangent(ws.k, om)
    lx, ly = l
    n0x, n0y, gram = normal0_values(lx, ly)
    gram = _fresh(gram)     # first: an overflowed gram raises NonFiniteError
    # N0 o f, N0 of the shifted tangent; the shifted gram goes at once
    n0x_s, n0y_s = normal0_values(lx_s, ly_s)[:2]
    t0 = torsion0(n0x, n0y, n0x_s, n0y_s, dfk)
    vth, vth_s = vartheta_qp(t0, sig, om)
    del t0
    nx, ny = normal_values(lx, ly, n0x, n0y, vth)
    del n0x, n0y    # each N0 goes once its N is in
    alpha = min_angle(vth, gram.values)
    nx_s, ny_s = normal_values(lx_s, ly_s, n0x_s, n0y_s, vth_s)
    ws.frame = AdaptedFrame(l, gram, (checked(nx), checked(ny)), sig)
    ws.nx_s, ws.ny_s = checked(nx_s), checked(ny_s)
    ws.lx_s, ws.ly_s = lx_s, ly_s
    ws.dfk = dfk
    ws.d_a = dax
    ws.alpha = alpha
    ws.bla = checked(ws.ny_s * dax)
    ws.b_a = _mean(ws.bla)
    ws.e_b = ws.b_a - problem.b_a0
    return ws


def _residual(problem: QpProblem, ws: NewtonWorkspace) -> NewtonWorkspace:
    """The residual E, its size err, the phase e_p and the gap at ws.

    The cut of the composition (F^x less its lift theta) and the shift of
    K share one transform pair of four rows.
    The gap is the l1 mass of E's modes in n/4 < |k| <= n/3, which E is
    measured on and no correction reaches, read from the same spectra
    (the larger of its two components).
    """
    k = ws.k
    rows = np.array((*ws.ev.lift(), k.eta_x, k.k_y))
    rows[0] -= fourier.grid(k.n)
    half = fourier.spectra(rows)
    fourier.cut_spectra(half[:2])
    fourier.shift_spectra(half[2:], problem.omega)
    band = slice(k.n // 4 + 1, k.n // 3 + 1)
    gap = np.abs(half[:2, band] - half[2:, band]).sum(axis=1)
    ws.gap = 2.0 * float(gap.max()) / k.n
    fourier.samples(half, rows)
    ws.ex = checked(rows[0] - problem.omega - rows[2])
    ws.ey = checked(rows[1] - rows[3])
    ws.err = max(float(np.abs(ws.ex).max()), float(np.abs(ws.ey).max()))
    ws.e_p = _mean(k.eta_x)
    return ws


def _projections(ws: NewtonWorkspace, ex, ey):
    """(eta_l, eta_n) = -P(theta+omega)^{-1} (ex, ey) on the shifted frame."""
    lx, ly, nx, ny = ws.lx_s, ws.ly_s, ws.nx_s, ws.ny_s
    return checked(-(ny * ex - nx * ey)), checked(ly * ex - lx * ey)


def _complete(problem: QpProblem, ws: NewtonWorkspace) -> NewtonWorkspace:
    """Keep the point ws, whose residual is in: b_mu and the projections of E.

    Runs the frame stage first unless the point already has its frame.
    D_mu F = (1, 0), so b_mu is the average of N_y(. + omega).
    """
    if ws.frame is None:
        _frame_stage(problem, ws)
    ws.b_mu = _mean(ws.ny_s)
    ws.eta_l, ws.eta_n = _projections(ws, ws.ex, ws.ey)
    return ws


def _geometry(problem: QpProblem, k, a, mu, eps) -> NewtonWorkspace:
    """Frame, twists and parameter projections at (K, a, mu, eps)."""
    return _complete(problem, _residual(problem,
                                        _point(problem, k, a, mu, eps)))


def frame_fields(problem: QpProblem, state: QpState):
    """Circle and normal-bundle samples for export: theta, Kx, Ky, Nx, Ny."""
    ws = _frame_stage(problem, _point(problem, state.k, state.a, state.mu,
                                      state.eps))
    th = fourier.grid(state.k.n)
    return (th, th + state.k.eta_x, state.k.k_y, *ws.frame.nvec)


def _correction_band(half: np.ndarray) -> None:
    """The band of a correction, in place: zero all modes with |k| > n/4."""
    half[..., fourier._size(half) // 4 + 1:] = 0.0


def _solve_linear(problem, ws, eta_l, eta_n, phase):
    """Frame-coordinate solve, affine in delta_a: the update and its rate.

    delta_mu = <eta_l>/b_mu - (b_a/b_mu) delta_a kills the average of the
    tangent equation; the tangent constant is chosen so the x-average of
    the updated embedding is -phase (the phase lock).  Every part of the
    update is affine in delta_a, so one solve serves every delta_a: returns
    the basis ((d_eta_x, d_ky, delta_mu) at delta_a = 0, their rates per
    unit delta_a), the corrections as read-only sample arrays, which
    _correction combines.
    """
    om = problem.omega
    sig = problem.family.sigma
    if abs(ws.b_mu) < _DRIFT_FLOOR:
        raise MuDegeneracyError(
            f"drift average b_mu = {ws.b_mu:.3e} below {_DRIFT_FLOOR:.0e}"
        )
    mu0 = _mean(eta_l) / ws.b_mu
    mu1 = -ws.b_a / ws.b_mu
    # D_a F = (D_a F_x, 0), D_mu F = (1, 0): their projections on the
    # shifted frame are -L_y D_a F_x, -L_y, b_la and N_y
    ly, ny, dax = ws.ly_s, ws.ny_s, ws.d_a
    # the normal (contractive) and tangent (small-divisor) equations, at
    # delta_a = 0 and their rates, share one transform pair
    rows = np.array((
        eta_n + ly * mu0,
        ly * dax + ly * mu1,
        eta_l - ny * mu0,
        -ws.bla - ny * mu1,
    ))
    half = fourier.spectra(rows)
    fourier.linear_shift_spectra(half[:2], sig, 1.0, om)
    fourier.small_divisor_spectra(half[2:], om)
    xi_n0, xi_n1, xi_l0, xi_l1 = fourier.samples(half, rows)
    lx, ly = ws.frame.l
    nx, ny = ws.frame.nvec
    xi_l0 = xi_l0 + (-phase - _mean(lx * xi_l0 + nx * xi_n0))
    xi_l1 = xi_l1 - _mean(lx * xi_l1 + nx * xi_n1)
    # keep the correction inside the residual's band: outside it the
    # filtered composition exerts no feedback and the correction loop is
    # unstable, and at its edge band-edge error is pumped, not contracted;
    # the basis rows stay samples, checked and frozen once by their block
    e0, y0, e1, y1 = fourier.transform(
        np.array((lx * xi_l0 + nx * xi_n0, ly * xi_l0 + ny * xi_n0,
                  lx * xi_l1 + nx * xi_n1, ly * xi_l1 + ny * xi_n1)),
        _correction_band)
    return (e0, y0, mu0), (e1, y1, mu1)


def _correction(basis, delta_a: float):
    """The step for this delta_a: samples of (d_eta_x, d_ky), delta_mu."""
    (e0, y0, mu0), (e1, y1, mu1) = basis
    return e0 + delta_a * e1, y0 + delta_a * y1, mu0 + delta_a * mu1


def _candidate(problem: QpProblem, ws, step, delta_a: float,
               t: float) -> NewtonWorkspace:
    """The point a fraction t along the step for delta_a (see _point)."""
    d_eta, d_ky, delta_mu = step
    kc = TorusEmbedding.fresh(ws.k.eta_x + t * d_eta, ws.k.k_y + t * d_ky)
    # a probe's step is freed before its map evaluation allocates
    del step, d_eta, d_ky
    return _point(problem, kc, ws.a + t * delta_a, ws.mu + t * delta_mu,
                  ws.eps)


def steffensen_update(problem: QpProblem, ws: NewtonWorkspace, basis):
    """Root delta_a of g(delta_a) = b_a[after step] - b_a0.

    Derivative-free: one secant step from 0 to h = g(0), so the probe
    shrinks with the residual and the iteration stays quadratic.  A
    probe reads only b_a, so it runs the frame stage alone, at the
    correction the basis of _solve_linear gives for its delta_a.
    Returns delta_a and, when the twist is already closed (delta_a = 0),
    the zero probe: the full-step candidate with its frame stage built,
    which the caller tries instead of rebuilding; otherwise None.
    """

    def defect(delta_a: float):
        cand = _frame_stage(problem, _candidate(
            problem, ws, _correction(basis, delta_a), delta_a, 1.0))
        return cand.b_a - problem.b_a0, cand

    g0, zero = defect(0.0)
    if abs(g0) < 1e-14 * max(1.0, abs(problem.b_a0)):
        return 0.0, zero
    del zero    # freed before the second probe is built
    slope = (defect(g0)[0] - g0) / g0
    if abs(slope) < _TWIST_SLOPE_FLOOR:
        raise TwistDegeneracyError(
            f"twist sensitivity d b_a / d a = {slope:.3e} below "
            f"{_TWIST_SLOPE_FLOOR:.0e}; the twist closure cannot pin a"
        )
    return -g0 / slope, None


def _diagnostics(ws: NewtonWorkspace) -> Diagnostics:
    return Diagnostics(
        invariance_error=ws.err,
        reducibility_error=reducibility_error(
            ws.frame, ws.dfk, (ws.lx_s, ws.ly_s), (ws.nx_s, ws.ny_s)),
        min_angle=ws.alpha,
        twist_a=ws.b_a,
        twist_mu=ws.b_mu,
    )


def newton_solve(problem: QpProblem, state: QpState,
                 out: list | None = None) -> QpState:
    """Iterate to tolerance at fixed eps; raises DivergenceError if lost.

    The iteration has a floor, the gap (see the module docstring): a
    solve stops on the closed iterate whose gap holds half its residual,
    or on pumping (six stale iterations, or three at twice the best).  A
    floor within _FLOOR_FACTOR * tol, phase and twist closed, is returned
    as a success with its true residual in the diagnostics; only floors
    above that window and blow-ups raise.  The DivergenceError names
    what stopped the solve: a blow-up, the gap, pumping or the spent
    budget, with the iterations run.  A blow-up names the blown-up
    residual in its message and has no floor (a nan residual); the
    others carry the best residual.

    When out is a list, the workspace of the returned state is appended
    to it, for eps_derivative to read instead of rebuilding it.  The
    caller drops it before its next solve: a workspace holds two dozen
    fields of the grid.  Only the current iterate keeps its workspace:
    the floor snapshot is kept as its state, so a state accepted at the
    floor of an earlier iterate hands over no workspace.
    """
    # project the start onto the residual's band; corrections stay in
    # the narrower one.  Only its workspace holds it, so it goes with the
    # first iterate
    ws = _geometry(problem, TorusEmbedding(*fourier.transform(
        np.array((state.k.eta_x, state.k.k_y)), fourier.cut_spectra)),
        state.a, state.mu, state.eps)
    history: list[float] = [ws.err]

    def settled(ws: NewtonWorkspace, iterations: int) -> QpState:
        return QpState(
            ws.k, ws.a, ws.mu, ws.eps,
            diagnostics=_diagnostics(ws),
            history=tuple(history),
            iterations=iterations,
        )

    scale0 = max(ws.err, abs(ws.e_p), abs(ws.e_b))
    best, stale = ws.err, 0
    snap = None    # the state of the best iterate with phase and twist closed
    why = f"no convergence in the budget of {_MAX_NEWTON} iterations"
    for it in range(_MAX_NEWTON + 1):
        if (
            ws.err <= problem.tol
            and abs(ws.e_p) <= problem.tol_phase
            and abs(ws.e_b) <= problem.tol_twist
        ):
            if out is not None:
                out.append(ws)
            return settled(ws, it)
        if it == _MAX_NEWTON:
            break
        if ws.err > _BLOWUP_FACTOR * (scale0 + problem.tol):
            raise DivergenceError(
                f"residual blew up to {ws.err:.3e} from {history[0]:.3e}")
        # the iterate keeps what the linear solve reads, then only its
        # point: the probes and trials run beside K and the basis alone
        ws.keep_only(_LINEAR)
        basis = _solve_linear(problem, ws, ws.eta_l, ws.eta_n, ws.e_p)
        ws.keep_only(_POINT)
        delta_a, cand = steffensen_update(problem, ws, basis)
        # the step holds two fields where the basis holds four
        step = _correction(basis, delta_a)
        del basis
        if cand is None:
            cand = _candidate(problem, ws, step, delta_a, 1.0)
        # damped acceptance: a fractional step restores descent when the
        # full-step iteration turns into a neutral oscillation, which
        # happens when near-resonant modes enter the retained band.  A
        # fraction is judged on its residual alone, and only the point
        # that is kept builds its frame, so the clean path pays nothing
        t = 1.0
        while _residual(problem, cand).err > 1.2 * ws.err and t > 0.25:
            t *= 0.5
            del cand    # a rejected trial goes before the next is built
            cand = _candidate(problem, ws, step, delta_a, t)
        # the previous iterate and the step go before the kept point is
        # completed
        ws = cand
        del cand, step
        _complete(problem, ws)
        history.append(ws.err)
        # the floor snapshot; a closed iterate within tol returns at the top
        if (
            ws.err > problem.tol
            and abs(ws.e_p) <= problem.tol_phase
            and abs(ws.e_b) <= problem.tol_twist
            and (snap is None or ws.err < snap.diagnostics.invariance_error)
        ):
            snap = settled(ws, it + 1)
        if ws.err < best:
            best, stale = ws.err, 0
        elif ws.err > problem.tol:
            stale += 1
            if stale >= 6 or (stale >= 3 and ws.err >= 2.0 * best):
                why = ("residual stopped contracting (pumping) after "
                       f"{it + 1} iterations")
                break   # not contracting; settle on the floor
        if snap is not None and snap.k is ws.k and 2.0 * ws.gap >= ws.err:
            why = f"residual reached its gap after {it + 1} iterations"
            break   # a new floor snapshot, held up by its gap
    if (
        snap is not None
        and snap.diagnostics.invariance_error <= _FLOOR_FACTOR * problem.tol
    ):
        # only the current iterate still has its workspace to hand over
        if out is not None and snap.k is ws.k:
            out.append(ws)
        return replace(snap, history=tuple(history))
    raise DivergenceError(
        f"{why}, best residual {best:.3e}; last iterate residual "
        f"{ws.err:.3e}, phase {ws.e_p:.3e}, twist {ws.e_b:.3e}",
        residual=best,
    )


@dataclass(frozen=True)
class EpsDerivative:
    """Tangent of the solution branch with respect to eps."""

    d_eta_x: np.ndarray
    d_ky: np.ndarray
    d_a: float
    d_mu: float


def eps_derivative(
    problem: QpProblem, state: QpState, ws: NewtonWorkspace | None = None,
    d_a: float = 0.0,
) -> EpsDerivative:
    """Differentiate the branch (K, a, mu)(eps) at a converged state.

    The linear solve mirrors the Newton step with D_eps F as the data and
    zero phase drift; its basis gives the direction for the rate d_a of
    a, which the caller supplies, so no frame stage runs.

    ws is the converged workspace of state, as newton_solve's out list
    hands it over; without it the geometry of state is built here.  The
    workspace is used up: it keeps only its point after.
    """
    if ws is None:
        ws = _geometry(problem, state.k, state.a, state.mu, state.eps)
    elif ws.k is not state.k or (ws.a, ws.mu, ws.eps) != (
            state.a, state.mu, state.eps):
        raise ValueError("workspace does not belong to this state")
    # the cut rows of D_eps F stay samples, checked by their block
    ex, ey = fourier.transform(np.array(ws.ev.d_eps()), fourier.cut_spectra)
    eta_l, eta_n = _projections(ws, ex, ey)
    del ex, ey
    ws.keep_only(_LINEAR)
    basis = _solve_linear(problem, ws, eta_l, eta_n, 0.0)
    del eta_l, eta_n
    ws.keep_only(_POINT)
    d_eta, d_ky, d_mu = _correction(basis, d_a)
    return EpsDerivative(checked(d_eta), checked(d_ky), d_a, d_mu)


def _record(state: QpState, wall_ms: float) -> ContinuationRecord:
    d = state.diagnostics
    return ContinuationRecord(
        eps=state.eps, a=state.a, mu=state.mu, n=state.k.n,
        err=d.invariance_error, alpha=d.min_angle,
        b_a=d.twist_a, b_mu=d.twist_mu,
        iters=state.iterations, wall_ms=wall_ms,
    )


def continue_in_eps(
    problem: QpProblem,
    state: QpState,
    eps_target: float,
    policy: ContinuationPolicy | None = None,
    stop=None,
) -> ContinuationResult:
    """March the branch from state.eps to eps_target.

    Tangent predictor, its rate of a the secant through the last two
    records (0 before), Newton corrector, dyadic mode adaptation, and a
    step memory that doubles after a solve of at most _QUICK_SOLVE
    Newton iterations, stays after a slower one and halves on a failure
    (see the module docstring).  A finer level that raises at a best
    residual within _LEVEL_SUSPECT * tol ends the regrid, as a blow-up
    does: the step keeps the state of the level below, or halves when it
    has none.  Stops on the target, on loss of frame transversality
    (alpha below the floor), when the step falls below _STEP_MIN, when a
    finer grid is needed above n_max, or as "converged" once
    stop(records), if given, is true after a record.
    """
    if policy is None:
        policy = ContinuationPolicy()
    # the workspace of the state the step settled on, until the predictor
    # has read it: no workspace outlives its predictor or is alive while
    # another solve runs
    out: list[NewtonWorkspace] = []
    records: list[ContinuationRecord] = []

    def predictor(state: QpState) -> EpsDerivative | None:
        r0, r1 = records[-2:] if len(records) > 1 else (None, None)
        d_a = 0.0 if r0 is None else (r1.a - r0.a) / (r1.eps - r0.eps)
        try:
            return eps_derivative(problem, state, out.pop() if out else None,
                                  d_a)
        except NtCircleError:
            return None   # zero-order continuation still works

    step = policy.step_init
    t0 = time.perf_counter() if policy.timing else 0.0
    new = newton_solve(problem, state, out)
    while True:
        if new is not None:
            # the one accept path, of the first solve and of every step
            wall = (time.perf_counter() - t0) * 1e3 if policy.timing else 0.0
            state = new
            records.append(_record(state, wall))
            if state.eps >= eps_target:
                reason = "target"
                break
            if state.diagnostics.min_angle < policy.alpha_floor:
                reason = "alpha-floor"
                break
            if stop is not None and stop(records):
                reason = "converged"
                break
            # the previous step's tangent and prediction go before the
            # predictor runs
            der = pred = None
            der = predictor(state)
        d = min(step, eps_target - state.eps)
        if len(records) > 1:
            # never past eps*, where the secant of alpha through the last
            # two records meets zero: no circle exists beyond breakdown
            r0, r1 = records[-2:]
            s = (r1.alpha - r0.alpha) / (r1.eps - r0.eps)
            if s < 0.0:
                d = min(d, r1.eps + r1.alpha / -s - state.eps)
        eps = state.eps + d
        if eps_target - eps <= 4.0 * math.ulp(eps_target):
            eps = eps_target   # only rounding is left: end on the target
        t0 = time.perf_counter() if policy.timing else 0.0
        if der is None:
            pred = replace(state, eps=eps, diagnostics=None)
        else:
            pred = QpState(
                TorusEmbedding.fresh(state.k.eta_x + d * der.d_eta_x,
                                     state.k.k_y + d * der.d_ky),
                state.a + d * der.d_a, state.mu + d * der.d_mu, eps)
        new = None    # the state the step settled on, on its finest level
        for level in range(4):    # the step's own level and three finer
            if level:
                # solve the step again on the next dyadic level, from the
                # state it settled on or, while it has none, its prediction
                start = pred if new is None else new
                pred = replace(start, k=start.k.resample(2 * pred.k.n))
                del start   # no name holds a start past the predictor
                out.clear()
            try:
                new = newton_solve(problem, pred, out)
                floor = new.diagnostics.invariance_error
            except NtCircleError as exc:
                # a failure at a small best residual has a floor too; a
                # blow-up (nan) or any other error has none, and leaves
                # the state of the level below, or halves the step
                floor = (exc.residual if isinstance(exc, DivergenceError)
                         and exc.residual <= 1e-3 else 0.0)
            # a step on a high floor: this dyadic level recycles band-edge
            # error, and a degraded state would poison later predictors
            regrid = floor > _LEVEL_SUSPECT * problem.tol
            if not regrid or 2 * pred.k.n > problem.n_max:
                break
        if regrid and 2 * state.k.n > problem.n_max:
            reason = "n-max"    # a finer level is needed, and none is left
            break
        if new is None:
            step = d / 2.0   # half the step tried, which a bound may have cut
            if step < _STEP_MIN:
                reason = "step-floor"
                break
            continue
        if new.iterations <= _QUICK_SOLVE:
            step = min(2.0 * step, _STEP_MAX)
    return ContinuationResult(tuple(records), reason, state)


@dataclass(frozen=True)
class BreakdownFit:
    """Linear extrapolation of the frame angle to its zero crossing."""

    eps_c: float
    slope: float
    residual: float
    reliable: bool
    window: int


def breakdown_extrapolate(
    records, window: int = 20, min_points: int = _FIT_MIN_POINTS
) -> BreakdownFit:
    """Fit alpha = m*eps + c on the final stretch and report eps_c = -c/m.

    The window is the last decade of alpha (points with alpha within
    10x of the final one) or the last `window` records, whichever is
    smaller, widened to at least `min_points` records when the final
    collapse is too abrupt to populate the decade.  eps_c and the fit
    come from the window.

    Reliability is judged on the window extended by its closing record,
    the last record with alpha >= 10 alpha[-1], which closes the decade
    (a record already in the window adds nothing).  The extended window
    must shrink: monotone non-increasing, a real net drop of at least a
    decade and a negative slope; and its own linear fit must have an rms
    of at most 1% of its alpha drop, so a closing record off the line
    (a plateau before the collapse) cannot vouch for it.  A run with no
    closing record has not been seen to drop a decade.  Anything else
    degrades to reliable=False; the numbers are still returned.
    """
    eps = np.array([r.eps for r in records], dtype=float)
    alpha = np.array([r.alpha for r in records], dtype=float)
    start = 0
    closing = -1
    if alpha.size:
        above = np.nonzero(alpha > 10.0 * alpha[-1])[0]
        start = int(above[-1]) + 1 if above.size else 0
        if alpha.size - start < min_points:
            # abrupt final collapse: too few points in the last decade
            start = max(0, alpha.size - min_points)
        start = max(start, alpha.size - window)
        decade_closers = np.nonzero(alpha >= 10.0 * alpha[-1])[0]
        if decade_closers.size:
            closing = int(decade_closers[-1])
    if alpha.size - start < min_points:
        raise ValueError(
            f"need at least {min_points} records in the fit window, "
            f"have {alpha.size - start}"
        )
    m, c, rms = _line_fit(eps[start:], alpha[start:])
    reliable = False
    if closing >= 0:
        ext = np.arange(start, alpha.size)
        if closing < start:
            ext = np.r_[closing, ext]
        a_ext = alpha[ext]
        m_ext, _, rms_ext = _line_fit(eps[ext], a_ext)
        drop = a_ext[0] - a_ext[-1]
        reliable = bool(
            np.all(np.diff(a_ext) <= 1e-12)
            # a flat stretch fits with slope ~ -1e-17; demand a real drop
            and drop > 1e-12
            and a_ext[0] >= 10.0 * a_ext[-1]
            and m_ext < 0.0
            and rms_ext <= 0.01 * drop
        )
    eps_c = -c / m if m < 0.0 else float("nan")
    return BreakdownFit(float(eps_c), float(m), rms, reliable,
                        alpha.size - start)


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y = m*x + c and the rms of its residual."""
    m, c = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((m * x + c - y) ** 2)))
    return m, c, rms


@dataclass(frozen=True)
class SurfacePath:
    b_a0: float
    result: ContinuationResult


def twist_surface(
    problem: QpProblem,
    b_a0_values,
    eps_target: float,
    policy: ContinuationPolicy | None = None,
) -> list[SurfacePath]:
    """Continue one circle branch per twist level b_a0, each from eps = 0.

    The branches are independent, so they run through
    fourier.split_items, on two cores where the process may use two; the
    paths come back in the order of b_a0_values, and each is bitwise
    identical to a lone continue_in_eps call.  A path that raises
    NtCircleError is returned with no records and the error as its stop
    reason.
    """

    def run(b: float) -> SurfacePath:
        prob = replace(problem, b_a0=b)
        start = QpState.flat_start(_N_START, prob.omega, b)
        try:
            res = continue_in_eps(prob, start, eps_target, policy)
        except NtCircleError as exc:
            res = ContinuationResult((), f"error: {exc}", None)
        return SurfacePath(b, res)

    return fourier.split_items(run, [float(b) for b in b_a0_values])
