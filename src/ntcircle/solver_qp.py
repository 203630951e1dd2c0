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
half its residual.  Spectral exhaustion is monitored on the raw
compositions (the tail, the l1 mass fraction above 3N/8).

Continuation grows the grid in one place, _rebuild_finer: it rebuilds
a state on the next dyadic level up to n_max that converges cleanly,
skipping refused levels, with floor_factor held at 10 or less.  Two
rules rebuild the base and redo the step, three times a step at most:
floor, a step that settles above _LEVEL_SUSPECT * tol, and failure, a
DivergenceError of residual at most 1e-3 over a fat tail; above n_max
either stops the run on n-max.  At seed 1 the benchmark takes 13 floor
and 1 failure rebuilds in qp_paths, 1 floor rebuild in rho_sweep, and 5
of each in qp_breakdown; the symmetric breakdown run of the acceptance
tests takes 10 floor and 2 failure rebuilds.

A point of the iteration is built in stages, each run only when
something reads it.  The map is evaluated along the circle once per
point (maps.Evaluation: the forcing p(x) and q = sigma*y + eps*p(x) - a),
and the composition, DF, D_a F and D_eps F are all read from it.  The
residual stage takes the invariance residual E with the raw tail of the
composition and the gap, in one block: the cut composition with the
shifted embedding.  The frame stage takes DF and D_a F_x along the
circle, the tangent, N0, the torsion, vartheta, the frame, the shifted
normal and the twist b_a, in four blocks: the tangent, the shifted N0,
vartheta, the shifted normal; N0, the torsion and N come from the sample
kernels of frame that the grid solver uses too.  A probe shifts N_y
alone; N_x and the shifted tangent ride in the last block of whichever
of the two stages runs second.  Completion adds b_mu and the frame
projections of E, with no transform.

The correction is affine in the twist unknown delta_a, so a Newton
iteration solves its linearization once: _solve_linear returns the
correction at delta_a = 0 and its rate per unit delta_a, in two blocks
of four rows (both cohomological equations for both, then both
corrections cut to their band), and the Steffensen probes, the step and
its damped fractions all combine that basis on samples.  The probes read
only b_a, and the export of N only the frame, so they run the frame
stage alone.  A step or a damped fraction of it is judged on its
residual alone, 2 FFTs, and only the point that is kept runs the frame
stage and completion: a full geometry is 2 + 8 FFTs, and a Newton
iteration with the twist open costs 30, one solve, three frame stages
(two probes and the kept point) and one residual.  When the twist is
already closed the zero probe is the full-step candidate, and the
iteration takes its residual instead of building it again.  The
eps-derivative makes one solve and no frame stage: it reads D_eps F and
the frame from the workspace of the solve that converged its state
instead of building the geometry again, and takes the rate of a from
its caller.

A solve keeps a field alive only while it reads it.  An iterate that
has passed the checks at the top of the loop lets go of the map
evaluation, DF, E, the shifted L_x and N_x, and keeps what the linear
solve reads: the frame, eta_l, eta_n, b_la, D_a F_x and the shifted
N_y and L_y.  Once the basis is built it keeps only its point (K, a,
mu, eps and err), so the probes and the trials run beside K and the
basis alone.  A frame stage runs with at most the current iterate and
the point being built, and lets go of N0 and vartheta before its
shifted-normal block; a kept point is completed after the previous
iterate and its step are gone, and the start projected onto the band
goes with the first iterate.  The continuation drops the previous
step's tangent and prediction before the next predictor runs.  The
floor snapshot is kept as its state, not its workspace, so a state
accepted at the floor of an earlier iterate hands over no workspace and
the eps-derivative builds its geometry, bitwise the same.
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
_FIT_MIN_POINTS = 5      # fewest records a breakdown fit takes


@dataclass(frozen=True)
class QpProblem:
    """Problem data and policies for one circle family."""

    family: StandardNonTwistMap
    omega: float = GOLDEN_MEAN
    b_a0: float = 0.0
    tol: float = 1e-11            # invariance residual, sup-norm
    tol_phase: float = 1e-11      # |<eta_x>|
    tol_twist: float = 1e-11      # |b_a - b_a0|
    n_min: int = 64
    n_max: int = 1 << 19
    tail_double: float = 1e-9     # raw-composition tail above this: refine
    max_newton: int = 20
    floor_factor: float = 1e4     # accept a residual floor up to this * tol


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
    """Step control for continuation in eps."""

    step_init: float = 0.01
    step_min: float = 1e-6
    step_max: float = 0.1
    grow_after: int = 3           # consecutive accepts before doubling
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
    map evaluated along K; the residual stage sets ex, ey, err, e_p, gap
    and tail; the frame stage frame, dfk, d_a (D_a F_x), alpha, ny_s, bla,
    b_a and e_b; nx_s, lx_s and ly_s come with whichever of those two
    runs second; completion sets b_mu, eta_l and eta_n.
    keep_only empties it again, field by field, as its readers finish.
    """

    __slots__ = (
        "k", "a", "mu", "eps", "ev", "frame", "dfk", "d_a",
        "nx_s", "ny_s", "lx_s", "ly_s",
        "ex", "ey", "err", "e_p", "e_b",
        "eta_l", "eta_n", "bla",
        "b_a", "b_mu", "alpha", "tail", "gap",
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


def _shifted(block: tuple[np.ndarray, ...], omega: float):
    """The fields of block shifted by omega, from one transform pair."""
    return fourier.fields(fourier.transform(np.array(block),
                                            fourier.shift_spectra, omega))


def _point(problem: QpProblem, k, a, mu, eps) -> NewtonWorkspace:
    """The workspace of (K, a, mu, eps), with the map evaluated along K."""
    ws = NewtonWorkspace()
    ws.k, ws.a, ws.mu, ws.eps = k, a, mu, eps
    ws.ev = problem.family.evaluate(k.x_lift(), k.k_y, ParamPoint(a, mu, eps))
    ws.frame = ws.err = None
    return ws


def _frame_stage(problem: QpProblem, ws: NewtonWorkspace) -> NewtonWorkspace:
    """Frame, torsion and twist b_a at the point ws: all a probe reads.

    DF is the evaluation's array and D_a F_x its own row, both raw: a
    NaN or inf in them reaches vartheta or b_la, whose checks raise
    NonFiniteError from this call.  A probe shifts N_y alone, all b_a
    reads; a point whose residual is in is being kept, and N_x and L
    ride in the block of the shifted normal.
    """
    om = problem.omega
    sig = problem.family.sigma
    dfk = ws.ev.jacobian()
    dax = ws.ev.d_a()
    lx, ly = l = tangent(ws.k)
    n0x, n0y, gram = normal0_values(lx, ly)
    gram = _fresh(gram)     # first: an overflowed gram raises NonFiniteError
    # the shift block of N0 and t0 are each freed once read
    n0_f = fourier.transform(np.array((n0x, n0y)), fourier.shift_spectra, om)
    t0 = torsion0(n0x, n0y, *n0_f, dfk)
    del n0_f
    vth = vartheta_qp(t0, sig, om)
    del t0
    nx, ny = normal_values(lx, ly, n0x, n0y, vth)
    del n0x, n0y    # N0 and vartheta go before the shifted-normal block
    alpha = min_angle(vth, gram.values)
    del vth
    fr = AdaptedFrame(l, gram, (checked(nx), checked(ny)), sig)

    ws.frame = fr
    ws.dfk = dfk
    ws.d_a = dax
    ws.alpha = alpha
    if ws.err is None:
        ws.ny_s, = _shifted(fr.nvec[1:], om)
    else:
        ws.nx_s, ws.ny_s, ws.lx_s, ws.ly_s = _shifted(fr.nvec + l, om)
    ws.bla = checked(ws.ny_s * dax)
    ws.b_a = _mean(ws.bla)
    ws.e_b = ws.b_a - problem.b_a0
    return ws


def _residual(problem: QpProblem, ws: NewtonWorkspace) -> NewtonWorkspace:
    """The residual E, its size err, the phase e_p, gap and raw tail at ws.

    The cut of the composition (F^x less its lift theta) with its raw
    tail, and the shift of K, share one transform pair; a point whose
    frame stage has run (the zero probe of a closed twist) shifts N_x
    and L in the same pair.  The gap is the l1 mass of E's modes in
    n/4 < |k| <= n/3, which E is measured on and no correction reaches,
    read from the same spectra (the larger of its two components).
    """
    k = ws.k
    fr = ws.frame
    rest = () if fr is None else (fr.nvec[0], *fr.l)
    rows = np.array((*ws.ev.lift(), *rest, k.eta_x, k.k_y))
    rows[0] -= fourier.grid(k.n)
    half = fourier.spectra(rows)
    ws.tail = max(fourier.tails(half[:2], 0.25))
    fourier.cut_spectra(half[:2])
    fourier.shift_spectra(half[2:], problem.omega)
    band = slice(k.n // 4 + 1, k.n // 3 + 1)
    gap = np.abs(half[:2, band] - half[-2:, band]).sum(axis=1)
    ws.gap = 2.0 * float(gap.max()) / k.n
    fourier.samples(half, rows)
    if rest:
        ws.nx_s, ws.lx_s, ws.ly_s = fourier.fields(rows[2:5])
    ws.ex = checked(rows[0] - problem.omega - rows[-2])
    ws.ey = checked(rows[1] - rows[-1])
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
        tail=ws.tail,
    )


def newton_solve(problem: QpProblem, state: QpState,
                 out: list | None = None) -> QpState:
    """Iterate to tolerance at fixed eps; raises DivergenceError if lost.

    The iteration has a floor, the gap (see the module docstring): a
    solve stops on the closed iterate whose gap holds half its residual,
    or on pumping (six stale iterations, or three at twice the best).  A
    floor within floor_factor * tol on a spectrally resolved circle
    (thin raw tail, phase and twist closed) is returned as a success
    with its true residual in the diagnostics; only floors above that
    window, fat tails, or genuine blow-ups raise.  The DivergenceError
    names what stopped the solve: a blow-up, the gap, pumping or the
    spent budget, with the iterations run.  A blow-up carries the
    blown-up residual and a nan tail; the others carry the best
    residual and that iterate's raw tail.

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

    def converged(ws: NewtonWorkspace, iterations: int) -> QpState:
        if out is not None:
            out.append(ws)
        return settled(ws, iterations)

    # re-entry with a state this solver already accepted at its floor
    # must be a no-op, not a doomed attempt to beat the floor again
    if (
        state.diagnostics is not None
        and ws.err <= problem.floor_factor * problem.tol
        and abs(ws.e_p) <= problem.tol_phase
        and abs(ws.e_b) <= problem.tol_twist
    ):
        return converged(ws, 0)
    scale0 = max(ws.err, abs(ws.e_p), abs(ws.e_b))
    best, best_tail, stale = ws.err, ws.tail, 0
    snap = None    # the state of the best iterate with phase and twist closed
    why = f"no convergence in the budget of {problem.max_newton} iterations"
    for it in range(problem.max_newton + 1):
        if (
            ws.err <= problem.tol
            and abs(ws.e_p) <= problem.tol_phase
            and abs(ws.e_b) <= problem.tol_twist
        ):
            return converged(ws, it)
        if it == problem.max_newton:
            break
        if ws.err > _BLOWUP_FACTOR * (scale0 + problem.tol):
            raise DivergenceError(
                f"residual blew up to {ws.err:.3e} from {history[0]:.3e}",
                residual=ws.err,
            )
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
            best, best_tail, stale = ws.err, ws.tail, 0
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
        and snap.diagnostics.invariance_error
        <= problem.floor_factor * problem.tol
        and snap.diagnostics.tail <= problem.tail_double
    ):
        # only the current iterate still has its workspace to hand over
        if out is not None and snap.k is ws.k:
            out.append(ws)
        return replace(snap, history=tuple(history))
    raise DivergenceError(
        f"{why}, best residual {best:.3e}; last iterate residual "
        f"{ws.err:.3e}, phase {ws.e_p:.3e}, twist {ws.e_b:.3e}",
        residual=best, tail=best_tail,
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


def _rebuild_finer(problem: QpProblem, state: QpState,
                   out: list) -> QpState | None:
    """Rebuild state on the next dyadic grid that converges cleanly.

    Levels that refuse the strict tolerance (a retained-band edge near a
    resonance) or blow up are skipped; None when no level up to n_max
    takes, and state stays valid as is.  out is emptied before each
    level and handed to newton_solve, for the rebuilt state's workspace.
    """
    # a level that can only offer a high residual floor would poison
    # every later predictor, so a rebuild is held near the strict
    # tolerance and may not settle on one
    picky = replace(problem, floor_factor=min(10.0, problem.floor_factor))
    n2 = 2 * state.k.n
    while n2 <= problem.n_max:
        out.clear()
        try:
            return newton_solve(picky, replace(state, k=state.k.resample(n2)),
                                out)
        except NtCircleError:
            n2 *= 2
    return None


def continue_in_eps(
    problem: QpProblem,
    state: QpState,
    eps_target: float,
    policy: ContinuationPolicy | None = None,
    stop=None,
) -> ContinuationResult:
    """March the branch from state.eps to eps_target.

    Tangent predictor, its rate of a the secant through the last two
    records (0 before), Newton corrector, dyadic mode adaptation (see
    the module docstring); the step halves on any solver failure and
    doubles after `grow_after` accepts.  Stops on the target, on loss of
    frame transversality (alpha below the floor), when the step
    underflows, when a finer grid is needed above n_max, or as
    "converged" once stop(records), if given, is true after a record.
    """
    if policy is None:
        policy = ContinuationPolicy()
    # the workspace of the last accepted or rebuilt state, until the
    # predictor has read it: no workspace outlives its predictor or is
    # alive while another solve runs
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
    streak = 0
    t0 = time.perf_counter() if policy.timing else 0.0
    new = newton_solve(problem, state, out)
    while True:
        if new is not None:
            # the one accept path, of the first solve and of every step
            wall = (time.perf_counter() - t0) * 1e3 if policy.timing else 0.0
            state = new
            records.append(_record(state, wall))
            if state.eps >= eps_target - 1e-15:
                reason = "target"
                break
            if state.diagnostics.min_angle < policy.alpha_floor:
                reason = "alpha-floor"
                break
            if stop is not None and stop(records):
                reason = "converged"
                break
            # the previous step's tangent and prediction go before the
            # predictor runs, and no name holds a rebuilt state past it
            der = pred = grown = None
            der = predictor(state)
            grows = 0   # base rebuilds spent on this step
        d = min(step, eps_target - state.eps)
        t0 = time.perf_counter() if policy.timing else 0.0
        if der is None:
            pred = replace(state, eps=state.eps + d, diagnostics=None)
        else:
            pred = QpState(
                TorusEmbedding.fresh(state.k.eta_x + d * der.d_eta_x,
                                     state.k.k_y + d * der.d_ky),
                state.a + d * der.d_a, state.mu + d * der.d_mu,
                state.eps + d)
        try:
            new = newton_solve(problem, pred, out)
            # a step that settled on a high floor: this dyadic level
            # recycles band-edge error, and the degraded state would
            # poison later predictors
            regrid = (new.diagnostics.invariance_error
                      > _LEVEL_SUSPECT * problem.tol)
        except NtCircleError as exc:
            # a small-residual failure with a fat spectral tail means the
            # base no longer resolves the circle.  Everything else
            # (blow-ups, floors above the acceptance window) is a step
            # problem: halve.
            new = None
            regrid = (
                isinstance(exc, DivergenceError)
                and exc.residual <= 1e-3
                and exc.tail > problem.tail_double
            )
        if regrid and 2 * state.k.n > problem.n_max:
            reason = "n-max"    # a finer level is needed, and none is left
            break
        if regrid and grows < 3:
            # redo the step from a base rebuilt on a finer grid
            grown = _rebuild_finer(problem, state, out)
            if grown is not None:
                grows += 1
                state = grown
                der = pred = new = None
                der = predictor(state)
                continue
        if new is None:
            step /= 2.0
            streak = 0
            if step < policy.step_min:
                reason = "step-floor"
                break
            continue
        streak += 1
        if streak >= policy.grow_after:
            step = min(2.0 * step, policy.step_max)
            streak = 0
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
        start = QpState.flat_start(prob.n_min, prob.omega, b)
        try:
            res = continue_in_eps(prob, start, eps_target, policy)
        except NtCircleError as exc:
            res = ContinuationResult((), f"error: {exc}", None)
        return SurfacePath(b, res)

    return fourier.split_items(run, [float(b) for b in b_a0_values])
