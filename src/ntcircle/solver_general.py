"""Grid-based Newton for invariant circles with unknown internal dynamics.

Solves F(K(theta)) = K(f(theta)) for both the embedding K and the circle
map f, with no rotation number prescribed and no small divisors: the
tangent correction is taken up by f (Delta f = -eta_L) and the normal
correction by a contractive transfer equation.  That equation and the
torsion equation of the adapted frame are both solved by the one
fixed-point kernel frame.solve_transfer, on the Lagrange stencils of f
and of its inverse; N0, the torsion and N come from the sample kernels
of frame that the quasi-periodic solver uses too.  This variant follows
the circle into phase locking; its job is to cross-validate the circles
of the quasi-periodic solver.

Every Newton step is exact and cold-started: both transfer solves start
from their cold start and run to frame's fixed-point tolerance, and f^-1
starts from the rotation by -mean(g) and runs to its full tolerance, so
a step depends on (K, f) alone.  f^-1 comes first in a step, so its
check f' > 0 guards the whole step.

Newton makes one pass per solve and keeps its best iterate: near a
resonance tongue the achievable grid residual rises just above the
tolerance, and a pass that stops short settles on its best iterate when
that is within _FLOOR_FACTOR of the tolerance, as the quasi-periodic
solver settles on its floor.  Each iterate's residual and stencil of f
are computed once, for the check and its step, and each step
differentiates g once, for f', its check and the inverse-map Newton.

The circle is a frame.TorusEmbedding, the embedding type of both
solvers, and the internal map an InternalMap, stored as the displacement
g with f(theta) = theta + g(theta) on lifts, so rational and irrational
dynamics are handled alike.  Both hold checked samples on one dyadic
grid of the quasi-periodic solver (a power of two n >= 8, and n >= 4p),
whose nodes come from fourier.grid; newton_solve_general checks once
that the two share it.  The map alone holds the even order p of the
local Lagrange interpolation: a step builds every stencil and every
central difference, on the circle's fields as on g, at f.order.  Each
step's updates get the 1/3 cut of fourier.cut_spectra.

Rotation-number sweeps solve no circle: on a dissipative map the
attracting circle is the attractor, so every sweep point takes its
rotation number from the ambient orbit of one start point, run on
Python floats.  The sweep walks outward, then bisects each locking
boundary of the walk as one chain; the points of the walk, and the
chains, are independent and run through fourier.split_items, one pass
each.  The rotation numbers of the ambient orbit and of a grid circle
map come from one weighted Birkhoff doubling loop, which stops once two
successive estimates agree within the tolerance, or once its falling
differences bound what is left within it.  A locked ambient orbit stops
iterating once it closes an exact floating-point cycle, which is then
tiled out to the Birkhoff length: each chunk of the orbit checks once
whether its start point returns, after the period its tail repeats with
and at the chunk's end.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import (
    DivergenceError,
    InversionError,
    NtCircleError,
    ToleranceNotMetError,
)
from .fourier import (
    _check_size,
    checked_field,
    cut_spectra,
    grid,
    split_items,
    transform,
)
from .frame import (
    TorusEmbedding,
    normal0_values,
    normal_values,
    solve_transfer,
    torsion0,
    vartheta_general,
)
from .maps import ParamPoint, StandardNonTwistMap


def _check_order(order: int) -> None:
    if order % 2 != 0 or not 2 <= order <= 8:
        raise ValueError(f"interpolation order must be even in [2, 8], got {order}")


def _check_grid(n: int, order: int) -> None:
    _check_order(order)
    _check_size(n)
    if n < 4 * order:
        raise ValueError(f"need at least 4*order = {4 * order} nodes, got {n}")


@dataclass(frozen=True)
class InternalMap:
    """Orientation-preserving circle map f(theta) = theta + g(theta).

    g is a checked read-only copy of the samples handed in, on a dyadic
    grid of at least 4*order nodes; order is the interpolation order of
    every stencil the grid solver builds on this map and on its circle.
    """

    g: np.ndarray
    order: int = 4

    def __post_init__(self):
        g = checked_field(self.g)
        _check_grid(g.size, self.order)
        object.__setattr__(self, "g", g)

    @property
    def n(self) -> int:
        return self.g.size

    @classmethod
    def rotation(cls, n: int, omega: float, order: int = 4) -> "InternalMap":
        return cls(np.full(n, omega), order)


# order -> (offsets, coefficients) of the central first-derivative stencil
_DERIV_STENCILS = {
    2: ((-1, 1), (-0.5, 0.5)),
    4: ((-2, -1, 1, 2), (1.0 / 12, -2.0 / 3, 2.0 / 3, -1.0 / 12)),
    6: ((-3, -2, -1, 1, 2, 3),
        (-1.0 / 60, 3.0 / 20, -3.0 / 4, 3.0 / 4, -3.0 / 20, 1.0 / 60)),
    8: ((-4, -3, -2, -1, 1, 2, 3, 4),
        (1.0 / 280, -4.0 / 105, 1.0 / 5, -4.0 / 5,
         4.0 / 5, -1.0 / 5, 4.0 / 105, -1.0 / 280)),
}


def grid_derivative(values: np.ndarray, order: int) -> np.ndarray:
    """Periodic central-difference d/dtheta of matching order."""
    _check_order(order)
    offs, coefs = _DERIV_STENCILS[order]
    values = np.asarray(values, dtype=float)
    out = np.zeros_like(values)
    for o, c in zip(offs, coefs):
        out += c * np.roll(values, -o)
    return out * values.size


def interp_stencil(n: int, theta, order: int):
    """Gather indices and Lagrange weights for evaluation at theta.

    Uses the order-p stencil centered on the containing interval; exact
    for local polynomials of degree < p and reproduces node values.
    Returns (idx, w) of shape (p, m) for reuse on many grid functions.
    """
    _check_grid(n, order)
    t = np.asarray(theta, dtype=float) * n
    base = np.floor(t).astype(np.int64)
    s = t - base
    offs = np.arange(order) - (order // 2 - 1)
    idx = np.mod(base[None, :] + offs[:, None], n)
    w = np.empty((order, s.size))
    for i, oi in enumerate(offs):
        num = np.ones_like(s)
        den = 1.0
        for j, oj in enumerate(offs):
            if j == i:
                continue
            num *= s - oj
            den *= oi - oj
        w[i] = num / den
    return idx, w


def interp_apply(values: np.ndarray, idx, w) -> np.ndarray:
    return np.sum(values[idx] * w, axis=0)


def _lift_newton(h, dh, order, target, y, tol, max_iter, failure):
    """Solve y + h(y) = target node by node on lifts, starting from y.

    h is a displacement field on the grid and dh its grid_derivative;
    each iteration builds one Lagrange stencil at y and reads both h and
    h' through it.  The residual is taken mod 1, the slope is floored at
    0.05, and the iteration stops once every node is within tol; not
    getting there in max_iter iterations raises InversionError with the
    message failure.
    """
    for _ in range(max_iter):
        idx, w = interp_stencil(h.size, y, order)
        res = y + interp_apply(h, idx, w) - target
        res -= np.round(res)
        if float(np.max(np.abs(res))) < tol:
            return y
        slope = 1.0 + interp_apply(dh, idx, w)
        y = y - res / np.maximum(slope, 0.05)
    raise InversionError(failure)


def invert_map(
    f: InternalMap,
    tol: float = 1e-13,
    max_iter: int = 60,
    dg: np.ndarray | None = None,
) -> InternalMap:
    """Inverse circle map on the same grid, by per-node Newton on lifts.

    The Newton starts from the rotation by -mean(g).  dg is
    grid_derivative(f.g, f.order) when the caller already has it, and is
    computed otherwise.
    """
    n = f.n
    if dg is None:
        dg = grid_derivative(f.g, f.order)
    fp = 1.0 + dg
    if float(np.min(fp)) <= 0.0:
        raise InversionError(
            f"f' reaches {float(np.min(fp)):.3e}; the map is not invertible"
        )
    theta = grid(n)
    r = _lift_newton(f.g, dg, f.order, theta, theta - float(np.mean(f.g)),
                     tol, max_iter,
                     "inverse-map Newton did not converge")
    return InternalMap(r - theta, f.order)


_Residual = namedtuple("_Residual", "ex ey err idx w")


def _residual(circle: TorusEmbedding, f: InternalMap,
              family: StandardNonTwistMap, par: ParamPoint) -> _Residual:
    """E = F(K) - K o f on the nodes, its sup, and the stencil of f there."""
    fx, fy = family.eval_lift(circle.x_lift(), circle.k_y, par)
    s = grid(f.n) + f.g
    idx, w = interp_stencil(f.n, s, f.order)
    ex = fx - (s + interp_apply(circle.eta_x, idx, w))
    ey = fy - interp_apply(circle.k_y, idx, w)
    err = float(max(np.max(np.abs(ex)), np.max(np.abs(ey))))
    return _Residual(ex, ey, err, idx, w)


@dataclass(frozen=True)
class GeneralStepReport:
    fixed_point_iters: int   # torsion and normal transfer solves together


def newton_step_general(
    circle: TorusEmbedding,
    f: InternalMap,
    family: StandardNonTwistMap,
    par: ParamPoint,
    residual: _Residual | None = None,
):
    """One Newton update of (K, f); returns the new pair and a report.

    The step is exact and cold-started: f^-1 is solved first, and
    invert_map's check that f' > 0 is the step's monotonicity check;
    then the torsion and normal transfer solves run from their cold
    starts to full tolerance.  Every stencil and derivative of the step
    is at f.order.  residual, _residual of (K, f), is computed when None.
    """
    n = f.n
    p = f.order
    sigma = family.sigma

    dg = grid_derivative(f.g, p)
    finv = invert_map(f, dg=dg)
    fp = 1.0 + dg
    if residual is None:
        residual = _residual(circle, f, family, par)
    ex, ey, _, s_idx, s_w = residual

    lx = 1.0 + grid_derivative(circle.eta_x, p)
    ly = grid_derivative(circle.k_y, p)
    n0x, n0y, _ = normal0_values(lx, ly)
    t0 = torsion0(n0x, n0y, interp_apply(n0x, s_idx, s_w),
                  interp_apply(n0y, s_idx, s_w),
                  family.jacobian(circle.x_lift(), circle.k_y, par))

    vth, vth_iters = vartheta_general(t0, fp, sigma, s_idx, s_w)
    nx, ny = normal_values(lx, ly, n0x, n0y, vth)

    eta_l = -(interp_apply(ny, s_idx, s_w) * ex - interp_apply(nx, s_idx, s_w) * ey)
    eta_n = (interp_apply(ly, s_idx, s_w) * ex - interp_apply(lx, s_idx, s_w) * ey)

    # normal equation (sigma/f') xi - xi o f = eta_n, as the backward
    # fixed point xi = -eta_n(f^-1) + (sigma/f'(f^-1)) * xi(f^-1)
    r_idx, r_w = interp_stencil(n, grid(n) + finv.g, p)
    xi, xi_iters = solve_transfer(
        -interp_apply(eta_n, r_idx, r_w),
        sigma / interp_apply(fp, r_idx, r_w),
        r_idx, r_w, sigma,
    )

    # smooth the updates: grid-frequency components of the correction are
    # amplified by the derivative stencils faster than Newton contracts
    # them, so unfiltered steps go unstable; top-octave content of the
    # solution itself is recovered by grid refinement instead.  The
    # transforms check the block for finiteness
    upd = transform(np.stack((nx * xi, ny * xi, eta_l)), cut_spectra)
    new_circle = TorusEmbedding.fresh(circle.eta_x + upd[0],
                                      circle.k_y + upd[1])
    new_f = InternalMap(f.g - upd[2], p)
    report = GeneralStepReport(vth_iters + xi_iters)
    return new_circle, new_f, report


@dataclass(frozen=True)
class GeneralSolution:
    circle: TorusEmbedding
    f: InternalMap
    err: float
    iterations: int


# widest residual floor, relative to tol, a stopped pass may settle on
_FLOOR_FACTOR = 100.0


def newton_solve_general(
    circle: TorusEmbedding,
    f: InternalMap,
    family: StandardNonTwistMap,
    par: ParamPoint,
    tol: float = 1e-11,
    max_newton: int = 20,
) -> GeneralSolution:
    """Iterate newton_step_general to tolerance, in one pass.

    Returns the first iterate within tol.  A pass that stops short (the
    iteration cap, a non-finite or blown-up residual, or a step raising
    NtCircleError) returns its best iterate, with its true residual, if
    that is within _FLOOR_FACTOR * tol.  Otherwise the failing step's
    error is re-raised, or DivergenceError carrying the best residual.
    A circle and a map on different grids raise ValueError before any
    step.
    """
    if circle.n != f.n:
        raise ValueError(f"circle on {circle.n} nodes and map on {f.n}: "
                         f"they must share one grid")
    first = None
    best = None
    failure = None
    for it in range(max_newton + 1):
        res = _residual(circle, f, family, par)
        err = res.err
        if first is None:
            first = err
        if err <= tol:
            return GeneralSolution(circle, f, err, it)
        if not math.isfinite(err) or err > 1e3 * (first + tol):
            break
        if best is None or err < best.err:
            best = GeneralSolution(circle, f, err, it)
        if it == max_newton:
            break
        try:
            circle, f, _ = newton_step_general(circle, f, family, par, res)
        except NtCircleError as exc:
            failure = exc
            break
    if best is not None and best.err <= _FLOOR_FACTOR * tol:
        return best
    if failure is not None:
        raise failure
    residual = err if best is None else best.err
    raise DivergenceError(
        f"general Newton stopped at residual {err:.3e} after {it} "
        f"iterations, best residual {residual:.3e}",
        residual=residual,
    )


def _cell_polynomials(values: np.ndarray, order: int) -> np.ndarray:
    """Per-cell monomial coefficients of the Lagrange interpolant, times n.

    Row i, highest degree first, is the polynomial c(s) with
    c(s) = n * interp_apply(values, *interp_stencil(n, (i + s) / n, order))
    for s in [0, 1): the stencil of interp_stencil written out in powers
    of s.  Row n repeats
    row 0, for a grid coordinate that rounds up to n.
    """
    n = values.size
    offs = np.arange(order) - (order // 2 - 1)
    table = np.zeros((n + 1, order))
    for k, ok in enumerate(offs):
        others = np.delete(offs, k)
        basis = np.poly(others) / np.prod(ok - others)
        table[:n] += np.outer(np.roll(values, -ok), basis)
    table *= n
    table[n] = table[0]
    return table


# _weighted_average holds the weights of each power-of-two length up to
# this, half of each, below 128 KiB in all; held up to 2^16, the longest
# average of the rho_sweep benchmark, they read 0.3 MiB more peak RSS there
_WEIGHTS_LONGEST = 1 << 14


@functools.cache
def _bump_weights(m: int) -> tuple[np.ndarray, float]:
    """The bump w(t) = exp(-1/(t(1-t))) at the midpoints t = (i + 1/2)/m:
    the first half of w, read-only, and sum(w).

    m must be a power of two, else ValueError: then every t and 1 - t are
    exact, so w is exactly symmetric.  The formula runs in place in one
    buffer; as one expression, its temporaries read 1 MiB more peak RSS
    on the rho_sweep benchmark.
    """
    if m < 2 or m & (m - 1):
        raise ValueError(f"bump weights need a power-of-two length, got {m}")
    w = np.arange(m, dtype=float)
    w += 0.5
    w /= m
    w *= 1.0 - w
    np.divide(-1.0, w, out=w)
    np.exp(w, out=w)
    half = w[:m // 2].copy()
    half.setflags(write=False)
    return half, np.sum(w)


def _weighted_average(d: np.ndarray) -> float:
    """sum(w*d) / sum(w) with the bump weights w of _bump_weights, held up
    to _WEIGHTS_LONGEST.  w*d is written in two halves, of w's first half
    and of it reversed: the plain formula's operations, so its bits.
    """
    m = d.size
    half, total = (_bump_weights if m <= _WEIGHTS_LONGEST
                   else _bump_weights.__wrapped__)(m)
    k = m // 2
    wd = np.empty(m)
    np.multiply(half, d[:k], out=wd[:k])
    np.multiply(half[::-1], d[k:], out=wd[k:])
    return float(np.sum(wd) / total)


def _birkhoff(extend, tol: float, m_max: int, what: str) -> float:
    """Weighted Birkhoff average of an orbit's displacements, to tol.

    The displacements are held in one float64 array, owned here and
    grown at each doubling with its filled stretch copied over.
    extend(d, filled) writes the displacements filled .. d.size - 1
    into d, whose first filled entries hold the earlier ones, and
    leaves those alone.  The orbit length is doubled from 1024 until
    the estimates vouch for tol, in one of two ways:

    - two successive estimates agree within tol;
    - once three differences exist (m >= 8192), the differences
      converge fast enough to bound the rest.  With d the latest
      difference, r = d / d_prev and r_prev = d_prev / d_prevprev, the
      rule asks r <= r_prev, r <= 1/2 and r * d / (1 - r) <= tol.
      While the ratios keep falling, r * d / (1 - r) bounds the sum of
      every difference still to come, so the latest estimate is within
      tol of the limit one doubling before the first rule would say so.
      The weighted average of a quasi-periodic orbit converges faster
      than any power of its length, which is where the ratios fall.

    Hitting m_max first raises ToleranceNotMetError carrying the best
    estimate, with `what` naming the quantity in its message.  m_max
    below 1024, the length of the first estimate, raises ValueError.
    """
    m = 1 << 10
    if m_max < m:
        raise ValueError(f"m_max must be at least {m}, got {m_max}")
    d = np.empty(m)
    extend(d, 0)
    est = _weighted_average(d)
    diffs: list[float] = []     # the earlier differences, latest last
    while True:
        if 2 * m > m_max:
            raise ToleranceNotMetError(
                est,
                f"{what} did not stabilize to {tol:.0e} "
                f"within {m_max} iterates",
            )
        grown = np.empty(2 * m)
        grown[:m] = d
        d = grown
        extend(d, m)
        m *= 2
        new = _weighted_average(d)
        diff = abs(new - est)
        est = new
        if diff <= tol:
            return est
        if len(diffs) >= 2:
            r, r_prev = diff / diffs[-1], diffs[-1] / diffs[-2]
            if r <= r_prev and r <= 0.5 and r * diff / (1.0 - r) <= tol:
                return est
        diffs.append(diff)


def rotation_number(
    f: InternalMap,
    tol: float = 1e-12,
    theta0: float = 0.0,
    m_max: int = 1 << 22,
) -> float:
    """Rotation number by weighted Birkhoff averaging of the displacement.

    The exponential bump weights suppress boundary (and transient) terms,
    so the average converges superpolynomially for Diophantine rotation
    and settles rapidly onto p/q in locked windows.  The orbit length is
    doubled until the estimates vouch for tol, by either stop of
    _birkhoff: two successive estimates agree within tol, or the falling
    differences bound what is left within it.  Hitting m_max first
    raises ToleranceNotMetError carrying the best estimate.

    The orbit runs in grid units t = n * theta on the per-cell table of
    the interpolant of g, so each step is one row lookup and one Horner
    pass, at every interpolation order, written into _birkhoff's array.
    """
    n = f.n
    rows = _cell_polynomials(f.g, f.order).tolist()
    t = (theta0 % 1.0) * n

    def extend(done: np.ndarray, filled: int) -> None:
        nonlocal t
        for j in range(filled, done.size):
            i = int(t)
            s = t - i
            d = 0.0
            for c in rows[i]:
                d = d * s + c
            done[j] = d
            t = (t + d) % n
        done[filled:] /= n

    return _birkhoff(extend, tol, m_max, "rotation number")


# a rotation number within _LOCK_TOL of a rational with denominator at
# most _Q_MAX is locked; a sweep bisects a lock edge down to _REFINE_WIDTH
_LOCK_TOL = 1e-8
_Q_MAX = 64
_REFINE_WIDTH = 1e-4


def lock_fraction(rho: float):
    """Nearest rational p/q with q <= _Q_MAX if within _LOCK_TOL, else None."""
    cand = Fraction(rho).limit_denominator(_Q_MAX)
    if abs(rho - float(cand)) <= _LOCK_TOL:
        return cand
    return None


@dataclass(frozen=True)
class SweepRecord:
    param: float
    rho: float
    rho_err: float       # rho_tol; nan when the Birkhoff cap was hit
    locked: bool


# map steps run before an ambient orbit's first Birkhoff chunk
_TRANSIENT = 256
# the displacements before a chunk of an ambient orbit that are read for
# the period of its cycle check (see ambient_rotation_number)
_CYCLE_TAIL = 64
# most map steps an ambient orbit takes in one orbit call
_ORBIT_CALL = 4096


def _period(d: list) -> int:
    """The smallest p < len(d) with d[p:] == d[:-p], else len(d)."""
    n, p = len(d), 0
    while True:
        try:
            p = d.index(d[0], p + 1)
        except ValueError:
            return n
        if d[p:] == d[:n - p]:
            return p


def ambient_rotation_number(
    family: StandardNonTwistMap,
    par: ParamPoint,
    xy0,
    tol: float = 1e-10,
    m_max: int = 1 << 22,
) -> float:
    """Rotation number of the forward orbit of xy0 under the ambient map.

    The attractor of a dissipative annulus map is reached geometrically
    fast, so after _TRANSIENT map steps the lift displacements x' - x can
    be averaged exactly like the displacements of an internal circle
    map, to tol by either stop of _birkhoff (two successive estimates
    agree within tol, or the falling differences bound what is left
    within it).  Works across resonance tongues where a circle
    parameterization is out of reach; locked windows give p/q to machine
    accuracy.  The orbit runs on Python floats
    (StandardNonTwistMap.orbit), with x reduced mod 1 and each
    displacement q^2 + mu taken as it is.

    A locked orbit settles onto an exact floating-point cycle.  The
    orbit runs in chunks of at most _ORBIT_CALL steps, and a doubling
    starts a new chunk.  Each chunk checks once for its cycle: if the
    _CYCLE_TAIL displacements just before it (the transient's, for the
    first) repeat with smallest period P (_period), the chunk first runs
    P steps, then the rest.  The point after those P steps, and the
    point at the chunk's end, are compared with the chunk's start point
    by == on x and y.  The map is a deterministic function of the float
    pair (x, y), so once the point returns the orbit is periodic for
    good: the displacements since the chunk's start are tiled over this
    doubling and every later one, with no further map steps.  The tiled
    displacements are the very floats that iterating would give, so the
    average, and rho, are the same bit for bit.  An orbit that never
    returns takes as many map steps as without the check.  The
    displacements are written into _birkhoff's array, so no chunk is
    ever held as a list of more than _ORBIT_CALL Python floats.
    """
    x, y = float(xy0[0]) % 1.0, float(xy0[1])
    lead, x, y = family.orbit(x, y, par, _TRANSIENT)
    lead = lead[-_CYCLE_TAIL:]      # the tail before the first chunk
    cycle = None            # (first index, period) of the exact cycle

    def run(done: np.ndarray, filled: int, steps: int) -> None:
        nonlocal x, y
        d, x, y = family.orbit(x, y, par, steps)
        done[filled:filled + steps] = d

    def extend(done: np.ndarray, filled: int) -> None:
        nonlocal cycle
        count = done.size
        while cycle is None and filled < count:
            x0, y0, start = x, y, filled
            end = min(filled + _ORBIT_CALL, count)
            period = _period(done[filled - _CYCLE_TAIL:filled].tolist()
                             if filled else lead)
            if period < _CYCLE_TAIL:    # chunks of >= 1024 steps fit it
                run(done, filled, period)
                filled += period
                if x == x0 and y == y0:
                    cycle = (start, period)
                    break
            run(done, filled, end - filled)
            filled = end
            if x == x0 and y == y0:
                cycle = (start, end - start)
        if cycle is None:
            return
        # tile whole periods: each copy doubles the stretch it copies from
        start, period = cycle
        while filled < count:
            span = (filled - start) // period * period
            steps = min(span, count - filled)
            done[filled:filled + steps] = done[filled - span:
                                               filled - span + steps]
            filled += steps

    return _birkhoff(extend, tol, m_max, "ambient rotation number")


def sweep_parameter(
    family: StandardNonTwistMap,
    par: ParamPoint,
    xy0,
    which: str,
    halfwidth: float,
    step: float,
    *,
    rho_tol: float = 1e-10,
) -> list[SweepRecord]:
    """Rotation number versus a or mu around the given parameter point.

    Every point takes its rotation number from the ambient orbit of xy0
    (ambient_rotation_number, to rho_tol): on a dissipative map the
    attracting circle is the attractor, so no circle is solved for.  As
    every point starts from the same xy0, the order of the points does
    not matter.  The sweep makes two passes through fourier.split_items,
    on two cores where the process may use two.  The first walks outward
    from the center in both directions.  The second bisects every
    locked/unlocked gap of the walk as one chain: it halves the gap,
    keeps the half whose ends differ in lock, and stops once the gap is
    no wider than _REFINE_WIDTH or its midpoint no longer falls strictly
    inside it.  A gap's midpoints depend on the lock flags of its own
    ends alone, so the chains give the points that rounds of halving
    every gap at once would give.  A point whose average hits its cap
    keeps the best estimate with rho_err = nan, and the sweep goes on.
    Records are returned sorted by parameter.
    """
    if which not in ("a", "mu"):
        raise ValueError(f"sweep parameter must be 'a' or 'mu', got {which!r}")
    center = getattr(par, which)
    records: dict[float, SweepRecord] = {}

    def rho_at(value: float) -> SweepRecord:
        try:
            rho = ambient_rotation_number(
                family, replace(par, **{which: value}), xy0, rho_tol)
            rho_err = rho_tol
        except ToleranceNotMetError as exc:
            rho, rho_err = exc.best, float("nan")
        return SweepRecord(
            value, rho, rho_err,
            lock_fraction(rho) is not None,
        )

    def bisect(gap: tuple) -> list[SweepRecord]:
        """The midpoints of one locked/unlocked gap, halved to the end."""
        lo, hi, lo_locked = gap
        out = []
        while hi - lo > _REFINE_WIDTH and lo < 0.5 * (lo + hi) < hi:
            rec = rho_at(0.5 * (lo + hi))
            out.append(rec)
            if rec.locked == lo_locked:
                lo = rec.param
            else:
                hi = rec.param
        return out

    steps = int(math.floor(halfwidth / step + 1e-9))
    walk = [center] + [center + sign * j * step
                       for sign in (1.0, -1.0) for j in range(1, steps + 1)]
    for rec in split_items(rho_at, walk):
        records[rec.param] = rec
    keys = sorted(records)
    gaps = [(lo, hi, records[lo].locked) for lo, hi in zip(keys, keys[1:])
            if records[lo].locked != records[hi].locked]
    for chain in split_items(bisect, gaps):
        for rec in chain:
            records[rec.param] = rec
    return [records[k] for k in sorted(records)]


def induced_internal_map(
    circle: TorusEmbedding, family: StandardNonTwistMap, par: ParamPoint,
    tol: float = 1e-13, max_iter: int = 60, order: int = 4,
) -> InternalMap:
    """Internal dynamics read off an (approximately) invariant circle.

    Solves K_x(phi_j) = F_x(K(theta_j)) on lifts for each node, giving
    the displacement of the conjugated map f = K^{-1} o F o K in the
    x-coordinate, interpolated at the given order, which the map keeps.
    Meaningful when the circle is close to invariant.
    """
    fx, _ = family.eval_lift(circle.x_lift(), circle.k_y, par)
    dh = grid_derivative(circle.eta_x, order)
    phi = _lift_newton(circle.eta_x, dh, order, fx,
                       fx - float(np.mean(circle.eta_x)), tol, max_iter,
                       "conjugacy solve did not converge")
    return InternalMap(phi - grid(circle.n), order)
