"""Adapted frames along approximately invariant circles.

An embedded circle K(theta) = (theta + eta_x(theta), K_y(theta)) carries
the tangent field L = K' and the normalized normal N0 = Omega L / <L, L>,
where Omega is the rotation by a quarter turn, [[0, -1], [1, 0]].  The
pair P = [L, N] with N = L*vartheta + N0 reduces the map differential to
upper-triangular form

    DF(K(theta)) P(theta) = P(f(theta)) diag(f'(theta), sigma / f'(theta)),

with f the internal dynamics (f = theta + omega in the quasi-periodic
case, f' = 1).  The torsion t0 measures how DF shears N0 back into the
tangent direction; vartheta cancels that shear and is the quantity whose
blow-up signals loss of normal hyperbolicity.  det P = 1 identically,
which is the frame's health check.

An embedding (TorusEmbedding) holds eta_x and K_y as checked read-only
sample arrays, as every other field is held.  The frame is written
once, on sample arrays, for both solvers: tangent gives L from one
transform pair, normal0_values N0 and the gram <L, L>, torsion0 the
torsion from N0 composed with f (shifted spectrally in the
quasi-periodic solver, read through the Lagrange stencil of f in the
grid solver), and normal_values N with its det P = 1 check; DF along
the circle comes in one form, uncut, the (2, 2, N) sample array of
Evaluation.jacobian.  vartheta_qp solves the torsion equation
spectrally, in place on the samples of -t0, which the transform checks
and freezes and the caller keeps; the grid solver, whose f is free,
uses vartheta_general, and solve_transfer is the one fixed-point kernel
for both of its transfer equations, the torsion equation here and the
normal equation of its Newton step.  Every transfer solve is exact: it
starts from x = a and runs to _FIXED_POINT_TOL.

Sign conventions: <u, Omega v> = u_y v_x - u_x v_y, so <N0, Omega L> = 1
and <L, Omega N> = -1; the inverse transition P^{-1} has rows N^T Omega
and -L^T Omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fourier
from .errors import (ContractionFailureError, DegenerateCircleError,
                     FrameDegeneracyError, NonFiniteError)
from .fourier import PeriodicScalar

_GRAM_FLOOR = 1e-12
_DET_TOL = 1e-8
_FIXED_POINT_TOL = 1e-12

Pair = tuple[np.ndarray, np.ndarray]


# compared by identity: == on two sample arrays gives no single truth value
@dataclass(frozen=True, eq=False)
class TorusEmbedding:
    """Circle embedding stored as (eta_x, K_y) with K_x = theta + eta_x.

    Both fields are checked read-only float64 sample arrays on one
    dyadic grid.  Arrays handed in are copied, except a read-only
    float64 array that owns its memory, which is adopted as it is: that
    is what fourier.checked gives back, and what fresh() hands in.
    """

    eta_x: np.ndarray
    k_y: np.ndarray

    def __post_init__(self):
        for name in ("eta_x", "k_y"):
            v = getattr(self, name)
            if not (type(v) is np.ndarray and v.dtype == np.float64
                    and v.base is None and not v.flags.writeable):
                v = np.array(v, dtype=float)
            object.__setattr__(self, name, fourier.checked_field(v))
        if self.eta_x.size != self.k_y.size:
            raise ValueError("components must share one grid")

    @classmethod
    def fresh(cls, eta_x: np.ndarray, k_y: np.ndarray) -> "TorusEmbedding":
        """Adopt two fresh arrays held nowhere else, frozen: one scan each."""
        eta_x.setflags(write=False)
        k_y.setflags(write=False)
        return cls(eta_x, k_y)

    @property
    def n(self) -> int:
        return self.eta_x.size

    @classmethod
    def zero_section(cls, n: int) -> "TorusEmbedding":
        return cls(np.zeros(n), np.zeros(n))

    def x_lift(self) -> np.ndarray:
        """Samples of K_x as a lift (theta_j + eta_x, not reduced mod 1)."""
        return fourier.grid(self.n) + self.eta_x

    def resample(self, n_new: int) -> "TorusEmbedding":
        """Both fields on n_new nodes, in one two-row block; self on its own."""
        if n_new == self.n:
            return self
        return TorusEmbedding(*fourier.resample(
            np.array((self.eta_x, self.k_y)), n_new))


def half_shift_deviation(k: TorusEmbedding,
                         image: TorusEmbedding | None = None) -> float:
    """sup distance between image(theta) and S K(theta + 1/2); image = K.

    With S(x, y) = (x - 1/2, -y) the x-shifts cancel: the condition is
    image's eta_x = eta_x(. + 1/2) and image's K_y = -K_y(. + 1/2).  With
    image = K it is the symmetry of circles of the symmetric forcing at
    a = 0; the circle at twist level -b_a0 is the image of the one at
    b_a0.  x is compared mod 1.
    """
    image = k if image is None else image
    sx, sy = fourier.transform(np.array((k.eta_x, k.k_y)),
                               fourier.shift_spectra, 0.5)
    dx = image.eta_x - sx
    dx = dx - np.round(dx)
    dy = float(np.abs(image.k_y + sy).max())
    return max(float(np.abs(dx).max()), dy)


@dataclass(frozen=True)
class AdaptedFrame:
    """Tangent/normal pair reducing DF to triangular form, as samples."""

    l: Pair
    # the one wrapped field: its wrap reports a gram overflowed to inf,
    # and the benchmark's tracer sizes the reducibility span by gram.n
    gram: PeriodicScalar
    nvec: Pair
    sigma: float


@dataclass(frozen=True)
class Diagnostics:
    """Converged-state health report attached to solver output."""

    invariance_error: float
    reducibility_error: float
    min_angle: float
    twist_a: float
    twist_mu: float
    tail: float


def tangent(k: TorusEmbedding) -> Pair:
    """L = K' = (1 + eta_x', K_y'), read-only sample arrays from one
    checked transform pair; L_y is copied out, so nothing pins it."""
    rows = fourier.transform(np.array((k.eta_x, k.k_y)),
                             fourier.derivative_spectra)
    lx = rows[0] + 1.0    # finite samples stay finite
    lx.setflags(write=False)
    return (lx, *fourier.fields(rows[1:2]))


def normal0_values(lx: np.ndarray, ly: np.ndarray):
    """N0 = Omega L / <L, L> and the gram function <L, L> on samples."""
    gram = lx * lx + ly * ly
    if float(gram.min()) < _GRAM_FLOOR:
        raise DegenerateCircleError(
            f"tangent gram min {float(gram.min()):.3e} below "
            f"{_GRAM_FLOOR:.0e}; the embedding has (nearly) stalled"
        )
    return -ly / gram, lx / gram, gram


def torsion0(n0x, n0y, n0x_f, n0y_f, dfk) -> np.ndarray:
    """t0(theta) = N0(f(theta))^T Omega DF(K(theta)) N0(theta) on samples.

    (n0x_f, n0y_f) are the samples of N0 o f, N0 composed with the
    internal dynamics; dfk is DF along the circle, the (2, 2, N) sample
    array of Evaluation.jacobian.
    """
    (d00, d01), (d10, d11) = dfk
    wx = d00 * n0x + d01 * n0y
    wy = d10 * n0x + d11 * n0y
    return n0y_f * wx - n0x_f * wy


def vartheta_qp(t0: np.ndarray, sigma: float, omega: float) -> np.ndarray:
    """Solve vartheta - sigma * vartheta(. + omega) = -t0 spectrally.

    t0 holds the torsion samples; linear_shift_spectra solves in place
    on -t0, a fresh 1-D array that the transform checks and freezes once
    and returns.  Divisors 1 - sigma*e(k*omega) stay within distance
    1 - sigma of 1, so the solve is uniformly stable for sigma in (0, 1).
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"need sigma in (0, 1), got {sigma}")
    return fourier.transform(-t0, fourier.linear_shift_spectra, 1.0, sigma,
                             omega)


def solve_transfer(a, b, idx, w, sigma: float):
    """Solve x = a + b * x(s) on grid samples by fixed-point iteration.

    x(s) is read through the Lagrange stencil (idx, w) of the points s.
    The iteration starts from x = a and stops once a pass moves x by less
    than _FIXED_POINT_TOL relative to max(1, |x|); since b contracts like
    sigma, the error left is a few times that.  The iteration budget is
    ten times the count sigma**k needs to reach the tolerance; not
    settling within it means b does not contract along the orbits of s,
    reported as a contraction failure.  Returns the solution and the
    number of iterations used.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"need sigma in (0, 1), got {sigma}")
    cap = int(math.ceil(10.0 * math.log(_FIXED_POINT_TOL) / math.log(sigma)))
    x = a
    for it in range(cap):
        nxt = a + b * np.sum(x[idx] * w, axis=0)
        delta = float(np.max(np.abs(nxt - x)))
        x = nxt
        if delta < _FIXED_POINT_TOL * max(1.0, float(np.max(np.abs(x)))):
            return x, it + 1
    raise ContractionFailureError(
        f"transfer fixed point stalled after {cap} iterations"
    )


def vartheta_general(t0, fprime, sigma: float, idx, w):
    """Torsion-cancelling coefficient for general internal dynamics f.

    Solves f'*vartheta - (sigma/f')*vartheta(f(.)) = -t0 on the grid as
    the forward fixed point

        vartheta = -t0/f' + (sigma/f'^2) * vartheta(f(.)),

    which contracts like sigma^k / prod f'(f^i)^2 along the orbits of f.
    t0 and fprime are samples on the nodes and (idx, w) the Lagrange
    stencil of f at the nodes.  Returns vartheta and the iteration count
    of solve_transfer.
    """
    return solve_transfer(-t0 / fprime, sigma / (fprime * fprime), idx, w,
                          sigma)


def normal_values(lx, ly, n0x, n0y, vartheta):
    """N = L*vartheta + N0 on samples, checked by det [L, N] = 1."""
    nx = lx * vartheta + n0x
    ny = ly * vartheta + n0y
    defect = float(np.abs(lx * ny - ly * nx - 1.0).max())
    if defect > _DET_TOL:
        raise FrameDegeneracyError(
            f"frame determinant deviates from 1 by {defect:.3e}"
        )
    return nx, ny


def reducibility_error(frame: AdaptedFrame, dfk, l_shifted, n_shifted):
    """sup-norm of the residual DF P - P(. + omega) diag(1, sigma).

    dfk is DF along the circle as torsion0 takes it; l_shifted and
    n_shifted are the frame columns L(. + omega) and N(. + omega), as
    pairs of sample arrays.  A residual column with a NaN or infinite
    sample has a non-finite sup and raises NonFiniteError.
    """
    cols = ((frame.l, l_shifted, 1.0), (frame.nvec, n_shifted, frame.sigma))
    sups = [float(np.abs(d0 * vx + d1 * vy - mult * s).max())
            for (vx, vy), shifted, mult in cols
            for (d0, d1), s in zip(dfk, shifted)]
    if not all(map(math.isfinite, sups)):
        raise NonFiniteError("samples must be finite")
    return max(sups)


def min_angle(vartheta: np.ndarray, gram: np.ndarray) -> float:
    """Smallest angle between tangent and reduced normal over the circle.

    alpha = min_theta arctan(1 / |vartheta * <L, L>|), the breakdown
    indicator: alignment of the frame columns sends it to zero.  Takes
    samples of vartheta and of the gram function.
    """
    m = float(np.abs(vartheta * gram).max())
    if m == 0.0:
        return math.pi / 2.0
    return math.atan(1.0 / m)

