"""Conformally symplectic annulus maps and their parameter derivatives.

The built-in family is the dissipative standard non-twist map

    x' = x + (sigma*y + eps*p(x) - a)^2 + mu      (mod 1)
    y' = sigma*y + eps*p(x)

with dissipation sigma in (0, 1) and a periodic forcing p.  Its Jacobian
has determinant sigma identically, the hallmark of conformal symplecticity,
and the quadratic x-advance makes the frequency map fold: the twist
condition fails on the curve sigma*y + eps*p(x) = a.

All evaluations are vectorized: points may be passed as a pair of floats
or as a (2, m) array of m points.  Every formula of the family reads the
forcing p(x) and q = sigma*y + eps*p(x) - a; an Evaluation holds the two
at a batch of points, so callers that need several formulas at the same
points evaluate the forcing once.  A long orbit of one point runs on
Python floats instead (StandardNonTwistMap.orbit), where a numpy scalar
would cost more than the arithmetic.  p is written once, as a function
of s = sin(2 pi x), and p' once, of s and c = cos(2 pi x): an evaluation
keeps s, so it and its Jacobian take one sine and one cosine.  The orbit
is the one exception: it writes p of s out again, in one step loop per
forcing variant and in the same operations, so a map step calls nothing
but math.sin and gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * np.pi
_SYMMETRY_SAMPLES = 256    # points check_symmetry compares the conjugacy on
_SYMMETRY_SEED = 0


@dataclass(frozen=True)
class ParamPoint:
    """Parameter triple (a, mu, eps)."""

    a: float
    mu: float
    eps: float


# p of each forcing variant as a function of s = sin(2 pi x), and p' of s
# and c = cos(2 pi x); the nonsymmetric cos(4 pi x) is 1 - 2 s^2.  They
# run on numpy arrays and on Python floats alike; StandardNonTwistMap.orbit
# writes p out again in its step loops
def _symmetric(s):
    return s / TWO_PI


def _symmetric_slope(s, c):
    return c


def _nonsymmetric(s):
    return (s + 1.0 - 2.0 * s * s) / TWO_PI


def _nonsymmetric_slope(s, c):
    return c - 4.0 * s * c


class Forcing:
    """Periodic forcing p(x) with derivative, amplitude-normalized by 2 pi.

    Calling it evaluates p with numpy, on arrays or scalars.  `of_sine`
    is p itself as a function of s = sin(2 pi x) and `slope` is p' of s
    and c = cos(2 pi x); on Python floats they run with no numpy scalar
    in the way.
    """

    SYMMETRIC = "symmetric"
    NONSYMMETRIC = "nonsymmetric"

    def __init__(self, variant: str):
        if variant not in (self.SYMMETRIC, self.NONSYMMETRIC):
            raise ValueError(f"unknown forcing variant {variant!r}")
        self.variant = variant
        self.of_sine, self.slope = (
            (_symmetric, _symmetric_slope) if variant == self.SYMMETRIC
            else (_nonsymmetric, _nonsymmetric_slope))

    def __call__(self, x):
        return self.of_sine(np.sin(TWO_PI * x))

    def deriv(self, x):
        return self.slope(np.sin(TWO_PI * x), np.cos(TWO_PI * x))


class Evaluation:
    """The family at a batch of points x, y and a parameter point.

    Holds x, the parameter point, s = sin(2 pi x), p(x) and the folded
    frequency variable q = sigma*y + eps*p(x) - a.  The lift, the
    Jacobian, D_a F_x and D_eps F are formulas in these; the Jacobian
    evaluates p'(x) from s and cos(2 pi x).
    """

    __slots__ = ("family", "x", "par", "s", "px", "q")

    def __init__(self, family: "StandardNonTwistMap", x, y, par: ParamPoint):
        self.family, self.x, self.par = family, x, par
        self.s = np.sin(TWO_PI * x)
        self.px = family.forcing.of_sine(self.s)
        self.q = family.sigma * y + par.eps * self.px - par.a

    def lift(self):
        q = self.q
        return self.x + q * q + self.par.mu, q + self.par.a

    def jacobian(self):
        q, sigma = self.q, self.family.sigma
        pd = self.par.eps * self.family.forcing.slope(
            self.s, np.cos(TWO_PI * self.x))
        j = np.empty((2, 2) + np.shape(q))
        j[0, 0] = 1.0 + 2.0 * q * pd
        j[0, 1] = 2.0 * q * sigma
        j[1, 0] = pd
        j[1, 1] = sigma
        return j

    def d_a(self):
        """D_a F_x; the y row, D_a F_y, is zero."""
        return -2.0 * self.q

    def d_eps(self):
        return 2.0 * self.q * self.px, self.px


class StandardNonTwistMap:
    """The dissipative standard non-twist family defined above.

    Provides the lifted map, its phase-space Jacobian and the three
    parameter derivatives, all vectorized over point batches; sigma is
    the constant conformal factor (Jacobian determinant).  Each method
    evaluates the forcing afresh; evaluate() is the one evaluation they
    all read.
    """

    def __init__(self, sigma: float, forcing: Forcing | str = Forcing.SYMMETRIC):
        if not 0.0 < sigma < 1.0:
            raise ValueError(f"need sigma in (0, 1), got {sigma}")
        if isinstance(forcing, str):
            forcing = Forcing(forcing)
        self.sigma = float(sigma)
        self.forcing = forcing

    def evaluate(self, x, y, p: ParamPoint) -> Evaluation:
        return Evaluation(self, x, y, p)

    def eval_lift(self, x, y, p: ParamPoint):
        return self.evaluate(x, y, p).lift()

    def eval(self, x, y, p: ParamPoint):
        xl, yn = self.eval_lift(x, y, p)
        return np.mod(xl, 1.0), yn

    def jacobian(self, x, y, p: ParamPoint):
        return self.evaluate(x, y, p).jacobian()

    def d_a(self, x, y, p: ParamPoint):
        dax = self.evaluate(x, y, p).d_a()
        return dax, np.zeros_like(dax)

    def d_mu(self, x, y, p: ParamPoint):
        shape = np.shape(np.asarray(x, dtype=float))
        return np.ones(shape), np.zeros(shape)

    def d_eps(self, x, y, p: ParamPoint):
        return self.evaluate(x, y, p).d_eps()

    def orbit(self, x: float, y: float, p: ParamPoint, steps: int):
        """steps iterates of one point, on Python floats.

        Returns the lift displacements x' - x = q^2 + mu of the steps, as
        a list, and the end point, with x reduced mod 1.  x stays in
        [0, 1) all along, so no digits are lost to a growing lift.  Each
        forcing variant has its own step loop with p of s = sin(2 pi x)
        written out, in the operations of Forcing.of_sine, so a step calls
        nothing but math.sin and gives the bits of_sine would.
        """
        sin = math.sin
        sigma, eps, a, mu, two_pi = self.sigma, p.eps, p.a, p.mu, TWO_PI
        out = [0.0] * steps
        if self.forcing.variant == Forcing.SYMMETRIC:
            for i in range(steps):
                q = sigma * y + eps * (sin(two_pi * x) / two_pi) - a
                out[i] = d = q * q + mu
                x = (x + d) % 1.0
                y = q + a
        else:
            for i in range(steps):
                s = sin(two_pi * x)
                q = sigma * y + eps * ((s + 1.0 - 2.0 * s * s) / two_pi) - a
                out[i] = d = q * q + mu
                x = (x + d) % 1.0
                y = q + a
        return out, x, y


def check_symmetry(family: StandardNonTwistMap, p: ParamPoint) -> float:
    """Max deviation of the conjugacy S F_a S = F_{-a}, S(x,y) = (x-1/2, -y).

    Zero (to rounding) for the odd-symmetric forcing; order-one for the
    non-symmetric one, on _SYMMETRY_SAMPLES seeded random points of
    [0, 1) x [-2, 2].  The x component is compared on the circle.
    """
    rng = np.random.default_rng(_SYMMETRY_SEED)
    x = rng.random(_SYMMETRY_SAMPLES)
    y = rng.uniform(-2.0, 2.0, _SYMMETRY_SAMPLES)
    sx, sy = np.mod(x - 0.5, 1.0), -y
    fx, fy = family.eval(sx, sy, p)
    lhs_x, lhs_y = np.mod(fx - 0.5, 1.0), -fy
    rhs_x, rhs_y = family.eval(x, y, replace(p, a=-p.a))
    dx = np.abs(lhs_x - rhs_x)
    dx = np.minimum(dx, 1.0 - dx)
    return float(max(np.max(dx), np.max(np.abs(lhs_y - rhs_y))))
