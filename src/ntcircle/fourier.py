"""Spectral representation of real functions on the circle R/Z.

Values live on the uniform dyadic grid theta_j = j/N and coefficients in
the truncated Fourier basis k = -N/2+1 .. N/2.  Storage is real-to-complex
(numpy rfft, normalized so c_0 is the mean): only k = 0 .. N/2 is kept,
the negative modes being the complex conjugates.

Nyquist convention: the k = N/2 bin holds the real amplitude of the
cos(pi*N*theta) mode, the only representative of the +-N/2 pair that the
grid can see.  On the nodes this mode is an eigenvector of the shift by
delta with eigenvalue cos(pi*N*delta), and shift() implements exactly
that, so the algebraic identities behind the cohomological solvers hold
on the grid for every representable input, Nyquist content included.
Odd spectral operations (derivative) send the bin to zero.

Work that never changes is done once.  The phase vectors e(k*delta) of
shift and of the cohomological solvers come from one bounded cache
keyed on (n, delta), read-only like the grids.  dealias returns a
constant field as it is, and dealias_tail filters a composition and
gauges its raw tail from one transform, whose mode weights are cached
per n.

Each field is wrapped once, and the wrap is the one place finiteness is
checked.  PeriodicScalar.__init__ is the only constructor; it adopts the
samples the package has just allocated (arithmetic results, inverse
transforms, the fused formulas of the solvers, all through _fresh) and
copies everything else, so no outside reference reaches the samples.
The solvers compute a field's +, - and * formula on sample arrays and
wrap only its result: under IEEE rules a +, - or * with a NaN or
infinite operand never gives a finite result, so checking the result is
exactly as strict as checking every intermediate, and the same
NonFiniteError comes from the same call.  Divisions are not fused, since
x/inf = 0 would hide an inf.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NonFiniteError, SmallDivisorError

_DIVISOR_FLOOR = 1e-13


def _check_size(n: int) -> None:
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 8, got {n}")


@lru_cache(maxsize=64)
def grid(n: int) -> np.ndarray:
    """Nodes theta_j = j/n as a read-only array."""
    _check_size(n)
    g = np.arange(n) / n
    g.setflags(write=False)
    return g


@lru_cache(maxsize=64)
def _wavenumbers(n: int) -> np.ndarray:
    k = np.arange(n // 2 + 1, dtype=float)
    k.setflags(write=False)
    return k


@lru_cache(maxsize=32)
def _phases(n: int, delta: float) -> np.ndarray:
    """e(k*delta) = exp(2 pi i k delta) for k = 0 .. n/2, read-only."""
    ph = np.exp(2j * np.pi * _wavenumbers(n) * delta)
    ph.setflags(write=False)
    return ph


class PeriodicScalar:
    """Real 1-periodic function sampled on the dyadic grid of size n.

    Immutable; arithmetic is pointwise and requires matching grids.
    Non-finite samples are rejected so solver blow-ups surface early.
    Every instance, arithmetic results included, is built here and
    checked here, once.  Samples handed in by a caller are always
    copied.  _owned marks samples this package has just allocated and
    references nowhere else: a 1-D float64 array that owns its memory is
    then frozen and adopted without a copy, and anything else is still
    copied, so a view never pins the array it looks into.
    """

    __slots__ = ("values", "n")

    def __init__(self, values, *, _owned=False):
        if (_owned and type(values) is np.ndarray and values.base is None
                and values.dtype == np.float64):
            v = values
        else:
            v = np.array(values, dtype=float)
        if v.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        _check_size(v.size)
        if not np.isfinite(v).all():
            raise NonFiniteError("samples must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "n", v.size)

    def __setattr__(self, name, value):
        raise AttributeError("PeriodicScalar is immutable")

    @classmethod
    def zeros(cls, n: int) -> "PeriodicScalar":
        _check_size(n)
        return _fresh(np.zeros(n))

    def _other_values(self, other):
        if isinstance(other, PeriodicScalar):
            if other.n != self.n:
                raise ValueError(f"grid mismatch: {self.n} vs {other.n}")
            return other.values
        return other

    def __add__(self, other):
        return _fresh(self.values + self._other_values(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _fresh(self.values - self._other_values(other))

    def __rsub__(self, other):
        return _fresh(self._other_values(other) - self.values)

    def __mul__(self, other):
        return _fresh(self.values * self._other_values(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _fresh(self.values / self._other_values(other))

    def __neg__(self):
        return _fresh(-self.values)

    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __repr__(self):
        return f"PeriodicScalar(n={self.n}, sup={self.sup():.3e})"


def _fresh(values: np.ndarray) -> PeriodicScalar:
    """Wrap samples that nothing else references, without a copy."""
    return PeriodicScalar(values, _owned=True)


def average(u: PeriodicScalar) -> float:
    """Mean value, identical to the k = 0 coefficient."""
    return float(np.mean(u.values))


def _shift_half(half: np.ndarray, n: int, delta: float) -> np.ndarray:
    out = half * _phases(n, delta)
    # the Nyquist pair collapses to a cos mode; on the nodes a shift
    # scales it by cos(pi*n*delta) and keeps it real
    out[-1] = half[-1].real * np.cos(np.pi * n * delta)
    return out


def shift(u: PeriodicScalar, delta: float) -> PeriodicScalar:
    """Samples of theta -> u(theta + delta)."""
    half = np.fft.rfft(u.values) / u.n
    return _fresh(np.fft.irfft(_shift_half(half, u.n, delta) * u.n, u.n))


def _derivative_values(v: np.ndarray) -> np.ndarray:
    """Samples of the spectral d/dtheta of the samples v."""
    n = v.size
    dh = np.fft.rfft(v) / n * (2j * np.pi * _wavenumbers(n))
    dh[-1] = 0.0
    return np.fft.irfft(dh * n, n)


def derivative(u: PeriodicScalar) -> PeriodicScalar:
    """Spectral d/dtheta; the Nyquist bin is annihilated (odd operator)."""
    return _fresh(_derivative_values(u.values))


def _solve_linear_shift(
    eta: np.ndarray, lam: float, rho: float, omega: float
) -> PeriodicScalar:
    """Solve lam*xi(theta) - rho*xi(theta+omega) = eta(theta) mode by mode.

    eta comes as samples.  Divisors lam - rho*e(k*omega) stay away from
    zero when |lam| != |rho|.  The Nyquist bin uses the grid eigenvalue
    cos(pi*n*omega) of the shift, which makes the identity exact on the
    nodes; that divisor can degenerate, reported as a small divisor.
    """
    n = eta.size
    half = np.fft.rfft(eta) / n
    div = lam - rho * _phases(n, omega)
    nyq = lam - rho * np.cos(np.pi * n * omega)
    if abs(nyq) < _DIVISOR_FLOOR:
        raise SmallDivisorError(n // 2, abs(nyq))
    out = half / div
    out[-1] = half[-1].real / nyq
    return _fresh(np.fft.irfft(out * n, n))


def solve_contractive(
    eta: PeriodicScalar, sigma: float, omega: float
) -> PeriodicScalar:
    """Solve sigma*xi(theta) - xi(theta + omega) = eta(theta).

    Requires |sigma| < 1; then every divisor satisfies
    |sigma - e(k*omega)| >= 1 - |sigma| and the problem is uniformly
    well posed, with no small-divisor mechanism.
    """
    if abs(sigma) >= 1.0:
        raise ValueError(f"need |sigma| < 1, got {sigma}")
    return _solve_linear_shift(eta.values, sigma, 1.0, omega)


def solve_small_divisor(
    eta: PeriodicScalar, omega: float
) -> tuple[PeriodicScalar, float]:
    """Solve xi(theta) - xi(theta + omega) = eta(theta) - <eta>.

    Returns the zero-average solution together with <eta>, the exact
    obstruction.  Fails if any represented mode has a divisor
    |1 - e(k*omega)| below 1e-13, reporting the offending k.
    """
    n = eta.n
    half = np.fft.rfft(eta.values) / n
    div = 1.0 - _phases(n, omega)
    mags = np.abs(div[1:-1])
    nyq = 1.0 - np.cos(np.pi * n * omega)
    worst = int(np.argmin(mags)) + 1 if mags.size else n // 2
    worst_mag = mags[worst - 1] if mags.size else abs(nyq)
    if abs(nyq) < worst_mag:
        worst, worst_mag = n // 2, abs(nyq)
    if worst_mag < _DIVISOR_FLOOR:
        raise SmallDivisorError(worst, float(worst_mag))
    out = np.empty_like(half)
    out[0] = 0.0
    out[1:-1] = half[1:-1] / div[1:-1]
    out[-1] = half[-1].real / nyq
    mean = float(half[0].real)
    return _fresh(np.fft.irfft(out * n, n)), mean


def _check_band(band: float) -> None:
    if not 0.0 < band < 1.0:
        raise ValueError(f"band must lie in (0, 1), got {band}")


@lru_cache(maxsize=64)
def _mass_weights(n: int) -> np.ndarray:
    """l1 weights of the half-spectrum: 2 for each conjugate pair, read-only."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    w.setflags(write=False)
    return w


def _tail(half: np.ndarray, n: int, band: float) -> float:
    """tail_fraction from the unnormalized rfft half-spectrum."""
    half = np.abs(half) / n
    mass = _mass_weights(n) * half
    total = float(np.sum(mass))
    if total == 0.0:
        return 0.0
    # the modes k > (1 - band)*(n/2) are the suffix after its floor
    start = math.floor((1.0 - band) * (n / 2.0)) + 1
    return float(np.sum(mass[start:])) / total


def tail_fraction(u: PeriodicScalar, band: float) -> float:
    """l1 mass fraction of the modes with |k| > (1 - band)*(n/2).

    Gauges how close the representation is to spectral exhaustion; 0 for
    well-resolved data, approaching 1 when the tail carries everything.
    """
    _check_band(band)
    return _tail(np.fft.rfft(u.values), u.n, band)


def resample(u: PeriodicScalar, n_new: int) -> PeriodicScalar:
    """Spectral interpolation onto a finer or coarser dyadic grid.

    Refining splits the Nyquist amplitude into the +-n/2 pair it stands
    for; coarsening folds that pair back, so refine-then-coarsen is the
    identity.  Modes beyond the new band are dropped.
    """
    _check_size(n_new)
    n = u.n
    if n_new == n:
        return u
    half = np.fft.rfft(u.values) / n
    out = np.zeros(n_new // 2 + 1, dtype=complex)
    if n_new > n:
        out[: n // 2] = half[: n // 2]
        out[n // 2] = half[n // 2].real / 2.0
    else:
        out[: n_new // 2] = half[: n_new // 2]
        out[-1] = 2.0 * half[n_new // 2].real
    return _fresh(np.fft.irfft(out * n_new, n_new))


def dealias_values(v: np.ndarray, half: np.ndarray | None = None) -> np.ndarray:
    """The 1/3 cut of samples v, from half = rfft(v) if given (overwritten)."""
    half = np.fft.rfft(v) if half is None else half
    half[v.size // 3 + 1 :] = 0.0
    return np.fft.irfft(half, v.size)


def dealias(u: PeriodicScalar) -> PeriodicScalar:
    """Zero all modes with |k| > n/3 (the classical 1/3 truncation).

    Applied to pointwise products and compositions so that quadratic
    nonlinearities cannot fold spurious energy back into retained modes.
    A constant is returned as it is: the transforms give it back bit for
    bit, except for signed zeros, which are left to them.
    """
    v = u.values
    lo = v.min()
    if lo == v.max() and (lo != 0.0 or not np.signbit(v).any()):
        return u
    return _fresh(dealias_values(v))


def dealias_tail(u: PeriodicScalar, band: float) -> tuple[PeriodicScalar, float]:
    """dealias(u) together with tail_fraction(u, band), from one transform."""
    _check_band(band)
    half = np.fft.rfft(u.values)
    tail = _tail(half, u.n, band)
    return _fresh(dealias_values(u.values, half)), tail
