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
Odd spectral operations (derivative_spectra) send the bin to zero.

Every spectral operator is diagonal in Fourier space and is written
once, as a multiplier acting in place on a block of half-spectra: the
rows of spectra(v) for an (m, N) block v of samples, one rfft along the
last axis.  The operators are shift_spectra, derivative_spectra,
cut_spectra (the 1/3 truncation; tails gauges the raw tail first) and
the two cohomological solves, linear_shift_spectra and
small_divisor_spectra.  samples() is the one way back: one irfft brings
a block of any height back over the block the spectra came from, and
checks it.  transform() is the three steps for one operator on every
row; a block whose rows need different operators applies each to its own
rows between spectra() and samples().  The solvers put every group of
fields that is ready at the same time through one block, so a transform
pair is paid per group, not per field.  Blocks are built by
np.array(rows), np.stack's copy bit for bit, without its per-row Python
work.  The single-field functions below (shift, dealias and the two
solves) are the m = 1 calls, on a copy of the samples; nothing in the
package calls them, and they are kept only for the tests and the
benchmark's tracer, which wraps them by name. resample() changes the
grid size of a block between spectra() and samples(), so irfft is called
in samples() alone.  numpy transforms the rows of a block bit for bit as
it transforms each row alone, so a block changes no bit of any field.  A
multiplier acts on the unnormalized spectra as they come: N is a power
of two, so dividing every bin by N before the multiplier and multiplying
by N after would only move exponents.  Leaving both passes out changes
no bin beyond the sign of a zero part (complex passes by N + 0j reset
it), barring a quotient by N that would have been subnormal.

The half-spectra of a block are written into one buffer per grid size
and thread, with rfft(out=), so the half-spectra of a Newton iteration's
blocks fault no fresh pages in: the buffer grows to the rows of the
largest block met, and only the latest grid's buffer is kept.  Its
contents stay valid until the thread's next spectra() call, and every
caller reads them, and brings them back with samples(), before its next
transform.  Nothing that outlives a block looks into the buffer:
fields() copies.

Large grids use two cores (split()): where two CPUs are free, a block of
two rows or more on SPLIT_MIN = 2^14 nodes or more has half its rows
transformed on a worker thread, built at the first such block (import
starts none), as the forcing of maps splits its samples, for any caller.
numpy transforms each row, and a ufunc each element, alone with the lock
released, so no bit changes.  At 2^13 a two-row pair ran slower split;
the breakdown workload ran fastest at 2^14 of 2^13, 2^14 and 2^15.
Independent items of work, the branches of a twist surface and the
points of a sweep pass, use the second core too (split_items), under the
same CPU check: a forked worker process runs the even-indexed items,
while the caller runs the odd ones, and pickles its results back, so
which process runs an item is fixed and no bit changes.  A fork beside
a live kernel thread is safe: split() returns only once the thread's
half is done or cancelled, so the thread is idle, and the worker builds
a thread of its own at its first split block (the executor is keyed by
pid).

Work that never changes is done once per grid.  The nodes, the phase
vectors e(k*delta) of shift, the derivative multipliers 2 pi i k, the
small divisors 1 - e(k*omega) and the mode weights of tails are
read-only arrays, each cached for the latest grid size only, like the
spectra buffer: a continuation climbs from grid to grid, so the
constants of every grid it has left would only pin memory (at N = 2^16
a set of them takes 2 MiB).  A grid is visited again only when a
rebuild on a finer one fails, and then its constants are built once
more.  The divisors are checked as they are built, before a block is
changed; a degenerate one is reported and not held.  tails gauges the
raw tails of a block's rows from the spectra the cut then filters.
dealias gives every constant but -0.0 back bit for bit.

Finiteness is checked in one place, checked(): it rejects an array with
a NaN or infinite sample and freezes the rest read-only.  Its scan is
np.isfinite reduced by logical_and, exact and silent on every input (a
sum warns on inf - inf, and max with min takes two passes).  Every field
is such a checked array.  checked_field() adds the shape of one field,
1-D on a dyadic grid, and is the check of the two fields of an embedding
(frame.TorusEmbedding), of the displacement of a grid-solver circle map
(solver_general.InternalMap) and of PeriodicScalar, which wraps only the
gram of a frame and the fields of the m = 1 calls.  A solver computes a
field's +, - and * formula on sample arrays and checks only its result:
under IEEE rules a +, - or * with a NaN or infinite operand never gives
a finite result, so checking the result is exactly as strict as checking
every intermediate, and the same NonFiniteError comes from the same
call.  Divisions are not fused, since x/inf = 0 would hide an inf.  A
transform is such a formula too: every bin takes every sample through +
and *, and every multiplier carries some bins on through * or / by
finite nonzero numbers, so samples() checks a block once for all its
rows.  fields() copies each row of a checked block out into a frozen
array of its own, never a view that would pin the block.
"""

from __future__ import annotations

import math
import os
import threading
from functools import wraps

import numpy as np

from .errors import NonFiniteError, SmallDivisorError

_DIVISOR_FLOOR = 1e-13


def _check_size(n: int) -> None:
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 8, got {n}")


# most keys a per-grid cache holds for its one grid (the solvers ask for
# shifts by omega and 1/2 only)
_HELD = 32


def _latest_grid(build):
    """Cache build(n, *args), arrays frozen read-only, for the latest n only.

    A call on another grid size empties the cache once the new value is
    built, so the constants of a grid the solver has left are freed, as
    the spectra buffer is; a build that raises leaves the cache alone.
    The held values are in .held, keyed (n, *args).
    """
    held: dict = {}

    @wraps(build)
    def cached(n: int, *args):
        key = (n, *args)
        value = held.get(key)
        if value is None:
            value = build(n, *args)
            value.setflags(write=False)
            if len(held) >= _HELD or next(iter(held), key)[0] != n:
                held.clear()
            held[key] = value
        return value

    cached.held = held
    return cached


@_latest_grid
def grid(n: int) -> np.ndarray:
    """Nodes theta_j = j/n as a read-only array."""
    _check_size(n)
    return np.arange(n) / n


@_latest_grid
def _wavenumbers(n: int) -> np.ndarray:
    return np.arange(n // 2 + 1, dtype=float)


@_latest_grid
def _phases(n: int, delta: float) -> np.ndarray:
    """e(k*delta) = exp(2 pi i k delta) for k = 0 .. n/2, read-only."""
    return np.exp(2j * np.pi * _wavenumbers(n) * delta)


@_latest_grid
def _derivative_multiplier(n: int) -> np.ndarray:
    """2 pi i k for k = 0 .. n/2, read-only."""
    return 2j * np.pi * _wavenumbers(n)


def checked(v: np.ndarray) -> np.ndarray:
    """v itself, frozen read-only once every sample is finite."""
    if not np.logical_and.reduce(np.isfinite(v), axis=None):
        raise NonFiniteError("samples must be finite")
    v.setflags(write=False)
    return v


def checked_field(v: np.ndarray) -> np.ndarray:
    """checked(v) for the samples of one field: 1-D, on a dyadic grid."""
    if v.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    _check_size(v.size)
    return checked(v)


class PeriodicScalar:
    """Real 1-periodic function sampled on the dyadic grid of size n.

    Immutable.  Non-finite samples are rejected by checked() so solver
    blow-ups surface early.  Samples handed in by a caller are always
    copied.  _owned marks samples this package has just allocated and
    references nowhere else: a 1-D float64 array that owns its memory is
    then adopted without a copy, and anything else is still copied, so a
    view never pins the array it looks into.
    """

    __slots__ = ("values", "n")

    def __init__(self, values, *, _owned=False):
        if (_owned and type(values) is np.ndarray and values.base is None
                and values.dtype == np.float64):
            v = values
        else:
            v = np.array(values, dtype=float)
        object.__setattr__(self, "values", checked_field(v))
        object.__setattr__(self, "n", v.size)

    def __setattr__(self, name, value):
        raise AttributeError("PeriodicScalar is immutable")

    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __repr__(self):
        return f"PeriodicScalar(n={self.n}, sup={self.sup():.3e})"


def _fresh(values: np.ndarray) -> PeriodicScalar:
    """Wrap samples that nothing else references, without a copy."""
    return PeriodicScalar(values, _owned=True)


# -- blocks: one rfft, multipliers in place, one irfft ------------------

SPLIT_MIN = 1 << 14     # the smallest grid, or sample count, that splits
_pool = None            # (the pid that built it, its one-worker executor)


def _usable_cpus() -> int | None:
    """The CPUs this process may run on; None where os cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else None


def split(work, count: int, size: int):
    """(work(s) for the halves s of range(count)): the worker runs the first.

    None, with nothing run, below 2 rows, below SPLIT_MIN or on one CPU.
    The caller runs the second half, then reads the worker's result; a
    worker not started yet, its core busy, leaves its half to the caller.
    """
    global _pool
    if count < 2 or size < SPLIT_MIN or (
            _usable_cpus() or os.cpu_count() or 1) < 2:
        return None
    if _pool is None or _pool[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        _pool = (os.getpid(), ThreadPoolExecutor(max_workers=1))
    mid = count // 2
    future = _pool[1].submit(work, slice(0, mid))
    try:
        second = work(slice(mid, count))
    finally:
        first = work(slice(0, mid)) if future.cancel() else future.result()
    return first, second


def split_items(fn, items) -> list:
    """[fn(x) for x in items], the even-indexed items run in a forked worker.

    The plain list, with no fork, below 2 items, on one CPU or where
    os.fork or os.sched_getaffinity does not exist.  Otherwise one worker
    process runs the even-indexed items while the caller runs the odd
    ones, a fixed assignment, so which process runs an item never depends
    on timing.  The worker pickles its results back through a pipe and
    always ends with os._exit; the caller reaps it before it returns or
    raises.  Each side stops at its first exception, and the one of the
    lower index is raised, as a serial run would raise it; an exception
    that does not pickle comes back as a RuntimeError that carries the
    worker's traceback.  What fn changes besides its result is lost with
    the worker.
    """
    items = list(items)
    if len(items) < 2 or not hasattr(os, "fork") or (_usable_cpus() or 1) < 2:
        return [fn(x) for x in items]
    import pickle
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:                                    # the worker
        status = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pipe.write(_worker_result(fn, items[0::2]))
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    payload = None
    with open(read, "rb") as pipe:
        try:
            ours, our_failure = _attempt(fn, items[1::2], 1)
            payload = pipe.read()
        finally:
            if payload is None:                     # the caller is unwinding
                import signal
                os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError(f"the worker process ended with wait status "
                           f"{status} and sent no result")
    theirs, their_failure = pickle.loads(payload)
    failures = [f for f in (their_failure, our_failure) if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    out = [None] * len(items)
    out[0::2], out[1::2] = theirs, ours
    return out


def _attempt(fn, items, first: int):
    """fn over items up to its first exception, the items at indices first,
    first + 2, ...: (results, None) or (results, (index, exception))."""
    results = []
    for j, x in enumerate(items):
        try:
            results.append(fn(x))
        except Exception as exc:
            return results, (first + 2 * j, exc)
    return results, None


def _worker_result(fn, items) -> bytes:
    """The pickled _attempt of the even-indexed items, in split_items' worker.

    An exception that does not come back from pickle is sent as a
    RuntimeError with its traceback's text, and so are results that do
    not pickle, with the traceback of that failure.
    """
    import pickle
    results, failure = _attempt(fn, items, 0)
    try:
        if failure is not None:
            pickle.loads(pickle.dumps(failure[1]))
        return pickle.dumps((results, failure), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        import traceback
        index, error = failure if failure is not None else (0, exc)
        text = "".join(traceback.format_exception(error))
        return pickle.dumps(([], (index, RuntimeError(
            f"a worker process could not send its result or error:\n"
            f"{text}"))))


def _rows(fft, a: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """fft(a, n, out=out), the rows of a block in two halves (split)."""
    if n < SPLIT_MIN or a.ndim == 1 or split(
            lambda s: fft(a[s], n, out=out[s]), len(a), n) is None:
        fft(a, n, out=out)
    return out


def _size(half: np.ndarray) -> int:
    """Grid size n of half-spectra with n/2 + 1 bins."""
    return 2 * (half.shape[-1] - 1)


class _PerThread(threading.local):
    # the half-spectra of the latest grid's blocks, as many rows as the
    # largest block met: threads that transform at once keep their own
    spectra = np.empty((1, 0), dtype=complex)


_buffers = _PerThread()


def spectra(v: np.ndarray) -> np.ndarray:
    """Unnormalized rfft half-spectra of the sample rows v (last axis).

    The result is written into the calling thread's buffer for the grid
    size and stays valid until that thread's next call: read it, and
    bring it back with samples(), before the next transform.  A 1-D v
    takes the buffer's first row; a block of more rows than the buffer
    holds grows it.
    """
    rows = 1 if v.ndim == 1 else len(v)
    bins = v.shape[-1] // 2 + 1
    held = _buffers.spectra
    if held.shape[1] != bins or len(held) < rows:
        held = _buffers.spectra = np.empty((max(rows, len(held)), bins),
                                           dtype=complex)
    out = held[0] if v.ndim == 1 else held[:rows]
    return _rows(np.fft.rfft, v, v.shape[-1], out)


def samples(half: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sample rows of the half-spectra, checked and frozen once.

    The rows are written into out, the sample block the spectra came
    from, so a block costs no third array of its size.
    """
    return checked(_rows(np.fft.irfft, half, _size(half), out))


def transform(v: np.ndarray, op, *args) -> np.ndarray:
    """The multiplier op(half, *args) on every row of the block v.

    v is the caller's own scratch block: the checked result is written
    over it and returned.
    """
    half = spectra(v)
    op(half, *args)
    return samples(half, v)


def fields(block: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows of a block from samples(), each copied out and frozen.

    Each field owns its row's copy, so no field pins the block.
    """
    rows = tuple([row.copy() for row in block])
    for row in rows:
        row.setflags(write=False)
    return rows


def shift_spectra(half: np.ndarray, delta: float) -> None:
    """Shift by delta, in place: the spectra of theta -> u(theta + delta)."""
    n = _size(half)
    # the Nyquist pair collapses to a cos mode; on the nodes a shift
    # scales it by cos(pi*n*delta) and keeps it real
    top = half[..., -1].real * np.cos(np.pi * n * delta)
    half *= _phases(n, delta)
    half[..., -1] = top


def derivative_spectra(half: np.ndarray) -> None:
    """Spectral d/dtheta, in place; the Nyquist bin is annihilated."""
    half *= _derivative_multiplier(_size(half))
    half[..., -1] = 0.0


def cut_spectra(half: np.ndarray) -> None:
    """The 1/3 truncation, in place: zero all modes with |k| > n/3."""
    half[..., _size(half) // 3 + 1:] = 0.0


def linear_shift_spectra(half: np.ndarray, lam: float, rho: float,
                         omega: float) -> None:
    """Solve lam*xi(theta) - rho*xi(theta+omega) = eta(theta), in place.

    Divisors lam - rho*e(k*omega) stay away from zero when |lam| !=
    |rho|.  The Nyquist bin uses the grid eigenvalue cos(pi*n*omega) of
    the shift, which makes the identity exact on the nodes; that divisor
    can degenerate, reported as a small divisor before anything changes.
    """
    n = _size(half)
    nyq = lam - rho * np.cos(np.pi * n * omega)
    if abs(nyq) < _DIVISOR_FLOOR:
        raise SmallDivisorError(n // 2, abs(nyq), _DIVISOR_FLOOR,
                                "|lam - rho*cos(pi*n*omega)|")
    top = half[..., -1].real / nyq
    half /= lam - rho * _phases(n, omega)
    half[..., -1] = top


@_latest_grid
def _divisors(n: int, omega: float) -> np.ndarray:
    """1 - e(k*omega) for k = 0 .. n/2, Nyquist 1 - cos(pi*n*omega), read-only.

    A divisor 0 < k <= n/2 below the floor raises, naming the k of the
    smallest (the lowest on a tie).
    """
    div = 1.0 - _phases(n, omega)
    div[-1] = 1.0 - np.cos(np.pi * n * omega)
    mags = np.abs(div[1:])
    worst = int(np.argmin(mags))
    if mags[worst] < _DIVISOR_FLOOR:
        raise SmallDivisorError(worst + 1, float(mags[worst]),
                                _DIVISOR_FLOOR, "|1 - e(k*omega)|")
    return div


def small_divisor_spectra(half: np.ndarray, omega: float) -> np.ndarray:
    """Solve xi(theta) - xi(theta + omega) = eta(theta) - <eta>, in place.

    Leaves the zero-average solutions and returns the averages <eta>,
    the exact obstructions, one per row.
    """
    n = _size(half)
    div = _divisors(n, omega)
    mean = half[..., 0].real / n
    # the Nyquist bin stays real: divide it by the real divisor
    top = half[..., -1].real / div[-1].real
    half[..., 1:-1] /= div[1:-1]
    half[..., 0] = 0.0
    half[..., -1] = top
    return mean


@_latest_grid
def _mass_weights(n: int) -> np.ndarray:
    """l1 weights of the half-spectrum: 2 for each conjugate pair, read-only."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    return w


def tails(half: np.ndarray, band: float) -> list[float]:
    """l1 mass fraction of the modes with |k| > (1 - band)*(n/2), per row.

    Takes unnormalized half-spectra rows.  Gauges how close each row is
    to spectral exhaustion: 0 for well-resolved data, approaching 1 when
    the tail carries everything.
    """
    if not 0.0 < band < 1.0:
        raise ValueError(f"band must lie in (0, 1), got {band}")
    n = _size(half)
    mass = _mass_weights(n) * (np.abs(half) / n)
    total = np.add.reduce(mass, axis=-1)
    # the modes k > (1 - band)*(n/2) are the suffix after its floor
    start = math.floor((1.0 - band) * (n / 2.0)) + 1
    tail = np.add.reduce(mass[..., start:], axis=-1)
    return [float(t) / float(s) if s != 0.0 else 0.0
            for t, s in zip(tail, total)]


def resample(v: np.ndarray, n_new: int) -> np.ndarray:
    """The rows v (last axis) spectrally interpolated onto n_new nodes.

    Refining splits the Nyquist amplitude into the +-n/2 pair it stands
    for; coarsening folds that pair back, so refine-then-coarsen is the
    identity.  Modes beyond the new band are dropped, the rest scaled by
    the power of two n_new/n.  Returns a new checked block.
    """
    _check_size(n_new)
    n = v.shape[-1]
    scale = n_new / n
    fold = 0.5 if n_new > n else 2.0 if n_new < n else 1.0
    m = min(n, n_new) // 2
    half = spectra(v)
    out = np.zeros(v.shape[:-1] + (n_new // 2 + 1,), dtype=complex)
    out[..., :m] = half[..., :m] * scale
    out[..., m] = half[..., m].real * (fold * scale)
    return samples(out, np.empty(v.shape[:-1] + (n_new,)))


# -- single fields: the m = 1 calls, kept for the tests and the tracer --


def _field(u: PeriodicScalar, op, *args):
    """op on a copy of u's samples: (the checked field, op's return value)."""
    v = u.values.copy()
    half = spectra(v)
    result = op(half, *args)
    return _fresh(samples(half, v)), result


def shift(u: PeriodicScalar, delta: float) -> PeriodicScalar:
    """Samples of theta -> u(theta + delta)."""
    return _field(u, shift_spectra, delta)[0]


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
    return _field(eta, linear_shift_spectra, sigma, 1.0, omega)[0]


def solve_small_divisor(
    eta: PeriodicScalar, omega: float
) -> tuple[PeriodicScalar, float]:
    """Solve xi(theta) - xi(theta + omega) = eta(theta) - <eta>.

    Returns the zero-average solution together with <eta>, the exact
    obstruction.  Fails if any represented mode has a divisor
    |1 - e(k*omega)| below 1e-13, reporting the offending k.
    """
    xi, mean = _field(eta, small_divisor_spectra, omega)
    return xi, float(mean)


def dealias(u: PeriodicScalar) -> PeriodicScalar:
    """Zero all modes with |k| > n/3 (the classical 1/3 truncation).

    Applied to pointwise products and compositions so that quadratic
    nonlinearities cannot fold spurious energy back into retained modes.
    """
    return _field(u, cut_spectra)[0]
