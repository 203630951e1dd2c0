import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ntcircle import (
    GOLDEN_MEAN,
    fourier,
    NonFiniteError,
    PeriodicScalar,
    QpProblem,
    QpState,
    SmallDivisorError,
    StandardNonTwistMap,
    continue_in_eps,
    dealias,
    grid,
    resample,
    shift,
    solve_contractive,
    solve_small_divisor,
    vartheta_qp,
)

TWO_PI = 2.0 * np.pi


def trig(n, terms):
    """Real trig polynomial sum a*cos(2 pi k x) + b*sin(2 pi k x)."""
    x = grid(n)
    v = np.zeros(n)
    for k, a, b in terms:
        v += a * np.cos(TWO_PI * k * x) + b * np.sin(TWO_PI * k * x)
    return PeriodicScalar(v)


def d_theta(u):
    """Spectral d/dtheta of u: the derivative multiplier on one row."""
    return PeriodicScalar(fourier.transform(u.values.copy(),
                                            fourier.derivative_spectra))


def rand_scalar(n, kmax, seed):
    rng = np.random.default_rng(seed)
    terms = [(k, rng.normal(), rng.normal()) for k in range(kmax + 1)]
    return trig(n, terms)


class TestPeriodicScalar:
    def test_rejects_odd_sizes(self):
        with pytest.raises(ValueError):
            PeriodicScalar(np.zeros(7))

    def test_rejects_non_finite(self):
        v = np.zeros(8)
        v[3] = np.nan
        with pytest.raises(ValueError):
            PeriodicScalar(v)

    def test_immutable(self):
        u = PeriodicScalar(np.zeros(8))
        with pytest.raises(AttributeError):
            u.values = np.ones(8)
        with pytest.raises(ValueError):
            u.values[0] = 1.0

    def test_division_by_zero_raises(self):
        with pytest.raises(ValueError), np.errstate(divide="ignore"):
            fourier._fresh(np.ones(8) / 0.0)

    def test_caller_arrays_are_copied(self):
        v = np.ones(8)
        u = PeriodicScalar(v)
        v[0] = 5.0
        assert u.values[0] == 1.0
        w = np.ones(8)
        view = w[:]
        view.setflags(write=False)   # read-only, but w can still change it
        u = PeriodicScalar(view)
        w[0] = 5.0
        assert u.values[0] == 1.0
        # read-only and owning its memory: the caller can make it
        # writable again, so it is copied as well
        own = np.ones(8)
        own.setflags(write=False)
        u = PeriodicScalar(own)
        own.setflags(write=True)
        own[0] = 5.0
        assert u.values[0] == 1.0

    def test_results_are_read_only(self):
        u = rand_scalar(16, 3, 1)
        v = u.values
        for r in (fourier._fresh(v + 1.0), fourier._fresh(-v),
                  fourier._fresh(1.0 - v), fourier._fresh(v / 2.0),
                  shift(u, 0.3), dealias(u), fourier._fresh(v * v)):
            with pytest.raises(ValueError):
                r.values[0] = 1.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_operand_raises(self, bad):
        v = rand_scalar(16, 3, 1).values
        for op in (lambda: fourier._fresh(v + bad),
                   lambda: fourier._fresh(v * bad),
                   lambda: fourier._fresh(bad - v),
                   lambda: fourier._fresh(v - np.full(16, bad))):
            with pytest.raises(ValueError):
                op()

    def test_overflow_raises(self):
        big = PeriodicScalar(np.full(8, 1e200))
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            fourier._fresh(big.values * big.values)
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            fourier._fresh(big.values * big.values - 1.0)

    def test_inf_minus_inf_raises(self):
        # a fused formula whose intermediates are infinite but whose
        # result would be NaN: the one check on the result catches it
        inf = np.full(8, np.inf)
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            fourier._fresh(inf - inf)

    def test_broadcast_to_two_dimensions_raises(self):
        with pytest.raises(ValueError):
            PeriodicScalar(np.ones((2, 8)))
        with pytest.raises(ValueError):
            fourier._fresh(np.ones((2, 8)))

    def test_fresh_samples_are_adopted(self):
        v = np.ones(8)
        assert fourier._fresh(v).values is v
        # a view is copied, so it cannot pin the array it looks into
        block = np.ones((2, 8))
        assert fourier._fresh(block[0]).values.base is None


class TestChecked:
    """checked() is the one finiteness check, of the solvers' sample
    arrays and of every PeriodicScalar."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        v = np.zeros(8)
        v[5] = bad
        with pytest.raises(NonFiniteError):
            fourier.checked(v)

    def test_returns_the_array_read_only(self):
        v = np.arange(8.0)
        assert fourier.checked(v) is v
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 1.0

    @staticmethod
    def silent_check(v):
        """checked(v) with every floating-point warning raised as an error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return fourier.checked(v)

    @pytest.mark.parametrize("bad", [(np.nan,), (np.inf,), (-np.inf,),
                                     (np.inf, -np.inf), (-np.inf, np.nan)])
    def test_rejects_non_finite_silently(self, bad):
        # a +inf/-inf pair would make a sum compute inf - inf
        v = np.full(64, 1.0)
        v[3:3 + len(bad)] = bad
        with pytest.raises(NonFiniteError):
            self.silent_check(v)

    def test_huge_finite_samples_pass_silently(self):
        # their squares and their sum overflow; the samples are finite
        v = np.full(64, 1e300)
        v[::2] = -np.finfo(float).max
        assert self.silent_check(v) is v

    def test_block_is_checked_whole(self):
        block = np.ones((4, 64))
        assert self.silent_check(block) is block
        assert not block.flags.writeable
        bad = np.ones((4, 64))
        bad[3, 63] = np.nan
        with pytest.raises(NonFiniteError):
            self.silent_check(bad)
        bad[3, 63] = 1.0
        bad[0, 0] = -np.inf
        with pytest.raises(NonFiniteError):
            self.silent_check(bad)

    def test_periodic_scalar_is_checked_by_it(self, monkeypatch):
        seen = []
        check = fourier.checked
        monkeypatch.setattr(fourier, "checked",
                            lambda v: seen.append(v) or check(v))
        u = PeriodicScalar(np.ones(8))
        assert len(seen) == 1 and seen[0] is u.values


class TestDerivativeShift:
    def test_derivative_exact_on_modes(self):
        n = 64
        x = grid(n)
        u = trig(n, [(3, 0.0, 1.0)])     # sin(6 pi x)
        du = d_theta(u)
        np.testing.assert_allclose(
            du.values, 3.0 * TWO_PI * np.cos(TWO_PI * 3 * x), atol=1e-11)

    def test_shift_exact_on_modes(self):
        n = 64
        x = grid(n)
        delta = 0.1234
        u = trig(n, [(2, 1.0, -0.4)])
        s = shift(u, delta)
        expect = (np.cos(TWO_PI * 2 * (x + delta))
                  - 0.4 * np.sin(TWO_PI * 2 * (x + delta)))
        np.testing.assert_allclose(s.values, expect, atol=1e-12)

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_shift_composes(self, d1, d2):
        u = rand_scalar(32, 6, 3)
        a = shift(shift(u, d1), d2)
        b = shift(u, d1 + d2)
        np.testing.assert_allclose(a.values, b.values, atol=1e-11)

    def test_shift_commutes_with_derivative(self):
        u = rand_scalar(64, 10, 4)
        a = shift(d_theta(u), GOLDEN_MEAN)
        b = d_theta(shift(u, GOLDEN_MEAN))
        np.testing.assert_allclose(a.values, b.values, atol=1e-9)


class TestCachedPhases:
    """Cached phase vectors reproduce the uncached shift bit for bit."""

    @staticmethod
    def old_shift(u, delta):
        n = u.n
        half = np.fft.rfft(u.values) / n
        k = np.arange(n // 2 + 1, dtype=float)
        out = half * np.exp(2j * np.pi * k * delta)
        out[-1] = half[-1].real * np.cos(np.pi * n * delta)
        return np.fft.irfft(out * n, n)

    @pytest.mark.parametrize("n", [8, 64, 1024, 1 << 14])
    @pytest.mark.parametrize("delta", [GOLDEN_MEAN, 0.5, -0.3, 1.7e-3])
    def test_shift_bitwise_equal(self, n, delta):
        u = rand_scalar(n, min(n // 2, 40), n)
        old = self.old_shift(u, delta)
        assert shift(u, delta).values.tobytes() == old.tobytes()
        # a second call reads the cache and must agree as well
        assert shift(u, delta).values.tobytes() == old.tobytes()

    def test_phases_read_only_and_shared(self):
        ph = fourier._phases(64, GOLDEN_MEAN)
        assert not ph.flags.writeable
        with pytest.raises(ValueError):
            ph[0] = 0.0
        assert fourier._phases(64, GOLDEN_MEAN) is ph

    @pytest.mark.parametrize("n", [8, 64, 1 << 16])
    @pytest.mark.parametrize("delta", [GOLDEN_MEAN, 0.5, -0.3])
    def test_nyquist_phase_is_the_real_grid_eigenvalue(self, n, delta):
        top = fourier._phases(n, delta)[-1]
        assert top.real == np.cos(np.pi * n * delta) and top.imag == 0.0
        assert fourier._derivative_multiplier(n)[-1] == 0.0


class TestGridConstants:
    """The per-grid constants are kept for the latest grid size only."""

    CACHES = ("grid", "_wavenumbers", "_phases", "_derivative_multiplier",
              "_divisors")
    # the arguments after n of the caches keyed by more than n
    ARGS = {"_phases": (GOLDEN_MEAN,), "_divisors": (GOLDEN_MEAN, 1.0, 1.0)}

    @classmethod
    def held_grids(cls):
        return {name: {key[0] for key in getattr(fourier, name).held}
                for name in cls.CACHES}

    def test_another_grid_empties_the_cache(self):
        g = grid(64)
        ph = fourier._phases(64, GOLDEN_MEAN)
        assert fourier._phases(64, 0.5) is not ph
        assert grid(64) is g and fourier._phases(64, GOLDEN_MEAN) is ph
        assert set(fourier._phases.held) == {(64, GOLDEN_MEAN), (64, 0.5)}
        grid(128)
        fourier._phases(128, GOLDEN_MEAN)
        assert set(grid.held) == {(128,)}
        assert set(fourier._phases.held) == {(128, GOLDEN_MEAN)}
        # a rejected size leaves the latest grid's constants alone
        with pytest.raises(ValueError, match="power of two"):
            grid(100)
        assert set(grid.held) == {(128,)}
        assert np.array_equal(grid(64), g) and grid(64) is not g

    def test_bounded_on_one_grid(self):
        for j in range(3 * fourier._HELD):
            fourier._phases(64, j / 1000.0)
            assert len(fourier._phases.held) <= fourier._HELD

    def test_threads_on_other_grids(self):
        # each thread asks for the constants of its own grid, so every
        # miss empties the cache while the other threads read it
        cache = fourier._latest_grid(lambda n, j: np.full(4, float(n)))
        errors = []

        def run(n):
            try:
                for j in range(3000):
                    assert cache(n, j % 40)[0] == n
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(8 << i,))
                       for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(cache.held) <= fourier._HELD

    def test_continuation_keeps_its_last_grid_only(self):
        # every constant held for a grid the continuation never visits
        for name in self.CACHES:
            getattr(fourier, name)(1024, *self.ARGS.get(name, ()))
        prob = QpProblem(StandardNonTwistMap(0.8, "nonsymmetric"),
                         omega=GOLDEN_MEAN)
        res = continue_in_eps(prob, QpState.flat_start(64, GOLDEN_MEAN), 1.0)
        assert res.reason == "target" and res.state.k.n == 512
        assert self.held_grids() == {name: {512} for name in self.CACHES}

    def test_divisors_checked_read_only_and_shared(self):
        # the small divisors and the two contractive tables of the solvers
        n = 64
        k = np.arange(n // 2)
        for lam, rho in ((1.0, 1.0), (0.8, 1.0), (1.0, 0.8)):
            div = fourier._divisors(n, GOLDEN_MEAN, lam, rho)
            assert not div.flags.writeable
            assert fourier._divisors(n, GOLDEN_MEAN, lam, rho) is div
            assert div[:-1].tobytes() == (
                lam - rho * np.exp(2j * np.pi * k * GOLDEN_MEAN)).tobytes()
            assert div[-1] == lam - rho * np.cos(np.pi * n * GOLDEN_MEAN)

    def test_solves_read_the_cached_divisors(self):
        # each solve builds its divisors once per grid, not per call
        half = fourier.spectra(np.ones((2, 64)))
        fourier._divisors.held.clear()
        fourier.linear_shift_spectra(half[:1], 0.8, 1.0, GOLDEN_MEAN)
        fourier.small_divisor_spectra(half[1:], GOLDEN_MEAN)
        held = dict(fourier._divisors.held)
        assert set(held) == {(64, GOLDEN_MEAN, 0.8, 1.0),
                             (64, GOLDEN_MEAN, 1.0, 1.0)}
        fourier.linear_shift_spectra(half[:1], 0.8, 1.0, GOLDEN_MEAN)
        fourier.small_divisor_spectra(half[1:], GOLDEN_MEAN)
        assert all(fourier._divisors.held[key] is div
                   for key, div in held.items())

    def test_resonant_divisor_raises_and_is_not_held(self):
        fourier._divisors(64, GOLDEN_MEAN, 1.0, 1.0)
        held = dict(fourier._divisors.held)
        # omega = 1/5: the divisors k = 5, 10, .. vanish up to rounding,
        # the smallest at k = 5
        with pytest.raises(SmallDivisorError) as err:
            fourier._divisors(64, 0.2, 1.0, 1.0)
        assert err.value.k == 5
        # and the check runs again on every call: no pass was recorded
        with pytest.raises(SmallDivisorError):
            fourier._divisors(64, 0.2, 1.0, 1.0)
        assert fourier._divisors.held == held
        # a degenerate Nyquist divisor 1 - cos(pi n omega) names n/2
        fourier._divisors.held.clear()
        with pytest.raises(SmallDivisorError) as err:
            fourier._divisors(64, 2.0 / 64, 1.0, 1.0)
        assert err.value.k == 32 and fourier._divisors.held == {}

    def test_degenerate_contractive_divisor_raises(self):
        # lam = 1, rho = -1, omega = 1/4 on n = 8: 1 + e(2/4) vanishes up
        # to rounding at k = 2, below the Nyquist bin
        half = fourier.spectra(np.random.default_rng(3).standard_normal(
            (2, 8))).copy()
        before = half.copy()
        fourier._divisors(8, GOLDEN_MEAN, 0.8, 1.0)
        held = dict(fourier._divisors.held)
        with pytest.raises(SmallDivisorError) as err:
            fourier.linear_shift_spectra(half, 1.0, -1.0, 0.25)
        assert err.value.k == 2
        assert str(err.value).startswith("divisor |lam - rho*e(k*omega)| = ")
        assert half.tobytes() == before.tobytes()
        assert fourier._divisors.held == held


class TestResampleDealias:
    def test_refine_preserves_samples(self):
        u = rand_scalar(32, 10, 5)
        fine = resample(u.values, 128)
        np.testing.assert_allclose(fine[::4], u.values, atol=1e-12)

    def test_refine_then_coarsen_identity(self):
        u = rand_scalar(32, 16, 6)    # includes the Nyquist mode
        back = resample(resample(u.values, 128), 32)
        np.testing.assert_allclose(back, u.values, atol=1e-12)

    def test_dealias_zeroes_top_third(self):
        n = 128
        u = trig(n, [(5, 1.0, 0.0), (50, 1.0, 0.0)])   # 50 > 128/3
        clean = dealias(u)
        x = grid(n)
        np.testing.assert_allclose(
            clean.values, np.cos(TWO_PI * 5 * x), atol=1e-12)

    @pytest.mark.parametrize("n", [8, 64, 1 << 12, 1 << 16])
    @pytest.mark.parametrize("c", [0.0, 1.0, 0.8, -2.5, 1e-300])
    def test_dealias_constant_unchanged(self, n, c):
        u = PeriodicScalar(np.full(n, c))
        half = np.fft.rfft(u.values)
        half[n // 3 + 1:] = 0.0
        by_transform = np.fft.irfft(half, n)
        out = dealias(u)
        assert out.values.tobytes() == by_transform.tobytes()
        assert out.values.tobytes() == u.values.tobytes()

    def test_dealias_negative_zero_like_transform(self):
        # the transforms give -0.0 back with mixed signs, so the constant
        # shortcut must leave such a field to them
        n = 16
        u = PeriodicScalar(np.full(n, -0.0))
        half = np.fft.rfft(u.values)
        half[n // 3 + 1:] = 0.0
        assert dealias(u).values.tobytes() == np.fft.irfft(half, n).tobytes()


class TestCohomologicalSolvers:
    """Randomized residual checks of the two linear solvers."""

    @pytest.mark.parametrize("seed", range(5))
    def test_contractive_residual(self, seed):
        # sigma*xi - xi(. + omega) = eta
        sigma, omega = 0.8, GOLDEN_MEAN
        eta = rand_scalar(128, 30, seed)
        xi = solve_contractive(eta, sigma, omega)
        res = sigma * xi.values - shift(xi, omega).values - eta.values
        assert np.max(np.abs(res)) <= 1e-10 * max(1.0, eta.sup())

    @pytest.mark.parametrize("seed", range(5))
    def test_small_divisor_residual(self, seed):
        # xi - xi(. + omega) = eta - <eta>, solution has zero average
        omega = GOLDEN_MEAN
        eta = rand_scalar(128, 30, seed + 50)
        xi, mean = solve_small_divisor(eta, omega)
        res = xi.values - shift(xi, omega).values - (eta.values - mean)
        assert np.max(np.abs(res)) <= 1e-10 * max(1.0, eta.sup())
        assert abs(np.mean(xi.values)) <= 1e-12
        assert mean == pytest.approx(np.mean(eta.values), abs=1e-13)

    def test_small_divisor_rejects_resonant_rotation(self):
        eta = rand_scalar(64, 20, 9)
        with pytest.raises(SmallDivisorError):
            solve_small_divisor(eta, 0.25)   # Nyquist divisor is exactly zero

    def test_small_divisor_messages_name_divisor_and_floor(self):
        eta = rand_scalar(64, 20, 9)
        with pytest.raises(SmallDivisorError) as err:
            solve_small_divisor(eta, 0.2)
        assert err.value.k == 5
        assert str(err.value).startswith(
            f"divisor |1 - e(k*omega)| = {err.value.divisor:.3e} at mode "
            f"k = 5 is below the 1e-13 floor;")
        # the Nyquist divisor lam - rho*cos(pi n omega) of a contractive
        # solve, 0.5 - cos(pi/3) here: the Nyquist phase is the grid
        # eigenvalue cos(pi n omega)
        with pytest.raises(SmallDivisorError) as err:
            solve_contractive(eta, 0.5, 1.0 / (3 * 64))
        assert err.value.k == 32
        assert str(err.value).startswith(
            f"divisor |lam - rho*e(k*omega)| = {err.value.divisor:.3e} "
            f"at mode k = 32 is below the 1e-13 floor;")
        # the floor printed is the one the raiser passes
        assert "below the 1e-03 floor" in str(
            SmallDivisorError(3, 1e-4, 1e-3, "|d|"))

    def test_contractive_rejects_expanding_factor(self):
        with pytest.raises(ValueError):
            solve_contractive(rand_scalar(32, 5, 1), 1.0, GOLDEN_MEAN)


class TestBlockKernels:
    """A block of rows through one kernel equals m = 1 calls bit for bit."""

    @staticmethod
    def block(n):
        """Rows with Nyquist content, a pure Nyquist mode, constants and
        signed zeros, as the solvers meet them.

        The two random rows come from seeded half-spectra through one
        irfft, in O(n log n): one with every mode up to the Nyquist bin,
        one band-limited.  Mode k has amplitude O(1), as in trig.
        """
        rng = np.random.default_rng(n)
        half = np.zeros((2, n // 2 + 1), dtype=complex)
        band = (n // 2 + 1, min(n // 8, 20) + 1)
        for row, k in zip(half, band):
            row[:k] = rng.normal(size=k) + 1j * rng.normal(size=k)
        random_rows = np.fft.irfft(half * (n / 2), n)
        zeros = np.zeros(n)
        zeros[1::2] = -0.0
        rows = [
            random_rows[0],                             # Nyquist included
            trig(n, [(n // 2, 0.7, 0.0)]).values,       # the cos(pi n x) mode
            random_rows[1],
            np.full(n, 0.8),
            np.full(n, -2.5),
            np.zeros(n),
            zeros,
            np.full(n, -0.0),
        ]
        return np.stack(rows)

    @staticmethod
    def rows_equal(block, singles):
        assert len(block) == len(singles)
        for got, want in zip(block, singles):
            if isinstance(want, PeriodicScalar):
                want = want.values
            assert got.tobytes() == want.tobytes()

    N = [8, 64, 2048, 1 << 16]      # 2^16: a grid qp_breakdown reaches

    @pytest.mark.parametrize("n", N)
    @pytest.mark.parametrize("delta", [GOLDEN_MEAN, 0.5, -0.3])
    def test_shift(self, n, delta):
        v = self.block(n)
        out = fourier.transform(v.copy(), fourier.shift_spectra, delta)
        self.rows_equal(out, [shift(PeriodicScalar(r), delta) for r in v])

    @pytest.mark.parametrize("n", N)
    def test_derivative(self, n):
        v = self.block(n)
        out = fourier.transform(v.copy(), fourier.derivative_spectra)
        self.rows_equal(out, [d_theta(PeriodicScalar(r)) for r in v])

    @pytest.mark.parametrize("n", N)
    def test_cut(self, n):
        # dealias leaves constants alone; the block transforms them and
        # must give back the same bytes, signed zeros included
        v = self.block(n)
        out = fourier.transform(v.copy(), fourier.cut_spectra)
        self.rows_equal(out, [dealias(PeriodicScalar(r)) for r in v])

    @pytest.mark.parametrize("n", N)
    def test_contractive_and_vartheta(self, n):
        v = self.block(n)
        out = fourier.transform(v.copy(), fourier.linear_shift_spectra,
                                0.8, 1.0, GOLDEN_MEAN)
        self.rows_equal(
            out, [solve_contractive(PeriodicScalar(r), 0.8, GOLDEN_MEAN)
                  for r in v])
        out = fourier.transform(-v, fourier.linear_shift_spectra,
                                1.0, 0.8, GOLDEN_MEAN)
        self.rows_equal(
            out, [vartheta_qp(r, 0.8, GOLDEN_MEAN)[0]
                  for r in v])

    @pytest.mark.parametrize("n", N)
    def test_small_divisor(self, n):
        v = self.block(n)
        half = fourier.spectra(v)
        means = fourier.small_divisor_spectra(half, GOLDEN_MEAN)
        out = fourier.samples(half, np.empty_like(v))
        singles = [solve_small_divisor(PeriodicScalar(r), GOLDEN_MEAN)
                   for r in v]
        self.rows_equal(out, [xi for xi, _ in singles])
        assert [float(m) for m in means] == [m for _, m in singles]

    @pytest.mark.parametrize("n", N)
    def test_mixed_block(self, n):
        # each operator on its own rows, one transform pair for all
        v = self.block(n)
        half = fourier.spectra(v)
        fourier.linear_shift_spectra(half[:3], 0.8, 1.0, GOLDEN_MEAN)
        fourier.small_divisor_spectra(half[3:5], GOLDEN_MEAN)
        fourier.shift_spectra(half[5:], GOLDEN_MEAN)
        out = fourier.samples(half, np.empty_like(v))
        want = [solve_contractive(PeriodicScalar(r), 0.8, GOLDEN_MEAN)
                for r in v[:3]]
        want += [solve_small_divisor(PeriodicScalar(r), GOLDEN_MEAN)[0]
                 for r in v[3:5]]
        want += [shift(PeriodicScalar(r), GOLDEN_MEAN) for r in v[5:]]
        self.rows_equal(out, want)

    def test_small_divisor_error_from_block(self):
        v = self.block(64)
        with pytest.raises(SmallDivisorError) as single:
            solve_small_divisor(PeriodicScalar(v[0]), 0.25)
        with pytest.raises(SmallDivisorError) as block:
            fourier.transform(v.copy(), fourier.small_divisor_spectra, 0.25)
        assert block.value.args == single.value.args
        # the Nyquist divisor sigma - cos(pi n omega) of a contractive solve
        omega = 1.0 / (3 * 64)
        with pytest.raises(SmallDivisorError) as single:
            solve_contractive(PeriodicScalar(v[0]), 0.5, omega)
        with pytest.raises(SmallDivisorError) as block:
            fourier.transform(v.copy(), fourier.linear_shift_spectra,
                              0.5, 1.0, omega)
        assert block.value.args == single.value.args

    @pytest.mark.parametrize("op, args", [
        (fourier.shift_spectra, (GOLDEN_MEAN,)),
        (fourier.derivative_spectra, ()),
        (fourier.cut_spectra, ()),
        (fourier.linear_shift_spectra, (0.8, 1.0, GOLDEN_MEAN)),
        (fourier.small_divisor_spectra, (GOLDEN_MEAN,)),
    ])
    def test_non_finite_error_from_block(self, op, args):
        # a row whose transform overflows fails the block's one check, as
        # it fails the m = 1 call's (the derivative has no m = 1 helper in
        # fourier: d_theta is the one-row transform)
        single = {
            fourier.shift_spectra: shift,
            fourier.derivative_spectra: d_theta,
            fourier.cut_spectra: dealias,
            fourier.linear_shift_spectra:
                lambda u, lam, rho, om: solve_contractive(u, lam, om),
            fourier.small_divisor_spectra: solve_small_divisor,
        }[op]
        v = self.block(8)
        v[2] = 1e308 * np.cos(TWO_PI * np.arange(8) / 8)
        v[2, 0] = 1e308
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteError):
                single(PeriodicScalar(v[2]), *args)
            with pytest.raises(NonFiniteError):
                fourier.transform(v.copy(), op, *args)

    def test_fields_own_their_rows(self):
        out = fourier.transform(self.block(64), fourier.shift_spectra, 0.3)
        fields = fourier.fields(out)
        assert len(fields) == len(out)
        for f, row in zip(fields, out):
            assert f.base is None
            assert not f.flags.writeable
            assert f.tobytes() == row.tobytes()


class TestSpectraBuffer:
    """spectra writes into one buffer per grid size; its contents are the
    rfft's, bit for bit, and stay valid until the next call."""

    N = [8, 64, 1 << 16]

    @staticmethod
    def rows(n, m):
        return np.random.default_rng(n + m).standard_normal((m, n))

    @staticmethod
    def same(got, want):
        return got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", N)
    def test_equals_rfft(self, n):
        v = self.rows(n, 7)
        assert self.same(fourier.spectra(v[0]), np.fft.rfft(v[0]))
        for m in range(1, 8):   # 7 rows: more than the solvers' blocks
            assert self.same(fourier.spectra(v[:m]), np.fft.rfft(v[:m])), m

    def test_same_grid_reuses_memory(self, monkeypatch):
        monkeypatch.setattr(fourier._buffers, "spectra",
                            np.empty((1, 0), dtype=complex))
        v = self.rows(64, 7)
        first = fourier.spectra(v[:6])
        for got in (fourier.spectra(v[:2]), fourier.spectra(v[3])):
            assert np.shares_memory(got, first)
        # the latest call's contents
        assert self.same(first[0], np.fft.rfft(v[3]))
        # a block of more rows grows the buffer, and smaller blocks then
        # reuse the grown one
        grown = fourier.spectra(v)
        assert not np.shares_memory(grown, first)
        assert np.shares_memory(fourier.spectra(v[:6]), grown)
        # another grid gets a buffer of its own, as tall as the last one
        other = fourier.spectra(self.rows(128, 2))
        assert not np.shares_memory(other, grown)
        assert fourier._buffers.spectra.shape == (7, 65)
        assert np.shares_memory(fourier.spectra(self.rows(128, 7)), other)


class TestUnscaledMultipliers:
    """Each multiplier, applied to the unnormalized spectra as they come,
    equals its three-pass form (divide by n, multiply, multiply by n) bit
    for bit on power-of-two grids, up to the sign of a zero: the passes
    by n were complex operations, which reset the signs of zero parts."""

    @staticmethod
    def rows(n):
        """Nyquist, constant and signed-zero rows, as the solvers meet them."""
        zeros = np.zeros(n)
        zeros[1::2] = -0.0
        return np.stack((
            np.random.default_rng(n).standard_normal(n),   # Nyquist included
            0.7 * np.cos(np.pi * n * grid(n)),             # cos(pi n x)
            np.full(n, 0.8),
            np.full(n, -2.5),
            np.zeros(n),
            zeros,
            np.full(n, -0.0),
        ))

    @staticmethod
    def three_pass(op):
        def run(half, *args):
            n = 2 * (half.shape[-1] - 1)
            half /= n
            out = op(half, n, *args)
            half *= n
            return out
        return run

    @staticmethod
    def scaled_shift(half, n, delta):
        top = half[..., -1].real * np.cos(np.pi * n * delta)
        half *= np.exp(2j * np.pi * np.arange(n // 2 + 1) * delta)
        half[..., -1] = top

    @staticmethod
    def scaled_derivative(half, n):
        half *= 2j * np.pi * np.arange(n // 2 + 1, dtype=float)
        half[..., -1] = 0.0

    @staticmethod
    def scaled_linear_shift(half, n, lam, rho, omega):
        top = half[..., -1].real / (lam - rho * np.cos(np.pi * n * omega))
        half /= lam - rho * np.exp(2j * np.pi * np.arange(n // 2 + 1) * omega)
        half[..., -1] = top

    @staticmethod
    def scaled_small_divisor(half, n, omega):
        mean = half[..., 0].real.copy()
        top = half[..., -1].real / (1.0 - np.cos(np.pi * n * omega))
        div = 1.0 - np.exp(2j * np.pi * np.arange(n // 2 + 1) * omega)
        half[..., 1:-1] /= div[1:-1]
        half[..., 0] = 0.0
        half[..., -1] = top
        return mean

    CASES = [
        (fourier.shift_spectra, scaled_shift, (GOLDEN_MEAN,)),
        (fourier.shift_spectra, scaled_shift, (0.5,)),
        (fourier.shift_spectra, scaled_shift, (-0.3,)),
        (fourier.derivative_spectra, scaled_derivative, ()),
        (fourier.linear_shift_spectra, scaled_linear_shift,
         (0.8, 1.0, GOLDEN_MEAN)),
        (fourier.linear_shift_spectra, scaled_linear_shift,
         (1.0, 0.8, GOLDEN_MEAN)),
        (fourier.small_divisor_spectra, scaled_small_divisor, (GOLDEN_MEAN,)),
    ]

    @staticmethod
    def unsigned(a):
        """The bytes of a with every zero made +0 (-0 + 0 = +0)."""
        return (a + 0.0).tobytes()

    @pytest.mark.parametrize("n", [1 << p for p in range(3, 17)])
    def test_bitwise_equal_to_three_pass_form(self, n):
        half = fourier.spectra(self.rows(n))
        for op, scaled, args in self.CASES:
            got, want = half.copy(), half.copy()
            got_mean = op(got, *args)
            want_mean = self.three_pass(scaled.__func__)(want, *args)
            case = (op.__name__, args)
            assert self.unsigned(got) == self.unsigned(want), case
            if want_mean is not None:
                assert self.unsigned(got_mean) == self.unsigned(want_mean)

    def test_derivative_multipliers_read_only_and_shared(self):
        m = fourier._derivative_multiplier(64)
        assert not m.flags.writeable
        assert fourier._derivative_multiplier(64) is m


def one_call_transform(v, op, *args):
    """rfft, op and irfft, each one np.fft call on the whole block."""
    half = np.fft.rfft(v)
    op(half, *args)
    return np.fft.irfft(half, v.shape[-1])


class TestSplitBlocks:
    """Blocks of SPLIT_MIN samples or more, their rows split between two
    threads, give the bytes of one np.fft call on the whole block."""

    N = [fourier.SPLIT_MIN, 1 << 16]

    @staticmethod
    def rows(n, m):
        return np.random.default_rng(n + m).standard_normal((m, n))

    @pytest.mark.parametrize("n", N)
    @pytest.mark.parametrize("m", range(2, 8))
    def test_spectra_and_samples(self, two_cpus, n, m):
        v = self.rows(n, m)
        want = np.fft.rfft(v)
        assert fourier.spectra(v).tobytes() == want.tobytes()
        out = fourier.samples(want.copy(), np.empty_like(v))
        assert out.tobytes() == np.fft.irfft(want, n).tobytes()
        assert len(two_cpus) == 2

    @pytest.mark.parametrize("n", N)
    @pytest.mark.parametrize("m", range(2, 8))
    def test_transform(self, two_cpus, n, m):
        v = self.rows(n, m)
        out = fourier.transform(v.copy(), fourier.shift_spectra, GOLDEN_MEAN)
        want = one_call_transform(v, fourier.shift_spectra, GOLDEN_MEAN)
        assert out.tobytes() == want.tobytes()
        assert len(two_cpus) == 2

    @pytest.mark.parametrize("n", N)
    @pytest.mark.parametrize("m", range(2, 8))
    def test_resample(self, two_cpus, monkeypatch, n, m):
        # refine, then coarsen back: every grid here splits
        v = self.rows(n, m)
        fine = fourier.resample(v, 2 * n)
        back = fourier.resample(fine, n)
        assert len(two_cpus) == 4
        monkeypatch.setattr(fourier, "SPLIT_MIN", 1 << 30)
        assert fine.tobytes() == fourier.resample(v, 2 * n).tobytes()
        assert back.tobytes() == fourier.resample(fine, n).tobytes()
        assert len(two_cpus) == 4


class TestSplitLifecycle:
    """The worker starts at the first block that qualifies, never on one
    CPU, is rebuilt after a fork, and passes its exceptions on."""

    N = fourier.SPLIT_MIN

    def test_import_starts_no_thread(self):
        src = os.path.dirname(os.path.dirname(fourier.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import threading, ntcircle, ntcircle.cli; "
                "print(threading.active_count())")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        assert out.stdout.strip() == "1"

    def test_small_blocks_start_no_worker(self, two_cpus):
        v = TestSplitBlocks.rows(self.N // 2, 7)
        fourier.transform(v, fourier.shift_spectra, GOLDEN_MEAN)
        fourier.resample(v[:2], self.N // 4)
        assert two_cpus == [] and fourier._pool is None

    def test_one_cpu_starts_no_worker(self, two_cpus, monkeypatch):
        v = TestSplitBlocks.rows(self.N, 4)
        want = one_call_transform(v, fourier.shift_spectra, GOLDEN_MEAN)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        out = fourier.transform(v.copy(), fourier.shift_spectra, GOLDEN_MEAN)
        assert out.tobytes() == want.tobytes()
        # where the affinity call does not exist, the CPU count decides
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        out = fourier.transform(v.copy(), fourier.shift_spectra, GOLDEN_MEAN)
        assert out.tobytes() == want.tobytes()
        assert two_cpus == [] and fourier._pool is None

    def test_worker_exception_reaches_caller(self, two_cpus):
        started = threading.Event()
        raised_on = []

        def work(s):
            if s.start == 0:           # the worker's half
                started.set()
                raised_on.append(threading.get_ident())
                raise ZeroDivisionError("worker half")
            assert started.wait(timeout=60)
            return s

        with pytest.raises(ZeroDivisionError, match="worker half"):
            fourier.split(work, 4, self.N)
        assert raised_on != [threading.get_ident()]
        # the pool still works
        v = TestSplitBlocks.rows(self.N, 3)
        out = fourier.transform(v.copy(), fourier.derivative_spectra)
        want = one_call_transform(v, fourier.derivative_spectra)
        assert out.tobytes() == want.tobytes()

    def test_caller_exception_waits_for_worker(self, two_cpus):
        started = threading.Event()
        ran = []

        def work(s):
            if s.start != 0:           # the calling thread's half
                assert started.wait(timeout=60)
                raise ZeroDivisionError("caller half")
            started.set()
            time.sleep(0.05)
            ran.append(s)
            return s

        with pytest.raises(ZeroDivisionError, match="caller half"):
            fourier.split(work, 2, self.N)
        assert ran == [slice(0, 1)]     # the worker had finished
        assert fourier.split(lambda s: s, 5, self.N) == (slice(0, 2),
                                                          slice(2, 5))

    def test_busy_worker_leaves_its_half_to_the_caller(self, two_cpus):
        fourier.split(lambda s: s, 2, self.N)
        gate = threading.Event()
        blocker = fourier._pool[1].submit(gate.wait, 60)
        try:
            ran_on = {}

            def work(s):
                ran_on[s.start] = threading.get_ident()
                return s

            assert fourier.split(work, 4, self.N) == (slice(0, 2),
                                                      slice(2, 4))
            assert ran_on == dict.fromkeys((0, 2), threading.get_ident())
            v = TestSplitBlocks.rows(self.N, 5)
            out = fourier.transform(v.copy(), fourier.shift_spectra, 0.3)
            want = one_call_transform(v, fourier.shift_spectra, 0.3)
            assert out.tobytes() == want.tobytes()
        finally:
            gate.set()
        assert blocker.result(timeout=60)

    def test_new_pid_builds_a_fresh_pool(self, two_cpus, monkeypatch):
        fourier.split(lambda s: s, 2, self.N)
        pid, first = fourier._pool
        monkeypatch.setattr(os, "getpid", lambda: pid + 1)
        fourier.split(lambda s: s, 2, self.N)
        assert fourier._pool[0] == pid + 1 and fourier._pool[1] is not first
        first.shutdown(wait=True)

    def test_stress_split_transforms(self, two_cpus):
        # one worker and a very short switch interval; the run is bounded
        # by a timed join, so a lost wake-up fails instead of hanging
        rng = np.random.default_rng(30)
        same = []

        def run():
            for m in rng.integers(2, 8, 200):
                v = rng.standard_normal((int(m), self.N))
                want = one_call_transform(v, fourier.shift_spectra,
                                          GOLDEN_MEAN)
                out = fourier.transform(v, fourier.shift_spectra, GOLDEN_MEAN)
                same.append(out.tobytes() == want.tobytes())

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=run)
            runner.start()
            runner.join(timeout=300)
        finally:
            sys.setswitchinterval(old)
        assert not runner.is_alive()
        assert len(same) == 200 and all(same)
        assert len(two_cpus) == 400


def square(x):
    return x * x


class TestSplitItems:
    """split_items gives the serial list, runs every item once, passes
    exceptions on as a serial run raises them, and leaves no process."""

    @staticmethod
    def no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("count", range(8))
    def test_equals_serial_list(self, two_cpus, count):
        items = [0.1 * j - 0.3 for j in range(count)]
        assert fourier.split_items(square, items) == [square(x)
                                                      for x in items]
        self.no_child_left()

    def test_even_items_run_in_the_worker(self, two_cpus):
        here = os.getpid()
        pids = fourier.split_items(lambda x: os.getpid(), range(5))
        assert pids[1::2] == [here, here]
        assert len(set(pids[0::2])) == 1 and pids[0] != here

    def test_each_item_runs_once(self, two_cpus, tmp_path):
        log = tmp_path / "ran.txt"

        def run(j):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{j}\n")
            return j

        assert fourier.split_items(run, range(9)) == list(range(9))
        assert sorted(map(int, log.read_text().split())) == list(range(9))

    def test_arrays_come_back_bit_for_bit_and_read_only(self, two_cpus):
        def field(seed):
            v = np.random.default_rng(seed).standard_normal(64)
            return fourier.checked(v), v.copy()

        got = fourier.split_items(field, range(4))
        for seed, (frozen, plain) in enumerate(got):
            want, _ = field(seed)
            assert frozen.tobytes() == want.tobytes()
            assert not frozen.flags.writeable and plain.flags.writeable

    def test_worker_exception_reaches_caller(self, two_cpus):
        def run(j):
            if j == 2:                 # the worker's second item
                raise SmallDivisorError(j, 1e-14, 1e-13, "1 - e(k omega)")
            return j

        with pytest.raises(SmallDivisorError, match="at mode k = 2") as exc:
            fourier.split_items(run, range(5))
        assert (exc.value.k, exc.value.divisor) == (2, 1e-14)
        self.no_child_left()

    @pytest.mark.parametrize("worker, caller, first", [
        (0, 1, 0), (2, 1, 1), (4, 3, 3), (None, 3, 3), (2, None, 2)])
    def test_the_serial_first_exception_wins(self, two_cpus, worker,
                                             caller, first):
        def run(j):
            if j in (worker, caller):
                raise ValueError(f"item {j}")
            return j

        with pytest.raises(ValueError, match=f"item {first}"):
            fourier.split_items(run, range(6))
        self.no_child_left()

    def test_unpicklable_exception_comes_back_with_its_traceback(
            self, two_cpus):
        class LocalError(Exception):       # a local class does not pickle
            pass

        def run(j):
            if j == 0:
                raise LocalError("lost in the worker")
            return j

        with pytest.raises(RuntimeError) as exc:
            fourier.split_items(run, range(3))
        text = str(exc.value)
        assert "Traceback" in text and "LocalError: lost in the worker" in text
        self.no_child_left()

    def test_unwinding_caller_kills_the_worker(self, two_cpus):
        def run(j):
            if j == 0:
                time.sleep(60)
            raise KeyboardInterrupt

        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            fourier.split_items(run, range(2))
        assert time.perf_counter() - start < 30
        self.no_child_left()

    def test_forks_beside_a_live_kernel_worker(self, two_cpus):
        # the kernel-split thread is running; the worker builds its own
        v = TestSplitBlocks.rows(fourier.SPLIT_MIN, 4)
        fourier.transform(v.copy(), fourier.shift_spectra, GOLDEN_MEAN)
        assert fourier._pool is not None

        def run(delta):
            out = fourier.transform(v.copy(), fourier.shift_spectra, delta)
            return out.tobytes()

        deltas = [0.1, 0.2, 0.3]
        assert fourier.split_items(run, deltas) == [run(d) for d in deltas]
        self.no_child_left()

    @pytest.mark.parametrize("setup", ["one cpu", "one item",
                                       "no affinity call"])
    def test_no_fork_without_two_cpus_and_two_items(self, two_cpus,
                                                    monkeypatch, setup):
        def refuse():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refuse)
        items = [0.5, 1.5, 2.5]
        if setup == "one cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif setup == "one item":
            items = items[:1]
        else:
            monkeypatch.delattr(os, "sched_getaffinity")
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert fourier.split_items(square, items) == [square(x)
                                                      for x in items]
