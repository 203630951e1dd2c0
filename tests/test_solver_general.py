"""Grid solver: interpolation, inversion, rotation numbers, sweeps."""

import os
from fractions import Fraction

import numpy as np
import pytest

from ntcircle import (
    GOLDEN_MEAN,
    DivergenceError,
    InternalMap,
    InversionError,
    NonFiniteError,
    ParamPoint,
    QpProblem,
    QpState,
    StandardNonTwistMap,
    ToleranceNotMetError,
    TorusEmbedding,
    ambient_rotation_number,
    induced_internal_map,
    invert_map,
    lock_fraction,
    newton_solve,
    newton_solve_general,
    rotation_number,
    sweep_parameter,
)
from ntcircle import cli, solver_general

OMEGA = GOLDEN_MEAN
SIGMA = 0.8


def bits(rec):
    """A sweep record with its floats as their hex."""
    return rec.param.hex(), rec.rho.hex(), rec.rho_err.hex(), rec.locked


def sym_family():
    return StandardNonTwistMap(SIGMA, "symmetric")


def lagrange(values, theta, order):
    """Grid samples at points theta, through the solver's Lagrange stencil."""
    return solver_general.interp_apply(
        values, *solver_general.interp_stencil(values.size, theta, order))


def apply_map(f, theta):
    """f(theta) = theta + g(theta) for an InternalMap f."""
    return theta + lagrange(f.g, theta, f.order)


class TestInterp:
    @pytest.mark.parametrize("order,bound", [(4, 1e-6), (6, 1e-9)])
    def test_trig_accuracy(self, order, bound):
        n = 256
        th = np.arange(n) / n
        vals = np.sin(2 * np.pi * th) + 0.3 * np.cos(6 * np.pi * th)
        rng = np.random.default_rng(7)
        q = rng.uniform(0, 1, 64)
        exact = np.sin(2 * np.pi * q) + 0.3 * np.cos(6 * np.pi * q)
        assert np.max(np.abs(lagrange(vals, q, order) - exact)) <= bound

    def test_exact_at_nodes(self):
        n = 64
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(n)
        th = np.arange(n) / n
        assert np.array_equal(lagrange(vals, th, 4), vals)

    def test_bad_grid_rejected(self):
        # the circle's grid cases are TestTorusEmbedding's; the map adds
        # the stencil's need for 4*order nodes
        for n in (7, 48):
            with pytest.raises(ValueError):
                InternalMap(np.zeros(n))
        with pytest.raises(ValueError):
            InternalMap(np.zeros(16), 6)
        with pytest.raises(ValueError):
            solver_general.interp_stencil(16, np.zeros(3), 6)

    def test_map_holds_a_checked_copy(self):
        g = np.full(16, OMEGA)
        f = InternalMap(g)
        g[0] = 0.0
        assert f.g[0] == OMEGA and not f.g.flags.writeable
        g[0] = np.nan
        with pytest.raises(NonFiniteError):
            InternalMap(g)


class TestInvertMap:
    def test_roundtrip(self):
        n = 256
        th = np.arange(n) / n
        g = OMEGA + 0.1 * np.sin(2 * np.pi * th) / (2 * np.pi)
        f = InternalMap(g)
        finv = invert_map(f)
        comp = apply_map(f, apply_map(finv, th))
        err = comp - th
        err -= np.round(err)
        assert np.max(np.abs(err)) <= 1e-11

    def test_non_monotone_rejected(self):
        n = 128
        th = np.arange(n) / n
        f = InternalMap(0.4 * np.cos(2 * np.pi * th))
        with pytest.raises(InversionError):
            invert_map(f)

    def test_one_stencil_per_iteration(self, monkeypatch):
        n = 256
        th = np.arange(n) / n
        f = InternalMap(OMEGA + 0.1 * np.sin(2 * np.pi * th) / (2 * np.pi), 6)
        points, applied = [], []
        stencil = solver_general.interp_stencil
        apply = solver_general.interp_apply

        def count_stencil(n, theta, order):
            points.append(np.array(theta))
            return stencil(n, theta, order)

        def count_apply(values, idx, w):
            applied.append(len(points))
            return apply(values, idx, w)

        monkeypatch.setattr(solver_general, "interp_stencil", count_stencil)
        monkeypatch.setattr(solver_general, "interp_apply", count_apply)
        finv = invert_map(f)
        iters = len(points)
        assert iters >= 3
        # every iterate gets one stencil, read for g and, until the last
        # one converges, for g'
        assert all(not np.array_equal(a, b) for a, b in zip(points, points[1:]))
        assert applied == sorted(2 * list(range(1, iters)) + [iters])
        err = apply_map(f, apply_map(finv, th)) - th
        assert np.max(np.abs(err - np.round(err))) <= 1e-11


class TestRotationNumber:
    def test_rigid_rotation(self):
        f = InternalMap.rotation(128, OMEGA)
        assert abs(rotation_number(f) - OMEGA) <= 1e-13

    def test_conjugate_of_rotation(self):
        # f = psi o R_omega o psi^{-1} has rotation number omega
        n = 1024
        th = np.arange(n) / n
        psi = InternalMap(0.08 * np.sin(2 * np.pi * th) / (2 * np.pi))
        psi_inv = invert_map(psi)
        u = apply_map(psi_inv, th)
        f = InternalMap(apply_map(psi, u + OMEGA) - th)
        assert abs(rotation_number(f, 1e-11) - OMEGA) <= 1e-10

    @pytest.mark.parametrize("order", [6, 8])
    def test_conjugate_of_rotation_high_order(self, order):
        n = 1024
        th = np.arange(n) / n
        psi = InternalMap(0.08 * np.sin(2 * np.pi * th) / (2 * np.pi), order)
        u = apply_map(invert_map(psi), th)
        f = InternalMap(apply_map(psi, u + OMEGA) - th, order)
        assert abs(rotation_number(f, 1e-11) - OMEGA) <= 1e-10

    def test_orbit_array_equals_list_form(self, monkeypatch):
        # each extend fills only the new stretch of _birkhoff's array and
        # leaves the earlier displacements alone; the list form (each
        # chunk a list of Python floats, the orbit concatenated at every
        # doubling) gives the same rho and the same array at every doubling
        n, theta0, tol = 512, 0.3, 1e-15
        th = np.arange(n) / n
        f = InternalMap(OMEGA + 0.15 * np.sin(2 * np.pi * th) / (2 * np.pi))
        birkhoff = solver_general._birkhoff
        arrays = []

        def recorded(extend, tol, m_max, what):
            def extend_copied(d, filled):
                before = d[:filled].tobytes()
                extend(d, filled)
                assert d[:filled].tobytes() == before
                arrays.append(d.copy())
            return birkhoff(extend_copied, tol, m_max, what)

        monkeypatch.setattr(solver_general, "_birkhoff", recorded)
        rho = rotation_number(f, tol, theta0)

        rows = solver_general._cell_polynomials(f.g, f.order).tolist()
        t = (theta0 % 1.0) * n
        done, listed = np.empty(0), []

        def extend_list(orbit, filled):
            nonlocal t, done
            out = []
            for _ in range(orbit.size - filled):
                i = int(t)
                s = t - i
                d = 0.0
                for c in rows[i]:
                    d = d * s + c
                out.append(d)
                t = (t + d) % n
            done = np.concatenate((done, np.asarray(out) / n))
            listed.append(done)
            orbit[filled:] = done[filled:]

        assert birkhoff(extend_list, tol, 1 << 22, "rotation number") == rho
        assert len(arrays) == len(listed) >= 3
        for got, want in zip(arrays, listed):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_orbit_state_carried_across_doublings(self, monkeypatch):
        n = 512
        th = np.arange(n) / n
        f = InternalMap(OMEGA + 0.05 * np.sin(2 * np.pi * th) / (2 * np.pi))
        extends = []

        def capture(extend, tol, m_max, what):
            extends.append(extend)
            return 0.0

        monkeypatch.setattr(solver_general, "_birkhoff", capture)
        rotation_number(f, theta0=0.3)
        rotation_number(f, theta0=0.3)
        stepwise, whole = extends
        # an extend writes into the array it is handed and nowhere else
        d = np.full(2048, np.nan)
        stepwise(d[:1024], 0)
        assert np.isfinite(d[:1024]).all() and np.isnan(d[1024:]).all()
        stepwise(d, 1024)
        e = np.empty(2048)
        whole(e, 0)
        assert np.array_equal(d, e)
        # with n a power of two, t = n * theta holds exactly: the orbit
        # visits the points theta_{k+1} = theta_k + d_k mod 1, and each
        # step is the Lagrange interpolant of g there, up to the rounding
        # of the Horner form
        d = e
        x = [0.3]
        for dk in d[:-1]:
            x.append((x[-1] + dk) % 1.0)
        assert np.max(np.abs(d - lagrange(f.g, np.array(x), 4))) <= 1e-15

    def test_rational_lock(self):
        f = InternalMap.rotation(64, 0.625)
        rho = rotation_number(f)
        assert rho == pytest.approx(0.625, abs=1e-12)
        assert lock_fraction(rho) == Fraction(5, 8)

    def test_cap_raises_with_best_estimate(self):
        # the first 1024-iterate estimate is already the best one
        f = InternalMap.rotation(64, OMEGA)
        with pytest.raises(ToleranceNotMetError, match="^rotation number") as exc:
            rotation_number(f, m_max=1 << 10)
        assert abs(exc.value.best - OMEGA) <= 1e-13


class TestCellPolynomials:
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_table_matches_interp(self, order):
        n = 256
        th = np.arange(n) / n
        g = OMEGA + 0.1 * np.sin(2 * np.pi * th) + 0.02 * np.cos(6 * np.pi * th)
        table = solver_general._cell_polynomials(g, order)
        assert table.shape == (n + 1, order)
        assert np.array_equal(table[n], table[0])
        q = np.random.default_rng(5).uniform(0, 1, 500)
        cell = np.floor(q * n).astype(int)
        s = q * n - cell
        val = np.zeros_like(q)
        for c in table[cell].T:
            val = val * s + c
        assert np.max(np.abs(val / n - lagrange(g, q, order))) <= 1e-15


class TestLockFraction:
    def test_exact_rational(self):
        assert lock_fraction(0.625) == Fraction(5, 8)

    def test_near_miss_unlocked(self):
        assert lock_fraction(0.625 + 1e-5) is None

    def test_q_max_bounds_denominator(self, monkeypatch):
        monkeypatch.setattr(solver_general, "_Q_MAX", 7)
        assert lock_fraction(0.625) is None

    def test_irrational_unlocked(self):
        assert lock_fraction(OMEGA) is None


def untiled_rotation_number(family, par, xy0, tol=1e-10, m_max=1 << 22,
                            transient=256):
    """ambient_rotation_number with every iterate a map step, no cycle rule."""
    x, y = float(xy0[0]) % 1.0, float(xy0[1])
    _, x, y = family.orbit(x, y, par, transient)

    def extend(done, filled):
        nonlocal x, y
        more, x, y = family.orbit(x, y, par, done.size - filled)
        done[filled:] = more

    return solver_general._birkhoff(extend, tol, m_max,
                                    "ambient rotation number")


def count_steps(monkeypatch):
    """Count the map steps of every StandardNonTwistMap.orbit call."""
    steps = [0]
    orbit = StandardNonTwistMap.orbit

    def counted(self, x, y, p, n):
        steps[0] += n
        return orbit(self, x, y, p, n)

    monkeypatch.setattr(StandardNonTwistMap, "orbit", counted)
    return steps


# the eps = 2.2 non-twist circle's mu on the symmetric branch
MU_22 = 0.5984626


class TestWeightedAverage:
    @staticmethod
    def plain(d):
        m = d.size
        t = (np.arange(m) + 0.5) / m
        w = np.exp(-1.0 / (t * (1.0 - t)))
        return float(np.sum(w * d) / np.sum(w))

    @pytest.mark.parametrize("k", range(10, 18))
    def test_equals_plain_formula_bitwise(self, k):
        rng = np.random.default_rng(k)
        d = 0.5 + 0.25 * rng.standard_normal(1 << k)
        assert solver_general._weighted_average(d) == self.plain(d)

    def test_held_weights_out_of_order_within_bound(self):
        # every power of two 2^1 .. 2^17 twice, in a shuffled order: the
        # first visit builds the weights, the second reads the held ones;
        # only the powers of two up to _WEIGHTS_LONGEST are held, half of
        # each, all of them below 128 KiB
        held = solver_general._bump_weights
        held.cache_clear()
        rng = np.random.default_rng(3)
        lengths = [1 << k for k in range(1, 18)]
        for m in rng.permutation(lengths * 2).tolist():
            d = 0.5 + 0.25 * rng.standard_normal(m)
            kept = d.copy()
            assert solver_general._weighted_average(d) == self.plain(d)
            assert np.array_equal(d, kept)
        longest = solver_general._WEIGHTS_LONGEST
        assert longest == 1 << 14
        short = [m for m in lengths if m <= longest]
        assert held.cache_info().currsize == len(short)
        weights = [held(m)[0] for m in short]
        assert held.cache_info().currsize == len(short)
        assert [w.size for w in weights] == [m // 2 for m in short]
        assert sum(w.nbytes for w in weights) < 8 * longest <= 1 << 17
        assert not any(w.flags.writeable for w in weights)
        for m in (3, 3000, 3 << 14):
            with pytest.raises(ValueError, match="power-of-two"):
                solver_general._weighted_average(np.ones(m))


class TestBirkhoffStop:
    """The two ways _birkhoff stops, on synthetic estimate sequences.

    The extend records the length of every array it fills, and the
    weighted average is replaced by a lookup that gives the estimate of
    each doubling, 1024 << k, from the differences between successive
    estimates.
    """

    LIMIT = 0.6

    @classmethod
    def sequence(cls, diffs):
        """Orbit length -> estimate, from the successive differences."""
        estimates = {1 << 10: cls.LIMIT}
        for k, diff in enumerate(diffs, 1):
            estimates[1 << (10 + k)] = estimates[1 << (9 + k)] + diff
        return estimates

    def run(self, monkeypatch, diffs, tol, m_max=1 << 22):
        estimates = self.sequence(diffs)
        monkeypatch.setattr(solver_general, "_weighted_average",
                            lambda d: estimates[d.size])
        sizes = []

        def extend(d, filled):
            sizes.append(d.size)
            d[filled:] = 0.0

        rho = solver_general._birkhoff(extend, tol, m_max, "test average")
        return rho, sizes, estimates

    def test_geometric_ratio_above_half_stops_on_agreement(self,
                                                           monkeypatch):
        # ratio 0.6: the tail bound 1.5 d stays above d, so only the
        # agreement of two estimates stops the average
        diffs = [1e-6 * 0.6**k for k in range(20)]
        rho, sizes, est = self.run(monkeypatch, diffs, 1e-8)
        first = next(k for k, d in enumerate(diffs, 1) if d <= 1e-8)
        assert sizes[-1] == 1 << (10 + first)
        assert rho == est[sizes[-1]]

    @pytest.mark.parametrize("diffs", [
        [9.1e-6, 2.8e-8, 3.7e-8, 1.6e-12],
        # r = 0.2 is at most 1/2 and its tail bound 5e-11 within tol, but
        # it rose from r_prev = 1e-3
        [1e-6, 1e-9, 2e-10, 1e-12],
    ], ids=["logged", "rise-within-half"])
    def test_rising_ratio_does_not_stop_early(self, monkeypatch, diffs):
        rho, sizes, est = self.run(monkeypatch, diffs, 1e-10)
        assert sizes[-1] == 1 << 14
        assert rho == est[1 << 14]

    def test_falling_ratios_stop_one_doubling_sooner(self, monkeypatch):
        # ratios 1e-2 then 1e-3: the tail bound ~1e-12 vouches for
        # 1e-10 at 8192, a doubling before the estimates agree
        diffs = [1e-4, 1e-6, 1e-9, 1e-12]
        rho, sizes, est = self.run(monkeypatch, diffs, 1e-10)
        assert sizes[-1] == 1 << 13
        assert rho == est[1 << 13]
        assert abs(rho - est[1 << 14]) <= 1e-10

    def test_falling_ratios_need_three_differences(self, monkeypatch):
        # one difference of ratio 1e-5 is no evidence of a falling ratio
        rho, sizes, est = self.run(monkeypatch, [1e-4, 1e-9, 1e-11], 1e-10)
        assert sizes[-1] == 1 << 13
        assert rho == est[1 << 13]

    def test_tail_bound_above_tol_does_not_stop(self, monkeypatch):
        # falling ratios 0.25 then 0.2, but 0.2 * 5e-10 / 0.8 = 1.25e-10
        rho, sizes, est = self.run(monkeypatch,
                                   [1e-8, 2.5e-9, 5e-10, 1e-11], 1e-10)
        assert sizes[-1] == 1 << 14
        assert rho == est[1 << 14]

    def test_growing_differences_do_not_stop(self, monkeypatch):
        # the ratio falls from 4 to 2, but above 1 the tail bound
        # r * d / (1 - r) is negative: r <= 1/2 keeps it from passing
        rho, sizes, est = self.run(monkeypatch,
                                   [1e-9, 4e-9, 8e-9, 1e-11], 1e-10)
        assert sizes[-1] == 1 << 14
        assert rho == est[1 << 14]

    def test_cap_raises_with_latest_estimate(self, monkeypatch):
        diffs = [1e-6 * 0.6**k for k in range(20)]
        with pytest.raises(ToleranceNotMetError,
                           match="^test average did not stabilize") as exc:
            self.run(monkeypatch, diffs, 1e-8, m_max=1 << 13)
        assert exc.value.best == self.sequence(diffs)[1 << 13]


class TestAmbientRotationNumber:
    # (a, lock): 5/8; a period-1 lock, rho = 1, whose float orbit is a
    # 3-cycle; and two unlocked points, one just outside the 5/8 window
    POINTS = [(0.075, Fraction(5, 8)), (0.0, Fraction(1)),
              (0.05, None), (0.0763125, None)]

    @pytest.mark.parametrize("a,lock", POINTS)
    def test_same_rho_as_untiled_orbit(self, monkeypatch, a, lock):
        fam = sym_family()
        par = ParamPoint(a=a, mu=MU_22, eps=2.2)
        steps = count_steps(monkeypatch)
        rho = ambient_rotation_number(fam, par, (0.3, 0.2))
        tiled = steps[0]
        steps[0] = 0
        assert rho == untiled_rotation_number(fam, par, (0.3, 0.2))
        assert lock_fraction(rho) == lock
        if lock is None:
            assert tiled == steps[0]
        else:
            # the cycle closes before the last doubling, whose chunk (half
            # the iterates past the transient) costs at most the probe
            assert tiled <= steps[0] - (steps[0] - 256) // 2 + 64

    def test_cycle_found_in_the_chunk_where_it_closes(self, monkeypatch):
        # a 5/8 edge point of the rho_sweep circle: its exact cycle closes
        # inside the first chunk of the doubling from 2^13 to 2^14
        # iterates.  The second chunk reads the period from the tail before
        # it and returns after one period, so the cycle is tiled from
        # there, not from the doubling to 2^15 (16,648 map steps when the
        # cycle was checked at each doubling only)
        fam = sym_family()
        par = ParamPoint(a=0.0741875, mu=MU_22, eps=2.2)
        _, x, y = fam.orbit(0.3, 0.2, par, 256)
        seen = {}
        while (x, y) not in seen:
            seen[x, y] = len(seen)
            _, x, y = fam.orbit(x, y, par, 1)
        closes, period = seen[x, y], len(seen) - seen[x, y]
        tail, call = solver_general._CYCLE_TAIL, solver_general._ORBIT_CALL
        assert period < tail
        assert 1 << 13 < closes < (1 << 13) + call - tail
        steps = count_steps(monkeypatch)
        rho = ambient_rotation_number(fam, par, (0.3, 0.2))
        assert lock_fraction(rho) == Fraction(5, 8)
        assert steps[0] == 256 + (1 << 13) + call + period
        tiled = steps[0]
        steps[0] = 0
        assert rho == untiled_rotation_number(fam, par, (0.3, 0.2))
        assert tiled < steps[0] - (steps[0] - 256) // 2

    def test_cycle_found_past_a_misleading_tail(self):
        # a stand-in 64-cycle whose first and last displacements are equal,
        # so the 64 displacements before each chunk read as period 63: the
        # check after 63 steps misses, and the return at the chunk's end
        # finds the cycle by the end of the first chunk
        tail = solver_general._CYCLE_TAIL
        values = [0.5] + [0.5 + 1e-3 * j for j in range(1, tail - 1)] + [0.5]

        class BorderCycle:
            steps = 0

            def orbit(self, x, y, p, steps):
                self.steps += steps
                out = []
                for _ in range(steps):
                    out.append(values[round(x * tail)])
                    x = (x + 1.0 / tail) % 1.0
                return out, x, y

        cyc, par = BorderCycle(), ParamPoint(0.0, 0.0, 0.0)
        rho = ambient_rotation_number(cyc, par, (0.0, 0.0))
        assert cyc.steps <= 256 + (1 << 10)
        assert rho == untiled_rotation_number(BorderCycle(), par, (0.0, 0.0))

    @pytest.mark.parametrize("a", [0.075, 0.0, 0.05])
    def test_tiled_orbit_is_the_iterated_one(self, monkeypatch, a):
        # every doubling's displacements, not only the average, agree
        extends = []

        def capture(extend, tol, m_max, what):
            extends.append(extend)
            return 0.0

        monkeypatch.setattr(solver_general, "_birkhoff", capture)
        fam = sym_family()
        par = ParamPoint(a=a, mu=MU_22, eps=2.2)
        ambient_rotation_number(fam, par, (0.3, 0.2))
        untiled_rotation_number(fam, par, (0.3, 0.2))
        tiled, iterated = extends
        got, want = np.empty(1 << 15), np.empty(1 << 15)
        filled = 0
        for m in (1 << k for k in range(10, 16)):
            tiled(got[:m], filled)
            iterated(want[:m], filled)
            filled = m
            assert np.array_equal(got[:m], want[:m])

    @pytest.mark.parametrize("cycling", ["x", "y"])
    def test_one_coordinate_returning_is_no_cycle(self, cycling):
        # a stand-in map whose one coordinate has period 2 while the other
        # never returns, and whose displacements read the one that drifts
        class HalfCycle:
            def orbit(self, x, y, p, steps):
                out = []
                for _ in range(steps):
                    if cycling == "x":
                        out.append(0.5 + 0.01 * np.sin(y))
                        x, y = (x + 0.5) % 1.0, y + 1.0
                    else:
                        out.append(0.5 + 0.01 * np.sin(2 * np.pi * x))
                        x, y = (x + OMEGA) % 1.0, 1.0 - y
                return out, x, y

        par = ParamPoint(0.0, 0.0, 0.0)
        rho = ambient_rotation_number(HalfCycle(), par, (0.25, 0.0))
        assert rho == untiled_rotation_number(HalfCycle(), par, (0.25, 0.0))
        assert abs(rho - 0.5) <= 1e-9

    def test_orbit_calls_are_bounded(self, monkeypatch):
        # an unlocked orbit runs in calls of at most _ORBIT_CALL steps,
        # written into one array, so no chunk is held as a list
        calls = []
        orbit = StandardNonTwistMap.orbit

        def recorded(self, x, y, p, n):
            calls.append(n)
            return orbit(self, x, y, p, n)

        monkeypatch.setattr(StandardNonTwistMap, "orbit", recorded)
        fam = sym_family()
        par = ParamPoint(a=0.0763125, mu=MU_22, eps=2.2)
        ambient_rotation_number(fam, par, (0.3, 0.2))
        assert calls[0] == 256          # the transient
        assert max(calls[1:]) == solver_general._ORBIT_CALL
        assert sum(calls) > 4 * solver_general._ORBIT_CALL

    def test_cap_below_first_estimate_rejected(self, monkeypatch):
        steps = count_steps(monkeypatch)
        fam = sym_family()
        par = ParamPoint(a=0.07, mu=0.55, eps=0.0)
        with pytest.raises(ValueError, match="m_max"):
            ambient_rotation_number(fam, par, (0.3, 0.2), m_max=512)
        # only the transient ran
        assert steps[0] == 256
        with pytest.raises(ValueError, match="m_max"):
            rotation_number(InternalMap.rotation(64, OMEGA), m_max=1023)

    def test_integrable_value(self):
        # on the eps = 0 attractor the lift advances by mu + a^2 per step
        fam = sym_family()
        par = ParamPoint(a=0.07, mu=0.55, eps=0.0)
        rho = ambient_rotation_number(fam, par, (0.3, 0.2), tol=1e-10)
        assert abs(rho - (0.55 + 0.07**2)) <= 1e-9

    def test_cap_raises_with_best_estimate(self):
        fam = sym_family()
        par = ParamPoint(a=0.07, mu=0.55, eps=0.0)
        with pytest.raises(ToleranceNotMetError, match="^ambient rotation") as exc:
            ambient_rotation_number(fam, par, (0.3, 0.2), m_max=1 << 10)
        assert abs(exc.value.best - (0.55 + 0.07**2)) <= 1e-9


class TestGeneralSolver:
    def setup_method(self):
        prob = QpProblem(sym_family(), omega=OMEGA, tol=1e-12)
        start = QpState.flat_start(128, OMEGA)
        self.par = None
        self.state = newton_solve(
            prob, QpState(start.k, start.a, start.mu, 0.4)
        )
        self.par = ParamPoint(self.state.a, self.state.mu, 0.4)

    def test_cross_solver_rotation_number(self):
        f = induced_internal_map(self.state.k, sym_family(), self.par,
                                 order=6)
        assert f.order == 6
        assert abs(rotation_number(f, 1e-11) - OMEGA) <= 1e-9

    def test_induced_map_matches_interp_loop(self):
        # reference: the conjugacy Newton written node-wise with the
        # Lagrange stencil
        circle = self.state.k
        th = np.arange(circle.n) / circle.n
        fx, _ = sym_family().eval_lift(th + circle.eta_x, circle.k_y, self.par)
        d_eta = solver_general.grid_derivative(circle.eta_x, 6)
        phi = fx - float(np.mean(circle.eta_x))
        for _ in range(60):
            res = phi + lagrange(circle.eta_x, phi, 6) - fx
            if float(np.max(np.abs(res))) < 1e-13:
                break
            phi = phi - res / np.maximum(1.0 + lagrange(d_eta, phi, 6), 0.05)
        f = induced_internal_map(circle, sym_family(), self.par, order=6)
        assert np.array_equal(f.g, phi - th)

    def test_converges_from_perturbed_circle(self):
        n = self.state.k.n
        th = np.arange(n) / n
        circle = TorusEmbedding(
            self.state.k.eta_x + 1e-4 * np.sin(2 * np.pi * th),
            self.state.k.k_y + 1e-4 * np.cos(4 * np.pi * th))
        f = induced_internal_map(self.state.k, sym_family(), self.par,
                                 order=6)
        sol = newton_solve_general(circle, f, sym_family(), self.par,
                                   tol=1e-11)
        assert sol.err <= 1e-11
        assert abs(rotation_number(sol.f, 1e-11) - OMEGA) <= 1e-8


def perturbed_start(amp):
    """(circle, f, par): the eps = 0.4 QP circle with K moved by amp.

    f is the internal map induced by the unperturbed circle.
    """
    fam = sym_family()
    prob = QpProblem(fam, omega=OMEGA, tol=1e-12)
    start = QpState.flat_start(128, OMEGA)
    state = newton_solve(prob, QpState(start.k, start.a, start.mu, 0.4))
    par = ParamPoint(state.a, state.mu, 0.4)
    th = np.arange(state.k.n) / state.k.n
    circle = TorusEmbedding(state.k.eta_x + amp * np.sin(2 * np.pi * th),
                            state.k.k_y + amp * np.cos(4 * np.pi * th))
    return circle, induced_internal_map(state.k, fam, par, order=6), par


class TestResidualFloor:
    """One Newton pass that settles on its best iterate near tol."""

    def setup_method(self):
        self.circle, self.f, self.par = perturbed_start(1e-4)

    def solve(self, monkeypatch, tol, max_newton, fail_at=None):
        """newton_solve_general, recording residuals and steps on self.

        self.errs gets every residual the pass evaluates and self.steps
        the index of the iterate each step starts from; fail_at makes
        that step (counted from 1) raise InversionError.
        """
        self.errs, self.steps = [], []
        residual = solver_general._residual
        step = solver_general.newton_step_general

        def record_residual(*args):
            out = residual(*args)
            self.errs.append(out.err)
            return out

        def count_step(*args):
            self.steps.append(len(self.errs) - 1)
            if len(self.steps) == fail_at:
                raise InversionError("injected")
            return step(*args)

        monkeypatch.setattr(solver_general, "_residual", record_residual)
        monkeypatch.setattr(solver_general, "newton_step_general", count_step)
        return newton_solve_general(self.circle, self.f, sym_family(),
                                    self.par, tol=tol, max_newton=max_newton)

    def test_cap_settles_on_best_iterate_in_one_pass(self, monkeypatch):
        # four steps reach about 2e-13: above tol, within 100 tol
        sol = self.solve(monkeypatch, 1e-13, 4)
        assert sol.err > 1e-13
        assert sol.err == min(self.errs) == self.errs[sol.iterations]
        assert sol.iterations == 4
        assert self.steps == [0, 1, 2, 3]   # one pass, no restart

    def test_failing_step_settles_on_best_iterate(self, monkeypatch):
        sol = self.solve(monkeypatch, 1e-13, 10, fail_at=4)
        assert self.steps == [0, 1, 2, 3]
        assert len(self.errs) == 4
        assert sol.iterations == 3
        assert 1e-13 < sol.err == min(self.errs)

    def test_failing_step_out_of_window_reraises(self, monkeypatch):
        with pytest.raises(InversionError, match="injected"):
            self.solve(monkeypatch, 1e-16, 10, fail_at=4)
        assert len(self.steps) == 4

    def test_floor_out_of_window_reports_best_residual(self, monkeypatch):
        with pytest.raises(DivergenceError) as exc:
            self.solve(monkeypatch, 1e-16, 4)
        assert self.steps == [0, 1, 2, 3]
        assert exc.value.residual == min(self.errs) > 100 * 1e-16


class TestSweep:
    @staticmethod
    def count_points(monkeypatch):
        """Record the parameter point of every ambient orbit the sweep runs.

        The count is kept in this process, which sees only its own share
        of a split sweep, so the sweep is pinned to one CPU.
        """
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        points = []
        ambient = solver_general.ambient_rotation_number

        def counted(*args):
            points.append(args[1])
            return ambient(*args)

        monkeypatch.setattr(solver_general, "ambient_rotation_number", counted)
        return points

    def test_integrable_parabola_in_a(self, monkeypatch):
        # eps = 0: the attractor is flat and rho(a) = mu + a^2 exactly
        par = ParamPoint(a=0.0, mu=OMEGA, eps=0.0)
        points = self.count_points(monkeypatch)
        recs = sweep_parameter(sym_family(), par, (0.3, 0.2), "a",
                               halfwidth=0.03, step=0.01, rho_tol=1e-11)
        # one ambient orbit per point
        assert sorted(p.a for p in points) == [r.param for r in recs]
        assert len(recs) == 7
        by_a = {round(r.param, 12): r for r in recs}
        for a, r in by_a.items():
            assert abs(r.rho - (OMEGA + a * a)) <= 1e-10
            assert r.rho_err == 1e-11
            assert not r.locked
        # evenness comes out exactly on the integrable family
        for a in (0.01, 0.02, 0.03):
            assert abs(by_a[a].rho - by_a[-a].rho) <= 1e-10

    def test_capped_point_has_no_rho_err_and_walk_continues(self,
                                                            monkeypatch):
        par = ParamPoint(a=0.0, mu=OMEGA, eps=0.0)
        ambient = solver_general.ambient_rotation_number

        def cap_at_002(family, par_v, *rest):
            # at a = 0.02: one 1024-iterate estimate, then the cap
            m_max = 1 << 10 if abs(par_v.a - 0.02) < 1e-12 else 1 << 22
            return ambient(family, par_v, *rest, m_max=m_max)

        monkeypatch.setattr(solver_general, "ambient_rotation_number",
                            cap_at_002)
        recs = sweep_parameter(sym_family(), par, (0.3, 0.2), "a",
                               halfwidth=0.03, step=0.01, rho_tol=1e-10)
        by_a = {round(r.param, 12): r for r in recs}
        assert sorted(by_a) == [-0.03, -0.02, -0.01, 0.0, 0.01, 0.02, 0.03]
        assert np.isnan(by_a[0.02].rho_err)
        assert abs(by_a[0.02].rho - (OMEGA + 0.02**2)) <= 1e-9
        assert all(r.rho_err == 1e-10 for a, r in by_a.items() if a != 0.02)

    def test_records_match_untiled_orbits(self, monkeypatch):
        # both edges of the 5/8 window, bisected down to refine_width
        par = ParamPoint(a=0.075, mu=MU_22, eps=2.2)
        args = (sym_family(), par, (0.3, 0.2), "a", 0.003, 0.002)
        recs = sweep_parameter(*args)
        assert any(r.locked for r in recs) and not all(r.locked for r in recs)
        monkeypatch.setattr(solver_general, "ambient_rotation_number",
                            untiled_rotation_number)
        assert recs == sweep_parameter(*args)

    def test_split_equals_one_cpu(self, forks, monkeypatch):
        # the outward walk, then the bisection chains of both 5/8 edges,
        # each on two processes: one fork apiece
        par = ParamPoint(a=0.075, mu=MU_22, eps=2.2)
        args = (sym_family(), par, (0.3, 0.2), "a", 0.003, 0.002)
        split = sweep_parameter(*args)
        assert len(forks) == 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = sweep_parameter(*args)
        assert len(forks) == 2
        assert [bits(r) for r in split] == [bits(r) for r in serial]
        assert any(r.locked for r in split) and not all(r.locked
                                                        for r in split)

    def test_early_stops_hold_at_the_next_doubling(self, monkeypatch):
        # the rho_sweep benchmark's sweep: a in [-0.08, 0.08] by 0.004
        # around the CLI's symmetric eps = 2.2 circle, on one CPU.  An
        # average that stopped on its tail bound, before two estimates
        # agreed, moves by at most rho_tol over one more doubling
        cfg = cli.parse_config("variant = symmetric\neps_target = 2.2\n"
                               "sweep_halfwidth = 0.08\n")
        problem, result = cli._continue(cfg)
        state = result.state
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        birkhoff = solver_general._birkhoff
        average = solver_general._weighted_average
        early = []          # (orbit length, rho, rho one doubling on)

        def checked(extend, tol, m_max, what):
            arrays = []

            def kept(d, filled):
                extend(d, filled)
                arrays.append(d)

            rho = birkhoff(kept, tol, m_max, what)
            d = arrays[-1]
            if abs(rho - average(arrays[-2])) > tol:
                more = np.empty(2 * d.size)
                more[:d.size] = d
                extend(more, d.size)
                early.append((d.size, rho, average(more)))
            return rho

        monkeypatch.setattr(solver_general, "_birkhoff", checked)
        recs = sweep_parameter(
            problem.family, ParamPoint(state.a, state.mu, state.eps),
            (state.k.eta_x[0], state.k.k_y[0]), "a", cfg.sweep_halfwidth,
            cfg.sweep_step, rho_tol=cfg.rho_tol)
        assert len(recs) >= 65 and all(r.rho_err == cfg.rho_tol
                                       for r in recs)
        for m, rho, further in early:
            assert abs(further - rho) <= cfg.rho_tol
        unlocked = {r.rho for r in recs if not r.locked}
        lengths = [m for m, rho, _ in early if rho in unlocked]
        assert len(lengths) >= 3 and max(lengths) >= 1 << 15

    def test_bad_parameter_name(self):
        par = ParamPoint(0.0, OMEGA, 0.0)
        with pytest.raises(ValueError):
            sweep_parameter(sym_family(), par, (0.0, 0.0), "sigma",
                            halfwidth=0.01, step=0.01)


class TestOneResidualPerIterate:
    """The residual of an iterate is computed once, by newton_solve_general."""

    def setup_method(self):
        # the circle perturbed by 1e-2, which takes several steps
        self.circle, self.f, self.par = perturbed_start(1e-2)

    def test_one_map_evaluation_per_iterate(self, monkeypatch):
        fam = sym_family()
        evals, steps = [], []
        eval_lift = fam.eval_lift
        step = solver_general.newton_step_general

        def count_eval(*args):
            evals.append(1)
            return eval_lift(*args)

        def count_step(*args):
            steps.append(1)
            return step(*args)

        monkeypatch.setattr(fam, "eval_lift", count_eval)
        monkeypatch.setattr(solver_general, "newton_step_general", count_step)
        sol = newton_solve_general(self.circle, self.f, fam, self.par,
                                   tol=1e-11)
        assert sol.err <= 1e-11
        assert len(steps) == sol.iterations >= 3
        assert len(evals) == len(steps) + 1

    def test_map_on_another_grid_rejected_before_any_step(self,
                                                          monkeypatch):
        calls = []
        for name in ("_residual", "newton_step_general"):
            monkeypatch.setattr(solver_general, name,
                                lambda *args: calls.append(args))
        f = InternalMap.rotation(2 * self.circle.n, OMEGA, 6)
        with pytest.raises(ValueError, match="share one grid"):
            newton_solve_general(self.circle, f, sym_family(), self.par)
        assert calls == []

    def test_every_stencil_and_derivative_at_the_map_order(self,
                                                           monkeypatch):
        # the circle carries no order: a step reads the map's for the
        # circle's fields as for g
        orders = []
        for name in ("interp_stencil", "grid_derivative"):
            def recorded(*args, _fn=getattr(solver_general, name)):
                orders.append(args[-1])
                return _fn(*args)
            monkeypatch.setattr(solver_general, name, recorded)
        assert self.f.order == 6
        solver_general.newton_step_general(self.circle, self.f, sym_family(),
                                           self.par)
        assert len(orders) >= 5 and set(orders) == {6}

    def test_step_without_residual_computes_its_own(self):
        fam = sym_family()
        res = solver_general._residual(self.circle, self.f, fam, self.par)
        given = solver_general.newton_step_general(
            self.circle, self.f, fam, self.par, res)
        own = solver_general.newton_step_general(
            self.circle, self.f, fam, self.par)
        assert np.array_equal(given[0].eta_x, own[0].eta_x)
        assert np.array_equal(given[0].k_y, own[0].k_y)
        assert np.array_equal(given[1].g, own[1].g)
        assert res.err == max(float(np.max(np.abs(res.ex))),
                              float(np.max(np.abs(res.ey))))


class TestBisectionRounds:
    """Every locking boundary is halved to the end, each point once."""

    EDGE = 0.0123

    def sweep(self, monkeypatch, refine_width):
        # eps = 0: rho(a) = mu + a^2, locked here iff |a| > EDGE
        par = ParamPoint(a=0.0, mu=OMEGA, eps=0.0)

        def lock(rho):
            return Fraction(1) if rho > OMEGA + self.EDGE**2 else None

        monkeypatch.setattr(solver_general, "lock_fraction", lock)
        monkeypatch.setattr(solver_general, "_REFINE_WIDTH", refine_width)
        points = TestSweep.count_points(monkeypatch)
        recs = sweep_parameter(sym_family(), par, (0.3, 0.2), "a",
                               halfwidth=0.03, step=0.01, rho_tol=1e-11)
        solves = [p.a for p in points]
        edges = [(lo.param, hi.param) for lo, hi in zip(recs, recs[1:])
                 if lo.locked != hi.locked]
        return solves, recs, edges

    def test_both_edges_bracketed(self, monkeypatch):
        solves, recs, edges = self.sweep(monkeypatch, 1e-4)
        assert len(edges) == 2
        for (lo, hi), edge in zip(edges, (-self.EDGE, self.EDGE)):
            assert hi - lo <= 1e-4
            assert lo - 1e-9 <= edge <= hi + 1e-9
        assert len(solves) == len(recs) == len(set(solves))

    def test_ends_when_midpoints_stop_being_new(self, monkeypatch):
        solves, recs, edges = self.sweep(monkeypatch, 1e-300)
        assert len(solves) - 7 == 105
        assert len(recs) == len(solves) == len(set(solves))
        assert len(edges) == 2
        for lo, hi in edges:
            assert 0.5 * (lo + hi) in (lo, hi)
