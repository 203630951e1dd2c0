from dataclasses import replace

import numpy as np
import pytest

from ntcircle import (Forcing, ParamPoint, StandardNonTwistMap,
                      check_symmetry)

PAR = ParamPoint(a=0.07, mu=0.55, eps=1.3)


def families():
    return [StandardNonTwistMap(0.8, v) for v in ("symmetric", "nonsymmetric")]


def family_id(fam):
    return f"dsntm-{fam.forcing.variant}"


def rand_points(m, seed):
    rng = np.random.default_rng(seed)
    return rng.random(m), rng.uniform(-2.0, 2.0, m)


class TestForcing:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            Forcing("triangle")

    def test_symmetric_is_odd_about_half(self):
        p = Forcing("symmetric")
        x = np.linspace(0, 1, 101)
        np.testing.assert_allclose(p(x - 0.5), -p(x), atol=1e-15)

    def test_nonsymmetric_breaks_oddness(self):
        p = Forcing("nonsymmetric")
        x = np.linspace(0, 1, 101)
        assert np.max(np.abs(p(x - 0.5) + p(x))) > 0.1

    @pytest.mark.parametrize("variant", ["symmetric", "nonsymmetric"])
    def test_deriv_matches_finite_difference(self, variant):
        p = Forcing(variant)
        x = np.linspace(0, 1, 37)
        h = 1e-6
        fd = (p(x + h) - p(x - h)) / (2 * h)
        np.testing.assert_allclose(p.deriv(x), fd, atol=1e-8)


class TestSplitForcing:
    """p and p' of a large 1-D array, even or odd in length, equal their
    closed forms bit for bit: each is one numpy pass."""

    TWO_PI = 2.0 * np.pi

    def formulas(self, variant):
        """(p, p') written out, evaluated in one numpy pass each: the
        nonsymmetric forcing in s = sin(2 pi x) and c = cos(2 pi x)."""
        t = self.TWO_PI
        if variant == "symmetric":
            return (lambda x: np.sin(t * x) / t, lambda x: np.cos(t * x))

        def p(x):
            s = np.sin(t * x)
            return (s + 1.0 - 2.0 * s * s) / t

        def dp(x):
            s, c = np.sin(t * x), np.cos(t * x)
            return c - 4.0 * s * c

        return p, dp

    @pytest.mark.parametrize("variant", ["symmetric", "nonsymmetric"])
    @pytest.mark.parametrize("size", [1 << 14, 1 << 16, (1 << 14) + 1,
                                      3 * 7919])
    def test_split_equals_formula(self, variant, size):
        x = np.random.default_rng(size).uniform(-1.5, 2.5, size)
        f = Forcing(variant)
        p, dp = self.formulas(variant)
        assert f(x).tobytes() == p(x).tobytes()
        assert f.deriv(x).tobytes() == dp(x).tobytes()


class TestStandardNonTwistMap:
    def test_sigma_range_enforced(self):
        with pytest.raises(ValueError):
            StandardNonTwistMap(1.0)
        with pytest.raises(ValueError):
            StandardNonTwistMap(0.0)

    @pytest.mark.parametrize("fam", families(), ids=family_id)
    def test_jacobian_det_is_sigma(self, fam):
        x, y = rand_points(200, 11)
        j = fam.jacobian(x, y, PAR)
        det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        np.testing.assert_allclose(det, fam.sigma, atol=1e-12)

    @pytest.mark.parametrize("fam", families(), ids=family_id)
    def test_jacobian_matches_finite_difference(self, fam):
        x, y = rand_points(40, 12)
        h = 1e-6
        j = fam.jacobian(x, y, PAR)
        for (i, wrt) in ((0, "x"), (1, "y")):
            dx, dy = (h, 0.0) if wrt == "x" else (0.0, h)
            fp = fam.eval_lift(x + dx, y + dy, PAR)
            fm = fam.eval_lift(x - dx, y - dy, PAR)
            np.testing.assert_allclose(j[0, i], (fp[0] - fm[0]) / (2 * h),
                                       atol=1e-6)
            np.testing.assert_allclose(j[1, i], (fp[1] - fm[1]) / (2 * h),
                                       atol=1e-6)

    @pytest.mark.parametrize("fam", families(), ids=family_id)
    @pytest.mark.parametrize("which", ["a", "mu", "eps"])
    def test_parameter_derivatives_match_finite_difference(self, fam, which):
        x, y = rand_points(40, 13)
        h = 1e-6
        der = getattr(fam, "d_" + which)(x, y, PAR)
        pp = replace(PAR, **{which: getattr(PAR, which) + h})
        pm = replace(PAR, **{which: getattr(PAR, which) - h})
        fp = fam.eval_lift(x, y, pp)
        fm = fam.eval_lift(x, y, pm)
        np.testing.assert_allclose(der[0], (fp[0] - fm[0]) / (2 * h),
                                   atol=1e-6)
        np.testing.assert_allclose(der[1], (fp[1] - fm[1]) / (2 * h),
                                   atol=1e-6)

    @pytest.mark.parametrize("fam", families(), ids=family_id)
    def test_constant_rows_solver_qp_takes_as_given(self, fam):
        # solver_qp never forms these rows: D_a F_y = 0, D_mu F = (1, 0)
        # and J_11 = sigma, exactly, at every point and parameter
        x, y = rand_points(200, 14)
        rng = np.random.default_rng(15)
        for a, mu, eps in rng.uniform(-3.0, 3.0, (5, 3)):
            par = ParamPoint(a, mu, eps)
            assert np.all(fam.d_a(x, y, par)[1] == 0.0)
            dmx, dmy = fam.d_mu(x, y, par)
            assert np.all(dmx == 1.0) and np.all(dmy == 0.0)
            assert np.all(fam.jacobian(x, y, par)[1, 1] == fam.sigma)

    @pytest.mark.parametrize("fam", families(), ids=family_id)
    def test_evaluation_gives_the_d_a_x_row(self, fam):
        # solver_qp reads D_a F_x from the evaluation: the x row of the
        # family's two-row D_a F, bit for bit, on arrays and on floats
        x, y = rand_points(200, 16)
        for pts in ((x, y), (float(x[0]), float(y[0]))):
            got = fam.evaluate(*pts, PAR).d_a()
            want = fam.d_a(*pts, PAR)[0]
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_eval_wraps_x(self):
        fam = StandardNonTwistMap(0.8)
        x, y = fam.eval(np.array([0.9]), np.array([1.5]), PAR)
        assert 0.0 <= x[0] < 1.0

    def test_symmetric_family_conjugacy(self):
        # S F_a S = F_{-a} with S(x, y) = (x - 1/2, -y)
        fam = StandardNonTwistMap(0.8, "symmetric")
        assert check_symmetry(fam, PAR) <= 1e-12

    def test_nonsymmetric_family_has_no_conjugacy(self):
        fam = StandardNonTwistMap(0.8, "nonsymmetric")
        assert check_symmetry(fam, PAR) > 1e-3


class TestFloatOrbit:
    """StandardNonTwistMap.orbit: the lift on Python floats."""

    @pytest.mark.parametrize("fam", families(), ids=family_id)
    def test_step_matches_eval_lift(self, fam):
        x, y = rand_points(200, 14)
        x1, y1 = fam.eval_lift(x, y, PAR)
        for xi, yi, xl, yl in zip(x.tolist(), y.tolist(), x1, y1):
            (d,), xe, ye = fam.orbit(xi, yi, PAR, 1)
            assert type(d) is type(xe) is type(ye) is float
            assert abs(d - (xl - xi)) <= 1e-14
            assert abs(ye - yl) <= 1e-14
            assert xe == (xi + d) % 1.0

    @pytest.mark.parametrize("fam", families(), ids=family_id)
    def test_orbit_resumes_from_its_end_point(self, fam):
        whole, xw, yw = fam.orbit(0.3, 0.2, PAR, 50)
        x, y, parts = 0.3, 0.2, []
        for count in (1, 7, 42):
            more, x, y = fam.orbit(x, y, PAR, count)
            parts += more
        assert parts == whole and (x, y) == (xw, yw)
        assert 0.0 <= x < 1.0
