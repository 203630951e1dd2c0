import numpy as np
import pytest

from ntcircle import (
    GOLDEN_MEAN,
    ParamPoint,
    PeriodicScalar,
    QpProblem,
    QpState,
    StandardNonTwistMap,
    TorusEmbedding,
    fourier,
    grid,
    induced_internal_map,
    min_angle,
    newton_solve,
    shift,
    tangent,
    torsion0,
    vartheta_general,
    vartheta_qp,
)
from ntcircle import frame, solver_general, solver_qp
from ntcircle.errors import ContractionFailureError, NonFiniteError
from ntcircle.frame import normal0_values, normal_values, solve_transfer
from ntcircle.solver_general import (grid_derivative, interp_apply,
                                     interp_stencil)

SIGMA = 0.8
OMEGA = GOLDEN_MEAN
TWO_PI = 2.0 * np.pi


def d_theta(u):
    """Spectral d/dtheta of the samples u: the derivative multiplier on one row."""
    return fourier.transform(u.copy(), fourier.derivative_spectra)


def integrable_frame(a, n=64):
    """Closed-form frame data on the flat circle y = 0 of the map family.

    There L = (1, 0), N0 = (0, 1), and the torsion is -2*sigma*a, so the
    whole construction can be checked against constants.  dfk holds the
    entries of DF along the circle as sample arrays.
    """
    fam = StandardNonTwistMap(SIGMA, "symmetric")
    k = TorusEmbedding.zero_section(n)
    par = ParamPoint(a=a, mu=OMEGA - a * a, eps=0.0)
    x = k.x_lift()
    dfk = fam.jacobian(x, k.k_y, par)
    return fam, k, dfk


def torsion_qp(k, dfk):
    """N0 on the circle k and the torsion, N0 composed with the shift."""
    l = tangent(k)
    n0x, n0y, gram = normal0_values(*l)
    n0x_f = shift(PeriodicScalar(n0x), OMEGA).values
    n0y_f = shift(PeriodicScalar(n0y), OMEGA).values
    return l, (n0x, n0y), gram, torsion0(n0x, n0y, n0x_f, n0y_f, dfk)


class TestTorusEmbedding:
    """The embedding holds checked read-only float64 samples on one grid."""

    def test_caller_arrays_are_copied(self):
        v, w = np.ones(8), np.zeros(8)
        k = TorusEmbedding(v, w)
        v[0] = w[0] = 5.0
        assert k.eta_x[0] == 1.0 and k.k_y[0] == 0.0
        # a read-only view is copied: the array it looks into can change
        block = np.ones((2, 8))
        view = block[0]
        view.setflags(write=False)
        k = TorusEmbedding(view, [0.0] * 8)
        block[0, 0] = 5.0
        assert k.eta_x[0] == 1.0 and k.eta_x.base is None
        assert k.k_y.dtype == np.float64

    def test_checked_fresh_arrays_are_adopted(self):
        # what fourier.checked gives back for a formula just computed
        v = fourier.checked(np.ones(8) + 1.0)
        w = fourier.checked(np.zeros(8))
        k = TorusEmbedding(v, w)
        assert k.eta_x is v and k.k_y is w

    def test_fresh_arrays_are_frozen_and_scanned_once(self, monkeypatch):
        seen = []
        check = fourier.checked
        monkeypatch.setattr(fourier, "checked",
                            lambda v: seen.append(v) or check(v))
        v, w = np.ones(8) + 1.0, np.zeros(8) - 1.0
        k = TorusEmbedding.fresh(v, w)
        assert k.eta_x is v and k.k_y is w
        assert not v.flags.writeable and not w.flags.writeable
        assert [id(u) for u in seen] == [id(v), id(w)]
        bad = np.zeros(8)
        bad[5] = np.nan
        with pytest.raises(NonFiniteError):
            TorusEmbedding.fresh(np.zeros(8), bad)

    def test_fields_are_read_only(self):
        k = TorusEmbedding(np.ones(8), np.zeros(8))
        r, z = k.resample(16), TorusEmbedding.zero_section(8)
        for field in (k.eta_x, k.k_y, r.eta_x, r.k_y, z.eta_x, z.k_y):
            assert not field.flags.writeable
            with pytest.raises(ValueError):
                field[0] = 1.0
        with pytest.raises(AttributeError):
            k.eta_x = np.zeros(8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        v = np.zeros(8)
        v[3] = bad
        with pytest.raises(NonFiniteError):
            TorusEmbedding(v, np.zeros(8))
        with pytest.raises(NonFiniteError):
            TorusEmbedding(np.zeros(8), v)

    def test_rejects_odd_sizes(self):
        # the grids are the dyadic grids of both solvers
        for n in (7, 12, 4, 48):
            with pytest.raises(ValueError):
                TorusEmbedding(np.zeros(n), np.zeros(n))

    def test_rejects_two_dimensions(self):
        with pytest.raises(ValueError):
            TorusEmbedding(np.zeros((2, 8)), np.zeros(8))
        with pytest.raises(ValueError):
            TorusEmbedding(np.zeros(8), np.zeros((2, 8)))

    def test_grid_mismatch_raises(self):
        with pytest.raises(ValueError):
            TorusEmbedding(np.zeros(8), np.zeros(16))
        with pytest.raises(ValueError):
            TorusEmbedding(np.zeros(16), np.zeros(8))


class TestFrameConstruction:
    def test_tangent_of_flat_circle(self):
        _, k, _ = integrable_frame(0.1)
        l = tangent(k)
        np.testing.assert_allclose(l[0], 1.0, atol=1e-13)
        np.testing.assert_allclose(l[1], 0.0, atol=1e-13)

    def test_tangent_block_equals_single_fields(self):
        # both derivatives of one block are bitwise the single-field
        # derivatives, read-only arrays that own their memory
        th = grid(128)
        k = TorusEmbedding(
            0.01 * np.sin(TWO_PI * th) + 0.002 * np.cos(TWO_PI * 64 * th),
            0.02 * np.cos(TWO_PI * 3 * th) + 0.003)
        lx, ly = tangent(k)
        same = lambda u, v: u.tobytes() == v.tobytes()
        assert same(lx, d_theta(k.eta_x) + 1.0)
        assert same(ly, d_theta(k.k_y))
        assert lx.base is None and ly.base is None
        assert not lx.flags.writeable and not ly.flags.writeable

    def test_normal0_is_unit_rotation_of_tangent(self):
        _, k, _ = integrable_frame(0.1)
        l = tangent(k)
        n0x, n0y, gram = normal0_values(*l)
        np.testing.assert_allclose(n0x, 0.0, atol=1e-13)
        np.testing.assert_allclose(n0y, 1.0, atol=1e-13)
        np.testing.assert_allclose(gram, 1.0, atol=1e-13)

    def test_torsion_closed_form(self):
        # on the flat circle the torsion is the constant -2*sigma*a
        a = 0.13
        _, k, dfk = integrable_frame(a)
        t0 = torsion_qp(k, dfk)[3]
        np.testing.assert_allclose(t0, -2.0 * SIGMA * a, atol=1e-13)

    def test_vartheta_solves_its_equation(self):
        x = grid(128)
        t0 = np.cos(TWO_PI * x) + 0.3 * np.sin(2 * TWO_PI * x)
        vth = vartheta_qp(t0, SIGMA, OMEGA)
        res = vth - SIGMA * shift(PeriodicScalar(vth), OMEGA).values + t0
        assert np.max(np.abs(res)) <= 1e-12

    def test_vartheta_owns_its_samples(self):
        # the in-place solve is returned, not copied, and matches the
        # one-row block form bit for bit
        x = grid(256)
        t0 = np.cos(TWO_PI * x) + 0.3 * np.sin(3 * TWO_PI * x)
        before = t0.copy()
        vth = vartheta_qp(t0, SIGMA, OMEGA)
        assert vth.base is None
        assert not vth.flags.writeable
        block = fourier.transform(-t0[None], fourier.linear_shift_spectra,
                                  1.0, SIGMA, OMEGA)
        assert vth.tobytes() == block[0].tobytes()
        assert t0.tobytes() == before.tobytes()

    def test_frame_identities_on_integrable_circle(self):
        a = 0.2
        _, k, dfk = integrable_frame(a)
        l, (n0x, n0y), _, t0 = torsion_qp(k, dfk)
        vth = vartheta_qp(t0, SIGMA, OMEGA)
        lx, ly = l
        nx, ny = normal_values(lx, ly, n0x, n0y, vth)
        det = lx * ny - ly * nx
        np.testing.assert_allclose(det, 1.0, atol=1e-12)
        # N = L*vartheta + N0 with constant vartheta = 2*sigma*a/(1-sigma)
        np.testing.assert_allclose(
            nx, 2.0 * SIGMA * a / (1.0 - SIGMA), atol=1e-12)

    def test_integrable_twists(self):
        # the solver's own twists on the flat circle: b_a = 2a, b_mu = 1
        a = 0.12
        fam, k, _ = integrable_frame(a)
        problem = QpProblem(fam, omega=OMEGA)
        ws = solver_qp._geometry(problem, k, a, OMEGA - a * a, 0.0)
        assert ws.b_a == pytest.approx(2.0 * a, abs=1e-12)
        assert ws.b_mu == pytest.approx(1.0, abs=1e-12)

    def test_min_angle_positive_and_decreasing_in_vartheta(self):
        x = grid(64)
        gram = np.ones(64)
        small = 0.1 * np.cos(TWO_PI * x)
        large = 10.0 * np.cos(TWO_PI * x)
        assert min_angle(small, gram) > min_angle(large, gram) > 0.0


class TestOneFrame:
    """Both solvers build the frame from frame's sample kernels."""

    def test_overflowing_gram_raises_nonfinite(self):
        # L_x ~ 2 pi 1e200 cos squares to inf, while N0 = Omega L / gram
        # stays finite: the gram's own wrap must report the blow-up
        th = grid(64)
        k = TorusEmbedding(1e200 * np.sin(TWO_PI * th), np.zeros(64))
        prob = QpProblem(StandardNonTwistMap(SIGMA, "symmetric"),
                         omega=OMEGA)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            solver_qp._frame_stage(
                prob, solver_qp._point(prob, k, 0.0, OMEGA, 0.5))

    @staticmethod
    def inline_torsion(n0x, n0y, n0x_f, n0y_f, dfk):
        """Reference torsion: N0(f)^T Omega DF N0, written out in full."""
        wx = dfk[0][0] * n0x + dfk[0][1] * n0y
        wy = dfk[1][0] * n0x + dfk[1][1] * n0y
        return n0y_f * wx - n0x_f * wy

    def test_both_solvers_take_t0_from_torsion0(self, monkeypatch):
        assert solver_qp.torsion0 is frame.torsion0
        assert solver_general.torsion0 is frame.torsion0
        calls, forms = [], []

        def counted(*args):
            out = frame.torsion0(*args)
            calls.append(out)
            forms.append((type(args[4]), args[4].shape))
            return out

        monkeypatch.setattr(solver_qp, "torsion0", counted)
        monkeypatch.setattr(solver_general, "torsion0", counted)

        # quasi-periodic frame stage: N0 composed with the shift by omega
        th = grid(128)
        fam = StandardNonTwistMap(SIGMA, "nonsymmetric")
        k = TorusEmbedding(0.01 * np.sin(TWO_PI * th),
                           0.02 * np.cos(TWO_PI * th) + 0.003)
        prob = QpProblem(fam, omega=OMEGA)
        ws = solver_qp._frame_stage(
            prob, solver_qp._point(prob, k, 0.013, 0.61, 0.9))
        assert len(calls) == 1
        lx, ly = ws.frame.l
        n0x, n0y, _ = normal0_values(lx, ly)
        n0_f = [shift(PeriodicScalar(c), OMEGA).values for c in (n0x, n0y)]
        t0 = self.inline_torsion(n0x, n0y, *n0_f, ws.dfk)
        assert calls[0].tobytes() == t0.tobytes()
        vth = vartheta_qp(t0, SIGMA, OMEGA)
        for got, want in zip(ws.frame.nvec,
                             normal_values(lx, ly, n0x, n0y, vth)):
            assert got.tobytes() == want.tobytes()

        # grid Newton step: N0 read through the Lagrange stencil of f
        par = ParamPoint(0.0, OMEGA, 0.1)
        fam = StandardNonTwistMap(SIGMA, "symmetric")
        n = 64
        th = grid(n)
        circle = TorusEmbedding(1e-3 * np.sin(TWO_PI * th),
                                1e-3 * np.cos(TWO_PI * th))
        f = induced_internal_map(circle, fam, par, order=6)
        solver_general.newton_step_general(circle, f, fam, par)
        assert len(calls) == 2
        res = solver_general._residual(circle, f, fam, par)
        lx = 1.0 + grid_derivative(circle.eta_x, 6)
        ly = grid_derivative(circle.k_y, 6)
        n0x, n0y, _ = normal0_values(lx, ly)
        t0 = self.inline_torsion(
            n0x, n0y, interp_apply(n0x, res.idx, res.w),
            interp_apply(n0y, res.idx, res.w),
            fam.jacobian(th + circle.eta_x, circle.k_y, par))
        assert calls[1].tobytes() == t0.tobytes()
        # one form of DF along the circle: the (2, 2, N) sample array
        assert forms == [(np.ndarray, (2, 2, 128)), (np.ndarray, (2, 2, n))]


def spectral_eval(values, q):
    """Trigonometric interpolant of grid samples, evaluated at points q."""
    n = values.size
    c = np.fft.rfft(values) / n
    modes = np.exp(TWO_PI * 1j * np.outer(q, np.arange(1, n // 2)))
    return (c[0].real + 2.0 * np.real(modes @ c[1:-1])
            + c[-1].real * np.cos(np.pi * n * q))


class TestVarthetaGeneral:
    def test_agrees_with_qp_on_rigid_rotation(self):
        # same equation when f is the rigid rotation, so the grid fixed
        # point must match the spectral solve
        n = 256
        x = grid(n)
        t0v = np.cos(TWO_PI * x) - 0.4 * np.sin(3 * TWO_PI * x) + 0.2
        vth_qp = vartheta_qp(t0v, SIGMA, OMEGA)
        idx, w = interp_stencil(n, x + OMEGA, 8)
        vth_gen, _ = vartheta_general(t0v, np.ones(n), SIGMA, idx, w)
        assert np.max(np.abs(vth_gen - vth_qp)) <= 1e-9

    def test_solves_functional_equation_for_warped_map(self):
        # f a diffeomorphism, not a rotation: check the defining relation
        # f'*vartheta - (sigma/f')*vartheta(f(.)) = -t0, with vartheta(f(.))
        # taken from the trigonometric interpolant, not the solver's stencil
        eps = 0.08
        n = 512
        x = grid(n)
        f = x + OMEGA + eps * np.sin(TWO_PI * x) / TWO_PI
        fp = 1.0 + eps * np.cos(TWO_PI * x)
        t0 = np.cos(TWO_PI * x)
        idx, w = interp_stencil(n, f, 6)
        vth, _ = vartheta_general(t0, fp, SIGMA, idx, w)
        res = fp * vth - (SIGMA / fp) * spectral_eval(vth, f) + t0
        assert np.max(np.abs(res)) <= 1e-11

    def test_non_contracting_transfer_raises(self):
        # b = 1 is neutral: the iterates drift and never settle
        n = 64
        idx, w = interp_stencil(n, grid(n) + OMEGA, 4)
        with pytest.raises(ContractionFailureError):
            solve_transfer(np.ones(n), np.ones(n), idx, w, SIGMA)


class TestConvergedCircleFrame:
    def test_adapted_frame_diagonalizes_on_converged_circle(self):
        fam = StandardNonTwistMap(SIGMA, "symmetric")
        prob = QpProblem(fam, omega=OMEGA, tol=1e-12, tol_phase=1e-12,
                         tol_twist=1e-11)
        start = QpState(TorusEmbedding.zero_section(128), 0.0, OMEGA, 0.4)
        state = newton_solve(prob, start)
        d = state.diagnostics
        assert d.invariance_error <= 1e-12
        assert d.reducibility_error <= 1e-9
        assert d.min_angle > 0.1
        assert abs(d.twist_mu - 1.0) < 0.2


class TestHalfShiftDeviation:
    @staticmethod
    def embedding(n=64):
        th = np.arange(n) / n
        return TorusEmbedding(
            0.01 * np.sin(TWO_PI * th) + 0.003 * np.cos(2 * TWO_PI * th),
            0.02 * np.cos(TWO_PI * th) + 0.004
            + 0.001 * np.sin(3 * TWO_PI * th),
        )

    def test_mirror_image(self):
        # the image S K(. + 1/2), S(x, y) = (x - 1/2, -y), is at distance
        # 0 from K; K itself is not, having even modes and a mean in y
        k = self.embedding()
        half = k.n // 2
        image = TorusEmbedding(np.roll(k.eta_x, -half),
                               -np.roll(k.k_y, -half))
        assert frame.half_shift_deviation(k, image) <= 1e-15
        assert frame.half_shift_deviation(image, k) <= 1e-15
        assert frame.half_shift_deviation(k) >= 0.006
        assert frame.half_shift_deviation(k, k) == frame.half_shift_deviation(k)
