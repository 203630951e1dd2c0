"""Quasi-periodic solver: closed forms, Newton behavior, continuation."""

import dataclasses
import gc
import math
import os
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from ntcircle import (
    GOLDEN_MEAN,
    ContinuationPolicy,
    ContinuationRecord,
    DivergenceError,
    NonFiniteError,
    NtCircleError,
    ParamPoint,
    PeriodicScalar,
    QpProblem,
    QpState,
    StandardNonTwistMap,
    TorusEmbedding,
    TwistDegeneracyError,
    ambient_rotation_number,
    breakdown_extrapolate,
    continue_in_eps,
    eps_derivative,
    fourier,
    newton_solve,
    solve_contractive,
    solve_small_divisor,
    solver_qp,
    tangent,
    torsion0,
    twist_surface,
)
from ntcircle.frame import normal0_values
from ntcircle.maps import Evaluation

SIGMA = 0.8
OMEGA = GOLDEN_MEAN


def sym_problem(**kw):
    fam = StandardNonTwistMap(SIGMA, "symmetric")
    return QpProblem(fam, omega=OMEGA, **kw)


def nonsym_problem(**kw):
    fam = StandardNonTwistMap(SIGMA, "nonsymmetric")
    return QpProblem(fam, omega=OMEGA, **kw)


def dealiased(v):
    """The 1/3 cut of the samples v, through the single-field call."""
    return fourier.dealias(PeriodicScalar(v)).values


def banded(v):
    """The samples v cut to the band of a Newton correction, as one row."""
    return fourier.transform(np.array(v, dtype=float),
                             solver_qp._correction_band)


def shifted(v, delta):
    """The samples v shifted by delta, through the single-field call."""
    return fourier.shift(PeriodicScalar(v), delta).values


def parameter_projections(prob, ws):
    """The four projections of D_a F and D_mu F, in their general form.

    The family's own d_a and d_mu at the point of ws, raw as the frame
    stage takes them, crossed with the shifted frame columns of ws:
    b_la and b_lm on N(. + omega), b_na and b_nm on L(. + omega).
    """
    k = ws.k
    par = ParamPoint(ws.a, ws.mu, ws.eps)
    dax, day = prob.family.d_a(k.x_lift(), k.k_y, par)
    dmx, dmy = prob.family.d_mu(k.x_lift(), k.k_y, par)
    nx_s, ny_s, lx_s, ly_s = ws.nx_s, ws.ny_s, ws.lx_s, ws.ly_s
    return dict(
        bla=ny_s * dax - nx_s * day,
        bna=-(ly_s * dax - lx_s * day),
        blm=ny_s * dmx - nx_s * dmy,
        bnm=-(ly_s * dmx - lx_s * dmy),
    )


def operator_solve(prob, ws, eta_l, eta_n, delta_a, phase):
    """The linear solve at one delta_a, in operator form, field by field.

    Each cohomological equation and each cut to the correction band runs
    on its own field; the parameter directions are the general
    projections of parameter_projections.
    """
    om = prob.omega
    b = parameter_projections(prob, ws)
    delta_mu = (float(np.mean(eta_l)) - ws.b_a * delta_a) / ws.b_mu
    xi_n = solve_contractive(PeriodicScalar(
        eta_n - b["bna"] * delta_a - b["bnm"] * delta_mu), SIGMA, om).values
    xi_l = solve_small_divisor(PeriodicScalar(
        eta_l - b["bla"] * delta_a - b["blm"] * delta_mu), om)[0].values
    lx, ly = ws.frame.l
    nx, ny = ws.frame.nvec
    xi_l = xi_l + (-phase - float(np.mean(lx * xi_l + nx * xi_n)))
    return (banded(lx * xi_l + nx * xi_n),
            banded(ly * xi_l + ny * xi_n), delta_mu)


# the basis of _solve_linear, combined at delta_a, against operator_solve:
# the combination reorders the rounding, so away from delta_a = 0 the two
# agree within AFFINE_TOL * max(1, sup) (measured: under 3e-16)
AFFINE_TOL = 1e-14


def assert_affine_matches(prob, ws, basis, eta_l, eta_n, phase, delta_a):
    d_eta, d_ky, d_mu = solver_qp._correction(basis, delta_a)
    want_eta, want_ky, want_mu = operator_solve(prob, ws, eta_l, eta_n,
                                                delta_a, phase)
    if delta_a == 0.0:
        # the delta_a = 0 rows are the operator form's, bit for bit
        assert d_mu == want_mu
        assert d_eta.tobytes() == want_eta.tobytes()
        assert d_ky.tobytes() == want_ky.tobytes()
        return
    assert abs(d_mu - want_mu) <= AFFINE_TOL * max(1.0, abs(want_mu))
    for got, want in ((d_eta, want_eta), (d_ky, want_ky)):
        assert np.max(np.abs(got - want)) <= (
            AFFINE_TOL * max(1.0, np.max(np.abs(want))))


class TestIntegrableClosedForm:
    """At eps = 0 the branch is known exactly for every twist level."""

    @pytest.mark.parametrize("b_a0", [0.0, 0.2, -0.2])
    def test_flat_solution(self, b_a0):
        prob = sym_problem(b_a0=b_a0, tol=1e-12)
        state = newton_solve(prob, QpState.flat_start(64, OMEGA, b_a0))
        a_exact = b_a0 / 2.0
        assert abs(state.a - a_exact) <= 1e-10
        assert abs(state.mu - (OMEGA - a_exact**2)) <= 1e-10
        assert np.max(np.abs(state.k.eta_x)) <= 1e-10
        assert np.max(np.abs(state.k.k_y)) <= 1e-10
        d = state.diagnostics
        assert abs(d.twist_a - b_a0) <= 1e-10
        assert abs(d.twist_mu - 1.0) <= 1e-10

    @pytest.mark.parametrize("b_a0", [0.0, -0.2])
    def test_perturbed_start_recovers(self, b_a0):
        # the phase, drift and twist closures pin the solution uniquely
        prob = sym_problem(b_a0=b_a0, tol=1e-12)
        start = QpState.flat_start(64, OMEGA, b_a0)
        bump = 1e-3 * np.sin(2.0 * np.pi * np.arange(64) / 64)
        k = TorusEmbedding(start.k.eta_x + bump, start.k.k_y - 0.5 * bump)
        state = newton_solve(
            prob, QpState(k, start.a + 2e-3, start.mu - 1e-3, 0.0)
        )
        assert abs(state.a - b_a0 / 2.0) <= 1e-10
        assert abs(state.mu - (OMEGA - (b_a0 / 2.0) ** 2)) <= 1e-10
        assert np.max(np.abs(state.k.k_y)) <= 1e-10


class TestNewtonBehavior:
    def test_deterministic(self):
        prob = sym_problem()
        start = QpState.flat_start(128, OMEGA)
        s1 = newton_solve(prob, QpState(start.k, start.a, start.mu, 0.7))
        s2 = newton_solve(prob, QpState(start.k, start.a, start.mu, 0.7))
        assert s1.a == s2.a and s1.mu == s2.mu
        assert np.array_equal(s1.k.eta_x, s2.k.eta_x)
        assert np.array_equal(s1.k.k_y, s2.k.k_y)

    def test_quadratic_decay(self):
        # error exponent of the converging tail of the iteration
        prob = sym_problem(tol=1e-13, tol_phase=1e-13, tol_twist=1e-12)
        start = QpState.flat_start(128, OMEGA)
        base = newton_solve(prob, QpState(start.k, start.a, start.mu, 0.5))
        th = np.arange(base.k.n) / base.k.n
        k = TorusEmbedding(
            base.k.eta_x + 3e-3 * np.sin(2 * np.pi * th),
            base.k.k_y + 3e-3 * np.cos(2 * np.pi * th),
        )
        state = newton_solve(prob, QpState(k, base.a, base.mu, 0.5))
        h = [e for e in state.history if e > 0]
        drops = [
            (math.log(h[i + 2] / h[i + 1]), math.log(h[i + 1] / h[i]))
            for i in range(len(h) - 2)
            if h[i + 1] < h[i] and h[i + 2] < h[i + 1] and h[i + 2] > 1e-14
        ]
        exponents = [a / b for a, b in drops if b < 0]
        assert exponents and max(exponents) >= 1.7

    def test_divergence_raises(self):
        prob = sym_problem()
        start = QpState.flat_start(64, OMEGA)
        with pytest.raises(NtCircleError):
            newton_solve(prob, QpState(start.k, start.a, start.mu, 5.0))

    def test_residuals_of_converged_state(self):
        prob = sym_problem(tol=1e-12)
        start = QpState.flat_start(128, OMEGA)
        state = newton_solve(prob, QpState(start.k, start.a, start.mu, 0.6))
        d = state.diagnostics
        assert d.invariance_error <= 1e-12
        assert abs(np.mean(state.k.eta_x)) <= 1e-11
        assert abs(d.twist_a - prob.b_a0) <= 1e-11

    def test_budget_stop_names_the_budget(self, monkeypatch):
        monkeypatch.setattr(solver_qp, "_FLOOR_FACTOR", 1.0)
        monkeypatch.setattr(solver_qp, "_MAX_NEWTON", 2)
        prob = sym_problem()
        start = QpState.flat_start(128, OMEGA)
        with pytest.raises(DivergenceError) as exc:
            newton_solve(prob, QpState(start.k, start.a, start.mu, 0.7))
        msg = str(exc.value)
        assert msg.startswith("no convergence in the budget of 2 iterations, "
                              f"best residual {exc.value.residual:.3e}; "
                              "last iterate residual ")
        assert "pumping" not in msg

    def test_blow_up_names_its_residual_and_has_no_floor(self, monkeypatch):
        # _complete runs on the start, then on every kept iterate; the
        # first kept iterate reports a residual 1e6 times the start's.  The
        # next pass stops on it: the message names that residual, and the
        # error carries a nan residual, which continue_in_eps never reads
        # as a floor
        prob = sym_problem()
        start = QpState.flat_start(128, OMEGA)
        complete = solver_qp._complete
        errs = []

        def blown(problem, ws):
            complete(problem, ws)
            if errs:
                ws.err = 1e6 * (errs[0] + problem.tol)
            errs.append(ws.err)
            return ws

        monkeypatch.setattr(solver_qp, "_complete", blown)
        with pytest.raises(DivergenceError) as exc:
            newton_solve(prob, QpState(start.k, start.a, start.mu, 0.7))
        assert len(errs) == 2
        assert str(exc.value) == (f"residual blew up to {errs[1]:.3e} "
                                  f"from {errs[0]:.3e}")
        assert math.isnan(exc.value.residual)

    def test_pumping_stop_names_the_guard(self, monkeypatch):
        # every kept iterate reports twice the start's residual: after
        # three stale iterations at twice the best the guard stops the
        # solve, well inside the budget
        prob = sym_problem()
        start = QpState.flat_start(128, OMEGA)
        complete, steffensen = solver_qp._complete, solver_qp.steffensen_update
        errs, iterations = [], []

        def stale(problem, ws):
            complete(problem, ws)
            if errs:
                ws.err = 2.0 * errs[0]
            errs.append(ws.err)
            return ws

        monkeypatch.setattr(solver_qp, "_complete", stale)
        monkeypatch.setattr(solver_qp, "steffensen_update",
                            lambda *a: iterations.append(1) or steffensen(*a))
        with pytest.raises(DivergenceError) as exc:
            newton_solve(prob, QpState(start.k, start.a, start.mu, 0.7))
        assert len(iterations) == 3 < solver_qp._MAX_NEWTON
        assert exc.value.residual == errs[0]
        assert str(exc.value).startswith(
            "residual stopped contracting (pumping) after 3 iterations, "
            f"best residual {errs[0]:.3e}; "
            f"last iterate residual {errs[-1]:.3e}, phase ")


class TestGap:
    """The gap: the residual's l1 mass between the correction band and the
    band it is measured on, which no correction can reach."""

    def test_gap_is_the_residual_mass_between_the_bands(self):
        _, ws = TestIterationCost.generic_workspace()
        n = ws.k.n
        mass = [np.abs(np.fft.rfft(e)[n // 4 + 1:n // 3 + 1]).sum()
                for e in (ws.ex, ws.ey)]
        assert ws.gap > 0.0
        assert ws.gap == pytest.approx(2.0 * max(mass) / n, rel=1e-9)

    def test_solve_stops_once_the_gap_holds_half_its_residual(self,
                                                            monkeypatch):
        # a tolerance far below the floor of N = 64: the solve stops on the
        # first closed iterate whose gap reaches half its residual, well
        # inside the budget, and accepts it in the floor window or names
        # the gap outside it
        start = QpState(TorusEmbedding.zero_section(64), 0.0, OMEGA, 0.3)
        complete = solver_qp._complete
        kept = []

        def recorded(problem, ws):
            complete(problem, ws)
            closed = (abs(ws.e_p) <= problem.tol_phase
                      and abs(ws.e_b) <= problem.tol_twist)
            kept.append((ws.k, ws.err, ws.gap, closed))
            return ws

        monkeypatch.setattr(solver_qp, "_complete", recorded)
        monkeypatch.setattr(solver_qp, "_FLOOR_FACTOR", 1e7)
        prob = nonsym_problem(tol=3e-15, tol_twist=3e-15)
        state = newton_solve(prob, start)
        k, err, gap, closed = kept[-1]
        assert state.k is k and state.iterations == len(kept) - 1
        assert state.iterations < solver_qp._MAX_NEWTON
        assert closed and prob.tol < err <= 2.0 * gap
        # no earlier closed iterate had a gap of half its residual
        assert not any(c and e <= 2.0 * g for _, e, g, c in kept[1:-1])
        kept.clear()
        monkeypatch.setattr(solver_qp, "_FLOOR_FACTOR", 1.0)
        with pytest.raises(DivergenceError) as exc:
            newton_solve(prob, start)
        assert str(exc.value).startswith(
            f"residual reached its gap after {len(kept) - 1} iterations, ")


class TestIterationCost:
    """Operation counts of one Newton solve; no timing involved."""

    # FFTs by part, at a generic point, one rfft and one irfft per block
    # of fields that are ready together: frame stage = 2 (the tangent
    # and its shift) + 2 (vartheta and its shift), the same at a probe
    # and at a kept point; residual = 2 (the compositions and the
    # embedding shifted); completion = 0; linear solve = 2 (both
    # cohomological equations) + 2 (both corrections cut to their band)
    FRAME, RESIDUAL, COMPLETE, SOLVE = 4, 2, 0, 4
    # one solve, affine in delta_a, serves the two probes and the step:
    # three frame stages and the kept point's residual, 18 FFTs
    PER_ITERATION = SOLVE + 3 * FRAME + RESIDUAL + COMPLETE
    # start projection and start geometry; the reducibility diagnostic
    # reads the shifted frame columns the workspace holds
    PER_SOLVE = 2 + RESIDUAL + FRAME + COMPLETE

    # a PeriodicScalar wraps the gram of each frame stage, and nothing
    # else does: the embeddings, every field of the workspace, every
    # intermediate and every derivative of the map are checked read-only
    # sample arrays, so a solve makes one wrap per tangent
    # a trial rejected on its residual: one residual block, no frame
    FFTS_REJECTED = RESIDUAL

    @staticmethod
    def counted(monkeypatch, prob, reject=()):
        """Count FFTs, wraps, map calls, frames and completions; tag probes.

        The residual calls whose index (0: the start) is in reject report
        a residual a million times too large, which damps their step.
        marks holds the FFT and tangent counts at the entry of each
        residual call.
        """
        c = dict(fft=0, wraps=0, evaluate=0, complete=0, tangent=0,
                 residual=0, steffensen=0, closed=0, probe_residual=0,
                 probe_complete=0, marks=[])

        def count(key, fn):
            def wrapped(*args, **kwargs):
                c[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(PeriodicScalar, "__init__",
                            count("wraps", PeriodicScalar.__init__))
        monkeypatch.setattr(np.fft, "rfft", count("fft", np.fft.rfft))
        monkeypatch.setattr(np.fft, "irfft", count("fft", np.fft.irfft))
        fam = prob.family
        monkeypatch.setattr(fam, "evaluate", count("evaluate", fam.evaluate))
        monkeypatch.setattr(solver_qp, "_complete",
                            count("complete", solver_qp._complete))
        monkeypatch.setattr(solver_qp, "tangent",
                            count("tangent", solver_qp.tangent))
        residual = solver_qp._residual

        def tracked(*args):
            c["marks"].append((c["fft"], c["tangent"]))
            out = residual(*args)
            if c["residual"] in reject:
                out.err *= 1e6
            c["residual"] += 1
            return out

        monkeypatch.setattr(solver_qp, "_residual", tracked)
        steffensen = solver_qp.steffensen_update

        def probed(*args):
            before = c["residual"], c["complete"]
            out = steffensen(*args)
            c["steffensen"] += 1
            c["closed"] += out[1] is not None
            c["probe_residual"] += c["residual"] - before[0]
            c["probe_complete"] += c["complete"] - before[1]
            return out

        monkeypatch.setattr(solver_qp, "steffensen_update", probed)
        return c

    def test_probes_skip_completion_and_fft_budget(self, monkeypatch):
        assert self.PER_ITERATION == 18
        prob = nonsym_problem()
        start = QpState.flat_start(256, OMEGA)
        c = self.counted(monkeypatch, prob)
        state = newton_solve(prob, QpState(start.k, start.a, start.mu, 0.5))
        iters = c["steffensen"]
        assert iters == state.iterations >= 3
        assert c["closed"] == 0          # the twist closure runs every time
        assert c["probe_residual"] == 0 and c["probe_complete"] == 0
        # one map evaluation per point, one residual and one completion
        # per point that is not a probe
        assert c["evaluate"] == 1 + 3 * iters
        assert c["residual"] == c["complete"] == 1 + iters
        assert c["tangent"] == 1 + 3 * iters
        assert c["fft"] == self.PER_SOLVE + iters * self.PER_ITERATION
        assert c["wraps"] == c["tangent"], c["wraps"]

    def test_rejected_trial_builds_no_frame(self, monkeypatch):
        # the full step of the second iteration is made to fail the
        # damping test; its half step is judged on its own residual
        prob = nonsym_problem()
        start = QpState.flat_start(256, OMEGA)
        c = self.counted(monkeypatch, prob, reject=(2,))
        state = newton_solve(prob, QpState(start.k, start.a, start.mu, 0.5))
        iters = c["steffensen"]
        assert iters == state.iterations >= 3
        assert state.diagnostics.invariance_error <= prob.tol
        rejected = c["residual"] - (1 + iters)
        assert rejected == 1
        # from the rejected trial's residual to the next trial's: one
        # residual block and no tangent
        (fft0, tan0), (fft1, tan1) = c["marks"][2:4]
        assert (fft1 - fft0, tan1 - tan0) == (self.FFTS_REJECTED, 0)
        # frame stages: two probes per iteration and every kept point
        assert c["tangent"] == 2 * iters + (1 + iters)
        assert c["evaluate"] == 1 + 3 * iters + rejected
        assert c["complete"] == 1 + iters
        assert c["fft"] == (self.PER_SOLVE + iters * self.PER_ITERATION
                            + rejected * self.FFTS_REJECTED)
        assert c["wraps"] == c["tangent"], c["wraps"]

    def test_closed_twist_completes_its_probe(self, monkeypatch):
        # odd forcing at b_a0 = 0: b_a vanishes by symmetry, so every
        # iteration finds the twist closed and reuses the zero probe
        prob = sym_problem()
        start = QpState.flat_start(256, OMEGA)
        c = self.counted(monkeypatch, prob)
        state = newton_solve(prob, QpState(start.k, start.a, start.mu, 0.5))
        iters = c["steffensen"]
        assert iters == state.iterations >= 3
        assert c["closed"] == iters
        assert c["probe_residual"] == 0
        # no second frame: one frame and one residual per step; the zero
        # probe's frame stage set the shifted frame its completion reads
        assert c["tangent"] == c["evaluate"] == c["residual"] == 1 + iters
        assert c["fft"] == self.PER_SOLVE + iters * (
            self.SOLVE + self.FRAME + self.RESIDUAL)

    @pytest.mark.parametrize("variant", ["symmetric", "nonsymmetric"])
    def test_frame_stage_twist_is_bitwise(self, variant):
        fam = StandardNonTwistMap(SIGMA, variant)
        prob = QpProblem(fam, omega=OMEGA, b_a0=0.1)
        th = np.arange(128) / 128
        k = TorusEmbedding(0.01 * np.sin(2 * np.pi * th),
                           0.02 * np.cos(2 * np.pi * th) + 0.003)
        args = (prob, k, 0.013, 0.61, 0.9)
        frame = solver_qp._frame_stage(prob, solver_qp._point(*args))
        full = solver_qp._geometry(*args)
        assert frame.b_a == full.b_a
        assert frame.alpha == full.alpha
        assert frame.e_b == full.e_b

    @staticmethod
    def generic_workspace():
        """Full geometry at a nonsymmetric point with no special values."""
        prob = nonsym_problem(b_a0=0.1)
        th = np.arange(128) / 128
        k = TorusEmbedding(
            0.01 * np.sin(2 * np.pi * th) + 0.004 * np.cos(6 * np.pi * th),
            0.02 * np.cos(2 * np.pi * th) + 0.003)
        return prob, solver_qp._geometry(prob, k, 0.013, 0.61, 0.9)

    def test_fused_fields_equal_operator_form(self, monkeypatch):
        # each field is computed on sample arrays and checked once; the
        # operator form, one single-field call per operator, must agree
        # bitwise
        prob, ws = self.generic_workspace()
        k, om = ws.k, OMEGA
        same = lambda u, v: u.tobytes() == v.tobytes()
        nx_s, ny_s, lx_s, ly_s, ex, ey = (
            ws.nx_s, ws.ny_s, ws.lx_s, ws.ly_s, ws.ex, ws.ey)
        par = ParamPoint(ws.a, ws.mu, ws.eps)
        fx_lift, fy = prob.family.eval_lift(k.x_lift(), k.k_y, par)
        fx, fy = dealiased(fx_lift - fourier.grid(k.n)), dealiased(fy)
        l, _ = tangent(k, om)
        n0 = normal0_values(*l)[:2]
        df = ws.dfk
        wx = df[0][0] * n0[0] + df[0][1] * n0[1]
        wy = df[1][0] * n0[0] + df[1][1] * n0[1]
        t0 = shifted(n0[1], om) * wx - shifted(n0[0], om) * wy
        got = torsion0(*n0, *(shifted(c, om) for c in n0), ws.dfk)
        assert got.tobytes() == t0.tobytes()
        expected = dict(
            ex=fx - om - shifted(k.eta_x, om),
            ey=fy - shifted(k.k_y, om),
            eta_l=-(ny_s * ex - nx_s * ey),
            eta_n=ly_s * ex - lx_s * ey,
        )
        for name, want in expected.items():
            assert same(getattr(ws, name), want), name
            assert not getattr(ws, name).flags.writeable, name

        # the parameter directions in their general form, from the
        # family's own D_a F and D_mu F, give b_la and b_mu, and the rows
        # of the linear solve bit for bit: the solver's reduced rows
        # drop only exact zeros and unit factors
        b = parameter_projections(prob, ws)
        assert same(ws.bla, b["bla"]) and not ws.bla.flags.writeable
        assert ws.b_mu == float(np.mean(b["blm"]))
        eta_l, eta_n = ws.eta_l, ws.eta_n
        mu0 = float(np.mean(eta_l)) / ws.b_mu
        mu1 = -ws.b_a / ws.b_mu
        want_rows = (eta_n - b["bnm"] * mu0, -b["bna"] - b["bnm"] * mu1,
                     eta_l - b["blm"] * mu0, -b["bla"] - b["blm"] * mu1)
        blocks, spectra = [], fourier.spectra
        monkeypatch.setattr(fourier, "spectra",
                            lambda v: blocks.append(v.copy()) or spectra(v))
        # one solve gives the correction for every delta_a
        basis = solver_qp._solve_linear(prob, ws,
                                        (ws.eta_l, ws.eta_n, ws.e_p),
                                        a_column(ws))
        monkeypatch.setattr(fourier, "spectra", spectra)
        assert len(blocks[0]) == len(want_rows)
        for row, want in zip(blocks[0], want_rows):
            assert same(row, want)
        for delta_a in (0.0, 0.003, -0.05, 0.7):
            assert_affine_matches(prob, ws, basis, ws.eta_l, ws.eta_n,
                                  ws.e_p, delta_a)

        t, delta_a = 0.5, 0.003
        (e0, y0, mu0), (e1, y1, mu1) = basis
        assert not any(r.flags.writeable for r in (e0, y0, e1, y1))
        cand = solver_qp._candidate(
            prob, ws, solver_qp._correction(basis, delta_a), delta_a, t)
        assert same(cand.k.eta_x, k.eta_x + t * (e0 + delta_a * e1))
        assert same(cand.k.k_y, k.k_y + t * (y0 + delta_a * y1))
        assert cand.a == ws.a + t * delta_a
        assert cand.mu == ws.mu + t * (mu0 + delta_a * mu1)

    def test_overflowed_projection_raises_from_complete(self, monkeypatch):
        # a completion formula is checked on its result: finite operands
        # whose product overflows raise from the call that makes the
        # field.  E at the largest finite double times L_x(. + omega) > 1
        # overflows in eta_n
        big = np.full(128, np.finfo(float).max)
        prob, ref = self.generic_workspace()
        assert np.max(ref.lx_s) > 1.0
        ws = solver_qp._frame_stage(prob, solver_qp._residual(
            prob, solver_qp._point(prob, ref.k, ref.a, ref.mu, ref.eps)))
        ws.ex, ws.ey = big, big
        residual = solver_qp._residual

        def inflated(problem, ws):
            residual(problem, ws)
            ws.ex, ws.ey = big, big
            return ws

        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError):
                solver_qp._complete(prob, ws)
            monkeypatch.setattr(solver_qp, "_residual", inflated)
            with pytest.raises(NonFiniteError):
                solver_qp._geometry(prob, ref.k, ref.a, ref.mu, ref.eps)

    def test_every_frame_stage_sets_its_shifted_frame(self, monkeypatch):
        # a probe and a kept point run one frame stage: two transform
        # pairs, the tangent with its shift (one rfft of K's two rows, one
        # irfft of four) and vartheta with its shift (one rfft of -t0, one
        # irfft of two), and every frame stage sets N(. + omega) and
        # L(. + omega); the residual block is K and the composition alone
        prob, ref = self.generic_workspace()
        calls = []

        def rows_of(kind, fft):
            def counted(a, *args, **kwargs):
                calls.append((kind, len(a)))
                return fft(a, *args, **kwargs)
            return counted

        monkeypatch.setattr(np.fft, "rfft", rows_of("rfft", np.fft.rfft))
        monkeypatch.setattr(np.fft, "irfft", rows_of("irfft", np.fft.irfft))
        point = (prob, ref.k, ref.a, ref.mu, ref.eps)
        probe = solver_qp._frame_stage(prob, solver_qp._point(*point))
        assert calls == [("rfft", 2), ("irfft", 4), ("rfft", 1),
                         ("irfft", 2)]
        assert probe.b_a == ref.b_a
        for name in ("nx_s", "ny_s", "lx_s", "ly_s"):
            assert getattr(probe, name).tobytes() == (
                getattr(ref, name).tobytes()), name
        calls.clear()
        reused = solver_qp._complete(prob, solver_qp._residual(prob, probe))
        assert calls == [("rfft", 4), ("irfft", 4)]
        calls.clear()
        solver_qp._geometry(*point)
        assert calls == [("rfft", 4), ("irfft", 4), ("rfft", 2),
                         ("irfft", 4), ("rfft", 1), ("irfft", 2)]
        for name in ("nx_s", "ny_s", "lx_s", "ly_s", "bla", "eta_l",
                     "eta_n"):
            assert getattr(reused, name).tobytes() == (
                getattr(ref, name).tobytes()), name
        assert reused.b_mu == ref.b_mu

    def test_derivative_block_equals_single_fields(self):
        # the frame stage's tangent is bitwise the single-field
        # derivatives, and its DF and D_a F_x sample arrays are the map's
        # own derivatives, uncut; DF keeps the (2, 2, N) form, and of
        # D_a F only the x row is kept
        prob, ws = self.generic_workspace()
        k = ws.k
        same = lambda u, v: u.tobytes() == v.tobytes()
        par = ParamPoint(ws.a, ws.mu, ws.eps)
        jac = prob.family.jacobian(k.x_lift(), k.k_y, par)
        dax = prob.family.d_a(k.x_lift(), k.k_y, par)[0]
        lx, ly = ws.frame.l
        d_theta = lambda u: fourier.transform(u.copy(),
                                              fourier.derivative_spectra)
        assert same(lx, d_theta(k.eta_x) + 1.0)
        assert same(ly, d_theta(k.k_y))
        assert type(ws.dfk) is np.ndarray and ws.dfk.shape == (2, 2, k.n)
        for i in (0, 1):
            for j in (0, 1):
                assert same(ws.dfk[i, j], jac[i, j]), (i, j)
        assert ws.d_a.shape == (k.n,)
        assert same(ws.d_a, dax)

    def test_workspace_fields_own_their_memory(self):
        # a field or sample array that is a view would pin the whole
        # array behind it, such as the tangent's block
        _, ws = self.generic_workspace()

        def arrays(obj):
            if isinstance(obj, PeriodicScalar):
                yield obj, obj.values
            elif isinstance(obj, np.ndarray):
                yield None, obj
            elif isinstance(obj, tuple):
                for o in obj:
                    yield from arrays(o)
            elif dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    yield from arrays(getattr(obj, f.name))
            elif isinstance(obj, Evaluation):
                for name in Evaluation.__slots__:
                    yield from arrays(getattr(obj, name))

        found = [a for name in solver_qp.NewtonWorkspace.__slots__
                 for a in arrays(getattr(ws, name))]
        fields = [u for u, _ in found if u is not None]
        samples = [v for u, v in found if u is None]
        # the gram is the workspace's only wrapped field
        assert len(fields) == 1
        # the other 15 fields are checked read-only samples: K, the
        # frame's L and N, the shifted L and N, E, eta and b_la
        checked = [ws.k.eta_x, ws.k.k_y, *ws.frame.l, *ws.frame.nvec] + [
            getattr(ws, name) for name in ("nx_s", "ny_s", "lx_s", "ly_s",
                                           "ex", "ey", "eta_l", "eta_n",
                                           "bla")]
        assert all(any(v is w for w in samples) for v in checked)
        assert not any(v.flags.writeable for v in checked)
        # besides them DF, D_a F_x and the evaluation's x, s, p(x) and q
        assert sorted(v.shape for v in samples) == [(2, 2, 128)] + [(128,)] * 20
        assert all(v.base is None for _, v in found)
        # nor is any of them the spectra buffer of the grid, which the
        # next transform overwrites
        buffer = fourier.spectra(np.zeros((6, ws.k.n)))
        assert not any(np.shares_memory(v, buffer) for _, v in found)

    def test_diagnostics_reuse_workspace_shifts(self, monkeypatch):
        prob = nonsym_problem()
        start = QpState.flat_start(256, OMEGA)
        state = newton_solve(prob, QpState(start.k, start.a, start.mu, 0.5))
        ws = solver_qp._geometry(prob, state.k, state.a, state.mu, state.eps)
        c = self.counted(monkeypatch, prob)
        diag = solver_qp._diagnostics(ws)
        assert c["fft"] == 0
        # the frame's own residual DF P - P(. + omega) diag(1, sigma), on
        # the shifted frame the workspace holds; the spectral shift of the
        # frame's samples reads the same defect to rounding
        cols, spectral = [], []
        df = ws.dfk
        for pair, pair_s, mult in (
                (ws.frame.l, (ws.lx_s, ws.ly_s), 1.0),
                (ws.frame.nvec, (ws.nx_s, ws.ny_s), ws.frame.sigma)):
            vx, vy = pair
            for row, v, v_s in zip((0, 1), pair, pair_s):
                image = df[row][0] * vx + df[row][1] * vy
                cols.append(float(np.max(np.abs(image - mult * v_s))))
                spectral.append(float(np.max(np.abs(
                    image - mult * shifted(v, OMEGA)))))
        assert diag.reducibility_error == max(cols)
        assert abs(max(spectral) - max(cols)) <= 1e-14


def real_workspace(variant, n):
    """The solver's full workspace at a generic point on n nodes."""
    prob = QpProblem(StandardNonTwistMap(SIGMA, variant), omega=OMEGA,
                     b_a0=0.1)
    th = fourier.grid(n)
    k = TorusEmbedding(
        0.01 * np.sin(2 * np.pi * th) + 0.004 * np.cos(6 * np.pi * th)
        + 0.002,
        0.02 * np.cos(2 * np.pi * th) + 0.001 * np.sin(10 * np.pi * th)
        + 0.003)
    return prob, solver_qp._geometry(prob, k, 0.013, 0.61, 0.9)


def reference_solve_linear(problem, ws, *columns):
    """_solve_linear written with np.stack and np.mean, as it once was,
    on the correction band the solver cuts its corrections to."""
    om, sig = problem.omega, problem.family.sigma
    k = len(columns)
    mus = [float(np.mean(eta_l)) / ws.b_mu for eta_l, _, _ in columns]
    ly, ny = ws.ly_s, ws.ny_s
    rows = np.stack(
        [eta_n + ly * mu for (_, eta_n, _), mu in zip(columns, mus)]
        + [eta_l - ny * mu for (eta_l, _, _), mu in zip(columns, mus)])
    half = fourier.spectra(rows)
    fourier.linear_shift_spectra(half[:k], sig, 1.0, om)
    fourier.small_divisor_spectra(half[k:], om)
    xi = fourier.samples(half, rows)
    lx, ly = ws.frame.l
    nx, ny = ws.frame.nvec
    out = []
    for xi_n, xi_l, (_, _, phase) in zip(xi[:k], xi[k:], columns):
        xi_l = xi_l + (-phase - float(np.mean(lx * xi_l + nx * xi_n)))
        out += [lx * xi_l + nx * xi_n, ly * xi_l + ny * xi_n]
    fields = fourier.transform(np.stack(out), solver_qp._correction_band)
    return [(fields[2 * i], fields[2 * i + 1], mu)
            for i, mu in enumerate(mus)]


def a_column(ws):
    """The D_a F column in its general form: -P(theta+omega)^{-1} D_a F,
    D_a F = (D_a F_x, 0), with no phase."""
    return -ws.ny_s * ws.d_a, ws.ly_s * ws.d_a, 0.0


def eps_column(ws):
    """The D_eps F column of eps_derivative: its cut rows projected as
    the residual is, with no phase."""
    ex, ey = fourier.transform(np.array(ws.ev.d_eps()), fourier.cut_spectra)
    return (*solver_qp._projections(ws, ex, ey), 0.0)


REAL_POINTS = [(v, n) for v in ("symmetric", "nonsymmetric")
               for n in (64, 1024)]


class TestPerCallForms:
    """The undispatched reductions and block builds of the solver are the
    numpy forms they replace, bit for bit, on real workspaces."""

    @pytest.mark.parametrize("variant,n", REAL_POINTS)
    def test_reductions_equal_numpy_forms(self, variant, n):
        _, ws = real_workspace(variant, n)
        assert ws.b_a == float(np.mean(ws.bla))
        assert ws.b_mu == float(np.mean(ws.ny_s))
        assert ws.e_p == float(np.mean(ws.k.eta_x)) != 0.0
        assert ws.err == max(float(np.max(np.abs(ws.ex))),
                             float(np.max(np.abs(ws.ey))))
        for v in (ws.eta_l, ws.eta_n, ws.bla, ws.ex, ws.ny_s * ws.ex):
            assert solver_qp._mean(v) == float(np.mean(v))

    @pytest.mark.parametrize("variant,n", REAL_POINTS)
    def test_linear_solve_equals_reference_form(self, variant, n):
        prob, ws = real_workspace(variant, n)
        for phase in (ws.e_p, 0.0):
            got = solver_qp._solve_linear(prob, ws,
                                          (ws.eta_l, ws.eta_n, phase),
                                          a_column(ws))
            want = reference_solve_linear(prob, ws,
                                          (ws.eta_l, ws.eta_n, phase),
                                          a_column(ws))
            assert got[0][2] == want[0][2] == (
                float(np.mean(ws.eta_l)) / ws.b_mu)
            assert got[1][2] == want[1][2] == -ws.b_a / ws.b_mu
            for g, w in zip(got[0][:2] + got[1][:2],
                            want[0][:2] + want[1][:2]):
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("variant,n", REAL_POINTS)
    def test_blocks_equal_stack(self, variant, n):
        _, ws = real_workspace(variant, n)
        dfk = ws.dfk
        for rows in ((*ws.ev.lift(), ws.frame.nvec[0], *ws.frame.l,
                      ws.k.eta_x, ws.k.k_y),
                     (ws.k.eta_x, ws.k.k_y, dfk[0, 0], dfk[0, 1],
                      dfk[1, 0], ws.d_a),
                     ws.frame.nvec[1:], ws.ev.d_eps()):
            got, want = np.array(rows), np.stack(rows)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.flags.c_contiguous and got.base is None
            assert got.tobytes() == want.tobytes()
            assert not any(np.shares_memory(got, r) for r in rows)

    @pytest.mark.parametrize("names", [solver_qp._POINT, solver_qp._LINEAR,
                                       solver_qp._POINT + ("b_a",)])
    def test_keep_only_drops_exactly_the_rest(self, names):
        _, ws = real_workspace("nonsymmetric", 64)
        slots = solver_qp.NewtonWorkspace.__slots__
        before = {name: getattr(ws, name) for name in slots}
        assert not any(v is None for v in before.values())
        ws.keep_only(names)
        for name in slots:
            want = before[name] if name in names else None
            assert getattr(ws, name) is want, name
        # a second call drops nothing more
        ws.keep_only(names)
        assert all((getattr(ws, name) is None) == (name not in names)
                   for name in slots)

    def test_candidate_scans_each_field_once(self, monkeypatch):
        prob, ws = real_workspace("nonsymmetric", 64)
        basis = solver_qp._solve_linear(prob, ws,
                                        (ws.eta_l, ws.eta_n, ws.e_p),
                                        a_column(ws))
        seen = []
        check = fourier.checked
        counted = lambda v: seen.append(v) or check(v)
        monkeypatch.setattr(fourier, "checked", counted)
        monkeypatch.setattr(solver_qp, "checked", counted)
        for t in (1.0, 0.5):
            seen.clear()
            cand = solver_qp._candidate(
                prob, ws, solver_qp._correction(basis, 0.003), 0.003, t)
            for field in (cand.k.eta_x, cand.k.k_y):
                assert sum(v is field for v in seen) == 1
                assert not field.flags.writeable and field.base is None

    @pytest.mark.parametrize("row", [0, 1])
    def test_nan_correction_raises_from_candidate(self, row):
        prob, ws = real_workspace("symmetric", 64)
        step = [np.zeros(64), np.zeros(64), 0.0]
        step[row][7] = np.nan
        with pytest.raises(NonFiniteError):
            solver_qp._candidate(prob, ws, tuple(step), 0.0, 0.5)


class TestLinearColumns:
    """_solve_linear solves each column on its own: a column's correction
    is the same bits alone as beside another, and the eps-derivative is
    its two columns combined at the caller's rate of a."""

    @pytest.mark.parametrize("variant,n", REAL_POINTS + [
        ("nonsymmetric", fourier.SPLIT_MIN)])
    def test_one_column_equals_its_place_in_two(self, variant, n):
        prob, ws = real_workspace(variant, n)
        residual = (ws.eta_l, ws.eta_n, ws.e_p)
        rate = a_column(ws)
        eps = eps_column(ws)
        for pair in ((residual, rate), (eps, rate), (rate, eps)):
            both = solver_qp._solve_linear(prob, ws, *pair)
            assert len(both) == 2
            for column, got in zip(pair, both):
                alone, = solver_qp._solve_linear(prob, ws, column)
                assert got[2] == alone[2]
                for g, w in zip(got[:2], alone[:2]):
                    assert g.tobytes() == w.tobytes()
                    assert not g.flags.writeable

    @pytest.mark.parametrize("variant,n", REAL_POINTS)
    def test_basis_is_the_residual_and_d_a_f_columns(self, variant, n):
        prob, ws = real_workspace(variant, n)
        _, own = real_workspace(variant, n)
        want = solver_qp._solve_linear(
            prob, own, (own.eta_l, own.eta_n, own.e_p), a_column(own))
        got = solver_qp._basis(prob, ws, (ws.eta_l, ws.eta_n, ws.e_p))
        for g, w in zip(got, want):
            assert g[2] == w[2]
            assert g[0].tobytes() == w[0].tobytes()
            assert g[1].tobytes() == w[1].tobytes()
        # the workspace keeps only its point
        for name in solver_qp.NewtonWorkspace.__slots__:
            assert (getattr(ws, name) is None) == (name not in solver_qp._POINT)

    @pytest.mark.parametrize("variant,n", REAL_POINTS)
    def test_eps_derivative_combines_its_columns(self, variant, n):
        prob, ws = real_workspace(variant, n)
        (e_eps, y_eps, mu_eps), = solver_qp._solve_linear(
            prob, ws, eps_column(ws))
        (e_a, y_a, mu_a), = solver_qp._solve_linear(
            prob, ws, a_column(ws))
        state = QpState(ws.k, ws.a, ws.mu, ws.eps)
        for d_a in (0.0, 1e-3, -0.1):
            der = eps_derivative(prob, state, d_a=d_a)
            assert der.d_a == d_a
            assert der.d_mu == mu_eps + d_a * mu_a
            assert der.d_eta_x.tobytes() == (e_eps + d_a * e_a).tobytes()
            assert der.d_ky.tobytes() == (y_eps + d_a * y_a).tobytes()


class TestContinuation:
    def test_predictions_are_scanned_once(self, monkeypatch):
        # a tangent prediction K + d*K' is adopted by its embedding,
        # which makes the one finiteness scan of each field
        seen, scans, ders = [], [], []
        check = fourier.checked
        counted = lambda v: seen.append(v) or check(v)
        monkeypatch.setattr(fourier, "checked", counted)
        monkeypatch.setattr(solver_qp, "checked", counted)
        solve, derivative = solver_qp.newton_solve, solver_qp.eps_derivative

        def entered(problem, st, out=None):
            scans.extend(sum(v is f for v in seen)
                         for f in (st.k.eta_x, st.k.k_y))
            return solve(problem, st, out)

        monkeypatch.setattr(solver_qp, "newton_solve", entered)
        monkeypatch.setattr(solver_qp, "eps_derivative",
                            lambda *a: ders.append(1) or derivative(*a))
        res = continue_in_eps(nonsym_problem(),
                              QpState.flat_start(64, OMEGA), 0.3)
        assert res.reason == "target"
        assert len(ders) >= 3 and len(scans) > 2 * len(ders)
        assert set(scans) == {1}

    def test_march_to_moderate_eps(self):
        prob = sym_problem()
        res = continue_in_eps(prob, QpState.flat_start(64, OMEGA), 1.0)
        assert res.reason == "target"
        eps_seq = [r.eps for r in res.records]
        assert eps_seq == sorted(eps_seq)
        assert abs(res.state.eps - 1.0) < 1e-12
        assert res.state.diagnostics.invariance_error <= prob.tol
        # bundle angle shrinks as the forcing grows
        assert res.records[-1].alpha < res.records[0].alpha
        # timing is off by default so reruns are byte-identical
        assert all(r.wall_ms == 0.0 for r in res.records)

    def test_timing_fills_wall_ms_alone(self):
        # timing measures each record's step; every other field of every
        # record is the timing-off run's, bit for bit
        prob = nonsym_problem()
        start = QpState.flat_start(64, OMEGA)
        off = continue_in_eps(prob, start, 0.5)
        on = continue_in_eps(prob, start, 0.5, ContinuationPolicy(timing=True))
        assert on.reason == off.reason == "target"
        assert len(on.records) == len(off.records) > 2
        for r_on, r_off in zip(on.records, off.records):
            assert r_on.wall_ms > 0.0
            # repr spells each float exactly, signed zeros included
            assert repr(replace(r_on, wall_ms=0.0)) == repr(r_off)

    def test_nonsymmetric_branch_drifts_in_a(self):
        prob = nonsym_problem(tol_twist=1e-11)
        res = continue_in_eps(prob, QpState.flat_start(64, OMEGA), 0.8)
        assert res.reason == "target"
        assert res.state.a != 0.0
        assert abs(res.state.diagnostics.twist_a) <= 1e-9

    def test_grid_cap_stops_on_n_max(self):
        # the symmetric branch outgrows N = 64 on its way to eps = 3: the
        # step that asks for a finer level stops the run, with the last
        # accepted state
        prob = sym_problem(n_max=64)
        res = continue_in_eps(prob, QpState.flat_start(64, OMEGA), 3.0)
        assert res.reason == "n-max"
        assert res.state.eps < 3.0 and res.state.k.n == 64
        assert res.state is not None and res.records[-1].eps == res.state.eps

    def test_first_state_stops_on_n_max(self, monkeypatch):
        # the first step asks for a finer level above n_max, by its floor
        # far above tol: the residual it settles on, or the best residual
        # of a failure.  The run stops on n-max at once, on the first
        # state, which is not re-solved
        prob = sym_problem(n_max=64)
        solve = solver_qp.newton_solve
        start = QpState.flat_start(64, OMEGA)
        for floor in ("settled", "failure"):
            calls = []

            def first_step_regrids(problem, st, out=None):
                calls.append(st.eps)
                new = solve(problem, st, out)
                if len(calls) == 1:
                    return new
                if floor == "failure":
                    raise DivergenceError("injected", residual=1e-6)
                return replace(new, diagnostics=replace(
                    new.diagnostics, invariance_error=1.0))

            monkeypatch.setattr(solver_qp, "newton_solve", first_step_regrids)
            res = continue_in_eps(
                prob, QpState(start.k, start.a, start.mu, 0.5), 3.0)
            assert res.reason == "n-max" and len(res.records) == 1, floor
            assert res.state.k.n == 64 and res.records[0].eps == 0.5
            assert len(calls) == 2

    @pytest.mark.parametrize("floor", [solver_qp._LEVEL_SUSPECT, math.nan],
                             ids=["floor-at-the-bound", "blow-up"])
    def test_failure_without_a_high_floor_halves_the_step(self, monkeypatch,
                                                          floor):
        # a failure whose best residual is at most _LEVEL_SUSPECT * tol,
        # or a blow-up, which has no floor, is a step problem: the step
        # is halved on the same grid and no finer level is tried
        prob = sym_problem(n_max=512)
        solve = solver_qp.newton_solve
        start = QpState.flat_start(64, OMEGA)
        calls = []

        def second_solve_fails(problem, st, out=None):
            calls.append((st.k.n, st.eps))
            if len(calls) == 2:
                raise DivergenceError("injected",
                                      residual=floor * problem.tol)
            return solve(problem, st, out)

        monkeypatch.setattr(solver_qp, "newton_solve", second_solve_fails)
        res = continue_in_eps(
            prob, QpState(start.k, start.a, start.mu, 0.5), 0.6,
            ContinuationPolicy(step_init=0.05))
        assert calls[:3] == [(64, 0.5), (64, 0.55), (64, 0.525)]
        assert res.reason == "target" and res.state.k.n == 64

    def test_grid_stays_when_no_level_converges(self, monkeypatch):
        # a step that settles far above tol is solved again on the finer
        # levels.  A level that refuses with a floor above the bound hands
        # the step on to the next, up to n_max; one that refuses with no
        # floor (a best residual above 1e-3), or with a floor within the
        # bound (phase or twist left open at a residual below tol), ends
        # the regrid.  No level converges, so the step's own state is
        # kept as is
        prob = sym_problem(n_max=512)
        start = QpState.flat_start(64, OMEGA)
        first = QpState(start.k, start.a, start.mu, 0.45)
        solve = solver_qp.newton_solve
        for residual, tried in ((1e-6, [128, 256, 512]), (1.0, [128]),
                                (0.5 * prob.tol, [128])):
            kept, levels = [], []

            def refuse_finer(problem, st, out=None):
                if st.k.n == 64:
                    new = solve(problem, st, out)
                    if kept:    # the step: its floor looks suspect
                        new = replace(new, diagnostics=replace(
                            new.diagnostics, invariance_error=1e-6))
                    kept.append((new, out, len(out)))
                    return new
                levels.append((st.k.n, out, len(out)))
                raise DivergenceError("injected", residual=residual)

            monkeypatch.setattr(solver_qp, "newton_solve", refuse_finer)
            res = continue_in_eps(prob, first, 0.5,
                                  ContinuationPolicy(step_init=0.05))
            (_, out, _), (state, _, held) = kept
            assert levels == [(n, out, 0) for n in tried], residual
            assert res.reason == "target" and res.state is state
            assert [r.n for r in res.records] == [64, 64]
            # the state's workspace went before the first finer solve
            assert held == 1

    def test_rebuild_skips_a_refused_level(self, monkeypatch):
        # a level that refuses with a floor is skipped, not the end of the
        # regrid: 2N refuses, 4N converges, and the continuation records
        # the step on 4N
        prob = sym_problem(n_max=512)
        start = QpState.flat_start(64, OMEGA)
        state = newton_solve(prob, QpState(start.k, start.a, start.mu, 1.0))
        assert state.k.n == 64
        solve = solver_qp.newton_solve
        levels = []

        def refuse_128(problem, st, out=None):
            levels.append(st.k.n)
            if st.k.n == 128:
                raise DivergenceError("injected", residual=1e-6)
            new = solve(problem, st, out)
            if st.k.n == 64 and st.eps > 1.0:
                # the step on 64 settles far above tol: regrid
                new = replace(new, diagnostics=replace(
                    new.diagnostics, invariance_error=1e-6))
            return new

        monkeypatch.setattr(solver_qp, "newton_solve", refuse_128)
        res = continue_in_eps(prob, state, 1.05,
                              ContinuationPolicy(step_init=0.05))
        # the start, its step, the refused and the taken level
        assert levels == [64, 64, 128, 256]
        assert res.reason == "target" and res.state.k.n == 256
        assert [r.n for r in res.records] == [64, 256]
        assert res.state.eps == 1.05
        assert res.state.diagnostics.invariance_error <= prob.tol

    def test_suspect_step_is_solved_again_from_its_own_state(self,
                                                             monkeypatch):
        # nested iteration: a step that settles far above tol on N is
        # solved again on 2N from the state it settled on, at its eps, with
        # no predictor between the two solves
        prob = sym_problem(n_max=512)
        solve, derive = solver_qp.newton_solve, solver_qp.eps_derivative
        calls = []

        def suspect_step(problem, st, out=None):
            new = solve(problem, st, out)
            if st.eps > 0.0 and st.k.n == 64:
                new = replace(new, diagnostics=replace(
                    new.diagnostics, invariance_error=1e-6))
            calls.append((st, new))
            return new

        monkeypatch.setattr(solver_qp, "newton_solve", suspect_step)
        monkeypatch.setattr(solver_qp, "eps_derivative",
                            lambda *a: calls.append(None) or derive(*a))
        res = continue_in_eps(prob, QpState.flat_start(64, OMEGA), 0.05,
                              ContinuationPolicy(step_init=0.05))
        assert res.reason == "target"
        # the start, the predictor, the step and the step again
        assert len(calls) == 4 and calls[1] is None
        (_, new), (finer, _) = calls[2:]
        assert new.k.n == 64 and finer.k.n == 128
        assert finer.eps == new.eps == 0.05
        assert (finer.a, finer.mu) == (new.a, new.mu)
        want = new.k.resample(128)
        assert finer.k.eta_x.tobytes() == want.eta_x.tobytes()
        assert finer.k.k_y.tobytes() == want.k_y.tobytes()
        assert [r.n for r in res.records] == [64, 128]

    def test_no_workspace_outlives_its_predictor(self, monkeypatch):
        # the predictor reads the converged workspace; none may be alive
        # when a later solve starts (it would hold some thirty fields of
        # the grid through every regrid).  The regrids are those the
        # branch asks for on its way to N = 512, and one step whose
        # accepted floor is made to look suspect
        prob = nonsym_problem()
        solve = solver_qp.newton_solve
        alive, grids = [], []

        def counted(problem, st, out=None):
            alive.append(sum(isinstance(o, solver_qp.NewtonWorkspace)
                             for o in gc.get_objects()))
            grids.append(st.k.n)
            new = solve(problem, st, out)
            if len(alive) == 4:
                new = replace(new, diagnostics=replace(
                    new.diagnostics, invariance_error=1.0))
            return new

        gc.collect()
        monkeypatch.setattr(solver_qp, "newton_solve", counted)
        res = continue_in_eps(prob, QpState.flat_start(64, OMEGA), 1.0)
        assert res.reason == "target" and res.state.k.n == 512
        assert grids[4] == 2 * grids[3]     # the suspect step regridded
        assert len(alive) > 10 and alive == [0] * len(alive)

    def test_probes_run_beside_points_only(self, monkeypatch):
        # a Steffensen probe runs beside workspaces that keep no map
        # evaluation, DF or frame: an iterate keeps little more than its
        # point once its linear solve is built.  The predictor takes its
        # rate of a from the records and runs no frame stage
        prob = nonsym_problem()
        live = weakref.WeakSet()
        frame_stage = solver_qp._frame_stage
        probing, seen = [], []

        class Tracked(solver_qp.NewtonWorkspace):
            """A workspace that the live set sees (see _point)."""

            __slots__ = ("__weakref__",)

            def __init__(self):
                live.add(self)

        def in_probe(name):
            fn = getattr(solver_qp, name)

            def run(*args):
                probing.append(name)
                try:
                    return fn(*args)
                finally:
                    probing.pop()
            monkeypatch.setattr(solver_qp, name, run)

        def checked_frame(problem, ws):
            if probing:
                others = [o for o in live if o is not ws]
                for o in others:
                    for name in ("ev", "dfk", "frame"):
                        assert getattr(o, name, None) is None, name
                seen.append((probing[-1], len(others)))
            return frame_stage(problem, ws)

        monkeypatch.setattr(solver_qp, "NewtonWorkspace", Tracked)
        monkeypatch.setattr(solver_qp, "_frame_stage", checked_frame)
        in_probe("steffensen_update")
        in_probe("eps_derivative")
        res = continue_in_eps(prob, QpState.flat_start(64, OMEGA), 0.5)
        assert res.reason == "target"
        # the probes ran beside the workspace they step from, and the
        # predictor ran none
        assert {name for name, _ in seen} == {"steffensen_update"}
        assert any(others for _, others in seen)

    def test_predictor_runs_without_the_previous_step(self, monkeypatch):
        # when the predictor runs, the previous step's tangent and the
        # starts of its solves are gone (each holds two fields of the
        # grid), also after a step whose floor is made to look suspect
        # is solved again on a finer level
        prob = nonsym_problem()
        solve, derive = solver_qp.newton_solve, solver_qp.eps_derivative
        tangents, starts, alive = [], [], []

        def recorded_solve(problem, st, out=None):
            starts.append(weakref.ref(st))
            new = solve(problem, st, out)
            if len(starts) == 4:
                new = replace(new, diagnostics=replace(
                    new.diagnostics, invariance_error=1.0))
            return new

        def recorded_derive(problem, state, ws=None, d_a=0.0):
            # the first start is the caller's own state
            alive.append(sum(r() is not None
                             for r in tangents + starts[1:]))
            der = derive(problem, state, ws, d_a)
            tangents.append(weakref.ref(der))
            return der

        monkeypatch.setattr(solver_qp, "newton_solve", recorded_solve)
        monkeypatch.setattr(solver_qp, "eps_derivative", recorded_derive)
        res = continue_in_eps(prob, QpState.flat_start(64, OMEGA), 1.0)
        assert res.reason == "target"
        assert len(alive) > 10 and alive == [0] * len(alive)

    @staticmethod
    def floor_run(monkeypatch):
        # a tolerance below the iteration's residual floor: some steps
        # settle on a floor their last iterate reached, others on one an
        # earlier iterate reached.  A low n_max
        # keeps the grid levels that refuse the tolerance cheap, and a
        # fixed step of 0.005 keeps the run on those floors whatever
        # grows the step
        monkeypatch.setattr(solver_qp, "_STEP_MAX", 0.005)
        prob = nonsym_problem(tol=3e-15, tol_twist=3e-15, n_max=1024)
        return continue_in_eps(prob, QpState.flat_start(64, OMEGA), 0.1,
                               ContinuationPolicy(step_init=0.005))

    def test_frame_stage_runs_with_two_workspaces(self, monkeypatch):
        # at most the current iterate and the point being built are
        # alive when a frame stage starts (probes, kept points, the
        # predictor's geometry), and a kept point is completed alone; a
        # floor accept hands over its workspace exactly when it is the
        # last iterate, and an earlier iterate only as a state
        solve, frame_stage = solver_qp.newton_solve, solver_qp._frame_stage
        complete = solver_qp._complete
        live, completing, handed, last = [], [], [], [None]

        class Counted(solver_qp.NewtonWorkspace):
            """A workspace that counts the live ones (see _point)."""

            __slots__ = ()
            alive = 0

            def __init__(self):
                Counted.alive += 1

            def __del__(self):
                Counted.alive -= 1

        def counted_solve(problem, st, out=None):
            before = len(out)
            new = solve(problem, st, out)
            if new.diagnostics.invariance_error > problem.tol:
                handed.append((len(out) - before, new.k is last[0]))
            return new

        def counted_frame(problem, ws):
            live.append(Counted.alive)
            return frame_stage(problem, ws)

        def counted_complete(problem, ws):
            completing.append(Counted.alive)
            last[0] = ws.k    # the last iterate of a solve is completed last
            return complete(problem, ws)

        monkeypatch.setattr(solver_qp, "NewtonWorkspace", Counted)
        monkeypatch.setattr(solver_qp, "newton_solve", counted_solve)
        monkeypatch.setattr(solver_qp, "_frame_stage", counted_frame)
        monkeypatch.setattr(solver_qp, "_complete", counted_complete)
        res = self.floor_run(monkeypatch)
        assert res.reason == "target"
        assert all(n == is_last for n, is_last in handed)
        assert {is_last for _, is_last in handed} == {True, False}
        assert max(live) == 2
        assert completing and set(completing) == {1}

    def test_predictor_rebuilds_floor_geometry(self, monkeypatch):
        # the predictor of a state accepted at the floor of an earlier
        # iterate builds its geometry, and gets the derivative the
        # iterate's own workspace gives
        solve, complete = solver_qp.newton_solve, solver_qp._complete
        derive = solver_qp.eps_derivative
        built, kept, checked = [], [], []

        def recorded_complete(problem, ws):
            complete(problem, ws)
            # a copy of the kept point: the solve lets go of an iterate's
            # fields once its linear solve is built
            own = solver_qp.NewtonWorkspace()
            for name in own.__slots__:
                setattr(own, name, getattr(ws, name))
            built.append(own)
            return ws

        def recorded_solve(problem, st, out=None):
            built.clear()
            new = solve(problem, st, out)
            if (new.diagnostics.invariance_error > problem.tol
                    and new.k is not built[-1].k):
                kept.append((new, next(w for w in built if w.k is new.k)))
            built.clear()
            return new

        def checked_derive(problem, state, ws=None, d_a=0.0):
            der = derive(problem, state, ws, d_a)
            for st, own in kept:
                if st is state:
                    assert ws is None
                    want = derive(problem, state, own, d_a)
                    assert (der.d_a, der.d_mu) == (want.d_a, want.d_mu)
                    for got, ref in ((der.d_eta_x, want.d_eta_x),
                                     (der.d_ky, want.d_ky)):
                        assert got.tobytes() == ref.tobytes()
                    checked.append(state)
            return der

        monkeypatch.setattr(solver_qp, "_complete", recorded_complete)
        monkeypatch.setattr(solver_qp, "newton_solve", recorded_solve)
        monkeypatch.setattr(solver_qp, "eps_derivative", checked_derive)
        res = self.floor_run(monkeypatch)
        assert res.reason == "target" and checked

    def test_zero_order_predictor_when_the_tangent_fails(self, monkeypatch):
        # a predictor that raises leaves the zero-order step: the last
        # state moved to the new eps.  The symmetric branch still reaches
        # the target, on the tangent run's mu; its solves take three
        # iterations from the zero-order start, so its step never grows
        # and it takes at least as many records
        prob = sym_problem()
        ref = continue_in_eps(prob, QpState.flat_start(64, OMEGA), 1.0)

        def degenerate(*args, **kwargs):
            raise TwistDegeneracyError("no tangent")

        monkeypatch.setattr(solver_qp, "eps_derivative", degenerate)
        res = continue_in_eps(prob, QpState.flat_start(64, OMEGA), 1.0)
        assert res.reason == "target"
        assert len(res.records) >= len(ref.records)
        assert abs(res.state.mu - ref.state.mu) <= 1e-12

    def test_predictor_rate_of_a_is_the_records_secant(self, monkeypatch):
        # the predictor of each record but the last takes the secant of a
        # through the last two records, and 0 after the first
        derive = solver_qp.eps_derivative
        rates = []

        def recorded(problem, state, ws=None, d_a=0.0):
            rates.append((state.eps, d_a))
            return derive(problem, state, ws, d_a)

        monkeypatch.setattr(solver_qp, "eps_derivative", recorded)
        res = continue_in_eps(nonsym_problem(), QpState.flat_start(64, OMEGA),
                              0.5)
        recs = res.records
        assert res.reason == "target" and len(recs) > 3
        at = {r.eps: i for i, r in enumerate(recs)}
        assert sorted(set(eps for eps, _ in rates)) == [
            r.eps for r in recs[:-1]]
        assert rates[0] == (0.0, 0.0)
        for eps, d_a in rates[1:]:
            r0, r1 = recs[at[eps] - 1:at[eps] + 1]
            assert d_a == (r1.a - r0.a) / (r1.eps - r0.eps) != 0.0

    def test_threads_record_the_serial_numbers(self):
        # each thread transforms into spectra buffers of its own, so
        # continuations on more threads than cores, switching often,
        # record what each records alone, bit for bit
        jobs = [(sym_problem(), 1.0), (nonsym_problem(), 0.8),
                (sym_problem(b_a0=0.1), 0.5)]

        def run(job):
            problem, target = job
            start = QpState.flat_start(64, OMEGA, problem.b_a0)
            return continue_in_eps(problem, start, target).records

        serial = bits([run(job) for job in jobs])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                for _ in range(3):
                    got = list(pool.map(run, jobs, timeout=60))
                    assert bits(got) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_stop_ends_the_run_as_converged(self):
        # a stop callable is asked after each record that did not end the
        # run; once it says so the run ends, on that record
        prob = nonsym_problem()
        seen = []

        def third(records):
            seen.append(len(records))
            return len(records) == 3

        full = continue_in_eps(prob, QpState.flat_start(64, OMEGA), 1.0)
        res = continue_in_eps(prob, QpState.flat_start(64, OMEGA), 1.0,
                              stop=third)
        assert res.reason == "converged" and seen == [1, 2, 3]
        assert bits(res.records) == bits(full.records[:3])
        assert res.state.eps == res.records[-1].eps

    def test_no_step_past_the_alpha_zero(self, monkeypatch):
        # no step goes past eps*, where the secant of alpha through the
        # two records before it meets zero: beyond the breakdown no
        # circle exists, and a solve there can only fail
        steps = logged_steps(monkeypatch)
        prob = nonsym_problem(tol=1e-10, tol_phase=1e-12, tol_twist=1e-10,
                              n_max=1 << 12)
        res = continue_in_eps(prob, QpState.flat_start(64, OMEGA), 10.0,
                              ContinuationPolicy(step_init=0.05,
                                                 alpha_floor=1e-3))
        bounded = 0
        for recs, eps, _ in steps:
            if len(recs) < 2:
                continue
            r0, r1 = recs[-2:]
            s = (r1.alpha - r0.alpha) / (r1.eps - r0.eps)
            if s < 0.0:
                zero = r1.eps + r1.alpha / -s
                assert eps <= zero + 1e-12, (r1.eps, eps, zero)
                bounded += abs(eps - zero) <= 1e-12
        assert bounded > 0     # the bound cut some step
        assert res.reason != "target" and res.state.eps > 1.2

    def test_failed_step_is_never_retried_unchanged(self, monkeypatch):
        # a step cut by the target fails; the next try is half the step
        # tried, not half the step memory, which the cut left larger, so
        # no (base, eps) attempt repeats before the step underflows
        steps = logged_steps(monkeypatch, fail=lambda eps: eps > 0.46)
        res = continue_in_eps(nonsym_problem(), QpState.flat_start(64, OMEGA),
                              0.5, ContinuationPolicy(step_init=0.2))
        assert res.reason == "step-floor"
        tries = [(recs[-1].eps, n, eps) for recs, eps, n in steps]
        assert len(set(tries)) == len(tries) > 10

    def test_quadratic_solves_double_the_step(self):
        # on the easy stretch of the symmetric branch each step solves in
        # at most two Newton iterations, so the step memory doubles after
        # every accept, up to _STEP_MAX
        res = continue_in_eps(sym_problem(), QpState.flat_start(64, OMEGA),
                              0.6)
        eps = [r.eps for r in res.records]
        steps = [b - a for a, b in zip(eps, eps[1:])]
        assert steps[:6] == pytest.approx([0.01, 0.02, 0.04, 0.08, 0.1, 0.1],
                                          rel=1e-12)
        assert max(r.iters for r in res.records[1:6]) <= 2

    def test_slow_solve_keeps_the_step(self, monkeypatch):
        # an accept whose solve took three Newton iterations leaves the
        # step memory as it was; the solve at 0.03, the third, reads as
        # one, so the step after it repeats 0.02
        solve, calls = solver_qp.newton_solve, []

        def slow_third(problem, st, out=None):
            calls.append(st.eps)
            new = solve(problem, st, out)
            return replace(new, iterations=3) if len(calls) == 3 else new

        monkeypatch.setattr(solver_qp, "newton_solve", slow_third)
        res = continue_in_eps(sym_problem(), QpState.flat_start(64, OMEGA),
                              0.3)
        eps = [r.eps for r in res.records]
        assert calls[2] == 0.03 and res.records[2].iters == 3
        assert [b - a for a, b in zip(eps, eps[1:])][:4] == pytest.approx(
            [0.01, 0.02, 0.02, 0.04], rel=1e-12)

    def test_last_step_ends_on_the_target(self, monkeypatch):
        # the try at the target from 0.06 fails and leaves half of it,
        # 0.025, as the memory; from 0.085 that half is one ulp short of
        # the rest of the way (the sum rounds to 0.10999999999999999),
        # and the step still ends on the target itself.  Every accept
        # reads as a three-iteration solve, so the memory does not grow
        solve, failed = solver_qp.newton_solve, []

        def fail_once(problem, st, out=None):
            if st.eps == 0.11 and not failed:
                failed.append(st.eps)
                raise DivergenceError("injected", residual=1.0)
            return replace(solve(problem, st, out), iterations=3)

        monkeypatch.setattr(solver_qp, "newton_solve", fail_once)
        res = continue_in_eps(sym_problem(), QpState.flat_start(64, OMEGA),
                              0.11, ContinuationPolicy(step_init=0.06))
        assert failed and res.reason == "target"
        assert [r.eps for r in res.records] == [0.0, 0.06, 0.06 + 0.025, 0.11]

    def test_warm_restart_is_a_noop(self):
        prob = sym_problem()
        res = continue_in_eps(prob, QpState.flat_start(64, OMEGA), 0.9)
        res2 = continue_in_eps(prob, res.state, 0.9)
        assert res2.reason == "target"
        assert res2.state.a == res.state.a
        assert res2.state.mu == res.state.mu


class TestSymmetricCircle:
    def test_half_period_symmetry(self):
        # for odd forcing the shearless circle at b_a0 = 0 satisfies
        # K(theta + 1/2) = S K(theta) with S(x, y) = (x - 1/2, -y)
        prob = sym_problem()
        res = continue_in_eps(prob, QpState.flat_start(64, OMEGA), 1.5)
        st = res.state
        n = st.k.n
        ex = st.k.eta_x
        ky = st.k.k_y
        half = n // 2
        assert np.max(np.abs(ex - np.roll(ex, -half))) <= 1e-8
        assert np.max(np.abs(ky + np.roll(ky, -half))) <= 1e-8
        assert abs(st.a) <= 1e-9
        assert abs(st.diagnostics.twist_a) <= 1e-9


class TestTwistAgainstAmbientRho:
    """The twist closure read off the ambient dynamics.

    Along a branch of rotation omega the linear solve sets delta_mu =
    -(b_a/b_mu) delta_a, so at the branch's (a, mu, eps) the ambient
    rotation number has d rho/d a : d rho/d mu = b_a : b_mu, and
    d rho/d a = 0 on the non-twist level b_a0 = 0.  The slopes are
    central differences with step H of ambient_rotation_number at tol
    1e-13 from K(0), at eps = 0.5, where no point locks.  Measured: off
    the non-twist level the ratio meets b_a/b_mu within a relative 1.1e-9
    (symmetric forcing) and 3.9e-8 (nonsymmetric); on it, it reads 0 and
    8.9e-11.  Near breakdown the relation degrades (nonsymmetric, eps =
    1.0, b_a0 = 0.1: 9.043e-2 against 9.135e-2), so it is not tested there.
    """

    H = 1e-4
    RTOL = 1e-6     # the ratio against b_a/b_mu off the non-twist level
    FLAT = 1e-8     # |the ratio| on the non-twist level

    @pytest.mark.parametrize("variant", ["symmetric", "nonsymmetric"])
    @pytest.mark.parametrize("b_a0", [-0.1, 0.0, 0.1])
    def test_rho_slopes_are_the_twists(self, variant, b_a0):
        prob = QpProblem(StandardNonTwistMap(SIGMA, variant), omega=OMEGA,
                         b_a0=b_a0)
        res = continue_in_eps(prob, QpState.flat_start(64, OMEGA, b_a0), 0.5,
                              ContinuationPolicy(step_init=0.05))
        assert res.reason == "target"
        st = res.state
        par = ParamPoint(st.a, st.mu, st.eps)
        xy0 = (st.k.eta_x[0], st.k.k_y[0])

        def rho(**moved):
            return ambient_rotation_number(prob.family, replace(par, **moved),
                                           xy0, 1e-13)

        h = self.H
        d_a = (rho(a=st.a + h) - rho(a=st.a - h)) / (2.0 * h)
        d_mu = (rho(mu=st.mu + h) - rho(mu=st.mu - h)) / (2.0 * h)
        ratio = d_a / d_mu
        if b_a0 == 0.0:
            assert abs(ratio) <= self.FLAT
        else:
            want = st.diagnostics.twist_a / st.diagnostics.twist_mu
            assert math.copysign(1.0, want) == math.copysign(1.0, b_a0)
            assert abs(ratio - want) <= self.RTOL * abs(want)


class TestEpsDerivative:
    def test_matches_finite_difference(self):
        prob = sym_problem(tol=1e-12)
        start = QpState.flat_start(128, OMEGA)
        base = newton_solve(prob, QpState(start.k, start.a, start.mu, 0.5))
        der = eps_derivative(prob, base)
        h = 1e-4
        plus = newton_solve(
            prob, QpState(base.k, base.a, base.mu, base.eps + h)
        )
        minus = newton_solve(
            prob, QpState(base.k, base.a, base.mu, base.eps - h)
        )
        assert abs(der.d_mu - (plus.mu - minus.mu) / (2 * h)) <= 1e-4
        fd_eta = (plus.k.eta_x - minus.k.eta_x) / (2 * h)
        assert np.max(np.abs(der.d_eta_x - fd_eta)) <= 1e-4

    @staticmethod
    def operator_form(prob, state):
        """The workspace of state and its D_eps F data, in operator form."""
        ws = solver_qp._geometry(prob, state.k, state.a, state.mu, state.eps)
        par = ParamPoint(state.a, state.mu, state.eps)
        ex, ey = map(dealiased, prob.family.d_eps(state.k.x_lift(),
                                                  state.k.k_y, par))
        nx, ny, lx, ly = ws.nx_s, ws.ny_s, ws.lx_s, ws.ly_s
        return ws, -(ny * ex - nx * ey), ly * ex - lx * ey

    @pytest.mark.parametrize("variant", ["symmetric", "nonsymmetric"])
    def test_one_solve_serves_every_rate(self, monkeypatch, variant):
        # one linear solve gives the tangent for the rate d_a of a the
        # caller supplies, with no frame stage beyond the geometry of the
        # state; it is the operator form's for that rate
        prob = QpProblem(StandardNonTwistMap(SIGMA, variant), omega=OMEGA)
        start = QpState.flat_start(128, OMEGA)
        base = newton_solve(prob, QpState(start.k, start.a, start.mu, 0.5))
        ws, eta_l, eta_n = self.operator_form(prob, base)
        bases, stages = [], []
        solve, frame_stage = solver_qp._solve_linear, solver_qp._frame_stage
        monkeypatch.setattr(solver_qp, "_solve_linear",
                            lambda *a: bases.append(solve(*a)) or bases[-1])
        monkeypatch.setattr(solver_qp, "_frame_stage",
                            lambda *a: stages.append(1) or frame_stage(*a))
        for d_a in (0.0, 1e-3, -0.1):
            bases.clear()
            stages.clear()
            der = eps_derivative(prob, base, d_a=d_a)
            assert len(bases) == 1 and len(stages) == 1
            got_eta, got_ky, got_mu = solver_qp._correction(bases[0], d_a)
            assert der.d_a == d_a and der.d_mu == got_mu
            assert der.d_eta_x.tobytes() == got_eta.tobytes()
            assert der.d_ky.tobytes() == got_ky.tobytes()
            assert_affine_matches(prob, ws, bases[0], eta_l, eta_n, 0.0, d_a)

    def test_converged_workspace_is_the_geometry(self, monkeypatch):
        # the workspace newton_solve hands out is the geometry that
        # eps_derivative would build: bitwise the same tangent, no rebuild
        prob = nonsym_problem(b_a0=0.1)
        start = QpState.flat_start(128, OMEGA, 0.1)
        out = []
        base = newton_solve(prob, QpState(start.k, start.a, start.mu, 0.5),
                            out)
        (ws,) = out
        fresh = eps_derivative(prob, base, d_a=0.37)
        calls = []
        for name in ("_geometry", "_complete"):
            fn = getattr(solver_qp, name)
            monkeypatch.setattr(solver_qp, name,
                                lambda *a, fn=fn, name=name:
                                calls.append(name) or fn(*a))
        der = eps_derivative(prob, base, ws, 0.37)
        assert calls == []
        assert der.d_a == fresh.d_a == 0.37 and der.d_mu == fresh.d_mu
        assert der.d_eta_x.tobytes() == fresh.d_eta_x.tobytes()
        assert der.d_ky.tobytes() == fresh.d_ky.tobytes()

    def test_foreign_workspace_rejected(self):
        prob = sym_problem()
        start = QpState.flat_start(64, OMEGA)
        out = []
        base = newton_solve(prob, QpState(start.k, start.a, start.mu, 0.3),
                            out)
        other = newton_solve(prob, QpState(start.k, start.a, start.mu, 0.4))
        with pytest.raises(ValueError):
            eps_derivative(prob, other, out[0])
        with pytest.raises(ValueError):
            eps_derivative(prob, replace(base, mu=base.mu + 1e-9), out[0])


class TestBreakdownFit:
    @staticmethod
    def rec(eps, alpha):
        return ContinuationRecord(eps, 0.0, 0.0, 64, 0.0, alpha,
                                  0.0, 1.0, 1, 0.0)

    def test_recovers_linear_crossing(self):
        eps = np.linspace(3.0, 3.5, 30)
        recs = [self.rec(e, 0.5 * (3.6 - e)) for e in eps]
        fit = breakdown_extrapolate(recs)
        # the 20-record window holds alpha 0.21 -> 0.05, short of a decade
        assert not fit.reliable
        assert abs(fit.eps_c - 3.6) <= 1e-12
        assert abs(fit.slope + 0.5) <= 1e-12
        assert fit.residual <= 1e-14

    def test_window_spanning_a_decade_is_reliable(self):
        # alpha = 10 - 10 eps falls from 10 to 1 across the window
        recs = [self.rec(k / 10.0, 10.0 - k) for k in range(10)]
        fit = breakdown_extrapolate(recs)
        assert fit.window == 10
        assert fit.reliable
        assert abs(fit.eps_c - 1.0) <= 1e-12

    def test_flags_non_decreasing_angle(self):
        recs = [self.rec(e, 0.1 + 0.05 * e) for e in np.linspace(1, 2, 12)]
        fit = breakdown_extrapolate(recs)
        assert not fit.reliable

    def test_window_restricts_to_last_decade(self):
        # early plateau must not contaminate the fit
        eps1 = np.linspace(0.0, 3.0, 10)
        recs = [self.rec(e, 1.5) for e in eps1]
        eps2 = np.linspace(3.0, 3.5, 20)
        recs += [self.rec(e, 0.04 * (3.58 - e)) for e in eps2]
        fit = breakdown_extrapolate(recs, window=40)
        assert abs(fit.eps_c - 3.58) <= 1e-10

    def test_abrupt_collapse_widens_thin_decade(self):
        # only the last two points sit within 10x of the final angle;
        # the window must stretch back to _FIT_MIN_POINTS anyway
        eps = np.linspace(1.0, 1.2, 9)
        recs = [self.rec(e, 2.0 * (1.21 - e)) for e in eps]
        fit = breakdown_extrapolate(recs, window=20)
        assert solver_qp._FIT_MIN_POINTS == 5
        assert fit.window == 5
        assert fit.reliable
        assert abs(fit.eps_c - 1.21) <= 1e-12

    def test_flat_angle_is_not_reliable(self):
        recs = [self.rec(e, 0.7) for e in np.linspace(0.0, 1.0, 8)]
        fit = breakdown_extrapolate(recs)
        assert not fit.reliable

    @staticmethod
    def dense_decade():
        """200 records on alpha = 0.1 (3.51 - eps): the last decade holds
        about 40 of them, more than the 20-record window."""
        eps = np.linspace(3.0, 3.5, 200)
        alpha = 0.1 * (3.51 - eps)
        closing = int(np.nonzero(alpha >= 10.0 * alpha[-1])[0][-1])
        assert closing < 200 - 20
        return eps, alpha, closing

    def test_dense_decade_is_reliable(self):
        # the 20-record window alone drops less than a decade; its
        # closing record extends it to one, on the same line
        eps, alpha, _ = self.dense_decade()
        fit = breakdown_extrapolate(
            [self.rec(e, a) for e, a in zip(eps, alpha)])
        assert fit.window == 20
        assert alpha[-20] < 10.0 * alpha[-1]
        assert fit.reliable
        assert abs(fit.eps_c - 3.51) <= 1e-12

    def test_closing_record_off_the_line_is_unreliable(self):
        # still monotone and a decade, but the extended fit misses the
        # closing record by far more than 1% of the drop; eps_c and the
        # fit come from the window and do not move
        eps, alpha, closing = self.dense_decade()
        clean = breakdown_extrapolate(
            [self.rec(e, a) for e, a in zip(eps, alpha)])
        alpha[closing] *= 3.0
        fit = breakdown_extrapolate(
            [self.rec(e, a) for e, a in zip(eps, alpha)])
        assert not fit.reliable
        assert fit.eps_c == clean.eps_c and fit.window == clean.window
        assert fit.slope == clean.slope and fit.residual == clean.residual


def blow_up_family():
    """The symmetric map, its Jacobian non-finite once a exceeds 0.01."""

    class BlowUpEvaluation(Evaluation):
        def jacobian(self):
            j = super().jacobian()
            return j * np.nan if self.par.a > 0.01 else j

    class BlowUp(StandardNonTwistMap):
        def evaluate(self, x, y, p):
            return BlowUpEvaluation(self, x, y, p)

    return BlowUp(SIGMA, "symmetric")


def bits(x):
    """x with every float as its hex and every array as its bytes."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return type(x).__name__, bits([getattr(x, f.name)
                                       for f in dataclasses.fields(x)])
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    return x


def logged_steps(monkeypatch, fail=lambda eps: False):
    """The steps continue_in_eps tries, as (records before it, eps, N).

    newton_solve and _record log into one sequence, so each solve sees
    the records made before it; every solve after the first is a step,
    and N tells a step solved again on a finer level from its first
    solve.  A solve at an eps where fail(eps) is true raises a
    DivergenceError that asks for no finer grid.
    """
    records, steps = [], []
    solve, record = solver_qp.newton_solve, solver_qp._record

    def logged(problem, st, out=None):
        if records:
            steps.append((tuple(records), st.eps, st.k.n))
        if fail(st.eps):
            raise DivergenceError("injected", residual=1.0)
        return solve(problem, st, out)

    def kept(state, wall_ms):
        records.append(record(state, wall_ms))
        return records[-1]

    monkeypatch.setattr(solver_qp, "newton_solve", logged)
    monkeypatch.setattr(solver_qp, "_record", kept)
    return steps


class TestTwistSurface:
    def test_integrable_levels(self):
        prob = sym_problem(tol=1e-12)
        paths = twist_surface(prob, [-0.2, 0.0, 0.2], 0.0)
        assert [p.b_a0 for p in paths] == [-0.2, 0.0, 0.2]
        for p in paths:
            st = p.result.state
            assert abs(st.a - p.b_a0 / 2.0) <= 1e-10
            assert abs(st.mu - (OMEGA - (p.b_a0 / 2.0) ** 2)) <= 1e-10

    def test_blow_up_is_a_path_failure(self):
        # the Jacobian goes non-finite once a leaves the b_a0 = 0 level;
        # the solver reads it from the one map evaluation per point
        prob = QpProblem(blow_up_family(), omega=OMEGA)
        flat, lifted = twist_surface(prob, [0.0, 0.1], 0.05)
        assert flat.result.reason == "target"
        assert flat.result.state.eps == 0.05
        assert lifted.result.records == ()
        assert lifted.result.reason.startswith("error: ")
        with pytest.raises(NonFiniteError):
            newton_solve(replace(prob, b_a0=0.1),
                         QpState.flat_start(64, OMEGA, 0.1))

    @pytest.mark.parametrize("family, failed", [
        (StandardNonTwistMap(SIGMA, "symmetric"), []),
        (blow_up_family(), [0.1, 0.05])], ids=["symmetric", "blow-up"])
    def test_split_equals_one_cpu(self, forks, monkeypatch, family, failed):
        # the worker runs b_a0 = 0.1, -0.1 and -0.05, the caller the rest
        prob = QpProblem(family, omega=OMEGA)
        levels = [0.1, 0.0, -0.1, 0.05, -0.05]
        split = twist_surface(prob, levels, 0.3)
        assert len(forks) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = twist_surface(prob, levels, 0.3)
        assert len(forks) == 1
        assert bits(split) == bits(serial)
        assert [p.result.reason for p in split] == [
            p.result.reason for p in serial]
        assert [p.b_a0 for p in split if p.result.state is None] == failed
        assert all(p.result.reason == "target" for p in split
                   if p.b_a0 not in failed)
        for p in split:
            if p.result.state is not None:
                k = p.result.state.k
                assert not k.eta_x.flags.writeable
                assert not k.k_y.flags.writeable
