"""Command-line driver: flat key=value configs in, CSV tables out.

Commands
--------
continue-nontwist   march a non-twist circle branch in eps; writes
                    path.csv and final_circle.csv
breakdown           push the branch toward breakdown, until two successive
                    fits of the bundle-angle zero crossing agree (stop
                    `converged`); writes alpha.csv, fit.txt
rotnum-sweep        rotation number versus a or mu around a converged
                    circle, each point from the ambient orbit of the
                    circle's point K(0); writes rho_vs_param.csv
twist-surface       one branch per prescribed twist level b_a0; writes
                    surface.csv
verify              self-check battery; prints PASS/FAIL lines

Exit codes: 0 success, 2 continuation stopped before the target
(breakdown-type stop), 1 error; breakdown exits 0 on any stop of its
run, `converged` included.  All floats are serialized with 17
significant digits so the tables re-parse to the exact binary values,
and rerunning a command reproduces the files byte for byte (timing is
off by default; wall_ms written as 0.0).  No key selects the second
core.  Where the process may run on two CPUs, the twist-surface
branches and the points of each rotnum-sweep pass are shared between
the caller and one forked worker process (fourier.split_items), and
grid kernels at N >= 2^14 between two threads (fourier.split), bit for
bit.  On glibc, main first raises malloc's mmap and trim thresholds, so
the blocks a command frees are reused instead of faulted in again;
importing the package changes no allocator setting.
The solver and continuation keys take the defaults of QpProblem and
ContinuationPolicy, whose fields they name.  The retired keys `threads`,
`sweep_grid`, `sweep_order` and `sweep_tol` are read and ignored: a
value of the wrong type is still an error, but no value selects anything.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import fourier
from .errors import NtCircleError
from .frame import TorusEmbedding, half_shift_deviation, tangent
from .maps import Forcing, ParamPoint, StandardNonTwistMap, check_symmetry
from .solver_general import sweep_parameter
from .solver_qp import (
    _FIT_MIN_POINTS,
    GOLDEN_MEAN,
    ContinuationPolicy,
    QpProblem,
    QpState,
    breakdown_extrapolate,
    continue_in_eps,
    frame_fields,
    newton_solve,
    twist_surface,
)

ENV_OUT_DIR = "NTCIRCLE_OUT_DIR"


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    """Flat run configuration; every key has a usable default.

    A key that names a field of QpProblem or ContinuationPolicy takes
    that field's default and is passed to it by name (_shared).
    """

    family: str = "dsntm"
    variant: str = "symmetric"
    sigma: float = 0.8
    omega: float = QpProblem.omega  # config accepts a literal or `golden`
    b_a0: float = QpProblem.b_a0
    eps_target: float = 2.0
    step_init: float = ContinuationPolicy.step_init
    step_min: float = ContinuationPolicy.step_min
    step_max: float = ContinuationPolicy.step_max
    grow_after: int = ContinuationPolicy.grow_after
    alpha_floor: float = ContinuationPolicy.alpha_floor
    tol: float = QpProblem.tol
    tol_phase: float = QpProblem.tol_phase
    tol_twist: float = QpProblem.tol_twist
    max_newton: int = QpProblem.max_newton
    n_min: int = QpProblem.n_min
    n_max: int = QpProblem.n_max
    tail_double: float = QpProblem.tail_double
    out_dir: str = "."
    seed: int = 0
    timing: bool = ContinuationPolicy.timing
    # breakdown
    fit_window: int = 20
    alpha_input: str = ""          # fit a ready-made (eps, alpha) table instead
    # rotation-number sweep
    sweep_which: str = "a"
    sweep_halfwidth: float = 0.1
    sweep_step: float = 0.004
    rho_tol: float = 1e-10
    lock_tol: float = 1e-8
    q_max: int = 64
    refine_width: float = 1e-4
    # twist surface
    b_a0_list: tuple = (0.0,)


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "on", "yes"):
        return True
    if low in ("0", "false", "off", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float(text: str) -> float:
    """A finite float: no config key or table cell takes a NaN or an inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_omega(text: str) -> float:
    if text.strip().lower() == "golden":
        return GOLDEN_MEAN
    return _parse_float(text)


def _parse_float_list(text: str) -> tuple:
    items = [t for t in (s.strip() for s in text.split(",")) if t]
    if not items:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_parse_float(t) for t in items)


# one parser per RunConfig annotation (a string, as annotations are
# postponed in this module); omega also takes `golden`
_PARSERS = {"str": str, "float": _parse_float, "int": int,
            "bool": _parse_bool, "tuple": _parse_float_list}
_CASTERS = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}
_CASTERS["omega"] = _parse_omega

# keys that no longer act, still parsed so that old configs run: the
# size of a branch pool, and the grid circle of an earlier sweep, which
# now solves no circle.  A value is type-checked, then dropped.
_RETIRED = {"threads": int, "sweep_grid": int, "sweep_order": int,
            "sweep_tol": _parse_float}
_CASTERS.update(_RETIRED)


def parse_config(text: str) -> RunConfig:
    """Parse key=value lines; '#' starts a comment; unknown keys rejected.

    A retired key is parsed like any other key, then dropped."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CASTERS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _CASTERS[key](val)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key}: {exc}") from exc
    cfg = RunConfig(**{key: value for key, value in values.items()
                       if key not in _RETIRED})
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Eager checks, so that a bad value fails before any work is done.

    The family is built, and so checks its own sigma and variant; deeper
    preconditions are enforced by the modules.
    """
    if cfg.family != "dsntm":
        raise ValueError(f"unknown family {cfg.family!r} (supported: dsntm)")
    build_family(cfg)
    if not 0.0 < cfg.omega < 1.0:
        raise ValueError(f"need omega in (0, 1), got {cfg.omega}")
    if cfg.eps_target < 0.0:
        raise ValueError("eps_target must be nonnegative")
    for key in ("step_init", "step_min", "step_max", "tol",
                "tol_phase", "tol_twist", "alpha_floor", "tail_double",
                "sweep_halfwidth", "sweep_step", "rho_tol", "lock_tol",
                "refine_width"):
        if getattr(cfg, key) <= 0.0:
            raise ValueError(f"{key} must be positive")
    if not cfg.step_min <= cfg.step_init <= cfg.step_max:
        raise ValueError("need step_min <= step_init <= step_max")
    for key in ("grow_after", "max_newton", "q_max"):
        if getattr(cfg, key) < 1:
            raise ValueError(f"{key} must be at least 1")
    if cfg.seed < 0:
        raise ValueError("seed must be nonnegative")
    if cfg.n_min < 8 or cfg.n_min & (cfg.n_min - 1):
        raise ValueError(f"n_min must be a power of two >= 8, got {cfg.n_min}")
    if cfg.n_min > cfg.n_max:
        raise ValueError("need n_min <= n_max")
    if cfg.sweep_which not in ("a", "mu"):
        raise ValueError(f"sweep_which must be 'a' or 'mu', got {cfg.sweep_which!r}")
    if cfg.fit_window < _FIT_MIN_POINTS:
        raise ValueError(f"fit_window must be at least {_FIT_MIN_POINTS}, "
                         f"got {cfg.fit_window}")


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def build_family(cfg: RunConfig) -> StandardNonTwistMap:
    return StandardNonTwistMap(cfg.sigma, Forcing(cfg.variant))


def _shared(cfg: RunConfig, target) -> dict:
    """The keys of cfg that name fields of the dataclass target."""
    return {f.name: getattr(cfg, f.name) for f in fields(target)
            if f.name != "family" and hasattr(cfg, f.name)}


def build_problem(cfg: RunConfig) -> QpProblem:
    return QpProblem(build_family(cfg), **_shared(cfg, QpProblem))


def build_policy(cfg: RunConfig) -> ContinuationPolicy:
    return ContinuationPolicy(**_shared(cfg, ContinuationPolicy))


# ---------------------------------------------------------------------------
# persistence


def _fmt(value) -> str:
    """One CSV cell; floats at 17 significant digits (exact round trip)."""
    if type(value) is float:    # most cells: no dispatch needed
        return format(value, ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_alpha_csv(path: str):
    """Parse a two-column (eps, alpha) table with a header row.

    A missing header, a row with fewer than two cells or a cell that is
    not a finite number raises ValueError naming the path and the line.
    """
    out = []
    with open(path, "r", encoding="ascii") as fh:
        if not fh.readline():
            raise ValueError(f"{path}, line 1: empty table, "
                             "expected a header row")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise ValueError(f"{path}, line {lineno}: expected "
                                 f"eps,alpha, got {line!r}")
            try:
                point = _AlphaPoint(_parse_float(parts[0]),
                                    _parse_float(parts[1]))
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from exc
            out.append(point)
    return out


@dataclass(frozen=True)
class _AlphaPoint:
    eps: float
    alpha: float


_STOP_CODES = {"target": 0, "alpha-floor": 2, "step-floor": 2, "n-max": 2}


def _reason_code(reason: str) -> int:
    return _STOP_CODES.get(reason, 1)


# ---------------------------------------------------------------------------
# commands


def _path_rows(records):
    for r in records:
        yield (r.eps, r.a, r.mu, r.n, r.err, r.alpha, r.b_a, r.b_mu,
               r.iters, r.wall_ms)


PATH_HEADER = ("eps", "a", "mu", "N", "err", "alpha", "b_a", "b_mu",
               "iters", "wall_ms")


def _continue(cfg: RunConfig, stop=None):
    """The configured branch marched from its flat start to eps_target."""
    problem = build_problem(cfg)
    start = QpState.flat_start(cfg.n_min, problem.omega, problem.b_a0)
    result = continue_in_eps(problem, start, cfg.eps_target,
                             build_policy(cfg), stop)
    return problem, result


def cmd_continue_nontwist(cfg: RunConfig, out_dir: str) -> int:
    problem, result = _continue(cfg)
    write_csv(os.path.join(out_dir, "path.csv"), PATH_HEADER,
              _path_rows(result.records))
    th, kx, ky, nx, ny = frame_fields(problem, result.state)
    write_csv(
        os.path.join(out_dir, "final_circle.csv"),
        ("theta", "Kx", "Ky", "Nx", "Ny"),
        zip(th, kx, ky, nx, ny),
    )
    print(f"stopped: {result.reason} at eps={result.state.eps:.6g} "
          f"(N={result.state.k.n}, {len(result.records)} points)")
    return _reason_code(result.reason)


_FIT_AGREEMENT = 1e-3


def _fits_agree(window: int):
    """A breakdown run's stop: its fits with and without the last record
    are both reliable and agree within _FIT_AGREEMENT * eps_c."""

    def stop(records) -> bool:
        if len(records) <= _FIT_MIN_POINTS:
            return False    # too few records for the shorter prefix
        prev, last = (breakdown_extrapolate(records[:n], window)
                      for n in (len(records) - 1, len(records)))
        return (prev.reliable and last.reliable
                and abs(last.eps_c - prev.eps_c)
                <= _FIT_AGREEMENT * abs(last.eps_c))

    return stop


def cmd_breakdown(cfg: RunConfig, out_dir: str) -> int:
    if cfg.alpha_input:
        records = read_alpha_csv(cfg.alpha_input)
        reason = "input"
    else:
        _, result = _continue(cfg, _fits_agree(cfg.fit_window))
        records = result.records
        reason = result.reason
    fit = breakdown_extrapolate(records, cfg.fit_window)
    write_csv(os.path.join(out_dir, "alpha.csv"), ("eps", "alpha"),
              ((r.eps, r.alpha) for r in records))
    with open(os.path.join(out_dir, "fit.txt"), "w", encoding="ascii") as fh:
        fh.write(f"eps_c = {_fmt(fit.eps_c)}\n")
        fh.write(f"slope = {_fmt(fit.slope)}\n")
        fh.write(f"residual = {_fmt(fit.residual)}\n")
    flag = "" if fit.reliable else " (low confidence: angle not linear yet)"
    print(f"stopped: {reason}; eps_c = {fit.eps_c:.6f}{flag}")
    return 0


def cmd_rotnum_sweep(cfg: RunConfig, out_dir: str) -> int:
    problem, result = _continue(cfg)
    if result.reason != "target":
        print(f"stopped: {result.reason} before eps_target; no sweep")
        return _reason_code(result.reason)
    state = result.state
    xy0 = (state.k.eta_x[0], state.k.k_y[0])   # K(0)
    par = ParamPoint(state.a, state.mu, state.eps)
    records = sweep_parameter(
        problem.family, par, xy0, cfg.sweep_which,
        cfg.sweep_halfwidth, cfg.sweep_step, rho_tol=cfg.rho_tol,
        lock_tol=cfg.lock_tol, q_max=cfg.q_max,
        refine_width=cfg.refine_width,
    )
    write_csv(
        os.path.join(out_dir, "rho_vs_param.csv"),
        ("param", "rho", "err", "locked_flag"),
        ((r.param, r.rho, r.rho_err, r.locked) for r in records),
    )
    locked = sum(1 for r in records if r.locked)
    print(f"swept {cfg.sweep_which}: {len(records)} points, {locked} locked")
    return 0


def cmd_twist_surface(cfg: RunConfig, out_dir: str) -> int:
    problem = build_problem(cfg)
    policy = build_policy(cfg)
    paths = twist_surface(problem, cfg.b_a0_list, cfg.eps_target, policy)
    rows = []
    worst = 0
    for path in paths:
        for r in path.result.records:
            rows.append((path.b_a0, r.eps, r.a, r.mu))
        worst = max(worst, _reason_code(path.result.reason))
    write_csv(os.path.join(out_dir, "surface.csv"),
              ("b_a0", "eps", "a", "mu"), rows)
    print(f"{len(paths)} branches, {len(rows)} points")
    return worst


# ---------------------------------------------------------------------------
# verification battery


def _run_checks(cfg: RunConfig):
    """Yield (name, passed, detail) without stopping at failures."""
    rng = np.random.default_rng(cfg.seed)
    problem = build_problem(cfg)
    om = problem.omega
    sig = cfg.sigma

    # the cohomological block kernels against their defining identities:
    # both solves on one two-row block, as the Newton step runs them
    u = rng.standard_normal(256)
    scale = max(float(np.max(np.abs(u))), 1.0)
    xi = np.stack((u, u))
    half = fourier.spectra(xi)
    fourier.linear_shift_spectra(half[:1], sig, 1.0, om)
    mean, = fourier.small_divisor_spectra(half[1:], om)
    fourier.samples(half, xi)
    xs = fourier.transform(xi.copy(), fourier.shift_spectra, om)
    for name, defect in (("contractive", sig * xi[0] - xs[0] - u),
                         ("small-divisor", xi[1] - xs[1] - (u - mean))):
        res = float(np.max(np.abs(defect))) / scale
        yield f"cohomological ({name}) residual", res <= 1e-10, f"{res:.2e}"

    # integrable closed forms
    worst = 0.0
    for b in (0.0, 0.2, -0.2):
        prob_b = replace(problem, b_a0=b)
        st = newton_solve(
            prob_b, QpState.flat_start(cfg.n_min, om, b))
        worst = max(
            worst,
            abs(st.a - b / 2.0),
            abs(st.mu - (om - st.a ** 2)),
            float(np.max(np.abs(st.k.eta_x))),
            float(np.max(np.abs(st.k.k_y))),
            abs(st.diagnostics.twist_mu - 1.0),
            abs(st.diagnostics.twist_a - b),
        )
    yield "integrable closed form (a, mu, K, twists)", worst <= 1e-10, f"{worst:.2e}"

    # a mildly forced circle for frame and convergence checks
    res_c = continue_in_eps(
        problem,
        QpState.flat_start(cfg.n_min, om, problem.b_a0),
        min(cfg.eps_target, 0.5),
        build_policy(cfg),
    )
    st = res_c.state
    ok = res_c.reason == "target"
    yield "continuation to the check point", ok, f"reason={res_c.reason}"

    if ok:
        _, _, _, nx, ny = frame_fields(problem, st)
        l = tangent(st.k)
        det = l[0] * ny - l[1] * nx    # det [L N] = N^T Omega L
        derr = float(np.max(np.abs(det - 1.0)))
        yield "frame identity N^T Omega L = 1 (det P = 1)", derr <= 1e-10, f"{derr:.2e}"

        red = st.diagnostics.reducibility_error
        yield "frame reducibility defect", red <= 1e-7, f"{red:.2e}"

        phase = abs(float(np.mean(st.k.eta_x)))
        yield "phase normalization <eta_x> = 0", phase <= max(cfg.tol_phase, 1e-10), f"{phase:.2e}"

        twist = abs(st.diagnostics.twist_a - problem.b_a0)
        yield "prescribed twist level met", twist <= max(cfg.tol_twist, 1e-9), f"{twist:.2e}"

        if cfg.variant == Forcing.SYMMETRIC:
            yield from _symmetry_checks(cfg, problem, st)

        # quadratic decay of the Newton residual from a rough start
        bump = 1e-2 * np.cos(2.0 * np.pi * fourier.grid(st.k.n))
        rough = replace(st, k=TorusEmbedding(st.k.eta_x + bump,
                                             st.k.k_y - bump),
                        diagnostics=None)
        sol = newton_solve(problem, rough)
        hist = [h for h in sol.history if h > 0.0]
        decades = [h for h in hist if h > 100.0 * cfg.tol]
        if len(decades) >= 3:
            e0, e1, e2 = decades[-3], decades[-2], decades[-1]
            q = np.log(e2 / e1) / np.log(e1 / e0)
            yield "Newton quadratic decay (exponent >= 1.7)", q >= 1.7, f"q={q:.2f}"
        else:
            # tolerance too loose to resolve the decay curve
            yield ("Newton quadratic decay (reduced confidence: "
                   "tolerance leaves < 3 usable residuals)"), True, \
                  f"history={len(hist)} points"

    # map family self-checks
    fam = problem.family
    x = rng.uniform(size=64)
    y = rng.uniform(-0.2, 0.8, size=64)
    p = ParamPoint(0.01, 0.6, 0.7)
    jac = fam.jacobian(x, y, p)
    dets = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    derr2 = float(np.max(np.abs(dets - sig)))
    yield "Jacobian determinant equals sigma", derr2 <= 1e-12, f"{derr2:.2e}"

    sym = check_symmetry(fam, p)
    if cfg.variant == Forcing.SYMMETRIC:
        yield "family symmetry S F_a S = F_{-a}", sym <= 1e-12, f"{sym:.2e}"
    else:
        yield "family is genuinely nonsymmetric", sym > 1e-3, f"{sym:.2e}"


def _symmetry_checks(cfg: RunConfig, problem, st: QpState):
    """Symmetric forcing: S F_a S = F_{-a} with S(x, y) = (x - 1/2, -y).

    S maps the circle at twist level b onto the circle at -b, with
    K_{-b}(theta) = S K_b(theta + 1/2), a_{-b} = -a_b, mu_{-b} = mu_b.
    At b = 0 that is a symmetry of the circle itself; otherwise it is
    checked against the circle at -b, continued the same way.
    """
    if problem.b_a0 == 0.0:
        dev = half_shift_deviation(st.k)
        yield "circle symmetry K = S K(.+1/2)", dev <= 1e-8, f"{dev:.2e}"
        return
    mirror = replace(problem, b_a0=-problem.b_a0)
    res = continue_in_eps(
        mirror, QpState.flat_start(cfg.n_min, mirror.omega, mirror.b_a0),
        st.eps, build_policy(cfg))
    name = "mirror circle K_{-b} = S K_b(.+1/2), a_{-b} = -a_b, mu_{-b} = mu_b"
    if res.reason != "target":
        yield name, False, f"mirror continuation: reason={res.reason}"
        return
    n = max(st.k.n, res.state.k.n)
    dev = max(half_shift_deviation(st.k.resample(n), res.state.k.resample(n)),
              abs(res.state.a + st.a), abs(res.state.mu - st.mu))
    yield name, dev <= 1e-8, f"{dev:.2e}"


def cmd_verify(cfg: RunConfig, out_dir: str) -> int:
    del out_dir                       # report goes to stdout
    failures = 0
    for name, passed, detail in _run_checks(cfg):
        tag = "PASS" if passed else "FAIL"
        print(f"{tag}  {name}: {detail}")
        if not passed:
            failures += 1
    print(f"{'OK' if failures == 0 else 'FAILED'} "
          f"({failures} failing check{'s' if failures != 1 else ''})")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "continue-nontwist": cmd_continue_nontwist,
    "breakdown": cmd_breakdown,
    "rotnum-sweep": cmd_rotnum_sweep,
    "twist-surface": cmd_twist_surface,
    "verify": cmd_verify,
}

# glibc mallopt parameters: (M_MMAP_THRESHOLD, its 64-bit ceiling of
# 32 MiB) and (M_TRIM_THRESHOLD, 1 GiB)
_MALLOPT_SETTINGS = ((-3, 32 << 20), (-1, 1 << 30))


def _keep_freed_memory() -> None:
    """Keep the memory a command frees in glibc's heap, to be reused.

    By default glibc serves large blocks with fresh mmaps and trims the
    heap top, so a continuation at N = 2^16-2^18 hands its blocks back
    to the kernel and faults them in again: about 300k minor faults
    for one breakdown run at the qp_breakdown benchmark's settings,
    1.9M at test_4a's.  Both thresholds are set, as a pair: setting
    either alone turns off glibc's dynamic thresholds and faults more
    than the default.  With
    both, every solver block up to n_max = 2^19 comes from a heap that
    is never trimmed.  Only the command line does this; importing the
    package leaves the allocator alone.  Without glibc's mallopt
    (macOS, Windows, musl) it does nothing.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOPT_SETTINGS:
        mallopt(param, value)


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = argparse.ArgumentParser(
        prog="ntcircle",
        description="Invariant-circle continuation and breakdown analysis.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="key=value config file")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        # precedence: --out flag, then environment, then config
        out_dir = args.out or os.environ.get(ENV_OUT_DIR) or cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir)
    except (NtCircleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
