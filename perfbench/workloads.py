"""Benchmark workloads: generated configs, CLI commands and correctness gates.

Each workload is a list of CLI commands run one after the other (a closed
loop: a command starts when the previous one has returned).  A command
carries its config text and a gate that checks the files it wrote against
the paper's numbers (arXiv:2005.09754).  The seed only changes the twist
levels of `qp_paths`; the other two workloads are fixed paper
configurations.
"""

from __future__ import annotations

import csv
import os
import random
from dataclasses import dataclass
from typing import Callable

# every config pins the branch pool to one thread
COMMON = "threads = 1\n"

EPS_C_NONSYM = 1.240522          # paper breakdown threshold, nonsymmetric forcing
EPS_C_REL_TOL = 0.005


@dataclass(frozen=True)
class Command:
    label: str                   # output sub-directory and report key
    command: str                 # ntcircle CLI sub-command
    config: str                  # config file text
    gate: Callable[[str, int, str], list]   # (out_dir, exit code, stdout) -> failures


def _rows(path: str) -> list:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _check(failures: list, label: str, value: float, ref: float, tol: float) -> None:
    if not abs(value - ref) <= tol:
        failures.append(f"{label} = {value!r}, want {ref} +- {tol:g}")


def _exit_zero(rc: int) -> list:
    return [] if rc == 0 else [f"exit code {rc}"]


def _path_gate(eps: float, checks) -> Callable:
    """Gate on the last row of path.csv: reached eps, then (column, ref, tol)."""

    def gate(out_dir: str, rc: int, stdout: str) -> list:
        failures = _exit_zero(rc)
        last = _rows(os.path.join(out_dir, "path.csv"))[-1]
        _check(failures, "eps", float(last["eps"]), eps, 0.0)
        for column, ref, tol in checks:
            _check(failures, column, float(last[column]), ref, tol)
        return failures

    return gate


def _surface_gate(levels: list, eps: float) -> Callable:
    """Every twist level has a branch in surface.csv that reached eps."""

    def gate(out_dir: str, rc: int, stdout: str) -> list:
        failures = _exit_zero(rc)
        reached = {}
        for row in _rows(os.path.join(out_dir, "surface.csv")):
            reached[float(row["b_a0"])] = float(row["eps"])
        for b in levels:
            if reached.get(b) != eps:
                failures.append(f"branch b_a0={b} ended at eps={reached.get(b)}")
        if len(reached) != len(levels):
            failures.append(f"{len(reached)} branches, want {len(levels)}")
        return failures

    return gate


def _breakdown_gate(out_dir: str, rc: int, stdout: str) -> list:
    failures = _exit_zero(rc)
    fit = {}
    with open(os.path.join(out_dir, "fit.txt"), encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition("=")
            fit[key.strip()] = float(value)
    _check(failures, "eps_c", fit["eps_c"], EPS_C_NONSYM,
           EPS_C_REL_TOL * EPS_C_NONSYM)
    if "low confidence" in stdout:
        failures.append("breakdown fit reported unreliable")
    return failures


def _sweep_gate(out_dir: str, rc: int, stdout: str) -> list:
    """rho(a) even about the non-twist point, convex there, 5/8 on both flanks."""
    failures = _exit_zero(rc)
    recs = [(float(r["param"]), float(r["rho"]), r["locked_flag"] == "1")
            for r in _rows(os.path.join(out_dir, "rho_vs_param.csv"))]
    rho = {p: r for p, r, _ in recs}
    pairs = sorted(p for p in rho if p > 0.0 and -p in rho)
    if 0.0 not in rho or not pairs:
        return failures + ["sweep has no symmetric points around a = 0"]
    asym = max(abs(rho[p] - rho[-p]) for p in pairs)
    if not asym <= 1e-8:
        failures.append(f"|rho(a) - rho(-a)| reaches {asym:.3e}")
    h = pairs[0]
    if not rho[h] - 2.0 * rho[0.0] + rho[-h] > 0.0:
        failures.append("second difference of rho at a = 0 is not positive")
    for sign in (1.0, -1.0):
        if not any(locked and sign * p > 0.0 and abs(r - 0.625) <= 1e-8
                   for p, r, locked in recs):
            failures.append(f"no locked 5/8 point for sign(a) = {sign:+.0f}")
    return failures


def twist_levels(seed: int) -> list:
    """Five b_a0 levels in [-0.2, 0.2], one drawn from each fifth.

    One level per fifth keeps the cost of the surface comparable between
    seeds while every seed still lands on new levels.
    """
    rng = random.Random(seed)
    width = 0.4 / 5
    return [round(-0.2 + width * (j + rng.random()), 6) for j in range(5)]


def qp_paths(seed: int) -> list:
    levels = twist_levels(seed)
    return [
        Command("sym_eps3", "continue-nontwist",
                COMMON + "variant = symmetric\neps_target = 3\n",
                _path_gate(3.0, (("mu", 0.5843217, 1e-6), ("a", 0.0, 1e-8)))),
        Command("nonsym_eps1.2", "continue-nontwist",
                COMMON + "variant = nonsymmetric\neps_target = 1.2\n",
                _path_gate(1.2, (("a", -9.571568e-4, 1e-7),
                                 ("mu", 0.5951423, 1e-6)))),
        Command("twist_surface", "twist-surface",
                COMMON + "variant = symmetric\neps_target = 2\n"
                f"b_a0_list = {', '.join(repr(b) for b in levels)}\n",
                _surface_gate(levels, 2.0)),
    ]


def qp_breakdown(seed: int) -> list:
    del seed                     # fixed paper configuration
    return [
        Command("breakdown_nonsym", "breakdown",
                COMMON + "variant = nonsymmetric\n"
                "tol = 1e-10\ntol_phase = 1e-12\ntol_twist = 1e-10\n"
                "n_max = 524288\nstep_init = 0.05\nalpha_floor = 1e-3\n"
                "eps_target = 10\nfit_window = 20\n",
                _breakdown_gate),
    ]


def rho_sweep(seed: int) -> list:
    del seed                     # fixed paper configuration
    return [
        Command("sweep_a", "rotnum-sweep",
                COMMON + "variant = symmetric\neps_target = 2.2\n"
                "sweep_which = a\nsweep_halfwidth = 0.08\nsweep_step = 0.004\n"
                "sweep_grid = 2048\nsweep_order = 4\nsweep_tol = 1e-9\n",
                _sweep_gate),
    ]


WORKLOADS = {
    "qp_paths": qp_paths,
    "qp_breakdown": qp_breakdown,
    "rho_sweep": rho_sweep,
}

# seconds one loop takes on the reference 2-core VM; a run does
# max(1, seconds // nominal) loops, so its work never depends on the
# speed it happens to measure
NOMINAL_LOOP_S = {
    "qp_paths": 5,
    "qp_breakdown": 20,
    "rho_sweep": 20,
}
