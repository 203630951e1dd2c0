"""ntcircle benchmark runner.

Runs one workload of CLI commands in this process, through
`ntcircle.cli.main`, from the source tree next to this directory, checks
every output against the paper, and prints the metrics as one JSON object
on the last line of standard output:

    python3 perfbench/run.py --workload qp_paths --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics, with times rescaled to a fixed
reference machine speed by perfbench/speed.py; --trace 1 runs the workload
untraced, traced, and untraced again, and prints the per-layer metrics.
Everything the run writes goes under .perfbench_work/ in the checkout.
See perfbench/NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools pinned to one thread before numpy can be imported
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse
import contextlib
import glob
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from spans import LAYER_UNITS, Tracer
from speed import timed
from workloads import NOMINAL_LOOP_S, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(WORK, "digests.json")
SETUP_REPEATS = 11


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "ntcircle", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def tree_digest(directory: str) -> dict:
    """sha256 of every file a command wrote, keyed by relative path."""
    out = {}
    for base, _, files in os.walk(directory):
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def setup_once(commands, work_dir: str, env: dict) -> None:
    """Import ntcircle in a fresh interpreter and write the configs."""
    # no timeout: with one, Popen.wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import ntcircle.cli"], env=env,
                   cwd=ROOT, check=True)
    os.makedirs(work_dir, exist_ok=True)
    for cmd in commands:
        with open(os.path.join(work_dir, cmd.label + ".cfg"), "w",
                  encoding="utf-8") as fh:
            fh.write(cmd.config)


class Run:
    """One benchmark invocation: loops of the workload's commands."""

    def __init__(self, workload: str, seed: int):
        self.commands = WORKLOADS[workload](seed)
        self.work = os.path.join(WORK, workload)
        self.attempted = 0
        self.failed = 0
        self.failures = []               # (loop, label, reason)
        self.loops = []                  # per loop: {label: seconds}
        # outputs must match the first loop of the first run that used the
        # same configs on the same sources in this checkout
        configs = "".join(c.command + c.config for c in self.commands)
        self.key = workload + ":" + hashlib.sha256(
            (configs + source_digest()).encode()).hexdigest()
        try:
            with open(DIGESTS, encoding="utf-8") as fh:
                self.known = json.load(fh)
        except (OSError, ValueError):
            self.known = {}
        self.reference = self.known.get(self.key)

    def loop(self, main) -> float:
        """Run every command once, check it; returns the commands' wall time."""
        k = len(self.loops)
        walls, digests = {}, {}
        for cmd in self.commands:
            out_dir = os.path.join(self.work, f"loop{k}", cmd.label)
            argv = [cmd.command, "--config",
                    os.path.join(self.work, cmd.label + ".cfg"), "--out", out_dir]
            captured = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured):
                    rc = main(argv)
            except Exception:            # a crash fails this command, not the run
                traceback.print_exc()
                rc = None
            walls[cmd.label] = time.perf_counter() - t0
            self.attempted += 1
            if rc is None:
                problems = ["command raised"]
            else:
                try:
                    problems = cmd.gate(out_dir, rc, captured.getvalue())
                except (OSError, KeyError, ValueError, IndexError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            digests[cmd.label] = tree_digest(out_dir)
            if self.reference is not None and \
                    digests[cmd.label] != self.reference.get(cmd.label):
                problems.append("outputs differ from the reference run")
            if problems:
                self.failed += 1
                self.failures.extend((k, cmd.label, p) for p in problems)
        if self.reference is None:
            self.reference = self.known[self.key] = digests
            with open(DIGESTS, "w", encoding="utf-8") as fh:
                json.dump(self.known, fh, indent=1, sort_keys=True)
        self.loops.append(walls)
        return sum(walls.values())


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def git_sha() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(os.path.join(ROOT, ".git", ref)).strip()
        if not sha:
            for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or None
    return head or None


def machine() -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level")).strip()
        kind = _read(os.path.join(index, "type")).strip()
        caches[f"L{level}-{kind}"] = _read(os.path.join(index, "size")).strip()
    return {
        "cpu_model": model,
        "caches": caches,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ntcircle", "cli.py")):
        print(f"error: no ntcircle source tree under {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    shutil.rmtree(run.work, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    # the parent only waits during set-up, so it is probed at the edges only
    setups = [timed(lambda: setup_once(run.commands, run.work, env), tick=False)
              for _ in range(SETUP_REPEATS)]

    sys.path.insert(0, SRC)
    import numpy
    from ntcircle import cli

    loops = []                           # untraced: a Timing per loop
    traced = None
    if args.trace:
        # a cold loop first, so the traced loop and the untraced loop it is
        # compared with both run warm; both are timed at the reference speed,
        # so their difference is the tracer's and not the machine's
        run.loop(cli.main)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed(lambda: run.loop(tracer.wrap("cli.main", cli.main)))
        finally:
            tracer.uninstall()
        untraced = timed(lambda: run.loop(cli.main))
    else:
        for _ in range(max(1, args.seconds // NOMINAL_LOOP_S[args.workload])):
            loops.append(timed(lambda: run.loop(cli.main)))

    if traced is None:
        metrics = {
            # one speed for all repeats: the few probes at the edges of one
            # short set-up are too noisy alone
            "setup_s": (statistics.median(t.wall_s for t in setups)
                        * statistics.fmean(t.speed for t in setups), "s"),
            "wall_ref_s": (statistics.median(t.ref_s for t in loops), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "pass_frac": ((run.attempted - run.failed) / run.attempted, "fraction"),
        }
    else:
        layer = tracer.metrics()
        layer["trace.untraced_wall_ref_s"] = untraced.ref_s
        layer["trace.wall_ref_s"] = traced.ref_s
        layer["trace.overhead_frac"] = traced.ref_s / untraced.ref_s - 1.0
        layer["trace.spans"] = len(tracer.spans)
        metrics = {name: (layer[name], unit) for name, unit in LAYER_UNITS.items()}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "machine": machine(),
        "setup_wall_s": [t.wall_s for t in setups],
        "setup_speed": [t.speed for t in setups],
        "loop_walls_s": run.loops,
        "loop_ref_s": [t.ref_s for t in loops],
        "loop_speed": [t.speed for t in loops],
        "loop_probes": [t.probes for t in loops],
        "failures": run.failures,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stem = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if traced is not None:
        tracer.write(stem + "-spans.csv.gz", stem + "-layers.csv")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, **result}, fh, indent=1)
    for loop, label, reason in run.failures:
        print(f"FAIL loop {loop} {label}: {reason}", file=sys.stderr)
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
