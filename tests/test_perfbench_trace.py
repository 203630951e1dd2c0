"""The traced benchmark's tracer installs on the current package.

perfbench/spans.py patches named functions of the ntcircle modules; a
renamed or deleted one breaks the traced run, so it is caught here.
"""

import importlib.util
import pathlib

import numpy as np

from ntcircle import (
    GOLDEN_MEAN,
    InternalMap,
    ParamPoint,
    QpProblem,
    QpState,
    StandardNonTwistMap,
    TorusEmbedding,
    fourier,
    newton_solve,
    newton_solve_general,
)

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_layers_and_uninstalls():
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        fam = StandardNonTwistMap(0.8, "symmetric")
        start = QpState.flat_start(64, GOLDEN_MEAN)
        newton_solve(QpProblem(fam, omega=GOLDEN_MEAN),
                     QpState(start.k, start.a, start.mu, 0.3))
        n = 64
        newton_solve_general(TorusEmbedding.zero_section(n),
                             InternalMap.rotation(n, GOLDEN_MEAN), fam,
                             ParamPoint(0.01, GOLDEN_MEAN, 0.0))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    for name in ("fourier.fft_calls", "solver_qp.geometries",
                 "solver_general.stencil_builds",
                 "solver_general.newton_steps"):
        assert metrics[name] > 0, name
    assert patched
    assert all(getattr(owner, attr) is original
               for owner, attr, original in patched)
    assert fourier.np is np
