"""Spectral continuation of quasi-periodic invariant circles.

The package computes rotational invariant circles of dissipative
(conformally symplectic) annulus maps, continues them in a map
parameter while keeping the rotation number fixed, tracks non-twist
(shearless) circles through an averaged twist constraint, and
diagnoses their breakdown through the collapse of the angle between
the tangent and stable bundles.

Layout:

- ``fourier``: periodic grid functions, FFT-based shift/derivative
  algebra, dealiasing and the two cohomological solvers.
- ``maps``: the dissipative standard non-twist family and its
  parameter derivatives.
- ``frame``: ``TorusEmbedding``, the one circle type of both solvers;
  the adapted (tangent, stable) frame along a circle, its torsion and
  transfer solves, and the frame-angle diagnostic.
- ``solver_qp``: the quasi-periodic Newton solver with the rotation
  locked to a fixed irrational, plus continuation, breakdown fitting
  and the twist-surface driver.
- ``solver_general``: the grid-based solver with the internal circle
  map free (a cross-check of the quasi-periodic circles, with exact,
  cold-started Newton steps on the same dyadic grids) for a circle
  and an ``InternalMap``, which alone holds the interpolation order;
  rotation numbers by weighted Birkhoff averaging, and parameter sweeps
  from the ambient orbit.
- ``cli``: command-line driver writing CSV tables.
"""

from .errors import (
    ContractionFailureError,
    DegenerateCircleError,
    DivergenceError,
    FrameDegeneracyError,
    InversionError,
    MuDegeneracyError,
    NonFiniteError,
    NtCircleError,
    SmallDivisorError,
    ToleranceNotMetError,
    TwistDegeneracyError,
)
from .fourier import (
    PeriodicScalar,
    dealias,
    grid,
    resample,
    shift,
    solve_contractive,
    solve_small_divisor,
)
from .maps import Forcing, ParamPoint, StandardNonTwistMap, check_symmetry
from .frame import (
    AdaptedFrame,
    Diagnostics,
    TorusEmbedding,
    half_shift_deviation,
    min_angle,
    reducibility_error,
    tangent,
    torsion0,
    vartheta_general,
    vartheta_qp,
)
from .solver_qp import (
    GOLDEN_MEAN,
    BreakdownFit,
    ContinuationPolicy,
    ContinuationRecord,
    ContinuationResult,
    EpsDerivative,
    QpProblem,
    QpState,
    SurfacePath,
    breakdown_extrapolate,
    continue_in_eps,
    eps_derivative,
    frame_fields,
    newton_solve,
    twist_surface,
)
from .solver_general import (
    GeneralSolution,
    InternalMap,
    SweepRecord,
    ambient_rotation_number,
    induced_internal_map,
    invert_map,
    lock_fraction,
    newton_solve_general,
    newton_step_general,
    rotation_number,
    sweep_parameter,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptedFrame",
    "BreakdownFit",
    "ContinuationPolicy",
    "ContinuationRecord",
    "ContinuationResult",
    "ContractionFailureError",
    "DegenerateCircleError",
    "Diagnostics",
    "DivergenceError",
    "EpsDerivative",
    "Forcing",
    "FrameDegeneracyError",
    "GOLDEN_MEAN",
    "GeneralSolution",
    "InternalMap",
    "InversionError",
    "MuDegeneracyError",
    "NonFiniteError",
    "NtCircleError",
    "ParamPoint",
    "PeriodicScalar",
    "QpProblem",
    "QpState",
    "SmallDivisorError",
    "StandardNonTwistMap",
    "SurfacePath",
    "SweepRecord",
    "ToleranceNotMetError",
    "TorusEmbedding",
    "TwistDegeneracyError",
    "ambient_rotation_number",
    "breakdown_extrapolate",
    "check_symmetry",
    "continue_in_eps",
    "dealias",
    "eps_derivative",
    "frame_fields",
    "grid",
    "half_shift_deviation",
    "induced_internal_map",
    "invert_map",
    "lock_fraction",
    "min_angle",
    "newton_solve",
    "newton_solve_general",
    "newton_step_general",
    "reducibility_error",
    "resample",
    "rotation_number",
    "shift",
    "solve_contractive",
    "solve_small_divisor",
    "sweep_parameter",
    "tangent",
    "torsion0",
    "twist_surface",
    "vartheta_general",
    "vartheta_qp",
]
