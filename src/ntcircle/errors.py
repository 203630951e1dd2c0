"""Typed failure modes of the circle solvers.

Plain precondition violations (bad grid sizes, parameters out of range)
raise ValueError; the classes here mark numerical or dynamical failures
that callers may want to catch and react to, e.g. by halving a
continuation step or stopping a sweep.
"""


class NtCircleError(Exception):
    """Base class for all solver failures.

    Every subclass pickles with its type, message and attributes: it is
    rebuilt from its args and attributes without its __init__, whatever
    that takes, so an error raised in a worker process (fourier.split_items)
    reaches the caller as it would in serial.
    """

    def __reduce__(self):
        return _rebuilt, (type(self), self.args, self.__dict__)


def _rebuilt(cls, args: tuple, attributes: dict) -> NtCircleError:
    """The error of type cls with args and attributes, __init__ not run."""
    error = cls.__new__(cls, *args)
    error.__dict__.update(attributes)
    return error


class SmallDivisorError(NtCircleError):
    """A cohomological divisor on the represented modes is below the floor.

    name is the divisor's formula, as the message prints it, and floor
    the bound it fell below.
    """

    def __init__(self, k: int, divisor: float, floor: float, name: str):
        self.k = k
        self.divisor = divisor
        super().__init__(
            f"divisor {name} = {divisor:.3e} at mode k = {k} "
            f"is below the {floor:.0e} floor; omega is too close to "
            f"resonant on this grid"
        )


class DegenerateCircleError(NtCircleError):
    """The tangent vector of the embedding (nearly) vanishes somewhere."""


class FrameDegeneracyError(NtCircleError):
    """The assembled frame failed its unit-determinant check."""


class ContractionFailureError(NtCircleError):
    """A transfer fixed-point iteration did not contract."""


class MuDegeneracyError(NtCircleError):
    """The drift direction has (numerically) zero projected average."""


class TwistDegeneracyError(NtCircleError):
    """The scalar twist closure has a vanishing sensitivity to a."""


class NonFiniteError(NtCircleError, ValueError):
    """A field came out with non-finite samples: a solver blow-up."""


class DivergenceError(NtCircleError):
    """Newton ran out of iterations or the residual blew up.

    `residual` is a sup-norm invariance error and `tail` a raw spectral
    tail fraction; which ones depends on the stop:

    - newton_solve on a blow-up: the blown-up error, and no tail (nan);
    - newton_solve when the residual stopped contracting (pumping) or
      the budget ran out: the best error the iteration reached, and the
      tail of that iterate;
    - newton_solve_general: its best error, and no tail.

    A small residual over a fat tail marks a circle the grid no longer
    resolves, and continue_in_eps regrids on it; a nan tail never
    compares above a threshold, so a blow-up is never taken for one.
    """

    def __init__(self, message: str, residual: float = float("nan"),
                 tail: float = float("nan")):
        self.residual = residual
        self.tail = tail
        super().__init__(message)


class InversionError(NtCircleError):
    """A circle map could not be inverted (non-monotone data)."""


class ToleranceNotMetError(NtCircleError):
    """An averaging process hit its cap before reaching the tolerance.

    Carries the best estimate so callers can degrade gracefully instead
    of discarding the run.
    """

    def __init__(self, best: float, message: str):
        self.best = best
        super().__init__(message)
