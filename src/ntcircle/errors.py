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

    `residual` is the floor the iteration reached, its best sup-norm
    invariance error, when it stopped on pumping, its gap or the spent
    budget (newton_solve), or short of tolerance (newton_solve_general).
    A blow-up has no floor: its residual is nan, and its message names
    the blown-up error.  continue_in_eps reads a small residual as the
    floor of the grid, which it regrids on when it is high; a nan never
    compares above a threshold, so a blow-up is never taken for one.
    """

    def __init__(self, message: str, residual: float = float("nan")):
        self.residual = residual
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
