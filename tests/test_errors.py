"""Every error class of the package crosses a process boundary intact."""

import inspect
import pickle

import pytest

from ntcircle import errors

CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass)
           if issubclass(c, errors.NtCircleError)]

# constructor arguments of the classes whose __init__ takes more than a
# message; every other class is built from a message alone
ARGS = {
    errors.SmallDivisorError: (3, 1e-14, 1e-13, "1 - e(k omega)"),
    errors.DivergenceError: ("pumping", 2.5e-9),
    errors.ToleranceNotMetError: (0.5, "cap reached"),
}


def test_every_error_class_is_listed():
    assert len(CLASSES) == 11
    custom = {c for c in CLASSES if "__init__" in vars(c)}
    assert custom == set(ARGS)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_round_trips_through_pickle(cls):
    error = cls(*ARGS.get(cls, ("the message",)))
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert str(back) == str(error) and back.args == error.args
    assert vars(back) == vars(error)
    for name in ("k", "divisor", "residual", "best"):
        assert getattr(back, name, None) == getattr(error, name, None)
