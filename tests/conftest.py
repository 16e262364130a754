import contextlib

import pytest

import lgvlab  # noqa: F401  (imports every module, hence every value class)
import lgvlab.bijections
from lgvlab.algebra import _Value


def _trusted_builders() -> list[type]:
    """The value classes that define their own ``_trusted``: the base,
    and each subclass that replaces it with a fixed-arity builder."""
    found, pending = [], [_Value]
    while pending:
        cls = pending.pop()
        if "_trusted" in vars(cls):
            found.append(cls)
        pending += cls.__subclasses__()
    return found


@pytest.fixture
def validating():
    """A context manager under which every ``_trusted`` construction goes
    through the public validating constructor instead, so that a value the
    library builds wrongly raises where it is built.  Every class that
    defines a ``_trusted`` of its own is patched, the base's covering the
    classes that inherit it."""

    @contextlib.contextmanager
    def active():
        with pytest.MonkeyPatch.context() as patch:
            for cls in _trusted_builders():
                patch.setattr(cls, "_trusted",
                              classmethod(lambda cls, *args: cls(*args)))
            yield

    return active


@pytest.fixture
def trusted_builders():
    """The classes whose ``_trusted`` the ``validating`` fixture patches."""
    return _trusted_builders()


@pytest.fixture
def fresh_maps():
    """No endpoints kept by the maps: each instance's are built again."""
    lgvlab.bijections._kept_pp_endpoints.cache_clear()
    lgvlab.bijections._kept_tableau_endpoints.cache_clear()
