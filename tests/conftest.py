import contextlib

import pytest

from lgvlab.algebra import _Value


@pytest.fixture
def validating():
    """A context manager under which every ``_trusted`` construction goes
    through the public validating constructor instead, so that a value the
    library builds wrongly raises where it is built.  The one ``_trusted``
    is on the value base, so every class that builds through it is covered."""

    @contextlib.contextmanager
    def active():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Value, "_trusted",
                          classmethod(lambda cls, *args: cls(*args)))
            yield

    return active
