import contextlib

import pytest

from lgvlab.bijections import SwapCertificate
from lgvlab.objects import _Filling
from lgvlab.paths import SignedPathFamily

# The classes whose values the library builds from checked parts through a
# private ``_trusted`` path that skips the checks.
TRUSTED = (SignedPathFamily, SwapCertificate, _Filling)


@pytest.fixture
def validating():
    """A context manager under which every ``_trusted`` construction goes
    through the public validating constructor instead, so that a value the
    library builds wrongly raises where it is built."""

    @contextlib.contextmanager
    def active():
        with pytest.MonkeyPatch.context() as patch:
            for cls in TRUSTED:
                patch.setattr(cls, "_trusted",
                              classmethod(lambda cls, *args: cls(*args)))
            yield

    return active
