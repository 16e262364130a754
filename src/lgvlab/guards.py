"""Enumeration guards and the ping-pong hop budget.

Every exhaustive enumeration in this package is bounded by a guard limit:
before materializing a combinatorial family we estimate its size by a cheap
closed-form count (a determinant or permanent of binomial coefficients) and
refuse to proceed if the estimate exceeds the limit.  This turns a runaway
computation into an immediate, diagnosable error.

The same limit bounds the ping-pong of the two maps: the walk counts one
hop per map it applies and raises ``GuardExceeded("ping-pong hops", ...)``
once it would apply more.  No closed form predicts an orbit's length, so
this guard fires during the walk.  A walk that revisits no landing lands
on each of the N signed families (``count_families``) in each of its two
copies at most once, so it takes at most 2N + 1 hops, far too loose to
refuse by: (4,4,4), m=4 has N = 1,012,536, yet the longest of its first
200 orbits takes 215 hops.

The default limit is 10**7 objects.  It can be overridden per call (the
``guard_limit`` keyword accepted throughout), or globally through the
``LGVLAB_GUARD_LIMIT`` environment variable.
"""

import os

from .algebra import _decimal

DEFAULT_GUARD_LIMIT = 10**7

ENV_VAR = "LGVLAB_GUARD_LIMIT"


class GuardExceeded(RuntimeError):
    """An enumeration was refused because its projected size exceeds the guard."""

    def __init__(self, what: str, projected: int, limit: int):
        super().__init__(f"{what}: projected size {_decimal(projected)} "
                         f"exceeds guard limit {_decimal(limit)}")
        self.what = what
        self.projected = projected
        self.limit = limit


def resolve_guard_limit(guard_limit: int | None = None) -> int:
    """Return the effective guard limit.

    Explicit argument wins, then the LGVLAB_GUARD_LIMIT environment variable,
    then the built-in default.  A negative limit would refuse even a single
    object, so it raises ValueError; 0 is allowed.
    """
    name = "guard limit"
    if guard_limit is None:
        env = os.environ.get(ENV_VAR)
        if env is None:
            return DEFAULT_GUARD_LIMIT
        try:
            guard_limit, name = int(env), ENV_VAR
        except ValueError as exc:
            raise ValueError(f"{ENV_VAR} must be an integer, got {env!r}") from exc
    if guard_limit < 0:
        raise ValueError(f"{name} must be nonnegative, got {guard_limit}")
    return guard_limit


def check_guard(what: str, projected: int, guard_limit: int | None = None) -> None:
    """Raise GuardExceeded if ``projected`` exceeds the effective limit."""
    limit = resolve_guard_limit(guard_limit)
    if projected > limit:
        raise GuardExceeded(what, projected, limit)
