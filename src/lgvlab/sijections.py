"""Signed sets and sijections (signed bijections).

A signed set S is a disjoint union of a positive part S+ and a negative
part S-.  A sijection phi: S => T is an ordinary bijection

    S+ |_| T-  ->  S- |_| T+,

which witnesses the equality of signed sizes |S+| - |S-| = |T+| - |T-|.
A ``Sijection`` holds that bijection as two maps, ``forward`` and its
inverse ``backward``, and checks every element it is given and every
image it returns against their sides.  The maps of ``lgvlab.bijections``
run the Garsia-Milne ping-pong inside one such map; ``check_sijection``
and ``check_compatibility`` test a sijection exhaustively.

Elements moving through a sijection are tagged with the side they sit on
("source" or "target") and their sign (+1 or -1).  Applications optionally
append every landing to a trace list, so a ping-pong yields its whole
itinerary of intermediate elements.
"""

from typing import Callable, Iterable, Iterator, Optional

Tagged = tuple[str, int, object]

SOURCE = "source"
TARGET = "target"

_DOMAIN = ((SOURCE, 1), (TARGET, -1))  # S+ |_| T-, which forward maps
_CODOMAIN = ((SOURCE, -1), (TARGET, 1))  # S- |_| T+, which backward maps
_SIGN_CHAR = {1: "+", -1: "-"}
_MAX_PROBLEMS = 5
_OUTSIDE = object()  # what ``_round_trips`` reads for an image off the codomain


class SijectionError(Exception):
    """Raised when a sijection is applied outside its domain or its
    ping-pong enters a cycle (which can only happen if a constituent map is
    not actually a bijection)."""


class SignedSet:
    """A finite signed set, given by one generator of (payload, sign) pairs
    and read through ``elements()`` alone.

    The first walk that runs to the end keeps the pairs, and every later
    walk replays them, so the generator runs once.  A walk that raises or
    stops early keeps nothing.
    """

    def __init__(self, name: str,
                 elements: Callable[[], Iterable[tuple[object, int]]]):
        self.name = name
        self._elements = elements
        self._stream: Optional[list] = None

    def elements(self) -> Iterator[tuple[object, int]]:
        """Yield (payload, sign) pairs in stream order; positive and negative
        elements may interleave."""
        if self._stream is not None:
            return iter(self._stream)
        return self._walk()

    def _walk(self) -> Iterator[tuple[object, int]]:
        stream = []
        for pair in self._elements():
            stream.append(pair)
            yield pair
        self._stream = stream

    def __repr__(self) -> str:
        return f"SignedSet({self.name!r})"


def _check_domain(tagged: Tagged, want: tuple[tuple[str, int], ...], name: str):
    side, sign, _ = tagged
    if (side, sign) not in want:
        allowed = " or ".join(f"({s}, {_SIGN_CHAR[g]})" for s, g in want)
        raise SijectionError(
            f"{name}: element tagged ({side}, {_SIGN_CHAR.get(sign, sign)}) "
            f"is outside the domain; expected {allowed}")


class Sijection:
    """A sijection between two signed sets.

    ``forward`` realises the bijection S+ |_| T- -> S- |_| T+ and
    ``backward`` its inverse.  Both act on tagged triples
    ``(side, sign, payload)`` and return the same shape.  Each map is
    called as ``map(tagged, trace)``; given a trace list, it appends the
    ``(sign, payload)`` landings it passes through, and the sijection then
    appends the image's.
    """

    def __init__(self, name: str, source: SignedSet, target: SignedSet,
                 forward: Callable[[Tagged, Optional[list]], Tagged],
                 backward: Callable[[Tagged, Optional[list]], Tagged]):
        self.name = name
        self.source = source
        self.target = target
        self._forward = forward
        self._backward = backward

    def forward(self, tagged: Tagged, trace: Optional[list] = None) -> Tagged:
        _check_domain(tagged, _DOMAIN, self.name)
        return _landed(self._forward(tagged, trace), _CODOMAIN,
                       self.name + " (forward image)", trace)

    def backward(self, tagged: Tagged, trace: Optional[list] = None) -> Tagged:
        _check_domain(tagged, _CODOMAIN, self.name)
        return _landed(self._backward(tagged, trace), _DOMAIN,
                       self.name + " (backward image)", trace)

    def __repr__(self) -> str:
        return f"Sijection({self.name!r}: {self.source.name} => {self.target.name})"


def _landed(image: Tagged, want: tuple, name: str,
            trace: Optional[list]) -> Tagged:
    """``image``, checked to lie on the sides ``want`` and appended to
    ``trace`` when there is one."""
    _check_domain(image, want, name)
    if trace is not None:
        trace.append(image[1:])
    return image


def trace_to_json(steps: list[Tagged]) -> list[dict]:
    """Render trace steps as JSON rows {"element", "set", "sign"}; an
    element is its payload's ``to_json()``, or the payload itself."""
    return [{"element": (payload.to_json() if hasattr(payload, "to_json")
                         else payload),
             "set": label, "sign": _SIGN_CHAR[sign]}
            for label, sign, payload in steps]


def _sides(sij: Sijection) -> tuple[list[Tagged], list[Tagged]]:
    """The domain S+ |_| T- and the codomain S- |_| T+ of ``sij`` as tagged
    lists, each ordered source first; each signed set is walked once."""
    domain, codomain = [], []
    for side, signed_set, plus, minus in (
            (SOURCE, sij.source, domain, codomain),
            (TARGET, sij.target, codomain, domain)):
        for payload, sign in signed_set.elements():
            (plus if sign == 1 else minus).append((side, sign, payload))
    return domain, codomain


def check_sijection(sij: Sijection) -> list[str]:
    """Exhaustively verify that ``sij`` is a genuine sijection.

    Checks that forward maps S+ |_| T- bijectively onto S- |_| T+ and that
    backward inverts it.  Returns a list of problem descriptions (with
    witnesses), empty when everything holds.
    """
    return _round_trips(sij)[0]


def _round_trips(sij: Sijection) -> tuple[list[str], list[tuple]]:
    """One round trip per element: forward each element x of S+ |_| T-
    once and send its image back once.  Returns ``check_sijection``'s
    problems and the pairs ``(x, forward(x))`` whose round trip held, in
    domain order.  When there are no problems these pairs are all of
    forward, and so (read the other way) all of backward."""
    problems: list[str] = []
    pairs: list[tuple] = []
    domain, codomain = _sides(sij)
    # each codomain element mapped to its preimage, None until it has one
    preimage: dict = dict.fromkeys(codomain)
    if len(preimage) != len(codomain):
        problems.append("codomain contains repeated elements")

    # a failure is appended to the problems as it happens, in domain order
    for x, y in _images(sij.forward, domain, "forward", problems):
        earlier = preimage.get(y, _OUTSIDE)
        if earlier is _OUTSIDE:
            problems.append(f"forward({x!r}) = {y!r} lies outside S- |_| T+")
            continue
        if earlier is not None:
            problems.append(f"forward is not injective: {earlier!r} and {x!r} "
                            f"both map to {y!r}")
            continue
        preimage[y] = x
        try:
            back = sij.backward(y)
        except SijectionError as exc:
            problems.append(f"backward failed on {y!r}: {exc}")
            continue
        if back != x:
            problems.append(f"backward(forward({x!r})) = {back!r} != {x!r}")
            continue
        pairs.append((x, y))
    for y in codomain:
        if preimage[y] is None:
            problems.append(f"forward is not surjective: {y!r} has no preimage")
    return problems[:_MAX_PROBLEMS], pairs


def check_compatibility(sij: Sijection, source_stat: Callable,
                        target_stat: Callable) -> list[str]:
    """Verify that ``sij`` carries ``source_stat`` to ``target_stat``.

    A sijection is compatible with a pair of statistics when every element
    and its image share the statistic value (reading the statistic off
    whichever set the element belongs to).  Both directions are checked.
    The backward half is redundant only after a passing ``check_sijection``:
    then backward is forward read the other way.  Alone, it is what catches
    a backward map that breaks the statistic while forward keeps it.
    An element its map fails on is reported as ``check_sijection`` reports
    it, ``forward failed on ...``, and the check goes on.
    """
    domain, codomain = _sides(sij)
    problems: list[str] = []
    for direction, fn, elements in (("forward", sij.forward, domain),
                                    ("backward", sij.backward, codomain)):
        failures: list[str] = []
        problems += _stat_changes(_images(fn, elements, direction, failures),
                                  source_stat, target_stat, direction)
        problems += failures
    return problems[:_MAX_PROBLEMS]


def _images(fn: Callable, elements: Iterable[Tagged], direction: str,
            failures: list[str]) -> Iterator[tuple]:
    """The pairs ``(x, fn(x))``; an element ``fn`` fails on is left out
    and described in ``failures`` instead.  ``direction`` names ``fn``."""
    for x in elements:
        try:
            y = fn(x)
        except SijectionError as exc:
            failures.append(f"{direction} failed on {x!r}: {exc}")
            continue
        yield x, y


def _stat_changes(pairs: Iterable[tuple], source_stat: Callable,
                  target_stat: Callable, direction: str) -> list[str]:
    """The first few pairs ``(element, image)`` whose statistic values
    differ, as problem descriptions; the statistic is read off whichever
    set each element sits in.  ``direction`` names the map that made the
    images."""
    problems: list[str] = []
    for x, y in pairs:
        sx = source_stat(x[2]) if x[0] == SOURCE else target_stat(x[2])
        sy = source_stat(y[2]) if y[0] == SOURCE else target_stat(y[2])
        if sx != sy:
            problems.append(f"statistic changes along {direction}: {x!r} has "
                            f"{sx} but {y!r} has {sy}")
    return problems[:_MAX_PROBLEMS]
