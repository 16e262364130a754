"""Signed sets and sijections (signed bijections).

A signed set S is a disjoint union of a positive part S+ and a negative
part S-.  A sijection phi: S => T is an ordinary bijection

    S+ |_| T-  ->  S- |_| T+,

which witnesses the equality of signed sizes |S+| - |S-| = |T+| - |T-|.
Sijections compose by the Garsia-Milne ping-pong construction: to map an
element of S+ through psi . phi, bounce it back and forth through the
middle signed set until it escapes out of the far side.  There is one
class: a sijection is a chain of stages, one built from two maps has one
stage, ``compose`` concatenates chains, and ``forward`` and ``backward``
run the same ping-pong walk along the chain, with each stage's forward or
backward map.  An inverse reverses the chain and inverts each stage.
A walk that revisits a landing is refused with ``SijectionError`` and one
longer than the guard limit with ``GuardExceeded``.

Elements moving through a sijection are tagged with the side they sit on
("source" or "target") and their sign (+1 or -1).  Applications optionally
append every landing to a trace list, so a composite of many stages yields
a flat itinerary of intermediate elements.
"""

from functools import reduce
from typing import Callable, Iterable, Iterator, Optional

from .guards import GuardExceeded, resolve_guard_limit

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
    """A finite signed set, given by one generator of (payload, sign) pairs.

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

    def plus(self) -> Iterator:
        return (x for x, sign in self.elements() if sign == 1)

    def minus(self) -> Iterator:
        return (x for x, sign in self.elements() if sign == -1)

    def signed_size(self) -> int:
        return sum(sign for _, sign in self.elements())

    def size(self) -> int:
        return sum(1 for _ in self.elements())

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
    ``(side, sign, payload)`` and return the same shape.
    It is a chain of stages ``(name, forward_map, backward_map)``, stage i
    a sijection X_i => X_i+1 from X_0 = S to X_k = T; an inverted stage
    carries the stage it inverts as a fourth entry.

    One application runs at most ``guard_limit`` stage maps (the effective
    guard limit, see ``lgvlab.guards``) and raises ``GuardExceeded`` past
    that; a composite keeps the smaller limit of its parts.
    """

    _base = None  # on an inverse, the sijection it inverts

    def __init__(self, name: str, source: SignedSet, target: SignedSet,
                 forward: Callable[[Tagged], Tagged],
                 backward: Callable[[Tagged], Tagged],
                 guard_limit: int | None = None):
        self.name = name
        self.source = source
        self.target = target
        self._stages = ((name, forward, backward),)
        self._hop_limit = resolve_guard_limit(guard_limit)

    def forward(self, tagged: Tagged, trace: Optional[list] = None) -> Tagged:
        _check_domain(tagged, _DOMAIN, self.name)
        return self._walk(tagged, 1, _CODOMAIN, " (forward image)", trace)

    def backward(self, tagged: Tagged, trace: Optional[list] = None) -> Tagged:
        _check_domain(tagged, _CODOMAIN, self.name)
        return self._walk(tagged, 2, _DOMAIN, " (backward image)", trace)

    def _walk(self, tagged: Tagged, which: int, image, label: str,
              trace: Optional[list]) -> Tagged:
        # The Garsia-Milne ping-pong with each stage's forward (which=1) or
        # backward (which=2) map: an image on a stage's target side moves on
        # to the next stage, one on its source side back to the previous one,
        # until it steps off the chain.  Each landing decides the rest of the
        # walk, so revisiting one means a cycle the walk can never escape.
        # Brent's check finds it with one saved landing, replaced whenever
        # the hop count reaches a power of two, and the hop budget bounds
        # every walk, cycle or not.
        stages = self._stages
        last = len(stages)
        limit = self._hop_limit
        k = 0 if tagged[0] == SOURCE else last - 1
        saved = None
        hops = 0
        while True:
            hops += 1
            if hops > limit:
                raise GuardExceeded("ping-pong hops", hops, limit)
            stage = stages[k]
            tagged = stage[which](tagged)
            side, sign, payload = tagged
            if (side, sign) not in image:
                _check_domain(tagged, image, stage[0] + label)
            if trace is not None:
                trace.append((sign, payload))
            boundary = k + 1 if side == TARGET else k  # it lands in X_boundary
            if boundary == 0 or boundary == last:
                return tagged
            landing = (boundary, sign, payload)
            if landing == saved:
                raise SijectionError(
                    f"{self.name}: ping-pong revisited middle element "
                    f"{payload!r} with sign {_SIGN_CHAR[sign]}")
            if hops & (hops - 1) == 0:
                saved = landing
            if side == TARGET:
                k += 1
                tagged = (SOURCE, sign, payload)
            else:
                k -= 1
                tagged = (TARGET, sign, payload)

    def inverse(self) -> "Sijection":
        """The sijection T => S: the stages in reverse order, each with its
        two maps exchanged and read with the tags flipped.  Its inverse is
        ``self`` again."""
        if self._base is not None:
            return self._base
        inverse = _chain(f"inverse({self.name})", self.target, self.source,
                         tuple(map(_invert_stage, reversed(self._stages))),
                         self._hop_limit)
        inverse._base = self
        return inverse

    def __repr__(self) -> str:
        return f"Sijection({self.name!r}: {self.source.name} => {self.target.name})"


def _chain(name: str, source: SignedSet, target: SignedSet,
           stages: tuple, hop_limit: int) -> Sijection:
    """The sijection S => T that runs ``stages`` in order, refusing an
    application past ``hop_limit`` stage maps."""
    sij = object.__new__(Sijection)
    sij.name, sij.source, sij.target, sij._stages = name, source, target, stages
    sij._hop_limit = hop_limit
    return sij


def _flip(tagged: Tagged) -> Tagged:
    side, sign, payload = tagged
    return (TARGET if side == SOURCE else SOURCE, sign, payload)


def _invert_stage(stage: tuple) -> tuple:
    """The stage read the other way.  An inverted stage keeps the stage it
    came from as a fourth entry, which the walk never reads, so inverting
    it again gives that stage back instead of flipping the tags twice."""
    if len(stage) == 4:
        return stage[3]
    name, forward, backward = stage
    return (f"inverse({name})",
            lambda tagged: _flip(backward(_flip(tagged))),
            lambda tagged: _flip(forward(_flip(tagged))),
            stage)


def sijection_from_bijection(name: str, source: SignedSet, target: SignedSet,
                             fn: Callable, fn_inv: Callable,
                             guard_limit: int | None = None) -> Sijection:
    """Lift a sign-preserving bijection S -> T to a sijection S => T.

    ``fn`` must carry S+ onto T+ and S- onto T-; ``fn_inv`` is its inverse.
    ``guard_limit`` bounds the hops as in ``Sijection``.
    """

    def forward(tagged: Tagged) -> Tagged:
        side, sign, payload = tagged
        if side == SOURCE:
            return (TARGET, 1, fn(payload))
        return (SOURCE, -1, fn_inv(payload))

    def backward(tagged: Tagged) -> Tagged:
        side, sign, payload = tagged
        if side == TARGET:
            return (SOURCE, 1, fn_inv(payload))
        return (TARGET, -1, fn(payload))

    return Sijection(name, source, target, forward, backward, guard_limit)


def compose(phi: Sijection, psi: Sijection) -> Sijection:
    """Compose phi: S => T with psi: T => U into a sijection S => U, the
    chain of phi's stages followed by psi's, under the smaller of their
    hop limits."""
    return _chain(f"({psi.name} . {phi.name})", phi.source, psi.target,
                  phi._stages + psi._stages,
                  min(phi._hop_limit, psi._hop_limit))


def compose_all(*sijections: Sijection) -> Sijection:
    if not sijections:
        raise ValueError("compose_all needs at least one sijection")
    return reduce(compose, sijections)


def evaluate_with_trace(sij: Sijection, payload) -> tuple[object, list[Tagged]]:
    """Apply ``sij`` forward to a positive source element, recording every
    landing.

    Returns ``(image, steps)`` where steps is a list of
    ``(label, sign, payload)`` triples starting from the input element.
    The first step is labelled "source", the last "target", and everything
    in between "middle".
    """
    hops: list = []
    side, sign, image = sij.forward((SOURCE, 1, payload), hops)
    if side != TARGET or sign != 1:
        raise SijectionError(
            f"{sij.name}: positive source element landed in ({side}, "
            f"{_SIGN_CHAR[sign]}); the restriction to S+ is not a bijection "
            "onto T+")
    steps: list[Tagged] = [(SOURCE, 1, payload)]
    for k, (hsign, hpayload) in enumerate(hops):
        label = TARGET if k == len(hops) - 1 else "middle"
        steps.append((label, hsign, hpayload))
    return image, steps


def trace_to_json(steps: list[Tagged]) -> list[dict]:
    """Render trace steps as JSON rows {"element", "set", "sign"}; an
    element is its payload's ``to_json()``, or the payload itself."""
    return [{"element": (payload.to_json() if hasattr(payload, "to_json")
                         else payload),
             "set": label, "sign": _SIGN_CHAR[sign]}
            for label, sign, payload in steps]


def _sides(sij: Sijection) -> tuple[list[Tagged], list[Tagged]]:
    """The domain S+ |_| T- and the codomain S- |_| T+ of ``sij`` as tagged
    lists, each ordered source first; each signed set is walked once.

    The target is walked first: a source that reads its elements off the
    target's stream once it has been walked (as the non-intersecting side
    of ``lgv_sijection`` does) then builds none of them again."""
    target_plus, target_minus, source_plus, source_minus = [], [], [], []
    for side, signed_set, plus, minus in (
            (TARGET, sij.target, target_plus, target_minus),
            (SOURCE, sij.source, source_plus, source_minus)):
        for payload, sign in signed_set.elements():
            (plus if sign == 1 else minus).append((side, sign, payload))
    return source_plus + target_minus, source_minus + target_plus


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

    for x in domain:
        try:
            y = sij.forward(x)
        except SijectionError as exc:
            problems.append(f"forward failed on {x!r}: {exc}")
            continue
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
