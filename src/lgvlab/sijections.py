"""Signed sets and sijections (signed bijections).

A signed set S is a disjoint union of a positive part S+ and a negative
part S-.  A sijection phi: S => T is an ordinary bijection

    S+ |_| T-  ->  S- |_| T+,

which witnesses the equality of signed sizes |S+| - |S-| = |T+| - |T-|.
Sijections compose by the Garsia-Milne ping-pong construction: to map an
element of S+ through psi . phi, bounce it back and forth through the
middle signed set until it escapes out of the far side.  An inverse is a
plain ``Sijection`` of the same two maps exchanged, so the ping-pong
composite is the only subclass.

Elements moving through a sijection are tagged with the side they sit on
("source" or "target") and their sign (+1 or -1).  Applications optionally
append every landing to a trace list, so a composite of many stages yields
a flat itinerary of intermediate elements.
"""

from typing import Callable, Iterable, Iterator, Optional

Tagged = tuple[str, int, object]

SOURCE = "source"
TARGET = "target"

_SIGN_CHAR = {1: "+", -1: "-"}
_MAX_PROBLEMS = 5


class SijectionError(Exception):
    """Raised when a sijection is applied outside its domain or fails to
    terminate (which can only happen if a constituent map is not actually
    a bijection)."""


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
    """

    _base = None  # on an inverse, the sijection it inverts

    def __init__(self, name: str, source: SignedSet, target: SignedSet,
                 forward: Callable[[Tagged], Tagged],
                 backward: Callable[[Tagged], Tagged]):
        self.name = name
        self.source = source
        self.target = target
        self._forward = forward
        self._backward = backward

    def forward(self, tagged: Tagged, trace: Optional[list] = None) -> Tagged:
        _check_domain(tagged, ((SOURCE, 1), (TARGET, -1)), self.name)
        result = self._forward(tagged)
        _check_domain(result, ((SOURCE, -1), (TARGET, 1)),
                      self.name + " (forward image)")
        if trace is not None:
            trace.append((result[1], result[2]))
        return result

    def backward(self, tagged: Tagged, trace: Optional[list] = None) -> Tagged:
        _check_domain(tagged, ((SOURCE, -1), (TARGET, 1)), self.name)
        result = self._backward(tagged)
        _check_domain(result, ((SOURCE, 1), (TARGET, -1)),
                      self.name + " (backward image)")
        if trace is not None:
            trace.append((result[1], result[2]))
        return result

    def inverse(self) -> "Sijection":
        """The sijection T => S: the two maps exchanged, read with the tags
        flipped.  Its inverse is ``self`` again."""
        if self._base is not None:
            return self._base
        forward, backward = self._forward, self._backward
        inverse = Sijection(f"inverse({self.name})", self.target, self.source,
                            lambda tagged: _flip(backward(_flip(tagged))),
                            lambda tagged: _flip(forward(_flip(tagged))))
        inverse._base = self
        return inverse

    def __repr__(self) -> str:
        return f"Sijection({self.name!r}: {self.source.name} => {self.target.name})"


def _flip(tagged: Tagged) -> Tagged:
    side, sign, payload = tagged
    return (TARGET if side == SOURCE else SOURCE, sign, payload)


def sijection_from_bijection(name: str, source: SignedSet, target: SignedSet,
                             fn: Callable, fn_inv: Callable) -> Sijection:
    """Lift a sign-preserving bijection S -> T to a sijection S => T.

    ``fn`` must carry S+ onto T+ and S- onto T-; ``fn_inv`` is its inverse.
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

    return Sijection(name, source, target, forward, backward)


class _ComposedSijection(Sijection):
    """Garsia-Milne composite of phi: S => T and psi: T => U."""

    def __init__(self, phi: Sijection, psi: Sijection):
        self.phi = phi
        self.psi = psi
        name = f"({psi.name} . {phi.name})"
        # forward/backward are overridden wholesale; no atomic callables.
        super().__init__(name, phi.source, psi.target, None, None)

    # The ping-pong loop.  Landings in the middle set are recorded per
    # call; revisiting one would mean the trajectory entered a cycle and
    # can never escape, so we abort rather than loop forever.

    def forward(self, tagged: Tagged, trace: Optional[list] = None) -> Tagged:
        _check_domain(tagged, ((SOURCE, 1), (TARGET, -1)), self.name)
        # phi borders the source and psi the target; an element escapes
        # when the map just applied sends it out of its own outer side.
        outer = tagged[0]
        current = (self.phi if outer == SOURCE else self.psi).forward(
            tagged, trace)
        visited = set()
        while current[0] != outer:
            _, csign, cpayload = current
            if (csign, cpayload) in visited:
                raise SijectionError(
                    f"{self.name}: ping-pong revisited middle element "
                    f"{cpayload!r} with sign {_SIGN_CHAR[csign]}")
            visited.add((csign, cpayload))
            if csign == 1:
                outer = TARGET
                current = self.psi.forward((SOURCE, 1, cpayload), trace)
            else:
                outer = SOURCE
                current = self.phi.forward((TARGET, -1, cpayload), trace)
        return current

    def backward(self, tagged: Tagged, trace: Optional[list] = None) -> Tagged:
        # backward is the forward ping-pong of the inverse composite, read
        # with source and target exchanged.
        _check_domain(tagged, ((SOURCE, -1), (TARGET, 1)), self.name)
        return _flip(self.inverse().forward(_flip(tagged), trace))

    def inverse(self) -> Sijection:
        return _ComposedSijection(self.psi.inverse(), self.phi.inverse())


def compose(phi: Sijection, psi: Sijection) -> Sijection:
    """Compose phi: S => T with psi: T => U into a sijection S => U."""
    return _ComposedSijection(phi, psi)


def compose_all(*sijections: Sijection) -> Sijection:
    seq = list(sijections)
    if not seq:
        raise ValueError("compose_all needs at least one sijection")
    result = seq[0]
    for sij in seq[1:]:
        result = compose(result, sij)
    return result


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
    lists, each ordered source first; each signed set is walked once."""
    domain, codomain = [], []
    for side, signed_set in ((SOURCE, sij.source), (TARGET, sij.target)):
        for payload, sign in signed_set.elements():
            into = domain if (side == SOURCE) == (sign == 1) else codomain
            into.append((side, sign, payload))
    return domain, codomain


def check_sijection(sij: Sijection) -> list[str]:
    """Exhaustively verify that ``sij`` is a genuine sijection.

    Checks that forward maps S+ |_| T- bijectively onto S- |_| T+ and that
    backward inverts it.  Returns a list of problem descriptions (with
    witnesses), empty when everything holds.
    """
    problems: list[str] = []
    domain, codomain = _sides(sij)
    codomain_set = set(codomain)
    if len(codomain_set) != len(codomain):
        problems.append("codomain contains repeated elements")

    seen: dict = {}
    for x in domain:
        try:
            y = sij.forward(x)
        except SijectionError as exc:
            problems.append(f"forward failed on {x!r}: {exc}")
            continue
        if y not in codomain_set:
            problems.append(f"forward({x!r}) = {y!r} lies outside S- |_| T+")
            continue
        if y in seen:
            problems.append(f"forward is not injective: {seen[y]!r} and {x!r} "
                            f"both map to {y!r}")
            continue
        seen[y] = x
        try:
            back = sij.backward(y)
        except SijectionError as exc:
            problems.append(f"backward failed on {y!r}: {exc}")
            continue
        if back != x:
            problems.append(f"backward(forward({x!r})) = {back!r} != {x!r}")
    for y in codomain:
        if y not in seen:
            problems.append(f"forward is not surjective: {y!r} has no preimage")
    return problems[:_MAX_PROBLEMS]


def check_compatibility(sij: Sijection, source_stat: Callable,
                        target_stat: Callable) -> list[str]:
    """Verify that ``sij`` carries ``source_stat`` to ``target_stat``.

    A sijection is compatible with a pair of statistics when every element
    and its image share the statistic value (reading the statistic off
    whichever set the element belongs to).  Both directions are checked.
    """
    problems: list[str] = []

    def stat(tagged: Tagged) -> int:
        side, _, payload = tagged
        return source_stat(payload) if side == SOURCE else target_stat(payload)

    domain, codomain = _sides(sij)
    for x in domain:
        y = sij.forward(x)
        if stat(x) != stat(y):
            problems.append(f"statistic changes along forward: {x!r} has "
                            f"{stat(x)} but {y!r} has {stat(y)}")
    for y in codomain:
        x = sij.backward(y)
        if stat(x) != stat(y):
            problems.append(f"statistic changes along backward: {y!r} has "
                            f"{stat(y)} but {x!r} has {stat(x)}")
    return problems[:_MAX_PROBLEMS]
