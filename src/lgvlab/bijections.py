"""Path-family sijections and the bijections built from them.

The central piece is the tail-swap involution on intersecting families:
cut the two lowest-indexed paths through the first common point and
exchange their tails.  It reverses the sign of a family, fixes nothing,
and is its own inverse, so it cancels the intersecting families out of
the signed count.  One loop of it and a word-level involution, the
Garsia-Milne involution principle, gives explicit bijections on plane
partitions (exchanging the zero-row and max-row statistics) and on
tableaux (permuting the weight).
"""

from functools import lru_cache

from .algebra import _Value, _ints, _slot_setters
from .guards import GuardExceeded, resolve_guard_limit
from .objects import PlanePartition, Tableau
from .paths import (
    Endpoints,
    Path,
    SignedPathFamily,
    _decode,
    _encode,
    _family_meet,
    _path,
    _point,
    enumerate_families,
    enumerate_ni_families,
    is_nonintersecting,
    plane_partition_endpoints,
    tableau_endpoints,
)
from .sijections import (
    _SIGN_CHAR,
    SOURCE,
    TARGET,
    SignedSet,
    Sijection,
    SijectionError,
    trace_to_json,
)


class SwapCertificate(_Value):
    """Where a tail swap acted: the common point and the two path indices.

    The same certificate describes the swap and its undoing, which is what
    makes the involution checkable step by step.  Path indices are stored
    zero-based; the JSON form is one-indexed to match the family format.
    The tail swap builds its certificates through ``_trusted``, which
    passes them to ``_fill`` without checking them again.
    """

    __slots__ = ("point", "paths")

    def __init__(self, point, paths):
        point = _point(point, "point")
        i, j = _ints(paths, "paths")
        if not 0 <= i < j:
            raise ValueError("certificate path indices must satisfy 0 <= i < j")
        self._fill(point, (i, j))

    def _fill(self, point: tuple, paths: tuple) -> None:
        """Set the slots: an integer point and integer indices i < j."""
        _set_point(self, point)
        _set_swap_paths(self, paths)

    # fixed arity, unlike ``_Value._trusted``, so the calls specialise
    @classmethod
    def _trusted(cls, point: tuple, paths: tuple) -> "SwapCertificate":
        self = object.__new__(cls)
        self._fill(point, paths)
        return self

    def _key(self) -> tuple:
        return (self.point, self.paths)

    def __repr__(self) -> str:
        return f"SwapCertificate(point={self.point}, paths={self.paths})"

    def to_json(self) -> dict:
        return {
            "point": list(self.point),
            "paths": [self.paths[0] + 1, self.paths[1] + 1],
        }


_set_point, _set_swap_paths = _slot_setters(SwapCertificate, "point", "paths")


def _swap_tails(p: Path, q: Path, point: tuple) -> tuple[Path, Path]:
    """The pair core of the tail swap: ``p`` and ``q``, both through
    ``point``, with everything after it exchanged."""
    # A south-east path reaches (x, y) after (x - x0) + (y0 - y) steps.
    cut_p = point[0] - p.start[0] + p.start[1] - point[1]
    cut_q = point[0] - q.start[0] + q.start[1] - point[1]
    return (_path(p.start, p.word[:cut_p] + q.word[cut_q:]),
            _path(q.start, q.word[:cut_q] + p.word[cut_p:]))


def _swap_parts(family: SignedPathFamily,
                pairs: dict | None) -> tuple[tuple, tuple, tuple]:
    """The tail swap of ``family`` in parts: ``(sigma, paths, meet)``, the
    swapped permutation and paths and the family's meet ``(point, i, j)``,
    which places the swap.  Raises ValueError on a non-intersecting family.

    The swap changes paths i and j alone, and the point is their own first
    meet, so their swapped pair depends on those two paths alone.
    ``pairs``, when not None, is a pair memo: it keeps each pair's
    ``_swap_tails`` keyed by the two paths' serials, which no other path
    object is ever given.  It holds only computed pairs: the swap of an
    image's pair is computed when that image is swapped, never filled in
    from the pair it came from.
    """
    meet = _family_meet(family)
    if meet is None:
        raise ValueError("tail swap is undefined on a non-intersecting family")
    point, i, j = meet
    paths = family.paths
    p, q = paths[i], paths[j]
    if pairs is None:
        new_p, new_q = _swap_tails(p, q, point)
    else:
        key = (p._serial, q._serial)
        swapped = pairs.get(key)
        if swapped is None:
            swapped = pairs[key] = _swap_tails(p, q, point)
        new_p, new_q = swapped
    new_paths = list(paths)
    new_paths[i] = new_p
    new_paths[j] = new_q
    new_sigma = list(family.sigma)
    new_sigma[i], new_sigma[j] = new_sigma[j], new_sigma[i]
    return tuple(new_sigma), tuple(new_paths), meet


def tail_swap(family: SignedPathFamily) -> tuple[SignedPathFamily, SwapCertificate]:
    """Swap the tails of two intersecting paths at a canonical point.

    The point is the lexicographically smallest (by x, then y) point lying
    on two or more paths, and the chosen paths are the two smallest indices
    through it.  Exchanging everything after the common point produces a
    family with the opposite sign but the same multiset of steps, so the
    canonical point and path pair are unchanged and applying the swap again
    restores the input.

    Returns a newly built swapped family together with the certificate;
    raises ValueError on a non-intersecting family.  ``lgv_sijection``
    runs the same swap core but keeps no certificate, and returns the
    walked family equal to the image instead of building one.
    """
    # Path i now ends where path j did, at b_{sigma(j)}, and the other way
    # round, so a correct core's image is valid by construction.  Its meet
    # is not copied from the input: swapping the image scans its own paths,
    # so the involution is checked, not assumed.
    sigma, paths, (point, i, j) = _swap_parts(family, None)
    return (SignedPathFamily._trusted(family.endpoints, sigma, paths),
            SwapCertificate._trusted(point, (i, j)))


def lgv_sijection(endpoints: Endpoints,
                  guard_limit: int | None = None) -> Sijection:
    """Sijection from the non-intersecting families to all signed families.

    Non-intersecting families pass through unchanged; a negative family is
    matched with its tail swap, which is intersecting and positive.  This
    is the cancellation at the heart of the determinant evaluation: the
    signed count of all families equals the plain count of the
    non-intersecting ones.

    The non-intersecting side is a filter of the signed families' own
    walk, so the families are enumerated once, whichever side is walked
    first, and under the signed families' guard.  The first swap walks the
    signed families, unless a checker has walked them already, and
    indexes them by permutation and paths.  The swap core keeps a pair
    memo (see ``_swap_parts``): the many families that cross at one pair
    of paths share one swapped pair.  An image is looked up in the index
    and the walked family is returned: a correct swap's image is always
    one of them, so nothing is built, hashed or scanned again.  Only an
    image the walk does not hold is built, so a faulty swap is still
    seen.  Each direction computes its own swap, so a checker can catch a
    swap that is not an involution.  A family the swap is undefined on is
    refused with ``SijectionError``, so a checker reports it.
    """
    identity = tuple(range(endpoints.n))
    target = SignedSet("signed families", lambda: (
        (f, f.sign) for f in enumerate_families(endpoints, guard_limit)))
    source = SignedSet("nonintersecting families", lambda: (
        (f, 1) for f, _ in target.elements()
        if f.sigma == identity and is_nonintersecting(f)))
    pairs = {}  # the pair memo of ``_swap_parts``
    walked = None  # the index of the target's stream, built on first use

    def swap(family):
        nonlocal walked
        if walked is None:
            walked = {(f.sigma, f.paths): f for f, _ in target.elements()}
        try:
            sigma, paths, _ = _swap_parts(family, pairs)
        except ValueError as exc:
            raise SijectionError(str(exc)) from None
        image = walked.get((sigma, paths))
        if image is None:
            image = SignedPathFamily._trusted(family.endpoints, sigma, paths)
        return image

    def forward(tagged, trace):
        side, sign, family = tagged
        if side == SOURCE:
            return (TARGET, 1, family)
        return (TARGET, 1, swap(family))

    def backward(tagged, trace):
        side, sign, family = tagged
        if side == SOURCE:
            raise SijectionError(
                "the non-intersecting side has no negative part")
        if is_nonintersecting(family):
            return (SOURCE, 1, family)
        return (TARGET, -1, swap(family))

    return Sijection("lgv", source, target, forward, backward)


def reverse_paths(family: SignedPathFamily) -> SignedPathFamily:
    """Reverse every path word in place (an involution on families).

    Reversing a word keeps the step multiset, hence the endpoints and the
    permutation; it exchanges the last-step-east and first-step-east
    statistics.
    """
    return SignedPathFamily._trusted(
        family.endpoints,
        family.sigma,
        tuple(map(Path._reverse, family.paths)),
    )


def permute_steps(family: SignedPathFamily, positions) -> SignedPathFamily:
    """Redistribute the letters of every word: new_word[positions[t]] = word[t].

    ``positions`` is a zero-based permutation of the step indices.  All
    words must have length n; the step multiset per path is preserved, so
    the endpoints and the permutation are too.  A position outside 0..n-1
    is refused with ValueError before any letter moves.
    """
    return _permute_steps(family, _step_positions(positions))


def _step_positions(positions) -> tuple[int, ...]:
    """``positions`` as a tuple, each checked to lie in 0..n-1."""
    positions = tuple(positions)
    n = len(positions)
    for t, position in enumerate(positions):
        if not 0 <= position < n:
            raise ValueError(
                f"positions[{t}]: {position} is outside 0..{n - 1}")
    return positions


def _permute_steps(family: SignedPathFamily,
                   positions: tuple[int, ...]) -> SignedPathFamily:
    """``permute_steps`` on positions already checked to lie in 0..n-1."""
    n = len(positions)
    new_paths = []
    for path in family.paths:
        if len(path.word) != n:
            raise ValueError(
                f"path word {path.word!r} does not have {n} steps")
        letters = [""] * n
        for t, ch in enumerate(path.word):
            letters[positions[t]] = ch
        new_paths.append(_path(path.start, "".join(letters)))
    # Every word keeps its letters, hence its end, exactly when every
    # position was filled; otherwise the constructor says which path broke.
    if any(len(path.word) != n for path in new_paths):
        return SignedPathFamily(family.endpoints, family.sigma, new_paths)
    return SignedPathFamily._trusted(
        family.endpoints, family.sigma, tuple(new_paths))


def _ping_pong(family: SignedPathFamily, there, back, limit: int,
               trace: list | None) -> SignedPathFamily:
    """The Garsia-Milne walk of the non-intersecting ``family`` through the
    involution ``there`` on the signed families, whose inverse is ``back``:
    g = there(family), then, while g crosses, g = there(swap(back(swap(g)))),
    where swap is the tail swap.  Returns the last g, which is
    non-intersecting.

    It is the walk of the three-stage chain lgv, ``there``, inverse of lgv,
    hop for hop: embedding the family, each map and each swap is one hop,
    and so is the final test that g does not cross, so an orbit of r rounds
    takes 3 + 4r hops.  Past ``limit`` hops it raises ``GuardExceeded``.
    Each landing but the last is appended to ``trace`` as ``(sign, g)``.
    The landings after hops 1, 4, 5, 8, 9, ... lie in the chain's first
    copy of the signed families and the others in its second, and a landing
    is the copy, the sign and the family.  Each landing decides the rest of
    the walk, so revisiting one means a cycle the walk can never escape;
    Brent's check finds it with one saved landing, replaced whenever the
    hop count reaches a power of two, and refuses it with ``SijectionError``,
    as it refuses a family the swap is undefined on.
    """
    sign, hops, saved = 1, 0, None
    while True:
        hops += 1
        if hops > limit:
            raise GuardExceeded("ping-pong hops", hops, limit)
        move = hops & 3
        if move == 2:
            family = there(family)
        elif move == 0:
            family = back(family)
        elif move == 3 and is_nonintersecting(family):
            return family
        elif hops > 1:
            try:
                sigma, paths, _ = _swap_parts(family, None)
            except ValueError as exc:  # ``back`` left the crossing families
                raise SijectionError(str(exc)) from None
            family = SignedPathFamily._trusted(family.endpoints, sigma, paths)
            sign = -sign
        if trace is not None:
            trace.append((sign, family))
        landing = (hops & 2, sign, family)
        if landing == saved:
            raise SijectionError(
                f"ping-pong revisited middle element {family!r} with sign "
                f"{_SIGN_CHAR[sign]}")
        if hops & (hops - 1) == 0:
            saved = landing


def _conjugated(name: str, endpoints: Endpoints, there, back,
                guard_limit: int | None) -> Sijection:
    """The sijection on the non-intersecting families on ``endpoints``
    that ``_ping_pong`` through ``there`` realises: forward runs the walk,
    backward runs it with ``there`` and ``back`` exchanged.  The hop limit
    is resolved here, once."""
    limit = resolve_guard_limit(guard_limit)
    families = SignedSet("nonintersecting families", lambda: (
        (f, 1) for f in enumerate_ni_families(endpoints, guard_limit)))

    def walk(side, there, back):
        def apply(tagged, trace):
            if tagged[1] == -1:
                raise SijectionError(
                    "the non-intersecting side has no negative part")
            return (side, 1, _ping_pong(tagged[2], there, back, limit, trace))
        return apply

    return Sijection(name, families, families, walk(TARGET, there, back),
                     walk(SOURCE, back, there))


# A map call walks one element of an instance, and the endpoints are all
# it needs of the instance, so the maps keep the endpoints of the last
# _MAP_CACHE_SIZE instances they met.
_MAP_CACHE_SIZE = 64
_kept_pp_endpoints = lru_cache(maxsize=_MAP_CACHE_SIZE)(
    plane_partition_endpoints)
_kept_tableau_endpoints = lru_cache(maxsize=_MAP_CACHE_SIZE)(tableau_endpoints)


def _apply(endpoints: Endpoints, there, back, obj, guard_limit: int | None,
           with_trace: bool):
    """Encode ``obj`` onto ``endpoints``, those of its instance, walk the
    family through ``_ping_pong`` and decode the image as a filling of the
    same kind; with ``with_trace`` also return the JSON itinerary: the
    input family labelled "source", each landing "middle" and the image
    "target"."""
    family = _encode(obj, endpoints)
    hops = [] if with_trace else None
    image = _ping_pong(family, there, back, resolve_guard_limit(guard_limit),
                       hops)
    result = _decode(image, type(obj), obj.shape, obj._bound, endpoints)
    if not with_trace:
        return result
    steps = [(SOURCE, 1, family), *[("middle", *hop) for hop in hops],
             (TARGET, 1, image)]
    return result, {"input": obj.to_json(), "steps": trace_to_json(steps),
                    "output": result.to_json()}


def zero_to_max_sijection(shape, bound: int,
                          guard_limit: int | None = None) -> Sijection:
    """The word reversal on the signed families, conjugated by the tail
    swap onto the non-intersecting families (see ``_ping_pong``).

    Restricted to the positive parts this is an honest bijection that
    exchanges the last-step-east and first-step-east statistics.  Each
    call builds a new sijection.
    """
    return _conjugated("zero-to-max", plane_partition_endpoints(shape, bound),
                       reverse_paths, reverse_paths, guard_limit)


def zero_to_max_map(pp: PlanePartition, with_trace: bool = False,
                    guard_limit: int | None = None):
    """Map a bounded plane partition with k rows containing 0 to one with
    k rows containing the bound, through the path model.

    With ``with_trace`` returns ``(image, trace)`` where the trace records
    the full itinerary of the underlying family through the ping-pong.
    """
    return _apply(_kept_pp_endpoints(pp.shape, pp.bound), reverse_paths,
                  reverse_paths, pp, guard_limit, with_trace)


def variable_positions(perm) -> tuple[int, ...]:
    """Turn a one-indexed variable permutation into zero-based step positions.

    perm[i] is the image of variable i+1; steps of the tableau paths are
    in bijection with variables (step t carries variable t+1).  An entry
    that is not an int is refused with ValueError, not truncated.
    """
    perm = _ints(perm, "perm")
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{perm!r} is not a permutation of 1..{n}")
    return tuple(v - 1 for v in perm)


def _weight_steps(endpoints_of, shape, varcount: int, perm) -> tuple:
    """The endpoints of SSYT(shape; varcount), built by ``endpoints_of``,
    and the step permutation by ``perm`` and its inverse.  The perm is
    refused with ValueError first, and one of the wrong length after the
    shape and the varcount."""
    positions = variable_positions(perm)
    endpoints = endpoints_of(shape, varcount)
    if len(positions) != varcount:
        raise ValueError(
            f"perm has {len(positions)} entries, expected {varcount}")
    inverse = tuple(sorted(range(varcount), key=positions.__getitem__))
    return (endpoints, lambda family: _permute_steps(family, positions),
            lambda family: _permute_steps(family, inverse))


def weight_permutation_sijection(shape, varcount: int, perm,
                                 guard_limit: int | None = None) -> Sijection:
    """The step permutation by ``perm`` on the signed families, conjugated
    by the tail swap onto the non-intersecting families (tableau model).
    Each call builds a new sijection."""
    return _conjugated(
        "weight-permutation",
        *_weight_steps(tableau_endpoints, shape, varcount, perm), guard_limit)


def weight_permutation_map(tableau: Tableau, perm, with_trace: bool = False,
                           guard_limit: int | None = None):
    """Map a tableau of weight w to one of weight w permuted by ``perm``.

    ``perm`` is one-indexed: variable i is renamed perm[i-1].  The number
    of occurrences of perm[i-1] in the image equals the number of
    occurrences of i in the input.
    """
    return _apply(*_weight_steps(_kept_tableau_endpoints, tableau.shape,
                                 tableau.varcount, perm),
                  tableau, guard_limit, with_trace)
