"""Path-family sijections and the bijections composed from them.

The central piece is the tail-swap involution on intersecting families:
cut the two lowest-indexed paths through the first common point and
exchange their tails.  It reverses the sign of a family, fixes nothing,
and is its own inverse, so it cancels the intersecting families out of
the signed count.  Wrapped as a sijection it identifies the
non-intersecting families with the full signed set; conjugating a
word-level symmetry by that sijection then yields explicit bijections on
plane partitions (exchanging the zero-row and max-row statistics) and on
tableaux (permuting the weight).
"""

from functools import lru_cache

from .algebra import _Value, _ints, _slot_setters
from .guards import resolve_guard_limit
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
    SOURCE,
    TARGET,
    SignedSet,
    Sijection,
    SijectionError,
    compose_all,
    evaluate_with_trace,
    sijection_from_bijection,
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
    runs the same swap core but keeps no certificate, and once its signed
    families have been walked it returns the walked family equal to the
    image instead of building one.
    """
    # Path i now ends where path j did, at b_{sigma(j)}, and the other way
    # round, so a correct core's image is valid by construction.  Its meet
    # is not copied from the input: swapping the image scans its own paths,
    # so the involution is checked, not assumed.
    sigma, paths, (point, i, j) = _swap_parts(family, None)
    return (SignedPathFamily._trusted(family.endpoints, sigma, paths),
            SwapCertificate._trusted(point, (i, j)))


def nonintersecting_set(endpoints: Endpoints,
                        guard_limit: int | None = None,
                        families: SignedSet | None = None) -> SignedSet:
    """The non-intersecting families as a signed set with empty minus part.

    ``families``, when given, is the signed set of all families on the same
    endpoints.  A walk that starts after it has been walked reads the
    non-intersecting identity families off its stream, where they already
    are, built and scanned, in the order the enumeration would give them.
    """
    identity = tuple(range(endpoints.n))

    def elements():
        if families is not None and families._stream is not None:
            return ((f, 1) for f, _ in families.elements()
                    if f.sigma == identity and is_nonintersecting(f))
        return ((f, 1) for f in enumerate_ni_families(endpoints, guard_limit))

    return SignedSet("nonintersecting families", elements)


def signed_family_set(endpoints: Endpoints,
                      guard_limit: int | None = None) -> SignedSet:
    """All families, each signed by its permutation, in one pass."""
    return SignedSet(
        "signed families",
        lambda: ((f, f.sign) for f in enumerate_families(endpoints, guard_limit)),
    )


def lgv_sijection(endpoints: Endpoints,
                  guard_limit: int | None = None) -> Sijection:
    """Sijection from the non-intersecting families to all signed families.

    Non-intersecting families pass through unchanged; a negative family is
    matched with its tail swap, which is intersecting and positive.  This
    is the cancellation at the heart of the determinant evaluation: the
    signed count of all families equals the plain count of the
    non-intersecting ones.

    Once the signed families have been walked, the swap core keeps a pair
    memo (see ``_swap_parts``): the many families that cross at one pair
    of paths share one swapped pair.  An image is then looked up, by its
    permutation and paths, in an index of the walked stream built on the
    first swap after the walk, and the walked family is returned: a
    correct swap's image is always one of them, so nothing is built,
    hashed or scanned again.  Only an image the walk does not hold is
    built, so a faulty swap is still seen.  Each direction computes its
    own swap, so a checker can catch a swap that is not an involution.
    Before the walk (a map's ping-pong) every image is built and nothing
    is kept: an orbit never swaps the same family twice, so a memo would
    only cost a hash per hop and hold every pair the orbit swaps.  A
    family the swap is undefined on is refused with ``SijectionError``,
    so a checker reports it.  The non-intersecting side, walked after the
    signed families, reads its families off their stream (see
    ``nonintersecting_set``).
    """
    target = signed_family_set(endpoints, guard_limit)
    source = nonintersecting_set(endpoints, guard_limit, target)
    pairs = {}  # the pair memo of ``_swap_parts``, used after the walk
    walked = None  # the index of the target's stream, once it has one

    def swap(family):
        nonlocal walked
        if walked is None and target._stream is not None:
            walked = {(f.sigma, f.paths): f for f, _ in target._stream}
        try:
            sigma, paths, _ = _swap_parts(
                family, None if walked is None else pairs)
        except ValueError as exc:
            raise SijectionError(str(exc)) from None
        image = None if walked is None else walked.get((sigma, paths))
        if image is None:
            image = SignedPathFamily._trusted(family.endpoints, sigma, paths)
        return image

    def forward(tagged):
        side, sign, family = tagged
        if side == SOURCE:
            return (TARGET, 1, family)
        return (TARGET, 1, swap(family))

    def backward(tagged):
        side, sign, family = tagged
        if side == SOURCE:
            raise SijectionError(
                "the non-intersecting side has no negative part")
        if is_nonintersecting(family):
            return (SOURCE, 1, family)
        return (TARGET, -1, swap(family))

    return Sijection("lgv", source, target, forward, backward, guard_limit)


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


def reversal_sijection(endpoints: Endpoints,
                       guard_limit: int | None = None) -> Sijection:
    families = signed_family_set(endpoints, guard_limit)
    return sijection_from_bijection(
        "reverse-words", families, families, reverse_paths, reverse_paths,
        guard_limit)


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


def _invert_positions(positions: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of ``positions``, whose entries lie in 0..n-1; a repeated
    position is refused with ValueError."""
    n = len(positions)
    if len(set(positions)) != n:
        raise ValueError(
            f"positions {positions!r} is not a permutation of 0..{n - 1}")
    inverse = [0] * n
    for t, image in enumerate(positions):
        inverse[image] = t
    return tuple(inverse)


def step_permutation_sijection(endpoints: Endpoints, positions,
                               guard_limit: int | None = None) -> Sijection:
    positions = _step_positions(positions)
    inverse = _invert_positions(positions)
    families = signed_family_set(endpoints, guard_limit)
    return sijection_from_bijection(
        "permute-steps", families, families,
        lambda f: _permute_steps(f, positions),
        lambda f: _permute_steps(f, inverse), guard_limit)


def _conjugate(endpoints: Endpoints, middle: Sijection,
               guard_limit: int | None) -> Sijection:
    """``middle`` on the signed families, conjugated by the LGV sijection
    into a sijection on the non-intersecting families."""
    lgv = lgv_sijection(endpoints, guard_limit)
    return compose_all(lgv, middle, lgv.inverse())


def _apply(sij: Sijection, endpoints: Endpoints, obj, with_trace: bool):
    """Encode ``obj`` onto ``endpoints``, those of its instance, send the
    family forward through ``sij`` and decode the image as a filling of
    the same kind; with ``with_trace`` also return the JSON itinerary."""
    family = _encode(obj, endpoints)
    if with_trace:
        image, steps = evaluate_with_trace(sij, family)
    else:
        _, _, image = sij.forward((SOURCE, 1, family))
    result = _decode(image, type(obj), obj.shape, obj._bound, endpoints)
    if not with_trace:
        return result
    return result, {"input": obj.to_json(), "steps": trace_to_json(steps),
                    "output": result.to_json()}


def _zero_to_max(shape, bound: int,
                 guard_limit: int | None) -> tuple[Endpoints, Sijection]:
    """The endpoints of PP(shape; bound) and ``zero_to_max_sijection`` on
    them."""
    endpoints = plane_partition_endpoints(shape, bound)
    return endpoints, _conjugate(
        endpoints, reversal_sijection(endpoints, guard_limit), guard_limit)


def zero_to_max_sijection(shape, bound: int,
                          guard_limit: int | None = None) -> Sijection:
    """The conjugated word reversal on non-intersecting families.

    Composite: embed the non-intersecting families into the signed set,
    reverse all words, then cancel back down.  Restricted to the positive
    parts this is an honest bijection that exchanges the last-step-east
    and first-step-east statistics.  Each call builds a new sijection.
    """
    return _zero_to_max(shape, bound, guard_limit)[1]


# A map call sends one element through a conjugated sijection, which
# depends only on the instance and the hop limit, so the maps keep the
# last _MAP_CACHE_SIZE they built, each with its endpoints, which encode
# and decode read.  A map never walks a signed set, so a kept sijection
# holds no stream and no swap memo.
_MAP_CACHE_SIZE = 64
_kept_zero_to_max = lru_cache(maxsize=_MAP_CACHE_SIZE)(_zero_to_max)


def zero_to_max_map(pp: PlanePartition, with_trace: bool = False,
                    guard_limit: int | None = None):
    """Map a bounded plane partition with k rows containing 0 to one with
    k rows containing the bound, through the path model.

    With ``with_trace`` returns ``(image, trace)`` where the trace records
    the full itinerary of the underlying family through the composed
    sijection.
    """
    endpoints, sij = _kept_zero_to_max(pp.shape, pp.bound,
                                       resolve_guard_limit(guard_limit))
    return _apply(sij, endpoints, pp, with_trace)


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


def _weight_permutation(shape, varcount: int, positions: tuple[int, ...],
                        guard_limit: int | None) -> tuple[Endpoints, Sijection]:
    """The endpoints of SSYT(shape; varcount) and the step permutation by
    ``positions``, one per variable, conjugated by the LGV sijection on
    them.  A perm of the wrong length is refused with ValueError after the
    shape and the varcount."""
    endpoints = tableau_endpoints(shape, varcount)
    if len(positions) != varcount:
        raise ValueError(
            f"perm has {len(positions)} entries, expected {varcount}")
    middle = step_permutation_sijection(endpoints, positions, guard_limit)
    return endpoints, _conjugate(endpoints, middle, guard_limit)


def weight_permutation_sijection(shape, varcount: int, perm,
                                 guard_limit: int | None = None) -> Sijection:
    """Conjugate the step permutation by the LGV sijection (tableau model).
    Each call builds a new sijection."""
    return _weight_permutation(shape, varcount, variable_positions(perm),
                               guard_limit)[1]


_kept_weight_permutation = lru_cache(maxsize=_MAP_CACHE_SIZE)(
    _weight_permutation)


def weight_permutation_map(tableau: Tableau, perm, with_trace: bool = False,
                           guard_limit: int | None = None):
    """Map a tableau of weight w to one of weight w permuted by ``perm``.

    ``perm`` is one-indexed: variable i is renamed perm[i-1].  The number
    of occurrences of perm[i-1] in the image equals the number of
    occurrences of i in the input.
    """
    endpoints, sij = _kept_weight_permutation(
        tableau.shape, tableau.varcount, variable_positions(perm),
        resolve_guard_limit(guard_limit))
    return _apply(sij, endpoints, tableau, with_trace)
