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

from .objects import PlanePartition, Tableau
from .paths import (
    Endpoints,
    SignedPathFamily,
    _path,
    enumerate_families,
    enumerate_ni_families,
    is_nonintersecting,
    plane_partition_endpoints,
    pp_decode,
    pp_encode,
    ssyt_decode,
    ssyt_encode,
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


class SwapCertificate:
    """Where a tail swap acted: the common point and the two path indices.

    The same certificate describes the swap and its undoing, which is what
    makes the involution checkable step by step.  Path indices are stored
    zero-based; the JSON form is one-indexed to match the family format.
    """

    def __init__(self, point, paths):
        object.__setattr__(self, "point", (int(point[0]), int(point[1])))
        i, j = paths
        if not 0 <= i < j:
            raise ValueError("certificate path indices must satisfy 0 <= i < j")
        object.__setattr__(self, "paths", (int(i), int(j)))

    def __setattr__(self, name, value):
        raise AttributeError("SwapCertificate is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SwapCertificate):
            return NotImplemented
        return self.point == other.point and self.paths == other.paths

    def __hash__(self) -> int:
        return hash((self.point, self.paths))

    def __repr__(self) -> str:
        return f"SwapCertificate(point={self.point}, paths={self.paths})"

    def to_json(self) -> dict:
        return {
            "point": list(self.point),
            "paths": [self.paths[0] + 1, self.paths[1] + 1],
        }


def tail_swap(family: SignedPathFamily) -> tuple[SignedPathFamily, SwapCertificate]:
    """Swap the tails of two intersecting paths at a canonical point.

    The point is the lexicographically smallest (by x, then y) point lying
    on two or more paths, and the chosen paths are the two smallest indices
    through it.  Exchanging everything after the common point produces a
    family with the opposite sign but the same multiset of steps, so the
    canonical point and path pair are unchanged and applying the swap again
    restores the input.

    Returns the swapped family together with the certificate; raises
    ValueError on a non-intersecting family.
    """
    paths = family.paths
    sets = [path._point_set() for path in paths]
    # The canonical point is the smallest point a path shares with an
    # earlier one, and the first path to share it is the second smallest
    # index through it: one pass over the paths, linear in their length.
    best = None
    seen = set()
    for j, points in enumerate(sets):
        common = points & seen
        if common:
            low = min(common)
            if best is None or low < best[0]:
                best = (low, j)
        seen |= points
    if best is None:
        raise ValueError("tail swap is undefined on a non-intersecting family")
    point, j = best
    i = next(k for k in range(j) if point in sets[k])
    # A south-east path reaches (x, y) after (x - x0) + (y0 - y) steps.
    cut_i = point[0] - paths[i].start[0] + paths[i].start[1] - point[1]
    cut_j = point[0] - paths[j].start[0] + paths[j].start[1] - point[1]
    word_i = paths[i].word
    word_j = paths[j].word
    new_paths = list(paths)
    new_paths[i] = _path(paths[i].start, word_i[:cut_i] + word_j[cut_j:])
    new_paths[j] = _path(paths[j].start, word_j[:cut_j] + word_i[cut_i:])
    new_sigma = list(family.sigma)
    new_sigma[i], new_sigma[j] = new_sigma[j], new_sigma[i]
    swapped = SignedPathFamily(family.endpoints, new_sigma, new_paths)
    return swapped, SwapCertificate(point, (i, j))


def nonintersecting_set(endpoints: Endpoints,
                        guard_limit: int | None = None) -> SignedSet:
    """The non-intersecting families as a signed set with empty minus part."""
    return SignedSet(
        "nonintersecting families",
        lambda: ((f, 1) for f in enumerate_ni_families(endpoints, guard_limit)),
    )


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

    Each family is swapped at most once per sijection: the images are kept
    by input family, and both directions (and the inverse) share them.  The
    reverse entry is never filled in from the involution, so backward still
    computes its own swap and a checker can catch a swap that is not one.
    """
    source = nonintersecting_set(endpoints, guard_limit)
    target = signed_family_set(endpoints, guard_limit)
    swaps = {}

    def swap(family):
        image = swaps.get(family)
        if image is None:
            image = swaps[family] = tail_swap(family)[0]
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

    return Sijection("lgv", source, target, forward, backward)


def reverse_paths(family: SignedPathFamily) -> SignedPathFamily:
    """Reverse every path word in place (an involution on families).

    Reversing a word keeps the step multiset, hence the endpoints and the
    permutation; it exchanges the last-step-east and first-step-east
    statistics.
    """
    return SignedPathFamily(
        family.endpoints,
        family.sigma,
        [_path(p.start, p.word[::-1]) for p in family.paths],
    )


def reversal_sijection(endpoints: Endpoints,
                       guard_limit: int | None = None) -> Sijection:
    families = signed_family_set(endpoints, guard_limit)
    return sijection_from_bijection(
        "reverse-words", families, families, reverse_paths, reverse_paths)


def permute_steps(family: SignedPathFamily, positions) -> SignedPathFamily:
    """Redistribute the letters of every word: new_word[positions[t]] = word[t].

    ``positions`` is a zero-based permutation of the step indices.  All
    words must have length n; the step multiset per path is preserved, so
    the endpoints and the permutation are too.
    """
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
    return SignedPathFamily(family.endpoints, family.sigma, new_paths)


def _invert_positions(positions) -> tuple[int, ...]:
    inverse = [0] * len(positions)
    for t, image in enumerate(positions):
        inverse[image] = t
    return tuple(inverse)


def step_permutation_sijection(endpoints: Endpoints, positions,
                               guard_limit: int | None = None) -> Sijection:
    positions = tuple(positions)
    inverse = _invert_positions(positions)
    families = signed_family_set(endpoints, guard_limit)
    return sijection_from_bijection(
        "permute-steps", families, families,
        lambda f: permute_steps(f, positions),
        lambda f: permute_steps(f, inverse))


def _conjugate(endpoints: Endpoints, middle: Sijection,
               guard_limit: int | None) -> Sijection:
    """``middle`` on the signed families, conjugated by the LGV sijection
    into a sijection on the non-intersecting families."""
    lgv = lgv_sijection(endpoints, guard_limit)
    return compose_all(lgv, middle, lgv.inverse())


def _apply(sij: Sijection, obj, family: SignedPathFamily, decode,
           with_trace: bool):
    """Send ``family``, the encoding of ``obj``, forward through ``sij`` and
    decode the image; with ``with_trace`` also return the JSON itinerary."""
    if not with_trace:
        _, _, image = sij.forward((SOURCE, 1, family))
        return decode(image)
    image, steps = evaluate_with_trace(sij, family)
    result = decode(image)
    trace = {"input": obj.to_json(), "steps": trace_to_json(steps),
             "output": result.to_json()}
    return result, trace


def zero_to_max_sijection(shape, bound: int,
                          guard_limit: int | None = None) -> Sijection:
    """The conjugated word reversal on non-intersecting families.

    Composite: embed the non-intersecting families into the signed set,
    reverse all words, then cancel back down.  Restricted to the positive
    parts this is an honest bijection that exchanges the last-step-east
    and first-step-east statistics.
    """
    endpoints = plane_partition_endpoints(shape, bound)
    return _conjugate(endpoints, reversal_sijection(endpoints, guard_limit),
                      guard_limit)


def zero_to_max_map(pp: PlanePartition, with_trace: bool = False,
                    guard_limit: int | None = None):
    """Map a bounded plane partition with k rows containing 0 to one with
    k rows containing the bound, through the path model.

    With ``with_trace`` returns ``(image, trace)`` where the trace records
    the full itinerary of the underlying family through the composed
    sijection.
    """
    sij = zero_to_max_sijection(pp.shape, pp.bound, guard_limit)
    return _apply(sij, pp, pp_encode(pp),
                  lambda image: pp_decode(image, pp.shape, pp.bound),
                  with_trace)


def variable_positions(perm) -> tuple[int, ...]:
    """Turn a one-indexed variable permutation into zero-based step positions.

    perm[i] is the image of variable i+1; steps of the tableau paths are
    in bijection with variables (step t carries variable t+1).
    """
    perm = tuple(int(v) for v in perm)
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{perm!r} is not a permutation of 1..{n}")
    return tuple(v - 1 for v in perm)


def weight_permutation_sijection(shape, varcount: int, perm,
                                 guard_limit: int | None = None) -> Sijection:
    """Conjugate the step permutation by the LGV sijection (tableau model)."""
    endpoints = tableau_endpoints(shape, varcount)
    positions = variable_positions(perm)
    middle = step_permutation_sijection(endpoints, positions, guard_limit)
    return _conjugate(endpoints, middle, guard_limit)


def weight_permutation_map(tableau: Tableau, perm, with_trace: bool = False,
                           guard_limit: int | None = None):
    """Map a tableau of weight w to one of weight w permuted by ``perm``.

    ``perm`` is one-indexed: variable i is renamed perm[i-1].  The number
    of occurrences of perm[i-1] in the image equals the number of
    occurrences of i in the input.
    """
    sij = weight_permutation_sijection(tableau.shape, tableau.varcount, perm,
                                       guard_limit)
    return _apply(
        sij, tableau, ssyt_encode(tableau),
        lambda image: ssyt_decode(image, tableau.shape, tableau.varcount),
        with_trace)
