"""South-east lattice paths on Z^2 and their signed families.

A path starts at a point and takes unit steps east (E, x+1) or south
(S, y-1); it is stored as a start point plus a step word over {E, S}.
Monotonicity makes every path self-avoiding, so a family of paths is
non-intersecting exactly when no lattice point lies on two of them.

A signed family connects start points a_1..a_n to end points b_1..b_n
through a permutation sigma (path i runs from a_i to b_{sigma(i)}); its
sign is the sign of sigma.

A filling (see ``objects``) becomes one path per line under one rule,
which each filling kind declares: line i has k_i east steps among L_i
steps, and runs from a_i = (-i, -i) to b_i = (k_i - i, k_i - i - L_i);
its t-th east step comes after s_t south steps in all.

* A plane partition of shape lambda with entries in [0, m] has a line
  per row: k_i = lambda_i, L_i = m + lambda_i, and an entry e has
  s = m - e.  So b_i = (lambda_i - i, -m - i), and a row contains 0
  exactly when its path ends with an east step, and contains m exactly
  when its path starts with one.
* A semistandard tableau with entries at most n has a line per column:
  k_j = mu_j (mu the transposed shape), L_j = n, and an entry c has
  s = c - t, so the east steps of path j sit at the entries of column j.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, count, product
from operator import attrgetter
from typing import Iterator

from .algebra import (_Value, _ints, _is_int, _slot_setters, binomial,
                      det_int, perm_sign)
from .guards import check_guard
from .objects import Partition, PlanePartition, Tableau

Point = tuple[int, int]

_serials = count()


def _point(value, field: str) -> Point:
    """``value`` as a pair of ints; a coordinate that is not an int is
    refused with ValueError, not truncated."""
    x, y = value
    if type(x) is not int or type(y) is not int:
        x, y = _ints(value, field)
    return (x, y)


class Path(_Value):
    """Monotone south-east lattice path: a start point and a word over {E, S}.

    ``end``, the hash and whether the first and the last step are east
    (``_first_east``, ``_last_east``) are computed once, when the path is
    built, and stored.  The set of visited points is computed on first
    use and cached (``_point_set``), as is the reversed path
    (``_reverse``); ``points()`` still builds the ordered tuple on every
    call.  ``_meets`` memoises this
    path's meets with its partners (see ``_pair_meet``), keyed by each
    partner's ``_serial``, a number no other path object is ever given.
    """

    __slots__ = ("start", "word", "end", "_hash", "_first_east", "_last_east",
                 "_points", "_reversed", "_meets", "_serial")

    def __init__(self, start: Point, word: str):
        start = _point(start, "start")
        if not isinstance(word, str):
            raise ValueError(f"word {word!r} is not a string")
        if word.strip("ES"):
            for i, ch in enumerate(word):
                if ch not in "ES":
                    raise ValueError(
                        f"word[{i}]: invalid step {ch!r}, expected 'E' or 'S'")
        east = word.count("E")
        end = (start[0] + east, start[1] - (len(word) - east))
        _set_start(self, start)
        _set_word(self, word)
        _set_end(self, end)
        _set_path_hash(self, hash((start, word)))
        _set_first_east(self, word[:1] == "E")
        _set_last_east(self, word[-1:] == "E")
        _set_points(self, None)
        _set_reversed(self, None)
        _set_meets(self, None)
        _set_serial(self, next(_serials))

    def __len__(self) -> int:
        return len(self.word)

    def points(self) -> tuple[Point, ...]:
        """All visited lattice points, start to end (len(word) + 1 of them)."""
        x, y = self.start
        pts = [(x, y)]
        for ch in self.word:
            if ch == "E":
                x += 1
            else:
                y -= 1
            pts.append((x, y))
        return tuple(pts)

    def _point_set(self) -> frozenset:
        """The visited points as a frozenset, built once per path."""
        if self._points is None:
            _set_points(self, frozenset(self.points()))
        return self._points

    def _reverse(self) -> "Path":
        """The path with the same start and the reversed word, looked up
        once per pair: each of the two keeps the other."""
        reverse = self._reversed
        if reverse is None:
            reverse = _path(self.start, self.word[::-1])
            _set_reversed(self, reverse)
            if reverse._reversed is None:
                _set_reversed(reverse, self)
        return reverse

    # hand-written rather than a ``_key()``: no extra call on this hot path
    def __eq__(self, other) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self.start == other.start and self.word == other.word

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Path({self.start}, {self.word!r})"

    def to_json(self) -> dict:
        return {"start": list(self.start), "word": self.word}

    @classmethod
    def from_json(cls, data: dict) -> "Path":
        if not isinstance(data, dict) or "start" not in data or "word" not in data:
            raise ValueError("path JSON needs 'start' and 'word'")
        start = data["start"]
        if (not isinstance(start, (list, tuple)) or len(start) != 2
                or not all(map(_is_int, start))):
            raise ValueError(f"start {start!r} is not a point with integer coordinates")
        return cls((start[0], start[1]), data["word"])


(_set_start, _set_word, _set_end, _set_path_hash, _set_first_east,
 _set_last_east, _set_points, _set_reversed, _set_meets,
 _set_serial) = _slot_setters(
    Path, "start", "word", "end", "_hash", "_first_east", "_last_east",
    "_points", "_reversed", "_meets", "_serial")


# Paths are immutable, so the family enumeration and the transforms share
# one instance per (start, word): each distinct path is validated, and its
# point set built, once, and a swap's image holds the very paths of the
# enumerated family it equals, so comparing the two stops at identity.
# A ping-pong orbit of a few hundred hops touches a few hundred distinct
# paths, so the bound keeps whole orbits while capping the memory held
# (each entry holds a point set as long as its word, and may keep its
# reversal alive: at most 2 * _PATH_CACHE_SIZE paths outlive their use).
_PATH_CACHE_SIZE = 4096
_path = lru_cache(maxsize=_PATH_CACHE_SIZE)(Path)

_UNSCANNED = object()  # a meet not computed yet; None means "no meet"

# A family's sign is its permutation's.  The families on n endpoints share
# at most n! permutations, and a family's sigma is always a tuple of ints,
# so the sign is looked up by sigma instead of walked again per family.
_sigma_sign = lru_cache(maxsize=1024)(perm_sign)


class Endpoints(_Value):
    """Ordered start points a_1..a_n and end points b_1..b_n.

    The number of signed families on them is computed on first use, by
    ``_family_count``, and kept (``_count``).
    """

    __slots__ = ("a", "b", "_count")

    def __init__(self, a, b):
        a = tuple(_point(p, f"a[{i}]") for i, p in enumerate(a))
        b = tuple(_point(p, f"b[{i}]") for i, p in enumerate(b))
        if len(a) != len(b):
            raise ValueError(f"{len(a)} start points but {len(b)} end points")
        _set_a(self, a)
        _set_b(self, b)
        _set_count(self, None)

    @property
    def n(self) -> int:
        return len(self.a)

    # hand-written rather than a ``_key()``: no extra call on this hot path
    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Endpoints):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"Endpoints(a={list(self.a)}, b={list(self.b)})"


_set_a, _set_b, _set_count = _slot_setters(Endpoints, "a", "b", "_count")


def _endpoints(kind, shape: Partition, bound: int) -> Endpoints:
    """The endpoints of the ``kind`` fillings of (shape, bound): line i,
    1-based, runs from a_i = (-i, -i) to b_i = (k_i - i, k_i - i - L_i).
    The shape is read through ``Partition``; a bound that is not valid for
    the kind is then refused with ValueError."""
    lines = kind._checked_line_steps(shape, bound)
    return Endpoints(
        [(-i, -i) for i in range(1, len(lines) + 1)],
        [(k - i, k - i - steps) for i, (k, steps) in enumerate(lines, 1)])


def plane_partition_endpoints(shape: Partition, bound: int) -> Endpoints:
    """Endpoint configuration for PP(shape; bound): a_i = (-i, -i),
    b_j = (shape_j - j, -bound - j), 1-based."""
    return _endpoints(PlanePartition, shape, bound)


def tableau_endpoints(shape: Partition, varcount: int) -> Endpoints:
    """Endpoint configuration for SSYT(shape; varcount): one path per column.

    With mu the transposed shape, a_j = (-j, -j) and
    b_j = (mu_j - j, mu_j - j - varcount), so every connection takes exactly
    varcount steps, mu_j of them east.
    """
    return _endpoints(Tableau, shape, varcount)


class SignedPathFamily(_Value):
    """Paths p_1..p_n with p_i running from a_i to b_{sigma(i)}.

    ``sigma`` is stored 0-based; the sign of the family is the sign of sigma
    and is computed, never stored.  The hash and the meet (see
    ``_family_meet``), which decides disjointness, are computed on first
    use and cached.

    The constructor checks every path against its endpoints; so does
    ``from_json``, which goes through it.  The families the library builds
    from parts it has already checked (the enumeration, the tail swap, the
    word transforms and the encoders) go through ``_trusted`` instead,
    which passes them to ``_fill`` without checking them again.
    """

    __slots__ = ("endpoints", "sigma", "paths", "_hash", "_meet")

    def __init__(self, endpoints: Endpoints, sigma, paths):
        sigma = _ints(sigma, "sigma")
        paths = tuple(paths)
        n = endpoints.n
        if sorted(sigma) != list(range(n)):
            raise ValueError(f"sigma {sigma} is not a permutation of 0..{n - 1}")
        if len(paths) != n:
            raise ValueError(f"expected {n} paths, got {len(paths)}")
        for i, p in enumerate(paths):
            if p.start != endpoints.a[i]:
                raise ValueError(
                    f"paths[{i}] starts at {p.start}, expected {endpoints.a[i]}"
                )
            if p.end != endpoints.b[sigma[i]]:
                raise ValueError(
                    f"paths[{i}] ends at {p.end}, expected {endpoints.b[sigma[i]]}"
                )
        self._fill(endpoints, sigma, paths)

    def _fill(self, endpoints: Endpoints, sigma: tuple, paths: tuple) -> None:
        """Set the slots; ``sigma`` is a tuple of ints and ``paths`` a tuple
        of paths that run from each a_i to b_{sigma(i)}."""
        _set_endpoints(self, endpoints)
        _set_sigma(self, sigma)
        _set_paths(self, paths)
        _set_family_hash(self, None)
        _set_meet(self, _UNSCANNED)

    # fixed arity, unlike ``_Value._trusted``, so the calls specialise
    @classmethod
    def _trusted(cls, endpoints: Endpoints, sigma: tuple,
                 paths: tuple) -> "SignedPathFamily":
        self = object.__new__(cls)
        self._fill(endpoints, sigma, paths)
        return self

    @property
    def sign(self) -> int:
        return _sigma_sign(self.sigma)

    def is_identity(self) -> bool:
        return all(s == i for i, s in enumerate(self.sigma))

    # Hand-written rather than a ``_key()``: no extra call on this hot path.
    # The paths' starts and ends, read through sigma, are the endpoints, so
    # equal sigma and paths already mean equal families.
    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedPathFamily):
            return NotImplemented
        return self.sigma == other.sigma and self.paths == other.paths

    def __hash__(self) -> int:
        if self._hash is None:
            _set_family_hash(self, hash((self.sigma, self.paths)))
        return self._hash

    def __repr__(self) -> str:
        words = [p.word for p in self.paths]
        return f"SignedPathFamily(sigma={list(self.sigma)}, words={words})"

    def to_json(self) -> dict:
        return {
            "sigma": [s + 1 for s in self.sigma],
            "paths": [p.to_json() for p in self.paths],
        }

    @classmethod
    def from_json(cls, data: dict, endpoints: Endpoints) -> "SignedPathFamily":
        if not isinstance(data, dict) or "sigma" not in data or "paths" not in data:
            raise ValueError("family JSON needs 'sigma' and 'paths'")
        sigma, paths = data["sigma"], data["paths"]
        if not isinstance(sigma, (list, tuple)) or not all(map(_is_int, sigma)):
            raise ValueError(f"sigma {sigma!r} is not a list of integers")
        if not isinstance(paths, (list, tuple)):
            raise ValueError(f"paths {paths!r} is not a list")
        sigma = [s - 1 for s in sigma]
        paths = [Path.from_json(p) for p in paths]
        return cls(endpoints, sigma, paths)


(_set_endpoints, _set_sigma, _set_paths, _set_family_hash,
 _set_meet) = _slot_setters(SignedPathFamily, "endpoints", "sigma", "paths",
                            "_hash", "_meet")


# Each path memoises its meets with the partners it has been scanned
# against, keyed by their serials.  A serial is never reused, so an entry
# can go stale but never wrong, and it keeps no partner alive: a path's
# memo goes when the path does, after the cache has evicted it.  A memo is
# cleared when it reaches _MEETS_PER_PATH entries, so the paths the cache
# keeps alive hold at most 2 * _PATH_CACHE_SIZE * _MEETS_PER_PATH meets.
_MEETS_PER_PATH = 256


def _pair_meet(p: Path, q: Path, meets: dict) -> Point | None:
    """The smallest point (by x, then y) on both paths, or None, computed
    and kept in ``meets``, the memo of ``p``."""
    common = p._point_set() & q._point_set()
    meet = min(common) if common else None
    if len(meets) >= _MEETS_PER_PATH:
        meets.clear()
    meets[q._serial] = meet
    return meet


def _meet_scan(paths) -> tuple | None:
    """The meet of a family's paths: ``(point, i, j)`` with ``point`` the
    smallest point on two of them and i < j the two smallest indices
    through it, or None when the paths are disjoint.

    The pairs go in index order and only a strictly smaller pair meet
    replaces the best, so (i, j) is the first pair through the smallest
    shared point.  Every pair through that point has it as its own
    smallest shared point, none in the family being smaller, so the first
    such pair is the two smallest indices through the point.
    """
    best = None
    n = len(paths)
    for i in range(n - 1):
        p = paths[i]
        meets = p._meets
        if meets is None:
            meets = {}
            _set_meets(p, meets)
        for j in range(i + 1, n):
            q = paths[j]
            point = meets.get(q._serial, _UNSCANNED)
            if point is _UNSCANNED:
                point = _pair_meet(p, q, meets)
            if point is not None and (best is None or point < best[0]):
                best = (point, i, j)
    return best


def _family_meet(family: SignedPathFamily) -> tuple | None:
    """``_meet_scan`` of the family's paths, scanned once per family object
    and kept on it.  It decides disjointness and places the tail swap."""
    meet = family._meet
    if meet is _UNSCANNED:
        meet = _meet_scan(family.paths)
        _set_meet(family, meet)
    return meet


def is_nonintersecting(family: SignedPathFamily) -> bool:
    """True when no lattice point lies on two distinct paths of the family,
    that is, when no pair of its paths meets: the family's ``_family_meet``,
    kept on it, is None."""
    return _family_meet(family) is None


def _encode(filling, endpoints: Endpoints) -> SignedPathFamily:
    """The identity family of the filling's lines on ``endpoints``, those of
    its instance, by its kind's ``_reading``: between two entries of a
    line, the south steps that turn the first into the second, then an
    east step; the line's remaining south steps end its path.  The result
    is always vertex-disjoint."""
    start, south, east = filling._reading(filling._bound)
    paths = []
    for line, a, b in zip(filling._lines(filling.rows), endpoints.a,
                          endpoints.b):
        word = ""
        done = 0
        previous = start
        for entry in line:
            souths = south * (entry - previous - east)  # south is 1 or -1
            word += "S" * souths + "E"
            done += souths
            previous = entry
        paths.append(_path(a, word + "S" * (a[1] - b[1] - done)))
    return SignedPathFamily._trusted(
        endpoints, tuple(range(len(paths))), tuple(paths))


def _decode(family: SignedPathFamily, kind, shape: Partition, bound: int,
            expected: Endpoints):
    """The ``kind`` filling of (shape, bound) that ``_encode`` sends to
    ``family``, built through its validating constructor.

    Requires the ``expected`` endpoints of (shape, bound), the identity
    permutation, and vertex-disjointness; raises ValueError otherwise.
    """
    if family.endpoints != expected:
        raise ValueError("family endpoints do not match the "
                         f"(shape, {kind._bound_name}) instance")
    if not family.is_identity():
        raise ValueError(f"family permutation {family.sigma} is not the identity")
    if not is_nonintersecting(family):
        raise ValueError("family is intersecting; only disjoint families decode")
    start, south, east = kind._reading(bound)
    lines = []
    for path in family.paths:
        line = []
        entry = start
        for step in path.word:
            if step == "S":
                entry += south
            else:
                entry += east
                line.append(entry)
        lines.append(line)
    return kind(shape, bound, kind._lines(lines))


def pp_encode(pp: PlanePartition) -> SignedPathFamily:
    """Encode a plane partition as an identity-permutation path family.

    Path i (1-based) starts at (-i, -i) and records row i: the k-th east
    step is preceded by exactly bound - entry_k south steps, so larger
    entries travel east earlier (higher).  The result is always
    vertex-disjoint.
    """
    return _encode(pp, plane_partition_endpoints(pp.shape, pp.bound))


def pp_decode(
    family: SignedPathFamily, shape: Partition, bound: int
) -> PlanePartition:
    """Invert pp_encode.

    Requires the identity permutation, the endpoint configuration of
    (shape, bound), and vertex-disjointness; raises ValueError otherwise.
    """
    return _decode(family, PlanePartition, shape, bound,
                   plane_partition_endpoints(shape, bound))


def ssyt_encode(tableau: Tableau) -> SignedPathFamily:
    """Encode a semistandard tableau as an identity-permutation path family.

    Path j (1-based) has exactly varcount steps; its east steps sit at the
    positions listed in column j of the tableau.  The result is always
    vertex-disjoint.
    """
    return _encode(tableau, tableau_endpoints(tableau.shape, tableau.varcount))


def ssyt_decode(
    family: SignedPathFamily, shape: Partition, varcount: int
) -> Tableau:
    """Invert ssyt_encode; same preconditions as pp_decode.  Every path
    then has exactly ``varcount`` steps, as every path from a_j to b_j
    does."""
    return _decode(family, Tableau, shape, varcount,
                   tableau_endpoints(shape, varcount))


_last_step_east = attrgetter("_last_east")
_first_step_east = attrgetter("_first_east")


def last_step_east_count(family: SignedPathFamily) -> int:
    """Number of paths whose final step is east, summed from the flags each
    path set when it was built.

    On an encoded plane partition this equals the number of rows containing
    0: the entry recorded by the final east step is 0 exactly when no south
    steps follow it.
    """
    return sum(map(_last_step_east, family.paths))


def first_step_east_count(family: SignedPathFamily) -> int:
    """Number of paths whose first step is east, summed from the flags each
    path set when it was built.

    On an encoded plane partition this equals the number of rows containing
    the bound: a first east step means the first entry lost no height.
    """
    return sum(map(_first_step_east, family.paths))


def count_connection_paths(a: Point, b: Point) -> int:
    """Number of monotone paths from a to b: C(dx + dy, dy) with dx the east
    and dy the south displacement; zero when b is not reachable."""
    dx = b[0] - a[0]
    dy = a[1] - b[1]
    if dx < 0 or dy < 0:
        return 0
    return binomial(dx + dy, dy)


def enumerate_connection_paths(a: Point, b: Point) -> Iterator[Path]:
    """All monotone paths from a to b, ordered by the position set of their
    east steps (lexicographic)."""
    dx = b[0] - a[0]
    dy = a[1] - b[1]
    if dx < 0 or dy < 0:
        return
    total = dx + dy
    a = tuple(a)  # a cache key, hence hashable
    for east_positions in combinations(range(total), dx):
        chosen = set(east_positions)
        word = "".join("E" if t in chosen else "S" for t in range(total))
        yield _path(a, word)


def _connection_counts(endpoints: Endpoints) -> list[list[int]]:
    """The matrix of path counts from a_i to b_j."""
    n = endpoints.n
    return [
        [count_connection_paths(endpoints.a[i], endpoints.b[j]) for j in range(n)]
        for i in range(n)
    ]


def count_families(endpoints: Endpoints) -> int:
    """Total number of signed families over all permutations: the permanent
    of the connection-count matrix, by a dynamic programme over the
    columns used so far.

    The rows go in order of their first nonzero column.  A state is the
    set of columns the rows so far use, a bit mask read from the current
    row's first nonzero column, mapped to the weighted number of ways to
    reach it.  No later row reaches a column left of that one, so before
    each row the states that leave such a column unused are dropped and
    the rest are shifted to the row's first column.  This is exact for any
    integer matrix.  Row i leaves at most C(n, i) states; on the endpoints
    built here each row's nonzero entries form an interval, so far fewer
    stay alive and a tall narrow shape counts in milliseconds.
    """
    rows = []
    for row in _connection_counts(endpoints):
        entries = [(j, c) for j, c in enumerate(row) if c]
        if not entries:
            return 0
        rows.append(entries)
    rows.sort(key=lambda entries: entries[0][0])
    states = {0: 1}
    base = 0  # the column that bit 0 of a mask stands for
    for entries in rows:
        first = entries[0][0]
        shift = first - base
        if shift:
            filled = (1 << shift) - 1
            states = {mask >> shift: ways for mask, ways in states.items()
                      if mask & filled == filled}
            base = first
        grown = {}
        for mask, ways in states.items():
            for j, c in entries:
                bit = 1 << (j - base)
                if not mask & bit:
                    grown[mask | bit] = grown.get(mask | bit, 0) + ways * c
        states = grown
    return sum(states.values())


def _family_count(endpoints: Endpoints) -> int:
    """``count_families(endpoints)``, computed once per endpoints object, so
    the guard of a walk and a report on the same endpoints read one
    count."""
    count = endpoints._count
    if count is None:
        count = count_families(endpoints)
        _set_count(endpoints, count)
    return count


def count_ni_families(endpoints: Endpoints) -> int:
    """Number of non-intersecting families: the determinant of the
    connection-count matrix."""
    return det_int(_connection_counts(endpoints))


def _reachable_permutations(counts, prefix=()) -> Iterator[tuple[int, ...]]:
    """Yield the permutations sigma extending ``prefix`` with every
    counts[i][sigma[i]] nonzero, in itertools.permutations order: a
    depth-first walk over ascending columns that prunes dead branches."""
    if len(prefix) == len(counts):
        yield prefix
        return
    for j, count in enumerate(counts[len(prefix)]):
        if count and j not in prefix:
            yield from _reachable_permutations(counts, prefix + (j,))


def _families(endpoints: Endpoints, sigmas) -> Iterator[SignedPathFamily]:
    """Yield the families over each permutation in ``sigmas`` in turn, the
    per-connection path streams in lexicographic product order.  Each
    path joins its endpoints by construction, so no family is checked.
    Each connection's paths are listed once per walk, however many
    permutations use it: at most n^2 lists, not n per permutation."""
    trusted = SignedPathFamily._trusted
    connections = {}
    for sigma in sigmas:
        streams = []
        for i, s in enumerate(sigma):
            paths = connections.get((i, s))
            if paths is None:
                paths = connections[i, s] = list(enumerate_connection_paths(
                    endpoints.a[i], endpoints.b[s]))
            streams.append(paths)
        for paths in product(*streams):
            yield trusted(endpoints, sigma, paths)


def _guard_walk(endpoints: Endpoints, what: str, families: int,
                guard_limit: int | None) -> None:
    """Refuse a walk of ``families`` families on ``endpoints`` as ``what``,
    then, as ``path family steps``, families of more steps than the guard:
    the sum of (b_x - b_y) - (a_x - a_y) over the paths, for every sigma."""
    check_guard(what, families, guard_limit)
    check_guard("path family steps", sum(x - y for x, y in endpoints.b)
                - sum(x - y for x, y in endpoints.a), guard_limit)


def enumerate_families(
    endpoints: Endpoints, guard_limit: int | None = None
) -> Iterator[SignedPathFamily]:
    """Yield every signed family on the endpoints, exactly once.

    Iterates permutations in itertools order and, within a permutation,
    the per-connection path streams in lexicographic product order.
    Permutations with an unreachable connection contribute no families
    and are never visited.
    """
    _guard_walk(endpoints, "path families", _family_count(endpoints),
                guard_limit)
    counts = _connection_counts(endpoints)
    yield from _families(endpoints, _reachable_permutations(counts))


def enumerate_ni_families(
    endpoints: Endpoints, guard_limit: int | None = None
) -> Iterator[SignedPathFamily]:
    """Yield the non-intersecting families.

    Filters the identity-permutation stream; on the endpoint configurations
    built here vertex-disjointness forces the identity permutation, so
    nothing is missed (exhaustively checked in the test suite).
    """
    _guard_walk(endpoints, "identity path families", math.prod(
        map(count_connection_paths, endpoints.a, endpoints.b)), guard_limit)
    yield from filter(is_nonintersecting,
                      _families(endpoints, [tuple(range(endpoints.n))]))
