"""Partitions, and plane partitions and tableaux: one filling, two rules.

A plane partition bounded by m has entries in [0, m], weakly decreasing
along rows and down columns; a semistandard tableau in n variables has
entries in [1, n], weakly increasing along rows and strictly down columns.
Zero is a genuine entry: a row contains 0 when the value 0 appears in it.

Enumeration orders are fixed and documented so that golden-file tests are
byte-stable:

* partitions: by total size, then reverse-lexicographically within a size;
* plane partitions: lexicographically on the row-major entry sequence,
  largest first (the all-m filling comes first, all-zeros last);
* tableaux: lexicographically on the row-major entry sequence, smallest first.

All objects are immutable and hashable.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import combinations_with_replacement, groupby
from typing import Iterator

from .algebra import (MultiPoly, UniPoly, _Value, _slot_setters, binomial,
                      det_int, _ints, _is_int)
from .guards import check_guard


class Partition(_Value):
    """Weakly decreasing sequence of positive integers; may be empty.

    A part that is not an int is refused with ValueError.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = _ints(parts, "parts")
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"parts[{i}]: part {p} is not positive")
            if i > 0 and parts[i - 1] < p:
                raise ValueError(
                    f"parts[{i}]: parts must be weakly decreasing "
                    f"({parts[i - 1]} < {p})"
                )
        _set_parts(self, parts)

    def __len__(self) -> int:
        """Number of parts (rows)."""
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def _key(self) -> tuple:
        return self.parts

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def size(self) -> int:
        """Number of cells."""
        return sum(self.parts)

    def transpose(self) -> "Partition":
        """Conjugate partition: part j counts the rows of length >= j."""
        if not self.parts:
            return Partition(())
        return Partition(
            sum(1 for p in self.parts if p >= j) for j in range(1, self.parts[0] + 1)
        )

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        """Parse comma-separated parts; the empty string is the empty partition."""
        text = text.strip()
        if not text:
            return cls(())
        try:
            parts = [int(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise ValueError(f"cannot parse partition from {text!r}") from exc
        return cls(parts)


(_set_parts,) = _slot_setters(Partition, "parts")


def enumerate_partitions(max_size: int) -> Iterator[Partition]:
    """Yield every partition with at most ``max_size`` cells, exactly once.

    Order: by total size ascending, then reverse-lexicographic within each
    size, so (4) comes before (3,1) before (2,2) before (2,1,1) before
    (1,1,1,1).
    """
    if max_size < 0:
        raise ValueError("max_size must be nonnegative")

    def of_size(n: int, largest: int) -> Iterator[tuple[int, ...]]:
        if n == 0:
            yield ()
            return
        for first in range(min(n, largest), 0, -1):
            for rest in of_size(n - first, first):
                yield (first,) + rest

    for n in range(max_size + 1):
        for parts in of_size(n, n):
            yield Partition(parts)


class _Filling(_Value):
    """A filling of a Young diagram under its kind's rule; immutable,
    hashable, and equal only to fillings of the same kind.

    Each kind declares its rule once, for the constructor and the walker:
    ``_values(bound)``, the alphabet in row order (empty exactly when the
    int bound is invalid); ``_column_ok(above, entry)``, the column test;
    ``_kind`` and ``_bound_field`` for its JSON; ``_bound_name`` and its
    refusal texts.  A bound that is not an int is refused by ``_alphabet``,
    one out of range also by ``_check_bound``.

    Each kind also declares once how a filling becomes lattice paths, one
    path per line, for the encoder, the decoder, the endpoints and the
    closed-form count: ``_line_steps(shape, bound)``, each line's east and
    total step counts (k, L); ``_lines(rows)``, the filling's lines from its
    rows and back (its own inverse); and ``_reading(bound)``, a triple
    (start, south, east) such that the t-th east step of a line, after s
    south steps in all, records the entry start + south * s + east * t.
    ``south`` is 1 or -1, so s is south * (entry - start - east * t).

    The constructor and ``from_json`` check every cell; the walker's rows
    are valid by construction, so ``_enumerate`` builds its fillings
    through ``_Value._trusted``, which passes them to ``_fill`` without
    checking them again.
    """

    __slots__ = ("shape", "_bound", "rows")

    def __init__(self, shape: Partition, bound: int, rows):
        shape = shape if isinstance(shape, Partition) else Partition(shape)
        values = self._alphabet(bound)
        if not values:
            raise ValueError(self._bad_bound.format(bound))
        rows = tuple(_ints(row, f"rows[{i}]") for i, row in enumerate(rows))
        if len(rows) != len(shape):
            raise ValueError(f"expected {len(shape)} rows, got {len(rows)}")
        low, high = sorted((values[0], values[-1]))
        # a row follows the alphabet's order: no step goes against its step
        step, column_ok = values.step, self._column_ok
        for i, row in enumerate(rows):
            if len(row) != shape[i]:
                raise ValueError(
                    f"rows[{i}]: expected {shape[i]} entries, got {len(row)}"
                )
            for k, e in enumerate(row):
                if not low <= e <= high:
                    problem = f"entry {e} outside [{low}, {high}]"
                elif k > 0 and (e - row[k - 1]) * step < 0:
                    problem = self._bad_row.format(row[k - 1], e)
                elif i > 0 and not column_ok(rows[i - 1][k], e):
                    problem = self._bad_column.format(rows[i - 1][k], e)
                else:
                    continue
                raise ValueError(f"rows[{i}][{k}]: {problem}")
        self._fill(shape, bound, rows)

    def _fill(self, shape: Partition, bound: int, rows: tuple) -> None:
        """Set the slots; ``rows`` is a tuple of row tuples that obeys this
        kind's rule on the shape and the int bound."""
        _set_shape(self, shape)
        _set_bound(self, bound)
        _set_rows(self, rows)

    def _key(self) -> tuple:
        return (self.shape, self._bound, self.rows)

    @classmethod
    def _alphabet(cls, bound) -> range:
        """This kind's values under ``bound``; a bound that is not an int
        is refused with ValueError."""
        if not _is_int(bound):
            raise ValueError(f"{cls._bound_name} {bound!r} is not an integer")
        return cls._values(bound)

    @classmethod
    def _check_bound(cls, bound) -> range:
        """``_alphabet(bound)``, refused with ``_no_values`` when empty."""
        values = cls._alphabet(bound)
        if not values:
            raise ValueError(cls._no_values)
        return values

    @classmethod
    def _checked_line_steps(cls, shape, bound) -> list[tuple[int, int]]:
        """``_line_steps`` of the shape, read through ``Partition`` first,
        and the bound, then checked by ``_check_bound``."""
        shape = shape if isinstance(shape, Partition) else Partition(shape)
        cls._check_bound(bound)
        return cls._line_steps(shape, bound)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.shape.parts)}, {self._bound}, {[list(r) for r in self.rows]})"

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape.parts),
            self._bound_field: self._bound,
            "rows": [list(r) for r in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "_Filling":
        return cls(*_filling_fields(data, cls._kind, cls._bound_field))

    @classmethod
    def _groups(cls, shape: Partition, bound: int) -> Iterator[tuple]:
        """The ``_fillings`` groups of this kind's fillings of the shape."""
        return _fillings(shape, cls._check_bound(bound), cls._column_ok)

    @classmethod
    def _enumerate(cls, shape: Partition, bound: int) -> Iterator["_Filling"]:
        """This kind's fillings of the shape, in the order of the walk."""
        shape = shape if isinstance(shape, Partition) else Partition(shape)
        trusted = cls._trusted
        for rows in _expand(shape, cls._groups(shape, bound)):
            yield trusted(shape, bound, rows)


_set_shape, _set_bound, _set_rows = _slot_setters(
    _Filling, "shape", "_bound", "rows")


class PlanePartition(_Filling):
    """Filling of a Young diagram with entries in [0, bound], weakly decreasing
    along rows and down columns."""

    __slots__ = ()
    bound = _Filling._bound  # the bound's slot, under this kind's name

    _values = staticmethod(lambda bound: range(bound, -1, -1))
    _column_ok = operator.ge
    _kind, _bound_field, _bound_name = "plane partition", "max", "bound"
    _bad_bound = "bound {} is negative"
    _no_values = "bound must be nonnegative"
    _bad_row = "row not weakly decreasing ({} < {})"
    _bad_column = "column not weakly decreasing ({} < {})"
    # path rule: a line is a row, k = its length, L = bound + k, s = bound - e
    _line_steps = staticmethod(
        lambda shape, bound: [(k, bound + k) for k in shape.parts])
    _lines = staticmethod(lambda rows: rows)
    _reading = staticmethod(lambda bound: (bound, -1, 0))

    def zero_rows(self) -> int:
        """Number of rows containing the entry 0: a weakly decreasing row
        contains 0 exactly when its last entry is 0."""
        return sum(row[-1] == 0 for row in self.rows)

    def max_rows(self) -> int:
        """Number of rows containing the bound: a weakly decreasing row
        contains it exactly when its first entry equals it."""
        bound = self.bound
        return sum(row[0] == bound for row in self.rows)


def _filling_fields(data, kind: str, bound_field: str):
    """Shape, bound and rows of a filling's JSON object, type-checked.

    Every number must be a JSON integer (floats and booleans are refused
    rather than truncated), and rows must be a list of lists.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{kind} JSON must be an object")
    for field in ("shape", bound_field, "rows"):
        if field not in data:
            raise ValueError(f"{kind} JSON missing field {field!r}")
    shape, bound, rows = data["shape"], data[bound_field], data["rows"]
    if not isinstance(shape, list) or not all(map(_is_int, shape)):
        raise ValueError(f"{kind} JSON: shape must be a list of integers")
    if not _is_int(bound):
        raise ValueError(f"{kind} JSON: {bound_field} must be an integer")
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(map(_is_int, row)) for row in rows):
        raise ValueError(f"{kind} JSON: rows must be a list of lists of integers")
    return Partition(shape), bound, rows


def _fillings(shape: Partition, values: range, column_ok) -> Iterator[tuple]:
    """Yield every filling of the shape, grouped by all rows but the last.

    A row is a multiset of ``values`` listed in their order, so it is weakly
    monotone, and each entry must satisfy ``column_ok(above, entry)``.  Each
    group is ``(prefix, last_rows)``: ``prefix`` is a tuple of the first
    len(shape) - 1 rows, and ``last_rows`` is an iterable of the rows
    allowed beneath it, so the group's fillings are ``prefix + (row,)`` for
    each row in turn.  Expanding the groups in order is lexicographic on
    the row-major sequence, in the order of ``values``.

    The rows allowed beneath a row depend only on that row cut to the
    length of the row below, so they are computed once per cut and shared:

    * beneath the first row, a lexicographic stream, the first rows with
      one cut come one after another, so only the current run's list is
      kept; if the second row is as long as the first, no cut comes back
      and each first row gets a lazy stream, so memory stays that of one
      stack of rows, as on a wide two-row shape;
    * beneath any later row, a cut comes back under many prefixes, so its
      rows are kept for the walk, as a list of references into the one
      list of candidate rows of that length.

    The first row is a plain stream, so a one-row shape builds no list.
    One iterator per row sits on an explicit stack, so no recursion limit
    bounds the shape.  The empty shape yields no group: its one filling,
    (), has no last row.
    """
    parts = shape.parts
    if not parts:
        return
    first = combinations_with_replacement(values, parts[0])
    last = len(parts) - 1
    if not last:
        yield (), first
        return

    def fits(above: tuple, rows) -> list[tuple[int, ...]]:
        return [row for row in rows if all(map(column_ok, above, row))]

    run_cut, run = None, []

    def beneath_first(above: tuple):
        nonlocal run_cut, run
        if parts[1] == parts[0]:
            return (row for row in combinations_with_replacement(values, parts[1])
                    if all(map(column_ok, above, row)))
        cut = above[:parts[1]]
        if cut != run_cut:
            run_cut = cut
            run = fits(cut, combinations_with_replacement(values, parts[1]))
        return run

    candidates: dict[int, list[tuple[int, ...]]] = {}
    allowed: dict[tuple, list[tuple[int, ...]]] = {}

    def beneath(above: tuple, length: int) -> list[tuple[int, ...]]:
        cut = above[:length]
        found = allowed.get(cut)
        if found is None:
            pool = candidates.get(length)
            if pool is None:
                pool = candidates[length] = list(
                    combinations_with_replacement(values, length))
            found = allowed[cut] = fits(cut, pool)
        return found

    rows: list[tuple[int, ...]] = []
    stack = [first]
    while stack:
        row = next(stack[-1], None)
        if row is None:
            stack.pop()
            if rows:
                rows.pop()
            continue
        rows.append(row)
        level = len(rows)
        below = (beneath_first(row) if level == 1
                 else beneath(row, parts[level]))
        if level == last:
            yield tuple(rows), below
            rows.pop()
        else:
            stack.append(iter(below))


def _expand(shape: Partition, groups) -> Iterator[tuple]:
    """The fillings of the shape's ``_fillings`` groups in order, as tuples
    of row tuples; the empty shape's one filling, (), comes from no group."""
    if not shape.parts:
        yield ()
    for prefix, last_rows in groups:
        for row in last_rows:
            yield prefix + (row,)


def enumerate_plane_partitions(
    shape: Partition, bound: int
) -> Iterator[PlanePartition]:
    """Yield every plane partition of the shape with entries in [0, bound].

    Order is lexicographic on the row-major entry sequence, largest first.
    The stream is exhaustive and duplicate-free; the all-zeros filling is
    always the final element.
    """
    return PlanePartition._enumerate(shape, bound)


def _binomial_det(lines: list[tuple[int, int]]) -> int:
    """det[C(L_j, k_j - j + i)] over the lines (k_j, L_j) of a filling
    kind's path rule: entry (i, j) counts the paths from a_i to b_j, so by
    Lindstrom-Gessel-Viennot the determinant counts the non-intersecting
    families, which are the encoded fillings."""
    return det_int([[binomial(steps, k - j + i)
                     for j, (k, steps) in enumerate(lines)]
                    for i in range(len(lines))])


def count_plane_partitions(shape: Partition, bound: int) -> int:
    """Closed-form count of PP(shape; bound): ``_binomial_det`` of its rows.

    Entry (i, j), 1-based, is C(shape_j + bound, shape_j - j + i).
    Transposing a filling is a bijection PP(shape; bound) ->
    PP(shape'; bound), so the determinant is taken on whichever of the
    shape and its transpose has fewer parts.  The shape is read through
    ``Partition``; a bound that is not a nonnegative int is then refused
    with ValueError.
    """
    shape = shape if isinstance(shape, Partition) else Partition(shape)
    parts = shape.parts
    if parts and parts[0] < len(parts):  # the transpose has parts[0] parts
        shape = shape.transpose()
    return _binomial_det(PlanePartition._checked_line_steps(shape, bound))


def _guard_plane_partitions(shape: Partition, bound: int,
                            guard_limit: int | None) -> int:
    """Refuse PP(shape; bound) if it exceeds the guard; return its count."""
    count = count_plane_partitions(shape, bound)
    check_guard(f"PP({list(shape.parts)}; {bound})", count, guard_limit)
    return count


def refined_genfuns_by_enumeration(
    shape: Partition, bound: int, guard_limit: int | None = None
) -> tuple[UniPoly, UniPoly]:
    """Both refined generating functions of PP(shape; bound) by brute tally.

    Returns ``(zeros, maxes)``: the coefficient of x**k in ``zeros`` counts
    the plane partitions with k rows containing 0, in ``maxes`` those with
    k rows containing the bound.  Both are marginals of one joint
    histogram indexed by ``zeros + k * maxes`` (k = rows + 1), to which a
    row adds its step ``(row[-1] == 0) + k * (row[0] == bound)``.

    The tally goes row by row.  The rows allowed beneath a row depend only
    on that row cut to the length of the row below, so the plane
    partitions whose placed rows end in one cut are counted together: a
    layer maps each cut to the joint histogram of the rows placed above
    it.  Every candidate row is still tried beneath every reachable cut,
    and its step is added to that cut's histogram, times the number of
    rows with its own cut and step; no determinant or closed form enters
    beyond the guard.

    * The first rows come in lexicographic order, so each cut is one run
      of them, counted as it passes, and the rows beneath it are a stream.
    * Rows are grouped by their cut and step in one C-level count.  The
      last row's cut is the shared empty tuple, so a one-row shape's rows,
      and those beneath the first row of a two-row shape, are counted
      without holding one, and the combinations reuse their tuple.
    """
    shape = shape if isinstance(shape, Partition) else Partition(shape)
    _guard_plane_partitions(shape, bound, guard_limit)
    parts = shape.parts
    k = len(parts) + 1
    values = PlanePartition._values(bound)
    ge = operator.ge

    def move(layer: dict, hist: dict, rows, length: int) -> None:
        """Add ``hist``, shifted by each row's step and times its count,
        into ``layer`` at the row's cut to ``length``."""
        counts = Counter(map(operator.itemgetter(slice(0, length), -1, 0), rows))
        for (cut, low, high), n in counts.items():
            step = (low == 0) + k * (high == bound)
            target = layer.get(cut)
            if target is None:
                layer[cut] = {i + step: c * n for i, c in hist.items()}
            else:
                get = target.get
                for i, c in hist.items():
                    i += step
                    target[i] = get(i, 0) + c * n

    lengths = parts[1:] + (0,)  # the length each row is cut to
    layer = {(): {0: 1}}  # the empty shape's one filling
    if parts:
        first = combinations_with_replacement(values, parts[0])
        layer = {}
        if len(parts) == 1:
            move(layer, {0: 1}, first, 0)
        else:
            below = parts[1]
            for cut, run in groupby(first, operator.itemgetter(slice(0, below))):
                steps = {}
                for row in run:
                    step = (row[-1] == 0) + k * (row[0] == bound)
                    steps[step] = steps.get(step, 0) + 1
                rows = filter(lambda row: all(map(ge, cut, row)),
                              combinations_with_replacement(values, below))
                move(layer, steps, rows, lengths[1])
        pool_length = None
        for length, cut_to in zip(parts[2:], lengths[2:]):
            if length != pool_length:
                pool_length = length
                pool = list(combinations_with_replacement(values, length))
            above, layer = layer, {}
            for cut, hist in above.items():
                move(layer, hist,
                     [row for row in pool if all(map(ge, cut, row))], cut_to)
    zeros, maxes = [0] * k, [0] * k
    for index, n in layer[()].items():
        x, z = divmod(index, k)
        zeros[z] += n
        maxes[x] += n
    return UniPoly(zeros), UniPoly(maxes)


def genfun_by_enumeration(
    shape: Partition,
    bound: int,
    statistic: str,
    guard_limit: int | None = None,
) -> UniPoly:
    """Generating function of PP(shape; bound) by exhaustive tally.

    ``statistic`` is "zeros" (rows containing 0) or "maxes" (rows containing
    the bound).  The coefficient of x**k counts the plane partitions whose
    statistic equals k; the value at x = 1 is the total count.  This is one
    half of ``refined_genfuns_by_enumeration``.
    """
    if statistic not in ("zeros", "maxes"):
        raise ValueError(f"unknown statistic {statistic!r}; use 'zeros' or 'maxes'")
    zeros, maxes = refined_genfuns_by_enumeration(shape, bound, guard_limit)
    return zeros if statistic == "zeros" else maxes


def _transpose(rows) -> list[tuple[int, ...]]:
    """The columns of a filling's rows, or the rows of its columns."""
    return [tuple(row[j] for row in rows if len(row) > j)
            for j in range(len(rows[0]) if rows else 0)]


class Tableau(_Filling):
    """Semistandard Young tableau: rows weakly increase, columns strictly
    increase, entries in [1, varcount]."""

    __slots__ = ()
    varcount = _Filling._bound  # the bound's slot, under this kind's name

    _values = staticmethod(lambda varcount: range(1, varcount + 1))
    _column_ok = operator.lt
    _kind, _bound_field, _bound_name = "tableau", "vars", "varcount"
    _bad_bound = "varcount {} must be at least 1"
    _no_values = "varcount must be at least 1"
    _bad_row = "row not weakly increasing ({} > {})"
    _bad_column = "column not strictly increasing ({} >= {})"
    # path rule: a line is a column, k = its length, L = varcount, s = c - t
    _line_steps = staticmethod(
        lambda shape, varcount: [(k, varcount) for k in shape.transpose()])
    _lines = staticmethod(_transpose)
    _reading = staticmethod(lambda varcount: (0, 1, 1))

    @classmethod
    def _groups(cls, shape: Partition, varcount: int) -> Iterator[tuple]:
        groups = super()._groups(shape, varcount)
        # a strictly increasing column holds at most varcount entries
        return iter(()) if len(shape) > varcount else groups

    def column(self, j: int) -> tuple[int, ...]:
        """Entries of column j (0-based), top to bottom; strictly increasing."""
        return tuple(row[j] for row in self.rows if len(row) > j)

    def weight(self) -> tuple[int, ...]:
        """Content vector: component t counts entries equal to t+1."""
        return _weight(self.rows, self.varcount)


def _weight(rows, varcount: int) -> tuple[int, ...]:
    """Content vector of a tableau's rows: component t counts entries t+1."""
    counts = [0] * varcount
    for row in rows:
        for e in row:
            counts[e - 1] += 1
    return tuple(counts)


def enumerate_tableaux(shape: Partition, varcount: int) -> Iterator[Tableau]:
    """Yield every semistandard tableau of the shape with entries <= varcount.

    Order is lexicographic on the row-major entry sequence, smallest first.
    The stream is empty exactly when the shape has more rows than varcount.
    """
    return Tableau._enumerate(shape, varcount)


def count_tableaux(shape: Partition, varcount: int) -> int:
    """Closed-form tableau count: ``_binomial_det`` of the columns.

    Entry (i, j), 1-based, is C(varcount, mu_j - j + i) where mu is the
    transposed shape.  The shape is read through ``Partition``; a varcount
    that is not a positive int is then refused with ValueError.
    """
    return _binomial_det(Tableau._checked_line_steps(shape, varcount))


def _guard_tableaux(shape: Partition, varcount: int,
                    guard_limit: int | None) -> int:
    """Refuse SSYT(shape; varcount) if it exceeds the guard; return its count."""
    count = count_tableaux(shape, varcount)
    check_guard(f"SSYT({list(shape.parts)}; {varcount})", count, guard_limit)
    return count


def schur_by_enumeration(
    shape: Partition, varcount: int, guard_limit: int | None = None
) -> MultiPoly:
    """Schur polynomial in ``varcount`` variables by tableau tally.

    Sums the monomial x^(weight of T) over all semistandard tableaux of the
    shape with entries at most varcount.
    """
    shape = shape if isinstance(shape, Partition) else Partition(shape)
    _guard_tableaux(shape, varcount, guard_limit)
    return MultiPoly._trusted(varcount, dict(Counter(
        _weight(rows, varcount)
        for rows in _expand(shape, Tableau._groups(shape, varcount)))))
