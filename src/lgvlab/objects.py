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

import functools
import operator
from collections import Counter
from itertools import (chain, combinations_with_replacement, dropwhile,
                       groupby, islice, repeat)
from typing import Iterator

from .algebra import (MultiPoly, UniPoly, _Value, _bareiss, _slot_setters,
                      binomial, _ints, _is_int)
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
    def _walk(cls, shape: Partition, bound: int) -> Iterator[tuple]:
        """The rows of this kind's fillings of the shape, from ``_fillings``."""
        return _fillings(shape, cls._check_bound(bound), cls._column_ok)

    @classmethod
    def _enumerate(cls, shape: Partition, bound: int) -> Iterator["_Filling"]:
        """This kind's fillings of the shape, in the order of the walk."""
        shape = shape if isinstance(shape, Partition) else Partition(shape)
        trusted = cls._trusted
        for rows in cls._walk(shape, bound):
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


def _stream_beneath(values: range, column_ok, cut: tuple):
    """The rows as long as ``cut`` allowed beneath it, as a lazy filter of
    the multisets of ``values`` in their order.

    The multisets come in lexicographic order, in the order of
    ``values``, and a row allowed entry by entry is also allowed when
    ``column_ok`` compares the two tuples lexicographically; so the rows
    before the first one allowed that way are dropped without the entry
    test."""
    rows = dropwhile(lambda row: not column_ok(cut, row),
                     combinations_with_replacement(values, len(cut)))
    return filter(lambda row: all(map(column_ok, cut, row)), rows)


def _rows_beneath(values: range, column_ok):
    """``beneath(cut)``: the rows as long as ``cut`` allowed beneath it, as
    references into the candidate rows of that length, the multisets of
    ``values`` in their order, which are listed once.

    The cut is itself a candidate row, and, as in ``_stream_beneath``,
    every candidate before it is refused lexicographically, so the entry
    test starts at the cut's own place, found by a C-level scan."""
    candidates: dict[int, list[tuple[int, ...]]] = {}

    def beneath(cut: tuple) -> list[tuple[int, ...]]:
        pool = candidates.get(len(cut))
        if pool is None:
            pool = candidates[len(cut)] = list(
                combinations_with_replacement(values, len(cut)))
        return [row for row in islice(pool, pool.index(cut), None)
                if all(map(column_ok, cut, row))]

    return beneath


def _first_runs(parts: tuple, values: range, column_ok, beneath):
    """The first rows of a shape of two or more rows, in the runs of
    their lexicographic stream that share a cut, each with the rows
    allowed beneath it: a run of cut first rows shares one ``beneath``
    list, and an uncut first row, alone in its run, reads a
    ``_stream_beneath`` stream once."""
    first = combinations_with_replacement(values, parts[0])
    for cut, run in groupby(first, operator.itemgetter(slice(0, parts[1]))):
        yield run, (beneath(cut) if parts[1] < parts[0]
                    else _stream_beneath(values, column_ok, cut))


def _fillings(shape: Partition, values: range, column_ok) -> Iterator[tuple]:
    """Yield every filling of the shape as a tuple of row tuples.

    A row is a multiset of ``values`` listed in their order, so it is weakly
    monotone, and each entry must satisfy ``column_ok(above, entry)``.  The
    order is lexicographic on the row-major sequence, in the order of
    ``values``; the empty shape yields its one filling, ().

    The rows allowed beneath a row depend only on its cut, that row cut to
    the length of the row below, and ``_rows_beneath`` lists them.  The
    first rows are a lexicographic stream, so the first rows with one cut
    come in one run, and the rows beneath the run are listed once and
    dropped when it ends.  An uncut first row is alone in its run, so the
    rows beneath it are a ``_stream_beneath`` stream instead, and an
    equal-length two-row shape walks in the memory of one stack of rows.
    Beneath later rows a cut comes back under many prefixes, so its rows
    are kept for the walk.  One iterator per row sits on an explicit
    stack, so no recursion limit bounds the shape.
    """
    parts = shape.parts
    if not parts:
        yield ()
        return
    last = len(parts) - 1
    if not last:  # each row as a one-row filling
        yield from zip(combinations_with_replacement(values, parts[0]))
        return
    beneath = _rows_beneath(values, column_ok)
    kept = functools.cache(beneath)
    for run, second in _first_runs(parts, values, column_ok, beneath):
        for top in run:
            # rows[i] is placed on row i and stack[i] yields row i + 1
            rows, stack = [top], [iter(second)]
            while stack:
                if len(rows) < last:
                    row = next(stack[-1], None)
                    if row is not None:
                        rows.append(row)
                        stack.append(iter(kept(row[:parts[len(rows)]])))
                        continue
                else:
                    prefix = tuple(rows)
                    for row in stack[-1]:
                        yield prefix + (row,)
                stack.pop()
                rows.pop()


def enumerate_plane_partitions(
    shape: Partition, bound: int
) -> Iterator[PlanePartition]:
    """Yield every plane partition of the shape with entries in [0, bound].

    Order is lexicographic on the row-major entry sequence, largest first.
    The stream is exhaustive and duplicate-free; the all-zeros filling is
    always the final element.
    """
    return PlanePartition._enumerate(shape, bound)


def _binomial_rows(lines: list[tuple[int, int]], rows: int,
                   lift: int = 0) -> list[list[int]]:
    """Rows i = 0..rows-1 of [C(L_j + lift * i, k_j - j + i)] over the
    lines (k_j, L_j) of a filling kind's path rule: entry (i, j) counts the
    paths from a_i to b_j.  ``count_tableaux``'s Jacobi-Trudi rows, whose
    steps grow with i, take ``lift`` = 1."""
    return [[binomial(steps + lift * i, k - j + i)
             for j, (k, steps) in enumerate(lines)] for i in range(rows)]


def _binomial_det(lines: list[tuple[int, int]]) -> int:
    """The determinant of the n ``_binomial_rows`` of the n lines: by
    Lindstrom-Gessel-Viennot it counts the non-intersecting families,
    which are the encoded fillings."""
    return _bareiss(_binomial_rows(lines, len(lines)))


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


def refined_determinant(shape: Partition, bound: int,
                        guard_limit: int | None = None) -> UniPoly:
    """The refined generating function of PP(shape; bound) by rows
    containing 0, det ``algebra.lgv_matrix(shape, bound)``, as n + 1 minors.

    Entry (i, j) of that matrix is x * B[i][j] + B[i+1][j], B being the
    n + 1 ``_binomial_rows`` of the lines with their last step dropped,
    (k - 1, L - 1).  By Cauchy-Binet the coefficient of x^t is det(B
    without row t), the plane partitions with t rows containing 0 (Gessel
    and Viennot 1985); ``_bareiss`` consumes its rows, so each minor gets
    fresh copies.  The shape is read through ``Partition`` and the bound
    checked as ``lgv_matrix`` checks them; the guard then sees the
    elimination work, (n + 1) * n^2 * max(1, min(bound, n)).
    """
    shape = shape if isinstance(shape, Partition) else Partition(shape)
    lines = PlanePartition._checked_line_steps(shape, bound)
    n = len(lines)
    check_guard(f"PP({list(shape.parts)}; {bound}) determinant",
                (n + 1) * n * n * max(1, min(bound, n)), guard_limit)
    b = _binomial_rows([(k - 1, steps - 1) for k, steps in lines], n + 1)
    return UniPoly([_bareiss([list(row) for row in b[:t] + b[t + 1:]])
                    for t in range(n + 1)])


def _guarded_count(count, label: str, shape: Partition, bound: int,
                   guard_limit: int | None) -> int:
    """Refuse the fillings of (shape, bound) if ``count(shape, bound)``,
    their closed-form count, exceeds the guard, which names them
    ``label(parts; bound)``; return the count."""
    total = count(shape, bound)
    check_guard(f"{label}({list(shape.parts)}; {bound})", total, guard_limit)
    return total


def _running_counts(length: int, size: int):
    """Every weakly increasing tuple of ``size`` ints in [0, length], in
    lexicographic order.  Entry t counts a row's entries among the first
    t + 1 values of an alphabet of size + 1, so the tuples stand for the
    rows of ``length`` entries, one each.  Up to two numbers they are read
    off ranges, so a long row builds no pool of length + 1 ints; there are
    at least C(length + 3, 3) longer ones, beside which the pool is small.
    """
    if size > 2:
        return combinations_with_replacement(range(length + 1), size)
    if size == 2:
        return chain.from_iterable(zip(repeat(s), range(s, length + 1))
                                   for s in range(length + 1))
    return zip(range(length + 1)) if size else iter(((),))


def _row_tally(shape: Partition, values: range, column_ok, tag: tuple,
               step, counted) -> dict:
    """The histogram ``{index: count}`` of the fillings of the shape whose
    rows are multisets of ``values``, each entry beneath the row above by
    ``column_ok``: a filling is counted at the sum of its rows' steps.
    Both brute routes run on it.

    The tally goes row by row.  The rows allowed beneath a row depend only
    on its cut to the length of the row below, so the fillings whose
    placed rows end in one cut are counted together: a layer maps each cut
    to the histogram of the rows placed above it.  The rows tried beneath
    a cut are grouped in one C-level count by their group,
    ``itemgetter(slice(0, length), *tag)(row)``: their own cut, then the
    items ``tag`` names, which fix the row's step, ``step(group)``.  Each
    group adds the histogram, shifted by its step and times its count, at
    its cut in the next layer.  The first rows come in lexicographic
    order, in runs that share a cut (``_first_runs``), each counted as it
    passes; the last row's cut is the shared empty tuple.  The work is one
    pass over each row tried, for every row beneath every reachable cut.
    The count keeps one key per group: a plane-partition group is a cut
    and two entries, so a stream of last rows is counted without keeping
    one, while a tableau group is the whole row, so each distinct row
    tried beneath a cut is kept.

    A one-row shape of N cells over a values has C(N + a - 1, a - 1)
    fillings of N entries each.  When a - 1 < N, as with one value, they
    are read off their ``_running_counts`` instead, a - 1 numbers each,
    and ``counted(counts)`` gives a filling's step from them; otherwise
    the row is the shorter of the two.
    """
    parts = shape.parts
    if not parts:
        return {0: 1}  # the empty shape's one filling
    if len(parts) == 1 and len(values) <= parts[0]:
        return Counter(map(counted,
                           _running_counts(parts[0], len(values) - 1)))

    def move(layer: dict, hist: dict, rows, length: int) -> None:
        """Add ``hist``, shifted by each row's step and times its count,
        into ``layer`` at the row's cut to ``length``."""
        groups = Counter(map(operator.itemgetter(slice(0, length), *tag),
                             rows))
        for group, n in groups.items():
            cut, by = group[0], step(group)
            target = layer.get(cut)
            if target is None:
                layer[cut] = {i + by: c * n for i, c in hist.items()}
            else:
                get = target.get
                for i, c in hist.items():
                    i += by
                    target[i] = get(i, 0) + c * n

    layer = {}
    if len(parts) == 1:
        move(layer, {0: 1}, combinations_with_replacement(values, parts[0]),
             0)
        return layer.get((), {})
    lengths = parts[1:] + (0,)  # the length each row is cut to
    beneath = _rows_beneath(values, column_ok)
    uncut = operator.itemgetter(slice(0, 0), *tag)  # a group, cut unread
    for run, second in _first_runs(parts, values, column_ok, beneath):
        hist = {}
        for by in map(step, map(uncut, run)):
            hist[by] = hist.get(by, 0) + 1
        move(layer, hist, second, lengths[1])
    for cut_to in lengths[2:]:  # each cut is as long as the row beneath
        above, layer = layer, {}
        for cut, hist in above.items():
            move(layer, hist, beneath(cut), cut_to)
    return layer.get((), {})


def refined_genfuns_by_enumeration(
    shape: Partition, bound: int, guard_limit: int | None = None
) -> tuple[UniPoly, UniPoly]:
    """Both refined generating functions of PP(shape; bound) by brute tally.

    Returns ``(zeros, maxes)``: the coefficient of x**k in ``zeros`` counts
    the plane partitions with k rows containing 0, in ``maxes`` those with
    k rows containing the bound.  Both are marginals of one joint
    histogram, ``_row_tally``'s, indexed by ``zeros + k * maxes`` (k =
    rows + 1), to which a row adds its step ``(row[-1] == 0) + k *
    (row[0] == bound)``: its group is its cut, last and first entries.
    A one-row shape of N cells with m < N is read off the running counts
    R_m, ..., R_1 of its rows, R_v counting the entries at least v: a row
    holds the bound when R_m > 0 (or m = 0) and 0 when R_1 < N (or m = 0).
    No determinant or closed form enters beyond the guard.
    """
    shape = shape if isinstance(shape, Partition) else Partition(shape)
    _guarded_count(count_plane_partitions, "PP", shape, bound, guard_limit)
    cells = shape.size()
    k = len(shape) + 1

    joint = _row_tally(
        shape, PlanePartition._values(bound), operator.ge, (-1, 0),
        lambda group: (group[1] == 0) + k * (group[2] == bound),
        lambda counts: (counts[-1:] < (cells,)) + k * (counts[:1] != (0,)))
    zeros, maxes = [0] * k, [0] * k
    for index, n in joint.items():
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
    def _walk(cls, shape: Partition, varcount: int) -> Iterator[tuple]:
        fillings = super()._walk(shape, varcount)
        # a strictly increasing column holds at most varcount entries
        return iter(()) if len(shape) > varcount else fillings

    def column(self, j: int) -> tuple[int, ...]:
        """Entries of column j (0-based), top to bottom; strictly increasing."""
        return tuple(row[j] for row in self.rows if len(row) > j)

    def weight(self) -> tuple[int, ...]:
        """Content vector: component t counts entries equal to t+1."""
        counts = [0] * self.varcount
        for row in self.rows:
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
    transposed shape, the dual Jacobi-Trudi determinant at x_1 = ... =
    x_n = 1.  A shape with fewer rows than columns takes the Jacobi-Trudi
    determinant of its rows instead, on the smaller matrix, transposed:
    entry (i, j) is h_d(1^n) = C(varcount - 1 + d, d), d = shape_j - j +
    i, the ``_binomial_rows`` of the lines (shape_j, varcount - 1 +
    shape_j - j) lifted by one step per row, picked before a column is
    built.  The shape is read through ``Partition``; a varcount that is
    not a positive int is then refused with ValueError.
    """
    shape = shape if isinstance(shape, Partition) else Partition(shape)
    parts = shape.parts
    if not parts or parts[0] <= len(parts):
        return _binomial_det(Tableau._checked_line_steps(shape, varcount))
    Tableau._check_bound(varcount)
    rows = [(part, varcount - 1 + part - j) for j, part in enumerate(parts)]
    return _bareiss(_binomial_rows(rows, len(rows), lift=1))


def schur_by_enumeration(
    shape: Partition, varcount: int, guard_limit: int | None = None
) -> MultiPoly:
    """Schur polynomial in ``varcount`` variables by tableau tally.

    Sums the monomial x^(weight of T) over all semistandard tableaux of the
    shape with entries at most varcount, through ``_row_tally``, so no
    tableau is walked.  A weight is held as its index, the number whose
    digits in base 256 (base cells + 1 past 255 cells) are its exponents:
    a row's step is the index of its own weight, and each index is
    decoded once at the end.  A one-row shape's rows are read off their
    running counts, whose differences are the weight.  Each weight has
    varcount exponents, so the guard also sees tableaux times varcount.
    """
    shape = shape if isinstance(shape, Partition) else Partition(shape)
    total = _guarded_count(count_tableaux, "SSYT", shape, varcount,
                           guard_limit)
    check_guard(f"SSYT({list(shape.parts)}; {varcount}) exponents",
                total * varcount, guard_limit)
    if not total:  # more rows than varcount: no tableau, nothing to tally
        return MultiPoly._trusted(varcount, {})
    cells = shape.size()
    # an exponent is at most the cells, so up to 255 cells each exponent
    # is one byte of the index, and the index is read back by its bytes
    byte = cells < 256
    base = 256 if byte else cells + 1
    powers = [base ** t for t in range(varcount)]
    place = [None, *powers].__getitem__  # an entry e adds base ** (e - 1)

    # a one-row weight is the differences of the running counts, so its
    # index is cells * base ** (n - 1) plus counts[t] * (base ** t - base **
    # (t + 1)) over t
    top = cells * powers[-1]
    drops = list(map(operator.sub, powers, powers[1:]))

    def counted(counts: tuple) -> int:
        return top + sum(map(operator.mul, counts, drops))

    def weight(index: int) -> tuple[int, ...]:
        if byte:
            return tuple(index.to_bytes(varcount, "little"))
        exponents = []
        for _ in powers:
            index, e = divmod(index, base)
            exponents.append(e)
        return tuple(exponents)

    # a row's group is its cut and the whole row
    tally = _row_tally(shape, Tableau._values(varcount), operator.lt,
                       (slice(None),), lambda group: sum(map(place, group[1])),
                       counted)
    return MultiPoly._trusted(varcount, {weight(index): n
                                         for index, n in tally.items()})
