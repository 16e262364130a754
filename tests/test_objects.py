import operator
import pathlib
import sys
import time
import tracemalloc
from collections import Counter, deque
from decimal import Decimal
from itertools import combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgvlab.algebra
import lgvlab.objects
from lgvlab.algebra import (
    MultiPoly,
    PolyMatrix,
    UniPoly,
    det_division_free,
    det_int,
    lgv_matrix,
)
from lgvlab.bijections import SwapCertificate
from lgvlab.guards import GuardExceeded
from lgvlab.objects import (
    Partition,
    PlanePartition,
    Tableau,
    _Filling,
    count_plane_partitions,
    count_tableaux,
    enumerate_partitions,
    enumerate_plane_partitions,
    enumerate_tableaux,
    genfun_by_enumeration,
    refined_genfuns_by_enumeration,
    schur_by_enumeration,
)
from lgvlab.paths import Endpoints, Path, SignedPathFamily


# --- partitions ------------------------------------------------------------

def test_partition_validation():
    assert Partition([3, 2, 2]).parts == (3, 2, 2)
    assert Partition([]).parts == ()
    with pytest.raises(ValueError):
        Partition([2, 3])
    with pytest.raises(ValueError):
        Partition([1, 0])


def test_partition_transpose():
    assert Partition([3, 1]).transpose().parts == (2, 1, 1)
    assert Partition([2, 2]).transpose().parts == (2, 2)
    assert Partition([]).transpose().parts == ()
    # conjugation is an involution
    for parts in [(4, 2, 1), (5,), (1, 1, 1)]:
        p = Partition(parts)
        assert p.transpose().transpose() == p


def test_partition_from_string():
    assert Partition.from_string("2,1").parts == (2, 1)
    assert Partition.from_string("").parts == ()
    with pytest.raises(ValueError):
        Partition.from_string("1,2")
    with pytest.raises(ValueError):
        Partition.from_string("a,b")


def test_enumerate_partitions_up_to_four():
    got = [tuple(p.parts) for p in enumerate_partitions(4)]
    assert got == [
        (), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    ]
    assert len(set(got)) == len(got)


@pytest.mark.parametrize("build, message", [
    (lambda: list(enumerate_partitions(-1)),
     r"^max_size must be nonnegative$"),
    (lambda: PlanePartition.from_json([]),
     r"^plane partition JSON must be an object$"),
    (lambda: Tableau.from_json("x"), r"^tableau JSON must be an object$"),
], ids=["partitions-negative-size", "pp-json-not-an-object",
        "tableau-json-not-an-object"])
def test_object_inputs_of_the_wrong_form_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# --- plane partitions ------------------------------------------------------

def test_plane_partition_validation():
    PlanePartition(Partition([2, 1]), 2, [[2, 1], [1]])
    with pytest.raises(ValueError, match="rows"):
        PlanePartition(Partition([2, 1]), 2, [[2, 1]])
    with pytest.raises(ValueError, match="row not weakly decreasing"):
        PlanePartition(Partition([2]), 2, [[1, 2]])
    with pytest.raises(ValueError, match="column not weakly decreasing"):
        PlanePartition(Partition([1, 1]), 2, [[1], [2]])
    with pytest.raises(ValueError, match="outside"):
        PlanePartition(Partition([1]), 2, [[3]])


def test_zero_and_max_row_statistics():
    pp = PlanePartition(Partition([3, 2]), 2, [[2, 2, 0], [2, 1]])
    assert pp.zero_rows() == 1    # first row ends in 0
    assert pp.max_rows() == 2     # both rows start with the bound
    flat = PlanePartition(Partition([2]), 0, [[0, 0]])
    assert flat.zero_rows() == 1
    assert flat.max_rows() == 1   # bound 0: every row attains it


def test_plane_partition_json_roundtrip():
    pp = PlanePartition(Partition([2, 1]), 3, [[3, 1], [2]])
    data = pp.to_json()
    assert data == {"shape": [2, 1], "max": 3, "rows": [[3, 1], [2]]}
    assert PlanePartition.from_json(data) == pp
    with pytest.raises(ValueError):
        PlanePartition.from_json({"shape": [1], "rows": [[0]]})


def test_enumeration_counts_match_determinant():
    # the two frozen spot counts, plus the closed form across a small grid
    assert count_plane_partitions(Partition([2, 1]), 2) == 14
    assert count_plane_partitions(Partition([2, 2]), 2) == 20
    for parts in [(), (1,), (3,), (2, 1), (2, 2), (1, 1, 1)]:
        for bound in range(4):
            shape = Partition(parts)
            enumerated = sum(1 for _ in enumerate_plane_partitions(shape, bound))
            assert enumerated == count_plane_partitions(shape, bound)


def _binomial_det(parts, bound):
    """The binomial determinant on the shape's own parts, untransposed."""
    n = len(parts)
    return det_int([[comb(parts[j] + bound, bound + j - i) if
                     0 <= bound + j - i <= parts[j] + bound else 0
                     for j in range(n)] for i in range(n)])


def test_count_takes_the_determinant_of_the_shorter_of_shape_and_transpose():
    # transposing a filling is a bijection PP(shape; m) -> PP(shape'; m)
    instances = 0
    for shape in enumerate_partitions(10):
        for bound in range(5):
            count = count_plane_partitions(shape, bound)
            assert count == _binomial_det(shape.parts, bound)
            assert count == count_plane_partitions(shape.transpose(), bound)
            instances += 1
    assert instances == 695  # 139 shapes, 5 bounds


def test_tableau_count_is_the_binomial_determinant_of_the_columns():
    # entry (i, j), 0-based, is C(n, mu_j - j + i), mu the transposed shape
    for shape in enumerate_partitions(10):
        mu = shape.transpose().parts
        for n in range(1, 7):
            assert count_tableaux(shape, n) == det_int(
                [[comb(n, mu[j] - j + i) if 0 <= mu[j] - j + i <= n else 0
                  for j in range(len(mu))] for i in range(len(mu))])


@pytest.mark.parametrize("bound", [0, 1, 2])
def test_count_of_a_tall_shape_is_quick(bound):
    # 1^1000 takes a 1x1 determinant, not a 1000x1000 one (about 0.2 s)
    started = time.process_time()
    assert count_plane_partitions(Partition([1] * 1000), bound) == comb(
        1000 + bound, bound)
    assert time.process_time() - started < 0.05


def test_enumeration_order_and_extremes():
    pps = list(enumerate_plane_partitions(Partition([2, 1]), 1))
    assert len(pps) == 5
    assert pps[0].rows == ((1, 1), (1,))    # all entries at the bound
    assert pps[-1].rows == ((0, 0), (0,))   # all zeros
    assert len(set(pps)) == 5


def test_genfun_frozen_values():
    # shape (1,1), bound 1: fillings are (0,0), (1,0), (1,1) read down the
    # column, with 2, 1, 0 zero-rows -- so the polynomial is 1 + x + x^2
    g = genfun_by_enumeration(Partition([1, 1]), 1, "zeros")
    assert g == UniPoly([1, 1, 1])
    assert genfun_by_enumeration(Partition([1, 1]), 1, "maxes") == g
    assert genfun_by_enumeration(Partition([2, 1]), 2, "zeros") == UniPoly([5, 6, 3])


def test_genfun_statistic_argument():
    with pytest.raises(ValueError):
        genfun_by_enumeration(Partition([1]), 1, "rows")


def test_genfun_empty_shape_is_one():
    for statistic in ("zeros", "maxes"):
        assert genfun_by_enumeration(Partition([]), 2, statistic) == UniPoly([1])


def test_genfun_bound_zero():
    # only the all-zero filling exists; every nonempty row contains 0 and 0=m
    g = genfun_by_enumeration(Partition([2, 1]), 0, "zeros")
    assert g == UniPoly([0, 0, 1])


def test_genfun_guard():
    with pytest.raises(GuardExceeded) as info:
        genfun_by_enumeration(Partition([2, 1]), 2, "zeros", guard_limit=5)
    assert info.value.projected == 14
    assert info.value.limit == 5


def test_guard_names_a_count_past_the_str_digit_limit():
    # C(20000, 10000), the count of PP([10000]; 10000), has 6,019 digits,
    # past CPython's default limit of 4,300 on int-to-str conversion
    with pytest.raises(GuardExceeded) as info:
        refined_genfuns_by_enumeration(Partition([10000]), 10000,
                                       guard_limit=10)
    assert info.value.projected == comb(20000, 10000)
    message = str(info.value)
    prefix = "PP([10000]; 10000): projected size "
    suffix = " exceeds guard limit 10"
    assert message.startswith(prefix) and message.endswith(suffix)
    digits = message[len(prefix):-len(suffix)]
    assert len(digits) == 6019 and Decimal(digits) == comb(20000, 10000)


def test_deep_shapes_enumerate_without_recursion():
    # one object each, but thousands of cells: the enumerator must not
    # recurse once per cell
    row = Partition([1500])
    for statistic in ("zeros", "maxes"):
        assert genfun_by_enumeration(row, 1, statistic) == UniPoly((1, 1500))
    assert len(list(enumerate_tableaux(Partition([1200]), 1))) == 1
    assert len(list(enumerate_plane_partitions(Partition([1] * 1200), 0))) == 1


def test_enumeration_runs_no_validating_constructor(monkeypatch):
    # the walker's rows obey the rule by construction
    calls = []
    real = _Filling.__init__

    def counting(self, *args):
        calls.append(args)
        real(self, *args)

    monkeypatch.setattr(_Filling, "__init__", counting)
    assert len(list(enumerate_plane_partitions(Partition([2, 2]), 2))) == 20
    assert len(list(enumerate_tableaux(Partition([2, 1]), 3))) == 8
    assert calls == []


def oracle_fillings(shape, make, alphabet):
    """Every filling the validating constructor accepts, by brute product."""
    found = []
    for entries in product(alphabet, repeat=shape.size()):
        it = iter(entries)
        rows = [[next(it) for _ in range(p)] for p in shape]
        try:
            found.append(make(rows))
        except ValueError:
            continue
    return found


def row_major(filling):
    return [e for row in filling.rows for e in row]


def test_enumeration_orders_match_brute_oracle():
    for shape in enumerate_partitions(5):
        for bound in range(4):
            expected = sorted(
                oracle_fillings(shape, lambda rows: PlanePartition(shape, bound, rows),
                                range(bound + 1)),
                key=row_major, reverse=True)
            assert list(enumerate_plane_partitions(shape, bound)) == expected
            for statistic, stat in (("zeros", PlanePartition.zero_rows),
                                    ("maxes", PlanePartition.max_rows)):
                tally = Counter(map(stat, expected))
                assert genfun_by_enumeration(shape, bound, statistic) == UniPoly(
                    tally[k] for k in range(max(tally) + 1))
        for varcount in range(1, 5):
            expected = sorted(
                oracle_fillings(shape, lambda rows: Tableau(shape, varcount, rows),
                                range(1, varcount + 1)),
                key=row_major)
            assert list(enumerate_tableaux(shape, varcount)) == expected
            assert schur_by_enumeration(shape, varcount).terms == Counter(
                t.weight() for t in expected)


def seed_fillings(shape, values, column_ok):
    """Every filling of the shape as a tuple of row tuples, one at a time.

    The oracle of the walker, spelled out apart from it: one combinations
    iterator per row on an explicit stack, each candidate row tested
    against the row above under every prefix.  Order is lexicographic on
    the row-major sequence, in the order of ``values``.
    """
    parts = shape.parts
    if not parts:
        yield ()
        return
    rows = []
    stack = [combinations_with_replacement(values, parts[0])]
    while stack:
        above = rows[-1] if rows else ()
        for row in stack[-1]:
            if all(map(column_ok, above, row)):
                break
        else:
            stack.pop()
            if rows:
                rows.pop()
            continue
        rows.append(row)
        if len(rows) == len(parts):
            yield tuple(rows)
            rows.pop()
        else:
            stack.append(combinations_with_replacement(values, parts[len(rows)]))


def tally(stats):
    counts = Counter(stats)
    return UniPoly(counts[k] for k in range(max(counts) + 1))


def assert_plane_partitions_match_seed(shape, bound):
    expected = list(seed_fillings(shape, range(bound, -1, -1), operator.ge))
    assert [pp.rows for pp in enumerate_plane_partitions(shape, bound)] == expected
    zeros = tally(sum(row[-1] == 0 for row in rows) for rows in expected)
    maxes = tally(sum(row[0] == bound for row in rows) for rows in expected)
    assert refined_genfuns_by_enumeration(shape, bound) == (zeros, maxes)
    assert genfun_by_enumeration(shape, bound, "zeros") == zeros
    assert genfun_by_enumeration(shape, bound, "maxes") == maxes


def test_grouped_walker_matches_seed_walker():
    for shape in enumerate_partitions(9):
        for bound in range(5):
            assert_plane_partitions_match_seed(shape, bound)
        for varcount in range(1, 5):
            expected = [] if len(shape) > varcount else [
                Tableau(shape, varcount, rows) for rows in seed_fillings(
                    shape, range(1, varcount + 1), operator.lt)]
            assert list(enumerate_tableaux(shape, varcount)) == expected
            assert schur_by_enumeration(shape, varcount).terms == Counter(
                t.weight() for t in expected)


@pytest.mark.parametrize("parts, bound", [
    ((1,) * 10, 2), ((3,) * 5, 3), ((5, 4, 3, 2, 1), 2),
    ((2, 2, 2, 1, 1, 1), 4), ((1,) * 6, 6), ((3, 3, 2, 2, 1, 1), 3),
    ((1,) * 200, 1), ((2,) * 12, 2), ((4,) * 5, 2)])
def test_grouped_walker_matches_seed_walker_on_tall_shapes(parts, bound):
    # five or more rows: the walk keeps a deep stack of streams, and the
    # row tally has one layer per row.  On the six-row shapes every row of
    # a filling can contain both 0 and the bound, so the tally is checked
    # against the per-object one.  On the last three the tally's layers
    # are many, each cut reached from many cuts above it.
    assert_plane_partitions_match_seed(Partition(parts), bound)


def traced_peak(run) -> int:
    """Peak bytes traced while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_two_row_walk_keeps_no_row_per_object():
    # Beneath an uncut first row no cut comes back, so no row is kept;
    # beneath a cut first row only the current run is.  Keeping the rows
    # allowed beneath every first row would hold one row per object: about
    # 6 MB on (22, 22), m=2, with 27.6k objects.  Rows are longer than 20
    # entries, so CPython's tuple free lists, which hold freed tuples of at
    # most 20 entries and count as traced, stay out of the peak.
    refined_genfuns_by_enumeration(Partition([2, 2]), 1)  # warm up untraced
    equal = traced_peak(
        lambda: refined_genfuns_by_enumeration(Partition([22, 22]), 2))
    assert equal < 16_384
    rows = list(combinations_with_replacement(range(3), 21))
    one_run = sys.getsizeof(rows) + sum(map(sys.getsizeof, rows))
    cut = traced_peak(
        lambda: refined_genfuns_by_enumeration(Partition([22, 21]), 2))
    assert cut < 2 * one_run + 16_384


def warm_up_walks() -> None:
    """Walk a few small fillings of both kinds untraced, so that what the
    first walk of a process allocates once stays out of a traced peak."""
    deque(enumerate_plane_partitions(Partition([2, 2]), 1), maxlen=0)
    deque(enumerate_tableaux(Partition([2, 1]), 3), maxlen=0)


@pytest.mark.parametrize("parts", [(22, 22), (22, 21), (40, 40)])
def test_wide_two_row_enumeration_keeps_no_row_per_object(parts):
    # The walk holds one stream per row, whatever the first row's cut.
    # Keeping one row per object held 96 MB on (40, 40), m=2, and listing
    # the rows beneath each run of first rows with one shorter cut held
    # 64 kB on (22, 21).  Rows are longer than 20 entries, so CPython's
    # tuple free lists stay out of the peak.
    warm_up_walks()
    peak = traced_peak(lambda: deque(
        enumerate_plane_partitions(Partition(parts), 2), maxlen=0))
    assert peak < 16_384


def test_wide_two_row_tableau_enumeration_keeps_no_row_per_object():
    # as for plane partitions: listing the rows beneath each run of first
    # rows with one cut held 60 kB here
    warm_up_walks()
    peak = traced_peak(lambda: deque(
        enumerate_tableaux(Partition([22, 21]), 3), maxlen=0))
    assert peak < 16_384


def one_row_genfun(length: int, bound: int) -> UniPoly:
    """Either refined generating function of PP((length,); bound): a row
    holds 0 or the bound unless all its entries lie strictly between."""
    inner = comb(length + bound - 1, length)
    return UniPoly([inner, comb(length + bound, length) - inner])


@pytest.mark.parametrize("length, bound", [
    (1000, 0), (1000, 1), (1000, 2), (1237, 0), (1237, 1), (1500, 0),
    (1500, 1)])
def test_one_row_tally_matches_the_closed_form_and_determinant(length, bound):
    # a one-row shape's rows are a stream, counted in one C-level pass
    shape = Partition([length])
    expected = one_row_genfun(length, bound)
    assert refined_genfuns_by_enumeration(shape, bound) == (expected, expected)
    assert det_division_free(lgv_matrix(shape, bound)) == expected


def test_one_row_tally_keeps_no_row_per_object():
    # 845,651 rows of 1,300 entries: one list of them would hold about
    # 8.8 GB; counted as a stream, the walk holds the combinations' one
    # row and its index array
    shape = Partition([1300])
    refined_genfuns_by_enumeration(Partition([3]), 2)  # warm up untraced
    one_row = sys.getsizeof(tuple(range(1300)))
    tracemalloc.start()
    try:
        genfuns = refined_genfuns_by_enumeration(shape, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert genfuns == (one_row_genfun(1300, 2),) * 2
    assert peak < 4 * one_row


def per_object_tally(shape, bound):
    """Both refined generating functions of PP(shape; bound), counted one
    plane partition at a time from ``enumerate_plane_partitions``."""
    pps = list(enumerate_plane_partitions(shape, bound))
    return (tally(map(PlanePartition.zero_rows, pps)),
            tally(map(PlanePartition.max_rows, pps)))


def test_one_row_tally_by_value_counts_matches_the_per_object_tally():
    # a one-row shape of N cells with m < N is tallied off the running
    # counts R_m, ..., R_1 of its rows, not off the rows; with m >= N, or
    # m = 0, off the rows.  Both against the plane partitions one by one
    for length in range(1, 41):
        for bound in range(5):
            shape = Partition([length])
            assert refined_genfuns_by_enumeration(shape, bound) == \
                per_object_tally(shape, bound), (length, bound)


@pytest.mark.parametrize("length", [1001, 1250, 1499])
@pytest.mark.parametrize("bound", [0, 1, 2])
def test_long_one_row_tally_by_value_counts_matches_the_closed_form(
        length, bound):
    expected = one_row_genfun(length, bound)
    assert refined_genfuns_by_enumeration(Partition([length]), bound) == (
        expected, expected)


def test_one_row_tally_runs_in_proportion_to_the_value_counts():
    # 200,001 one-row plane partitions of 200,000 cells each: the rows
    # hold 4 * 10^10 entries, while their running counts hold one number
    # each.  The time is this process's CPU time
    started = time.process_time()
    zeros, maxes = refined_genfuns_by_enumeration(Partition([200_000]), 1)
    assert time.process_time() - started < 1
    assert zeros == maxes == UniPoly([1, 200_000])


def test_one_value_row_tally_builds_no_row():
    # with m = 0 a row of any length has one filling, read off its one
    # empty tuple of running counts: it holds 0 and the bound
    started = time.process_time()
    for length in (1, 100_000_000, 10**20):
        assert refined_genfuns_by_enumeration(Partition([length]), 0) == (
            UniPoly([0, 1]),) * 2
    assert time.process_time() - started < 0.05


def test_one_row_tally_over_a_large_alphabet_reads_its_rows():
    # one cell over 100,001 values: each row is one entry, while its
    # running counts would be 100,000 numbers long
    started = time.process_time()
    zeros, maxes = refined_genfuns_by_enumeration(Partition([1]), 100_000)
    assert time.process_time() - started < 0.5
    assert zeros == maxes == UniPoly([100_000, 1])


@pytest.mark.parametrize("length", range(7))
@pytest.mark.parametrize("size", range(6))
def test_running_counts_are_the_weakly_increasing_tuples(length, size):
    # against every tuple of ``size`` ints in [0, length], in order
    oracle = [t for t in product(range(length + 1), repeat=size)
              if list(t) == sorted(t)]
    assert list(lgvlab.objects._running_counts(length, size)) == oracle


@pytest.mark.parametrize("parts, bound", [
    ((22, 22), 2), ((7, 7), 5), ((5, 5), 3)])
def test_equal_two_row_tally_matches_the_per_object_tally(parts, bound):
    # beneath the first row of an equal-length two-row shape the last rows
    # are a stream, counted in one C-level pass; the enumeration keeps
    # each row in its object, so its tally counts them one by one
    shape = Partition(parts)
    zeros, maxes = per_object_tally(shape, bound)
    assert refined_genfuns_by_enumeration(shape, bound) == (zeros, maxes)
    assert zeros == maxes == det_division_free(lgv_matrix(shape, bound))


def test_row_tally_keeps_one_histogram_per_cut():
    # 457,380 plane partitions of (6, 6, 6), m=4.  The tally holds two
    # layers of at most C(10, 4) = 210 cuts, each with a joint histogram
    # of at most 16 cells, and the 210 candidate rows: about 120 kB
    # traced.  One 6-entry row per object would hold about 47 MB.
    shape = Partition([6, 6, 6])
    refined_genfuns_by_enumeration(Partition([2, 2, 2]), 2)  # warm up untraced
    genfuns = []
    peak = traced_peak(
        lambda: genfuns.append(refined_genfuns_by_enumeration(shape, 4)))
    assert genfuns == [(det_division_free(lgv_matrix(shape, 4)),) * 2]
    assert peak < 256 * 1024


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(), (1,), (2,), (1, 1), (2, 1), (3,), (2, 2)]),
       st.integers(min_value=0, max_value=3))
def test_genfun_three_routes_agree(parts, bound):
    shape = Partition(parts)
    zeros = genfun_by_enumeration(shape, bound, "zeros")
    maxes = genfun_by_enumeration(shape, bound, "maxes")
    det = det_division_free(lgv_matrix(shape, bound))
    assert zeros == maxes == det


# --- one validator for both kinds -------------------------------------------

def oracle_plane_partition(shape, bound, rows):
    """Independent oracle: the plane-partition rule spelled out cell by cell.

    Returns the ``(repr, hash, to_json)`` of the plane partition, or raises
    the ValueError that refuses it.
    """
    if bound < 0:
        raise ValueError(f"bound {bound} is negative")
    rows = tuple(tuple(int(e) for e in row) for row in rows)
    if len(rows) != len(shape):
        raise ValueError(f"expected {len(shape)} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != shape[i]:
            raise ValueError(
                f"rows[{i}]: expected {shape[i]} entries, got {len(row)}")
        for k, e in enumerate(row):
            if not 0 <= e <= bound:
                raise ValueError(
                    f"rows[{i}][{k}]: entry {e} outside [0, {bound}]")
            if k > 0 and row[k - 1] < e:
                raise ValueError(f"rows[{i}][{k}]: row not weakly decreasing "
                                 f"({row[k - 1]} < {e})")
            if i > 0 and k < shape[i - 1] and rows[i - 1][k] < e:
                raise ValueError(
                    f"rows[{i}][{k}]: column not weakly decreasing "
                    f"({rows[i - 1][k]} < {e})")
    listed = [list(r) for r in rows]
    return (f"PlanePartition({list(shape.parts)}, {bound}, {listed})",
            hash((shape, bound, rows)),
            {"shape": list(shape.parts), "max": bound, "rows": listed})


def oracle_tableau(shape, varcount, rows):
    """Independent oracle: the tableau rule spelled out cell by cell.

    Returns the ``(repr, hash, to_json)`` of the tableau, or raises the
    ValueError that refuses it.
    """
    if varcount < 1:
        raise ValueError(f"varcount {varcount} must be at least 1")
    rows = tuple(tuple(int(e) for e in row) for row in rows)
    if len(rows) != len(shape):
        raise ValueError(f"expected {len(shape)} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != shape[i]:
            raise ValueError(
                f"rows[{i}]: expected {shape[i]} entries, got {len(row)}")
        for k, e in enumerate(row):
            if not 1 <= e <= varcount:
                raise ValueError(
                    f"rows[{i}][{k}]: entry {e} outside [1, {varcount}]")
            if k > 0 and row[k - 1] > e:
                raise ValueError(f"rows[{i}][{k}]: row not weakly increasing "
                                 f"({row[k - 1]} > {e})")
            if i > 0 and rows[i - 1][k] >= e:
                raise ValueError(
                    f"rows[{i}][{k}]: column not strictly increasing "
                    f"({rows[i - 1][k]} >= {e})")
    listed = [list(r) for r in rows]
    return (f"Tableau({list(shape.parts)}, {varcount}, {listed})",
            hash((shape, varcount, rows)),
            {"shape": list(shape.parts), "vars": varcount, "rows": listed})


def refusal_or(run):
    """What ``run()`` returns, or the message of the ValueError it raises."""
    try:
        return run()
    except ValueError as exc:
        return str(exc)


def fields(filling):
    return repr(filling), hash(filling), filling.to_json()


def misshapen(rows):
    """The rows with one row too few or too many, or one row a cell short
    or long."""
    yield rows[:-1]
    yield rows + [rows[-1] if rows else [1]]
    for i, row in enumerate(rows):
        yield rows[:i] + [row[:-1]] + rows[i + 1:]
        yield rows[:i] + [row + row[-1:]] + rows[i + 1:]


@pytest.mark.parametrize("make, oracle, bounds, alphabet, bad_bound", [
    (PlanePartition, oracle_plane_partition, range(3),
     lambda m: range(-1, m + 2), -1),
    (Tableau, oracle_tableau, range(1, 4),
     lambda n: range(0, n + 2), 0),
], ids=["plane-partition", "tableau"])
def test_one_validator_matches_each_rule_spelled_out(make, oracle, bounds,
                                                     alphabet, bad_bound):
    checked = accepted = 0
    for shape in enumerate_partitions(4):
        for bound in bounds:
            for entries in product(alphabet(bound), repeat=shape.size()):
                it = iter(entries)
                rows = [[next(it) for _ in range(p)] for p in shape]
                cases = [(bound, rows), (bad_bound, rows)]
                cases += [(bound, bad) for bad in misshapen(rows)]
                for b, r in cases:
                    want = refusal_or(lambda: oracle(shape, b, r))
                    assert refusal_or(lambda: fields(make(shape, b, r))) == want
                    checked += 1
                    accepted += not isinstance(want, str)
    assert 0 < accepted < checked


def test_fillings_of_two_kinds_never_equal():
    pp = PlanePartition([1], 1, [[1]])
    tableau = Tableau([1], 1, [[1]])
    assert hash(pp) == hash(tableau)
    assert pp != tableau and tableau != pp
    assert len({pp, tableau}) == 2
    assert (pp.shape, pp.bound, pp.rows) == (
        tableau.shape, tableau.varcount, tableau.rows)
    for filling, kind in ((pp, "PlanePartition"), (tableau, "Tableau")):
        assert not hasattr(filling, "__dict__")
        with pytest.raises(AttributeError, match=f"^{kind} is immutable$"):
            filling.rows = ((0,),)


def _one_path_family():
    endpoints = Endpoints([(0, 0)], [(1, -1)])
    return SignedPathFamily(endpoints, [0], [Path((0, 0), "ES")])


@pytest.mark.parametrize("make,field", [
    (lambda: Partition([2, 1]), "parts"),
    (lambda: PlanePartition([2, 1], 2, [[2, 0], [1]]), "rows"),
    (lambda: Tableau([2, 1], 3, [[1, 1], [2]]), "rows"),
    (lambda: UniPoly([1, 2]), "coeffs"),
    (lambda: MultiPoly(2, {(1, 0): 1}), "terms"),
    (lambda: PolyMatrix([[UniPoly([1])]]), "entries"),
    (lambda: Path((0, 0), "ES"), "word"),
    (lambda: Endpoints([(0, 0)], [(1, -1)]), "a"),
    (_one_path_family, "paths"),
    (lambda: SwapCertificate((0, 0), (0, 1)), "point"),
], ids=["Partition", "PlanePartition", "Tableau", "UniPoly", "MultiPoly",
        "PolyMatrix", "Path", "Endpoints", "SignedPathFamily",
        "SwapCertificate"])
def test_value_classes_refuse_del(make, field):
    obj = make()
    before = (repr(obj), hash(obj))
    refusal = f"^{type(obj).__name__} is immutable$"
    with pytest.raises(AttributeError, match=refusal):
        delattr(obj, field)
    with pytest.raises(AttributeError, match=refusal):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError, match=refusal):
        obj.new_attribute = 1
    assert (repr(obj), hash(obj)) == before


def test_value_classes_fill_their_slots_through_slot_setters():
    # a slot's own setter costs about half an object.__setattr__ call, and
    # families and paths are built on every ping-pong hop
    package = pathlib.Path(lgvlab.algebra.__file__).parent
    assert [module.name for module in sorted(package.glob("*.py"))
            if "object.__setattr__(" in module.read_text()] == []


@pytest.mark.parametrize("make, fields", [
    (lambda: Partition([2, 1]), (2, 1)),
    (lambda: UniPoly([1, 0, 2, 0]), (1, 0, 2)),
    (lambda: MultiPoly(2, {(1, 0): 1, (0, 1): 3}),
     (2, frozenset({((1, 0), 1), ((0, 1), 3)}))),
    (lambda: SwapCertificate((0, -1), (0, 2)), ((0, -1), (0, 2))),
    (lambda: PlanePartition([2, 1], 2, [[2, 0], [1]]),
     ((2, 1), 2, ((2, 0), (1,)))),
], ids=["Partition", "UniPoly", "MultiPoly", "SwapCertificate",
        "PlanePartition"])
def test_equal_values_hash_their_field_tuple(make, fields):
    # a value hashes as the tuple of its fields, the hash each of these
    # classes has always had
    a, b = make(), make()
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash(fields)


# --- tableaux ---------------------------------------------------------------

def test_tableau_validation():
    Tableau(Partition([2, 1]), 3, [[1, 1], [2]])
    with pytest.raises(ValueError, match="row not weakly increasing"):
        Tableau(Partition([2]), 3, [[2, 1]])
    with pytest.raises(ValueError, match="column not strictly increasing"):
        Tableau(Partition([1, 1]), 3, [[1], [1]])
    with pytest.raises(ValueError, match="outside"):
        Tableau(Partition([1]), 2, [[3]])


def test_tableau_column_and_weight():
    t = Tableau(Partition([3, 2]), 4, [[1, 2, 2], [3, 4]])
    assert t.column(0) == (1, 3)
    assert t.column(2) == (2,)
    assert t.weight() == (1, 2, 1, 1)


def test_tableau_json_roundtrip():
    t = Tableau(Partition([2, 1]), 3, [[1, 3], [2]])
    data = t.to_json()
    assert data == {"shape": [2, 1], "vars": 3, "rows": [[1, 3], [2]]}
    assert Tableau.from_json(data) == t


@pytest.mark.parametrize("data", [
    {"shape": [1], "vars": 2, "rows": 5},
    {"shape": [1], "vars": 2, "rows": [[1.7]]},
    {"shape": [1], "vars": "2", "rows": [[1]]},
    {"shape": [True], "vars": 2, "rows": [[1]]},
], ids=["rows-not-list", "entry-float", "vars-string", "part-bool"])
def test_tableau_from_json_refuses_non_integers(data):
    with pytest.raises(ValueError):
        Tableau.from_json(data)


def test_enumerate_tableaux_counts():
    assert sum(1 for _ in enumerate_tableaux(Partition([2, 1]), 3)) == 8
    assert count_tableaux(Partition([2, 1]), 3) == 8
    # too many rows for the alphabet: no tableaux at all
    assert list(enumerate_tableaux(Partition([1, 1, 1]), 2)) == []
    assert count_tableaux(Partition([1, 1, 1]), 2) == 0
    for parts in [(), (1,), (3,), (2, 2), (2, 1, 1)]:
        for n in range(1, 5):
            shape = Partition(parts)
            assert (sum(1 for _ in enumerate_tableaux(shape, n))
                    == count_tableaux(shape, n))


def test_schur_frozen_values():
    s = schur_by_enumeration(Partition([2]), 2)
    assert s.terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    s21 = schur_by_enumeration(Partition([2, 1]), 3)
    # Kostka numbers: weight (1,1,1) appears twice, dominant weight once
    assert s21.coefficient((1, 1, 1)) == 2
    assert s21.coefficient((2, 1, 0)) == 1
    assert sum(s21.terms.values()) == 8


def test_trusted_schur_polynomial_equals_the_validated_one():
    # the tally's keys are int tuples of length varcount and its counts
    # are positive, so MultiPoly's checks would pass it unchanged
    for shape in enumerate_partitions(7):
        for varcount in range(1, 5):
            tally = Counter(
                t.weight() for t in enumerate_tableaux(shape, varcount))
            validated = MultiPoly(varcount, tally)
            assert MultiPoly._trusted(varcount, dict(tally)) == validated
            poly = schur_by_enumeration(shape, varcount)
            assert poly == validated
            assert type(poly.terms) is dict
            assert all(type(exp) is tuple and len(exp) == varcount
                       and all(type(e) is int for e in exp)
                       for exp in poly.terms)


def enumerated_schur(shape, varcount):
    """The Schur polynomial counted one tableau at a time."""
    return MultiPoly(varcount, Counter(
        t.weight() for t in enumerate_tableaux(shape, varcount)))


def test_schur_tally_matches_the_tableaux_one_by_one():
    # every shape of at most 8 cells with 1-5 variables: the row tally's
    # weight indices, decoded, are the tableaux' weights
    for shape in enumerate_partitions(8):
        for varcount in range(1, 6):
            assert schur_by_enumeration(shape, varcount) == enumerated_schur(
                shape, varcount), (shape, varcount)


@pytest.mark.parametrize("varcount", [1, 2, 3, 4, 5])
def test_one_row_schur_by_value_counts_matches_the_tableaux(varcount):
    # a one-row tableau is its weight: the running counts give it
    lengths = range(1, 41) if varcount <= 3 else (1, 3, 4, 5, 9, 25, 40)
    for length in lengths:
        shape = Partition([length])
        poly = schur_by_enumeration(shape, varcount)
        assert poly == enumerated_schur(shape, varcount), length
        assert len(poly.terms) == comb(length + varcount - 1, length)
        assert set(poly.terms.values()) == {1}


def test_one_row_schur_runs_in_proportion_to_its_terms():
    # 20,001 weights of a 20,000-cell row: the rows would hold 4 * 10^8
    # entries.  The closed-form count of the guard takes the one-row
    # determinant, not the 20,000-column one
    started = time.process_time()
    poly = schur_by_enumeration(Partition([20_000]), 2)
    assert time.process_time() - started < 1
    assert len(poly.terms) == 20_001
    assert poly.terms[(20_000, 0)] == poly.terms[(7, 19_993)] == 1


def test_schur_with_more_rows_than_variables_tries_no_row():
    # a strictly increasing column holds at most 4 entries, so (30^5) has
    # no tableau in 4 variables; a tally of its first four rows would try
    # thousands of 30-entry rows beneath thousands of cuts to reach the
    # zero polynomial.  The time is this process's CPU time
    started = time.process_time()
    poly = schur_by_enumeration(Partition([30] * 5), 4)
    assert time.process_time() - started < 0.05
    assert poly.terms == {}
    assert poly == schur_by_enumeration(Partition([1] * 5), 4)


def test_tableau_count_of_a_long_row_builds_no_column():
    # (5,000,000) has more columns than rows, so it is counted on its one
    # row; its transpose would be five million one-cell columns.  The time
    # is this process's CPU time
    started = time.process_time()
    assert count_tableaux(Partition([5_000_000]), 2) == 5_000_001
    with pytest.raises(GuardExceeded, match=r"^SSYT\(\[5000000\]; 2\): "
                       r"projected size 5000001 exceeds guard limit 10$"):
        schur_by_enumeration(Partition([5_000_000]), 2, guard_limit=10)
    huge = 10**20
    assert count_tableaux(Partition([huge]), 2) == huge + 1
    assert schur_by_enumeration(Partition([huge]), 1).terms == {(huge,): 1}
    assert time.process_time() - started < 0.05


def test_schur_empty_shape():
    s = schur_by_enumeration(Partition([]), 3)
    assert s.terms == {(0, 0, 0): 1}


def test_schur_guard():
    with pytest.raises(GuardExceeded):
        schur_by_enumeration(Partition([2, 1]), 3, guard_limit=7)


def test_schur_guard_counts_the_exponents():
    # 20 tableaux of 20 exponents each; the tableau count is guarded first
    shape = Partition([1])
    for limit, what, projected in ((19, "SSYT([1]; 20)", 20),
                                   (399, "SSYT([1]; 20) exponents", 400)):
        with pytest.raises(GuardExceeded) as info:
            schur_by_enumeration(shape, 20, guard_limit=limit)
        assert (info.value.what, info.value.projected) == (what, projected)
    assert len(schur_by_enumeration(shape, 20, guard_limit=400).terms) == 20
