from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgvlab.algebra import UniPoly, det_division_free, lgv_matrix
from lgvlab.guards import GuardExceeded
from lgvlab.objects import (
    Partition,
    PlanePartition,
    Tableau,
    count_plane_partitions,
    count_tableaux,
    enumerate_partitions,
    enumerate_plane_partitions,
    enumerate_tableaux,
    genfun_by_enumeration,
    schur_by_enumeration,
)


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


def test_deep_shapes_enumerate_without_recursion():
    # one object each, but thousands of cells: the enumerator must not
    # recurse once per cell
    row = Partition([1500])
    for statistic in ("zeros", "maxes"):
        assert genfun_by_enumeration(row, 1, statistic) == UniPoly((1, 1500))
    assert len(list(enumerate_tableaux(Partition([1200]), 1))) == 1
    assert len(list(enumerate_plane_partitions(Partition([1] * 1200), 0))) == 1


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


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(), (1,), (2,), (1, 1), (2, 1), (3,), (2, 2)]),
       st.integers(min_value=0, max_value=3))
def test_genfun_three_routes_agree(parts, bound):
    shape = Partition(parts)
    zeros = genfun_by_enumeration(shape, bound, "zeros")
    maxes = genfun_by_enumeration(shape, bound, "maxes")
    det = det_division_free(lgv_matrix(shape, bound))
    assert zeros == maxes == det


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


def test_schur_empty_shape():
    s = schur_by_enumeration(Partition([]), 3)
    assert s.terms == {(0, 0, 0): 1}


def test_schur_guard():
    with pytest.raises(GuardExceeded):
        schur_by_enumeration(Partition([2, 1]), 3, guard_limit=7)
