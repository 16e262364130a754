from itertools import permutations, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgvlab.algebra import (
    MultiPoly,
    PolyMatrix,
    UniPoly,
    binomial,
    det_division_free,
    det_int,
    lgv_matrix,
    path_count_matrix_entry,
    perm_sign,
)
from lgvlab.objects import (
    Partition,
    count_plane_partitions,
    genfun_by_enumeration,
)


# --- binomials -----------------------------------------------------------

def pascal(n, k):
    """Independent oracle: the Pascal recurrence, memoized by hand."""
    if k < 0 or n < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def test_binomial_matches_pascal_recurrence():
    for n in range(0, 12):
        for k in range(-2, n + 3):
            assert binomial(n, k) == pascal(n, k)


def test_binomial_out_of_range_is_zero():
    assert binomial(-1, 0) == 0
    assert binomial(3, -1) == 0
    assert binomial(3, 4) == 0


# --- univariate polynomials ----------------------------------------------

def test_unipoly_basic_arithmetic():
    p = UniPoly([1, 2])          # 1 + 2x
    assert p(5) == 11
    assert p.degree() == 1
    assert UniPoly([]).degree() == -1


def test_unipoly_strips_trailing_zeros():
    assert UniPoly([1, 0, 0]).coeffs == (1,)
    assert UniPoly([0, 0, 0]).coeffs == ()
    assert UniPoly([]).coeffs == ()


def test_unipoly_json_roundtrip():
    p = UniPoly([5, -6, 3])
    data = p.to_json()
    assert data == {"var": "x", "coeffs": ["5", "-6", "3"]}
    assert UniPoly.from_json(data) == p
    with pytest.raises(ValueError):
        UniPoly.from_json({"var": "x"})


@pytest.mark.parametrize("data", [
    {"coeffs": [1.9, True]},
    {"coeffs": [1, 2.0]},
    {"coeffs": [False]},
    {"coeffs": ["1.5"]},
    {"coeffs": [" 2"]},
    {"coeffs": [None]},
    {"coeffs": "12"},
], ids=["float-and-bool", "integral-float", "bool", "fraction-string",
        "padded-string", "null", "coeffs-not-list"])
def test_unipoly_from_json_refuses_non_integers(data):
    with pytest.raises(ValueError):
        UniPoly.from_json(data)


# --- multivariate polynomials --------------------------------------------

def test_multipoly_permute_variables():
    # 2 * x0^2 * x1 becomes 2 * x1^2 * x0 under the swap
    p = MultiPoly(2, {(2, 1): 2})
    q = p.permute_variables((1, 0))
    assert q.terms == {(1, 2): 2}
    assert q.coefficient((1, 2)) == 2
    assert q.coefficient((2, 1)) == 0
    with pytest.raises(ValueError):
        p.permute_variables((0, 0))


def test_multipoly_json_sorted_lexicographically():
    p = MultiPoly(2, {(0, 2): 1, (2, 0): 3, (1, 1): -2})
    data = p.to_json()
    assert data["vars"] == 2
    assert [t["exp"] for t in data["terms"]] == [[0, 2], [1, 1], [2, 0]]
    assert MultiPoly.from_json(data) == p


@pytest.mark.parametrize("data", [
    {"vars": 1, "terms": 5},
    {"vars": 1.5, "terms": [{"exp": [True], "coef": 2.7}]},
    {"vars": "1", "terms": []},
    {"vars": True, "terms": []},
    {"vars": 1, "terms": [{"exp": [1.0], "coef": "2"}]},
    {"vars": 1, "terms": [{"exp": [1], "coef": 2.7}]},
    {"vars": 1, "terms": [{"exp": [1], "coef": True}]},
    {"vars": 1, "terms": [{"exp": 1, "coef": "2"}]},
    {"vars": 1, "terms": [7]},
], ids=["terms-not-list", "float-vars-bool-exp-float-coef", "string-vars",
        "bool-vars", "float-exp", "float-coef", "bool-coef", "exp-not-list",
        "term-not-object"])
def test_multipoly_from_json_refuses_non_integers(data):
    with pytest.raises(ValueError):
        MultiPoly.from_json(data)


# --- determinants ---------------------------------------------------------

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def det_leibniz(rows):
    """Independent oracle: the Leibniz sum over permutations, on a square
    matrix of coefficient lists (``rows[i][j][k]`` is the x**k coefficient)."""
    total = []
    for perm in permutations(range(len(rows))):
        prod = [perm_sign(perm)]
        for i, j in enumerate(perm):
            prod = _poly_mul(prod, rows[i][j])
        total = [a + b for a, b in zip_longest(total, prod, fillvalue=0)]
    return UniPoly(total)


def test_det_empty_and_single():
    assert det_division_free(PolyMatrix([])) == UniPoly([1])
    m = PolyMatrix([[UniPoly([2, 1])]])
    assert det_division_free(m) == UniPoly([2, 1])


def test_det_two_by_two_by_hand():
    # [[x, 1], [2, 3]] has determinant 3x - 2
    m = PolyMatrix([
        [UniPoly([0, 1]), UniPoly([1])],
        [UniPoly([2]), UniPoly([3])],
    ])
    assert det_division_free(m) == UniPoly([-2, 3])


def test_det_antisymmetry_under_row_swap():
    rows = [
        [UniPoly([1, 1]), UniPoly([0, 2]), UniPoly([3])],
        [UniPoly([2]), UniPoly([1]), UniPoly([0, 1])],
        [UniPoly([1]), UniPoly([4, 1]), UniPoly([2])],
    ]
    swapped = [rows[1], rows[0], rows[2]]
    negated = tuple(-c for c in det_division_free(PolyMatrix(swapped)).coeffs)
    assert det_division_free(PolyMatrix(rows)).coeffs == negated


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=6), st.data())
def test_det_division_free_matches_leibniz(n, data):
    # entries of degree up to 3, some rows forced to zero: the degree bound
    # the interpolation relies on must hold for mixed and empty rows
    zero_rows = data.draw(st.sets(
        st.integers(min_value=0, max_value=max(n - 1, 0))))
    entries = [
        [
            [] if i in zero_rows else data.draw(st.lists(
                st.integers(min_value=-4, max_value=4),
                min_size=0, max_size=4))
            for _ in range(n)
        ]
        for i in range(n)
    ]
    m = PolyMatrix([[UniPoly(e) for e in row] for row in entries])
    assert det_division_free(m) == det_leibniz(entries)


def test_det_beyond_twelve_rows_matches_enumeration():
    for parts in [(1,) * 13, (3, 2) + (1,) * 12]:
        shape = Partition(parts)
        det = det_division_free(lgv_matrix(shape, 1))
        assert det == genfun_by_enumeration(shape, 1, "zeros")
        assert det == genfun_by_enumeration(shape, 1, "maxes")
        assert det(1) == count_plane_partitions(shape, 1)


def test_det_int_matches_leibniz_on_integer_matrices():
    m = [[6, 1], [4, 3]]
    assert det_int(m) == 14
    assert det_leibniz([[[e] for e in row] for row in m]) == UniPoly([14])


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=4), st.data())
def test_det_int_matches_leibniz_random(n, data):
    rows = [
        [data.draw(st.integers(min_value=-6, max_value=6)) for _ in range(n)]
        for _ in range(n)
    ]
    assert UniPoly([det_int(rows)]) == det_leibniz(
        [[[e] for e in row] for row in rows])


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1


# --- the binomial matrix ---------------------------------------------------

def test_matrix_entry_splits_by_last_step():
    # entry (i,j) for shape part p and bound m:
    #   C(p+m-1, m+j-i) + x * C(p+m-1, m+j-i-1)
    # The two binomials count the paths by whether the last step is south
    # or east, so they must add up to all paths: C(p+m, m+j-i).
    for part in range(1, 5):
        for bound in range(0, 4):
            for i in range(1, 4):
                for j in range(1, 4):
                    entry = path_count_matrix_entry(part, bound, i, j)
                    total = binomial(part + bound, bound + j - i)
                    assert entry(1) == total


def test_lgv_matrix_frozen_example():
    m = lgv_matrix(Partition([2, 1]), 2)
    assert m[0, 0] == UniPoly([3, 3])
    assert m[0, 1] == UniPoly([1])
    assert m[1, 0] == UniPoly([1, 3])
    assert m[1, 1] == UniPoly([2, 1])
    assert det_division_free(m) == UniPoly([5, 6, 3])


def test_lgv_matrix_determinant_for_single_column():
    # For shape (1,1) with bound 1 the determinant is 1 + x + x^2: the
    # three fillings have 2, 1 and 0 rows containing a zero.
    det = det_division_free(lgv_matrix(Partition([1, 1]), 1))
    assert det == UniPoly([1, 1, 1])


def test_lgv_matrix_empty_shape():
    m = lgv_matrix(Partition([]), 3)
    assert m.n == 0
    assert det_division_free(m) == UniPoly([1])
