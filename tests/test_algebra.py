import math
import random
import sys
import time
from itertools import permutations, zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgvlab.algebra import (
    MultiPoly,
    PolyMatrix,
    UniPoly,
    binomial,
    det_division_free,
    det_int,
    lgv_matrix,
    perm_sign,
)
from lgvlab.guards import GuardExceeded
from lgvlab.objects import (
    Partition,
    count_plane_partitions,
    enumerate_partitions,
    genfun_by_enumeration,
    refined_determinant,
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


def test_binomial_past_the_index_range_is_refused_by_value():
    # math.comb takes no index past sys.maxsize and raises OverflowError;
    # the refusal is a ValueError, which names the binomial
    n = 2 * 10**20
    with pytest.raises(ValueError, match=rf"^binomial C\({n}, {10**20}\): "
                       rf"min\(n - k, k\) must not exceed {sys.maxsize}$"):
        binomial(n, 10**20)
    assert binomial(n, n - 1) == n and binomial(n, n + 1) == 0


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


def test_unipoly_writes_coefficients_past_the_str_digit_limit():
    # 10**4300 has 4,301 digits, one past CPython's default limit on
    # int-to-str conversion; 10**4300 - 1 has 4,300, the most it allows
    big = 10**4300
    p = UniPoly([big - 1, -big, 1])
    assert p.to_json()["coeffs"] == ["9" * 4300, "-1" + "0" * 4300, "1"]
    assert repr(p) == f"UniPoly({'9' * 4300} + -1{'0' * 4300}*x + x^2)"


def test_multipoly_writes_coefficients_past_the_str_digit_limit():
    # as UniPoly does: 10**5000 has 5,001 digits, past CPython's default
    # limit of 4,300 on int-to-str conversion
    big = 10**5000
    p = MultiPoly(2, {(1, 0): big, (0, 0): -big - 1})
    assert p.to_json() == {"vars": 2, "terms": [
        {"exp": [0, 0], "coef": "-1" + "0" * 4999 + "1"},
        {"exp": [1, 0], "coef": "1" + "0" * 5000}]}
    assert repr(p) == f"MultiPoly(2, -1{'0' * 4999}1 + 1{'0' * 5000}*x1)"


def test_unipoly_refuses_to_read_coefficients_past_the_str_digit_limit():
    # writing is exact past the limit, reading stays bounded by it: the
    # longest string the interpreter reads is read, the next is refused
    # in the module's words, naming the coefficient and its digit count
    data = {"var": "x", "coeffs": ["9" * 4300, "-1" + "0" * 4300]}
    assert UniPoly.from_json({"coeffs": data["coeffs"][:1]}).coeffs == (
        10**4300 - 1,)
    with pytest.raises(ValueError, match=r"^coeffs\[1\]: coefficient of "
                       r"4301 digits is past the interpreter's limit"):
        UniPoly.from_json(data)


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


def test_multipoly_from_json_refuses_a_repeated_exponent():
    # a repeated exp would otherwise keep only its last coefficient
    data = {"vars": 1, "terms": [{"exp": [0], "coef": "1"},
                                 {"exp": [1], "coef": "2"},
                                 {"exp": [1], "coef": "3"}]}
    with pytest.raises(ValueError,
                       match=r"^terms\[2\]: exp \[1\] is repeated$"):
        MultiPoly.from_json(data)
    assert MultiPoly.from_json({"vars": 1, "terms": data["terms"][:2]}) == (
        MultiPoly(1, {(0,): 1, (1,): 2}))


@pytest.mark.parametrize("nvars, terms", [
    (1, {(1,): 0.5}),
    (1.5, None),
    (1, {(True,): 2}),
    (True, None),
    ("2", {}),
    (1, {(1.0,): 2}),
    (1, {("1",): 2}),
    (1, {(1,): True}),
    (1, {(1,): "2"}),
    (1, {(1,): 0.0}),
], ids=["float-coef", "float-nvars", "bool-exp", "bool-nvars",
        "string-nvars", "float-exp", "string-exp", "bool-coef",
        "string-coef", "float-zero-coef"])
def test_multipoly_refuses_non_integers(nvars, terms):
    with pytest.raises(ValueError, match="is not an integer"):
        MultiPoly(nvars, terms)


_loose = st.one_of(st.integers(-3, 3), st.booleans(),
                   st.floats(-3, 3), st.text(max_size=1))


@settings(max_examples=300)
@given(_loose, st.dictionaries(
    st.lists(_loose, max_size=3).map(tuple), _loose, max_size=4))
@example(1, {(1,): 0.5})
@example(1.5, {})
@example(1, {(True,): 2})
def test_every_multipoly_that_builds_round_trips_through_json(nvars, terms):
    try:
        poly = MultiPoly(nvars, terms)
    except ValueError:
        return
    assert MultiPoly.from_json(poly.to_json()) == poly


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


def seed_bareiss(rows):
    """Reference: the plain fraction-free elimination that updates every row
    below the pivot at every step, as ``det_int`` did before dormant rows."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@st.composite
def structured_matrices(draw, max_rows=14):
    """Integer matrices whose rows start with many zeros: banded, triangular
    or with drawn leading-zero counts, some with a zero row or column, the
    rows shuffled so that zero pivots force swaps between dormant and live
    rows."""
    n = draw(st.integers(min_value=0, max_value=max_rows))
    values = draw(st.lists(st.integers(min_value=-4, max_value=4),
                           min_size=n * n, max_size=n * n))
    rows = [values[i * n:(i + 1) * n] for i in range(n)]
    pattern = draw(st.sampled_from(["free", "banded", "upper", "lower",
                                    "leading"]))
    if pattern == "banded":
        width = draw(st.integers(min_value=0, max_value=max(n - 1, 0)))
        zero = lambda i, j: i - j > width
    elif pattern == "upper":
        zero = lambda i, j: i > j
    elif pattern == "lower":
        zero = lambda i, j: j > i
    elif pattern == "leading":
        lead = draw(st.lists(st.integers(min_value=0, max_value=n),
                             min_size=n, max_size=n))
        zero = lambda i, j: j < lead[i]
    else:
        zero = lambda i, j: False
    gone = draw(st.sets(st.integers(min_value=0, max_value=max(n - 1, 0)),
                        max_size=1)) if n else set()
    axis = draw(st.sampled_from(["row", "column"]))
    rows = [[0 if zero(i, j) or (i if axis == "row" else j) in gone else e
             for j, e in enumerate(row)] for i, row in enumerate(rows)]
    order = draw(st.permutations(range(n)))
    return [rows[i] for i in order]


@settings(max_examples=200)
@given(structured_matrices())
# a dormant row becomes the pivot by a swap and is scaled by prev = 2; the
# last row stays dormant to the end
@example([[2, 1, 1], [0, 0, 3], [0, 4, 1]])
# the last row is still dormant at the end, prev = 5
@example([[2, 1, 1], [1, 3, 1], [0, 0, 5]])
# at prev = 3 a live row whose pivot vanished swaps with a dormant row:
# their flags must move with them
@example([[3, 0, 1, 2], [-2, 0, -1, -1], [0, 1, 1, -2], [-2, 0, 1, 2]])
@example([[0, 0], [0, 0]])
@example([[0, 1], [1, 0]])
def test_det_int_matches_seed_bareiss(rows):
    before = [list(row) for row in rows]
    det = det_int(rows)
    assert rows == before
    assert det == seed_bareiss(rows)
    if len(rows) <= 6:
        assert UniPoly([det]) == det_leibniz(
            [[[e] for e in row] for row in rows])


def seed_det_division_free(matrix):
    """Reference: the polynomial determinant with each entry evaluated by
    ``UniPoly.__call__``, the seed elimination and the same interpolation."""
    d = sum(max([0] + [p.degree() for p in row]) for row in matrix.entries)
    values = [seed_bareiss([[p(x) for p in row] for row in matrix.entries])
              for x in range(d + 1)]
    diffs = []
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    coeffs = []
    for k in range(d, -1, -1):
        coeffs = [a - k * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += diffs[k] // math.factorial(k)
    return UniPoly(coeffs)


def test_det_division_free_matches_seed_route():
    # the shapes genfun --method det meets: 6 to 14 rows, m = 1..6, parts
    # at least the row count, so that the matrix is banded below only
    rng = random.Random(20240611)
    for _ in range(40):
        rows = rng.randint(6, 14)
        parts = sorted((rng.randint(rows, rows + 4) for _ in range(rows)),
                       reverse=True)
        matrix = lgv_matrix(Partition(parts), rng.randint(1, 6))
        assert det_division_free(matrix) == seed_det_division_free(matrix)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=5),
       st.integers(min_value=-5, max_value=5), st.data())
def test_polymatrix_evaluate_matches_entrywise(n, value, data):
    entries = [
        [UniPoly(data.draw(st.lists(st.integers(min_value=-9, max_value=9),
                                    max_size=4))) for _ in range(n)]
        for _ in range(n)
    ]
    matrix = PolyMatrix(entries)
    expected = [[p(value) for p in row] for row in entries]
    # the second call reads the kept layers; the first result is consumed
    # the way an elimination consumes it, which must not reach them
    for _ in range(2):
        result = matrix.evaluate(value)
        assert result == expected
        for row in result:
            row[:] = [7] * n


@pytest.mark.parametrize("build, message", [
    (lambda: det_int([[1.9, 0], [0, 2.5]]), r"^rows\[0\]\[0\]: 1.9 is not"),
    (lambda: det_int([["3"]]), r"^rows\[0\]\[0\]: '3' is not"),
    (lambda: det_int([[1, 0], [0, True]]), r"^rows\[1\]\[1\]: True is not"),
    (lambda: UniPoly([True, 2]), r"^coeffs\[0\]: True is not"),
    (lambda: det_division_free(PolyMatrix([[UniPoly([0.5])]])),
     r"^coeffs\[0\]: 0.5 is not"),
    (lambda: lgv_matrix((3, 5), 1), r"weakly decreasing"),
    (lambda: lgv_matrix((2,), 1.5), r"^bound 1.5 is not an integer$"),
], ids=["det-float", "det-string", "det-bool", "unipoly-bool",
        "unipoly-float", "lgv-not-a-partition", "lgv-float-bound"])
def test_determinant_inputs_refuse_non_integers(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1
    # the sign from cycles is the parity of the inversion count
    for n in range(8):
        for perm in permutations(range(n)):
            inversions = sum(perm[i] > perm[j]
                             for i in range(n) for j in range(i + 1, n))
            sign = -1 if inversions % 2 else 1
            assert perm_sign(perm) == sign
            assert perm_sign(iter([p + 1 for p in perm])) == sign


@pytest.mark.parametrize("perm", [
    (0, 0), (0, 5), (1, 1, 0), (2, 0, 0), (1, 3), (0, 2, 3), (0, 0.5),
    ("a", "b")])
def test_perm_sign_refuses_a_sequence_that_is_not_a_permutation(perm):
    with pytest.raises(ValueError, match="is not a permutation of"):
        perm_sign(perm)


# --- the binomial matrix ---------------------------------------------------

def test_matrix_entry_splits_by_last_step():
    # entry (i,j) for shape part p_j and bound m:
    #   C(p+m-1, m+j-i) * x + C(p+m-1, m+j-i-1)
    # The two binomials count the paths by whether the last step is east
    # or south, so at x = 1 they add up to all paths: C(p+m, m+j-i).  Both
    # sides are spelled out with math.comb, apart from the library's
    # binomial builder, so the oracle's formula is pinned on its own.
    def comb(n, k):
        return math.comb(n, k) if 0 <= k <= n else 0

    for part in range(1, 5):
        for bound in range(0, 4):
            for rows in range(1, 4):
                matrix = lgv_matrix(Partition([part] * rows), bound)
                for i in range(rows):
                    for j in range(rows):
                        entry = matrix[i, j]
                        assert entry(1) == comb(part + bound, bound + j - i)
                        assert entry(0) == comb(part + bound - 1,
                                                bound + j - i - 1)


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


# --- the refined determinant as n + 1 binomial minors ---------------------

def _refined_cases():
    for shape in enumerate_partitions(10):
        for bound in range(5):
            yield shape, bound
    for rows in (12, 16, 20):
        for part in (1, rows, 20):
            for bound in (1, 3, 6):
                yield Partition([part] * rows), bound
    for cells in (1000, 1237, 1500):
        for bound in (0, 1):
            yield Partition([cells]), bound


def test_refined_det_matches_the_polynomial_determinant():
    # the slow oracle evaluates lgv_matrix at d + 1 points and
    # interpolates; the route under test never builds that matrix
    started = time.process_time()
    cases = list(_refined_cases())
    for shape, bound in cases:
        assert refined_determinant(shape, bound) == det_division_free(
            lgv_matrix(shape, bound)), (shape, bound)
    assert len(cases) == 695 + 27 + 6
    assert refined_determinant((), 3) == UniPoly([1])
    assert time.process_time() - started < 1


def test_refined_det_guards_its_elimination(monkeypatch):
    # (n + 1) * n^2 * max(1, min(bound, n)): n + 1 minors of n^2 entries,
    # each elimination step touching at most min(bound, n) rows below
    monkeypatch.delenv("LGVLAB_GUARD_LIMIT", raising=False)
    with pytest.raises(GuardExceeded) as info:
        refined_determinant((1,) * 400, 1)
    assert (info.value.what, info.value.projected, info.value.limit) == (
        f"PP({[1] * 400}; 1) determinant", 64_160_000, 10**7)
    with pytest.raises(GuardExceeded, match="projected size 24 exceeds"):
        refined_determinant((2, 1), 2, guard_limit=23)
    assert refined_determinant((2, 1), 2, guard_limit=24) == UniPoly([5, 6, 3])
    assert refined_determinant((), 0, guard_limit=0) == UniPoly([1])


@pytest.mark.parametrize("shape, bound, message", [
    ((3, 5), 1, r"^parts\[1\]: parts must be weakly decreasing \(3 < 5\)$"),
    ((2,), 1.5, r"^bound 1.5 is not an integer$"),
    ((2, 1), -1, r"^bound must be nonnegative$"),
])
def test_refined_det_refuses_what_lgv_matrix_refuses(shape, bound, message):
    for route in (refined_determinant, lgv_matrix):
        with pytest.raises(ValueError, match=message):
            route(shape, bound)
