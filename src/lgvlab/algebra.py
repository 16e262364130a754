"""Exact integer polynomials and the binomial determinant.

Coefficients are plain Python ints, so every value is exact at any magnitude.
Polynomials are canonical-form values (no trailing zero coefficients, no
stored zero terms), which makes structural equality the same thing as
mathematical equality.  They support evaluation, equality, JSON and, for
``MultiPoly``, a permutation of the variables; there is no ring arithmetic,
since no route of the package adds or multiplies polynomials.

Determinants have one algorithm, the fraction-free integer elimination
``det_int``.  A polynomial determinant is ``det_int`` evaluated at d + 1
points, d a bound on its degree, followed by exact interpolation; there is
no size cap.

All values are immutable once constructed and every operation is a pure
function of its inputs, so everything here is safe to use concurrently.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Mapping


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 for k < 0, k > n, or n < 0.

    The out-of-range-means-zero convention matters: it is what makes the
    band structure of binomial path-count matrices come out right without
    any special-casing at the edges.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def _is_int(value) -> bool:
    """True for a genuine integer: JSON floats and booleans do not count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _json_coefficient(value, where: str) -> int:
    """A coefficient read from JSON: an integer or a decimal string."""
    if _is_int(value) or (isinstance(value, str)
                          and re.fullmatch(r"-?[0-9]+", value)):
        return int(value)
    raise ValueError(f"{where}: coefficient {value!r} is not an integer "
                     "or a decimal string")


class UniPoly:
    """Univariate polynomial with integer coefficients.

    ``coeffs[k]`` is the coefficient of x**k.  The stored tuple never has
    trailing zeros; the zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    def __delattr__(self, name):
        raise AttributeError("UniPoly is immutable")

    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __call__(self, value: int) -> int:
        """Evaluate at an integer point (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __repr__(self) -> str:
        if not self.coeffs:
            return "UniPoly(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{k}" if c != 1 else f"x^{k}")
        return "UniPoly(" + " + ".join(parts) + ")"

    def to_json(self) -> dict:
        """Serialize as {"var": "x", "coeffs": [...]} with decimal-string coefficients."""
        return {"var": "x", "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "UniPoly":
        if not isinstance(data, dict) or not isinstance(data.get("coeffs"), list):
            raise ValueError("polynomial JSON must be an object with a 'coeffs' list")
        return cls(_json_coefficient(c, f"coeffs[{k}]")
                   for k, c in enumerate(data["coeffs"]))


class MultiPoly:
    """Polynomial in n variables with integer coefficients.

    Stored as a map from exponent vector (length-n tuple of nonnegative ints)
    to nonzero coefficient.  All exponent vectors in one polynomial have the
    same length.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[tuple[int, ...], int] = {}
        for exp, coef in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != nvars:
                raise ValueError(
                    f"exponent vector {exp} has length {len(exp)}, expected {nvars}"
                )
            if any(e < 0 for e in exp):
                raise ValueError(f"exponent vector {exp} has a negative entry")
            if coef != 0:
                clean[exp] = clean.get(exp, 0) + coef
                if clean[exp] == 0:
                    del clean[exp]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __delattr__(self, name):
        raise AttributeError("MultiPoly is immutable")

    def coefficient(self, exp: tuple[int, ...]) -> int:
        return self.terms.get(tuple(exp), 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def permute_variables(self, perm: tuple[int, ...]) -> "MultiPoly":
        """Apply x_i -> x_{perm(i)}: exponent slot i moves to slot perm[i] (0-based)."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError(f"{perm} is not a permutation of 0..{self.nvars - 1}")
        out: dict[tuple[int, ...], int] = {}
        for exp, coef in self.terms.items():
            new = [0] * self.nvars
            for i, e in enumerate(exp):
                new[perm[i]] = e
            out[tuple(new)] = coef
        return MultiPoly(self.nvars, out)

    def __repr__(self) -> str:
        if not self.terms:
            return f"MultiPoly({self.nvars}, 0)"
        bits = []
        for exp in sorted(self.terms):
            coef = self.terms[exp]
            mono = "*".join(
                f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                for i, e in enumerate(exp)
                if e
            )
            bits.append(f"{coef}*{mono}" if mono else str(coef))
        return f"MultiPoly({self.nvars}, " + " + ".join(bits) + ")"

    def to_json(self) -> dict:
        """Serialize with terms sorted lexicographically by exponent vector."""
        return {
            "vars": self.nvars,
            "terms": [
                {"exp": list(exp), "coef": str(self.terms[exp])}
                for exp in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MultiPoly":
        if (not isinstance(data, dict) or not _is_int(data.get("vars"))
                or not isinstance(data.get("terms"), list)):
            raise ValueError("multivariate polynomial JSON needs an integer "
                             "'vars' and a 'terms' list")
        terms = {}
        for i, term in enumerate(data["terms"]):
            if not isinstance(term, dict) or "exp" not in term or "coef" not in term:
                raise ValueError(f"terms[{i}]: needs 'exp' and 'coef'")
            exp = term["exp"]
            if not isinstance(exp, list) or not all(map(_is_int, exp)):
                raise ValueError(f"terms[{i}]: exp must be a list of integers")
            terms[tuple(exp)] = _json_coefficient(term["coef"], f"terms[{i}]")
        return cls(data["vars"], terms)


class PolyMatrix:
    """Square matrix of UniPoly entries."""

    __slots__ = ("n", "entries")

    def __init__(self, entries: Iterable[Iterable[UniPoly]]):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("PolyMatrix is immutable")

    def __getitem__(self, key: tuple[int, int]) -> UniPoly:
        i, j = key
        return self.entries[i][j]

    def __repr__(self) -> str:
        return f"PolyMatrix({self.entries!r})"

    def evaluate(self, value: int) -> list[list[int]]:
        """Entrywise evaluation at an integer point."""
        return [[p(value) for p in row] for row in self.entries]


def det_division_free(matrix: PolyMatrix) -> UniPoly:
    """Exact determinant of a polynomial matrix, by evaluation and interpolation.

    The determinant has degree at most d, the sum over rows of the largest
    entry degree (a row of zeros counts 0).  It is evaluated at x = 0..d with
    ``det_int`` and rebuilt in Newton form, f(x) = sum_k D^k f(0) * C(x, k),
    where D^k f(0) is the k-th forward difference of those values.  Every
    division is exact, since k! divides D^k f(0) when f has integer
    coefficients.  The cost is d + 1 integer determinants, so there is no
    size cap.
    """
    d = sum(max([0] + [p.degree() for p in row]) for row in matrix.entries)
    values = [det_int(matrix.evaluate(x)) for x in range(d + 1)]
    diffs = []
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    # Horner on the Newton basis, c_0 + x*(c_1 + (x-1)*(c_2 + ...)), on a
    # coefficient list: each step multiplies by (x - k) and adds c_k
    coeffs = []
    for k in range(d, -1, -1):
        coeffs = [a - k * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += diffs[k] // math.factorial(k)
    return UniPoly(coeffs)


def det_int(rows: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination.

    The one determinant algorithm of the package: closed-form counts call it
    directly and ``det_division_free`` evaluates polynomial matrices with it.
    O(n^3) exact operations, so there is no size cap.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in rows]
    for row in m:
        if len(row) != n:
            raise ValueError("matrix must be square")
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


def perm_sign(perm: Iterable[int]) -> int:
    """Sign of a permutation given as a sequence of images (any base index)."""
    perm = tuple(perm)
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def path_count_matrix_entry(part: int, bound: int, i: int, j: int) -> UniPoly:
    """Entry (i, j) of the refined path-count matrix, 1-based indices.

    C(part + bound - 1, bound + j - i) * x  +  C(part + bound - 1, bound + j - i - 1),
    where ``part`` is the j-th part of the shape.  The x-coefficient counts the
    lattice paths whose final step is east, the constant term those whose final
    step is south.
    """
    cx = binomial(part + bound - 1, bound + j - i)
    c0 = binomial(part + bound - 1, bound + j - i - 1)
    return UniPoly((c0, cx))


def lgv_matrix(shape, bound: int) -> PolyMatrix:
    """Refined binomial path-count matrix for a shape and entry bound.

    Row i, column j (1-based) counts lattice paths from the i-th start point
    to the j-th end point of the bounded-plane-partition path configuration,
    weighted by x when the final step is east.  Its determinant is the
    generating function of the bounded plane partitions of that shape by the
    number of rows containing 0.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    parts = tuple(shape)
    n = len(parts)
    return PolyMatrix(
        [
            [path_count_matrix_entry(parts[j], bound, i + 1, j + 1) for j in range(n)]
            for i in range(n)
        ]
    )
