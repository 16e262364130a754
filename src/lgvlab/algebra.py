"""Exact integer polynomials and the binomial determinant.

Coefficients are plain Python ints, so every value is exact at any magnitude.
Polynomials are canonical-form values (no trailing zero coefficients, no
stored zero terms), which makes structural equality the same thing as
mathematical equality.  They support evaluation, equality, JSON and, for
``MultiPoly``, a permutation of the variables; there is no ring arithmetic,
since no route of the package adds or multiplies polynomials.

Determinants have one algorithm, the fraction-free (Bareiss) integer
elimination ``_bareiss``, which leaves alone the rows that elimination
would only rescale (those still zero up to the pivot column); ``det_int``
is its public entry point, refusing anything but int entries.
``det_division_free``, the general and slower polynomial determinant, is
``_bareiss`` on the matrix evaluated at d + 1 points, d a bound on its
degree, followed by exact interpolation; the evaluation is Horner over the
matrix's integer coefficient layers, kept on the ``PolyMatrix``.  With
``lgv_matrix`` it is the oracle that ``objects.refined_determinant``, the
library's route, is tested against.  There is no size cap.

All values are immutable once constructed and every operation is a pure
function of its inputs, so everything here is safe to use concurrently.
``_Value``, the base of every value class of the package, is defined here
because every other module imports this one.
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


def _decimal(n: int) -> str:
    """``str(n)``, also past the interpreter's limit on the digits it
    converts (4,300 by default), where ``Decimal`` writes ``n`` exactly."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # about 1 ms to import, rarely needed
        return str(Decimal(n))


def _ints(values, field: str) -> tuple:
    """``values`` as a tuple, refusing with ValueError any value that is not
    a genuine integer (a float, bool or string is refused, not truncated)."""
    values = tuple(values)
    for value in values:
        # the exact-type test settles plain ints without a call
        if type(value) is not int and not _is_int(value):
            k = next(k for k, v in enumerate(values) if not _is_int(v))
            raise ValueError(f"{field}[{k}]: {value!r} is not an integer")
    return values


def _json_coefficient(value, where: str) -> int:
    """A coefficient read from JSON: an integer or a decimal string."""
    if _is_int(value) or (isinstance(value, str)
                          and re.fullmatch(r"-?[0-9]+", value)):
        try:
            return int(value)
        except ValueError:  # a string past the interpreter's digit limit
            digits = len(value.lstrip("-"))
            raise ValueError(f"{where}: coefficient of {digits} digits is "
                             "past the interpreter's limit") from None
    raise ValueError(f"{where}: coefficient {value!r} is not an integer "
                     "or a decimal string")


class _Value:
    """Base of the package's immutable value classes.

    It refuses assignment and deletion of attributes, so a subclass fills
    its slots through the setters ``_slot_setters`` returns.
    ``_trusted(*fields)`` builds a value through the subclass's
    ``_fill(*fields)`` without the checks of its constructor; it is for
    values the library built from parts it had already checked.  A class
    built on a hot path replaces it with a fixed-arity ``_trusted`` of its
    own, whose calls CPython specialises where it does not specialise the
    varargs one.  Equality and hash read the subclass's ``_key()``, and a
    value equals only values of its own exact type.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _trusted(cls, *fields):
        self = object.__new__(cls)
        self._fill(*fields)
        return self

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _slot_setters(cls: type, *names: str) -> tuple:
    """Each named slot's own setter, ``set(obj, value)``: it fills the slot
    past ``_Value.__setattr__`` at about half the cost of
    ``object.__setattr__``."""
    return tuple(getattr(cls, name).__set__ for name in names)


class UniPoly(_Value):
    """Univariate polynomial with integer coefficients.

    ``coeffs[k]`` is the coefficient of x**k.  The stored tuple never has
    trailing zeros; the zero polynomial is the empty tuple.  A coefficient
    that is not an int is refused with ValueError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        coeffs = _ints(coeffs, "coeffs")
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        _set_coeffs(self, coeffs[:end])

    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def _key(self) -> tuple:
        return self.coeffs

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
                parts.append(_decimal(c))
            elif k == 1:
                parts.append(f"{_decimal(c)}*x" if c != 1 else "x")
            else:
                parts.append(f"{_decimal(c)}*x^{k}" if c != 1 else f"x^{k}")
        return "UniPoly(" + " + ".join(parts) + ")"

    def to_json(self) -> dict:
        """Serialize as {"var": "x", "coeffs": [...]} with decimal-string coefficients."""
        return {"var": "x", "coeffs": [_decimal(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "UniPoly":
        if not isinstance(data, dict) or not isinstance(data.get("coeffs"), list):
            raise ValueError("polynomial JSON must be an object with a 'coeffs' list")
        return cls(_json_coefficient(c, f"coeffs[{k}]")
                   for k, c in enumerate(data["coeffs"]))


(_set_coeffs,) = _slot_setters(UniPoly, "coeffs")


class MultiPoly(_Value):
    """Polynomial in n variables with integer coefficients.

    Stored as a map from exponent vector (length-n tuple of nonnegative ints)
    to nonzero coefficient.  All exponent vectors in one polynomial have the
    same length.  An ``nvars``, exponent or coefficient that is not an int
    is refused with ValueError.  ``_trusted(nvars, terms)`` keeps a dict the
    library built itself, such as a tableau tally, without checking it.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if not _is_int(nvars):
            raise ValueError(f"nvars {nvars!r} is not an integer")
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[tuple[int, ...], int] = {}
        for exp, coef in (terms or {}).items():
            exp = _ints(exp, "exponent vector")
            if len(exp) != nvars:
                raise ValueError(
                    f"exponent vector {exp} has length {len(exp)}, expected {nvars}"
                )
            if any(e < 0 for e in exp):
                raise ValueError(f"exponent vector {exp} has a negative entry")
            if not _is_int(coef):
                raise ValueError(
                    f"coefficient {coef!r} of {exp} is not an integer")
            if coef != 0:
                clean[exp] = clean.get(exp, 0) + coef
                if clean[exp] == 0:
                    del clean[exp]
        self._fill(nvars, clean)

    def _fill(self, nvars: int, terms: dict) -> None:
        """Set the slots; ``terms`` maps int tuples of length ``nvars`` to
        nonzero ints."""
        _set_nvars(self, nvars)
        _set_terms(self, terms)

    def coefficient(self, exp: tuple[int, ...]) -> int:
        return self.terms.get(tuple(exp), 0)

    def _key(self) -> tuple:
        return (self.nvars, frozenset(self.terms.items()))

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
            if tuple(exp) in terms:
                raise ValueError(f"terms[{i}]: exp {exp} is repeated")
            terms[tuple(exp)] = _json_coefficient(term["coef"], f"terms[{i}]")
        return cls(data["vars"], terms)


_set_nvars, _set_terms = _slot_setters(MultiPoly, "nvars", "terms")


class PolyMatrix(_Value):
    """Square matrix of UniPoly entries, equal only to itself.

    Its coefficient layers, one integer matrix per power of x up to the
    largest entry degree (at least one), are computed on first use and kept
    (``_layers``); ``evaluate`` runs Horner over them.
    """

    __slots__ = ("n", "entries", "_layers")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, entries: Iterable[Iterable[UniPoly]]):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        _set_n(self, n)
        _set_entries(self, rows)
        _set_layers(self, None)

    def __getitem__(self, key: tuple[int, int]) -> UniPoly:
        i, j = key
        return self.entries[i][j]

    def __repr__(self) -> str:
        return f"PolyMatrix({self.entries!r})"

    def evaluate(self, value: int) -> list[list[int]]:
        """Entrywise evaluation at an integer point, as a new list of int
        lists: Horner over the coefficient layers, a row at a time."""
        layers = self._layers
        if layers is None:
            width = max([len(p.coeffs) for row in self.entries for p in row]
                        + [1])
            layers = [[[p.coeffs[k] if k < len(p.coeffs) else 0 for p in row]
                       for row in self.entries] for k in range(width)]
            _set_layers(self, layers)
        acc = [list(row) for row in layers[-1]]
        for layer in reversed(layers[:-1]):
            acc = [[e * value + c for e, c in zip(row, coeffs)]
                   for row, coeffs in zip(acc, layer)]
        return acc


_set_n, _set_entries, _set_layers = _slot_setters(
    PolyMatrix, "n", "entries", "_layers")


def det_division_free(matrix: PolyMatrix) -> UniPoly:
    """Exact determinant of a polynomial matrix, by evaluation and interpolation.

    The determinant has degree at most d, the sum over rows of the largest
    entry degree (a row of zeros counts 0).  It is evaluated at x = 0..d,
    each value eliminated by ``_bareiss``, and rebuilt in Newton form, f(x) = sum_k D^k f(0) * C(x, k),
    where D^k f(0) is the k-th forward difference of those values.  Every
    division is exact, since k! divides D^k f(0) when f has integer
    coefficients.  The cost is d + 1 integer determinants, so there is no
    size cap.  The evaluated matrices are ints by construction (a UniPoly
    holds only ints), so they go to ``_bareiss`` without a second scan.
    No library route calls it: the refined determinant of a shape is
    ``objects.refined_determinant``, and this stays public as its general,
    slow oracle.
    """
    d = sum(max([0] + [p.degree() for p in row]) for row in matrix.entries)
    values = [_bareiss(matrix.evaluate(x)) for x in range(d + 1)]
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

    A row that is still zero up to the pivot column is dormant: elimination
    would only rescale it by the pivot, so it is left as it is until its
    first nonzero entry meets a pivot column (see ``_bareiss``).  On a
    matrix of lower bandwidth w each step updates at most w rows, so the
    cost is O(n^2 w) exact operations, O(n^3) in general; there is no size
    cap.  Every entry must be an int (a float, bool or string is refused
    with ValueError); the rows are copied, so the input is not changed.
    """
    matrix = [list(_ints(row, f"rows[{i}]")) for i, row in enumerate(rows)]
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix must be square")
    return _bareiss(matrix)


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of ``m``, a square list of int lists, which it consumes,
    by fraction-free (Bareiss) elimination with dormant rows.

    After pivot k, Bareiss entry (i, j) is the minor on rows {0..k, i} and
    columns {0..k, j}, and pivot k is the leading minor p_k of order k + 1.
    While row i is zero in columns 0..k that minor is m[i][j] * p_k: the
    row is dormant, keeps its original values and is not touched (every
    row starts dormant, p_-1 being 1).  When a dormant row first meets a
    nonzero entry a in pivot column k, its true state is m[i][j] * prev,
    so its update m[i][j] * p - a * pivot[j] needs no division.  A dormant
    pivot row is scaled by prev, and a last row still dormant at the end
    contributes its entry times prev.  ``live`` marks the rows updated so
    far and moves with them on a swap.
    """
    n = len(m)
    if n == 0:
        return 1
    live = [False] * n
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    live[k], live[i] = live[i], live[k]
                    sign = -sign
                    break
            else:
                return 0
        k1 = k + 1
        p, pivot = m[k][k], m[k][k1:]
        if not live[k] and prev != 1:
            p, pivot = p * prev, [e * prev for e in pivot]
        for i in range(k1, n):
            row = m[i]
            a = row[k]
            if live[i]:
                row[k1:] = [(e * p - a * f) // prev
                            for e, f in zip(row[k1:], pivot)]
            elif a:
                row[k1:] = [e * p - a * f for e, f in zip(row[k1:], pivot)]
                live[i] = True
        prev = p
    last = m[n - 1][n - 1]
    return sign * (last if live[n - 1] else last * prev)


def perm_sign(perm: Iterable[int]) -> int:
    """Sign of a permutation of base..base+n-1, given as its sequence of
    images, where base is the smallest entry (any base index).

    The sign is (-1)^(n - cycles), found by walking each cycle once.  A
    sequence with a repeated, out-of-range or non-integer image is refused
    with ValueError.
    """
    perm = tuple(perm)
    n = len(perm)
    odd = False
    try:
        base = min(perm) if perm else 0
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            seen[start] = True
            j = perm[start] - base
            # every step of a cycle but the one closing it is a transposition
            while j != start:
                if j >= n or seen[j]:
                    raise ValueError
                seen[j] = True
                odd = not odd
                j = perm[j] - base
    except (TypeError, ValueError):  # TypeError: an image is no integer
        raise ValueError(f"{list(perm)} is not a permutation of {n} "
                         "consecutive integers") from None
    return -1 if odd else 1


def lgv_matrix(shape, bound: int) -> PolyMatrix:
    """Refined binomial path-count matrix for a shape and entry bound.

    Row i, column j (1-based) counts lattice paths from the i-th start point
    to the j-th end point of the bounded-plane-partition path configuration,
    weighted by x when the final step is east: C(L_j - 1, bound + j - i) * x
    + C(L_j - 1, bound + j - i - 1), L_j = shape_j + bound being the steps
    of line j.  Its determinant is the generating function of the bounded
    plane partitions of that shape by the number of rows containing 0.  It
    is the tests' oracle, so it spells out its own entries.  The shape is
    read through ``Partition``; a bound that is not a nonnegative int is
    then refused with ValueError.
    """
    from .objects import PlanePartition  # objects imports this module

    lines = PlanePartition._checked_line_steps(shape, bound)
    return PolyMatrix(
        [[UniPoly((binomial(steps - 1, bound + j - i - 1),
                   binomial(steps - 1, bound + j - i)))
          for j, (_, steps) in enumerate(lines)] for i in range(len(lines))])
