"""Exact intersection lattices and the linear algebra used on them.

A lattice is a finite list of named classes together with an integral
symmetric Gram matrix of pairwise intersection numbers.  Divisor classes are
rational coefficient vectors over that basis.  Everything is exact and
there is no floating point anywhere in the package.  Coefficients and
pairings are ``fractions.Fraction`` values, but every linear system,
determinant and definiteness test runs through one fraction-free (Bareiss)
elimination over the integers: right-hand sides are scaled to integers,
back-substitution stays integral, and a Fraction is built only once per
unknown of the solution.  Without row swaps the pivots of that elimination
are the leading principal minors, so one pass both tests definiteness by
Sylvester's criterion and solves.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    AsymmetricGramError,
    DimensionMismatchError,
    DuplicateNameError,
    EmptySubsetError,
    IndexOutOfRangeError,
    LatticeMismatchError,
    SingularSystemError,
    ValidationError,
)

RationalLike = Union[int, Fraction, str]

_ZERO = Fraction(0)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or integer text into an exact Fraction.

    Decimal and exponent notation is rejected on purpose: coefficients must
    be given exactly.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ValidationError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValidationError(f"zero denominator in rational literal: {text!r}") from None
    except ValueError:  # past the interpreter's int-string digit limit
        raise ValidationError(
            f"rational literal has too many digits ({len(text.strip())} characters)"
        ) from None


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or exact string to Fraction, refusing floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValidationError(
        f"coefficients must be exact rationals, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class IntersectionLattice:
    """Named basis classes with an integral symmetric intersection form."""

    names: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, label: str) -> int:
        try:
            return self.names.index(label)
        except ValueError:
            raise ValidationError(f"unknown class label: {label!r}") from None

    def basis(self, i: int) -> "DivisorClass":
        _check_index(self, i)
        coeffs = tuple(Fraction(1 if j == i else 0) for j in range(self.rank))
        return DivisorClass(self, coeffs)

    def zero(self) -> "DivisorClass":
        return DivisorClass(self, (Fraction(0),) * self.rank)


@dataclass(frozen=True)
class DivisorClass:
    """A rational combination of the basis classes of one lattice."""

    lattice: IntersectionLattice
    coeffs: tuple[Fraction, ...]

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        _same_lattice(self, other)
        return DivisorClass(
            self.lattice, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        _same_lattice(self, other)
        return DivisorClass(
            self.lattice, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.lattice, tuple(-a for a in self.coeffs))

    def __mul__(self, scalar: RationalLike) -> "DivisorClass":
        s = as_rational(scalar)
        return DivisorClass(self.lattice, tuple(s * a for a in self.coeffs))

    __rmul__ = __mul__

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.coeffs) if a != 0)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def is_effective(self) -> bool:
        return all(a >= 0 for a in self.coeffs)


def build_lattice(names: Sequence[str], gram: Sequence[Sequence[int]]) -> IntersectionLattice:
    """Validate and freeze a lattice description."""
    names = tuple(str(n) for n in names)
    if not names:
        raise DimensionMismatchError("a lattice needs at least one class")
    if len(set(names)) != len(names):
        seen = [n for i, n in enumerate(names) if n in names[:i]]
        raise DuplicateNameError(f"duplicate class labels: {sorted(set(seen))}")
    n = len(names)
    if len(gram) != n:
        raise DimensionMismatchError(
            f"gram has {len(gram)} rows for {n} classes"
        )
    rows = []
    for row in gram:
        if len(row) != n:
            raise DimensionMismatchError(
                f"gram row of length {len(row)}, expected {n}"
            )
        for entry in row:
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise ValidationError(
                    f"gram entries must be integers, got {entry!r}"
                )
        rows.append(tuple(row))
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise AsymmetricGramError(
                    f"gram[{i}][{j}] = {rows[i][j]} but gram[{j}][{i}] = {rows[j][i]}"
                )
    return IntersectionLattice(names, tuple(rows))


def divisor(lattice: IntersectionLattice, coeffs: Sequence[RationalLike]) -> DivisorClass:
    """Build a divisor class, coercing coefficients to exact rationals."""
    vals = tuple(as_rational(c) for c in coeffs)
    if len(vals) != lattice.rank:
        raise DimensionMismatchError(
            f"{len(vals)} coefficients for a rank {lattice.rank} lattice"
        )
    return DivisorClass(lattice, vals)


def pair(a: DivisorClass, b: DivisorClass) -> Fraction:
    """Intersection pairing of two divisor classes on the same lattice."""
    _same_lattice(a, b)
    gram = a.lattice.gram
    total = Fraction(0)
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        row = gram[i]
        acc = Fraction(0)
        for j, bj in enumerate(b.coeffs):
            if bj != 0:
                acc += bj * row[j]
        total += ai * acc
    return total


def pair_with_basis(a: DivisorClass, i: int) -> Fraction:
    """Pairing of a class with the i-th basis class (cheaper than pair)."""
    _check_index(a.lattice, i)
    gram = a.lattice.gram
    return sum((c * gram[j][i] for j, c in enumerate(a.coeffs) if c != 0), Fraction(0))


def normalize_support(lattice: IntersectionLattice, support: Iterable[int]) -> tuple[int, ...]:
    """Sorted duplicate-free index tuple, validated against the lattice."""
    out = sorted(set(support))
    for i in out:
        _check_index(lattice, i)
    return tuple(out)


def gram_submatrix(lattice: IntersectionLattice, support: Sequence[int]) -> list[list[int]]:
    return [[lattice.gram[i][j] for j in support] for i in support]


def off_diagonal_nonnegative(lattice: IntersectionLattice, support: Sequence[int]) -> bool:
    """Do all distinct classes in the subset pair nonnegatively?"""
    for a in support:
        for b in support:
            if a < b and lattice.gram[a][b] < 0:
                return False
    return True


def is_negative_definite(lattice: IntersectionLattice, support: Iterable[int]) -> bool:
    """Sylvester test on the Gram submatrix of the given classes, in one pass.

    Fraction-free elimination of -G without row swaps: its k-th pivot is the
    k-th leading principal minor of -G, so G is negative definite exactly
    when every pivot is positive.  The empty subset passes vacuously.
    """
    sup = normalize_support(lattice, support)
    return _bareiss(_negated_gram(lattice, sup), len(sup), definite=True) != 0


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination.

    Every interior division is exact, which is the point of the algorithm:
    intermediate values stay integers and never lose precision.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    return _bareiss(m, n) * m[n - 1][n - 1]


def solve_exact(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a square rational system exactly.

    Each equation is scaled by the lcm of its denominators, so the system is
    solved by integer elimination with one Fraction built per unknown.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise DimensionMismatchError("system dimensions do not match")
    rows = []
    for row, b in zip(matrix, rhs):
        vals = [Fraction(x) for x in row] + [Fraction(b)]
        scale = lcm(*(v.denominator for v in vals))
        rows.append([v.numerator * (scale // v.denominator) for v in vals])
    sol = _solve_rows(rows, n, 1, definite=False)
    if sol is None:
        raise SingularSystemError("singular linear system")
    return sol


def solve_against_gram(
    lattice: IntersectionLattice,
    support: Iterable[int],
    targets: Sequence[RationalLike],
) -> DivisorClass:
    """Class supported on the subset with prescribed pairings against it.

    Solves for E = sum of c_i times the subset classes such that E paired
    with the j-th subset class equals targets[j].
    """
    solution = _solve_on_gram(lattice, support, targets, definite=False)
    if solution is None:
        raise SingularSystemError("singular linear system")
    return solution


def solve_negative_definite(
    lattice: IntersectionLattice,
    support: Iterable[int],
    targets: Sequence[RationalLike],
) -> Optional[DivisorClass]:
    """solve_against_gram fused with the Sylvester test; None if it fails.

    One elimination of -G without row swaps both proves the subset's Gram
    matrix negative definite (every pivot positive) and solves the system.
    """
    return _solve_on_gram(lattice, support, targets, definite=True)


def _solve_on_gram(
    lattice: IntersectionLattice,
    support: Iterable[int],
    targets: Sequence[RationalLike],
    definite: bool,
) -> Optional[DivisorClass]:
    """Solve G x = t on the subset as (-G) x = -t, with t scaled to integers."""
    sup = normalize_support(lattice, support)
    if not sup:
        raise EmptySubsetError("cannot solve on an empty subset")
    tgt = [as_rational(t) for t in targets]
    if len(tgt) != len(sup):
        raise DimensionMismatchError(
            f"{len(tgt)} targets for a subset of size {len(sup)}"
        )
    scale = lcm(*(t.denominator for t in tgt))
    rows = _negated_gram(lattice, sup)
    for row, t in zip(rows, tgt):
        row.append(-t.numerator * (scale // t.denominator))
    sol = _solve_rows(rows, len(sup), scale, definite)
    if sol is None:
        return None
    coeffs = [_ZERO] * lattice.rank
    for idx, c in zip(sup, sol):
        coeffs[idx] = c
    return DivisorClass(lattice, tuple(coeffs))


def _negated_gram(lattice: IntersectionLattice, sup: Sequence[int]) -> list[list[int]]:
    gram = lattice.gram
    return [[-gram[i][j] for j in sup] for i in sup]


def _bareiss(m: list[list[int]], n: int, definite: bool = False) -> int:
    """Fraction-free elimination of the first n columns of m, in place.

    Columns past n (a right-hand side) are carried along.  The update
    (a_ij p - a_ik a_kj) / p_prev divides exactly (Bareiss 1968), so every
    entry stays an integer, and without row swaps the k-th pivot is the k-th
    leading principal minor.  With definite=True rows are never swapped and
    a pivot that is not positive fails the pass.  Returns the sign of the
    row permutation, or 0 on failure; on success the sign times the last
    pivot is the determinant.
    """
    sign = 1
    prev = 1
    for k in range(n):
        pivot_row = m[k]
        p = pivot_row[k]
        if definite:
            if p <= 0:
                return 0
        elif p == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], pivot_row
                    pivot_row = m[k]
                    p = pivot_row[k]
                    sign = -sign
                    break
            else:
                return 0
        tail = pivot_row[k + 1 :]
        for i in range(k + 1, n):
            row = m[i]
            a = row[k]
            row[k + 1 :] = [(x * p - a * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = p
    return sign


def _solve_rows(
    m: list[list[int]], n: int, scale: int, definite: bool
) -> Optional[list[Fraction]]:
    """Solution of the n x (n + 1) integer system m, divided by scale.

    After elimination the last pivot d is the determinant of the (row
    permuted) system, and by Cramer's rule X = d x is an integer vector, so
    back-substitution stays in the integers with exact divisions.  The
    result is X / (d * scale): one Fraction per unknown.  None when
    elimination fails.
    """
    if _bareiss(m, n, definite) == 0:
        return None
    d = m[n - 1][n - 1] if n else 1
    xs = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = d * row[n]
        for j in range(i + 1, n):
            acc -= row[j] * xs[j]
        xs[i] = acc // row[i]
    den = d * scale
    return [Fraction(x, den) for x in xs]


def arithmetic_genus(
    lattice: IntersectionLattice, canonical: DivisorClass, curve_index: int
) -> Fraction:
    """Adjunction genus 1 + (C^2 + K.C)/2 of a basis class."""
    _check_index(lattice, curve_index)
    _require_lattice(lattice, canonical)
    c_sq = Fraction(lattice.gram[curve_index][curve_index])
    kc = pair_with_basis(canonical, curve_index)
    return 1 + (c_sq + kc) / 2


def _same_lattice(a: DivisorClass, b: DivisorClass) -> None:
    if a.lattice is not b.lattice and a.lattice != b.lattice:
        raise LatticeMismatchError("divisor classes live on different lattices")


def _require_lattice(lattice: IntersectionLattice, d: DivisorClass) -> None:
    if d.lattice is not lattice and d.lattice != lattice:
        raise LatticeMismatchError("divisor class does not belong to this lattice")


def _check_index(lattice: IntersectionLattice, i: int) -> None:
    if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < lattice.rank:
        raise IndexOutOfRangeError(
            f"class index {i!r} out of range for rank {lattice.rank}"
        )
