"""Exact intersection lattices and the linear algebra used on them.

A lattice is a finite list of named classes together with an integral
symmetric Gram matrix of pairwise intersection numbers.  Divisor classes are
rational coefficient vectors over that basis.  Everything is exact and
there is no floating point anywhere in the package.  Coefficients and
pairings are ``fractions.Fraction`` values, but every linear system goes
through one entry point, ``solve_against_gram``.  Each system the library
solves lives on the support of a negative part, whose Gram matrix G is
negative definite, so the solver eliminates -G by one fraction-free
(Bareiss) pass over the integers with no row swaps: right-hand sides are
scaled to integers, back-substitution stays integral, and a Fraction is
built only once per unknown of the solution.  Without row swaps the pivots
of that elimination are the leading principal minors of -G, so the same
pass tests negative definiteness by Sylvester's criterion and the solver
returns None for a subset that fails it.
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


def off_diagonal_nonnegative(lattice: IntersectionLattice, support: Sequence[int]) -> bool:
    """Do all distinct classes in the subset pair nonnegatively?"""
    for a in support:
        for b in support:
            if a < b and lattice.gram[a][b] < 0:
                return False
    return True


def solve_against_gram(
    lattice: IntersectionLattice,
    support: Iterable[int],
    targets: Sequence[RationalLike],
) -> Optional[DivisorClass]:
    """Class supported on the subset with prescribed pairings against it.

    Solves for E = sum of c_i times the subset classes such that E paired
    with the j-th subset class equals targets[j], or returns None when the
    subset's Gram matrix G is not negative definite.  The system is solved
    as (-G) x = -t with t scaled to integers by the lcm of its
    denominators; one elimination both proves -G positive definite and
    solves (see _bareiss), and back-substitution stays integral: after
    elimination the last pivot d is det(-G), and by Cramer's rule X = d x
    is an integer vector, so one Fraction X / (d * scale) is built per
    unknown.
    """
    sup = normalize_support(lattice, support)
    if not sup:
        raise EmptySubsetError("cannot solve on an empty subset")
    tgt = [as_rational(t) for t in targets]
    n = len(sup)
    if len(tgt) != n:
        raise DimensionMismatchError(
            f"{len(tgt)} targets for a subset of size {n}"
        )
    scale = lcm(*(t.denominator for t in tgt))
    gram = lattice.gram
    m = [
        [-gram[i][j] for j in sup] + [-t.numerator * (scale // t.denominator)]
        for i, t in zip(sup, tgt)
    ]
    if not _bareiss(m, n):
        return None
    d = m[n - 1][n - 1]
    xs = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = d * row[n]
        for j in range(i + 1, n):
            acc -= row[j] * xs[j]
        xs[i] = acc // row[i]
    den = d * scale
    coeffs = [_ZERO] * lattice.rank
    for idx, x in zip(sup, xs):
        coeffs[idx] = Fraction(x, den)
    return DivisorClass(lattice, tuple(coeffs))


def _bareiss(m: list[list[int]], n: int) -> bool:
    """Fraction-free elimination of the first n columns of m, in place.

    Columns past n (a right-hand side) are carried along.  The update
    (a_ij p - a_ik a_kj) / p_prev divides exactly (Bareiss 1968), so every
    entry stays an integer.  Rows are never swapped, so the k-th pivot is
    the k-th leading principal minor of m; the pass fails, returning
    False, at the first pivot that is not positive, and succeeds exactly
    when the leading n x n block, symmetric here, is positive definite
    (Sylvester).
    """
    prev = 1
    for k in range(n):
        pivot_row = m[k]
        p = pivot_row[k]
        if p <= 0:
            return False
        tail = pivot_row[k + 1 :]
        for i in range(k + 1, n):
            row = m[i]
            a = row[k]
            row[k + 1 :] = [(x * p - a * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = p
    return True


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
