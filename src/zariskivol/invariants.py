"""Slope invariants of a negative part.

Given a decomposition with negative part N supported on classes with
pairwise nonnegative intersections, these functions compute the exceptional
solutions attached to an intersection pattern, the per-divisor slope, its
supremum over the pattern cone, and the coarse diagonal bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    InvariantViolationError,
    NegativeOffDiagonalError,
    NegativePatternError,
    NotNEquivalentError,
    NotNNefError,
    NotPseudoEffectiveError,
    SupportTooLargeError,
    ValidationError,
)
from .lattice import (
    DivisorClass,
    IntersectionLattice,
    _require_lattice,
    off_diagonal_nonnegative,
    pair,
    pair_with_basis,
    solve_against_gram,
)
from .zariski import ZariskiDecomposition, star_lift, zariski_decompose

_ONE = Fraction(1)
_NOT_DEFINITE = "support Gram is not negative definite"


@dataclass(frozen=True)
class ExceptionalSolution:
    capped: bool
    support: tuple[int, ...]
    coeffs: tuple[Fraction, ...]
    pattern: tuple[Fraction, ...]
    divisor: DivisorClass


def _check_off_diagonal(lattice: IntersectionLattice, support: Sequence[int]) -> None:
    if not off_diagonal_nonnegative(lattice, support):
        raise NegativeOffDiagonalError(
            "support classes pair negatively with each other"
        )


def _targets(pattern: Sequence[Fraction], capped: bool) -> list[Fraction]:
    return [-min(_ONE, t) if capped else -t for t in pattern]


def _solve_checked(
    lattice: IntersectionLattice,
    support: Sequence[int],
    pattern: Sequence[Fraction],
    capped: bool,
) -> list[Fraction]:
    """Exceptional coefficients on a support, which must be negative definite.

    The off-diagonal signs are checked first, so NegativeOffDiagonalError
    takes precedence over NotPseudoEffectiveError.
    """
    _check_off_diagonal(lattice, support)
    sol = solve_against_gram(lattice, support, _targets(pattern, capped))
    if sol is None:
        raise NotPseudoEffectiveError(_NOT_DEFINITE)
    return [sol.coeffs[i] for i in support]


def exceptional_solution(
    lattice: IntersectionLattice,
    decomposition: ZariskiDecomposition,
    pattern: Sequence[int],
    capped: bool = True,
) -> ExceptionalSolution:
    """Class on Supp(N) whose pairings realize minus the (capped) pattern.

    With capped=True the target against the i-th support class is
    -min(1, t_i), otherwise -t_i.  Coefficients are certified nonnegative
    and bounded below by min(1, t_i)/e_i resp. t_i/e_i where e_i is minus
    the self-intersection.
    """
    sup = decomposition.support
    if len(pattern) != len(sup):
        raise ValidationError(
            f"pattern length {len(pattern)} does not match support size {len(sup)}"
        )
    pat: list[Fraction] = []
    for t in pattern:
        if not isinstance(t, int) or isinstance(t, bool):
            raise ValidationError(f"pattern entries must be integers, got {t!r}")
        if t < 0:
            raise NegativePatternError(f"pattern entry {t} is negative")
        pat.append(Fraction(t))
    if not sup:
        return ExceptionalSolution(capped, (), (), (), lattice.zero())
    coeffs = _solve_checked(lattice, sup, pat, capped)
    for idx, c, t in zip(sup, coeffs, pattern):
        # c below bound / e_i, compared in integers as c * e_i < bound
        bound = min(1, t) if capped else t
        if c.numerator * -lattice.gram[idx][idx] < bound * c.denominator:
            raise InvariantViolationError(
                "exceptional solution coefficient below its certified floor"
            )
    full = [Fraction(0)] * lattice.rank
    for idx, c in zip(sup, coeffs):
        full[idx] = c
    return ExceptionalSolution(
        capped, sup, tuple(coeffs), tuple(pat), DivisorClass(lattice, tuple(full))
    )


def _pattern_of(
    lattice: IntersectionLattice,
    decomposition: ZariskiDecomposition,
    a: DivisorClass,
) -> list[Fraction]:
    pat = []
    for i in decomposition.support:
        t = pair_with_basis(a, i)
        if t < 0:
            raise NotNNefError(
                f"divisor pairs negatively with support class {lattice.names[i]!r}"
            )
        pat.append(t)
    return pat


def _slope_parts(
    lattice: IntersectionLattice,
    decomposition: ZariskiDecomposition,
    a: DivisorClass,
) -> tuple[list[Fraction], Fraction, Fraction]:
    """Pattern of a on Supp(N), a.N, and the slope of a against N.

    The support is checked only when a.N is nonzero; otherwise the slope
    is zero without a solve.
    """
    _require_lattice(lattice, a)
    sup = decomposition.support
    pat = _pattern_of(lattice, decomposition, a)
    a_dot_n = sum(
        (g * t for g, t in zip(decomposition.gamma, pat)), Fraction(0)
    )
    if a_dot_n == 0:
        return pat, a_dot_n, Fraction(0)
    beta = _solve_checked(lattice, sup, pat, capped=True)
    denom = sum((b * t for b, t in zip(beta, pat)), Fraction(0))
    if denom <= 0:
        raise InvariantViolationError("capped pairing denominator is not positive")
    return pat, a_dot_n, a_dot_n / denom


def e_of_divisor_pair(
    lattice: IntersectionLattice,
    decomposition: ZariskiDecomposition,
    a: DivisorClass,
) -> Fraction:
    """Slope of a against N: (a.N) / (a.E) for the capped exceptional E.

    Zero when a.N = 0.  The denominator is certified positive whenever
    a.N is positive.
    """
    return _slope_parts(lattice, decomposition, a)[2]


def e_zero(decomposition: ZariskiDecomposition) -> Fraction:
    """Coarse diagonal bound: max over support of gamma_i times e_i."""
    lattice = decomposition.negative.lattice
    best = Fraction(0)
    for idx, g in zip(decomposition.support, decomposition.gamma):
        val = g * Fraction(-lattice.gram[idx][idx])
        if val > best:
            best = val
    return best


@dataclass(frozen=True)
class EInvariantResult:
    # e_sup always attains its value at a vertex: attained is always True and
    # witness_ray always None.  Both stay as public API and in the einv report.
    value: Fraction
    attained: bool
    witness_pattern: Optional[tuple[int, ...]]
    witness_ray: Optional[tuple[tuple[int, ...], int]]
    e_zero: Fraction


def e_sup(
    lattice: IntersectionLattice,
    decomposition: ZariskiDecomposition,
    max_support: int = 16,
) -> EInvariantResult:
    """Supremum of the slope over all nonzero nonnegative integer patterns.

    On a support subset sigma the slope is a ratio of two linear forms, so
    its extremes sit at the all-ones vertex of sigma and at the ray limits
    gamma_k / beta_k(sigma).  The support has off-diagonals >= 0 and is
    negative definite, so -G is a Stieltjes matrix and B = (-G)^-1 >= 0
    (Berman and Plemmons): beta_k(sigma) = sum_{j in sigma} B_kj >= B_kk,
    and with gamma >= 0 no ray beats the singleton vertex {k}.  So only the
    vertices are enumerated, exactly; a negative gamma_k is rejected first.
    The witness is the lexicographically smallest maximizing vertex.

    Each vertex value is at most its largest term ratio gamma_k / B_kk, and
    Cauchy-Schwarz for positive definite A = -G gives (A^-1)_kk A_kk >= 1,
    so the value is at most gamma_k e_k <= e_zero with no runtime check.
    """
    sup = decomposition.support
    s = len(sup)
    if s > max_support:
        raise SupportTooLargeError(
            f"support size {s} exceeds the cap {max_support}"
        )
    ez = e_zero(decomposition)
    if s == 0:
        return EInvariantResult(Fraction(0), True, (), None, ez)
    _check_off_diagonal(lattice, sup)
    gamma = decomposition.gamma
    for idx, g in zip(sup, gamma):
        if g < 0:
            raise ValidationError(
                f"negative part has coefficient {g} < 0 on {lattice.names[idx]!r}"
            )

    best = Fraction(0)
    vertex_hits: list[tuple[int, ...]] = []
    for mask in range(1, 1 << s):
        sigma = [k for k in range(s) if mask >> k & 1]
        vertex_pat = tuple(1 if k in sigma else 0 for k in range(s))
        sol = solve_against_gram(lattice, sup, [-v for v in vertex_pat])
        if sol is None:
            raise NotPseudoEffectiveError(_NOT_DEFINITE)
        num = sum((gamma[k] for k in sigma), Fraction(0))
        den = sum((sol.coeffs[sup[k]] for k in sigma), Fraction(0))
        if den <= 0:
            raise InvariantViolationError("vertex denominator is not positive")
        vval = num / den
        if vval > best:
            best = vval
            vertex_hits = [vertex_pat]
        elif vval == best:
            vertex_hits.append(vertex_pat)
    return EInvariantResult(best, True, min(vertex_hits), None, ez)


@dataclass(frozen=True)
class ESlackReport:
    e_value: Fraction
    a_dot_n: Fraction
    a_dot_uncapped: Fraction
    base_slack: Fraction
    fibre_multiple: Optional[int]
    scaled_slack: Optional[Fraction]


def verify_e_inequality(
    lattice: IntersectionLattice,
    decomposition: ZariskiDecomposition,
    a: DivisorClass,
    fibre_data: Optional[tuple[int, DivisorClass]] = None,
) -> ESlackReport:
    """Slack of the slope inequality, optionally in its scaled fibre form.

    base slack is e_A times (a paired with the uncapped exceptional class)
    minus a.N, always nonnegative.  When fibre_data = (n, F) is given, a is
    required to pair like n times F against every support class, and the
    slack scaled by 1/n is checked as well.
    """
    sup = decomposition.support
    pat, a_dot_n, e_val = _slope_parts(lattice, decomposition, a)
    if sup:
        b = _solve_checked(lattice, sup, pat, capped=False)
        a_unc = sum((bi * t for bi, t in zip(b, pat)), Fraction(0))
    else:
        a_unc = Fraction(0)
    base_slack = e_val * a_unc - a_dot_n
    if base_slack < 0:
        raise InvariantViolationError("slope inequality slack is negative")

    n_mult = None
    scaled = None
    if fibre_data is not None:
        n_mult, fibre = fibre_data
        if not isinstance(n_mult, int) or n_mult < 1:
            raise ValidationError("fibre multiple must be a positive integer")
        _require_lattice(lattice, fibre)
        for i, t in zip(sup, pat):
            fv = pair_with_basis(fibre, i)
            if fv < 0 or fv.denominator != 1:
                raise NotNEquivalentError(
                    "fibre class must pair like a fibre: nonnegative integers on the support"
                )
            if t != n_mult * fv:
                raise NotNEquivalentError(
                    "divisor does not pair like the stated fibre multiple on the support"
                )
        scaled = (e_val / n_mult) * a_unc - a_dot_n
        if scaled < 0:
            raise InvariantViolationError("scaled slope inequality slack is negative")
    return ESlackReport(e_val, a_dot_n, a_unc, base_slack, n_mult, scaled)


@dataclass(frozen=True)
class SquareInequality:
    lhs: Fraction
    terms: tuple[Fraction, Fraction, Fraction, Fraction]
    rhs: Fraction
    ok: bool
    equality: bool


def weighted_square_inequality(
    lattice: IntersectionLattice, m: DivisorClass, z: DivisorClass
) -> SquareInequality:
    """Slope-weighted square bound for the split D = M + Z.

    With e the slope of M against the negative part of D, evaluates

        (1 + e) P^2  >=  (1 + e) M^2 + M.Z + (1 + e) P.Z + e M.Z*

    exactly and reports each right-hand term.  M must pair nonnegatively
    with the support.
    """
    _require_lattice(lattice, m)
    _require_lattice(lattice, z)
    d = m + z
    dec = zariski_decompose(lattice, d)
    e_m = e_of_divisor_pair(lattice, dec, m)
    zs = star_lift(lattice, z, dec.support)
    p = dec.positive
    lhs = (1 + e_m) * pair(p, p)
    terms = (
        (1 + e_m) * pair(m, m),
        pair(m, z),
        (1 + e_m) * pair(p, z),
        e_m * pair(m, zs.lifted),
    )
    rhs = sum(terms, Fraction(0))
    return SquareInequality(lhs, terms, rhs, lhs >= rhs, lhs == rhs)
