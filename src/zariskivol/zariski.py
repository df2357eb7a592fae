"""Zariski decomposition relative to a declared configuration.

"Nef" and "pseudo-effective" here always mean: against the finitely many
classes of the given lattice.  The decomposition writes D = P + N with P
pairing nonnegatively with every class, N effective and supported on a
negative definite subset, and P orthogonal to every class in that subset.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import (
    NegativeOffDiagonalError,
    NotPseudoEffectiveError,
    SplitMismatchError,
    ValidationError,
)
from .lattice import (
    DivisorClass,
    IntersectionLattice,
    _require_lattice,
    normalize_support,
    off_diagonal_nonnegative,
    pair,
    pair_with_basis,
    solve_against_gram,
)


@dataclass(frozen=True)
class ZariskiDecomposition:
    positive: DivisorClass
    negative: DivisorClass
    support: tuple[int, ...]
    gamma: tuple[Fraction, ...]


def is_nef_on(lattice: IntersectionLattice, d: DivisorClass) -> bool:
    """True when d pairs nonnegatively with every basis class."""
    _require_lattice(lattice, d)
    return all(pair_with_basis(d, i) >= 0 for i in range(lattice.rank))


def zariski_decompose(lattice: IntersectionLattice, d: DivisorClass) -> ZariskiDecomposition:
    """Compute D = P + N by growing the candidate support.

    Start from the classes D pairs negatively with, solve for the unique N
    on that subset making P = D - N orthogonal to it, then add any classes
    P still pairs negatively with and repeat.  The subset grows strictly,
    so at most rank many rounds happen.  Failure of negative definiteness
    or a negative solution coefficient means D has no decomposition within
    this configuration.
    """
    _require_lattice(lattice, d)
    support = {i for i in range(lattice.rank) if pair_with_basis(d, i) < 0}
    while True:
        if not support:
            return ZariskiDecomposition(d, lattice.zero(), (), ())
        sup = normalize_support(lattice, support)
        targets = [pair_with_basis(d, i) for i in sup]
        negative = solve_against_gram(lattice, sup, targets)
        if negative is None:
            raise NotPseudoEffectiveError(
                "candidate support {} is not negative definite".format(
                    [lattice.names[i] for i in sup]
                )
            )
        if any(negative.coeffs[i] < 0 for i in sup):
            raise NotPseudoEffectiveError(
                "solution on support {} has a negative coefficient".format(
                    [lattice.names[i] for i in sup]
                )
            )
        positive = d - negative
        grown = {
            i
            for i in range(lattice.rank)
            if i not in support and pair_with_basis(positive, i) < 0
        }
        if not grown:
            if not off_diagonal_nonnegative(lattice, sup):
                raise NegativeOffDiagonalError(
                    "classes on the final support pair negatively with each other"
                )
            final = tuple(i for i in sup if negative.coeffs[i] > 0)
            gamma = tuple(negative.coeffs[i] for i in final)
            return ZariskiDecomposition(positive, negative, final, gamma)
        support |= grown


def volume(lattice: IntersectionLattice, d: DivisorClass) -> Fraction:
    """Self-intersection of the positive part."""
    dec = zariski_decompose(lattice, d)
    return pair(dec.positive, dec.positive)


def is_big(lattice: IntersectionLattice, d: DivisorClass) -> bool:
    return volume(lattice, d) > 0


@dataclass(frozen=True)
class StarLift:
    base: DivisorClass
    lifted: DivisorClass
    support: tuple[int, ...]
    correction: tuple[Fraction, ...]


def star_lift(lattice: IntersectionLattice, base: DivisorClass, n_support) -> StarLift:
    """Add a combination of the support classes to kill all pairings with them.

    Returns base plus the unique correction supported on the subset such
    that the lifted class is orthogonal to every class of the subset.  The
    subset must be negative definite, as the support of a negative part is.
    """
    _require_lattice(lattice, base)
    sup = normalize_support(lattice, n_support)
    if not sup:
        return StarLift(base, base, (), ())
    targets = [-pair_with_basis(base, i) for i in sup]
    corr = solve_against_gram(lattice, sup, targets)
    if corr is None:
        raise ValidationError(
            "star lift support {} is not negative definite".format(
                [lattice.names[i] for i in sup]
            )
        )
    lifted = base + corr
    return StarLift(base, lifted, sup, tuple(corr.coeffs[i] for i in sup))


def _fibre_kernel(
    dec: ZariskiDecomposition, z: DivisorClass, z_star: DivisorClass, fibre: DivisorClass
) -> dict:
    """F.Z*, P.Z, and the conditions F.Z* = 0, Z* = 0 and Supp Z = Supp N."""
    fz_star = pair(fibre, z_star)
    pz = pair(dec.positive, z)
    conds = (fz_star == 0, z_star.is_zero(), set(dec.support) == set(z.support()))
    return {
        "fz_star": fz_star,
        "conditions": conds,
        "all_equal": conds[0] == conds[1] == conds[2],
        "pz": pz,
        "pz_zero": pz == 0,
    }


@dataclass(frozen=True)
class IdentityReport:
    """Exact evaluation of the star-lift inequalities for a split D = M + Z."""

    decomposition: ZariskiDecomposition
    m_star: StarLift
    z_star: StarLift
    m_nef: bool
    z_effective: bool
    z_dominates_zstar: bool
    zstar_effective: bool
    mstar_dominates_lower: bool
    splits_positive: bool
    squares: tuple[Fraction, Fraction, Fraction, Fraction]
    square_chain_ok: bool
    triple: tuple[bool, bool, bool]
    triple_consistent: bool
    fibre_checks: Optional[dict] = field(default=None)


def decomposition_identities(
    lattice: IntersectionLattice,
    d: DivisorClass,
    m: DivisorClass,
    z: DivisorClass,
    fibre: Optional[DivisorClass] = None,
) -> IdentityReport:
    """Check the componentwise and square inequalities of a split D = M + Z.

    The squares tuple is (P^2, lifted-M squared, M^2 plus the pairing
    correction sum, M^2) and square_chain_ok says the chain is descending.
    The triple records (P^2 == M^2, M.Z == 0, M == P and Z == N); on
    surface-like configurations these agree.
    """
    for cls in (d, m, z):
        _require_lattice(lattice, cls)
    if m + z != d:
        raise SplitMismatchError("M + Z does not equal D")
    dec = zariski_decompose(lattice, d)
    m_nef = is_nef_on(lattice, m)
    if not m_nef:
        warnings.warn("M is not nef on the configuration", stacklevel=2)
    z_effective = z.is_effective()
    if not z_effective:
        warnings.warn("Z is not effective", stacklevel=2)

    ms = star_lift(lattice, m, dec.support)
    zs = star_lift(lattice, z, dec.support)

    z_dom = all(za >= zb for za, zb in zip(z.coeffs, zs.lifted.coeffs))
    zstar_eff = zs.lifted.is_effective()

    lower = m
    for i in dec.support:
        e_i = Fraction(-lattice.gram[i][i])
        lower = lower + (pair_with_basis(m, i) / e_i) * lattice.basis(i)
    mstar_dom = all(a >= b for a, b in zip(ms.lifted.coeffs, lower.coeffs))
    splits_positive = ms.lifted + zs.lifted == dec.positive

    p_sq = pair(dec.positive, dec.positive)
    ms_sq = pair(ms.lifted, ms.lifted)
    m_sq = pair(m, m)
    mid = m_sq + sum(
        (
            pair_with_basis(m, i) ** 2 / Fraction(-lattice.gram[i][i])
            for i in dec.support
        ),
        Fraction(0),
    )
    chain_ok = p_sq >= ms_sq >= mid >= m_sq

    mz = pair(m, z)
    triple = (
        p_sq == m_sq,
        mz == 0,
        m == dec.positive and z == dec.negative,
    )
    consistent = triple[0] == triple[1] == triple[2]

    fibre_checks = None
    if fibre is not None:
        _require_lattice(lattice, fibre)
        fibre_checks = _fibre_kernel(dec, z, zs.lifted, fibre)

    return IdentityReport(
        decomposition=dec,
        m_star=ms,
        z_star=zs,
        m_nef=m_nef,
        z_effective=z_effective,
        z_dominates_zstar=z_dom,
        zstar_effective=zstar_eff,
        mstar_dominates_lower=mstar_dom,
        splits_positive=splits_positive,
        squares=(p_sq, ms_sq, mid, m_sq),
        square_chain_ok=chain_ok,
        triple=triple,
        triple_consistent=consistent,
        fibre_checks=fibre_checks,
    )
