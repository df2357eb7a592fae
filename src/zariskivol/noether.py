"""Volume lower bounds and structured audits.

Closed-form bound families are plain functions of small integer and
rational inputs.  The audits take an actual lattice workspace, recompute
every quantity exactly, evaluate the applicable bound, and report named
sub-checks plus the assumptions they relied on.  Audits report verdicts;
they raise only for malformed input, never for a bound that simply fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import (
    DTooSmallError,
    GenusCheckFailedError,
    H0TooSmallError,
    InconsistentTripleError,
    InvariantViolationError,
    IterationDivergedError,
    NegativeOffDiagonalError,
    NonIntegralMultipleError,
    NotFibreMultipleError,
    NotPseudoEffectiveError,
    PencilScenarioError,
    PmTooSmallError,
    SplitMismatchError,
    ValidationError,
)
from .invariants import e_of_divisor_pair, e_zero
from .lattice import (
    DivisorClass,
    IntersectionLattice,
    RationalLike,
    _require_lattice,
    arithmetic_genus,
    as_rational,
    off_diagonal_nonnegative,
    pair,
    pair_with_basis,
    solve_against_gram,
)
from .zariski import (
    ZariskiDecomposition,
    _fibre_kernel,
    is_nef_on,
    star_lift,
    zariski_decompose,
)


@dataclass(frozen=True)
class Scenario:
    """Facts about the geometry that the lattice alone cannot carry."""

    h0: int
    pencil: bool = False
    df: Optional[int] = None
    kappa_nonneg: Optional[bool] = None
    ruled: Optional[bool] = None
    minus_one_classes: tuple[str, ...] = ()


def validate_scenario(lattice: IntersectionLattice, scenario: Scenario) -> None:
    if not isinstance(scenario.h0, int) or scenario.h0 < 0:
        raise ValidationError("h0 must be a nonnegative integer")
    if scenario.df is not None:
        if not scenario.pencil:
            raise ValidationError("DF is only meaningful in a pencil scenario")
        if not isinstance(scenario.df, int) or scenario.df < 1:
            raise ValidationError("DF must be a positive integer")
    for label in scenario.minus_one_classes:
        idx = lattice.index(label)
        if lattice.gram[idx][idx] != -1:
            raise ValidationError(
                f"declared class {label!r} has self-intersection "
                f"{lattice.gram[idx][idx]}, expected -1"
            )


def pencil_bound(h0: int, e: RationalLike) -> Fraction:
    """(h0-1)^2 / (h0-1+e), the pencil-type volume lower bound."""
    if not isinstance(h0, int) or h0 < 2:
        raise H0TooSmallError(f"pencil bound needs h0 >= 2, got {h0!r}")
    ev = as_rational(e)
    if ev < 0:
        raise ValidationError("the slope invariant must be nonnegative")
    return Fraction((h0 - 1) ** 2) / (h0 - 1 + ev)


@dataclass(frozen=True)
class SurfaceBounds:
    """Bound family when the image of the map is a surface."""

    base: Fraction
    refined: Fraction
    nonruled_applies: bool
    nonruled_base: Optional[Fraction]
    nonruled_refined_weak: Optional[Fraction]
    nonruled_refined_strong: Optional[Fraction]


def surface_bounds(
    h0: int,
    e: RationalLike,
    kappa_nonneg: Optional[bool] = None,
    ruled: Optional[bool] = None,
) -> SurfaceBounds:
    """Volume bounds for non-pencil systems, with the non-ruled refinements.

    Two refined non-ruled variants circulate, subtracting (3+4e)/(1+e)
    resp. (1+2e)/(1+e) from 2*h0; both are reported, labeled weak and
    strong by their size, and no side is taken between them.
    """
    if not isinstance(h0, int) or h0 < 3:
        raise H0TooSmallError(f"surface bounds need h0 >= 3, got {h0!r}")
    ev = as_rational(e)
    if ev < 0:
        raise ValidationError("the slope invariant must be nonnegative")
    base = Fraction(h0 - 2)
    refined = h0 - (1 + 2 * ev) / (1 + ev)
    applies = kappa_nonneg is True or ruled is False
    if applies:
        nb = Fraction(2 * h0 - 4)
        weak = 2 * h0 - (3 + 4 * ev) / (1 + ev)
        strong = 2 * h0 - (1 + 2 * ev) / (1 + ev)
    else:
        nb = weak = strong = None
    return SurfaceBounds(base, refined, applies, nb, weak, strong)


@dataclass
class BoundReport:
    bound: Fraction
    volume: Fraction
    satisfied: bool
    equality: bool
    refined_bound: Optional[Fraction]
    checks: dict
    annotations: tuple[str, ...]
    assumptions: dict


def _split_and_decompose(lattice, d, m, z):
    for cls in (d, m, z):
        _require_lattice(lattice, cls)
    if m + z != d:
        raise SplitMismatchError("M + Z does not equal D")
    return zariski_decompose(lattice, d)


def _equality_case(volume, bound, m, z, dec) -> dict:
    """Lattice-checkable equality conditions: P^2 = bound, M = P, Z = N."""
    eq_case = {
        "numeric": volume == bound,
        "m_equals_p": m == dec.positive,
        "z_equals_n": z == dec.negative,
    }
    eq_case["certified"] = all(eq_case.values())
    return eq_case


def pencil_audit(
    lattice: IntersectionLattice,
    d: DivisorClass,
    m: DivisorClass,
    z: DivisorClass,
    scenario: Scenario,
    fibre: tuple[int, DivisorClass],
) -> BoundReport:
    """Audit a split D = M + Z whose moving part composes with a pencil.

    Recomputes the decomposition, the slope of M, the star lift of Z and
    the fibre pairings, then evaluates the pencil bound and every named
    sub-check exactly.
    """
    validate_scenario(lattice, scenario)
    if not scenario.pencil:
        raise PencilScenarioError("pencil audit requires a pencil scenario")
    h0 = scenario.h0
    if h0 < 2:
        raise H0TooSmallError(f"pencil audit needs h0 >= 2, got {h0}")
    n_mult, f = fibre
    if not isinstance(n_mult, int) or n_mult < 1:
        raise ValidationError("fibre multiple must be a positive integer")
    _require_lattice(lattice, f)
    dec = _split_and_decompose(lattice, d, m, z)

    diff = m - n_mult * f
    if all(pair_with_basis(diff, i) == 0 for i in range(lattice.rank)):
        scope = "full"
    elif all(pair_with_basis(diff, i) == 0 for i in dec.support):
        scope = "support_only"
    else:
        raise NotFibreMultipleError(
            "M does not pair like the stated fibre multiple, even against the support"
        )

    e_m = e_of_divisor_pair(lattice, dec, m)
    p_sq = pair(dec.positive, dec.positive)
    m_sq = pair(m, m)
    df_val = pair(d, f)
    if scenario.df is not None and Fraction(scenario.df) != df_val:
        raise ValidationError(
            f"scenario says D.F = {scenario.df} but the lattice gives {df_val}"
        )
    kernel = _fibre_kernel(dec, z, star_lift(lattice, z, dec.support).lifted, f)
    supports_equal = kernel["conditions"][2]

    annotations: list[str] = []
    checks: dict = {}

    rhs = (
        Fraction(n_mult**2, 1) / (n_mult + e_m) * df_val
        + Fraction(n_mult, 1) * e_m / (n_mult + e_m) * kernel["fz_star"]
        + kernel["pz"]
    )
    relation = "=" if p_sq == rhs else ("<" if p_sq < rhs else ">")
    checks["split_identity"] = {"rhs": rhs, "relation": relation}
    checks["fibre_kernel"] = kernel

    checks["degree_lower_bound"] = {
        "n": n_mult,
        "h0_minus_1": h0 - 1,
        "ok": n_mult >= h0 - 1,
        "equality": n_mult == h0 - 1,
    }
    if n_mult == h0 - 1:
        annotations.append("degree equality: the base curve of the pencil is rational")

    if m_sq == 0:
        free_bound = Fraction(n_mult**2, 1) / (n_mult + e_m)
        checks["base_point_free"] = {
            "bound": free_bound,
            "ok": p_sq >= free_bound,
            "equality": p_sq == free_bound,
            "df_is_one": df_val == 1,
            "supports_equal": supports_equal,
        }
        if p_sq == free_bound:
            annotations.append(
                "minimal volume case: needs degree one against the fibre and matching supports"
            )
        bound = pencil_bound(h0, e_m) * df_val
        refined = pencil_bound(h0, e_m)
    else:
        sq_bound = Fraction((h0 - 1) ** 2)
        checks["base_locus"] = {
            "m_squared": m_sq,
            "bound": sq_bound,
            "ok": m_sq >= sq_bound,
            "equality": m_sq == sq_bound,
        }
        bound = sq_bound
        refined = sq_bound + Fraction(1) / (1 + e_m)
        checks["equality_case"] = _equality_case(p_sq, bound, m, z, dec)
        if checks["equality_case"]["certified"]:
            annotations.append(
                "volume equality with M = P and Z = N: the base curve of the pencil is rational"
            )

    if is_nef_on(lattice, d):
        d_sq = pair(d, d)
        nef_bound = max(Fraction(h0 - 1) * df_val, Fraction(h0))
        checks["nef_degree"] = {
            "d_squared": d_sq,
            "bound": nef_bound,
            "ok": d_sq >= nef_bound,
        }

    return BoundReport(
        bound=bound,
        volume=p_sq,
        satisfied=p_sq >= bound,
        equality=p_sq == bound,
        refined_bound=refined,
        checks=checks,
        annotations=tuple(annotations),
        assumptions={
            "h0": h0,
            "pencil": True,
            "df": df_val,
            "fibre_multiple": n_mult,
            "fibre_equivalence": scope,
            "e_m": e_m,
            "m_squared": m_sq,
            "kappa_nonneg": scenario.kappa_nonneg,
            "ruled": scenario.ruled,
        },
    )


def surface_audit(
    lattice: IntersectionLattice,
    d: DivisorClass,
    m: DivisorClass,
    z: DivisorClass,
    scenario: Scenario,
) -> BoundReport:
    """Audit a split whose moving part maps onto a surface.

    Evaluates the base bound h0 - 2 (plus the non-ruled branch when the
    scenario allows it), reports the lattice-checkable equality conditions,
    and screens the declared (-1)-classes: the bound hypotheses need D to
    pair positively with each of them, and classes contracted by P while
    meeting N are listed.
    """
    validate_scenario(lattice, scenario)
    if scenario.pencil:
        raise PencilScenarioError("surface audit requires a non-pencil scenario")
    h0 = scenario.h0
    if h0 < 3:
        raise H0TooSmallError(f"surface audit needs h0 >= 3, got {h0}")
    dec = _split_and_decompose(lattice, d, m, z)
    vol = pair(dec.positive, dec.positive)
    e_m = e_of_divisor_pair(lattice, dec, m)

    annotations: list[str] = []
    checks: dict = {}

    family = surface_bounds(h0, e_m, scenario.kappa_nonneg, scenario.ruled)
    bound = family.base
    checks["equality_case"] = _equality_case(vol, bound, m, z, dec)
    if checks["equality_case"]["certified"]:
        annotations.append(
            "volume equality with M = P and Z = N: image is a surface of minimal degree"
        )

    if family.nonruled_applies:
        nr = {
            "bound": family.nonruled_base,
            "satisfied": vol >= family.nonruled_base,
            "equality": vol == family.nonruled_base,
            "refined_weak": family.nonruled_refined_weak,
            "refined_strong": family.nonruled_refined_strong,
        }
        checks["nonruled"] = nr
        if nr["equality"]:
            annotations.append(
                "doubled-bound equality: image of degree 2*h0-4 of K3 type, "
                "or a double cover of a rational surface of degree h0-2"
            )

    violations = []
    contracted = []
    for label in scenario.minus_one_classes:
        idx = lattice.index(label)
        if pair_with_basis(d, idx) <= 0:
            violations.append(label)
        if (
            pair_with_basis(dec.positive, idx) == 0
            and pair_with_basis(dec.negative, idx) > 0
        ):
            contracted.append(label)
    checks["exceptional_classes"] = {
        "declared": scenario.minus_one_classes,
        "violations": tuple(violations),
        "contracted": tuple(contracted),
        "ok": not violations,
    }
    if violations:
        annotations.append(
            "hypothesis violation: D does not pair positively with "
            + ", ".join(violations)
        )

    return BoundReport(
        bound=bound,
        volume=vol,
        satisfied=vol >= bound,
        equality=vol == bound,
        refined_bound=family.refined,
        checks=checks,
        annotations=tuple(annotations),
        assumptions={
            "h0": h0,
            "pencil": False,
            "e_m": e_m,
            "kappa_nonneg": scenario.kappa_nonneg,
            "ruled": scenario.ruled,
            "minus_one_classes": scenario.minus_one_classes,
        },
    )


@dataclass(frozen=True)
class ComponentCheck:
    label: str
    alpha: Fraction
    coefficient: Fraction
    alpha_within_coefficient: bool
    drop: Fraction
    drop_within_double: bool
    genus: Fraction
    genus_zero: bool


@dataclass(frozen=True)
class LogPairResult:
    alphas: tuple[Fraction, ...]
    steps: tuple[tuple[str, Fraction, str], ...]
    negative_part: DivisorClass
    decomposition: ZariskiDecomposition
    checks: tuple[ComponentCheck, ...]
    n: int
    e_zero_scaled: Fraction
    e_zero_cap: int


def log_pair_iterate(
    lattice: IntersectionLattice,
    k: DivisorClass,
    delta: Sequence[tuple[Union[str, int], RationalLike]],
    n: int,
) -> LogPairResult:
    """Peel the negative part of K + Delta one component at a time.

    Each step picks the lowest-index component the running class pairs
    negatively with and subtracts exactly enough of it to restore
    orthogonality.  When components of the eventual support meet each
    other this greedy walk converges only in the limit, so on the first
    revisited component whose step shrank the tail is completed exactly by
    solving the orthogonality system on everything visited so far; a
    revisit whose step did not shrink means the mass diverges and the pair
    is not pseudo-effective in the configuration.  The totals N are
    certified by the Zariski axioms, which determine the negative part
    uniquely (Bauer 2009): K + Delta - N pairs nonnegatively with every
    class and to 0 with Supp N, whose classes meet nonnegatively and
    which one elimination shows negative definite; N >= 0 by construction.
    """
    _require_lattice(lattice, k)
    if not isinstance(n, int) or n < 1:
        raise ValidationError("the multiple n must be a positive integer")
    positions: list[int] = []
    coefficients: list[Fraction] = []
    seen = set()
    for ref, a in delta:
        idx = lattice.index(ref) if isinstance(ref, str) else ref
        if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < lattice.rank:
            raise ValidationError(f"bad component reference {ref!r}")
        if idx in seen:
            raise ValidationError(
                f"component {lattice.names[idx]!r} listed twice"
            )
        seen.add(idx)
        av = as_rational(a)
        if not 0 < av <= 1:
            raise ValidationError(
                f"coefficient of {lattice.names[idx]!r} must lie in (0, 1], got {av}"
            )
        positions.append(idx)
        coefficients.append(av)

    kd = k
    for idx, av in zip(positions, coefficients):
        kd = kd + av * lattice.basis(idx)
    for c in (n * kd).coeffs:
        if c.denominator != 1:
            raise NonIntegralMultipleError(
                f"n (K + Delta) is not integral: coefficient {c} at n = {n}"
            )

    r = len(positions)
    acc = [Fraction(0)] * r
    last_alpha: dict[int, Fraction] = {}
    visited: list[int] = []
    steps: list[tuple[str, Fraction, str]] = []
    current = kd
    guard = 0
    while True:
        guard += 1
        if guard > 4 * (r + 1) ** 2 + 8:
            raise IterationDivergedError("iteration failed to settle")
        pos = None
        for p in range(r):
            if pair_with_basis(current, positions[p]) < 0:
                pos = p
                break
        if pos is None:
            break
        idx = positions[pos]
        c_sq = lattice.gram[idx][idx]
        if c_sq >= 0:
            raise IterationDivergedError(
                f"component {lattice.names[idx]!r} has nonnegative self-intersection"
            )
        alpha = pair_with_basis(current, idx) / c_sq
        if pos in last_alpha:
            if alpha >= last_alpha[pos]:
                raise IterationDivergedError(
                    f"step on {lattice.names[idx]!r} grew from "
                    f"{last_alpha[pos]} to {alpha}"
                )
            sup = sorted(positions[p] for p in visited)
            targets = [pair_with_basis(kd, i) for i in sup]
            solved = solve_against_gram(lattice, sup, targets)
            if solved is None:
                raise NotPseudoEffectiveError(
                    "visited components do not span a negative definite subset"
                )
            for p in visited:
                total = solved.coeffs[positions[p]]
                if total < acc[p]:
                    raise NotPseudoEffectiveError(
                        "exact completion fell below the accumulated total"
                    )
                inc = total - acc[p]
                if inc != 0:
                    steps.append((lattice.names[positions[p]], inc, "batch"))
                acc[p] = total
            current = kd
            for p in range(r):
                if acc[p] != 0:
                    current = current - acc[p] * lattice.basis(positions[p])
            last_alpha.clear()
            continue
        last_alpha[pos] = alpha
        if pos not in visited:
            visited.append(pos)
        acc[pos] += alpha
        current = current - alpha * lattice.basis(idx)
        steps.append((lattice.names[idx], alpha, "single"))

    negative = lattice.zero()
    for p in range(r):
        if acc[p] != 0:
            negative = negative + acc[p] * lattice.basis(positions[p])
    positive = kd - negative
    support = negative.support()
    labels = [lattice.names[i] for i in support]
    for i in range(lattice.rank):
        t = pair_with_basis(positive, i)
        if t < 0 or (t > 0 and i in support):
            raise InvariantViolationError(
                f"K + Delta - N pairs to {t} with {lattice.names[i]!r}; it must pair "
                "nonnegatively with every class and to 0 with the support"
            )
    if not off_diagonal_nonnegative(lattice, support):
        raise NegativeOffDiagonalError(f"classes of the support {labels} pair negatively")
    # only the verdict is needed: the elimination proves definiteness
    if support and solve_against_gram(lattice, support, [0] * len(support)) is None:
        raise NotPseudoEffectiveError(f"support {labels} is not negative definite")
    dec = ZariskiDecomposition(
        positive, negative, support, tuple(negative.coeffs[i] for i in support)
    )

    comp_checks: list[ComponentCheck] = []
    for p in range(r):
        if acc[p] == 0:
            continue
        idx = positions[p]
        a_p = coefficients[p]
        drop = acc[p] * Fraction(-lattice.gram[idx][idx])
        genus = arithmetic_genus(lattice, k, idx)
        check = ComponentCheck(
            label=lattice.names[idx],
            alpha=acc[p],
            coefficient=a_p,
            alpha_within_coefficient=acc[p] <= a_p,
            drop=drop,
            drop_within_double=drop <= 2 * a_p,
            genus=genus,
            genus_zero=genus == 0,
        )
        if not check.genus_zero:
            raise GenusCheckFailedError(
                f"component {check.label!r} has arithmetic genus {genus}, expected 0"
            )
        if not check.alpha_within_coefficient or not check.drop_within_double:
            raise InvariantViolationError(
                f"component {check.label!r} violates the coefficient bounds "
                f"(alpha = {acc[p]}, a = {a_p})"
            )
        comp_checks.append(check)

    ez_scaled = n * e_zero(dec)
    cap = 2 * n
    if ez_scaled > cap:
        raise InvariantViolationError(
            f"diagonal bound {ez_scaled} exceeds the cap {cap}"
        )
    return LogPairResult(
        alphas=tuple(acc),
        steps=tuple(steps),
        negative_part=negative,
        decomposition=dec,
        checks=tuple(comp_checks),
        n=n,
        e_zero_scaled=ez_scaled,
        e_zero_cap=cap,
    )


def _multiple_bound(pm: int, m: int, pencil: bool, kappa_nonneg: bool, cap: int) -> Fraction:
    # cap is the slope cap of the scaled negative part, which enters only
    # the pencil denominator.
    if not isinstance(m, int) or m < 1:
        raise ValidationError("m must be a positive integer")
    if pencil:
        if not isinstance(pm, int) or pm < 2:
            raise PmTooSmallError(f"pencil case needs pm >= 2, got {pm!r}")
        return Fraction((pm - 1) ** 2) / (m**2 * (pm - 1 + cap))
    if not isinstance(pm, int) or pm < 3:
        raise PmTooSmallError(f"non-pencil case needs pm >= 3, got {pm!r}")
    if kappa_nonneg:
        return Fraction(2 * pm - 4, m**2)
    return Fraction(pm - 2, m**2)


def log_pair_bounds(
    pm: int, m: int, pencil: bool, kappa_nonneg: bool = False
) -> Fraction:
    """Closed-form volume bound for multiples of a log canonical class.

    The pencil form uses the slope cap 2m of the scaled log negative part.
    """
    return _multiple_bound(pm, m, pencil, kappa_nonneg, 2 * m)


def foliation_bounds(
    pm: int, m: int, pencil: bool, kappa_nonneg: bool = False
) -> Fraction:
    """Closed-form volume bound for multiples of a foliated canonical class.

    The pencil form bakes in the sharp slope cap for scaled chain
    assemblies, which is the scale m itself.
    """
    return _multiple_bound(pm, m, pencil, kappa_nonneg, m)


def ps_index_bound(lam: RationalLike) -> Fraction:
    """1 / (lam^2 (1 + lam)): the pencil bound at h0 = 2 divided by lam^2."""
    lv = as_rational(lam)
    if lv <= 0:
        raise ValidationError("the index parameter must be positive")
    return Fraction(1) / (lv**2 * (1 + lv))


@dataclass(frozen=True)
class CliffordReport:
    branch: str
    degree_bound_tight: bool
    rational_base: bool


def clifford_check(deg: int, h0: int, genus: int) -> CliffordReport:
    """Validate a (degree, sections, genus) triple for a curve divisor.

    Above the canonical degree the section count is forced exactly; in the
    special range it obeys the classical halving bound; degree zero allows
    only the trivial section.  In all cases deg >= h0 - 1, and tightness
    with deg >= 1 forces genus zero.
    """
    for name, v in (("deg", deg), ("h0", h0), ("genus", genus)):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValidationError(f"{name} must be an integer, got {v!r}")
    if deg < 0 or genus < 0 or h0 < 1:
        raise ValidationError("need deg >= 0, genus >= 0, h0 >= 1")
    if deg > 2 * genus - 2:
        expected = deg - genus + 1
        if h0 != expected:
            raise InconsistentTripleError(
                f"degree {deg} above the canonical range forces h0 = {expected}, got {h0}"
            )
        branch = "nonspecial"
    elif deg > 0:
        if Fraction(h0) > Fraction(deg, 2) + 1:
            raise InconsistentTripleError(
                f"special divisor of degree {deg} allows at most h0 = {Fraction(deg, 2) + 1}"
            )
        branch = "special"
    else:
        if h0 != 1:
            raise InconsistentTripleError(
                f"degree zero allows only h0 = 1, got {h0}"
            )
        branch = "degree_zero"
    if deg < h0 - 1:
        raise InconsistentTripleError(
            f"deg = {deg} is below h0 - 1 = {h0 - 1}"
        )
    tight = deg == h0 - 1
    return CliffordReport(branch, tight, tight and deg >= 1)


@dataclass(frozen=True)
class CatalogEntry:
    case_id: int
    d: int
    surface: str
    e: Optional[int]
    m0_description: str
    m0_squared: int


# The catalog has about d / 2 entries, so time and output grow linearly
# in d; this keeps a run well under a second.
CATALOG_MAX_D = 10_000


def catalog_degree_dminus1(d: int) -> tuple[CatalogEntry, ...]:
    """All model classes of self-intersection d - 1 on the listed surfaces.

    Squares come from the closed forms (mL)^2 = m^2 on P2 and
    (C + fF)^2 = 2f - e on F_e, in integers.  d runs from 2 to
    CATALOG_MAX_D.
    """
    if not isinstance(d, int) or d < 2:
        raise DTooSmallError(f"catalog starts at d = 2, got {d!r}")
    if d > CATALOG_MAX_D:
        raise ValidationError(f"catalog stops at d = {CATALOG_MAX_D}, got {d}")
    entries: list[CatalogEntry] = []

    def plane_entry(case_id: int, mult: int) -> CatalogEntry:
        desc = "L" if mult == 1 else f"{mult}L"
        return CatalogEntry(case_id, d, "P2", None, desc, mult * mult)

    def ruled_entry(case_id: int, e: int, fmult: int) -> CatalogEntry:
        return CatalogEntry(case_id, d, f"F{e}", e, f"C + {fmult}F", 2 * fmult - e)

    if d == 2:
        entries.append(plane_entry(1, 1))
    if d == 5:
        entries.append(plane_entry(2, 2))
    for e in range((d - 3) % 2, d - 2, 2):
        entries.append(ruled_entry(3, e, (d + e - 1) // 2))
    if d >= 3:
        entries.append(ruled_entry(4, d - 1, d - 1))
    return tuple(entries)
