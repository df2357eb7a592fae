from fractions import Fraction

import pytest

from zariskivol import build_lattice, chain_spec, divisor, foliation_negative_part
from zariskivol.errors import (
    NegativePatternError,
    NotNEquivalentError,
    NotNNefError,
    SupportTooLargeError,
    ValidationError,
)
from zariskivol.invariants import (
    e_of_divisor_pair,
    e_sup,
    e_zero,
    exceptional_solution,
    verify_e_inequality,
    weighted_square_inequality,
)
from zariskivol.lattice import DivisorClass, solve_against_gram
from zariskivol.zariski import ZariskiDecomposition, zariski_decompose

from generators import random_config, random_split
from oracles import negdef_minors, slope_grid_max, solve_frac


@pytest.fixture
def chain_base(chain22):
    dec = zariski_decompose(chain22, divisor(chain22, (1, 1)))
    return chain22, dec


def test_exceptional_solution_capped(chain_base):
    lattice, dec = chain_base
    assert dec.gamma == (1, 1)
    sol = exceptional_solution(lattice, dec, (2, 0))
    assert sol.capped
    assert sol.coeffs == (Fraction(2, 3), Fraction(1, 3))
    assert sol.pattern == (2, 0)
    assert sol.divisor.coeffs == (Fraction(2, 3), Fraction(1, 3))


def test_exceptional_solution_uncapped(chain_base):
    lattice, dec = chain_base
    sol = exceptional_solution(lattice, dec, (2, 0), capped=False)
    assert sol.coeffs == (Fraction(4, 3), Fraction(2, 3))


def test_exceptional_solution_validation(chain_base):
    lattice, dec = chain_base
    with pytest.raises(ValidationError):
        exceptional_solution(lattice, dec, (1,))
    with pytest.raises(NegativePatternError):
        exceptional_solution(lattice, dec, (-1, 0))
    with pytest.raises(ValidationError):
        exceptional_solution(lattice, dec, (True, 0))
    with pytest.raises(ValidationError):
        exceptional_solution(lattice, dec, ("1", 0))


def test_exceptional_solution_empty_support(disjoint_chain):
    dec = zariski_decompose(disjoint_chain, divisor(disjoint_chain, (1, 0, 0)))
    sol = exceptional_solution(disjoint_chain, dec, ())
    assert sol.divisor.is_zero()
    assert sol.support == ()


def test_exceptional_floors_hold(rng):
    checked = 0
    for _ in range(200):
        lattice, d = random_config(rng)
        try:
            dec = zariski_decompose(lattice, d)
        except Exception:
            continue
        if not dec.support:
            continue
        pattern = tuple(rng.randint(0, 3) for _ in dec.support)
        for capped in (True, False):
            sol = exceptional_solution(lattice, dec, pattern, capped=capped)
            for t, c in zip(pattern, sol.coeffs):
                if t > 0:
                    assert c > 0
        checked += 1
    assert checked >= 40


def test_slope_of_divisor_golden(golden):
    lattice, divs = golden
    dec = zariski_decompose(lattice, divs["D"])
    assert e_of_divisor_pair(lattice, dec, divs["M"]) == 0
    probe = divisor(lattice, (2, 1, 0))
    assert e_of_divisor_pair(lattice, dec, probe) == 1
    with pytest.raises(NotNNefError):
        e_of_divisor_pair(lattice, dec, divs["D"])


def test_e_zero_values(golden):
    lattice, divs = golden
    dec = zariski_decompose(lattice, divs["D"])
    assert e_zero(dec) == 1

    chain = build_lattice(("C1", "C2"), ((-2, 1), (1, -2)))
    cdec = zariski_decompose(chain, divisor(chain, ("2/3", "1/3")))
    assert cdec.gamma == (Fraction(2, 3), Fraction(1, 3))
    assert e_zero(cdec) == Fraction(4, 3)


def test_e_sup_on_chain():
    chain = build_lattice(("C1", "C2"), ((-2, 1), (1, -2)))
    dec = zariski_decompose(chain, divisor(chain, ("2/3", "1/3")))
    res = e_sup(chain, dec)
    assert res.value == 1
    assert res.attained
    assert res.witness_pattern == (1, 0)
    assert res.witness_ray is None
    assert res.e_zero == Fraction(4, 3)


def test_e_sup_singleton_equals_diagonal_bound(golden):
    lattice, divs = golden
    dec = zariski_decompose(lattice, divs["D"])
    res = e_sup(lattice, dec)
    assert res.value == res.e_zero == 1
    assert res.witness_pattern == (1,)


def test_e_sup_empty_support(disjoint_chain):
    dec = zariski_decompose(disjoint_chain, divisor(disjoint_chain, (1, 0, 0)))
    res = e_sup(disjoint_chain, dec)
    assert res.value == 0
    assert res.attained
    assert res.witness_pattern == ()


def test_e_sup_support_cap():
    chain = build_lattice(("C1", "C2"), ((-2, 1), (1, -2)))
    dec = zariski_decompose(chain, divisor(chain, (1, 1)))
    with pytest.raises(SupportTooLargeError):
        e_sup(chain, dec, max_support=1)


def test_e_sup_rejects_a_negative_gamma_naming_the_curve():
    chain = build_lattice(("C1", "C2"), ((-2, 1), (1, -2)))
    gamma = (Fraction(-1), Fraction(-1, 2))
    dec = ZariskiDecomposition(chain.zero(), DivisorClass(chain, gamma), (0, 1), gamma)
    with pytest.raises(ValidationError, match="'C1'"):
        e_sup(chain, dec)
    mixed = (Fraction(1, 2), Fraction(-1, 3))
    dec = ZariskiDecomposition(chain.zero(), DivisorClass(chain, mixed), (0, 1), mixed)
    with pytest.raises(ValidationError, match="'C2'"):
        e_sup(chain, dec)


def test_e_sup_allows_a_zero_gamma():
    chain = build_lattice(("C1", "C2"), ((-2, 1), (1, -2)))
    gamma = (Fraction(0), Fraction(0))
    dec = ZariskiDecomposition(chain.zero(), DivisorClass(chain, gamma), (0, 1), gamma)
    res = e_sup(chain, dec)
    assert res.value == 0
    assert res.witness_pattern == (0, 1)


def test_e_sup_against_grid_oracle(rng):
    checked = 0
    for _ in range(300):
        lattice, d = random_config(rng)
        try:
            dec = zariski_decompose(lattice, d)
        except Exception:
            continue
        if not 1 <= len(dec.support) <= 3:
            continue
        res = e_sup(lattice, dec)
        gram = [list(row) for row in lattice.gram]
        grid = slope_grid_max(gram, list(dec.support), list(dec.gamma))
        assert grid <= res.value <= res.e_zero
        if res.attained:
            assert grid == res.value
        checked += 1
    assert checked >= 40


def _stieltjes_negative_part(rng, s):
    """Negative definite support with off-diagonals >= 0 and random gamma >= 0."""
    while True:
        gram = [[0] * s for _ in range(s)]
        for i in range(s):
            for j in range(i + 1, s):
                gram[i][j] = gram[j][i] = rng.choice((0, 0, 0, 1, 1, 2))
        for i in range(s):
            # near the diagonal-dominance edge, so some draws fail the test
            gram[i][i] = -max(1, sum(gram[i]) + rng.randint(-1, 2))
        if negdef_minors(gram):
            break
    lattice = build_lattice(tuple(f"C{i}" for i in range(s)), gram)
    gamma = tuple(Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(s))
    negative = DivisorClass(lattice, gamma)
    return lattice, ZariskiDecomposition(lattice.zero(), negative, tuple(range(s)), gamma)


def test_e_sup_matches_stieltjes_closed_form(rng):
    """e_sup = max_k gamma_k / B_kk with B = (-G)^-1, attained at a singleton.

    -G is a Stieltjes matrix, so B >= 0 entrywise and every candidate of
    the enumeration is at most that maximum (mediant inequality).
    """
    cases = [_stieltjes_negative_part(rng, 1 + k % 8) for k in range(200)]
    for _ in range(40):
        lengths = [rng.randint(1, 4) for _ in range(rng.randint(1, 2))]
        specs = [chain_spec([rng.randint(2, 5) for _ in range(r)]) for r in lengths]
        cases.append(foliation_negative_part(specs))
    for lattice, dec in cases:
        s = len(dec.support)
        neg_gram = [[-lattice.gram[i][j] for j in dec.support] for i in dec.support]
        ratios = [
            g / solve_frac(neg_gram, [int(j == k) for j in range(s)])[k]
            for k, g in enumerate(dec.gamma)
        ]
        best = max(ratios)
        k_star = max(k for k, r in enumerate(ratios) if r == best)
        res = e_sup(lattice, dec)
        assert res.value == best
        assert res.witness_pattern == tuple(int(j == k_star) for j in range(s))
        assert res.attained and res.witness_ray is None


def test_verify_slope_inequality_golden(golden):
    lattice, divs = golden
    dec = zariski_decompose(lattice, divs["D"])
    probe = divisor(lattice, (2, 1, 0))
    report = verify_e_inequality(lattice, dec, probe)
    assert report.e_value == 1
    assert report.a_dot_n == Fraction(1, 2)
    assert report.a_dot_uncapped == Fraction(1, 2)
    assert report.base_slack == 0
    assert report.fibre_multiple is None
    assert report.scaled_slack is None

    scaled = verify_e_inequality(lattice, dec, probe, fibre_data=(1, probe))
    assert scaled.fibre_multiple == 1
    assert scaled.scaled_slack == 0


def test_verify_slope_inequality_fibre_mismatch(golden):
    lattice, divs = golden
    dec = zariski_decompose(lattice, divs["D"])
    probe = divisor(lattice, (2, 1, 0))
    with pytest.raises(NotNEquivalentError):
        verify_e_inequality(lattice, dec, probe, fibre_data=(1, divs["M"]))
    half = divisor(lattice, (1, "1/2", 0))
    with pytest.raises(NotNEquivalentError):
        verify_e_inequality(lattice, dec, probe, fibre_data=(2, half))
    with pytest.raises(NotNEquivalentError):
        verify_e_inequality(lattice, dec, probe, fibre_data=(1, divs["D"]))
    with pytest.raises(ValidationError):
        verify_e_inequality(lattice, dec, probe, fibre_data=(0, probe))


def test_verify_slope_inequality_random(rng):
    checked = 0
    for _ in range(400):
        lattice, d = random_config(rng)
        try:
            dec = zariski_decompose(lattice, d)
        except Exception:
            continue
        if not dec.support:
            continue
        pattern = [rng.randint(0, 6) for _ in dec.support]
        if not any(pattern):
            continue
        a = solve_against_gram(lattice, dec.support, pattern)
        report = verify_e_inequality(lattice, dec, a)
        assert report.base_slack >= 0
        assert report.e_value <= e_zero(dec)
        checked += 1
    assert checked >= 50


def test_weighted_square_golden(golden):
    lattice, divs = golden
    res = weighted_square_inequality(lattice, divs["M"], divs["Z"])
    assert res.lhs == Fraction(13, 2)
    assert res.terms == (4, 2, Fraction(1, 2), 0)
    assert res.ok and res.equality


def test_weighted_square_random_splits(rng):
    for _ in range(40):
        lattice, d, m, z = random_split(rng)
        res = weighted_square_inequality(lattice, m, z)
        assert res.ok
        assert res.lhs >= res.rhs
