import random
from fractions import Fraction
from itertools import product

import pytest

from zariskivol import chains
from zariskivol.chains import (
    chain_exceptional,
    chain_spec,
    classify_chain_equality,
    foliation_e,
    foliation_negative_part,
    hj_determinant,
)
from zariskivol.errors import InvalidChainError, InvariantViolationError, ValidationError
from zariskivol.invariants import e_sup
from zariskivol.zariski import ZariskiDecomposition

from oracles import cf_value, chain_gamma_oracle


@pytest.mark.parametrize(
    "seq, expected",
    [((), 1), ((2,), 2), ((2, 2), 3), ((2, 2, 2), 4), ((3, 2), 5), ((2, 3), 5), ((3, 3), 8)],
)
def test_hj_determinant_values(seq, expected):
    assert hj_determinant(seq) == expected


def test_hj_determinant_matches_continued_fraction():
    for r in (1, 2, 3):
        for seq in product((2, 3, 4, 5), repeat=r):
            assert hj_determinant(seq) == cf_value(seq).numerator


def test_hj_determinant_below_two_warns():
    with pytest.warns(UserWarning):
        assert hj_determinant((1, 2)) == 1


def test_hj_determinant_rejects_non_integers():
    with pytest.raises(ValidationError):
        hj_determinant((2, True))
    with pytest.raises(ValidationError):
        hj_determinant((2.0, 2))


def test_chain_spec_two_two():
    spec = chain_spec((2, 2))
    assert spec.n == 3
    assert spec.lambdas == (2, 1)
    assert spec.gamma == (Fraction(2, 3), Fraction(1, 3))
    assert spec.lattice.names == ("C1", "C2")
    assert spec.lattice.gram == ((-2, 1), (1, -2))
    dec = spec.negative_part()
    assert dec.support == (0, 1)
    assert dec.gamma == spec.gamma
    assert dec.positive.is_zero()


def test_chain_spec_label_prefix():
    spec = chain_spec((3,), label_prefix="X")
    assert spec.lattice.names == ("X1",)
    assert spec.gamma == (Fraction(1, 3),)


@pytest.mark.parametrize("seq", [(), (1, 2), (2, 0), (2, True), (2, "3")])
def test_chain_spec_rejects_bad_sequences(seq):
    with pytest.raises(InvalidChainError):
        chain_spec(seq)


def test_chain_gamma_matches_tridiagonal_solve():
    for r in (1, 2, 3):
        for seq in product((2, 3, 4, 5), repeat=r):
            spec = chain_spec(seq)
            assert list(spec.gamma) == chain_gamma_oracle(seq)
            assert spec.n == cf_value(seq).numerator


@pytest.mark.parametrize(
    "certified", [chain_spec, hj_determinant], ids=["chain_spec", "hj_determinant"]
)
def test_chain_spec_rejects_wrong_suffix_determinants(monkeypatch, certified):
    # Strictly decreasing and ending in 1, so only the residual of the
    # tridiagonal system can tell that these are not the determinants of (2, 2).
    monkeypatch.setattr(chains, "_suffix_determinants", lambda seq: [4, 2, 1])
    with pytest.raises(InvariantViolationError):
        certified((2, 2))


def test_chain_gamma_strictly_decreasing():
    for seq in ((2, 2, 2, 2), (5, 4, 3, 2), (2, 5, 2, 5)):
        spec = chain_spec(seq)
        assert all(a > b for a, b in zip(spec.gamma, spec.gamma[1:]))
        assert all(0 < g < 1 for g in spec.gamma)


def test_chain_exceptional_solution():
    spec = chain_spec((2, 2))
    sol = chain_exceptional(spec, (2, 0))
    assert sol.coeffs == (Fraction(2, 3), Fraction(1, 3))
    loose = chain_exceptional(spec, (2, 0), capped=False)
    assert loose.coeffs == (Fraction(4, 3), Fraction(2, 3))


def test_classify_chain_equality_cases():
    spec = chain_spec((2, 2))
    assert classify_chain_equality(spec, (0, 0)).kind == "case_i"
    case2 = classify_chain_equality(spec, (3, 0))
    assert case2.kind == "case_ii"
    assert case2.slack == 0
    strict = classify_chain_equality(spec, (0, 1))
    assert strict.kind == "strict"
    assert strict.slack == Fraction(1, 3)
    assert classify_chain_equality(spec, (1, 1)).slack == 1


def test_classification_across_small_family():
    for seq in product((2, 3, 4), repeat=2):
        spec = chain_spec(seq)
        for pattern in product((0, 1, 2), repeat=2):
            case = classify_chain_equality(spec, pattern)
            assert (case.slack == 0) == (case.kind in ("case_i", "case_ii"))


def test_foliation_assembly_names_and_blocks():
    specs = [chain_spec((2, 2)), chain_spec((3,))]
    lattice, dec = foliation_negative_part(specs)
    assert lattice.names == ("T1.C1", "T1.C2", "T2.C1")
    assert lattice.gram[0][2] == 0
    assert lattice.gram[1][2] == 0
    assert dec.gamma == (Fraction(2, 3), Fraction(1, 3), Fraction(1, 3))
    assert dec.support == (0, 1, 2)


def test_foliation_assembly_needs_chains():
    with pytest.raises(ValidationError):
        foliation_negative_part([])


def test_foliation_slope_scales_linearly():
    specs = [chain_spec((2, 2)), chain_spec((3,))]
    assert foliation_e(specs, 1) == 1 == e_sup(*foliation_negative_part(specs)).value
    assert foliation_e(specs, 3) == 3
    single = [chain_spec((4, 2, 3))]
    assert foliation_e(single, 2) == 2 * e_sup(*foliation_negative_part(single)).value == 2


def test_single_chain_slope_is_one():
    for r in (1, 2, 3):
        for seq in product((2, 3, 4), repeat=r):
            specs = [chain_spec(seq)]
            assert foliation_e(specs, 1) == 1
            assert e_sup(*foliation_negative_part(specs)).value == 1


def test_foliation_slope_matches_direct_scaled_supremum():
    # foliation_e returns m by the continuant proof; the reference runs
    # e_sup on m N itself.
    rng = random.Random(20261017)
    assemblies = [
        [tuple(rng.choice((2, 3, 4, 5)) for _ in range(length)) for length in lengths]
        for lengths in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (1, 1, 1), (1, 1, 2), (1, 2, 2)]
        for _ in range(2)
    ]
    for seqs in assemblies:
        specs = [chain_spec(seq) for seq in seqs]
        lattice, dec = foliation_negative_part(specs)
        for m in range(1, 6):
            scaled = ZariskiDecomposition(
                dec.positive, m * dec.negative, dec.support, tuple(m * g for g in dec.gamma)
            )
            assert foliation_e(specs, m) == e_sup(lattice, scaled).value, (seqs, m)


def test_foliation_slope_needs_chains():
    with pytest.raises(ValidationError, match="need at least one chain"):
        foliation_e([], 1)


@pytest.mark.parametrize("scale", [0, -1, True, "2"])
def test_foliation_slope_rejects_bad_scale(scale):
    with pytest.raises(ValidationError):
        foliation_e([chain_spec((2,))], scale)
