import random
from dataclasses import fields
from fractions import Fraction

import pytest

from zariskivol import build_lattice, divisor
from zariskivol.errors import (
    DTooSmallError,
    GenusCheckFailedError,
    H0TooSmallError,
    InconsistentTripleError,
    InvariantViolationError,
    IterationDivergedError,
    MathematicalError,
    NegativeOffDiagonalError,
    NonIntegralMultipleError,
    NotFibreMultipleError,
    PencilScenarioError,
    PmTooSmallError,
    SplitMismatchError,
    ValidationError,
)
from zariskivol.noether import (
    Scenario,
    catalog_degree_dminus1,
    clifford_check,
    foliation_bounds,
    log_pair_bounds,
    log_pair_iterate,
    pencil_audit,
    pencil_bound,
    ps_index_bound,
    surface_audit,
    surface_bounds,
    validate_scenario,
)
from zariskivol.zariski import ZariskiDecomposition, zariski_decompose

from generators import random_log_pair
from oracles import catalog_square


def test_pencil_bound_values():
    assert pencil_bound(5, 2) == Fraction(8, 3)
    assert pencil_bound(2, 0) == 1
    assert pencil_bound(3, "1/2") == Fraction(8, 5)


def test_pencil_bound_validation():
    with pytest.raises(H0TooSmallError):
        pencil_bound(1, 0)
    with pytest.raises(ValidationError):
        pencil_bound(3, -1)


def test_surface_bounds_plain():
    fam = surface_bounds(4, 0)
    assert fam.base == 2
    assert fam.refined == 3
    assert not fam.nonruled_applies
    assert fam.nonruled_base is None


def test_surface_bounds_nonruled():
    fam = surface_bounds(4, 1, kappa_nonneg=True)
    assert fam.nonruled_applies
    assert fam.nonruled_base == 4
    assert fam.nonruled_refined_weak == Fraction(9, 2)
    assert fam.nonruled_refined_strong == Fraction(13, 2)
    assert fam.refined == Fraction(5, 2)

    assert surface_bounds(4, 1, ruled=False).nonruled_applies
    assert not surface_bounds(4, 1, ruled=True).nonruled_applies
    assert not surface_bounds(4, 1).nonruled_applies


def test_surface_bounds_validation():
    with pytest.raises(H0TooSmallError):
        surface_bounds(2, 0)
    with pytest.raises(ValidationError):
        surface_bounds(3, "-1/2")


def test_scenario_validation(golden):
    lattice, _ = golden
    validate_scenario(lattice, Scenario(h0=3))
    with pytest.raises(ValidationError):
        validate_scenario(lattice, Scenario(h0=3, df=1))
    with pytest.raises(ValidationError):
        validate_scenario(lattice, Scenario(h0=2, pencil=True, df=0))
    with pytest.raises(ValidationError):
        validate_scenario(lattice, Scenario(h0=3, minus_one_classes=("G1",)))


@pytest.fixture
def free_pencil():
    lattice = build_lattice(
        ("F", "G1", "G2", "H"),
        ((0, 1, 0, 1), (1, -2, 1, 0), (0, 1, -2, 0), (1, 0, 0, 1)),
    )
    d = divisor(lattice, (3, 1, 1, 0))
    m = divisor(lattice, (3, 0, 0, 0))
    z = divisor(lattice, (0, 1, 1, 0))
    f = divisor(lattice, (1, 0, 0, 0))
    return lattice, d, m, z, f


def test_pencil_audit_free_case(free_pencil):
    lattice, d, m, z, f = free_pencil
    scenario = Scenario(h0=2, pencil=True, df=1)
    report = pencil_audit(lattice, d, m, z, scenario, (3, f))
    assert report.volume == Fraction(9, 2)
    assert report.bound == 1
    assert report.satisfied and not report.equality
    assert report.refined_bound == 1
    assert report.assumptions["fibre_equivalence"] == "full"
    assert report.assumptions["e_m"] == 0
    assert report.assumptions["df"] == 1

    split = report.checks["split_identity"]
    assert split["rhs"] == Fraction(9, 2)
    assert split["relation"] == "="

    kernel = report.checks["fibre_kernel"]
    assert kernel["fz_star"] == 1
    assert kernel["conditions"] == (False, False, False)
    assert kernel["all_equal"]
    assert kernel["pz"] == Fraction(3, 2)

    degree = report.checks["degree_lower_bound"]
    assert degree == {"n": 3, "h0_minus_1": 1, "ok": True, "equality": False}

    free = report.checks["base_point_free"]
    assert free["bound"] == 3
    assert free["ok"] and not free["equality"]
    assert free["df_is_one"]
    assert not free["supports_equal"]
    assert "nef_degree" not in report.checks


def test_pencil_audit_support_only_scope(free_pencil):
    lattice, d, m, z, _ = free_pencil
    h = divisor(lattice, (0, 0, 0, 1))
    scenario = Scenario(h0=2, pencil=True)
    report = pencil_audit(lattice, d, m, z, scenario, (3, h))
    assert report.assumptions["fibre_equivalence"] == "support_only"
    assert report.assumptions["df"] == 3
    assert report.checks["split_identity"]["relation"] == "<"


def test_pencil_audit_fibre_mismatch(free_pencil):
    lattice, d, m, z, _ = free_pencil
    g1 = divisor(lattice, (0, 1, 0, 0))
    scenario = Scenario(h0=2, pencil=True)
    with pytest.raises(NotFibreMultipleError):
        pencil_audit(lattice, d, m, z, scenario, (3, g1))


def test_pencil_audit_nef_composed_case():
    lattice = build_lattice(("A", "B"), ((0, 2), (2, 2)))
    d = divisor(lattice, (2, 1))
    m = divisor(lattice, (2, 0))
    z = divisor(lattice, (0, 1))
    f = divisor(lattice, (1, 0))
    scenario = Scenario(h0=3, pencil=True, df=2)
    report = pencil_audit(lattice, d, m, z, scenario, (2, f))
    assert report.volume == 10
    assert report.bound == 4
    assert report.checks["split_identity"] == {"rhs": 10, "relation": "="}
    assert report.checks["degree_lower_bound"]["equality"]
    assert any("rational" in note for note in report.annotations)
    nef = report.checks["nef_degree"]
    assert nef == {"d_squared": 10, "bound": 4, "ok": True}


def test_pencil_audit_positive_moving_square():
    lattice = build_lattice(("H", "C"), ((1, 0), (0, -2)))
    d = divisor(lattice, (2, 0))
    m = d
    z = lattice.zero()
    f = divisor(lattice, (1, 0))
    scenario = Scenario(h0=3, pencil=True)
    report = pencil_audit(lattice, d, m, z, scenario, (2, f))
    assert report.bound == 4
    assert report.volume == 4
    assert report.equality
    locus = report.checks["base_locus"]
    assert locus["m_squared"] == 4
    assert locus["equality"]
    assert report.refined_bound == 5
    assert report.checks["equality_case"]["certified"]
    assert len(report.annotations) == 2


def test_pencil_audit_scenario_guards(free_pencil):
    lattice, d, m, z, f = free_pencil
    with pytest.raises(PencilScenarioError):
        pencil_audit(lattice, d, m, z, Scenario(h0=2), (3, f))
    with pytest.raises(H0TooSmallError):
        pencil_audit(lattice, d, m, z, Scenario(h0=1, pencil=True), (3, f))
    with pytest.raises(ValidationError):
        pencil_audit(lattice, d, m, z, Scenario(h0=2, pencil=True, df=2), (3, f))
    with pytest.raises(ValidationError):
        pencil_audit(lattice, d, m, z, Scenario(h0=2, pencil=True), (0, f))
    with pytest.raises(SplitMismatchError):
        pencil_audit(lattice, d, m, m, Scenario(h0=2, pencil=True), (3, f))


def test_surface_audit_golden(golden):
    lattice, divs = golden
    scenario = Scenario(h0=3, kappa_nonneg=True)
    report = surface_audit(lattice, divs["D"], divs["M"], divs["Z"], scenario)
    assert report.bound == 1
    assert report.volume == Fraction(13, 2)
    assert report.satisfied and not report.equality
    assert report.refined_bound == 2
    assert not report.checks["equality_case"]["certified"]
    nr = report.checks["nonruled"]
    assert nr["bound"] == 2
    assert nr["satisfied"] and not nr["equality"]
    assert nr["refined_weak"] == 3
    assert nr["refined_strong"] == 5
    assert report.checks["exceptional_classes"]["ok"]


def test_surface_audit_exceptional_screening():
    lattice = build_lattice(
        ("H", "E", "C"), ((2, 0, 0), (0, -1, 1), (0, 1, -2))
    )
    d = divisor(lattice, (2, 0, 1))
    m = divisor(lattice, (2, 0, 0))
    z = divisor(lattice, (0, 0, 1))
    scenario = Scenario(h0=3, minus_one_classes=("E",))
    report = surface_audit(lattice, d, m, z, scenario)
    exc = report.checks["exceptional_classes"]
    assert exc["violations"] == ()
    assert exc["contracted"] == ("E",)
    assert exc["ok"]

    flat = divisor(lattice, (2, 0, 0))
    report2 = surface_audit(lattice, flat, flat, lattice.zero(), scenario)
    exc2 = report2.checks["exceptional_classes"]
    assert exc2["violations"] == ("E",)
    assert not exc2["ok"]
    assert any("hypothesis violation" in note for note in report2.annotations)


def test_surface_audit_guards(golden):
    lattice, divs = golden
    with pytest.raises(PencilScenarioError):
        surface_audit(
            lattice, divs["D"], divs["M"], divs["Z"], Scenario(h0=3, pencil=True)
        )
    with pytest.raises(H0TooSmallError):
        surface_audit(lattice, divs["D"], divs["M"], divs["Z"], Scenario(h0=2))


@pytest.fixture
def halfcurve():
    lattice = build_lattice(("A", "C"), ((1, 0), (0, -2)))
    return lattice, divisor(lattice, (1, 0))


def test_log_pair_single_step(halfcurve):
    lattice, k = halfcurve
    result = log_pair_iterate(lattice, k, [("C", "1/2")], 2)
    assert result.alphas == (Fraction(1, 2),)
    assert result.steps == (("C", Fraction(1, 2), "single"),)
    assert result.negative_part.coeffs == (0, Fraction(1, 2))
    assert result.n == 2
    assert result.e_zero_scaled == 2
    assert result.e_zero_cap == 4
    check = result.checks[0]
    assert check.label == "C"
    assert check.alpha_within_coefficient
    assert check.drop == 1
    assert check.drop_within_double
    assert check.genus == 0


def test_log_pair_batch_completion(chain22):
    k = chain22.zero()
    result = log_pair_iterate(chain22, k, [("C1", 1), ("C2", 1)], 1)
    assert result.alphas == (1, 1)
    assert result.steps == (
        ("C1", Fraction(1, 2), "single"),
        ("C2", Fraction(3, 4), "single"),
        ("C1", Fraction(1, 2), "batch"),
        ("C2", Fraction(1, 4), "batch"),
    )
    assert result.e_zero_scaled == 2
    assert result.e_zero_cap == 2


def test_log_pair_growing_step_diverges():
    lattice = build_lattice(("C1", "C2"), ((-1, 3), (3, -1)))
    k = divisor(lattice, (-2, -2))
    with pytest.raises(IterationDivergedError):
        log_pair_iterate(lattice, k, [("C1", 1), ("C2", 1)], 1)


def test_log_pair_nonnegative_square_diverges():
    lattice = build_lattice(("C1", "C2"), ((0, 1), (1, 0)))
    k = divisor(lattice, (0, -2))
    with pytest.raises(IterationDivergedError):
        log_pair_iterate(lattice, k, [("C1", 1)], 1)


def test_log_pair_genus_check():
    lattice = build_lattice(("C",), ((-1,),))
    with pytest.raises(GenusCheckFailedError):
        log_pair_iterate(lattice, lattice.zero(), [("C", 1)], 1)


def test_log_pair_integrality(halfcurve):
    lattice, k = halfcurve
    with pytest.raises(NonIntegralMultipleError):
        log_pair_iterate(lattice, k, [("C", "1/2")], 1)


def test_log_pair_coefficient_bounds_enforced():
    lattice = build_lattice(("A", "C"), ((1, 0), (0, -1)))
    k = divisor(lattice, (0, 1))
    with pytest.raises(InvariantViolationError):
        log_pair_iterate(lattice, k, [("C", "1/2")], 2)


def test_log_pair_undeclared_component(chain22):
    k = divisor(chain22, (0, 1))
    with pytest.raises(InvariantViolationError, match="pairs to -3/2 with 'C2'"):
        log_pair_iterate(chain22, k, [("C1", 1)], 1)


def test_log_pair_result_must_be_orthogonal_to_its_support():
    # C1 meets C2 negatively, so the step on C2 leaves C1 pairing positively.
    lattice = build_lattice(("C1", "C2"), ((-2, -1), (-1, -2)))
    k = divisor(lattice, (-1, 0))
    with pytest.raises(InvariantViolationError, match="pairs to 3/4 with 'C1'"):
        log_pair_iterate(lattice, k, [("C1", 1), ("C2", 1)], 1)


def test_log_pair_support_must_meet_nonnegatively():
    lattice = build_lattice(
        ("C1", "C2", "C3"), ((-2, -1, 1), (-1, -3, 1), (1, 1, -1))
    )
    k = divisor(lattice, (1, 0, 2))
    delta = [("C1", 1), ("C2", "1/2"), ("C3", "1/2")]
    with pytest.raises(NegativeOffDiagonalError, match=r"\['C1', 'C2', 'C3'\]"):
        log_pair_iterate(lattice, k, delta, 2)


def test_log_pair_decomposition_is_the_zariski_decomposition():
    # With nonnegative off-diagonals the axioms fix the decomposition, so
    # every certified result must equal the direct one field by field.
    rng = random.Random(20261019)
    returned = 0
    for _ in range(600):
        lattice, k, delta, n = random_log_pair(rng)
        try:
            result = log_pair_iterate(lattice, k, delta, n)
        except MathematicalError:
            continue
        kd = k
        for label, a in delta:
            kd = kd + a * lattice.basis(lattice.index(label))
        direct = zariski_decompose(lattice, kd)
        for field in fields(ZariskiDecomposition):
            name = field.name
            assert getattr(result.decomposition, name) == getattr(direct, name), name
        assert result.negative_part == direct.negative
        returned += 1
    assert returned >= 100


def test_log_pair_input_validation(halfcurve):
    lattice, k = halfcurve
    with pytest.raises(ValidationError):
        log_pair_iterate(lattice, k, [("C", 0)], 2)
    with pytest.raises(ValidationError):
        log_pair_iterate(lattice, k, [("C", "3/2")], 2)
    with pytest.raises(ValidationError):
        log_pair_iterate(lattice, k, [("C", 1), (1, 1)], 2)
    with pytest.raises(ValidationError):
        log_pair_iterate(lattice, k, [("X", 1)], 2)
    with pytest.raises(ValidationError):
        log_pair_iterate(lattice, k, [(7, 1)], 2)
    with pytest.raises(ValidationError):
        log_pair_iterate(lattice, k, [("C", 1)], 0)


def test_log_pair_bounds_values():
    assert log_pair_bounds(3, 1, pencil=True) == 1
    assert log_pair_bounds(5, 2, pencil=True) == Fraction(1, 2)
    assert log_pair_bounds(5, 2, pencil=False) == Fraction(3, 4)
    assert log_pair_bounds(5, 2, pencil=False, kappa_nonneg=True) == Fraction(3, 2)


def test_log_pair_bounds_validation():
    with pytest.raises(PmTooSmallError):
        log_pair_bounds(1, 1, pencil=True)
    with pytest.raises(PmTooSmallError):
        log_pair_bounds(2, 1, pencil=False)
    with pytest.raises(ValidationError):
        log_pair_bounds(3, 0, pencil=True)


def test_foliation_bounds_values():
    assert foliation_bounds(3, 2, pencil=True) == Fraction(1, 4)
    assert foliation_bounds(4, 1, pencil=False) == 2
    assert foliation_bounds(4, 1, pencil=False, kappa_nonneg=True) == 4
    with pytest.raises(PmTooSmallError):
        foliation_bounds(1, 1, pencil=True)
    with pytest.raises(PmTooSmallError):
        foliation_bounds(2, 1, pencil=False)


def test_ps_index_bound_values():
    assert ps_index_bound(1) == Fraction(1, 2)
    assert ps_index_bound(2) == Fraction(1, 12)
    assert ps_index_bound("1/2") == Fraction(8, 3)
    with pytest.raises(ValidationError):
        ps_index_bound(0)
    with pytest.raises(ValidationError):
        ps_index_bound(-2)


def test_clifford_branches():
    high = clifford_check(5, 4, 2)
    assert high.branch == "nonspecial"
    assert not high.degree_bound_tight

    special = clifford_check(2, 2, 2)
    assert special.branch == "special"
    assert not special.rational_base

    tight = clifford_check(1, 2, 0)
    assert tight.branch == "nonspecial"
    assert tight.degree_bound_tight
    assert tight.rational_base

    zero = clifford_check(0, 1, 3)
    assert zero.branch == "degree_zero"
    assert zero.degree_bound_tight
    assert not zero.rational_base


def test_clifford_inconsistencies():
    with pytest.raises(InconsistentTripleError):
        clifford_check(3, 5, 0)
    with pytest.raises(InconsistentTripleError):
        clifford_check(4, 4, 4)
    with pytest.raises(InconsistentTripleError):
        clifford_check(0, 2, 1)
    with pytest.raises(ValidationError):
        clifford_check(-1, 1, 0)
    with pytest.raises(ValidationError):
        clifford_check(2, True, 0)


def test_catalog_small_degrees():
    only = catalog_degree_dminus1(2)
    assert len(only) == 1
    assert only[0].surface == "P2"
    assert only[0].m0_description == "L"
    assert only[0].m0_squared == 1

    entries = catalog_degree_dminus1(5)
    cases = [(e.case_id, e.surface, e.m0_description) for e in entries]
    assert cases == [
        (2, "P2", "2L"),
        (3, "F0", "C + 2F"),
        (3, "F2", "C + 3F"),
        (4, "F4", "C + 4F"),
    ]
    assert all(e.m0_squared == 4 for e in entries)


def test_catalog_square_recomputed_everywhere():
    # The oracle sees only the surface, e and the class description.
    for d in [*range(2, 301), 2500, 9999, 10000]:
        entries = catalog_degree_dminus1(d)
        assert entries
        for entry in entries:
            assert entry.d == d
            square = catalog_square(entry.surface, entry.e, entry.m0_description)
            assert square == entry.m0_squared == d - 1, (d, entry)


def test_catalog_validation():
    with pytest.raises(DTooSmallError):
        catalog_degree_dminus1(1)
    with pytest.raises(DTooSmallError):
        catalog_degree_dminus1("3")
