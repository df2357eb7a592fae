from fractions import Fraction

import pytest

from zariskivol import build_lattice, divisor, pair
from zariskivol.errors import (
    AsymmetricGramError,
    DimensionMismatchError,
    DuplicateNameError,
    EmptySubsetError,
    IndexOutOfRangeError,
    LatticeMismatchError,
    ValidationError,
)
from zariskivol.lattice import (
    _bareiss,
    arithmetic_genus,
    as_rational,
    normalize_support,
    off_diagonal_nonnegative,
    pair_with_basis,
    parse_rational,
    solve_against_gram,
)
from zariskivol.zariski import star_lift

from oracles import det_frac, negdef_eigen, negdef_minors, negdef_vectors, solve_frac


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3/4", Fraction(3, 4)),
        ("-2", Fraction(-2)),
        ("+5/10", Fraction(1, 2)),
        (" 7 ", Fraction(7)),
        ("0", Fraction(0)),
    ],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("bad", ["1.5", "1e3", "", "1/0", "a/b", "1/ 2", "--3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValidationError):
        parse_rational(bad)


def test_as_rational_refuses_floats():
    assert as_rational(Fraction(2, 3)) == Fraction(2, 3)
    assert as_rational(5) == 5
    with pytest.raises(ValidationError):
        as_rational(0.5)


def test_build_lattice_validations():
    with pytest.raises(DuplicateNameError):
        build_lattice(("A", "A"), ((1, 0), (0, 1)))
    with pytest.raises(AsymmetricGramError):
        build_lattice(("A", "B"), ((1, 2), (1, 1)))
    with pytest.raises(DimensionMismatchError):
        build_lattice(("A", "B"), ((1, 0),))
    with pytest.raises(DimensionMismatchError):
        build_lattice((), ())
    with pytest.raises(ValidationError):
        build_lattice(("A",), ((True,),))


def test_divisor_arithmetic(chain22):
    a = divisor(chain22, ("1/2", 1))
    b = divisor(chain22, (1, "1/3"))
    assert (a + b).coeffs == (Fraction(3, 2), Fraction(4, 3))
    assert (a - b).coeffs == (Fraction(-1, 2), Fraction(2, 3))
    assert (-a).coeffs == (Fraction(-1, 2), Fraction(-1))
    assert (3 * a).coeffs == (Fraction(3, 2), Fraction(3))
    assert (a * "2/3").coeffs == (Fraction(1, 3), Fraction(2, 3))
    assert a.support() == (0, 1)
    assert chain22.zero().is_zero()
    assert a.is_effective() and not (a - b).is_effective()


def test_pair_is_symmetric_bilinear(golden):
    lattice, divs = golden
    d, m = divs["D"], divs["M"]
    assert pair(d, m) == pair(m, d)
    assert pair(d + m, m) == pair(d, m) + pair(m, m)
    assert pair(2 * d, m) == 2 * pair(d, m)
    assert pair_with_basis(d, 2) == pair(d, lattice.basis(2))


def test_pair_rejects_mixed_lattices(chain22, disjoint_chain):
    with pytest.raises(LatticeMismatchError):
        pair(divisor(chain22, (1, 0)), divisor(disjoint_chain, (1, 0, 0)))


def _definite(lattice, support):
    """Negative definiteness as the solver decides it."""
    return solve_against_gram(lattice, support, [0] * len(support)) is not None


def test_negative_definite_matches_oracles(rng):
    hits = 0
    for _ in range(120):
        n = rng.randint(1, 4)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randint(-4, 1)
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(-1, 2)
        lattice = build_lattice(
            tuple(f"C{i}" for i in range(n)), tuple(tuple(r) for r in rows)
        )
        got = _definite(lattice, range(n))
        assert got == negdef_eigen(rows)
        if n <= 3:
            assert got == negdef_vectors(rows, box=3)
        hits += got
    assert hits > 5  # the family must actually exercise both answers


def test_negative_definite_on_subsets(disjoint_chain):
    assert _definite(disjoint_chain, (1, 2))
    assert _definite(disjoint_chain, (2,))
    assert not _definite(disjoint_chain, (0,))
    assert not _definite(disjoint_chain, (0, 1, 2))


TARGET_VALUES = (Fraction(1, 3), Fraction(5, 7), Fraction(-2), Fraction(0), Fraction(-1, 2))


def _symmetric_systems(rng):
    """Symmetric integer matrices of sizes 1 to 8 with all kinds of sign.

    Random ones (mostly indefinite), negative definite ones -(B^T B + I),
    and singular negative semidefinite ones -B^T B with B of rank < n.
    """
    systems = [[[-1, 1], [1, -1]], [[0]], [[1, 0], [0, -1]], [[-2, 1], [1, -2]]]
    for k in range(240):
        n = 1 + k % 8
        kind = k // 8 % 3
        if kind == 0:
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = rng.randint(-5, 1)
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.randint(-1, 2)
        else:
            b_rows = n if kind == 1 else n - 1
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(b_rows)]
            rows = [
                [-sum(r[i] * r[j] for r in b) - (kind == 1 and i == j) for j in range(n)]
                for i in range(n)
            ]
        systems.append(rows)
    return systems


def _with_extra_class(rows):
    """Lattice with the system on classes 1..n behind an unrelated class 0."""
    n = len(rows)
    gram = [[1, 1] + [0] * (n - 1)]
    gram += [[int(i == 0)] + list(r) for i, r in enumerate(rows)]
    return build_lattice(tuple(f"C{i}" for i in range(n + 1)), gram)


def test_gram_solves_match_oracle(rng):
    singular = definite = 0
    for rows in _symmetric_systems(rng):
        n = len(rows)
        lattice = _with_extra_class(rows)
        targets = [rng.choice(TARGET_VALUES) for _ in range(n)]
        expected = solve_frac(rows, targets)
        solved = solve_against_gram(lattice, range(1, n + 1), targets)
        singular += expected is None
        if not negdef_minors(rows):
            assert solved is None, rows
        else:
            definite += 1
            assert solved.coeffs == (0, *expected)
    assert singular > 20 and definite > 40


def test_bareiss_pivots_are_the_leading_principal_minors(rng):
    """The exact division keeps every pivot a minor of -G, not a multiple."""
    checked = 0
    for rows in _symmetric_systems(rng):
        n = len(rows)
        m = [[-x for x in row] for row in rows]
        minors = [det_frac([r[: k + 1] for r in m[: k + 1]]) for k in range(n)]
        if _bareiss(m, n):
            checked += 1
            assert [m[k][k] for k in range(n)] == minors
    assert checked > 40


def test_negative_definite_matches_eigen_oracle_up_to_six(rng):
    answers = set()
    for rows in _symmetric_systems(rng):
        n = len(rows)
        if n <= 6:
            lattice = build_lattice(tuple(f"C{i}" for i in range(n)), rows)
            got = _definite(lattice, range(n))
            assert got == negdef_eigen(rows), rows
            answers.add(got)
    assert answers == {True, False}


def test_fused_solve_rejects_bad_input(disjoint_chain):
    with pytest.raises(EmptySubsetError):
        solve_against_gram(disjoint_chain, (), ())
    with pytest.raises(DimensionMismatchError):
        solve_against_gram(disjoint_chain, (1, 2), (1,))
    assert solve_against_gram(disjoint_chain, (0, 1), (1, 1)) is None
    semidefinite = build_lattice(("A", "B"), ((-1, 1), (1, -1)))
    assert solve_against_gram(semidefinite, (0, 1), (Fraction(1, 3), Fraction(5, 7))) is None


def test_star_lift_rejects_an_indefinite_support():
    lattice = build_lattice(("A", "B", "H"), ((-1, 2, 0), (2, -1, 0), (0, 0, 1)))
    base = divisor(lattice, (0, 0, 1))
    with pytest.raises(ValidationError) as info:
        star_lift(lattice, base, (0, 1))
    assert str(info.value) == "star lift support ['A', 'B'] is not negative definite"


def test_long_rational_literal_is_a_validation_error():
    with pytest.raises(ValidationError, match="too many digits"):
        parse_rational("1" * 5000 + "/7")


def test_solve_against_gram_embeds(disjoint_chain):
    sol = solve_against_gram(disjoint_chain, (1, 2), (-1, 0))
    assert sol.coeffs[0] == 0
    assert pair_with_basis(sol, 1) == -1
    assert pair_with_basis(sol, 2) == 0


def test_support_helpers(disjoint_chain):
    assert normalize_support(disjoint_chain, (2, 1, 2)) == (1, 2)
    with pytest.raises(IndexOutOfRangeError):
        normalize_support(disjoint_chain, (3,))
    assert off_diagonal_nonnegative(disjoint_chain, (1, 2))
    neg = build_lattice(("A", "B"), ((-1, -1), (-1, -1)))
    assert not off_diagonal_nonnegative(neg, (0, 1))


def test_arithmetic_genus(golden):
    lattice, _ = golden
    k = divisor(lattice, (0, 0, 0))
    # (-2)-curves with trivial canonical pairing are rational
    assert arithmetic_genus(lattice, k, 1) == 0
    k2 = divisor(lattice, (1, 0, 0))  # K.G1 = 1
    assert arithmetic_genus(lattice, k2, 1) == Fraction(1, 2)
