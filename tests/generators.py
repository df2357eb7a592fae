"""Random configuration factories shared by property and acceptance tests."""

from fractions import Fraction
from math import lcm

from zariskivol import build_lattice, divisor
from zariskivol.errors import MathematicalError
from zariskivol.lattice import pair
from zariskivol.zariski import is_nef_on, zariski_decompose

from oracles import eigen_sign_counts, solve_frac


def random_config(rng, max_rank=5):
    """Lattice and integral divisor from the acceptance family.

    Diagonals in [-4, 1], off-diagonals in [0, 2], coefficients in [-3, 3].
    """
    r = rng.randint(1, max_rank)
    names = tuple(f"C{i + 1}" for i in range(r))
    gram = [[0] * r for _ in range(r)]
    for i in range(r):
        gram[i][i] = rng.randint(-4, 1)
        for j in range(i + 1, r):
            gram[i][j] = gram[j][i] = rng.randint(0, 2)
    lattice = build_lattice(names, gram)
    d = divisor(lattice, [rng.randint(-3, 3) for _ in range(r)])
    return lattice, d


def surface_like_lattice(rng, max_curves=3):
    """Nondegenerate lattice of signature (1, k) with off-diagonals >= 0."""
    while True:
        k = rng.randint(1, max_curves)
        names = ("H",) + tuple(f"C{i}" for i in range(1, k + 1))
        n = k + 1
        gram = [[0] * n for _ in range(n)]
        gram[0][0] = rng.randint(1, 3)
        for i in range(1, n):
            gram[i][i] = rng.randint(-4, -1)
            gram[0][i] = gram[i][0] = rng.randint(0, 2)
            for j in range(i + 1, n):
                gram[i][j] = gram[j][i] = rng.randint(0, 1)
        pos, neg, zero = eigen_sign_counts(gram)
        if pos == 1 and zero == 0:
            return build_lattice(names, gram)


def random_split(rng, max_curves=3, tries=500):
    """(lattice, d, m, z): m nonzero nef with m^2 >= 0, z effective, and the
    decomposition of d = m + z succeeding with positive volume."""
    for _ in range(tries):
        lattice = surface_like_lattice(rng, max_curves)
        r = lattice.rank
        m = divisor(lattice, [rng.randint(0, 3) for _ in range(r)])
        if m.is_zero() or not is_nef_on(lattice, m) or pair(m, m) < 0:
            continue
        z = divisor(lattice, [rng.randint(0, 2) for _ in range(r)])
        d = m + z
        try:
            dec = zariski_decompose(lattice, d)
        except MathematicalError:
            continue
        if pair(dec.positive, dec.positive) <= 0:
            continue
        return lattice, d, m, z
    raise RuntimeError("no admissible split found")


def random_log_pair(rng, max_rank=5, min_off_diagonal=0):
    """(lattice, k, delta, n) for log_pair_iterate.

    Diagonals in [-4, 1], off-diagonals in [min_off_diagonal, 2], K with
    integer coefficients in [-2, 2]; Delta takes one to three classes with
    coefficients in {1/3, 1/2, 2/3, 1}.  On two draws in three K is then
    corrected on the Delta classes so that each of them satisfies
    adjunction, K.C = -2 - C^2, when that system is solvable.  n is the
    least integer clearing the denominators of K + Delta.
    """
    r = rng.randint(1, max_rank)
    names = tuple(f"C{i + 1}" for i in range(r))
    gram = [[0] * r for _ in range(r)]
    for i in range(r):
        gram[i][i] = rng.randint(-4, 1)
        for j in range(i + 1, r):
            gram[i][j] = gram[j][i] = rng.randint(min_off_diagonal, 2)
    lattice = build_lattice(names, gram)
    comps = sorted(rng.sample(range(r), rng.randint(1, min(3, r))))
    k = [Fraction(rng.randint(-2, 2)) for _ in range(r)]
    if rng.randrange(3):
        matrix = [[gram[i][j] for j in comps] for i in comps]
        rhs = [
            -2 - gram[i][i] - sum(k[j] * gram[j][i] for j in range(r) if j not in comps)
            for i in comps
        ]
        y = solve_frac(matrix, rhs)
        if y is not None:
            for i, v in zip(comps, y):
                k[i] = v
    a = [rng.choice((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1))) for _ in comps]
    total = list(k)
    for i, av in zip(comps, a):
        total[i] += av
    n = lcm(*(v.denominator for v in total))
    delta = [(names[i], av) for i, av in zip(comps, a)]
    return lattice, divisor(lattice, k), delta, n
