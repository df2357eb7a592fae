"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: exhaustive subset enumeration,
textbook linear algebra over fractions, dense grids.  Slow but obviously
correct, and sharing no algorithmic code with the package under test.
"""

from fractions import Fraction
from itertools import combinations, product


def solve_frac(matrix, rhs):
    """Gauss-Jordan over fractions; None when the matrix is singular."""
    n = len(matrix)
    m = [
        [Fraction(x) for x in row] + [Fraction(r)]
        for row, r in zip(matrix, rhs)
    ]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        d = m[c][c]
        m[c] = [x / d for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return [row[n] for row in m]


def det_frac(rows):
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def char_poly(matrix):
    """Ascending coefficients of det(x I - A), Faddeev-LeVerrier."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        ck = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = ck
        m = [
            [am[i][j] + (ck if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
    return coeffs


def eigen_sign_counts(matrix):
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    Symmetric matrices have real spectra, so Descartes' rule applied to the
    exact characteristic polynomial counts signs exactly.
    """
    cs = char_poly(matrix)
    zero = next(k for k in range(len(cs)) if cs[k] != 0)
    reduced = cs[zero:]

    def changes(seq):
        signs = [v > 0 for v in seq if v != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    pos = changes(reduced)
    neg = changes([v if k % 2 == 0 else -v for k, v in enumerate(reduced)])
    return pos, neg, zero


def negdef_eigen(matrix):
    pos, neg, zero = eigen_sign_counts(matrix)
    return pos == 0 and zero == 0


def negdef_minors(matrix):
    """Sylvester test via plain fraction determinants."""
    n = len(matrix)
    for k in range(1, n + 1):
        lead = [row[:k] for row in matrix[:k]]
        if det_frac(lead) * (-1) ** k <= 0:
            return False
    return True


def negdef_vectors(matrix, box=2):
    """Definition check on a small integer box; for validating the others."""
    n = len(matrix)
    for x in product(range(-box, box + 1), repeat=n):
        if not any(x):
            continue
        q = sum(x[i] * matrix[i][j] * x[j] for i in range(n) for j in range(n))
        if q >= 0:
            return False
    return True


def zariski_brute(gram, d_coeffs):
    """All distinct negative parts satisfying the decomposition axioms.

    Tries every support subset: the subset must be negative definite, the
    coefficients solving the orthogonality system must be nonnegative, and
    the leftover part must pair nonnegatively with every basis class.
    Returns the sorted list of distinct coefficient vectors.
    """
    n = len(gram)

    def dot(coeffs, i):
        return sum(Fraction(c) * gram[j][i] for j, c in enumerate(coeffs))

    found = set()
    for size in range(n + 1):
        for sub in combinations(range(n), size):
            if size:
                sm = [[gram[i][j] for j in sub] for i in sub]
                if not negdef_minors(sm):
                    continue
                sol = solve_frac(sm, [dot(d_coeffs, i) for i in sub])
                if sol is None or any(g < 0 for g in sol):
                    continue
            else:
                sol = []
            ncoeffs = [Fraction(0)] * n
            for idx, g in zip(sub, sol):
                ncoeffs[idx] = g
            pcoeffs = [Fraction(dc) - nc for dc, nc in zip(d_coeffs, ncoeffs)]
            if any(dot(pcoeffs, i) < 0 for i in range(n)):
                continue
            found.add(tuple(ncoeffs))
    return sorted(found)


def slope_grid_max(gram, support, gamma, tmax=6):
    """Slope maximum over the dense integer pattern grid on the support."""
    s = len(support)
    sm = [[gram[i][j] for j in support] for i in support]
    best = Fraction(0)
    for t in product(range(tmax + 1), repeat=s):
        if not any(t):
            continue
        beta = solve_frac(sm, [-min(1, ti) for ti in t])
        num = sum((g * ti for g, ti in zip(gamma, t)), Fraction(0))
        den = sum((b * ti for b, ti in zip(beta, t)), Fraction(0))
        val = num / den
        if val > best:
            best = val
    return best


def chain_gamma_oracle(e_seq):
    """Chain coefficients straight from the defining tridiagonal system."""
    r = len(e_seq)
    tri = [[0] * r for _ in range(r)]
    for i, e in enumerate(e_seq):
        tri[i][i] = -e
        if i + 1 < r:
            tri[i][i + 1] = 1
            tri[i + 1][i] = 1
    return solve_frac(tri, [-1] + [0] * (r - 1))


def cf_value(e_seq):
    """Value of the continued fraction e1 - 1/(e2 - 1/(...))."""
    val = Fraction(e_seq[-1])
    for e in reversed(e_seq[:-1]):
        val = e - 1 / val
    return val


def catalog_square(surface, e, m0_description):
    """Self-intersection of a catalog class, from its surface's own Gram.

    P2 has the 1x1 Gram [[1]] on the line L, F_e the 2x2 Gram
    [[-e, 1], [1, 0]] on the section C and the fibre F; the class is read
    off its description ("L", "mL" or "C + fF") and squared in integers.
    """
    if surface == "P2":
        assert e is None
        gram = [[1]]
        mult = m0_description[:-1]
        assert m0_description.endswith("L") and (mult == "" or mult.isdigit())
        coeffs = [int(mult or "1")]
    else:
        assert surface == f"F{e}" and e >= 0
        gram = [[-e, 1], [1, 0]]
        head, sep, fmult = m0_description[:-1].partition(" + ")
        assert (head, sep) == ("C", " + ") and m0_description.endswith("F")
        assert fmult.isdigit()
        coeffs = [1, int(fmult)]
    n = len(coeffs)
    return sum(coeffs[i] * gram[i][j] * coeffs[j] for i in range(n) for j in range(n))
