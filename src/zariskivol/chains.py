"""Hirzebruch-Jung chains and block assemblies of them.

A chain is a sequence [e_1, ..., e_r] of integers at least 2, realized as a
string of rational curves with self-intersections -e_i and consecutive
intersections 1.  Chain determinants follow the continued fraction
recursion, and the canonical negative part of the chain has coefficients
given by suffix determinants over the full determinant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvalidChainError, InvariantViolationError, ValidationError
from .invariants import ExceptionalSolution, exceptional_solution
from .lattice import DivisorClass, IntersectionLattice, build_lattice
from .zariski import ZariskiDecomposition


def hj_determinant(e_seq: Sequence[int]) -> int:
    """Continued fraction determinant [e_1, ..., e_r].

    Empty product is 1.  Values below 2 are allowed here (with a warning)
    because the recursion itself is defined for any integers; chain
    construction is where validity is enforced.  The residual check of
    _certified_determinants certifies the value as (-1)^r det T for the
    tridiagonal Gram matrix T of the chain.
    """
    seq = list(e_seq)
    for e in seq:
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValidationError(f"chain entries must be integers, got {e!r}")
    if any(e < 2 for e in seq):
        warnings.warn("chain entry below 2; determinant recursion still applies", stacklevel=2)
    return _certified_determinants(seq)[0]


def _suffix_determinants(seq: Sequence[int]) -> list[int]:
    # dets[k] is the determinant of [e_{k+1}, ..., e_r]; dets[r] = 1.
    r = len(seq)
    dets = [0] * (r + 2)
    dets[r] = 1
    dets[r + 1] = 0
    for k in range(r - 1, -1, -1):
        dets[k] = seq[k] * dets[k + 1] - dets[k + 2]
    return dets[: r + 1]


def _certified_determinants(seq: Sequence[int]) -> list[int]:
    """Suffix determinants [n, lambda_1, ..., lambda_r], checked exactly.

    The certificate is the integer residual T lambda = (-n, 0, ..., 0) with
    lambda_r = 1, for the tridiagonal Gram matrix T of the chain; row k
    reads lambda_{k-1} - e_k lambda_k + lambda_{k+1} = 0 with lambda_0 = n
    and lambda_{r+1} = 0.  It proves, for any integer entries:

    * det T = (-1)^r n.  Row r of adj(T) T lambda = det(T) lambda gives
      C_{1,r} (-n) = det T, and the cofactor C_{1,r} is (-1)^(1+r)
      because deleting row 1 and column r of T leaves a unit triangular
      block.
    * n, lambda_1, ..., lambda_{r-1} are the determinants of the trailing
      principal blocks of -T: rows 1..r with lambda_r = 1 are exactly the
      continuant recursion for [e_k, ..., e_r].
    """
    dets = _suffix_determinants(seq)
    r = len(seq)
    padded = dets + [0]
    if dets[r] != 1 or any(
        padded[k] - seq[k] * padded[k + 1] + padded[k + 2] != 0 for k in range(r)
    ):
        raise InvariantViolationError("suffix determinant formula disagrees with the solve")
    return dets


def _tridiagonal(seq: Sequence[int]) -> list[list[int]]:
    r = len(seq)
    return [
        [
            -seq[i] if i == j else (1 if abs(i - j) == 1 else 0)
            for j in range(r)
        ]
        for i in range(r)
    ]


@dataclass(frozen=True)
class ChainSpec:
    e_seq: tuple[int, ...]
    n: int
    lambdas: tuple[int, ...]
    gamma: tuple[Fraction, ...]
    lattice: IntersectionLattice

    def negative_part(self) -> ZariskiDecomposition:
        """The canonical negative part of the chain as a decomposition."""
        coeffs = tuple(self.gamma)
        negative = DivisorClass(self.lattice, coeffs)
        support = tuple(range(len(self.e_seq)))
        return ZariskiDecomposition(self.lattice.zero(), negative, support, coeffs)


def chain_spec(e_seq: Sequence[int], label_prefix: str = "C") -> ChainSpec:
    """Validate a chain and compute its determinant data.

    The coefficient formula (suffix determinant over full determinant) is
    certified by the integer residual of _certified_determinants: gamma
    pairs -1 with the first curve and 0 with the rest, so the Gram matrix
    T must send the suffix determinants to (-n, 0, ..., 0).  The same
    residual makes n, lambda_1, ..., lambda_{r-1} the trailing principal
    minors of -T; their strict decrease down to lambda_r = 1 makes them all
    positive, so -T is positive definite by Sylvester's criterion, T is
    negative definite and nonsingular, and gamma is the unique solution.
    """
    seq = tuple(e_seq)
    if not seq:
        raise InvalidChainError("a chain needs at least one curve")
    for e in seq:
        if not isinstance(e, int) or isinstance(e, bool):
            raise InvalidChainError(f"chain entries must be integers, got {e!r}")
        if e < 2:
            raise InvalidChainError(f"chain entry {e} is below 2")
    dets = _certified_determinants(seq)
    for a, b in zip(dets, dets[1:]):
        if a <= b:
            raise InvalidChainError("chain determinants fail to decrease strictly")
    n = dets[0]
    lambdas = tuple(dets[1:])
    gamma = tuple(Fraction(lam, n) for lam in lambdas)
    names = tuple(f"{label_prefix}{i + 1}" for i in range(len(seq)))
    lattice = build_lattice(names, _tridiagonal(seq))
    return ChainSpec(seq, n, lambdas, gamma, lattice)


def chain_exceptional(spec: ChainSpec, pattern: Sequence[int], capped: bool = True) -> ExceptionalSolution:
    """Exceptional solution for a pattern against the chain's own curves."""
    return exceptional_solution(spec.lattice, spec.negative_part(), pattern, capped)


@dataclass(frozen=True)
class ChainEqualityCase:
    kind: str
    slack: Fraction


def classify_chain_equality(spec: ChainSpec, pattern: Sequence[int]) -> ChainEqualityCase:
    """Classify the slack of the chain slope inequality at a pattern.

    The slack sum((beta_i - gamma_i) t_i) is zero exactly when the pattern
    is zero (case_i) or touches only the first curve (case_ii); any other
    pattern gives strictly positive slack.  Both facts are enforced.
    """
    sol = chain_exceptional(spec, pattern, capped=True)
    slack = sum(
        ((b - g) * t for b, g, t in zip(sol.coeffs, spec.gamma, sol.pattern)),
        Fraction(0),
    )
    if all(t == 0 for t in sol.pattern):
        kind = "case_i"
    elif sol.pattern[0] >= 1 and all(t == 0 for t in sol.pattern[1:]):
        kind = "case_ii"
    else:
        kind = "strict"
    if slack < 0:
        raise InvariantViolationError("chain slope slack is negative")
    if (slack == 0) != (kind != "strict"):
        raise InvariantViolationError(
            f"slack {slack} does not match classification {kind}"
        )
    return ChainEqualityCase(kind, slack)


def foliation_negative_part(
    chain_specs: Sequence[ChainSpec],
) -> tuple[IntersectionLattice, ZariskiDecomposition]:
    """Assemble disjoint chains into one lattice with block negative part."""
    if not chain_specs:
        raise ValidationError("need at least one chain")
    names: list[str] = []
    sizes = [len(s.e_seq) for s in chain_specs]
    total = sum(sizes)
    gram = [[0] * total for _ in range(total)]
    offset = 0
    gamma: list[Fraction] = []
    for j, spec in enumerate(chain_specs):
        r = len(spec.e_seq)
        for i in range(r):
            names.append(f"T{j + 1}.C{i + 1}")
            for k in range(r):
                gram[offset + i][offset + k] = spec.lattice.gram[i][k]
        gamma.extend(spec.gamma)
        offset += r
    lattice = build_lattice(names, gram)
    negative = DivisorClass(lattice, tuple(gamma))
    support = tuple(range(total))
    dec = ZariskiDecomposition(lattice.zero(), negative, support, tuple(gamma))
    return lattice, dec


def foliation_e(chain_specs: Sequence[ChainSpec], m: int = 1) -> Fraction:
    """Slope supremum of m times the assembled negative part: exactly m.

    The slope supremum is max_k gamma_k / B_kk with B = (-G)^-1: B >= 0
    (see e_sup), so by the mediant inequality no vertex beats the singleton
    attaining it.  B is block-diagonal over the disjoint chains, so this is
    the largest of the per-chain values.  On a chain [e_1, ..., e_r] let P_j be
    the continuant [e_1, ..., e_j], with P_0 = 1.  By the tridiagonal
    inverse B_kk = P_{k-1} lambda_k / n, and gamma_k = lambda_k / n, so
    gamma_k / B_kk = 1 / P_{k-1}.  Since P_1 = e_1 >= 2 and every
    e_j >= 2 makes the continuants increase strictly, the maximum is 1, at
    the first curve.  Scaling N by m scales gamma and nothing else, so the
    assembly of m N has slope m, and no lattice is assembled or solved.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValidationError("scale must be a positive integer")
    if not chain_specs:
        raise ValidationError("need at least one chain")
    return Fraction(m)
