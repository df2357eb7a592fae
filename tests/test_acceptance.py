"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single
"ACCEPTANCE <n> PASS/FAIL" line with timing and volume details, so the
suite's terminal output doubles as the acceptance report.  Runtime caps
are asserted where the criterion pins one.
"""

import json
import time
from fractions import Fraction
from itertools import product

from zariskivol import build_lattice, divisor
from zariskivol.chains import (
    chain_spec,
    classify_chain_equality,
    foliation_e,
    foliation_negative_part,
)
from zariskivol.cli import main
from zariskivol.errors import NotPseudoEffectiveError
from zariskivol.invariants import (
    e_of_divisor_pair,
    e_sup,
    e_zero,
    verify_e_inequality,
    weighted_square_inequality,
)
from zariskivol.lattice import pair, solve_against_gram
from zariskivol.noether import (
    catalog_degree_dminus1,
    log_pair_iterate,
    pencil_bound,
    ps_index_bound,
)
from zariskivol.zariski import decomposition_identities, zariski_decompose

from generators import random_config, random_split
from oracles import cf_value, chain_gamma_oracle, zariski_brute

from test_cli import (
    CHAINS_CONFIG,
    GOLDEN_CONFIG,
    LOGPAIR_CONFIG,
    NOT_PSEF_CONFIG,
    PENCIL_CONFIG,
    write,
)


class report_line:
    """Prints the ACCEPTANCE line for one criterion, pass or fail."""

    def __init__(self, capsys, number):
        self.capsys = capsys
        self.number = number
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        with self.capsys.disabled():
            print(f"\nACCEPTANCE {self.number} {status} {self.detail}".rstrip())
        return False


def test_criterion_1_decomposition_matches_brute_force(capsys, rng):
    """Iterative decomposition agrees with the subset oracle both ways."""
    with report_line(capsys, 1) as line:
        elapsed = 0.0
        successes = failures = 0
        while successes < 200:
            lattice, d = random_config(rng)
            candidates = zariski_brute(
                [list(row) for row in lattice.gram], list(d.coeffs)
            )
            start = time.monotonic()
            try:
                dec = zariski_decompose(lattice, d)
            except NotPseudoEffectiveError:
                dec = None
            elapsed += time.monotonic() - start
            if dec is None:
                assert candidates == []
                failures += 1
                continue
            assert candidates == [tuple(dec.negative.coeffs)]
            successes += 1
        assert elapsed < 10
        line.detail = (
            f"{successes} successes (unique oracle candidate each), "
            f"{failures} rejections (no candidate), {elapsed:.2f}s < 10s"
        )


def test_criterion_2_chain_coefficient_formula(capsys):
    """Suffix-determinant coefficients equal the tridiagonal solve exactly.

    The cap times chain_spec alone; the oracle comparison runs after the
    clock stops and is reported separately.
    """
    with report_line(capsys, 2) as line:
        seqs = [
            seq
            for r in range(1, 7)
            for seq in product((2, 3, 4, 5), repeat=r)
        ]
        start = time.monotonic()
        specs = [chain_spec(seq) for seq in seqs]
        elapsed = time.monotonic() - start
        start = time.monotonic()
        count = 0
        for seq, spec in zip(seqs, specs):
            assert list(spec.gamma) == chain_gamma_oracle(seq)
            assert spec.n == cf_value(seq).numerator
            count += 1
        oracle_elapsed = time.monotonic() - start
        assert count == 5460
        assert elapsed < 5
        line.detail = (
            f"{count} chains, lengths <= 6, chain_spec {elapsed:.2f}s < 5s "
            f"(oracle check {oracle_elapsed:.1f}s, untimed)"
        )


def test_criterion_3_chain_slack_classification(capsys):
    """Slack >= 0 everywhere, zero exactly on the two equality shapes."""
    with report_line(capsys, 3) as line:
        start = time.monotonic()
        calls = zeros = 0
        for r in range(1, 5):
            for seq in product((2, 3, 4, 5), repeat=r):
                spec = chain_spec(seq)
                for pattern in product((0, 1, 2, 3), repeat=r):
                    case = classify_chain_equality(spec, pattern)
                    if not any(pattern):
                        assert case.kind == "case_i"
                    elif pattern[0] > 0 and not any(pattern[1:]):
                        assert case.kind == "case_ii"
                    else:
                        assert case.kind == "strict"
                    assert case.slack >= 0
                    assert (case.slack == 0) == (case.kind != "strict")
                    if case.slack == 0:
                        zeros += 1
                    calls += 1
        elapsed = time.monotonic() - start
        assert elapsed < 30
        line.detail = (
            f"{calls} patterns over lengths <= 4, {zeros} equality cases, "
            f"{elapsed:.2f}s < 30s"
        )


def test_criterion_4_assembly_slope_scaling(capsys, rng):
    """Assembly slope scales linearly in m, stays <= m, and is 1 per chain."""
    with report_line(capsys, 4) as line:
        start = time.monotonic()
        assemblies = 0
        while assemblies < 50:
            seqs = [
                tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 2)))
                for _ in range(rng.randint(2, 3))
            ]
            if sum(len(s) for s in seqs) > 5:
                continue
            specs = [chain_spec(seq) for seq in seqs]
            base = foliation_e(specs, 1)
            assert base == e_sup(*foliation_negative_part(specs)).value
            for m in range(1, 6):
                value = foliation_e(specs, m)
                assert value == m * base
                assert value <= m
            assemblies += 1
        singles = 0
        for r in range(1, 6):
            for seq in product((2, 3, 4, 5), repeat=r):
                specs = [chain_spec(seq)]
                assert foliation_e(specs, 1) == 1
                assert e_sup(*foliation_negative_part(specs)).value == 1
                singles += 1
        elapsed = time.monotonic() - start
        line.detail = (
            f"{assemblies} assemblies x m in 1..5, "
            f"{singles} single chains of length <= 5 all at slope 1, {elapsed:.2f}s"
        )


def test_criterion_5_slope_supremum_capped_by_diagonal(capsys, rng):
    """e_sup <= e_zero on decomposed configurations; equality on singletons."""
    with report_line(capsys, 5) as line:
        start = time.monotonic()
        checked = singletons = 0
        while checked < 200:
            lattice, d = random_config(rng)
            try:
                dec = zariski_decompose(lattice, d)
            except NotPseudoEffectiveError:
                continue
            if not dec.support:
                continue
            result = e_sup(lattice, dec)
            assert result.value <= result.e_zero == e_zero(dec)
            if len(dec.support) == 1:
                assert result.value == result.e_zero
                singletons += 1
            checked += 1
        elapsed = time.monotonic() - start
        assert singletons >= 20
        line.detail = (
            f"{checked} negative parts, {singletons} singleton supports "
            f"with equality, {elapsed:.2f}s"
        )


def test_criterion_6_slope_inequality_slack(capsys, rng):
    """Slack of the slope inequality is nonnegative on random (N, A) pairs."""
    with report_line(capsys, 6) as line:
        start = time.monotonic()
        checked = scaled_checked = 0
        while checked < 500:
            lattice, d = random_config(rng)
            try:
                dec = zariski_decompose(lattice, d)
            except NotPseudoEffectiveError:
                continue
            if not dec.support:
                continue
            pattern = [rng.randint(0, 6) for _ in dec.support]
            if not any(pattern):
                continue
            f = solve_against_gram(lattice, dec.support, pattern)
            n_mult = rng.randint(1, 4)
            a = n_mult * f
            fibre_data = None
            if checked % 5 == 0:
                fibre_data = (n_mult, f)
            report = verify_e_inequality(lattice, dec, a, fibre_data)
            assert report.base_slack >= 0
            if fibre_data is not None:
                assert report.scaled_slack >= 0
                scaled_checked += 1
            checked += 1
        elapsed = time.monotonic() - start
        line.detail = (
            f"{checked} pairs with patterns in [0,6], "
            f"{scaled_checked} also in scaled fibre form, {elapsed:.2f}s"
        )


def test_criterion_7_star_lift_inequalities(capsys, rng):
    """Star-lift comparisons and the weighted square bound on random splits."""
    with report_line(capsys, 7) as line:
        start = time.monotonic()
        for _ in range(200):
            lattice, d, m, z = random_split(rng)
            rep = decomposition_identities(lattice, d, m, z)
            assert rep.m_nef and rep.z_effective
            assert rep.z_dominates_zstar
            assert rep.zstar_effective
            assert rep.mstar_dominates_lower
            assert rep.splits_positive
            assert rep.square_chain_ok
            assert rep.triple_consistent
            weighted = weighted_square_inequality(lattice, m, z)
            assert weighted.ok
        elapsed = time.monotonic() - start
        line.detail = (
            f"200 splits with M nef and Z >= 0: square chain, star-lift "
            f"dominations, all-equal triple, weighted bound, {elapsed:.2f}s"
        )


def test_criterion_8_closed_form_fixtures(capsys):
    """Closed-form bounds, index identity, curve-pair iteration, catalog."""
    with report_line(capsys, 8) as line:
        assert pencil_bound(5, 2) == Fraction(8, 3)

        for k in range(1, 21):
            lam = Fraction(k, 2)
            assert ps_index_bound(lam) == 1 / (lam**2 * (1 + lam))

        lattice = build_lattice(("A", "C"), ((1, 0), (0, -2)))
        result = log_pair_iterate(lattice, divisor(lattice, (1, 0)), [("C", "1/2")], 2)
        assert result.alphas == (Fraction(1, 2),)
        assert result.e_zero_scaled == 2
        assert result.e_zero_cap == 4
        assert result.e_zero_scaled <= result.e_zero_cap

        entries_seen = 0
        for d in range(2, 51):
            entries = catalog_degree_dminus1(d)
            assert entries
            assert all(entry.m0_squared == d - 1 for entry in entries)
            entries_seen += len(entries)
        line.detail = (
            "pencil_bound(5,2) = 8/3, index identity for 20 rationals <= 10, "
            f"iteration fixture alpha = 1/2 with cap 2 <= 4, "
            f"{entries_seen} catalog entries for d in [2,50]"
        )


def test_criterion_9_golden_audit_fixture(capsys, golden):
    """The worked split reproduces every hand-derived value exactly."""
    with report_line(capsys, 9) as line:
        lattice, divs = golden
        dec = zariski_decompose(lattice, divs["D"])
        assert dec.negative.coeffs == (0, 0, Fraction(1, 2))
        assert pair(dec.positive, dec.positive) == Fraction(13, 2)
        assert e_of_divisor_pair(lattice, dec, divs["M"]) == 0

        rep = decomposition_identities(lattice, divs["D"], divs["M"], divs["Z"])
        assert rep.squares[0] == Fraction(13, 2)
        assert rep.square_chain_ok and rep.splits_positive

        weighted = weighted_square_inequality(lattice, divs["M"], divs["Z"])
        assert weighted.equality
        assert weighted.lhs == Fraction(13, 2)
        assert weighted.terms == (4, 2, Fraction(1, 2), 0)
        line.detail = (
            "N = (1/2)G2, P^2 = 13/2, e_M = 0, weighted square bound met "
            "with equality 13/2 = 4 + 2 + 1/2 + 0"
        )


def test_criterion_10_cli_determinism_and_exit_codes(capsys, tmp_path, rng):
    """JSON reports are byte-stable and canonical; exit codes as documented."""
    with report_line(capsys, 10) as line:
        golden_cfg = write(tmp_path, GOLDEN_CONFIG, "golden.json")
        pencil_cfg = write(tmp_path, PENCIL_CONFIG, "pencil.json")
        logpair_cfg = write(tmp_path, LOGPAIR_CONFIG, "logpair.json")
        chains_cfg = write(tmp_path, CHAINS_CONFIG, "chains.json")
        bad_cfg = write(tmp_path, NOT_PSEF_CONFIG, "notpsef.json")

        invocations = [
            ["zariski", "--config", golden_cfg, "--divisor", "D", "--json"],
            ["volume", "--config", golden_cfg, "--divisor", "Z", "--json"],
            ["einv", "--config", golden_cfg, "--divisor", "D", "--m", "M", "--json"],
            ["chain", "--config", chains_cfg, "--json"],
            ["foliation", "--e", "2,2", "--e", "3", "--scale", "2", "--json"],
            ["logpair", "--config", logpair_cfg, "--json"],
            ["bounds", "--pencil", "--h0", "5", "--einv", "2", "--json"],
            ["bounds", "--lambda", "3", "--json"],
            [
                "audit", "--config", golden_cfg,
                "--divisor", "D", "--m", "M", "--z", "Z", "--json",
            ],
            [
                "audit", "--config", pencil_cfg,
                "--divisor", "D", "--m", "M", "--z", "Z",
                "--fibre", "F", "--fibre-mult", "3", "--json",
            ],
            ["catalog", "--d", "7", "--json"],
        ]
        for argv in invocations:
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert main(argv) == 0
            second = capsys.readouterr().out
            assert first == second
            assert first == json.dumps(json.loads(first), indent=2) + "\n"

        usage_cases = [
            [],
            ["zariski", "--config", golden_cfg],
            ["chain", "--config", golden_cfg],
            ["logpair", "--config", golden_cfg],
        ]
        for argv in usage_cases:
            assert main(argv) == 1
            capsys.readouterr()

        validation_cases = [
            ["zariski", "--config", golden_cfg, "--divisor", "missing"],
            ["catalog", "--d", "1"],
            ["bounds", "--lambda", "0"],
        ]
        for argv in validation_cases:
            assert main(argv) == 2
            capsys.readouterr()

        assert main(["zariski", "--config", bad_cfg, "--divisor", "D"]) == 3
        capsys.readouterr()

        line.detail = (
            f"{len(invocations)} commands byte-identical across reruns and "
            "canonically formatted; exit codes 1/2/3 verified"
        )
