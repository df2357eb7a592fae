"""The three benchmark workloads: seeded inputs, timed operations, checks.

Each workload is a fixed population of operations (one "pass") built from
a seed.  Strata (chain length, support size, command family) have fixed
counts; the seed only varies the lattices, chains and values inside them.
Every operation carries an independent check that does not call the code
under test: it uses the integer recurrences, small Fraction solves and
shape rules below.

The library is handed in as a namespace of already imported modules, so
that the import itself can be timed as part of set-up.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable, Optional

@dataclass
class Op:
    """One timed call plus what the harness needs to judge its result."""

    stratum: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # failure message, or None
    render: Callable[[Any], str]  # canonical text fed into the digest
    key: Any = None  # ops sharing a key must give identical renders


@dataclass
class Workload:
    name: str
    ops: list[Op]
    strata: dict[str, int] = field(default_factory=dict)
    fingerprint: str = ""  # hash of the generated inputs


def scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


# ---------------------------------------------------------------------------
# Independent arithmetic used by the checks.


def cf_numerator(seq) -> int:
    """Numerator of the continued fraction e_1 - 1/(e_2 - 1/...), forward."""
    prev, cur = 1, seq[0]
    for e in seq[1:]:
        prev, cur = cur, e * cur - prev
    return cur


def tridiagonal_residual(seq, x) -> list:
    """G x for the chain Gram G (diagonal -e_i, neighbours 1), in O(r)."""
    r = len(seq)
    out = []
    for i in range(r):
        v = -seq[i] * x[i]
        if i > 0:
            v += x[i - 1]
        if i + 1 < r:
            v += x[i + 1]
        out.append(v)
    return out


def solve_chain(seq, rhs) -> list[Fraction]:
    """Solve (-G) x = rhs for a chain Gram by the Thomas algorithm."""
    r = len(seq)
    diag = [Fraction(e) for e in seq]
    b = [Fraction(v) for v in rhs]
    for i in range(1, r):
        f = Fraction(-1) / diag[i - 1]
        diag[i] += f
        b[i] -= f * b[i - 1]
    x = [Fraction(0)] * r
    for i in range(r - 1, -1, -1):
        nxt = x[i + 1] if i + 1 < r else 0
        x[i] = (b[i] + nxt) / diag[i]
    return x


def solve_dense(matrix, rhs) -> list[Fraction]:
    """Gauss-Jordan over Fraction for the small systems of generation."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(matrix, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [v / p for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def gram_pairings(gram, coeffs) -> list:
    """Pairing of a class with every basis class."""
    return [sum(c * row[i] for c, row in zip(coeffs, gram) if c) for i in range(len(gram))]


def chain_kind(pattern) -> str:
    if all(t == 0 for t in pattern):
        return "case_i"
    if pattern[0] >= 1 and all(t == 0 for t in pattern[1:]):
        return "case_ii"
    return "strict"


# ---------------------------------------------------------------------------
# chain_sweep: chain_spec plus four classifications per op.

# Op counts per chain length.  The uneven counts put the median inside the
# length-5 stratum and p99 inside the length-8 stratum, not on a boundary.
CHAIN_COUNTS = {1: 100, 2: 110, 3: 120, 4: 120, 5: 140, 6: 130, 7: 140, 8: 140}
CHAIN_PATTERNS = 4


def _check_chain(seq, patterns, out) -> Optional[str]:
    spec, cases = out
    n = cf_numerator(seq)
    if spec.e_seq != tuple(seq) or spec.n != n:
        return f"chain {seq}: n = {spec.n}, continued fraction gives {n}"
    scaled_gamma = [g * n for g in spec.gamma]
    if any(v.denominator != 1 for v in scaled_gamma):
        return f"chain {seq}: n*gamma is not integral"
    residual = tridiagonal_residual(seq, [int(v) for v in scaled_gamma])
    if residual != [-n] + [0] * (len(seq) - 1):
        return f"chain {seq}: residual {residual}"
    for pattern, case in zip(patterns, cases):
        kind = chain_kind(pattern)
        if case.kind != kind or case.slack < 0 or (case.slack == 0) != (kind != "strict"):
            return f"chain {seq} pattern {pattern}: {case.kind} slack {case.slack}, expected {kind}"
    return None


def _render_chain(out) -> str:
    spec, cases = out
    return f"{spec.n} {list(spec.gamma)} " + " ".join(f"{c.kind}:{c.slack}" for c in cases)


def build_chain_sweep(zv, rng: random.Random, scale: float, workdir: str) -> Workload:
    chains = zv.chains
    ops = []
    strata = {}
    for length, count in CHAIN_COUNTS.items():
        k = scaled(count, scale)
        strata[f"len{length}"] = k
        for _ in range(k):
            seq = [rng.randint(2, 7) for _ in range(length)]
            patterns = [[rng.randint(0, 3) for _ in range(length)] for _ in range(CHAIN_PATTERNS)]

            def call(seq=seq, patterns=patterns):
                spec = chains.chain_spec(seq)
                return spec, [chains.classify_chain_equality(spec, p) for p in patterns]

            ops.append(
                Op(
                    f"len{length}",
                    call,
                    lambda out, seq=seq, patterns=patterns: _check_chain(seq, patterns, out),
                    _render_chain,
                    ("chain", tuple(seq), tuple(map(tuple, patterns))),
                )
            )
    rng.shuffle(ops)
    return Workload("chain_sweep", ops, strata, _fingerprint(op.key for op in ops))


# ---------------------------------------------------------------------------
# slope_sweep: e_sup-dominated ops of two kinds at stratified support sizes.

# (kind, support size) -> op count.  Kind "a" is foliation_e on a two-chain
# block assembly; kind "b" is decompose + e_sup + verify on one chain
# hanging off H.  p50 lands among the s = 3 ops; the ops above p99 are the
# s = 9 and s = 8 cells, so p99 sits inside the (a, 7) cell.
SLOPE_COUNTS = {
    ("a", 2): 84, ("b", 2): 85,
    ("a", 3): 70, ("b", 3): 70,
    ("a", 4): 45, ("b", 4): 45,
    ("a", 5): 25, ("b", 5): 25,
    ("a", 6): 14, ("b", 6): 14,
    ("a", 7): 10, ("b", 7): 8,
    ("a", 8): 2, ("b", 8): 2,
    ("b", 9): 1,
}  # fmt: skip


def _build_assembly(zv, rng, s):
    sizes = [k for k in ((s + 1) // 2, s // 2) if k]
    specs = [zv.chains.chain_spec([rng.randint(2, 7) for _ in range(k)]) for k in sizes]
    m = rng.randint(1, 5)

    def call():
        return zv.chains.foliation_e(specs, m)

    def check(value):
        if value != m:
            return f"foliation_e({[sp.e_seq for sp in specs]}, {m}) = {value}, expected {m}"
        return None

    key = ("a", tuple(sp.e_seq for sp in specs), m)
    return Op(f"a{s}", call, check, str, key)


def _build_hanging_chain(zv, rng, s):
    seq = [rng.randint(2, 7) for _ in range(s)]
    h_sq = rng.randint(1, 3)
    meet = rng.randrange(s)
    t = [1 if i == meet else 0 for i in range(s)]
    x = solve_chain(seq, t)  # P = H + x.C is orthogonal to the chain
    ncoef = [math.floor(v) + rng.randint(1, 2) for v in x]
    expected_n = [Fraction(c) - v for c, v in zip(ncoef, x)]
    r = s + 1
    gram = [[0] * r for _ in range(r)]
    gram[0][0] = h_sq
    gram[0][meet + 1] = gram[meet + 1][0] = 1
    for i, e in enumerate(seq):
        gram[i + 1][i + 1] = -e
        if i + 1 < s:
            gram[i + 1][i + 2] = gram[i + 2][i + 1] = 1
    names = ["H"] + [f"C{i + 1}" for i in range(s)]
    lat = zv.lattice.build_lattice(names, gram)
    d_coeffs = [1] + ncoef
    d = zv.lattice.divisor(lat, d_coeffs)
    a = zv.lattice.divisor(lat, [rng.randint(1, 3)] + [0] * s)
    expected = [Fraction(0)] + expected_n

    def call():
        dec = zv.zariski.zariski_decompose(lat, d)
        res = zv.invariants.e_sup(lat, dec)
        slack = zv.invariants.verify_e_inequality(lat, dec, a)
        return dec, res, slack

    def check(out):
        dec, res, slack = out
        neg = list(dec.negative.coeffs)
        if neg != expected:
            return f"chain {seq} off H: N = {neg}, expected {expected}"
        pos = [Fraction(c) - v for c, v in zip(d_coeffs, neg)]
        if list(dec.positive.coeffs) != pos:
            return f"chain {seq} off H: P + N != D"
        pairings = gram_pairings(gram, pos)
        if any(v < 0 for v in pairings) or any(pairings[i] != 0 for i in range(1, r)):
            return f"chain {seq} off H: P is not nef and orthogonal to the support"
        if dec.support != tuple(range(1, r)) or any(g <= 0 for g in dec.gamma):
            return f"chain {seq} off H: support {dec.support}"
        ez = max(g * seq[i - 1] for i, g in zip(dec.support, dec.gamma))
        if res.e_zero != ez or not 0 < res.value <= ez:
            return f"chain {seq} off H: e_sup {res.value}, e_zero {res.e_zero}, own {ez}"
        if slack.base_slack < 0:
            return f"chain {seq} off H: slack {slack.base_slack}"
        return None

    def render(out):
        dec, res, slack = out
        return (
            f"{list(dec.gamma)} {res.value} {res.attained} {res.witness_pattern} "
            f"{res.witness_ray} {slack.e_value} {slack.base_slack}"
        )

    key = ("b", tuple(seq), h_sq, meet, tuple(ncoef), a.coeffs[0])
    return Op(f"b{s}", call, check, render, key)


def build_slope_sweep(zv, rng: random.Random, scale: float, workdir: str) -> Workload:
    ops = []
    strata = {}
    for (kind, s), count in SLOPE_COUNTS.items():
        k = scaled(count, scale)
        strata[f"{kind}{s}"] = k
        builder = _build_assembly if kind == "a" else _build_hanging_chain
        ops.extend(builder(zv, rng, s) for _ in range(k))
    rng.shuffle(ops)
    return Workload("slope_sweep", ops, strata, _fingerprint(op.key for op in ops))


# ---------------------------------------------------------------------------
# cli_mix: in-process cli.main over all nine commands.

README_WORKSPACE = {
    "lattice": {"curves": ["H", "G1", "G2"], "gram": [[1, 1, 0], [1, -2, 1], [0, 1, -2]]},
    "divisors": {"D": [2, 1, 1], "M": [2, 0, 0], "Z": [0, 1, 1]},
    "scenario": {"h0": 3, "kappa_nonneg": True},
    "chains": [{"e": [2, 2]}, {"e": [3]}],
    "log_pair": {"K": "D", "delta": [{"curve": "G1", "a": "1/2"}], "n": 2},
}
PENCIL_WORKSPACE = {
    "lattice": {
        "curves": ["F", "G1", "G2", "H"],
        "gram": [[0, 1, 0, 1], [1, -2, 1, 0], [0, 1, -2, 0], [1, 0, 0, 1]],
    },
    "divisors": {"D": [3, 1, 1, 0], "M": [3, 0, 0, 0], "Z": [0, 1, 1, 0], "F": [1, 0, 0, 0]},
    "scenario": {"h0": 2, "pencil": True, "DF": 1},
}
LOGPAIR_WORKSPACE = {
    "lattice": {"curves": ["A", "C"], "gram": [[1, 0], [0, -2]]},
    "divisors": {"K": [1, 0]},
    "log_pair": {"K": "K", "delta": [{"curve": "C", "a": "1/2"}], "n": 2},
}
NOT_PSEF_WORKSPACE = {
    "lattice": {"curves": ["C1", "C2"], "gram": [[-1, 2], [2, -1]]},
    "divisors": {"D": [-1, -1]},
}

# Ranks of the generated surface-like workspaces; the seed varies the rest.
GENERATED_RANKS = (4, 5, 6, 7, 8, 9, 10, 12)


def _rat(v: Fraction):
    return int(v) if v.denominator == 1 else str(v)


def _log_pair_section(zv, rng, names, gram, cluster):
    """A log pair on the cluster whose components satisfy adjunction.

    K = x H + sum y_C C over the chosen components, with y solved so that
    K.C = -2 - C^2 on each of them.  Returns the divisor and section, or
    None when the iteration does not accept the candidate.
    """
    err = zv.errors.ZariskivolError
    for _ in range(12):
        comps = sorted(rng.sample(cluster, rng.randint(1, min(2, len(cluster)))))
        x = rng.randint(-1, 1)
        matrix = [[gram[i][j] for j in comps] for i in comps]
        rhs = [-2 - gram[i][i] - x * gram[0][i] for i in comps]
        y = solve_dense(matrix, rhs)
        k = [Fraction(0)] * len(names)
        k[0] = Fraction(x)
        for i, v in zip(comps, y):
            k[i] = v
        a = [rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1))) for _ in comps]
        total = list(k)
        for i, av in zip(comps, a):
            total[i] += av
        n = 1
        for v in total:
            n = n * v.denominator // math.gcd(n, v.denominator)
        if n > 60:
            continue
        lat = zv.lattice.build_lattice(names, gram)
        delta = [(names[i], av) for i, av in zip(comps, a)]
        try:
            zv.noether.log_pair_iterate(lat, zv.lattice.divisor(lat, k), delta, n)
        except err:
            continue
        section = {"K": "K", "delta": [{"curve": c, "a": _rat(av)} for c, av in delta], "n": n}
        return [_rat(v) for v in k], section
    return None


def _generated_workspace(zv, rng, rank):
    """Surface-like lattice: H, a negative chain cluster, and (-1)-curves E.

    D = M + Z with M = aH nef and Z effective on the cluster; Q = -H is not
    pseudo-effective.  Candidates whose decomposition, slope or audit the
    library rejects are redrawn, so every generated command succeeds.
    """
    err = zv.errors.ZariskivolError
    for _ in range(1000):
        k = rng.randint(2, min(4, rank - 2))
        e_count = rank - 1 - k
        names = ["H"] + [f"C{i + 1}" for i in range(k)] + [f"E{j + 1}" for j in range(e_count)]
        gram = [[0] * rank for _ in range(rank)]
        gram[0][0] = rng.randint(1, 3)
        for i in range(1, k + 1):
            gram[i][i] = -rng.randint(2, 4)
            gram[0][i] = gram[i][0] = rng.randint(0, 1)
            if i < k:
                gram[i][i + 1] = gram[i + 1][i] = 1
        for j in range(k + 1, rank):
            gram[j][j] = -1
            gram[0][j] = gram[j][0] = 1
            if rng.random() < 0.5:
                c = rng.randint(1, k)
                gram[j][c] = gram[c][j] = 1
        a = rng.randint(1, 3)
        m = [a] + [0] * (rank - 1)
        z = [0] + [rng.randint(0, 2) for _ in range(k)] + [0] * e_count
        if not any(z):
            continue
        d = [mi + zi for mi, zi in zip(m, z)]
        minus_one = names[k + 1 : k + 3]
        data = {
            "lattice": {"curves": names, "gram": gram},
            "divisors": {"D": d, "M": m, "Z": z, "Q": [-1] + [0] * (rank - 1)},
            "scenario": {
                "h0": rng.randint(3, 5),
                "kappa_nonneg": rng.random() < 0.5,
                "minus_one_classes": minus_one,
            },
        }
        try:
            ws = zv.config.parse_workspace(data)
            lat = ws.lattice
            d_cls, m_cls, z_cls = (ws.divisor(label) for label in "DMZ")
            dec = zv.zariski.zariski_decompose(lat, d_cls)
            if not dec.support or len(dec.support) > 5:
                continue
            for cls in (m_cls, z_cls):
                zv.zariski.zariski_decompose(lat, cls)
            zv.invariants.e_sup(lat, dec)
            zv.invariants.verify_e_inequality(lat, dec, m_cls)
            zv.noether.surface_audit(lat, d_cls, m_cls, z_cls, ws.scenario)
        except err:
            continue
        log_pair = _log_pair_section(zv, rng, names, gram, list(range(1, k + 1)))
        if log_pair is not None:
            data["divisors"]["K"], data["log_pair"] = log_pair
        return zv.config.parse_workspace(data)
    raise RuntimeError(f"no admissible rank-{rank} workspace after 1000 draws")


def _chain_arg(rng, length):
    return ",".join(str(rng.randint(2, 7)) for _ in range(length))


def _families(rng, fixtures, generated, with_log_pair):
    """(name, count, expected exit code, argv maker) for every command family."""
    gen = lambda: rng.choice(generated)  # noqa: E731
    golden, pencil, logpair, chains_ws, not_psef = (
        fixtures[k] for k in ("readme", "pencil", "logpair", "chains", "not_psef")
    )

    def chain_e():
        argv = []
        total = 0
        for _ in range(rng.randint(1, 2)):
            length = rng.randint(1, 5 - total if total < 4 else 1)
            total += length
            argv += ["--e", _chain_arg(rng, length)]
        return argv

    def slope():
        return rng.choice(("0", "1/2", "1", "2", "7/3"))

    return [
        ("zariski", 60, 0, lambda: ["zariski", "--config", gen(), "--divisor", "D"]),
        ("zariski_fixture", 10, 0, lambda: ["zariski", "--config", golden, "--divisor", "D"]),
        ("volume", 40, 0, lambda: ["volume", "--config", gen(), "--divisor", rng.choice("DMZ")]),
        ("einv", 30, 0, lambda: ["einv", "--config", gen(), "--divisor", "D", "--m", "M"]),
        ("einv_fixture", 10, 0, lambda: ["einv", "--config", golden, "--divisor", "D", "--m", "M"]),
        ("chain", 30, 0, lambda: ["chain"] + chain_e()),
        ("chain_fixture", 10, 0, lambda: ["chain", "--config", chains_ws]),
        ("foliation", 30, 0, lambda: ["foliation"] + chain_e() + ["--scale", str(rng.randint(1, 5))]),
        (
            "foliation_bound",
            20,
            0,
            lambda: ["foliation", "--pm", str(rng.randint(3, 9)), "--mm", str(rng.randint(1, 4))]
            + rng.choice(([], ["--pencil"], ["--kappa-nonneg"])),
        ),
        ("logpair", 30, 0, lambda: ["logpair", "--config", rng.choice(with_log_pair)]),
        ("logpair_fixture", 10, 0, lambda: ["logpair", "--config", logpair]),
        (
            "logpair_bound",
            20,
            0,
            lambda: ["logpair", "--pm", str(rng.randint(3, 9)), "--mm", str(rng.randint(1, 4))]
            + rng.choice(([], ["--pencil"], ["--kappa-nonneg"])),
        ),
        (
            "bounds",
            30,
            0,
            lambda: ["bounds", "--h0", str(rng.randint(3, 9)), "--einv", slope()]
            + rng.choice(([], ["--pencil"], ["--kappa-nonneg"], ["--no-ruled"])),
        ),
        ("bounds_lambda", 20, 0, lambda: ["bounds", "--lambda", rng.choice(("1", "2", "3", "1/2", "5/3"))]),
        (
            "audit",
            30,
            0,
            lambda: ["audit", "--config", gen(), "--divisor", "D", "--m", "M", "--z", "Z"],
        ),
        (
            "audit_fixture",
            10,
            0,
            lambda: ["audit", "--config", golden, "--divisor", "D", "--m", "M", "--z", "Z"],
        ),
        (
            "audit_pencil",
            10,
            0,
            lambda: [
                "audit", "--config", pencil, "--divisor", "D", "--m", "M", "--z", "Z",
                "--fibre", "F", "--fibre-mult", "3",
            ],
        ),  # fmt: skip
        ("catalog", 40, 0, lambda: ["catalog", "--d", str(rng.randint(2, 60))]),
        # Large outputs: few enough to sit above p99's rank, narrow enough
        # in d that p99 does not swing with the seed.
        ("catalog_large", 8, 0, lambda: ["catalog", "--d", str(rng.randint(2400, 2600))]),
        ("err_missing_flag", 10, 1, lambda: ["zariski", "--config", gen()]),
        ("err_missing_section", 5, 1, lambda: ["chain", "--config", pencil]),
        ("err_unknown_flag", 5, 1, lambda: ["volume", "--config", gen(), "--bogus"]),
        ("err_unknown_divisor", 10, 2, lambda: ["zariski", "--config", gen(), "--divisor", "missing"]),
        ("err_catalog_d", 5, 2, lambda: ["catalog", "--d", "1"]),
        ("err_lambda", 5, 2, lambda: ["bounds", "--lambda", "0"]),
        ("err_not_psef_fixture", 5, 3, lambda: ["zariski", "--config", not_psef, "--divisor", "D"]),
        ("err_not_psef", 10, 3, lambda: ["volume", "--config", gen(), "--divisor", "Q"]),
    ]


def _check_cli(expected_code, as_json, out) -> Optional[str]:
    code, stdout, stderr = out
    if code != expected_code:
        return f"exit {code}, expected {expected_code}: {stderr.strip()}"
    if code != 0:
        if stdout or not stderr.startswith("error: ") or stderr.count("\n") != 1:
            return f"exit {code} without a one-line error"
        return None
    if not stdout.endswith("\n") or stderr:
        return "success without a newline-terminated report"
    if as_json:
        try:
            canonical = json.dumps(json.loads(stdout), indent=2) + "\n"
        except ValueError:
            return "--json output does not parse"
        if canonical != stdout:
            return "--json output is not canonical"
    return None


def _render_cli(out) -> str:
    code, stdout, stderr = out
    return f"{code}\n{stdout}\n{stderr}"


def build_cli_mix(zv, rng: random.Random, scale: float, workdir: str) -> Workload:
    os.makedirs(workdir, exist_ok=True)

    def write(name, ws):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(zv.config.dump_workspace(ws))
        return path

    fixtures = {
        name: write(f"{name}.json", zv.config.parse_workspace(data))
        for name, data in (
            ("readme", README_WORKSPACE),
            ("pencil", PENCIL_WORKSPACE),
            ("logpair", LOGPAIR_WORKSPACE),
            ("chains", README_WORKSPACE),
            ("not_psef", NOT_PSEF_WORKSPACE),
        )
    }
    generated = []
    with_log_pair = []
    for idx, rank in enumerate(GENERATED_RANKS):
        ws = _generated_workspace(zv, rng, rank)
        path = write(f"gen{idx}.json", ws)
        generated.append(path)
        if ws.log_pair is not None:
            with_log_pair.append(path)
    if not with_log_pair:
        with_log_pair.append(fixtures["logpair"])

    main_ns = zv.cli
    ops = []
    strata = {}
    for name, count, code, make in _families(rng, fixtures, generated, with_log_pair):
        k = scaled(count, scale)
        strata[name] = k
        for i in range(k):
            argv = make()
            # Half of every family renders JSON; error paths parse the flag too.
            as_json = i % 2 == 1
            if as_json:
                argv = argv + ["--json"]

            def call(argv=argv):
                out, err = io.StringIO(), io.StringIO()
                saved = sys.stdout, sys.stderr
                sys.stdout, sys.stderr = out, err
                try:
                    code = main_ns.main(argv)
                finally:
                    sys.stdout, sys.stderr = saved
                return code, out.getvalue(), err.getvalue()

            ops.append(
                Op(
                    name,
                    call,
                    lambda out, code=code, as_json=as_json: _check_cli(code, as_json, out),
                    _render_cli,
                    tuple(os.path.basename(a) if a.startswith(workdir) else a for a in argv),
                )
            )
    rng.shuffle(ops)
    return Workload("cli_mix", ops, strata, _fingerprint(op.key for op in ops))


BUILDERS = {
    "chain_sweep": build_chain_sweep,
    "slope_sweep": build_slope_sweep,
    "cli_mix": build_cli_mix,
}
WORKLOADS = tuple(BUILDERS)


def library_namespace(package) -> SimpleNamespace:
    """The modules of an imported zariskivol package, by short name."""
    mods = {
        name: importlib.import_module(f"{package.__name__}.{name}")
        for name in ("lattice", "zariski", "invariants", "chains", "noether", "config", "cli", "errors")
    }
    return SimpleNamespace(package=package, **mods)


def build(name: str, zv: SimpleNamespace, seed: int, scale: float, workdir: str) -> Workload:
    return BUILDERS[name](zv, random.Random(f"{name}:{seed}"), scale, workdir)


def _fingerprint(keys) -> str:
    h = hashlib.sha256()
    for key in keys:
        h.update(repr(key).encode())
    return h.hexdigest()[:16]
