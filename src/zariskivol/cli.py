"""Command dispatch and deterministic report emission.

Every command produces a plain dict with a stable field order, rendered
either as indented text or as JSON (flag --json).  Rationals are emitted
as strings ("p/q" or "n") in both renderings so no consumer ever coerces
them through floats.  Reports carry no timestamps; identical inputs give
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional

from .chains import chain_spec, foliation_e
from .config import Workspace, load_workspace
from .errors import MissingSectionError, UsageError, ValidationError, ZariskivolError
from .invariants import e_sup, verify_e_inequality
from .lattice import DivisorClass, as_rational, pair
from .noether import (
    catalog_degree_dminus1,
    foliation_bounds,
    log_pair_bounds,
    log_pair_iterate,
    pencil_audit,
    pencil_bound,
    ps_index_bound,
    surface_audit,
    surface_bounds,
)
from .zariski import is_nef_on, zariski_decompose

_FLAGS = {
    "--config": {"metavar": "PATH", "help": "workspace file to load"},
    "--json": {"action": "store_true", "help": "emit the JSON rendering"},
    "--divisor": {"metavar": "LABEL"},
    "--m": {"metavar": "LABEL"},
    "--z": {"metavar": "LABEL"},
    "--fibre": {"metavar": "LABEL"},
    "--fibre-mult": {"type": int, "metavar": "N"},
    "--e": {
        "action": "append",
        "metavar": "LIST",
        "help": "comma-separated chain entries; repeat for several chains",
    },
    "--scale": {"type": int, "metavar": "M"},
    "--h0": {"type": int, "metavar": "N"},
    "--einv": {"metavar": "Q", "help": "slope invariant as a rational"},
    "--pm": {"type": int, "metavar": "N"},
    "--mm": {"type": int, "metavar": "N"},
    "--lambda": {"dest": "lam", "metavar": "Q"},
    "--d": {"type": int, "metavar": "N"},
    "--pencil": {"action": "store_true"},
    "--kappa-nonneg": {"action": argparse.BooleanOptionalAction},
    "--ruled": {"action": argparse.BooleanOptionalAction},
    "--max-support": {"type": int},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and reused.

    Parsing leaves the parser unchanged, so one instance serves every call.
    """
    parser = _Parser(prog="zariskivol", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split() + ["--json"]:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _need(options: dict, key: str, flag: str):
    value = options.get(key)
    if value is None:
        raise UsageError(f"{flag} is required for this command")
    return value


def _need_workspace(workspace: Optional[Workspace]) -> Workspace:
    if workspace is None:
        raise UsageError("--config is required for this command")
    return workspace


def _frac(value: Optional[Fraction]) -> Optional[str]:
    return None if value is None else str(value)


def _div(d: DivisorClass) -> dict:
    names = d.lattice.names
    terms = []
    for name, c in zip(names, d.coeffs):
        if c == 0:
            continue
        terms.append(name if c == 1 else f"{c}*{name}")
    return {
        "coeffs": [_frac(c) for c in d.coeffs],
        "pretty": " + ".join(terms) if terms else "0",
    }


def _parse_chain_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(
            f"--e expects a comma-separated integer list, got {text!r}"
        ) from None


def _chains_from(workspace: Optional[Workspace], options: dict):
    if options.get("e"):
        return tuple(_parse_chain_arg(item) for item in options["e"])
    ws = _need_workspace(workspace)
    if ws.chains is None:
        raise MissingSectionError("workspace has no chains section")
    return ws.chains


def _slope_option(options: dict) -> Fraction:
    if options.get("einv") is not None:
        return as_rational(options["einv"])
    e_items = options.get("e")
    if e_items and len(e_items) == 1 and "," not in e_items[0]:
        return as_rational(e_items[0])
    raise UsageError("--einv (or --e with a single rational) is required")


def _cmd_zariski(workspace, options):
    ws = _need_workspace(workspace)
    label = _need(options, "divisor", "--divisor")
    d = ws.divisor(label)
    dec = zariski_decompose(ws.lattice, d)
    vol = pair(dec.positive, dec.positive)
    names = ws.lattice.names
    return {
        "command": "zariski",
        "divisor": label,
        "input": _div(d),
        "positive": _div(dec.positive),
        "negative": _div(dec.negative),
        "support": [names[i] for i in dec.support],
        "gamma": {names[i]: _frac(g) for i, g in zip(dec.support, dec.gamma)},
        "volume": _frac(vol),
        "big": vol > 0,
    }


def _cmd_volume(workspace, options):
    ws = _need_workspace(workspace)
    label = _need(options, "divisor", "--divisor")
    d = ws.divisor(label)
    dec = zariski_decompose(ws.lattice, d)
    vol = pair(dec.positive, dec.positive)
    return {
        "command": "volume",
        "divisor": label,
        "volume": _frac(vol),
        "big": vol > 0,
        "nef": is_nef_on(ws.lattice, d),
    }


def _cmd_einv(workspace, options):
    cap = options.get("max_support")
    if cap is not None and cap < 1:
        raise ValidationError(f"--max-support must be a positive integer, got {cap}")
    ws = _need_workspace(workspace)
    label = _need(options, "divisor", "--divisor")
    scaled = options.get("fibre") is not None or options.get("fibre_mult") is not None
    if scaled:  # the scaled check needs --m, --fibre and --fibre-mult together
        for key, flag in (("m", "--m"), ("fibre", "--fibre"), ("fibre_mult", "--fibre-mult")):
            _need(options, key, flag)
    d = ws.divisor(label)
    dec = zariski_decompose(ws.lattice, d)
    result = e_sup(ws.lattice, dec, max_support=16 if cap is None else cap)
    names = ws.lattice.names
    sup_labels = [names[i] for i in dec.support]
    report = {
        "command": "einv",
        "divisor": label,
        "support": sup_labels,
        "e_zero": _frac(result.e_zero),
        "e_sup": {
            "value": _frac(result.value),
            "attained": result.attained,
            "witness_pattern": dict(zip(sup_labels, result.witness_pattern)),
            "witness_ray": result.witness_ray,
        },
    }
    if options.get("m") is not None:
        a = ws.divisor(options["m"])
        fibre_data = None
        if scaled:
            fibre_data = (options["fibre_mult"], ws.divisor(options["fibre"]))
        slack = verify_e_inequality(ws.lattice, dec, a, fibre_data)
        report["against"] = {
            "label": options["m"],
            "e": _frac(slack.e_value),
            "a_dot_n": _frac(slack.a_dot_n),
            "a_dot_uncapped": _frac(slack.a_dot_uncapped),
            "slack": _frac(slack.base_slack),
            "fibre_multiple": slack.fibre_multiple,
            "scaled_slack": _frac(slack.scaled_slack),
        }
    return report


def _cmd_chain(workspace, options):
    entries = []
    for seq in _chains_from(workspace, options):
        spec = chain_spec(seq)
        entries.append(
            {
                "e": list(seq),
                "n": spec.n,
                "lambda": [str(v) for v in spec.lambdas],
                "gamma": [_frac(g) for g in spec.gamma],
                "e_invariant": _frac(foliation_e([spec], 1)),
            }
        )
    return {"command": "chain", "chains": entries}


def _bound_report(command, bound, options):
    pm = options["pm"]
    mm = _need(options, "mm", "--mm")
    pencil = bool(options.get("pencil"))
    kappa = bool(options.get("kappa_nonneg"))
    return {
        "command": command,
        "mode": "bound",
        "pm": pm,
        "m": mm,
        "pencil": pencil,
        "kappa_nonneg": kappa,
        "bound": _frac(bound(pm, mm, pencil, kappa)),
    }


def _cmd_foliation(workspace, options):
    if options.get("pm") is not None:
        return _bound_report("foliation", foliation_bounds, options)
    seqs = _chains_from(workspace, options)
    scale = 1 if options.get("scale") is None else options["scale"]
    specs = [chain_spec(seq) for seq in seqs]
    value = foliation_e(specs, scale)
    return {
        "command": "foliation",
        "mode": "assembly",
        "chains": [list(seq) for seq in seqs],
        "scale": scale,
        "e_invariant": _frac(value),
        "cap": str(scale),
        "within_cap": value <= scale,
    }


def _cmd_logpair(workspace, options):
    if options.get("pm") is not None:
        return _bound_report("logpair", log_pair_bounds, options)
    ws = _need_workspace(workspace)
    if ws.log_pair is None:
        raise MissingSectionError("workspace has no log_pair section")
    lp = ws.log_pair
    k = ws.divisor(lp.k_label)
    result = log_pair_iterate(ws.lattice, k, lp.delta, lp.n)
    return {
        "command": "logpair",
        "mode": "iteration",
        "n": result.n,
        "alphas": {
            curve: _frac(alpha)
            for (curve, _), alpha in zip(lp.delta, result.alphas)
        },
        "steps": [
            {"curve": curve, "alpha": _frac(alpha), "kind": kind}
            for curve, alpha, kind in result.steps
        ],
        "negative": _div(result.negative_part),
        "components": [
            {
                "curve": c.label,
                "alpha": _frac(c.alpha),
                "coefficient": _frac(c.coefficient),
                "alpha_within_coefficient": c.alpha_within_coefficient,
                "drop": _frac(c.drop),
                "drop_within_double": c.drop_within_double,
                "genus": _frac(c.genus),
            }
            for c in result.checks
        ],
        "e_zero_scaled": _frac(result.e_zero_scaled),
        "cap": str(result.e_zero_cap),
        "within_cap": result.e_zero_scaled <= result.e_zero_cap,
    }


def _cmd_bounds(workspace, options):
    if options.get("lam") is not None:
        lam = as_rational(options["lam"])
        return {
            "command": "bounds",
            "mode": "ps_index",
            "lambda": _frac(lam),
            "bound": _frac(ps_index_bound(lam)),
        }
    h0 = _need(options, "h0", "--h0")
    slope = _slope_option(options)
    if options.get("pencil"):
        return {
            "command": "bounds",
            "mode": "pencil",
            "h0": h0,
            "e": _frac(slope),
            "bound": _frac(pencil_bound(h0, slope)),
        }
    family = surface_bounds(
        h0, slope, options.get("kappa_nonneg"), options.get("ruled")
    )
    return {
        "command": "bounds",
        "mode": "surface",
        "h0": h0,
        "e": _frac(slope),
        "base": _frac(family.base),
        "refined": _frac(family.refined),
        "nonruled_applies": family.nonruled_applies,
        "nonruled_base": _frac(family.nonruled_base),
        "nonruled_refined_weak": _frac(family.nonruled_refined_weak),
        "nonruled_refined_strong": _frac(family.nonruled_refined_strong),
    }


def _plain(value):
    if isinstance(value, Fraction):
        return _frac(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _cmd_audit(workspace, options):
    ws = _need_workspace(workspace)
    if ws.scenario is None:
        raise MissingSectionError("workspace has no scenario section")
    d_label = _need(options, "divisor", "--divisor")
    m_label = _need(options, "m", "--m")
    z_label = _need(options, "z", "--z")
    d = ws.divisor(d_label)
    m = ws.divisor(m_label)
    z = ws.divisor(z_label)
    if ws.scenario.pencil:
        fibre_label = _need(options, "fibre", "--fibre")
        n_mult = _need(options, "fibre_mult", "--fibre-mult")
        fibre = ws.divisor(fibre_label)
        report = pencil_audit(ws.lattice, d, m, z, ws.scenario, (n_mult, fibre))
        kind = "pencil"
    else:
        report = surface_audit(ws.lattice, d, m, z, ws.scenario)
        kind = "surface"
    return {
        "command": "audit",
        "kind": kind,
        "divisor": d_label,
        "m": m_label,
        "z": z_label,
        "bound": _frac(report.bound),
        "volume": _frac(report.volume),
        "satisfied": report.satisfied,
        "equality": report.equality,
        "refined_bound": _frac(report.refined_bound),
        "checks": _plain(report.checks),
        "annotations": list(report.annotations),
        "assumptions": _plain(report.assumptions),
    }


def _cmd_catalog(workspace, options):
    d = _need(options, "d", "--d")
    entries = catalog_degree_dminus1(d)
    return {
        "command": "catalog",
        "d": d,
        "entries": [
            {
                "case": entry.case_id,
                "surface": entry.surface,
                "e": entry.e,
                "m0": entry.m0_description,
                "m0_squared": entry.m0_squared,
            }
            for entry in entries
        ],
    }


# name -> (help, flags besides --json, handler); --help lists the commands in this order
_COMMANDS = {
    "zariski": (
        "decompose a divisor into nef and negative parts", "--config --divisor", _cmd_zariski
    ),
    "volume": ("self-intersection of the nef part", "--config --divisor", _cmd_volume),
    "einv": (
        "slope invariants of a divisor's negative part",
        "--config --divisor --m --fibre --fibre-mult --max-support",
        _cmd_einv,
    ),
    "chain": ("continued-fraction data of exceptional chains", "--config --e", _cmd_chain),
    "foliation": (
        "chain assemblies and foliated canonical bounds",
        "--config --e --scale --pm --mm --pencil --kappa-nonneg",
        _cmd_foliation,
    ),
    "logpair": (
        "log canonical iteration and bounds",
        "--config --pm --mm --pencil --kappa-nonneg",
        _cmd_logpair,
    ),
    "bounds": (
        "closed-form volume lower bounds",
        "--h0 --einv --e --lambda --pencil --kappa-nonneg --ruled",
        _cmd_bounds,
    ),
    "audit": (
        "evaluate the applicable bound on a workspace split",
        "--config --divisor --m --z --fibre --fibre-mult",
        _cmd_audit,
    ),
    "catalog": ("model classes of self-intersection d - 1", "--d", _cmd_catalog),
}


def run_command(workspace: Optional[Workspace], command: str, options: dict) -> dict:
    """Dispatch one command against an optional workspace; returns the report."""
    try:
        handler = _COMMANDS[command][2]
    except KeyError:
        raise UsageError(f"unknown command {command!r}") from None
    return handler(workspace, options)


def render_json(report: dict) -> str:
    return json.dumps(_plain(report), indent=2) + "\n"


def _text_lines(value, key, depth):
    pad = "  " * depth
    if isinstance(value, dict):
        yield f"{pad}{key}:"
        for k, v in value.items():
            yield from _text_lines(v, k, depth + 1)
    elif isinstance(value, list):
        if any(isinstance(item, (dict, list)) for item in value):
            yield f"{pad}{key}:"
            for i, item in enumerate(value):
                yield from _text_lines(item, f"[{i}]", depth + 1)
        else:
            body = ", ".join("null" if item is None else str(item) for item in value)
            yield f"{pad}{key}: [{body}]"
    elif value is None:
        yield f"{pad}{key}: null"
    else:
        yield f"{pad}{key}: {value}"


def render_text(report: dict) -> str:
    plain = _plain(report)
    lines = []
    for key, value in plain.items():
        lines.extend(_text_lines(value, key, 0))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    try:
        parser = build_parser()
        ns = parser.parse_args(argv)
        if ns.command is None:
            names = ", ".join(_COMMANDS)
            raise UsageError(f"a command is required: one of {names}")
        options = vars(ns)
        workspace = (
            load_workspace(options["config"]) if options.get("config") else None
        )
        report = run_command(workspace, ns.command, options)
        rendered = render_json(report) if options.get("json") else render_text(report)
        sys.stdout.write(rendered)
        return 0
    except ZariskivolError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
