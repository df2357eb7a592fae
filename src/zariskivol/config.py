"""Reading and writing workspace description files.

A workspace is a JSON document with a required "lattice" section and
optional "divisors", "scenario", "chains" and "log_pair" sections.  The
schema is strict: unknown keys are rejected rather than ignored, rational
values are written as integers or "p/q" strings, and floats are refused
outright so nothing silently loses exactness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ConfigParseError, ValidationError
from .lattice import DivisorClass, IntersectionLattice, as_rational, build_lattice, divisor
from .noether import Scenario, validate_scenario

_TOP_KEYS = ("lattice", "divisors", "scenario", "chains", "log_pair")
_SCENARIO_KEYS = (
    "h0",
    "pencil",
    "DF",
    "kappa_nonneg",
    "ruled",
    "minus_one_classes",
)


@dataclass(frozen=True)
class LogPairSection:
    k_label: str
    delta: tuple[tuple[str, Fraction], ...]
    n: int


@dataclass(frozen=True)
class Workspace:
    lattice: IntersectionLattice
    divisors: dict[str, DivisorClass]
    scenario: Optional[Scenario] = None
    chains: Optional[tuple[tuple[int, ...], ...]] = None
    log_pair: Optional[LogPairSection] = None

    def divisor(self, label: str) -> DivisorClass:
        try:
            return self.divisors[label]
        except KeyError:
            raise ValidationError(
                f"no divisor named {label!r} in the workspace"
            ) from None


def _reject_unknown(mapping: dict, allowed, where: str) -> None:
    extra = sorted(set(mapping) - set(allowed))
    if extra:
        raise ConfigParseError(f"unknown {where} keys: {', '.join(extra)}")


def _expect(value, kind, where: str):
    if kind is int and isinstance(value, bool):
        raise ConfigParseError(f"{where} must be an integer, got a boolean")
    if not isinstance(value, kind):
        raise ConfigParseError(
            f"{where} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _rational_entry(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigParseError(
            f"{where} must be an integer or a 'p/q' string, got {value!r}"
        )
    return as_rational(value)


def parse_workspace(data) -> Workspace:
    _expect(data, dict, "workspace document")
    _reject_unknown(data, _TOP_KEYS, "top-level")
    if "lattice" not in data:
        raise ConfigParseError("workspace document has no lattice section")

    lat_data = _expect(data["lattice"], dict, "lattice section")
    _reject_unknown(lat_data, ("curves", "gram"), "lattice")
    for key in ("curves", "gram"):
        if key not in lat_data:
            raise ConfigParseError(f"lattice section is missing {key!r}")
    curves = _expect(lat_data["curves"], list, "lattice curves")
    names = [_expect(c, str, "curve label") for c in curves]
    gram_rows = _expect(lat_data["gram"], list, "lattice gram")
    gram = []
    for row in gram_rows:
        _expect(row, list, "gram row")
        gram.append([_expect(x, int, "gram entry") for x in row])
    lattice = build_lattice(names, gram)

    divisors: dict[str, DivisorClass] = {}
    if "divisors" in data:
        div_data = _expect(data["divisors"], dict, "divisors section")
        for label, coeffs in div_data.items():
            _expect(label, str, "divisor label")
            _expect(coeffs, list, f"divisor {label!r}")
            parsed = [
                _rational_entry(c, f"coefficient of divisor {label!r}") for c in coeffs
            ]
            divisors[label] = divisor(lattice, parsed)

    scenario = None
    if "scenario" in data:
        sc = _expect(data["scenario"], dict, "scenario section")
        _reject_unknown(sc, _SCENARIO_KEYS, "scenario")
        if "h0" not in sc:
            raise ConfigParseError("scenario section is missing 'h0'")
        moc = sc.get("minus_one_classes", [])
        _expect(moc, list, "minus_one_classes")
        scenario = Scenario(
            h0=_expect(sc["h0"], int, "h0"),
            pencil=_expect(sc.get("pencil", False), bool, "pencil"),
            df=None if sc.get("DF") is None else _expect(sc["DF"], int, "DF"),
            kappa_nonneg=None
            if sc.get("kappa_nonneg") is None
            else _expect(sc["kappa_nonneg"], bool, "kappa_nonneg"),
            ruled=None if sc.get("ruled") is None else _expect(sc["ruled"], bool, "ruled"),
            minus_one_classes=tuple(_expect(x, str, "minus_one_classes entry") for x in moc),
        )
        validate_scenario(lattice, scenario)

    chains = None
    if "chains" in data:
        ch_data = _expect(data["chains"], list, "chains section")
        if not ch_data:
            raise ConfigParseError("chains section must list at least one chain")
        parsed_chains = []
        for k, item in enumerate(ch_data):
            _expect(item, dict, f"chain {k}")
            _reject_unknown(item, ("e",), f"chain {k}")
            if "e" not in item:
                raise ConfigParseError(f"chain {k} is missing 'e'")
            seq = _expect(item["e"], list, f"chain {k} entries")
            parsed_chains.append(tuple(_expect(x, int, "chain entry") for x in seq))
        chains = tuple(parsed_chains)

    log_pair = None
    if "log_pair" in data:
        lp = _expect(data["log_pair"], dict, "log_pair section")
        _reject_unknown(lp, ("K", "delta", "n"), "log_pair")
        for key in ("K", "delta", "n"):
            if key not in lp:
                raise ConfigParseError(f"log_pair section is missing {key!r}")
        k_label = _expect(lp["K"], str, "log_pair K")
        if k_label not in divisors:
            raise ConfigParseError(
                f"log_pair K references undefined divisor {k_label!r}"
            )
        delta_data = _expect(lp["delta"], list, "log_pair delta")
        if not delta_data:
            raise ConfigParseError("log_pair delta must list at least one component")
        delta = []
        for k, item in enumerate(delta_data):
            _expect(item, dict, f"delta component {k}")
            _reject_unknown(item, ("curve", "a"), f"delta component {k}")
            for key in ("curve", "a"):
                if key not in item:
                    raise ConfigParseError(f"delta component {k} is missing {key!r}")
            curve = _expect(item["curve"], str, "delta curve")
            if curve not in lattice.names:
                raise ConfigParseError(
                    f"delta component references unknown curve {curve!r}"
                )
            delta.append((curve, _rational_entry(item["a"], f"delta coefficient {k}")))
        log_pair = LogPairSection(
            k_label=k_label,
            delta=tuple(delta),
            n=_expect(lp["n"], int, "log_pair n"),
        )

    return Workspace(
        lattice=lattice,
        divisors=divisors,
        scenario=scenario,
        chains=chains,
        log_pair=log_pair,
    )


def load_workspace(path: str) -> Workspace:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"config file is not valid UTF-8: {exc}") from None
    try:
        data = json.loads(text)
    except RecursionError:
        raise ConfigParseError("config file is not valid JSON: nested too deeply") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise ConfigParseError(f"config file is not valid JSON: {exc}") from None
    return parse_workspace(data)


def _rational_str(value: Fraction):
    return int(value) if value.denominator == 1 else str(value)


def workspace_to_data(ws: Workspace) -> dict:
    """Canonical plain-data form; parsing it back gives an equal workspace."""
    data: dict = {
        "lattice": {
            "curves": list(ws.lattice.names),
            "gram": [list(row) for row in ws.lattice.gram],
        }
    }
    if ws.divisors:
        data["divisors"] = {
            label: [_rational_str(c) for c in ws.divisors[label].coeffs]
            for label in sorted(ws.divisors)
        }
    if ws.scenario is not None:
        sc: dict = {"h0": ws.scenario.h0, "pencil": ws.scenario.pencil}
        if ws.scenario.df is not None:
            sc["DF"] = ws.scenario.df
        if ws.scenario.kappa_nonneg is not None:
            sc["kappa_nonneg"] = ws.scenario.kappa_nonneg
        if ws.scenario.ruled is not None:
            sc["ruled"] = ws.scenario.ruled
        if ws.scenario.minus_one_classes:
            sc["minus_one_classes"] = list(ws.scenario.minus_one_classes)
        data["scenario"] = sc
    if ws.chains is not None:
        data["chains"] = [{"e": list(seq)} for seq in ws.chains]
    if ws.log_pair is not None:
        data["log_pair"] = {
            "K": ws.log_pair.k_label,
            "delta": [
                {"curve": curve, "a": _rational_str(a)}
                for curve, a in ws.log_pair.delta
            ],
            "n": ws.log_pair.n,
        }
    return data


def dump_workspace(ws: Workspace) -> str:
    return json.dumps(workspace_to_data(ws), indent=2) + "\n"
