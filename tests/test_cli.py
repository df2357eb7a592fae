import json
import re
from pathlib import Path

import pytest

from zariskivol.cli import build_parser, main, render_json, render_text, run_command
from zariskivol.config import parse_workspace
from zariskivol.errors import UsageError


GOLDEN_CONFIG = {
    "lattice": {
        "curves": ["H", "G1", "G2"],
        "gram": [[1, 1, 0], [1, -2, 1], [0, 1, -2]],
    },
    "divisors": {
        "D": [2, 1, 1],
        "M": [2, 0, 0],
        "Z": [0, 1, 1],
        "Q": [2, 1, 0],
    },
    "scenario": {"h0": 3, "kappa_nonneg": True},
}

PENCIL_CONFIG = {
    "lattice": {
        "curves": ["F", "G1", "G2", "H"],
        "gram": [[0, 1, 0, 1], [1, -2, 1, 0], [0, 1, -2, 0], [1, 0, 0, 1]],
    },
    "divisors": {
        "D": [3, 1, 1, 0],
        "M": [3, 0, 0, 0],
        "Z": [0, 1, 1, 0],
        "F": [1, 0, 0, 0],
    },
    "scenario": {"h0": 2, "pencil": True, "DF": 1},
}

LOGPAIR_CONFIG = {
    "lattice": {"curves": ["A", "C"], "gram": [[1, 0], [0, -2]]},
    "divisors": {"K": [1, 0]},
    "log_pair": {"K": "K", "delta": [{"curve": "C", "a": "1/2"}], "n": 2},
}

CHAINS_CONFIG = {
    "lattice": {"curves": ["C"], "gram": [[-2]]},
    "chains": [{"e": [2, 2]}, {"e": [3]}],
}

NOT_PSEF_CONFIG = {
    "lattice": {"curves": ["C1", "C2"], "gram": [[-1, 2], [2, -1]]},
    "divisors": {"D": [-1, -1]},
}


def write(tmp_path, data, name="ws.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_command_is_a_usage_error(capsys):
    code, out, err = run(capsys, [])
    assert code == 1
    assert out == ""
    assert err.startswith("error: a command is required")


def test_unknown_command_is_a_usage_error(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 1
    assert err.startswith("error:")


def test_zariski_text_report(tmp_path, capsys):
    cfg = write(tmp_path, GOLDEN_CONFIG)
    code, out, err = run(capsys, ["zariski", "--config", cfg, "--divisor", "D"])
    assert code == 0 and err == ""
    assert "volume: 13/2" in out
    assert "big: True" in out
    assert "support: [G2]" in out
    assert "G2: 1/2" in out
    assert "pretty: 2*H + G1 + 1/2*G2" in out


def test_zariski_json_is_deterministic(tmp_path, capsys):
    cfg = write(tmp_path, GOLDEN_CONFIG)
    argv = ["zariski", "--config", cfg, "--divisor", "D", "--json"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    code, second, _ = run(capsys, argv)
    assert code == 0
    assert first == second
    report = json.loads(first)
    assert report["command"] == "zariski"
    assert report["volume"] == "13/2"
    assert report["negative"]["coeffs"] == ["0", "0", "1/2"]
    assert report["gamma"] == {"G2": "1/2"}
    assert first.endswith("\n")


def test_volume_report(tmp_path, capsys):
    cfg = write(tmp_path, GOLDEN_CONFIG)
    code, out, _ = run(capsys, ["volume", "--config", cfg, "--divisor", "D", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report == {
        "command": "volume",
        "divisor": "D",
        "volume": "13/2",
        "big": True,
        "nef": False,
    }


def test_einv_report(tmp_path, capsys):
    cfg = write(tmp_path, GOLDEN_CONFIG)
    code, out, _ = run(
        capsys,
        ["einv", "--config", cfg, "--divisor", "D", "--m", "M", "--json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["e_zero"] == "1"
    assert report["e_sup"]["value"] == "1"
    assert report["e_sup"]["attained"] is True
    assert report["e_sup"]["witness_pattern"] == {"G2": 1}
    assert report["e_sup"]["witness_ray"] is None
    assert report["against"]["e"] == "0"
    assert report["against"]["slack"] == "0"
    assert report["against"]["scaled_slack"] is None


def test_einv_with_fibre_scaling(tmp_path, capsys):
    cfg = write(tmp_path, GOLDEN_CONFIG)
    code, out, _ = run(
        capsys,
        [
            "einv", "--config", cfg, "--divisor", "D",
            "--m", "Q", "--fibre", "Q", "--fibre-mult", "1", "--json",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["against"]["e"] == "1"
    assert report["against"]["fibre_multiple"] == 1
    assert report["against"]["scaled_slack"] == "0"


@pytest.mark.parametrize(
    "flags, missing",
    [
        (["--m", "Q", "--fibre", "Q"], "--fibre-mult"),
        (["--m", "Q", "--fibre-mult", "1"], "--fibre"),
        (["--fibre", "Q", "--fibre-mult", "1"], "--m"),
    ],
    ids=["no-fibre-mult", "no-fibre", "no-m"],
)
def test_einv_partial_fibre_flags_are_a_usage_error(tmp_path, capsys, flags, missing):
    cfg = write(tmp_path, GOLDEN_CONFIG)
    code, out, err = run(capsys, ["einv", "--config", cfg, "--divisor", "D", *flags])
    assert (code, out) == (1, "")
    assert err == f"error: {missing} is required for this command\n"


def test_chain_command_from_flags(capsys):
    code, out, _ = run(capsys, ["chain", "--e", "2,2", "--e", "3", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["chains"] == [
        {
            "e": [2, 2],
            "n": 3,
            "lambda": ["2", "1"],
            "gamma": ["2/3", "1/3"],
            "e_invariant": "1",
        },
        {
            "e": [3],
            "n": 3,
            "lambda": ["1"],
            "gamma": ["1/3"],
            "e_invariant": "1",
        },
    ]


def test_chain_command_from_config(tmp_path, capsys):
    cfg = write(tmp_path, CHAINS_CONFIG)
    code, out, _ = run(capsys, ["chain", "--config", cfg, "--json"])
    assert code == 0
    report = json.loads(out)
    assert [entry["e"] for entry in report["chains"]] == [[2, 2], [3]]


def test_chain_command_missing_section(tmp_path, capsys):
    cfg = write(tmp_path, GOLDEN_CONFIG)
    code, _, err = run(capsys, ["chain", "--config", cfg])
    assert code == 1
    assert "chains section" in err


def test_foliation_assembly(capsys):
    code, out, _ = run(capsys, ["foliation", "--e", "2,2", "--scale", "3", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "assembly"
    assert report["e_invariant"] == "3"
    assert report["within_cap"] is True


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_chain_slope_of_a_long_chain_needs_no_enumeration(capsys, json_flag):
    # 2^24 - 1 subset solves if the slope were enumerated.
    code, out, _ = run(capsys, ["chain", "--e", ",".join(["2"] * 24)] + json_flag)
    assert code == 0
    if json_flag:
        assert json.loads(out)["chains"][0]["e_invariant"] == "1"
    else:
        assert "    e_invariant: 1\n" in out


def test_foliation_slope_of_long_chains_needs_no_enumeration(capsys):
    twelve = ",".join(["2"] * 12)
    code, out, _ = run(
        capsys, ["foliation", "--e", twelve, "--e", twelve, "--scale", "3", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["e_invariant"] == "3"
    assert report["within_cap"] is True


def test_foliation_bound_mode(capsys):
    code, out, _ = run(
        capsys, ["foliation", "--pm", "3", "--mm", "2", "--pencil", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "bound"
    assert report["bound"] == "1/4"


def test_foliation_scale_zero_is_a_validation_error(capsys):
    code, out, err = run(capsys, ["foliation", "--e", "2,2", "--scale", "0"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_logpair_iteration(tmp_path, capsys):
    cfg = write(tmp_path, LOGPAIR_CONFIG)
    code, out, _ = run(capsys, ["logpair", "--config", cfg, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "iteration"
    assert report["alphas"] == {"C": "1/2"}
    assert report["steps"] == [{"curve": "C", "alpha": "1/2", "kind": "single"}]
    assert report["negative"]["pretty"] == "1/2*C"
    assert report["e_zero_scaled"] == "2"
    assert report["cap"] == "4"
    assert report["within_cap"] is True
    comp = report["components"][0]
    assert comp["genus"] == "0"
    assert comp["alpha_within_coefficient"] is True


def test_logpair_bound_mode(capsys):
    code, out, _ = run(
        capsys, ["logpair", "--pm", "5", "--mm", "2", "--pencil", "--json"]
    )
    assert code == 0
    assert json.loads(out)["bound"] == "1/2"


def test_logpair_missing_section(tmp_path, capsys):
    cfg = write(tmp_path, GOLDEN_CONFIG)
    code, _, err = run(capsys, ["logpair", "--config", cfg])
    assert code == 1
    assert "log_pair section" in err


def test_bounds_pencil(capsys):
    code, out, _ = run(
        capsys, ["bounds", "--pencil", "--h0", "5", "--e", "2", "--json"]
    )
    assert code == 0
    assert json.loads(out)["bound"] == "8/3"


def test_bounds_surface_family(capsys):
    code, out, _ = run(
        capsys,
        ["bounds", "--h0", "5", "--einv", "1", "--kappa-nonneg", "--json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["base"] == "3"
    assert report["refined"] == "7/2"
    assert report["nonruled_applies"] is True
    assert report["nonruled_base"] == "6"
    assert report["nonruled_refined_strong"] == "17/2"


def test_bounds_ps_index(capsys):
    code, out, _ = run(capsys, ["bounds", "--lambda", "2", "--json"])
    assert code == 0
    assert json.loads(out)["bound"] == "1/12"


def test_bounds_usage_errors(capsys):
    code, _, err = run(capsys, ["bounds", "--pencil", "--e", "2"])
    assert code == 1
    assert "--h0" in err
    code, _, err = run(capsys, ["bounds", "--h0", "4"])
    assert code == 1
    assert "--einv" in err


def test_bounds_accepts_slope_through_e(capsys):
    code, out, _ = run(capsys, ["bounds", "--h0", "5", "--e", "2", "--json"])
    assert code == 0
    assert json.loads(out)["e"] == "2"


@pytest.mark.parametrize(
    "argv, foreign",
    [
        (["chain", "--h0", "3"], "--h0"),
        (["catalog", "--config", "ws.json", "--d", "5"], "--config"),
        (["bounds", "--divisor", "D", "--lambda", "2"], "--divisor"),
    ],
)
def test_flag_of_another_command_is_a_usage_error(capsys, argv, foreign):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert foreign in err


def test_chain_help_lists_only_its_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chain", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert set(re.findall(r"--[a-z][a-z-]*", out)) == {"--help", "--config", "--e", "--json"}


def test_audit_surface(tmp_path, capsys):
    cfg = write(tmp_path, GOLDEN_CONFIG)
    code, out, _ = run(
        capsys,
        [
            "audit", "--config", cfg,
            "--divisor", "D", "--m", "M", "--z", "Z", "--json",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "surface"
    assert report["bound"] == "1"
    assert report["volume"] == "13/2"
    assert report["satisfied"] is True
    assert report["checks"]["nonruled"]["bound"] == "2"
    assert report["assumptions"]["e_m"] == "0"


def test_audit_pencil(tmp_path, capsys):
    cfg = write(tmp_path, PENCIL_CONFIG)
    code, out, _ = run(
        capsys,
        [
            "audit", "--config", cfg,
            "--divisor", "D", "--m", "M", "--z", "Z",
            "--fibre", "F", "--fibre-mult", "3", "--json",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "pencil"
    assert report["volume"] == "9/2"
    assert report["checks"]["split_identity"]["relation"] == "="
    assert report["assumptions"]["fibre_equivalence"] == "full"


def test_audit_pencil_needs_fibre_flags(tmp_path, capsys):
    cfg = write(tmp_path, PENCIL_CONFIG)
    code, _, err = run(
        capsys, ["audit", "--config", cfg, "--divisor", "D", "--m", "M", "--z", "Z"]
    )
    assert code == 1
    assert "--fibre" in err


def test_audit_needs_scenario(tmp_path, capsys):
    cfg = write(tmp_path, CHAINS_CONFIG)
    code, _, err = run(
        capsys, ["audit", "--config", cfg, "--divisor", "D", "--m", "D", "--z", "D"]
    )
    assert code == 1
    assert "scenario" in err


def test_catalog_report(capsys):
    code, out, _ = run(capsys, ["catalog", "--d", "5", "--json"])
    assert code == 0
    report = json.loads(out)
    assert len(report["entries"]) == 4
    assert report["entries"][0] == {
        "case": 2,
        "surface": "P2",
        "e": None,
        "m0": "2L",
        "m0_squared": 4,
    }


def test_catalog_text_renders_null_and_items(capsys):
    code, out, _ = run(capsys, ["catalog", "--d", "2"])
    assert code == 0
    assert "[0]:" in out
    assert "e: null" in out


def test_validation_exit_code(tmp_path, capsys):
    bad = dict(GOLDEN_CONFIG, divisors={"D": ["1/0", 0, 0]})
    cfg = write(tmp_path, bad)
    code, _, err = run(capsys, ["zariski", "--config", cfg, "--divisor", "D"])
    assert code == 2
    assert err.startswith("error:")

    cfg = write(tmp_path, GOLDEN_CONFIG, "ok.json")
    code, _, err = run(capsys, ["zariski", "--config", cfg, "--divisor", "nope"])
    assert code == 2

    code, _, err = run(capsys, ["zariski", "--config", str(tmp_path / "absent.json"), "--divisor", "D"])
    assert code == 2

    code, _, err = run(capsys, ["catalog", "--d", "1"])
    assert code == 2

    code, _, err = run(
        capsys,
        ["einv", "--config", cfg, "--divisor", "D", "--max-support", "0"],
    )
    assert code == 2


def test_mathematical_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, NOT_PSEF_CONFIG)
    code, _, err = run(capsys, ["zariski", "--config", cfg, "--divisor", "D"])
    assert code == 3
    assert err.startswith("error:")


def test_run_command_direct():
    ws = parse_workspace(GOLDEN_CONFIG)
    report = run_command(ws, "zariski", {"divisor": "D"})
    assert report["volume"] == "13/2"
    with pytest.raises(UsageError):
        run_command(ws, "nonsense", {})
    with pytest.raises(UsageError):
        run_command(None, "zariski", {"divisor": "D"})


def test_renderers_are_stable():
    ws = parse_workspace(GOLDEN_CONFIG)
    report = run_command(ws, "zariski", {"divisor": "D"})
    assert render_json(report) == render_json(report)
    text = render_text(report)
    assert text == render_text(report)
    assert text.endswith("\n")
    assert "command: zariski" in text


# Each recorded invocation names its workspace by one of these keys, so the
# golden file holds no machine-specific paths.
GOLDEN_WORKSPACES = {
    "{golden}": GOLDEN_CONFIG,
    "{pencil}": PENCIL_CONFIG,
    "{logpair}": LOGPAIR_CONFIG,
    "{chains}": CHAINS_CONFIG,
}

CLI_GOLDENS = Path(__file__).with_name("cli_goldens.json")


def golden_runs(tmp_path):
    """(argv, exit code, stdout) of each recorded invocation, paths filled in."""
    paths = {
        key: write(tmp_path, data, f"ws{i}.json")
        for i, (key, data) in enumerate(GOLDEN_WORKSPACES.items())
    }
    records = json.loads(CLI_GOLDENS.read_text(encoding="utf-8"))
    return [
        ([paths.get(arg, arg) for arg in r["argv"]], r["exit_code"], r["stdout"])
        for r in records
    ]


def test_cli_output_matches_recorded_goldens(tmp_path, capsys):
    runs = golden_runs(tmp_path)
    assert len(runs) == 26
    for argv, exit_code, stdout in runs:
        assert run(capsys, argv)[:2] == (exit_code, stdout), argv


def test_repeated_calls_in_one_process_reuse_the_parser(tmp_path, capsys):
    assert build_parser() is build_parser()
    runs = golden_runs(tmp_path)
    first = [run(capsys, argv)[:2] for argv, _, _ in runs]
    usage = run(capsys, ["chain", "--h0", "3"])
    assert usage[:2] == (1, "") and usage[2].startswith("error: unrecognized arguments")
    again = [run(capsys, argv)[:2] for argv, _, _ in reversed(runs)]
    assert again[::-1] == first == [(code, out) for _, code, out in runs]


def test_einv_max_support_below_one_names_the_flag(tmp_path, capsys):
    cfg = write(tmp_path, GOLDEN_CONFIG)
    for cap in ("0", "-1"):
        code, out, err = run(
            capsys, ["einv", "--config", cfg, "--divisor", "D", "--max-support", cap]
        )
        assert (code, out) == (2, "")
        assert err == f"error: --max-support must be a positive integer, got {cap}\n"


def test_workspace_with_base_genus_is_a_validation_error(tmp_path, capsys):
    scenario = dict(GOLDEN_CONFIG["scenario"], base_genus=0)
    cfg = write(tmp_path, dict(GOLDEN_CONFIG, scenario=scenario))
    code, out, err = run(capsys, ["zariski", "--config", cfg, "--divisor", "D"])
    assert (code, out) == (2, "")
    assert err == "error: unknown scenario keys: base_genus\n"


@pytest.mark.parametrize("d", ["10001", "1000000"])
def test_catalog_d_above_the_limit_is_a_validation_error(capsys, d):
    code, out, err = run(capsys, ["catalog", "--d", d])
    assert (code, out) == (2, "")
    assert err == f"error: catalog stops at d = 10000, got {d}\n"


LONG_INTEGER = "1" + "0" * 4999
ONE_CURVE_WITH_D = '{"lattice": {"curves": ["C"], "gram": [[-2]]}, "divisors": {"D": [%s]}}'


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe{}",
        b"[" * 100000,
        (ONE_CURVE_WITH_D % LONG_INTEGER).encode(),
        (ONE_CURVE_WITH_D % f'"{LONG_INTEGER}/7"').encode(),
    ],
    ids=["not-utf8", "deep-nesting", "long-integer", "long-rational"],
)
def test_hostile_config_text_is_a_one_line_validation_error(tmp_path, capsys, content):
    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    code, out, err = run(capsys, ["zariski", "--config", str(path), "--divisor", "D"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300
