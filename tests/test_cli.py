import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from afspectral import algebra as al
from afspectral import cli
from afspectral import linalg
from afspectral.errors import UnboundedObjectiveError


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.strip().splitlines() if line.startswith("{")]
    return code, records


def test_flip_demo_subcommand(capsys):
    code, records = run_cli(capsys, ["flip-demo", "--pairs", "40", "--elements", "40"])
    assert code == 0
    rec = records[0]
    assert rec["record"] == "flip-demo"
    assert rec["commutator_operator_norm"] == pytest.approx(1.0)
    assert rec["max_distance_deviation"] <= 1e-6


def test_car_distance_subcommand(capsys):
    code, records = run_cli(capsys, ["distance", "--car", "--n", "1", "--lambda", "1,2,4"])
    assert code == 0
    rec = records[0]
    assert rec["lower_bound"] == pytest.approx(0.5, abs=1e-6)
    assert rec["upper_bound"] == 0.5


def test_generic_distance_subcommand(capsys):
    code, records = run_cli(
        capsys,
        ["distance", "--family", "cantor", "--depth", "2", "--gamma", "0.3333333333333333",
         "--state1", "character:00", "--state2", "character:01"],
    )
    assert code == 0
    assert records[0]["search_level"] == 2
    assert records[0]["lower_bound"] > 0



def test_generic_distance_reports_solver_diagnostics(capsys):
    argv = ["distance", "--family", "cantor", "--depth", "2", "--gamma", "0.3333333333333333",
            "--state1", "character:00", "--state2", "character:11"]
    code, records = run_cli(capsys, argv)
    assert code == 0
    rec = records[0]
    assert isinstance(rec["iterations"], int) and rec["iterations"] > 0
    assert rec["best_start"] in ("frobenius", "barrier")
    assert run_cli(capsys, argv)[1] == records

def test_iso_enumerate_depth2(capsys):
    code, records = run_cli(capsys, ["iso-enumerate", "--depth", "2", "--exhaustive"])
    assert code == 0
    assert records[0]["passing"] == 8 and records[0]["group_order"] == 8


def test_iso_check_subcommand(capsys):
    code, records = run_cli(
        capsys,
        ["iso-check", "--family", "uhf", "--depth", "3", "--lambda", "1,2,4",
         "--auto", "switch:1,2"],
    )
    assert code == 0
    assert records[0]["in_iso"] is False and records[0]["prediction"] is False


def test_switch_violation_subcommand(capsys):
    code, records = run_cli(capsys, ["switch-violation", "--k", "1", "--lambda", "1,2,4"])
    assert code == 0
    assert records[0]["gap"] == pytest.approx(0.5)


def test_shift_inequality_subcommand(capsys):
    code, records = run_cli(
        capsys, ["shift-inequality", "--n", "1", "--c", "2", "--lambda", "1,3,9",
                 "--samples", "25"]
    )
    assert code == 0
    assert records[0]["all_hold"] and records[0]["special_case_holds"]


def test_crossed_lift_subcommand(capsys):
    code, records = run_cli(
        capsys,
        ["crossed-lift", "--action", "odometer", "--depth", "2", "--lambda", "1,2",
         "--radius", "3", "--margin", "1", "--chi", "1,i", "--beta", "odometer"],
    )
    assert code == 0
    assert len(records) == 2
    assert all(r["commutation_residual"] <= 1e-10 for r in records)


def test_crossed_lift_negative_control(capsys):
    code, records = run_cli(
        capsys,
        ["crossed-lift", "--action", "trivial", "--family", "uhf", "--depth", "2",
         "--lambda", "1,2", "--radius", "3", "--margin", "1", "--chi", "1",
         "--sigma", "neg", "--expect-fail"],
    )
    assert code == 0
    assert records[0]["commutation_residual"] > 0.1


def test_odometer_lift_refuses_another_family(capsys, monkeypatch):
    # the odometer acts on the Cantor tree; a uhf request is refused, not rewritten
    monkeypatch.setattr(cli.cx, "build_lifted", lambda *a: pytest.fail("lift built"))
    assert cli.main(["crossed-lift", "--action", "odometer", "--family", "uhf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --family ")
    assert len(captured.err.splitlines()) == 1


def test_failed_assertion_exit_code(capsys):
    # a lift that commutes, asserted to fail: the record is not ok and the exit is 1
    code, records = run_cli(
        capsys,
        ["crossed-lift", "--action", "trivial", "--depth", "2", "--lambda", "1,2",
         "--radius", "3", "--margin", "1", "--chi", "1", "--expect-fail"],
    )
    assert code == 1
    (rec,) = records
    assert rec["ok"] is False and rec["expect_fail"] is True
    assert rec["commutation_residual"] <= 1e-10


def test_usage_error_exit_code(capsys):
    assert cli.main(["distance"]) == 2  # neither --car nor states given
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["distance", "--car", "--n", "0", "--lambda", "2", "--seed", "1"],
        ["cantor-metric", "--gamma", "0.3333333333", "--depth", "2", "--starts", "8"],
    ],
    ids=["distance-seed", "cantor-metric-starts"],
)
def test_flag_a_subcommand_does_not_read_is_refused(capsys, argv):
    # the distance solver is deterministic and has no start count
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error: unrecognized arguments: --")


def test_determinism_byte_identical(capsys):
    _, out1 = run_cli(capsys, ["distance", "--car", "--n", "0", "--lambda", "2"])
    _, out2 = run_cli(capsys, ["distance", "--car", "--n", "0", "--lambda", "2"])
    assert json.dumps(out1) == json.dumps(out2)


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = {"subcommand": "distance", "params": {"car": True, "n": 0, "lambda": "1,2", "l": 3}}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    code, records = run_cli(capsys, ["distance", "--config", str(path)])
    assert code == 0
    assert records[0]["upper_bound"] == 1.0


def test_config_flag_override(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"car": True, "n": 0, "lambda": "1,2"}))  # bare params
    code, records = run_cli(capsys, ["distance", "--config", str(path), "--n", "1"])
    assert code == 0
    assert records[0]["n"] == 1 and records[0]["upper_bound"] == 0.5


def test_zero_valued_flags_reach_runner(tmp_path, capsys, monkeypatch):
    # 0 == False in Python, so a filter on equality would drop these flags
    seen = {}
    monkeypatch.setitem(cli.RUNNERS, "crossed-lift", lambda p: seen.update(p) or [])
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"seed": 5, "margin": 3}))
    argv = ["crossed-lift", "--config", str(path), "--seed", "0", "--margin", "0",
            "--support", "0", "--power", "0"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert {k: seen[k] for k in ("seed", "margin", "support", "power")} == {
        "seed": 0, "margin": 0, "support": 0, "power": 0.0}
    assert seen["expect_fail"] is False  # an unset store_true flag reads its default


def test_output_file_and_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AFSPECTRAL_OUTDIR", str(tmp_path))
    code = cli.main(["flip-demo", "--pairs", "5", "--elements", "5",
                     "--output", "rec.jsonl"])
    capsys.readouterr()
    assert code == 0
    lines = (tmp_path / "rec.jsonl").read_text().strip().splitlines()
    assert json.loads(lines[0])["record"] == "flip-demo"


@pytest.mark.parametrize("target", ["nodir/x.jsonl", "."], ids=["missing-dir", "directory"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, monkeypatch, target):
    """An --output that cannot be written is refused before the runner starts."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("AFSPECTRAL_OUTDIR", raising=False)
    ran = []
    monkeypatch.setitem(cli.RUNNERS, "flip-demo", lambda params: ran.append(params) or [])
    assert cli.main(["flip-demo", "--output", target]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not ran
    assert captured.err.startswith(f"usage error: --output {target!r}")
    assert len(captured.err.splitlines()) == 1


def test_cantor_metric_subcommand(capsys):
    code, records = run_cli(
        capsys, ["cantor-metric", "--gamma", "0.3333333333", "--depth", "2"]
    )
    assert code == 0
    rec = records[0]
    assert rec["separated"] and rec["max_spread"] <= 2e-5
    assert set(rec["classes"]) == {"1", "2"}


def test_undecidable_verdict_exit_code(capsys):
    # near-tied eigenvalues put the switch residual inside the guard band
    code = cli.main(["iso-check", "--family", "uhf", "--depth", "3",
                     "--lambda", "1,1.0000001,2", "--auto", "switch:1,2"])
    captured = capsys.readouterr()
    assert code == 3
    (rec,) = [json.loads(line) for line in captured.out.splitlines()]
    assert sorted(rec) == ["error", "guard_band", "ok", "record", "residual"]
    assert rec["record"] == "undecidable" and rec["ok"] is False
    assert "guard band" in rec["error"] and "guard band" in captured.err
    low, high = rec["guard_band"]
    assert low < rec["residual"] < high


def test_unbounded_objective_record(capsys, monkeypatch):
    def unbounded(_params):
        raise UnboundedObjectiveError("nonzero objective along a Dirac-commuting direction")

    monkeypatch.setitem(cli.RUNNERS, "distance", unbounded)
    code = cli.main(["distance", "--family", "cantor", "--depth", "2"])
    captured = capsys.readouterr()
    assert code == 3
    (rec,) = [json.loads(line) for line in captured.out.splitlines()]
    assert rec == {"record": "undecidable", "ok": False,
                   "error": "nonzero objective along a Dirac-commuting direction"}


def test_linalg_failure_is_undecidable(capsys, monkeypatch):
    # a routine that does not converge is a numerical verdict, not a usage error
    def diverges(_params):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setitem(cli.RUNNERS, "flip-demo", diverges)
    assert cli.main(["flip-demo"]) == 3
    captured = capsys.readouterr()
    (rec,) = [json.loads(line) for line in captured.out.splitlines()]
    assert rec == {"record": "undecidable", "ok": False, "error": "Eigenvalues did not converge"}
    assert captured.err == "undecidable: Eigenvalues did not converge\n"


@pytest.mark.parametrize("key", ["internal_key", "state1"])
def test_key_error_naming_no_option_propagates(capsys, monkeypatch, key):
    # only a required option of the subcommand is reported missing; flip-demo has no --state1
    def broken(_params):
        raise KeyError(key)

    monkeypatch.setitem(cli.RUNNERS, "flip-demo", broken)
    with pytest.raises(KeyError, match=key):
        cli.main(["flip-demo"])
    assert capsys.readouterr().err == ""


def test_progress_goes_to_stderr(capsys):
    code = cli.main(["iso-enumerate", "--depth", "3", "--exhaustive", "--progress"])
    captured = capsys.readouterr()
    assert code == 0
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["record"] for r in records] == ["iso-enumerate"]
    assert "scanned 40320 permutations, 128 passing" in captured.err


@pytest.mark.parametrize(
    "subcommand, params, flag",
    [
        ("crossed-lift", {"radius": 4.7}, "--radius"),
        ("crossed-lift", {"expect_fail": "false"}, "--expect-fail"),
        ("distance", {"car": "false", "lambda": "1,2"}, "--car"),
        ("flip-demo", {"pairz": 5}, "pairz"),
        ("crossed-lift", {"sigma": "flip"}, "--sigma"),
        ("flip-demo", {"subcommand": "flip-demo", "params": {}, "pairs": 5}, "pairs"),
        ("flip-demo", {"pairs": -3}, "--pairs"),
        ("shift-inequality", {"samples": 0}, "--samples"),
        ("distance", {"car": True, "lambda": "1,2", "seed": 7}, "seed"),
    ],
    ids=["float-for-int", "text-for-store-true", "text-car", "unknown-key", "choices",
         "key-beside-params", "negative-count", "zero-samples", "unread-seed"],
)
def test_config_values_follow_flag_schema(tmp_path, capsys, monkeypatch, subcommand, params, flag):
    # a config value passes its flag's checks before any runner starts
    monkeypatch.setitem(cli.RUNNERS, subcommand, lambda p: pytest.fail(f"runner got {p}"))
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(params))
    assert cli.main([subcommand, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and flag in captured.err


# one JSON value for every flag a subcommand declares besides the common ones
_FLAG_SAMPLES = {
    "seed": 3, "family": "cantor", "k": [2, 3], "depth": [2, 3], "lambda": [1, 2.5],
    "gamma": 0.3, "power": 3, "car": True, "n": [0, 1], "l": [1, 2], "state1": "trace",
    "state2": "uniform", "auto": "odometer", "round-trip": [2, 1],
    "exhaustive": True, "progress": True, "d1": 0.5, "d2": 2, "pairs": 5, "elements": 6,
    "c": 1.5, "samples": 4, "action": "odometer", "radius": 3, "margin": 1, "chi": "1,i",
    "beta": "odometer", "sigma": "neg", "support": 2, "expect-fail": True, "suite": True,
}


@pytest.mark.parametrize(
    "subcommand, flag",
    [(name, flag) for name, (_, _, flags) in cli.SUBCOMMANDS.items() for flag in flags],
)
def test_config_entry_reaches_runner_as_its_flag(tmp_path, capsys, monkeypatch, subcommand, flag):
    # a config entry {dest: value} goes through the parser that reads --flag value
    seen = []
    monkeypatch.setitem(cli.RUNNERS, subcommand, lambda p: seen.append(p) or [])
    value, dest = _FLAG_SAMPLES[flag], flag.replace("-", "_")
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({dest: value}))
    assert cli.main([subcommand, "--" + flag] + ([] if value is True else [text])) == 0
    assert cli.main([subcommand, "--config", str(path)]) == 0
    assert cli.main([subcommand]) == 0
    capsys.readouterr()
    from_flag, from_config, defaults = seen
    assert from_config == from_flag
    assert from_flag[dest] != defaults.get(dest)


def test_config_values_read_as_flag_text(tmp_path, capsys):
    # JSON lists and numbers give the records the same flags give
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"car": True, "n": [0, 1], "lambda": [1, 2, 4], "l": [1, 3]}))
    code, from_file = run_cli(capsys, ["distance", "--config", str(path)])
    argv = ["distance", "--car", "--n", "0,1", "--lambda", "1,2,4", "--l", "1,3"]
    assert code == 0 and from_file == run_cli(capsys, argv)[1]
    assert [type(v) for v in from_file[0]["lambda"]] == [float]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["switch-violation"], "--lambda"),
        (["distance", "--car", "--n", "0,1,2", "--l", "1,2,3"], "--lambda"),
        (["distance", "--family", "cantor", "--depth", "2", "--state2", "character:01"],
         "--state1"),
        (["iso-check", "--family", "uhf", "--depth", "2"], "--auto"),
    ],
)
def test_missing_required_option_is_named(capsys, argv, flag):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"usage error: missing required option {flag}"


def test_iso_enumerate_rejects_lambda_for_several_depths(capsys):
    # one eigenvalue list cannot fit depths 2 and 3; it used to be dropped silently
    assert cli.main(["iso-enumerate", "--depth", "2,3", "--lambda", "1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--lambda" in captured.err


@pytest.mark.parametrize(
    "content",
    [None, "{", "[1,2]", '{"subcommand": "distance", "params": {}}'],
    ids=["missing", "malformed", "list", "wrong-subcommand"],
)
def test_config_file_errors_are_usage_errors(tmp_path, capsys, content):
    path = tmp_path / "exp.json"
    if content is not None:
        path.write_text(content)
    assert cli.main(["flip-demo", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and str(path) in captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["distance", "--family", "cantor", "--depth", "2,3", "--state1", "character:00",
          "--state2", "character:01"], "--depth"),
        (["switch-violation", "--k", "x", "--lambda", "1,2,4"], "--k"),
        (["distance", "--car", "--l", "a", "--lambda", "1,2,4"], "--l"),
        (["iso-check", "--k", "two"], "--k"),
        (["iso-check", "--round-trip", "1"], "--round-trip"),
        (["shift-inequality", "--n", "1.5"], "--n"),
        (["iso-check", "--round-trip", "1,-2"], "--round-trip"),
        (["flip-demo", "--pairs", "-3"], "--pairs"),
        (["flip-demo", "--elements", "-1"], "--elements"),
        (["shift-inequality", "--samples", "-1"], "--samples"),
        (["crossed-lift", "--support", "-1"], "--support"),
        (["distance", "--car", "--n", "-1", "--lambda", "1,2"], "--n"),
        (["cantor-metric", "--depth", "-2"], "--depth"),
        (["flip-demo", "--pairs", "two"], "--pairs"),
        (["flip-demo", "--pairs", "0"], "--pairs"),
        (["flip-demo", "--elements", "0"], "--elements"),
        (["shift-inequality", "--samples", "0"], "--samples"),
        (["flip-demo", "--seed", "-1"], "--seed"),
        (["crossed-lift", "--depth", "2", "--seed", "-3"], "--seed"),
        (["iso-check", "--round-trip", "2,2", "--seed", "-3"], "--seed"),
    ],
)
def test_malformed_integer_flag_is_named(capsys, argv, flag):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {flag} expects ")


_UHF3 = ["--depth", "3", "--lambda", "1,2,4"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["iso-check", *_UHF3, "--auto", "switch:1"], "--auto"),
        (["iso-check", *_UHF3, "--auto", "switch:0,1"], "--auto"),
        (["iso-check", *_UHF3, "--auto", "switch:1,9"], "--auto"),
        (["iso-check", *_UHF3, "--auto", "portrait:0x1"], "--auto"),
        (["iso-check", *_UHF3, "--auto", "nosuch"], "--auto"),
        (["crossed-lift", "--depth", "2", "--beta", "switch:1,9"], "--beta"),
        (["crossed-lift", "--depth", "2", "--chi", "exp:1/0"], "--chi"),
        (["crossed-lift", "--depth", "2", "--chi", "1,exp:1/x"], "--chi"),
        (["distance", *_UHF3, "--state1", "bogus", "--state2", "trace"], "--state1"),
        (["distance", *_UHF3, "--state1", "trace", "--state2", "carvec:4"], "--state2"),
        (["distance", *_UHF3, "--state1", "trace", "--state2", "vector:1:1,2"], "--state2"),
        (["distance", *_UHF3, "--state1", "carvec:3:1:junk", "--state2", "trace"], "--state1"),
        (["iso-check", *_UHF3, "--auto", "identity:junk"], "--auto"),
        (["iso-check", "--family", "cantor", "--depth", "2", "--auto", "odometer:junk"], "--auto"),
    ],
)
def test_malformed_spec_state_or_chi_is_named(capsys, argv, flag):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {flag} ")


@pytest.mark.parametrize(
    "argv, named",
    [
        (["crossed-lift", "--radius", "4.7"], "--radius"),
        (["crossed-lift", "--sigma", "flip"], "--sigma"),
        (["distance", "--family", "x"], "--family"),
        (["flip-demo", "--bogus"], "--bogus"),
        (["nosuch"], "nosuch"),
        ([], "subcommand"),
    ],
)
def test_argparse_errors_are_returned_usage_errors(capsys, argv, named):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and named in captured.err
    assert captured.err.count("\n") == 1  # one line, no argparse usage text
    if named == "--radius":  # the line the README quotes
        assert captured.err == "usage error: --radius invalid int value: '4.7'\n"


@pytest.mark.parametrize("source", ["flags", "config"])
def test_abbreviated_flag_is_a_usage_error(tmp_path, capsys, monkeypatch, source):
    # --pair is not read as --pairs, on the command line as in a config file
    monkeypatch.setitem(cli.RUNNERS, "flip-demo", lambda p: pytest.fail(f"runner got {p}"))
    argv = ["flip-demo", "--pair", "5", "--elem", "5"]
    if source == "config":
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"pair": 5}))
        argv = ["flip-demo", "--config", str(path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and "pair" in captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["distance", "--family", "cantor", "--depth", "2", "--state1", "character:0",
          "--state2", "uniform"], "--state1"),
        (["distance", "--family", "cantor", "--depth", "2", "--state1", "uniform",
          "--state2", "trace"], "--state2"),
        (["distance", "--depth", "2", "--state1", "character:00", "--state2", "trace"], "--state1"),
        (["switch-violation", "--lambda", "1,2,4", "--k", "5"], "--k"),
        (["distance", "--car", "--n", "0", "--l", "7", "--lambda", "1"], "--l"),
        (["switch-violation", "--lambda", "1,1,4", "--k", "1"], "--lambda"),
        (["distance", "--car", "--n", "3", "--lambda", "1,2"], "--lambda"),
    ],
    ids=["short-character", "trace-on-cantor", "character-on-uhf", "switch-beyond-depth",
         "car-label", "switch-tied-eigenvalues", "car-short-lambda"],
)
def test_input_refused_by_the_library_names_its_flag(capsys, argv, flag):
    # a value the parser's type accepts but the triple cannot serve
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {flag} ")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["crossed-lift", "--help"])
    assert exc.value.code == 0
    assert "--radius" in capsys.readouterr().out


def _readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [cmd for cmd in block.replace("\\\n", " ").splitlines() if cmd.strip()]


def test_readme_cli_examples_parse():
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    parser = cli.build_parser()
    for line in lines:
        words = shlex.split(line, comments=True)
        assert words[0] == "afspectral", line
        args = parser.parse_args(words[1:])
        assert args.subcommand in cli.RUNNERS


def test_oversized_distance_exits_with_usage_error(capsys, monkeypatch):
    # carvec:3:2 factors through level 3: 63 elements acting on 64 basis vectors
    monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", 2**20)
    argv = ["distance", "--depth", "3", "--lambda", "1,2,4", "--state1", "carvec:3:2",
            "--state2", "trace"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "search level 3 needs a 3.94 MiB commutator stack, over the 1 MiB limit" in err


def test_oversized_depth_exits_with_usage_error(capsys, monkeypatch):
    # uhf depth 7: a 4.3 GB basis stack, refused before it is built
    monkeypatch.setattr(al, "_uhf_stack", None)
    assert cli.main(["iso-check", "--depth", "7", "--auto", "identity"]) == 2
    assert "depth 7 needs a 4.1e+03 MiB basis stack" in capsys.readouterr().err
