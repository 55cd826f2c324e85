import argparse
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qset import Behavior, born_point
from qset.cli import main

from conftest import NONALT, PI8_EDGE, TSIRELSON, fails_necessary_mixture, qset_env

PI = math.pi


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def realization_flags(r):
    return ["--theta", repr(r.theta), "--a0", repr(r.a[0]), "--a1", repr(r.a[1]),
            "--b0", repr(r.b[0]), "--b1", repr(r.b[1])]


def write_behavior(tmp_path, p, name="behavior.json"):
    path = tmp_path / name
    path.write_text(json.dumps(p.to_json_dict()))
    return str(path)


def test_eval_tsirelson_json(capsys):
    code, out, _ = run_cli(["eval", *realization_flags(TSIRELSON), "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    p = Behavior.from_json_dict(doc)
    assert np.allclose(p.vector, born_point(TSIRELSON).vector, atol=1e-15)


def test_eval_table_and_json_agree(capsys):
    code, out_json, _ = run_cli(["eval", *realization_flags(PI8_EDGE), "--json"], capsys)
    assert code == 0
    code, out_tab, _ = run_cli(["eval", *realization_flags(PI8_EDGE)], capsys)
    assert code == 0
    doc = json.loads(out_json)
    first_table_value = float(out_tab.split("=")[1].split()[0])
    assert first_table_value == doc["margA"][0]


def test_eval_degrees_flag(capsys):
    code, out, _ = run_cli(
        ["eval", "--theta", "45", "--a0", "0", "--a1", "90", "--b0", "45",
         "--b1", "135", "--degrees", "--json"], capsys)
    assert code == 0
    p = Behavior.from_json_dict(json.loads(out))
    assert np.allclose(p.vector, born_point(TSIRELSON).vector, atol=1e-12)


def test_malformed_flag_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "qset.cli", "eval", "--theta", "abc",
         "--a0", "0", "--a1", "0", "--b0", "0", "--b1", "0"],
        capture_output=True, text=True, env=qset_env())
    assert proc.returncode == 2
    assert proc.stderr


def test_classify_pi8_edge_file(tmp_path, capsys):
    path = write_behavior(tmp_path, born_point(PI8_EDGE))
    code, out, _ = run_cli(["classify", "--input", path], capsys)
    assert code == 0
    assert out.strip() == "ExtremalNonExposed"


def test_classify_json_details(tmp_path, capsys):
    path = write_behavior(tmp_path, born_point(NONALT))
    code, out, _ = run_cli(["classify", "--input", path, "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "NonExtremalInQ"
    assert doc["caveat"] == "membership in Q not certified"


def test_classify_json_extremal_details(tmp_path, capsys):
    from qset import classify

    p = born_point(PI8_EDGE)
    code, out, _ = run_cli(["classify", "--input", write_behavior(tmp_path, p), "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    det = classify(p).details
    assert doc == {"verdict": "ExtremalNonExposed", "pattern": [1, -1, 1, 1],
                   "alternation_margins": det["alternation_margins"].tolist(),
                   "asin_residuals": det["asin_residuals"].tolist()}


def test_classify_json_fails_necessary_caveat(tmp_path, capsys):
    path = write_behavior(tmp_path, fails_necessary_mixture())
    code, out, _ = run_cli(["classify", "--input", path, "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "FailsNecessaryQ2Pure"
    assert doc["caveat"] == "membership in Q not certified"


def test_classify_invalid_behavior_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"margA": [0, 0], "margB": [0, 0],
                                "corr": [[1.5, 0], [0, 0]]}))
    code, _, err = run_cli(["classify", "--input", str(path)], capsys)
    assert code == 1
    assert "invalid" in err
    assert "component <A0B0> = 1.5 out of range" in err
    assert "np.float64" not in err


@pytest.mark.parametrize("number", ["1" + "0" * 400, "-1" + "0" * 400, "1e400"],
                         ids=["huge-int", "huge-negative-int", "huge-float"])
def test_number_too_large_for_a_float_is_an_invalid_behavior(tmp_path, capsys, number):
    # an integer too large for a float arrives as +-inf, as the literal 1e400 does
    path = tmp_path / "huge.json"
    path.write_text('{"margA": [%s, 0], "margB": [0, 0], "corr": [[0, 0], [0, 0]]}' % number)
    for command in (["classify"], ["selftest"], ["oracle", "local"],
                    ["oracle", "decompose", "--trials", "1"]):
        code, out, err = run_cli([*command, "--input", str(path)], capsys)
        assert (code, out, err) == (1, "", "invalid behavior: component <A0> is not finite\n")


ZERO_MARGINALS = {"margB": [0, 0], "corr": [[0, 0], [0, 0]]}


@pytest.mark.parametrize("doc, message", [
    ({"margA": [0], **ZERO_MARGINALS}, "margA must be 2 numbers, got [0]"),
    ({"margA": ["x", 0], **ZERO_MARGINALS}, "margA must be 2 numbers, got ['x', 0]"),
    ([1, 2], "a behavior must be a JSON object, got [1, 2]"),
    ({"margA": None, **ZERO_MARGINALS}, "margA must be 2 numbers, got None"),
    (ZERO_MARGINALS, "behavior document is missing 'margA'"),
    ({"margA": [0, 0], "corr": [[0, 0], [0, 0]]}, "behavior document is missing 'margB'"),
    ({"margA": [0, 0], "margB": [0, 0]}, "behavior document is missing 'corr'"),
], ids=["short", "string", "array", "null", "no-margA", "no-margB", "no-corr"])
def test_malformed_behavior_document_is_a_usage_error(tmp_path, capsys, doc, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    for command in (["classify"], ["selftest"], ["oracle", "local"],
                    ["oracle", "decompose", "--trials", "1"]):
        code, out, err = run_cli([*command, "--input", str(path)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")
    # the same document on stdin, in a fresh interpreter
    proc = subprocess.run([sys.executable, "-m", "qset", "classify", "--input", "-"],
                          input=json.dumps(doc), capture_output=True, text=True, env=qset_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_undecodable_behavior_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff{}")
    code, out, err = run_cli(["classify", "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")


def test_selftest_roundtrip_pipeline(tmp_path, capsys):
    path = write_behavior(tmp_path, born_point(PI8_EDGE))
    code, out, _ = run_cli(["selftest", "--input", path], capsys)
    assert code == 0
    doc = json.loads(out)
    rec = doc["realization"]
    assert rec["theta"] == pytest.approx(PI / 8, abs=1e-6)
    assert rec["a"] == pytest.approx([0.0, PI / 2], abs=1e-6)
    assert rec["b"] == pytest.approx([PI / 4, 3 * PI / 4], abs=1e-6)


def test_selftest_precondition_exit_3(tmp_path, capsys):
    path = write_behavior(tmp_path, born_point(NONALT))
    code, _, err = run_cli(["selftest", "--input", path], capsys)
    assert code == 3
    assert "NotSelfTesting" in err


def test_witness_sector_json(capsys):
    r16 = [ "--theta", repr(PI / 16), "--a0", "0", "--a1", repr(PI / 2),
            "--b0", repr(PI / 4), "--b1", repr(3 * PI / 4)]
    code, out, _ = run_cli(["witness", *r16, "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "non-exposed"
    assert doc["witness"]["sector"] == [1, 1]


def test_witness_plain_output_is_the_witness_json(capsys):
    code, plain, _ = run_cli(["witness", *realization_flags(PI8_EDGE)], capsys)
    assert code == 0
    code, full, _ = run_cli(["witness", *realization_flags(PI8_EDGE), "--json"], capsys)
    assert code == 0
    doc = json.loads(full)
    assert doc["status"] == "non-exposed"
    assert json.loads(plain) == doc["witness"]


def test_witness_exposed_none(capsys):
    code, out, _ = run_cli(["witness", *realization_flags(TSIRELSON)], capsys)
    assert code == 0
    assert out.strip() == "exposed/none"


def test_scan_single_point_matches_classify(tmp_path, capsys):
    code, out, _ = run_cli(
        ["scan", "--range", f"theta={PI8_EDGE.theta}:{PI8_EDGE.theta}:1",
         "--a0", "0", "--a1", repr(PI / 2), "--b0", repr(PI / 4),
         "--b1", repr(3 * PI / 4)], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("theta,a0,a1,b0,b1,verdict")
    assert lines[1].split(",")[5] == "ExtremalNonExposed"


def test_scan_byte_stable(tmp_path, capsys):
    args = ["scan", "--range", "theta=0.1:0.7:9", "--a0", "0",
            "--a1", repr(PI / 2), "--b0", repr(PI / 4), "--b1", repr(3 * PI / 4)]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    code, out2, _ = run_cli(args, capsys)
    assert code == 0
    assert out1 == out2


def test_scan_row_order_lexicographic(capsys):
    code, out, _ = run_cli(
        ["scan", "--range", "theta=0.2:0.3:2", "--range", "b0=0.5:0.6:2",
         "--a0", "0", "--a1", "1.2", "--b1", "2.0"], capsys)
    assert code == 0
    rows = [line.split(",")[:5] for line in out.strip().split("\n")[1:]]
    thetas = [float(r[0]) for r in rows]
    b0s = [float(r[3]) for r in rows]
    assert thetas == sorted(thetas)
    assert b0s == [0.5, 0.6, 0.5, 0.6]


def test_oracle_bell_max_cli(capsys):
    code, out, _ = run_cli(["oracle", "bell-max"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    code, out, _ = run_cli(["oracle", "bell-max", "--coeffs", "1", "0", "0", "0",
                            "1", "1", "1", "-1"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(math.sqrt(10), abs=1e-9)


@pytest.mark.parametrize("flag", ["--resolution", "--refinements"])
def test_oracle_bell_max_takes_no_search_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "bell-max", flag, "16"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["steer", *realization_flags(PI8_EDGE)], ["selftest"],
                                     ["oracle", "bell-max"], ["oracle", "local"],
                                     ["oracle", "decompose"]],
                         ids=["steer", "selftest", "bell-max", "local", "decompose"])
def test_json_flag_only_where_a_command_reads_it(capsys, command):
    # these commands always print JSON; the parser refuses the flag before
    # any input is read
    with pytest.raises(SystemExit) as exc:
        main([*command, "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_oracle_local_cli(tmp_path, capsys):
    path = write_behavior(tmp_path, born_point(TSIRELSON))
    code, out, _ = run_cli(["oracle", "local", "--input", path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["local"] is False
    assert len(doc["separating_functional"]) == 8


def test_oracle_local_cli_on_a_local_point(tmp_path, capsys):
    from qset import enumerate_vertices

    vertices = np.array([v.behavior.vector for v in enumerate_vertices()])
    p = Behavior.from_vector(0.3 * vertices[1] + 0.7 * vertices[6])
    code, out, _ = run_cli(["oracle", "local", "--input", write_behavior(tmp_path, p)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["local"] is True and set(doc) == {"local", "weights"}
    weights = np.array(doc["weights"])
    assert weights.shape == (16,) and weights.min() >= 0
    assert np.max(np.abs(weights @ vertices - p.vector)) <= 1e-9


def test_steer_json_is_the_steered_table(capsys):
    from qset.steering import steered_table

    code, out, _ = run_cli(["steer", *realization_flags(PI8_EDGE)], capsys)
    assert code == 0
    table = steered_table(PI8_EDGE)
    assert json.loads(out) == {"atilde": table.atilde.tolist(), "correlators": table.c.tolist()}


def test_oracle_decompose_cli(tmp_path, capsys):
    path = write_behavior(tmp_path, Behavior.from_vector(np.zeros(8)))
    code, out, _ = run_cli(
        ["oracle", "decompose", "--input", path, "--trials", "200", "--seed", "3"],
        capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["lambda"] == 0.5


def test_oracle_decompose_hint_finds_the_non_alternating_split(tmp_path, capsys):
    # without the hint, seed 0 misses NONALT's split
    path = write_behavior(tmp_path, born_point(NONALT))
    args = ["oracle", "decompose", "--input", path, "--seed", "0"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0 and json.loads(out)["found"] is False
    code, out, _ = run_cli([*args, "--hint", *map(repr, NONALT.params())], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True and doc["residual"] <= 1e-10 and doc["separation"] >= 1e-3
    mix = 0.5 * (Behavior.from_json_dict(doc["p1"]).vector + Behavior.from_json_dict(doc["p2"]).vector)
    assert np.max(np.abs(mix - born_point(NONALT).vector)) <= 1e-10


@pytest.mark.parametrize("hint, message", [
    (["0.3", "0", "1", "2", "nan"], "hint must be finite"),
    (["0.3", "0", "1", "2", "x"], "hint must be a number, got 'x'"),
    (["0.3", "0", "1", "2"], "expected 5 arguments"),
], ids=["nan", "not-a-number", "four-values"])
def test_oracle_decompose_bad_hint_is_a_usage_error(tmp_path, capsys, hint, message):
    path = write_behavior(tmp_path, born_point(NONALT))
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "decompose", "--input", path, "--hint", *hint])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("trials", ["0", "-1", "many"])
def test_oracle_decompose_trials_below_one_is_a_usage_error(tmp_path, capsys, trials):
    path = write_behavior(tmp_path, born_point(TSIRELSON))
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "decompose", "--input", path, "--trials", trials])
    assert exc.value.code == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("args, flag", [
    (["decompose", "--seed", "-1"], "seed"),
], ids=["seed-1"])
def test_oracle_out_of_range_flags_are_usage_errors(tmp_path, capsys, args, flag):
    # the parser rejects them before any library call runs
    path = write_behavior(tmp_path, born_point(TSIRELSON))
    with pytest.raises(SystemExit) as exc:
        main(["oracle", *args, "--input", path])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


WITNESS_FLAGS = ["--a0", "0", "--a1", "1.5707963268", "--b0", "0.7853981634",
                 "--b1", "2.3561944902"]


@pytest.mark.parametrize("args, flag", [
    (["oracle", "bell-max", "--coeffs", "nan", "0", "0", "0", "1", "1", "1", "-1"], "coeffs"),
    (["oracle", "bell-max", "--offset", "inf"], "offset"),
    (["eval", "--theta", "nan", *WITNESS_FLAGS], "theta"),
    (["witness", "--theta", "inf", *WITNESS_FLAGS], "theta"),
    (["witness", "--theta", "0.2", *WITNESS_FLAGS[:-2], "--b1=-inf"], "b1"),
    (["scan", "--range", "theta=0:1:2", *WITNESS_FLAGS[:-1], "nan"], "b1"),
    (["scan", "--range", "theta=0:inf:2", *WITNESS_FLAGS], "range"),
], ids=["bell-max-coeffs", "bell-max-offset", "eval-theta", "witness-theta",
        "witness-b1", "scan-b1", "scan-range"])
def test_non_finite_float_flags_are_usage_errors(capsys, args, flag):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{flag} must be finite" in err or f"{flag} bounds must be finite" in err


@pytest.mark.parametrize("args, message", [
    (["eval", "--theta", "abc", *WITNESS_FLAGS], "theta must be a number, got 'abc'"),
    (["oracle", "bell-max", "--offset", "1,5"], "offset must be a number, got '1,5'"),
], ids=["eval-theta", "bell-max-offset"])
def test_non_number_float_flags_are_usage_errors(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_oracle_bell_max_offset_applies_to_the_default_functional(capsys):
    code, out, _ = run_cli(["oracle", "bell-max", "--offset", "1.5"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2 * math.sqrt(2) + 1.5, abs=1e-6)


def test_oracle_flags_at_their_bounds_run(tmp_path, capsys):
    path = write_behavior(tmp_path, Behavior.from_vector(np.zeros(8)))
    code, out, _ = run_cli(["oracle", "decompose", "--input", path, "--trials", "1",
                            "--seed", "0"], capsys)
    assert code == 0 and json.loads(out)["seed"] == 0


def test_stdin_input(tmp_path):
    payload = json.dumps(born_point(PI8_EDGE).to_json_dict())
    proc = subprocess.run(
        [sys.executable, "-m", "qset.cli", "classify", "--input", "-"],
        input=payload, capture_output=True, text=True, env=qset_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ExtremalNonExposed"


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, _, _ = run_cli(
        ["eval", *realization_flags(PI8_EDGE), "--json", "--output", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert Behavior.from_json_dict(doc)


def scan_args(steps):
    return ["scan", "--range", f"theta=0.1:0.7:{steps}", "--a0", "0", "--a1", "1.2",
            "--b0", "0.6", "--b1", "2.5"]


def test_output_file_rewritten_in_place(tmp_path, capsys):
    # a shorter scan over a longer file leaves exactly the new text
    out_path = tmp_path / "scan.csv"
    code, short, _ = run_cli(scan_args(2), capsys)
    assert code == 0
    assert run_cli([*scan_args(9), "--output", str(out_path)], capsys)[0] == 0
    assert len(out_path.read_bytes()) > len(short.encode())
    assert run_cli([*scan_args(2), "--output", str(out_path)], capsys)[:2] == (0, "")
    assert out_path.read_bytes() == short.encode()


def test_output_file_created_with_default_permissions(tmp_path, capsys):
    out_path, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    ref.write_text("")
    assert run_cli([*scan_args(2), "--output", str(out_path)], capsys)[0] == 0
    assert out_path.stat().st_mode == ref.stat().st_mode


def test_output_to_dev_null_and_stdout(capsys):
    code, out, _ = run_cli([*scan_args(2), "--output", "/dev/null"], capsys)
    assert (code, out) == (0, "")
    code, out, _ = run_cli([*scan_args(2), "--output", "-"], capsys)
    assert code == 0 and out == run_cli(scan_args(2), capsys)[1]
    assert len(out.splitlines()) == 3


def test_scan_column_selection(capsys):
    code, out, _ = run_cli(
        ["scan", "--range", "theta=0.3:0.4:3", "--a0", "0", "--a1", "1.2",
         "--b0", "0.7", "--b1", "2.0", "--columns", "theta,verdict"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta,verdict"
    assert all(len(line.split(",")) == 2 for line in lines[1:])


def test_scan_spec_validation():
    from qset.cli import ScanSpec

    with pytest.raises(ValueError):
        ScanSpec(ranges={"theta": (0.5, 0.1, 3)}, fixed={"a0": 0, "a1": 1, "b0": 0, "b1": 1})
    with pytest.raises(ValueError):
        ScanSpec(ranges={"theta": (0.1, 0.5, 0)}, fixed={"a0": 0, "a1": 1, "b0": 0, "b1": 1})
    with pytest.raises(ValueError):
        ScanSpec(ranges={"theta": (0.1, 0.5, 3)}, fixed={"a0": 0})
    with pytest.raises(ValueError):
        ScanSpec(ranges={"theta": (0.1, 0.5, 3)},
                 fixed={"a0": 0, "a1": 1, "b0": 0, "b1": 1}, columns=("bogus",))


def test_eval_selftest_shell_pipeline():
    eval_proc = subprocess.run(
        [sys.executable, "-m", "qset.cli", "eval", "--theta", repr(PI / 8),
         "--a0", "0", "--a1", repr(PI / 2), "--b0", repr(PI / 4),
         "--b1", repr(3 * PI / 4), "--json"],
        capture_output=True, text=True, env=qset_env())
    assert eval_proc.returncode == 0
    st_proc = subprocess.run(
        [sys.executable, "-m", "qset.cli", "selftest", "--input", "-"],
        input=eval_proc.stdout, capture_output=True, text=True, env=qset_env())
    assert st_proc.returncode == 0
    doc = json.loads(st_proc.stdout)
    assert doc["realization"]["theta"] == pytest.approx(PI / 8, abs=1e-6)
    assert doc["realization"]["a"] == pytest.approx([0.0, PI / 2], abs=1e-6)


def test_python_m_qset_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "qset", "eval", *realization_flags(TSIRELSON), "--json"],
        capture_output=True, text=True, env=qset_env())
    assert proc.returncode == 0, proc.stderr
    p = Behavior.from_json_dict(json.loads(proc.stdout))
    assert np.allclose(p.vector, born_point(TSIRELSON).vector, atol=1e-12)


SCAN_A = ["scan", "--range", "theta=0.1:1.4:5", "--range", "a1=0.4:2.8:3",
          "--range", "b0=0:2.5:2", "--a0", "0", "--b1", "2.7"]


def test_one_process_shares_the_parser_across_calls(capsys):
    code, first, _ = run_cli(SCAN_A, capsys)
    assert code == 0 and len(first.splitlines()) == 1 + 5 * 3 * 2
    code, _, err = run_cli(["scan", "--range", "theta=0.1:0.2:2",
                            "--range", "theta=0.5:0.6:1", "--a0", "0", "--a1", "1",
                            "--b0", "0.5", "--b1", "2"], capsys)
    assert code == 2 and "theta" in err
    code, out, _ = run_cli(["oracle", "bell-max"], capsys)
    assert code == 0 and json.loads(out)["value"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--help"])
    assert exc.value.code == 0 and "--range" in capsys.readouterr().out
    code, out, _ = run_cli(["scan", "--range", "b1=1.5:2.5:3", "--theta", "0.3",
                            "--a0", "0", "--a1", "1.2", "--b0", "0.6"], capsys)
    assert code == 0
    rows = [line.split(",")[:5] for line in out.splitlines()[1:]]
    assert [[float(x) for x in row] for row in rows] == [
        [0.3, 0.0, 1.2, 0.6, b1] for b1 in (1.5, 2.0, 2.5)]
    code, again, _ = run_cli(SCAN_A, capsys)
    assert code == 0 and again == first


@pytest.mark.parametrize("args, name", [
    (["--range", "b0=0.1:0.2:2", "--range", "b0=0.5:0.6:1",
      "--theta", "0.3", "--a0", "0", "--a1", "1", "--b1", "2"], "b0"),
    (["--range", "a1=0.1:0.2:2", "--a1", "0.7",
      "--theta", "0.3", "--a0", "0", "--b0", "0.5", "--b1", "2"], "a1"),
], ids=["ranged-twice", "ranged-and-fixed"])
def test_scan_repeated_or_conflicting_parameter_is_a_usage_error(capsys, args, name):
    code, out, err = run_cli(["scan", *args], capsys)
    assert code == 2
    assert out == ""
    assert f"parameter {name} " in err


SCAN_FIXED = ["--a0", "0", "--a1", "1", "--b0", "0.5", "--b1", "2"]


@pytest.mark.parametrize("args, message", [
    (["--range", "x=0:1:2", "--theta", "0.3", *SCAN_FIXED], "unknown scan parameter 'x'"),
    (["--range", "theta=0:1:0", *SCAN_FIXED], "need steps >= 1 and min <= max"),
    (["--range", "theta=1:0:2", *SCAN_FIXED], "need steps >= 1 and min <= max"),
    (["--range", "theta=0:1:2", *SCAN_FIXED[:-2]], "parameters neither ranged nor fixed: ['b1']"),
    (["--range", "theta=0:1:2", *SCAN_FIXED, "--columns", "theta,bogus"],
     "unknown output columns: ['bogus']"),
], ids=["unknown-parameter", "steps-0", "min-above-max", "missing-parameter", "unknown-column"])
def test_scan_spec_errors_are_usage_errors(capsys, args, message):
    code, out, err = run_cli(["scan", *args], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_second_main_call_builds_no_parser(monkeypatch, capsys):
    argv = ["scan", "--range", "theta=0.1:0.7:4", "--a0", "0", "--a1", "1.2",
            "--b0", "0.6", "--b1", "2.5"]
    assert run_cli(argv, capsys)[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(argv, capsys)[0] == 0
    assert built == []
