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
    code, out, _ = run_cli(["oracle", "bell-max", "--refinements", "40"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(2 * math.sqrt(2), abs=1e-6)


def test_oracle_local_cli(tmp_path, capsys):
    path = write_behavior(tmp_path, born_point(TSIRELSON))
    code, out, _ = run_cli(["oracle", "local", "--input", path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["local"] is False
    assert len(doc["separating_functional"]) == 8


def test_oracle_decompose_cli(tmp_path, capsys):
    path = write_behavior(tmp_path, Behavior.from_vector(np.zeros(8)))
    code, out, _ = run_cli(
        ["oracle", "decompose", "--input", path, "--trials", "200", "--seed", "3"],
        capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["lambda"] == 0.5


@pytest.mark.parametrize("trials", ["0", "-1", "many"])
def test_oracle_decompose_trials_below_one_is_a_usage_error(tmp_path, capsys, trials):
    path = write_behavior(tmp_path, born_point(TSIRELSON))
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "decompose", "--input", path, "--trials", trials])
    assert exc.value.code == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("args, flag", [
    (["bell-max", "--resolution", "8"], "resolution"),
    (["bell-max", "--refinements", "-3"], "refinements"),
    (["decompose", "--seed", "-1"], "seed"),
], ids=["resolution8", "refinements-3", "seed-1"])
def test_oracle_out_of_range_flags_are_usage_errors(tmp_path, capsys, args, flag):
    # the parser rejects them before any library call runs
    path = write_behavior(tmp_path, born_point(TSIRELSON))
    extra = ["--input", path] if args[0] == "decompose" else []
    with pytest.raises(SystemExit) as exc:
        main(["oracle", *args, *extra])
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


def test_oracle_bell_max_offset_applies_to_the_default_functional(capsys):
    code, out, _ = run_cli(["oracle", "bell-max", "--offset", "1.5", "--refinements", "40"],
                           capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2 * math.sqrt(2) + 1.5, abs=1e-6)


def test_oracle_flags_at_their_bounds_run(tmp_path, capsys):
    code, out, _ = run_cli(["oracle", "bell-max", "--resolution", "16",
                            "--refinements", "0"], capsys)
    assert code == 0 and json.loads(out)["value"] > 2.0
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
