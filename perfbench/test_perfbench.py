"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

They run the benchmark's own code and two short real runs of the certify
workload; they do not judge qset's speed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_counts, layer_metrics, self_times  # noqa: E402


def test_same_seed_gives_identical_inputs():
    for make in (inputs.certify_inputs, inputs.scan_inputs, inputs.crosscheck_inputs):
        assert inputs.digest(make(7)) == inputs.digest(make(7))
        assert inputs.digest(make(7)) != inputs.digest(make(8))


def test_generated_labels_hold():
    items = inputs.certify_inputs(3)
    for it in items:
        if it.kind == "exposed":
            assert inputs.alternation_margins(*it.params).min() >= inputs.MARGIN
        if it.kind == "boundary":
            assert inputs.alternation_margins(*it.params)[2] == 0.0
        if it.kind == "invalid":
            assert not inputs.is_valid(it.vector)
        else:
            assert inputs.is_valid(it.vector)
    assert len(items) == sum(inputs.CERTIFY_MIX.values())


def test_known_defects_counted_apart_from_failures():
    status = [True, False, np.False_, workloads.KNOWN]
    assert workloads.split(status) == ([0, 1, 1, 0], [0, 0, 0, 1])


def test_self_time_arithmetic_on_synthetic_nest():
    # A[0,100] has children B[10,40] and C[30,60] (overlapping: union 10..60),
    # B has child D[20,25], C has child E[70,90] that lies outside C.
    spans = [
        ("A", 0, 100, -1, 0, None),
        ("B", 10, 40, 0, 0, None),
        ("D", 20, 25, 1, 0, None),
        ("C", 30, 60, 0, 0, None),
        ("E", 70, 90, 3, 0, None),
    ]
    assert self_times(spans) == [50, 25, 5, 30, 20]


def test_layer_metrics_counts_and_ratios():
    ms = 1_000_000
    spans = [
        ("extremality.classify", 0, 10 * ms, -1, 0, "ExtremalExposed"),
        ("behavior.validate", 1 * ms, 2 * ms, 0, 0, None),
        ("behavior.validate", 3 * ms, 4 * ms, 0, 0, None),
        ("extremality.classify", 20 * ms, 22 * ms, -1, 1, "Indeterminate"),
        ("behavior.validate", 20 * ms, 21 * ms, 3, 1, None),
        ("oracles.least_squares", 30 * ms, 31 * ms, -1, 2, (1200, 0)),
        ("oracles.least_squares", 32 * ms, 33 * ms, -1, 2, (40, 2)),
    ]
    m = layer_metrics(layer_counts(spans))
    assert m["extremality.classify.calls"] == 2
    assert m["extremality.classify.self_ms"] == pytest.approx(8 + 1)
    assert m["behavior.validate.calls"] == 3
    assert m["extremality.classify.validate_per_extremal"] == 2
    assert m["extremality.indeterminate_ratio"] == 0.5
    assert m["oracles.least_squares.nfev"] == 1240
    assert m["oracles.least_squares.capped_ratio"] == 0.5
    assert m["witness.find_witness.calls"] == 0


def test_tracer_installs_and_restores():
    qset = run.import_qset()
    import qset.extremality

    original = qset.classify
    p = qset.Behavior.from_vector(inputs.draw_exposed(np.random.default_rng(1)).vector)
    tracer = Tracer()
    tracer.install()
    try:
        assert qset.classify is not original
        assert qset.extremality.classify is qset.classify
        qset.classify(p)
    finally:
        tracer.uninstall()
    assert qset.classify is original and qset.extremality.classify is original
    names = [s[0] for s in tracer.spans()]
    assert names[0] == "extremality.classify" and "behavior.validate" in names


def test_relabeling_orbit_matches_library():
    qset = run.import_qset()
    assert len({tuple(p) + tuple(s) for p, s in zip(workloads.PERMS, workloads.SIGNS)}) == 128
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.uniform(-1, 1, 8)
        canon, _ = qset.canonical_behavior(qset.Behavior.from_vector(v))
        assert tuple(canon.vector) == workloads.lexmin(v)


def test_benchmark_json_matches_reported_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def _run(*args):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace,units", [("0", run.END_TO_END), ("1", None)])
def test_every_metric_printed_with_unit(trace, units):
    units = units or run.per_layer_units()
    proc = _run("--workload", "certify", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"certify {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert result["attempted"] >= 1


def test_oracle_latency_medians_pool_passes():
    a = workloads.Pass(latency_ns=[5000, 3000, 2_000_000, 5_000_000_000],
                       kinds=["lp", "lp", "bell", "edge"])
    b = workloads.Pass(latency_ns=[1000, 2000], kinds=["lp", "lp"])
    assert run.oracle_latencies([a, b]) == {"lp_p50_us": 2.5, "bellmax_p50_ms": 2.0,
                                            "decompose_p50_ms": 0.0, "edge_decompose_s": 5.0}
    assert set(run.ORACLE_LATENCIES) <= set(run.per_layer_units())


def test_fails_without_the_library():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
