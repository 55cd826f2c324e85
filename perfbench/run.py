"""qset benchmark: certify, scan and crosscheck workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; qset is imported from its ``src``.  With
``--trace 0`` the run measures the end-to-end metrics with the library
untouched; with ``--trace 1`` it makes one untraced and one traced pass and
reports per-layer calls and self time, plus the tracing overhead.  Every line
but the last is a human-readable report; the last is one JSON object
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Fresh interpreters per run that time ``import qset`` plus the first operation.
SETUP_RUNS = 5

#: name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
    "op_p50_ms": "ms", "op_p99_ms": "ms", "peak_rss_mb": "MiB",
}

#: Oracle latencies of the crosscheck workload: name -> (call kind, unit, scale).
ORACLE_LATENCIES = {
    "lp_p50_us": ("lp", "us", 1e-3),
    "bellmax_p50_ms": ("bell", "ms", 1e-6),
    "decompose_p50_ms": ("decompose", "ms", 1e-6),
    "edge_decompose_s": ("edge", "s", 1e-9),
}

PROBE = """\
import json, sys, time
spec = json.loads(sys.argv[1])
sys.path[:0] = [spec["src"], spec["bench"]]
t0 = time.perf_counter()
import ops
ops.first(spec)
print(repr(time.perf_counter() - t0))
"""


def per_layer_units() -> dict[str, str]:
    """name -> unit of every per-layer metric (``--trace 1``)."""
    from tracer import SPAN_NAMES, LEAST_SQUARES, VERDICTS

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units[f"{LEAST_SQUARES}.nfev"] = "count"
    units[f"{LEAST_SQUARES}.capped_ratio"] = "ratio"
    for v in VERDICTS:
        units[f"extremality.verdict.{v}"] = "count"
    units["extremality.indeterminate_ratio"] = "ratio"
    units["extremality.classify.validate_per_extremal"] = "count"
    units["extremality.classify.steered_per_extremal"] = "count"
    units["tracing_overhead"] = "ratio"
    units["failed_ratio"] = "ratio"
    units["known_defect_ratio"] = "ratio"
    for name, (_, unit, _) in ORACLE_LATENCIES.items():
        units[name] = unit
    return units


def import_qset():
    """Import qset from this checkout's src, or raise ImportError."""
    if not (SRC / "qset" / "__init__.py").is_file():
        raise ImportError(f"no qset package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qset

    if Path(qset.__file__).resolve().parent != SRC / "qset":
        raise ImportError(f"imported qset from {qset.__file__}, not from {SRC}")
    return qset


def environment(seed: int, qset_threads: str | None) -> dict:
    import numpy
    import scipy

    try:
        cpu = next(line.split(":", 1)[1].strip()
                   for line in Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = "unknown"
    blas = {k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": blas,
        "QSET_THREADS": "unset" if qset_threads is None else f"removed (was {qset_threads})",
        "commit": git_commit(), "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown'
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(spec: dict) -> float:
    """Median over SETUP_RUNS fresh interpreters of import qset + first operation."""
    spec = dict(spec, src=str(SRC), bench=str(BENCH))
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(spec)], cwd=ROOT,
                              capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def timed_passes(work, seconds: float, run_round=None):
    """Rounds of passes over the fixed inputs until the next round would
    overrun ``seconds`` (at least one round).  A round is one pass, or what
    ``run_round`` returns.  Passes after the first keep only whether each
    operation reproduced the first pass's output."""
    run_round = run_round or (lambda: [work.run_pass()])
    passes = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for p in run_round():
            if passes:
                first = passes[0].signatures
                p.results = [work.signature(k, r) == first[k] for k, r in enumerate(p.results)]
            else:
                p.signatures = [work.signature(k, r) for k, r in enumerate(p.results)]
            passes.append(p)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return passes


def score(work, passes) -> tuple[int, int, int]:
    """Check the first pass, then count (attempted, failed, known-defect)
    units over all passes.  An operation fails in a pass when the check
    failed it in the first pass or when its output differs from the first
    pass's; it counts as a known defect when the check said so and the output
    is the first pass's."""
    first = passes[0]
    fails, known = work.check(first)
    first.results = [True] * len(first.results)
    attempted = failed = known_total = 0
    for p in passes:
        for k, same in enumerate(p.results):
            units = work.units(k)
            attempted += units
            failed += fails[k] if same else units
            known_total += known[k] if same else 0
    return attempted, failed, known_total


def oracle_latencies(passes) -> dict[str, float]:
    out = {}
    for name, (kind, _, scale) in ORACLE_LATENCIES.items():
        lat = [t for p in passes for t, k in zip(p.latency_ns, p.kinds) if k == kind]
        out[name] = statistics.median(lat) * scale if lat else 0.0
    return out


def run_untraced(work, seconds: float) -> tuple[dict, int, int, list[str]]:
    setup = setup_seconds(work.first_spec())
    import ops

    ops.first(work.first_spec())
    passes = timed_passes(work, seconds)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, known = score(work, passes)

    # Each call's latency is the best of its repeats, one per pass: the
    # host's speed swings by up to 1.5x within seconds, and the fastest
    # repeat of a call is the one least slowed by it (a slow phase that
    # lasts the whole run still shows).
    best = np.min([p.latency_ns for p in passes], axis=0) / 1e6
    best_wall = float(best.sum()) / 1e3
    metrics = {
        "setup_s": setup,
        "wall_s": best_wall,
        "ops_per_s": sum(work.units(k) for k in range(len(best))) / best_wall,
        "op_p50_ms": float(np.percentile(best, 50)),
        "op_p99_ms": float(np.percentile(best, 99)),
        "peak_rss_mb": peak_rss,
    }
    notes = [f"{len(passes)} passes of {len(best)} calls, {attempted} units; median pass "
             f"{statistics.median(p.wall_s for p in passes):.4g} s; "
             f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted}); "
             f"known_defect_ratio {known / attempted:.6g} ({known}/{attempted})"]
    if work.name == "crosscheck":
        for name, value in oracle_latencies(passes).items():
            kind, unit, _ = ORACLE_LATENCIES[name]
            n = sum(p.kinds.count(kind) for p in passes)
            if n:
                notes.append(f"{name} = {value:.6g} {unit} (median of {n} calls)")
    return metrics, attempted, failed, notes


def run_traced(work, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Make the workload's extra calls, then alternate untraced and traced
    passes for what is left of ``seconds`` (at least one of each).  Extra
    calls with a reported latency are made once untraced, which gives the
    latency, and then every extra call once traced.  Per-layer values are the
    mean tallies of the traced passes plus those of the traced extra calls;
    the overhead compares median traced and untraced pass times."""
    import ops
    from tracer import Tracer, layer_counts, layer_metrics

    start = time.perf_counter()
    ops.first(work.first_spec())
    OUT.mkdir(exist_ok=True)
    tracer = None

    def traced_pass(*calls):
        nonlocal tracer
        tracer = Tracer()
        tracer.install()
        try:
            return work.run_pass(tracer, *calls)
        finally:
            tracer.uninstall()

    timed, paths, extra_tally, extra_fails, extra_known = [], [], {}, [], []
    latency_kinds = {kind for kind, _, _ in ORACLE_LATENCIES.values()}
    timed_extra = [c for c in work.extra_calls if c[0] in latency_kinds]
    if work.extra_calls:
        if timed_extra:
            timed.append(work.run_pass(calls=timed_extra))
        extra_fails, extra_known = work.check_extra(traced_pass(work.extra_calls))
        extra_tally = layer_counts(tracer.spans())
        paths.append(OUT / f"spans-{work.name}-extra.json")
        tracer.dump(paths[-1])

    plain, traced, tallies = [], [], []

    def pair():
        plain.append(work.run_pass())
        traced.append(traced_pass())
        tallies.append(layer_counts(tracer.spans()))
        return [plain[-1], traced[-1]]

    passes = timed_passes(work, seconds - (time.perf_counter() - start), pair)
    attempted, failed, known = score(work, passes)
    attempted += len(extra_fails)
    failed += sum(extra_fails)
    known += sum(extra_known)
    paths.insert(0, OUT / f"spans-{work.name}.json")
    tracer.dump(paths[0])

    total = {}
    for name in tallies[0]:
        values = [t[name] for t in tallies]
        same = all(v == values[0] for v in values)   # counts repeat exactly
        total[name] = (values[0] if same else statistics.fmean(values)) \
            + extra_tally.get(name, 0)

    metrics = layer_metrics(total)
    metrics["tracing_overhead"] = (statistics.median(p.wall_s for p in traced)
                                   / statistics.median(p.wall_s for p in plain) - 1)
    metrics["failed_ratio"] = failed / attempted
    metrics["known_defect_ratio"] = known / attempted
    metrics.update(oracle_latencies(plain + timed))
    notes = [f"{len(plain)} untraced and {len(traced)} traced passes, "
             f"{len(work.extra_calls)} extra traced calls, {len(timed_extra)} of them "
             "also made untraced for their latency; spans written to "
             + ", ".join(str(p.relative_to(ROOT)) for p in paths)]
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "scan", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        qset = import_qset()
    except ImportError as exc:
        print(f"error: cannot import qset from this checkout: {exc}", file=sys.stderr)
        return 2
    # scan must use its default single worker
    qset_threads = os.environ.pop("QSET_THREADS", None)

    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    work = WORKLOADS[args.workload](qset, args.seed, OUT)
    if args.trace:
        metrics, attempted, failed, notes = run_traced(work, args.seconds)
        units = per_layer_units()
    else:
        metrics, attempted, failed, notes = run_untraced(work, args.seconds)
        units = END_TO_END

    print("env " + json.dumps(environment(args.seed, qset_threads)))
    for note in notes:
        print(f"{work.name}: {note}")
    for name, unit in units.items():
        print(f"{work.name} {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
