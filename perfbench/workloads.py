"""The three workloads: fixed seeded inputs, one timed pass, correctness checks.

Each workload is a closed loop with one client: every call is made after the
previous one returns.  ``run_pass`` times each operation and returns what it
produced; ``check`` judges the first pass with the benchmark's own formulas
and the LP oracle, never with the code path being timed.  Later passes run
the same inputs and must reproduce the first pass exactly.

Two input classes fail a check at commit 0919adf, and only in one way each:
boundary behaviors (``b0 = atilde_1^+``) that ``classify`` calls
NonExtremalInQ, and the near-degenerate point ``inputs.HARD`` where
``decomposition_search`` finds no split.  Those outcomes are KNOWN defects:
the points stay in the workloads and are counted and reported apart from
failures.  Any other wrong output on them is a failure.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import ops
import scanref

TOL_RECON = 1e-6       # self-test round-trip contract
TOL_SPLIT = 1e-8       # mixture residual of a found decomposition
TOL_TSIRELSON = 1e-6   # bell_max_q2(CHSH) against 2 sqrt 2

#: Check outcome of a documented known defect (see the module docstring).
KNOWN = "known"


@dataclass
class Pass:
    """Outcome of one pass: per-call latency (ns), kind and result, and the
    signatures later passes must reproduce."""

    latency_ns: list[int] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    results: list = field(default_factory=list)
    signatures: list = field(default_factory=list)
    wall_s: float = 0.0


def _relabelings() -> tuple[np.ndarray, np.ndarray]:
    """The 128 relabelings as signed permutations of the behavior vector:
    image = sign * v[perm]."""
    perms, signs = [], []
    for swap in (False, True):
        for ia in (False, True):
            for ib in (False, True):
                for f in range(16):
                    flip = [(f >> k) & 1 for k in range(4)]
                    # slots: A0 A1 B0 B1, correlators c[x][y] at 4 + 2x + y
                    a, b = [0, 1], [2, 3]
                    if swap:
                        a, b = b, a
                    if ia:
                        a = a[::-1]
                    if ib:
                        b = b[::-1]
                    perm = a + b
                    sign = [-1.0 if flip[k] else 1.0 for k in range(4)]
                    for x in range(2):
                        for y in range(2):
                            src_x, src_y = (b[y], a[x]) if swap else (a[x], b[y])
                            perm.append(4 + 2 * src_x + (src_y - 2))
                            sign.append(sign[x] * sign[2 + y])
                    perms.append(perm)
                    signs.append(sign)
    return np.array(perms), np.array(signs)


PERMS, SIGNS = _relabelings()


def orbit(v) -> np.ndarray:
    return SIGNS * np.asarray(v, float)[PERMS]


def lexmin(v) -> tuple[float, ...]:
    images = orbit(v)
    return tuple(images[np.lexsort(images.T[::-1])[0]])


def lp_local(qset, v) -> bool:
    return qset.local_membership_lp(qset.Behavior.from_vector(v))[0]


def failed_call(res) -> bool:
    return isinstance(res, tuple) and res[:1] == ("error",)


class Workload:
    """A fixed list of calls ``(kind, argument)``; ``do`` makes one.
    ``extra_calls`` are made by traced runs only (see ``run.run_traced``)."""

    calls: list
    extra_calls: list = []

    def do(self, kind, arg):
        raise NotImplementedError

    def run_pass(self, tracer=None, calls=None) -> Pass:
        out = Pass()
        clock = time.perf_counter_ns
        t0 = clock()
        for k, (kind, arg) in enumerate(self.calls if calls is None else calls):
            if tracer is not None:
                tracer.op_id = k
            start = clock()
            try:
                res = self.do(kind, arg)
            except Exception as exc:  # a failed operation; the run goes on
                res = ("error", repr(exc))
            out.latency_ns.append(clock() - start)
            out.kinds.append(kind)
            out.results.append(res)
        out.wall_s = (clock() - t0) / 1e9
        return out

    def units(self, k: int) -> int:
        return 1

    def check_extra(self, p: Pass) -> tuple[list[int], list[int]]:
        return [], []


def split(status: list) -> tuple[list[int], list[int]]:
    """Failed and known-defect units per operation from check outcomes
    (True, False or KNOWN)."""
    return ([int(s is not KNOWN and not s) for s in status],
            [int(s is KNOWN) for s in status])


class Certify(Workload):
    name = "certify"

    def __init__(self, qset, seed: int, workdir: Path):
        self.qset = qset
        self.items = inputs.certify_inputs(seed)
        self.calls = [(it.kind, qset.Behavior.from_vector(it.vector)) for it in self.items]
        self.first_item = next(it for it in self.items if it.kind == "exposed")

    def first_spec(self) -> dict:
        return {"workload": self.name, "vector": list(self.first_item.vector)}

    def do(self, kind, p):
        return ops.certify(self.qset, p)

    def signature(self, k: int, res) -> tuple:
        return res if res[0] in ("invalid", "error") else (res[0], tuple(res[3].vector))

    def check(self, first: Pass) -> tuple[list[int], list[int]]:
        """Failed and known-defect units per operation of the first pass."""
        return split([self._ok(item, res) for item, res in zip(self.items, first.results)])

    def _ok(self, item, res) -> bool | str:
        if item.kind == "invalid":
            return res == ("invalid",)
        if res[0] in ("invalid", "error"):
            return False
        verdict, cert, wit, canon = res
        if tuple(canon.vector) != lexmin(item.vector):
            return False
        if cert is not None:
            r = cert.realization
            rebuilt = inputs.born(r.theta, *r.a, *r.b)
            if np.min(np.max(np.abs(orbit(item.vector) - rebuilt), axis=1)) > TOL_RECON:
                return False
        if verdict == "ExtremalNonExposed":
            if wit is None:
                return False
            local = wit.local_point.vector
            if not (inputs.is_valid(local) and lp_local(self.qset, local)):
                return False
        if verdict == "Indeterminate":
            return True  # reported in the verdict histogram, not a failure
        if lp_local(self.qset, item.vector):
            return verdict == "Local"
        if item.kind == "boundary" and verdict == "NonExtremalInQ":
            return KNOWN   # asin of a steered correlator of 1 amplifies rounding
        want = {"exposed": "ExtremalExposed", "boundary": "ExtremalNonExposed",
                "nonalt": "NonExtremalInQ"}.get(item.kind)
        return verdict == want if want else verdict != "Local"


class Scan(Workload):
    name = "scan"

    def __init__(self, qset, seed: int, workdir: Path):
        importlib.import_module("qset.cli")
        self.qset = qset
        self.grids = inputs.scan_inputs(seed)
        self.paths = [workdir / f"scan-{k}.csv" for k in range(len(self.grids))]
        self.calls = [("scan", g.argv(str(path))) for g, path in zip(self.grids, self.paths)]
        g = self.grids[0]
        self.first_grid = inputs.Grid({n: (lo, lo, 1) for n, (lo, _, _) in g.ranges.items()},
                                      g.fixed)
        self.first_path = workdir / "scan-first.csv"

    def first_spec(self) -> dict:
        return {"workload": self.name, "argv": self.first_grid.argv(str(self.first_path))}

    def do(self, kind, argv):
        return self.qset.cli.main(argv)

    def run_pass(self, tracer=None) -> Pass:
        out = super().run_pass(tracer)
        # the result is the CSV text, read back untimed, of a call that exited 0
        out.results = [path.read_text() if res == 0 else None
                       for res, path in zip(out.results, self.paths)]
        return out

    def units(self, k: int) -> int:
        return self.grids[k].rows

    def signature(self, k: int, res):
        return res

    def check(self, first: Pass) -> tuple[list[int], list[int]]:
        """CSV rows per scan call that differ from the seed reference."""
        return [grid.rows if text is None else min(
                    grid.rows, scanref.row_mismatches(text, scanref.reference_csv(grid)))
                for grid, text in zip(self.grids, first.results)], [0] * len(self.grids)


class Crosscheck(Workload):
    name = "crosscheck"

    def __init__(self, qset, seed: int, workdir: Path):
        self.qset = qset
        self.inp = inputs.crosscheck_inputs(seed)
        B, R = qset.Behavior.from_vector, qset.QubitRealization
        real = lambda it: R(it.params[0], it.params[1:3], it.params[3:5])
        # Entries: (kind, input, call argument).
        self.entries = [("lp", it, B(it.vector)) for it in self.inp.lp]
        self.entries += [("bell", w, qset.BellFunctional.from_vector(w)) for w in self.inp.bell]
        self.entries += [("decompose", it, (B(it.vector), real(it), inputs.EXTREMAL_TRIALS, k))
                         for k, it in enumerate(self.inp.extremal)]
        self.entries += [("decompose", it, (B(it.vector), real(it), inputs.NONALT_TRIALS, k))
                         for k, it in enumerate(self.inp.nonalt)]
        self.calls = [(kind, arg) for kind, _, arg in self.entries]
        # Traced runs also make two slow calls: the edge call (about 25 s)
        # and a near-degenerate non-alternating point where the search runs
        # for about 20 s and finds no split (a known defect).  In untraced
        # runs either would be a single sample filling the run, which the
        # host's speed swings spread by a third between runs.
        self.extra_entries = [
            (kind, it, (B(it.vector), real(it), *call))
            for kind, it, call in (("edge", self.inp.edge, inputs.EDGE_CALL),
                                   ("hard", self.inp.hard, inputs.HARD_CALL))]
        self.extra_calls = [(kind, arg) for kind, _, arg in self.extra_entries]

    def first_spec(self) -> dict:
        it = self.inp.extremal[0]
        return {"workload": self.name, "vector": list(it.vector), "params": list(it.params),
                "trials": inputs.EXTREMAL_TRIALS, "seed": 0}

    def do(self, kind, arg):
        qset = self.qset
        if kind == "lp":
            return qset.local_membership_lp(arg)
        if kind == "bell":
            return qset.bell_max_q2(arg)
        p, r, trials, seed = arg
        return qset.decomposition_search(p, trials=trials, seed=seed, hint=r)

    def signature(self, k: int, res):
        kind = self.calls[k][0]
        if failed_call(res):
            return res
        if kind == "lp":
            local, payload = res
            return (local, tuple(np.asarray(payload if local else payload.coeffs)))
        if kind == "bell":
            return (res[0], res[1].params())
        return (res.found, res.residual, res.separation)

    def check(self, first: Pass) -> tuple[list[int], list[int]]:
        return self._check(self.entries, first)

    def check_extra(self, p: Pass) -> tuple[list[int], list[int]]:
        return self._check(self.extra_entries, p)

    def _check(self, entries, p: Pass) -> tuple[list[int], list[int]]:
        return split([self._ok(kind, item, res)
                      for (kind, item, _), res in zip(entries, p.results)])

    def _ok(self, kind, item, res) -> bool | str:
        if failed_call(res):
            return False
        if kind == "lp":
            local, payload = res
            v = np.asarray(item.vector)
            if local != (inputs.chsh_max(v) <= 2 + 1e-8):   # Fine's criterion
                return False
            if local:
                w = np.asarray(payload, float)
                return bool(w.min() >= -1e-12 and abs(w.sum() - 1) <= 1e-9
                            and np.max(np.abs(w @ inputs.VERTICES - v)) <= 1e-9)
            c = payload.coeffs   # (bA0, bA1, bB0, bB1, b00, b10, b01, b11)
            beta = np.array([c[0], c[1], c[2], c[3], c[4], c[6], c[5], c[7]])
            return bool(beta @ v > np.max(inputs.VERTICES @ beta))
        if kind == "bell":
            value, r = res
            w = np.asarray(item)
            at = float(w @ inputs.born(r.theta, r.a[0], r.a[1], r.b[0], r.b[1]))
            if abs(value - at) > 1e-9:
                return False
            return item != self.inp.bell[0] or abs(value - 2 * math.sqrt(2)) <= TOL_TSIRELSON
        # decompositions: found exactly on the non-alternating points
        if kind == "hard" and not res.found:
            return KNOWN
        if res.found != (item.kind == "nonalt"):
            return False
        if not res.found:
            return True
        p1, p2 = res.p1.vector, res.p2.vector
        return bool(np.max(np.abs(0.5 * (p1 + p2) - np.asarray(item.vector))) <= TOL_SPLIT
                    and inputs.is_valid(p1) and inputs.is_valid(p2))


WORKLOADS = {w.name: w for w in (Certify, Scan, Crosscheck)}
