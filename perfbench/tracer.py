"""Span tracing around qset's public functions, installed from outside.

``Tracer.install`` rebinds each listed function, in its defining ``qset``
module and in every ``qset`` module that imported it, to a wrapper that
records a span; ``scipy.optimize.least_squares`` is wrapped the same way,
because the decomposition oracle imports it at call time.  ``uninstall``
puts the originals back, so untraced runs execute the library unchanged.

A span holds the function, start and end (ns), the index of its parent span
(-1 at top level), the operation id the workload set, and an optional tag
taken from the return value.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

#: Layer (qset module) -> public functions traced in it.
LAYERS = {
    "behavior": ("validate", "is_local"),
    "symmetry": ("apply_symmetry", "canonical_behavior"),
    "realization": ("born_vector", "born_point", "canonicalize"),
    "steering": ("steered_correlators", "modified_angles"),
    "extremality": ("classify", "extremality_criterion_check", "necessary_conditions_check",
                    "selftest_conditions_check", "full_alternation_check"),
    "selftest": ("reconstruct_realization", "selftest_certificate"),
    "witness": ("find_witness", "tangent_basis", "solve_sector"),
    "oracles": ("local_membership_lp", "bell_max_q2", "decomposition_search"),
    "cli": ("main", "run_scan"),
}

#: scipy's solver as called from the decomposition oracle.
LEAST_SQUARES = "oracles.least_squares"

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns) \
    + (LEAST_SQUARES,)

VERDICTS = ("Local", "ExtremalExposed", "ExtremalNonExposed", "NonExtremalInQ",
            "FailsNecessaryQ2Pure", "Indeterminate")


def _verdict_tag(result):
    return result.verdict.value


def _solver_tag(result):
    # status 0: stopped at max_nfev
    return (int(result.nfev), int(result.status))


TAGGERS = {"extremality.classify": _verdict_tag, LEAST_SQUARES: _solver_tag}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fid = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.tags: dict[int, object] = {}
        self.op_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        tagger = TAGGERS.get(name)
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.fid)
            self.fid.append(fid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if tagger is not None:
                self.tags[idx] = tagger(result)
            return result

        return traced

    def install(self) -> None:
        import scipy.optimize

        defining = {layer: importlib.import_module(f"qset.{layer}") for layer in LAYERS}
        qset_modules = [m for name, m in list(sys.modules.items())
                        if name == "qset" or name.startswith("qset.")]
        for layer, fns in LAYERS.items():
            for fn in fns:
                orig = getattr(defining[layer], fn)
                wrapper = self.wrap(f"{layer}.{fn}", orig)
                for mod in qset_modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, wrapper)
        self._patch(scipy.optimize, "least_squares",
                    self.wrap(LEAST_SQUARES, scipy.optimize.least_squares))

    def _patch(self, mod, attr, wrapper) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def spans(self) -> list[tuple]:
        """(name, start_ns, end_ns, parent, op, tag) per span, in start order."""
        return [(self.names[f], s, e, p, o, self.tags.get(i))
                for i, (f, s, e, p, o) in enumerate(
                    zip(self.fid, self.start, self.end, self.parent, self.op))]

    def dump(self, path) -> None:
        doc = {"fields": ["name", "start_ns", "end_ns", "parent", "op", "tag"],
               "spans": self.spans()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(spans) -> list[int]:
    """Self time per span: its duration minus the union of its children's
    intervals, clipped to its own interval."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0, start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def layer_counts(spans) -> dict[str, float]:
    """Additive per-layer tallies of one set of spans: calls and self_ms per
    traced function, solver evaluations and capped solves, the verdict
    histogram, and the stage calls made inside extremal classify calls."""
    out = dict.fromkeys([f"{n}.calls" for n in SPAN_NAMES], 0)
    out.update(dict.fromkeys([f"{n}.self_ms" for n in SPAN_NAMES], 0.0))
    for span, own in zip(spans, self_times(spans)):
        out[f"{span[0]}.calls"] += 1
        out[f"{span[0]}.self_ms"] += own / 1e6

    solves = [s[5] for s in spans if s[0] == LEAST_SQUARES]
    out[f"{LEAST_SQUARES}.nfev"] = sum(nfev for nfev, _ in solves)
    out["_capped"] = sum(status == 0 for _, status in solves)

    verdicts = {i: s[5] for i, s in enumerate(spans)
                if s[0] == "extremality.classify" and s[5] is not None}
    hist = Counter(verdicts.values())
    for v in VERDICTS:
        out[f"extremality.verdict.{v}"] = hist.get(v, 0)
    out["_verdicts"] = len(verdicts)

    # stage calls made inside extremal classify calls
    extremal = {i for i, v in verdicts.items() if v.startswith("Extremal")}
    out["_extremal"] = len(extremal)
    out["_validate_in_extremal"] = out["_steered_in_extremal"] = 0
    for span in spans:
        p = span[3]
        while p >= 0 and p not in extremal:
            p = spans[p][3]
        if p >= 0 and span[0] == "behavior.validate":
            out["_validate_in_extremal"] += 1
        if p >= 0 and span[0] == "steering.steered_correlators":
            out["_steered_in_extremal"] += 1
    return out


def layer_metrics(counts: dict) -> dict[str, float]:
    """Per-layer metrics from (summed) ``layer_counts``: the tallies plus the
    ratios built from them."""
    out = {k: v for k, v in counts.items() if not k.startswith("_")}
    ratio = lambda num, den: num / den if den else 0.0
    out[f"{LEAST_SQUARES}.capped_ratio"] = \
        ratio(counts["_capped"], counts[f"{LEAST_SQUARES}.calls"])
    out["extremality.indeterminate_ratio"] = \
        ratio(counts["extremality.verdict.Indeterminate"], counts["_verdicts"])
    out["extremality.classify.validate_per_extremal"] = \
        ratio(counts["_validate_in_extremal"], counts["_extremal"])
    out["extremality.classify.steered_per_extremal"] = \
        ratio(counts["_steered_in_extremal"], counts["_extremal"])
    return out
