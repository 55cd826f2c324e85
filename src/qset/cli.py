"""Command-line front-end.

Subcommands: eval, classify, selftest, steer, witness, scan,
oracle {bell-max, local, decompose}.  All numeric logic lives in the
library; this layer only parses, dispatches, and serializes.

Exit codes: 0 any verdict, 1 behavior validation error, 2 usage/parse
error, 3 violated operation precondition.  Angles are radians unless
--degrees is given.  Scan output is CSV with '.' decimals, ',' separators,
LF line endings, and 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .behavior import Behavior, BellFunctional, CHSH
from .errors import InvalidBehaviorError, QsetError
from .extremality import alternation_margins, classify, classify_many
from .oracles import bell_max_q2, decomposition_search, local_membership_lp
from .realization import QubitRealization, born_point, born_vector, canonicalize
from .selftest import selftest_certificate
from .steering import steered_table
from .witness import find_witness

SCAN_PARAMS = ("theta", "a0", "a1", "b0", "b1")
CSV_COLUMNS = SCAN_PARAMS + ("verdict",) + tuple(f"m{k}" for k in range(8)) \
    + tuple(f"r{k}" for k in range(4))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _realization_from_args(args) -> QubitRealization:
    conv = math.radians if getattr(args, "degrees", False) else float
    return QubitRealization(
        theta=conv(args.theta),
        a=(conv(args.a0), conv(args.a1)),
        b=(conv(args.b0), conv(args.b1)),
    )


def _add_realization_flags(parser: argparse.ArgumentParser) -> None:
    for name in SCAN_PARAMS:
        parser.add_argument(f"--{name}", type=_finite_float(name), required=True)
    parser.add_argument("--degrees", action="store_true",
                        help="interpret angle flags as degrees")


def _read_behavior(path: str) -> Behavior:
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    return Behavior.from_json_dict(data)


def _emit(text: str, output: str | None) -> None:
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_eval(args) -> int:
    r = _realization_from_args(args)
    p = born_point(r)
    if args.json:
        _emit(json.dumps(p.to_json_dict(), indent=2) + "\n", args.output)
    else:
        v = p.vector
        lines = [
            f"<A0> = {_fmt(v[0])}    <A1> = {_fmt(v[1])}",
            f"<B0> = {_fmt(v[2])}    <B1> = {_fmt(v[3])}",
            f"<A0B0> = {_fmt(v[4])}  <A0B1> = {_fmt(v[5])}",
            f"<A1B0> = {_fmt(v[6])}  <A1B1> = {_fmt(v[7])}",
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_steer(args) -> int:
    r = _realization_from_args(args)
    table = steered_table(r)
    doc = {
        "atilde": [[float(x) for x in row] for row in table.atilde],
        "correlators": [[[float(v) for v in row] for row in block] for block in table.c],
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


def cmd_classify(args) -> int:
    p = _read_behavior(args.input)
    result = classify(p)
    if args.json:
        doc = {"verdict": result.verdict.value}
        det = result.details
        if "pattern" in det:
            doc["pattern"] = list(det["pattern"])
        if "alternation_margins" in det:
            doc["alternation_margins"] = [float(x) for x in det["alternation_margins"]]
        if "asin_residuals" in det:
            doc["asin_residuals"] = [float(x) for x in det["asin_residuals"]]
        if "caveat" in det:
            doc["caveat"] = det["caveat"]
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        _emit(result.verdict.value + "\n", args.output)
    return 0


def cmd_selftest(args) -> int:
    p = _read_behavior(args.input)
    cert = selftest_certificate(p)
    _emit(json.dumps(cert.to_json_dict(), indent=2) + "\n", args.output)
    return 0


def cmd_witness(args) -> int:
    r = _realization_from_args(args)
    canon, _ = canonicalize(r, sector=True)
    wit = find_witness(canon)
    if wit is None:
        doc = {"witness": None, "status": "exposed"}
    else:
        doc = {
            "witness": {
                "sector": list(wit.sector),
                "coefficients": [float(c) for c in wit.coeffs],
                "alphas": [float(a) for a in wit.alphas],
                "deltas": [float(d) for d in wit.deltas],
                "local_point": wit.local_point.to_json_dict(),
            },
            "status": "non-exposed",
        }
    if args.json:
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        if wit is None:
            _emit("exposed/none\n", args.output)
        else:
            _emit(json.dumps(doc["witness"], indent=2) + "\n", args.output)
    return 0


@dataclass(frozen=True)
class ScanSpec:
    """Parameter grid for a classification scan.

    ``ranges`` maps scanned parameter names to (min, max, steps) with
    steps >= 1 and min <= max; every remaining parameter must appear in
    ``fixed``.  ``columns`` optionally selects a subset of the output
    columns (default: all of CSV_COLUMNS)."""

    ranges: dict
    fixed: dict
    columns: tuple[str, ...] | None = None

    def __post_init__(self):
        for name, (lo, hi, steps) in self.ranges.items():
            if name not in SCAN_PARAMS:
                raise ValueError(f"unknown scan parameter {name!r}")
            if steps < 1 or lo > hi:
                raise ValueError("need steps >= 1 and min <= max")
        missing = set(SCAN_PARAMS) - set(self.ranges) - set(self.fixed)
        if missing:
            raise ValueError(f"parameters neither ranged nor fixed: {sorted(missing)}")
        if self.columns is not None:
            bad = set(self.columns) - set(CSV_COLUMNS)
            if bad:
                raise ValueError(f"unknown output columns: {sorted(bad)}")

    def grid_points(self) -> np.ndarray:
        """Grid rows (theta, a0, a1, b0, b1), shape (N, 5), in lexicographic
        order of the indices."""
        axes = []
        for name in SCAN_PARAMS:
            if name in self.ranges:
                lo, hi, steps = self.ranges[name]
                axes.append(np.linspace(lo, hi, steps) if steps > 1 else np.array([lo]))
            else:
                axes.append(np.array([self.fixed[name]]))
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def header(self) -> tuple[str, ...]:
        return tuple(self.columns) if self.columns else CSV_COLUMNS


#: Grid rows classified per ``classify_many`` call.
SCAN_BLOCK = 4096


def _cells(values: np.ndarray) -> list[str]:
    """``_fmt`` of each value, formatting each distinct bit pattern once: grid
    columns repeat a few values many times."""
    bits, inverse = np.unique(np.ascontiguousarray(values).view(np.int64), return_inverse=True)
    text = [_fmt(x) for x in bits.view(np.float64).tolist()]
    return [text[k] for k in inverse.tolist()]


def run_scan(spec: ScanSpec) -> str:
    """Execute the scan: each block of grid rows goes through ``classify_many``
    once, and the CSV cells are formatted straight from its arrays."""
    header = spec.header()
    lines = [",".join(header)]
    points = spec.grid_points()
    for lo in range(0, len(points), SCAN_BLOCK):
        block = points[lo:lo + SCAN_BLOCK]
        batch = classify_many(born_vector(*block.T))
        margins, _ = alternation_margins(block)
        columns = dict(zip(CSV_COLUMNS, [*block.T, None, *margins.T, *batch.residuals.T]))
        cells = [batch.labels() if name == "verdict" else _cells(columns[name])
                 for name in header]
        lines += [",".join(row) for row in zip(*cells)]
    return "\n".join(lines) + "\n"


def _parse_range(spec: str) -> tuple[str, float, float, int]:
    try:
        name, rng = spec.split("=", 1)
        lo, hi, steps = rng.split(":")
        name = name.strip()
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"range must look like name=min:max:steps, got {spec!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"range bounds must be finite, got {spec!r}")
    if name not in SCAN_PARAMS:
        raise argparse.ArgumentTypeError(f"unknown scan parameter {name!r}")
    if steps < 1 or lo > hi:
        raise argparse.ArgumentTypeError("need steps >= 1 and min <= max")
    return name, lo, hi, steps


def cmd_scan(args) -> int:
    conv = math.radians if args.degrees else float
    ranges = {name: (conv(lo), conv(hi), steps) for name, lo, hi, steps in args.range}
    fixed = {}
    for name in SCAN_PARAMS:
        val = getattr(args, name)
        if name in ranges:
            continue
        if val is None:
            raise argparse.ArgumentTypeError(f"parameter {name} is neither ranged nor fixed")
        fixed[name] = conv(val)
    columns = tuple(args.columns.split(",")) if args.columns else None
    try:
        spec = ScanSpec(ranges=ranges, fixed=fixed, columns=columns)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    _emit(run_scan(spec), args.output)
    return 0


def _functional_from_args(args) -> BellFunctional:
    coeffs = CHSH.coeffs if args.coeffs is None else tuple(args.coeffs)
    return BellFunctional(coeffs=coeffs, offset=args.offset)


def cmd_oracle_bell_max(args) -> int:
    beta = _functional_from_args(args)
    value, arg = bell_max_q2(beta, resolution=args.resolution, refinements=args.refinements)
    doc = {"value": value, "argmax": arg.to_json_dict()}
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


def cmd_oracle_local(args) -> int:
    p = _read_behavior(args.input)
    ok, payload = local_membership_lp(p)
    if ok:
        doc = {"local": True, "weights": [float(w) for w in payload]}
    else:
        doc = {"local": False,
               "separating_functional": [float(c) for c in payload.coeffs]}
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


def _int_at_least(name: str, least: int):
    """argparse type: an integer flag value of at least ``least``; anything
    else is a usage error naming the flag."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {text!r}") from exc
        if value < least:
            raise argparse.ArgumentTypeError(f"need {name} >= {least}, got {value}")
        return value
    return parse


def _finite_float(name: str):
    """argparse type: a finite float flag value; anything else, nan and inf
    included, is a usage error naming the flag."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{name} must be a number, got {text!r}") from exc
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{name} must be finite, got {text!r}")
        return value
    return parse


def cmd_oracle_decompose(args) -> int:
    p = _read_behavior(args.input)
    res = decomposition_search(p, trials=args.trials, seed=args.seed)
    doc = {
        "found": res.found,
        "lambda": res.lam,
        "residual": res.residual,
        "separation": res.separation,
        "seed": args.seed,
        "trials": args.trials,
    }
    if res.found:
        doc["p1"] = res.p1.to_json_dict()
        doc["p2"] = res.p2.to_json_dict()
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qset",
                                     description="Quantum correlation set toolkit (CHSH scenario)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=False):
        p.add_argument("--output", default=None, help="output file (default stdout)")
        p.add_argument("--json", action="store_true", help="JSON output")
        if needs_input:
            p.add_argument("--input", default="-", help="behavior JSON file ('-' = stdin)")

    p_eval = sub.add_parser("eval", help="behavior of a realization")
    _add_realization_flags(p_eval)
    common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_steer = sub.add_parser("steer", help="modified angles and steered correlators")
    _add_realization_flags(p_steer)
    common(p_steer)
    p_steer.set_defaults(func=cmd_steer)

    p_cls = sub.add_parser("classify", help="extremality verdict for a behavior")
    common(p_cls, needs_input=True)
    p_cls.set_defaults(func=cmd_classify)

    p_st = sub.add_parser("selftest", help="reconstruct the self-tested realization")
    common(p_st, needs_input=True)
    p_st.set_defaults(func=cmd_selftest)

    p_wit = sub.add_parser("witness", help="non-exposedness witness for a realization")
    _add_realization_flags(p_wit)
    common(p_wit)
    p_wit.set_defaults(func=cmd_witness)

    p_scan = sub.add_parser("scan", help="classify over a parameter grid (CSV)")
    p_scan.add_argument("--range", type=_parse_range, action="append", required=True,
                        metavar="PARAM=MIN:MAX:STEPS")
    for name in SCAN_PARAMS:
        p_scan.add_argument(f"--{name}", type=_finite_float(name), default=None)
    p_scan.add_argument("--degrees", action="store_true")
    p_scan.add_argument("--columns", default=None,
                        help="comma-separated output column subset")
    p_scan.add_argument("--output", default=None)
    p_scan.set_defaults(func=cmd_scan)

    p_or = sub.add_parser("oracle", help="brute-force oracles")
    or_sub = p_or.add_subparsers(dest="oracle_command", required=True)

    p_bm = or_sub.add_parser("bell-max", help="maximize a Bell functional over two qubits")
    p_bm.add_argument("--coeffs", type=_finite_float("coeffs"), nargs=8, default=None,
                      metavar=("bA0", "bA1", "bB0", "bB1", "b00", "b10", "b01", "b11"))
    p_bm.add_argument("--offset", type=_finite_float("offset"), default=0.0)
    p_bm.add_argument("--resolution", type=_int_at_least("resolution", 16), default=16)
    p_bm.add_argument("--refinements", type=_int_at_least("refinements", 0), default=60)
    common(p_bm)
    p_bm.set_defaults(func=cmd_oracle_bell_max)

    p_lo = or_sub.add_parser("local", help="local-polytope membership LP")
    common(p_lo, needs_input=True)
    p_lo.set_defaults(func=cmd_oracle_local)

    p_de = or_sub.add_parser("decompose", help="convex-decomposition search")
    p_de.add_argument("--trials", type=_int_at_least("trials", 1), default=400)
    p_de.add_argument("--seed", type=_int_at_least("seed", 0), default=0)
    common(p_de, needs_input=True)
    p_de.set_defaults(func=cmd_oracle_decompose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except InvalidBehaviorError as exc:
        print(f"invalid behavior: {exc}", file=sys.stderr)
        return 1
    except QsetError as exc:
        print(f"precondition violated ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError, KeyError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
