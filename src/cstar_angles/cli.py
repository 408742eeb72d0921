"""Command-line front end.

Subcommands
-----------
``m2-angle``    angle between the diagonal subalgebra and its conjugate by a
                given 2x2 unitary, by every implemented route
``m2-sweep``    the rotation-family sweep, as CSV (theta, cos, angle_rad)
``group-angle`` exact (and optionally numeric) angle between intermediate
                group algebras
``verify``      run the named invariant suites and report residuals

Exit codes: 0 success, 1 verification failure, 2 domain error, 64 usage
error, 73 I/O error.  ``--json`` switches to a machine-readable report;
with a fixed ``ANGLES_SEED`` the JSON output is byte-identical between
runs (timing is therefore reported as null in JSON mode).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, m2
from .algebra import restrict_expectation
from .angles import interior_angle_definition
from .errors import CStarAnglesError, InvalidGroup, NotUnitary
from .groups import (
    group_algebra_inclusion,
    group_angle,
    parse_group_spec,
    parse_subgroup,
)
from .tower import _check_budget
from .verify import SUITE_NAMES, run_suite

EX_OK = 0
EX_VERIFY_FAILED = 1
EX_DOMAIN = 2
EX_USAGE = 64
EX_IO = 73
# bytes charged per m2-sweep point against the tower's materialize budget:
# its theta, and the Python tuples and floats of its (theta, angle) pair
# and its CSV row (about 340 measured by tracemalloc, CSV text included)
SWEEP_POINT_BYTES = 512


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 64."""

    def error(self, message):
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


@dataclass
class Report:
    command: str
    inputs: dict
    results: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    timing_ms: int | None = None

    def add_result(self, name: str, value, route: str = ""):
        self.results.append({"name": name, "value": value, "route": route})

    def add_check(self, name: str, passed: bool, residual: float, detail: str = ""):
        self.checks.append(
            {"name": name, "pass": bool(passed), "residual": float(residual),
             "detail": detail}
        )

    @property
    def all_passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "schema": "cstar-angles.report/1",
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "checks": self.checks,
            "timing_ms": None,  # omitted for byte-identical reruns
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def print_human(self, stream=None):
        stream = stream if stream is not None else sys.stdout
        print(f"command: {self.command}", file=stream)
        for key, value in self.inputs.items():
            print(f"  input {key} = {value}", file=stream)
        for row in self.results:
            route = f"  [{row['route']}]" if row["route"] else ""
            value = row["value"]
            if isinstance(value, float):
                value = f"{value:.12g}"
            print(f"  {row['name']} = {value}{route}", file=stream)
        for c in self.checks:
            status = "pass" if c["pass"] else "FAIL"
            line = f"  check {c['name']}: {status} (residual {c['residual']:.3e})"
            if c["detail"] and not c["pass"]:
                line += f"  # {c['detail']}"
            print(line, file=stream)
        if self.timing_ms is not None:
            print(f"  timing_ms: {self.timing_ms}", file=stream)


def _emit(report: Report, args, started: float) -> None:
    report.timing_ms = int(round((time.time() - started) * 1000.0))
    if args.json:
        print(report.to_json())
    else:
        report.print_human()


def _parse_unitary(args) -> m2.Unitary2:
    if args.rotation is not None:
        return m2.rotation(args.rotation)
    if args.u is None:
        raise NotUnitary("either --u or --rotation is required")
    vals = args.u
    mat = np.array(
        [
            [complex(vals[0], vals[1]), complex(vals[2], vals[3])],
            [complex(vals[4], vals[5]), complex(vals[6], vals[7])],
        ]
    )
    return m2.Unitary2(mat, tol=1e-9)


def cmd_m2_angle(args, started: float) -> int:
    u = _parse_unitary(args)
    inc = m2.canonical_inclusion()
    level = m2.canonical_tower(inc)
    mu = restrict_expectation(inc.E, inc.delta, inc.F).quasi_basis

    closed = m2.closed_form_angle(u)
    realized = m2.exact_angle(u)
    formula, definition = m2.interior_routes(u, inc, level, mu)

    report = Report(
        "m2-angle",
        inputs={"u": [f"{z:.12g}" for z in np.ravel(u.matrix)]},
    )
    report.add_result("cos_closed_form", math.cos(closed), "closed-form")
    report.add_result("angle_rad_closed_form", closed, "closed-form")
    report.add_result("cos_realized_closed_form", math.cos(realized), "closed-form")
    report.add_result("angle_rad_realized_closed_form", realized, "closed-form")
    report.add_result("cos_formula", formula.cos_value, "formula")
    report.add_result("angle_rad_formula", formula.angle_rad, "formula")
    report.add_result("angle_deg_formula", formula.angle_deg, "formula")
    report.add_result("cos_definition", definition.cos_value, "definition")
    report.add_result("angle_rad_definition", definition.angle_rad, "definition")
    report.add_result("angle_deg_definition", definition.angle_deg, "definition")
    report.add_result(
        "residual_formula_vs_definition",
        abs(formula.cos_value - definition.cos_value),
        "comparison",
    )
    report.add_result(
        "residual_closed_vs_formula",
        abs(math.cos(closed) - formula.cos_value),
        "comparison",
    )
    report.add_result(
        "residual_closed_vs_definition",
        abs(math.cos(closed) - definition.cos_value),
        "comparison",
    )
    _emit(report, args, started)
    return EX_OK


def cmd_m2_sweep(args, started: float) -> int:
    if args.points < 2:
        print("m2-sweep: --points must be at least 2", file=sys.stderr)
        return EX_USAGE
    _check_budget(SWEEP_POINT_BYTES * args.points, f"m2-sweep: {args.points} points")
    thetas = np.linspace(0.0, math.pi / 4.0, args.points)
    pairs = m2.angle_sweep(thetas)
    rows = [(theta, math.cos(angle), angle) for theta, angle in pairs]

    try:
        handle = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        print(f"cannot open {args.out!r}: {exc}", file=sys.stderr)
        return EX_IO
    try:
        writer = csv.writer(handle)
        writer.writerow(["theta", "cos", "angle_rad"])
        for theta, cos, angle in rows:
            writer.writerow([f"{theta:.17g}", f"{cos:.17g}", f"{angle:.17g}"])
    finally:
        if args.out:
            handle.close()

    angles_only = [angle for _, _, angle in rows]
    max_gap = max(
        (b - a for a, b in zip(angles_only, angles_only[1:])), default=0.0
    )
    report = Report("m2-sweep", inputs={"points": args.points, "out": args.out or "-"})
    report.add_result("max_gap_rad", max_gap, "closed-form")
    report.add_check("first_angle_zero", abs(angles_only[0]) <= 1e-9, abs(angles_only[0]))
    report.add_check(
        "last_angle_right",
        abs(angles_only[-1] - math.pi / 2) <= 1e-9,
        abs(angles_only[-1] - math.pi / 2),
    )
    _emit(report, args, started)
    return EX_OK if report.all_passed else EX_VERIFY_FAILED


def cmd_group_angle(args, started: float) -> int:
    G = parse_group_spec(args.group)
    H = parse_subgroup(G, args.H)
    K = parse_subgroup(G, args.K)
    L = parse_subgroup(G, args.L)
    for S, name in ((K, "K"), (L, "L")):
        if not H.issubset(S):
            raise InvalidGroup(f"H is not contained in {name}")

    exact = group_angle(G, H, K, L)
    report = Report(
        "group-angle",
        inputs={
            "group": args.group,
            "H": {"generators": args.H, "order": H.order},
            "K": {"generators": args.K, "order": K.order},
            "L": {"generators": args.L, "order": L.order},
        },
    )
    extra = exact.diagnostics.extra
    report.add_result("cos", exact.cos_value, "formula")
    report.add_result("cos_squared_numerator", extra["cos_squared_numerator"], "formula")
    report.add_result(
        "cos_squared_denominator", extra["cos_squared_denominator"], "formula"
    )
    report.add_result("angle_rad", exact.angle_rad, "formula")
    report.add_result("angle_deg", exact.angle_deg, "formula")
    report.add_result(
        "indices",
        {
            "intersection_over_H": extra["index_intersection"],
            "K_over_H": extra["index_K"],
            "L_over_H": extra["index_L"],
        },
        "formula",
    )

    if args.numeric:
        inc = group_algebra_inclusion(G, H)
        level = inc.tower(materialize=False, check=True)
        numeric = interior_angle_definition(
            level, inc.expectation_onto(K), inc.expectation_onto(L)
        )
        residual = abs(numeric.cos_value - exact.cos_value)
        report.add_result("cos_numeric", numeric.cos_value, "definition")
        report.add_result("angle_rad_numeric", numeric.angle_rad, "definition")
        report.add_result("residual_formula_vs_numeric", residual, "comparison")
    _emit(report, args, started)
    return EX_OK


def cmd_verify(args, started: float) -> int:
    checks = run_suite(args.suite)
    report = Report("verify", inputs={"suite": args.suite})
    for c in checks:
        report.add_check(c.name, c.passed, c.residual, c.detail)
    _emit(report, args, started)
    return EX_OK if report.all_passed else EX_VERIFY_FAILED


def build_parser() -> _Parser:
    parser = _Parser(prog="cstar-angles", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON report"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("m2-angle", help="angle between diagonal and conjugated diagonal")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--u",
        nargs=8,
        type=float,
        metavar="R",
        help="re/im of the four entries, row-major",
    )
    group.add_argument("--rotation", type=float, help="rotation angle theta")
    p.set_defaults(handler=cmd_m2_angle)

    p = sub.add_parser("m2-sweep", help="rotation-family sweep as CSV")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")
    p.set_defaults(handler=cmd_m2_sweep)

    p = sub.add_parser("group-angle", help="angle between intermediate group algebras")
    p.add_argument("--group", type=str, required=True, help='e.g. "Z3xZ3xZ5xZ5", "S4"')
    p.add_argument("--H", type=str, default="", help="generators of H (may be empty)")
    p.add_argument("--K", type=str, required=True, help="generators of K")
    p.add_argument("--L", type=str, required=True, help="generators of L")
    p.add_argument(
        "--numeric",
        action="store_true",
        help="also run the definition route on the regular representation",
    )
    p.set_defaults(handler=cmd_group_angle)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.time()
    try:
        return args.handler(args, started)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EX_IO
    except CStarAnglesError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
