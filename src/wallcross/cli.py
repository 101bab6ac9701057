"""Command-line front end: tables, diagram dumps, and verification suites.

Subcommands: ``gw`` (closed-form curve counts), ``dt`` (numerical and
refined Kronecker DT invariants), ``scatter`` (diagram completion and
central-ray extraction), ``gv`` (genus-zero GV extraction), ``verify``
(cross-check suites with one pass/fail line per check).

Output is deterministic for a fixed configuration: rationals are rendered
as ``p/q``, Laurent polynomials as sorted exponent maps (JSON) or in
half-integer q-power notation (human), and timing information goes to
stderr only.  Exit codes: 0 all good, 1 a verification check failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import invariants, qtorus, scattering
from .algebra import LaurentPoly
from .combinat import divisor_sum, minus_one_pow, quantum_integer
from .errors import DomainError, WallcrossError

SUITES = ("table", "chain", "partition", "scatter", "refined", "all")


# ---------------------------------------------------------------------------
# Rendering


def q_power_token(k: int) -> str:
    """Human token for t^k in q-notation (t = q^(1/2)); k must be nonzero."""
    mag = abs(k)
    if mag == 2:
        base = "q"
    elif mag % 2 == 0:
        base = f"q^{mag // 2}"
    else:
        base = f"q^({mag}/2)"
    return f"1/{base}" if k < 0 else base


def laurent_human(poly: LaurentPoly) -> str:
    """Render a Laurent polynomial in t as q-powers, e.g. ``q + 1 + 1/q``."""
    if poly.is_zero:
        return "0"
    chunks: list[str] = []
    for k, c in sorted(poly.items(), reverse=True):
        if k == 0:
            body = str(abs(c))
        else:
            token = q_power_token(k)
            body = token if abs(c) == 1 else f"{abs(c)}*{token}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


def emit_rows(rows: list[dict], columns: list[str], out: str, stream) -> None:
    """Write a table of string-valued cells as human text, CSV, or JSON."""
    if out == "json":
        stream.write(json.dumps(rows, indent=2) + "\n")
        return
    if out == "csv":
        writer = csv.writer(stream)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])
        return
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c)
              for c in columns}
    stream.write("  ".join(c.ljust(widths[c]) for c in columns).rstrip() + "\n")
    for row in rows:
        stream.write("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns).rstrip() + "\n")


# ---------------------------------------------------------------------------
# Configuration


def _degree_list(args, default_max: int) -> list[int]:
    d = getattr(args, "d", None)
    if d is not None:
        if d < 1:
            raise WallcrossError(f"--d must be >= 1, got {d}")
        return [d]
    d_max = getattr(args, "d_max", None) or default_max
    if d_max < 1:
        raise WallcrossError(f"--d-max must be >= 1, got {d_max}")
    return list(range(1, d_max + 1))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gw(args) -> int:
    degrees = _degree_list(args, 6)
    r = args.r

    def cell(d: int) -> dict:
        row = {"r": str(r), "d": str(d)}
        try:
            row["gw_nodal"] = str(invariants.gw_selfnodal(r, d))
            row["gw_local"] = str(invariants.gw_local_p1(r, d))
        except DomainError as err:
            msg = f"DomainError: {err} (see: wallcross scatter)"
            row["gw_nodal"] = msg
            row["gw_local"] = msg
        return row

    rows = [cell(d) for d in degrees]
    emit_rows(rows, ["r", "d", "gw_nodal", "gw_local"], args.out, sys.stdout)
    return 0


def cmd_dt(args) -> int:
    degrees = _degree_list(args, 4)
    m = args.m
    if m < 1:
        raise WallcrossError(f"--m must be >= 1, got {m}")

    if args.refined:
        dmax = max(degrees)
        if args.out == "json":
            report = qtorus.refined_report(m, dmax)
            wanted = set(degrees)
            report = [entry for entry in report if entry["dimension_vector"][0] in wanted]
            sys.stdout.write(json.dumps(report, indent=2) + "\n")
            return 0
        records = {rec.dimension_vector[0]: rec for rec in qtorus.ks_factorize(m, dmax)}
        rows = []
        for d in degrees:
            rec = records[d]
            ok, quotient = qtorus.divisibility_check(rec.omega, d * m)
            rows.append({
                "m": str(m),
                "d": str(d),
                "omega_refined": laurent_human(rec.omega),
                "omega_at_1": str(rec.omega_at_1),
                "quotient": laurent_human(quotient) if ok else "not divisible",
            })
        emit_rows(rows, ["m", "d", "omega_refined", "omega_at_1", "quotient"],
                  args.out, sys.stdout)
        return 0

    def cell(d: int) -> dict:
        row = {"m": str(m), "d": str(d)}
        try:
            row["omega_numeric"] = str(invariants.dt_kronecker_numeric(m, d))
        except DomainError as err:
            row["omega_numeric"] = f"DomainError: {err} (see: wallcross scatter or --refined)"
        return row

    rows = [cell(d) for d in degrees]
    emit_rows(rows, ["m", "d", "omega_numeric"], args.out, sys.stdout)
    return 0


def cmd_scatter(args) -> int:
    diagram = scattering.complete_to_consistency(
        scattering.initial_diagram(args.m), args.order)
    if args.extract_omega is not None:
        value = scattering.central_ray_omega(diagram, args.extract_omega)
        if args.out == "json":
            sys.stdout.write(json.dumps({
                "pairing": args.m,
                "order": args.order,
                "d": args.extract_omega,
                "omega": str(value),
            }, indent=2) + "\n")
        else:
            sys.stdout.write(f"{value}\n")
        return 0
    if args.out == "human":
        sys.stdout.write(f"pairing {diagram.pairing}, consistent to order {diagram.order}\n")
        for ray in diagram.rays:
            kind = "incoming line" if ray.incoming else "outgoing ray"
            terms = " + ".join(f"{c}*u^{j}" if j > 1 else f"{c}*u"
                               for j, c in ray.wall_powers)
            sys.stdout.write(
                f"  {kind} {ray.direction}: f = 1 + {terms}   (u = monomial of {ray.direction})\n")
        return 0
    sys.stdout.write(json.dumps(diagram.to_json(), indent=2) + "\n")
    return 0


def cmd_gv(args) -> int:
    degrees = _degree_list(args, 10)
    dmax = max(degrees)
    r = args.r
    tower = [invariants.gw_local_p1(r, d) for d in range(1, dmax + 1)]
    gv = invariants.gv_from_gw_genus0(tower)
    rows = [{"r": str(r), "d": str(d), "gw_local": str(tower[d - 1]), "n0": str(gv[d - 1])}
            for d in degrees]
    emit_rows(rows, ["r", "d", "gw_local", "n0"], args.out, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# Verification suites


@dataclass
class Check:
    """One verified identity: exact lhs/rhs strings plus a stable label."""

    id: str
    passed: bool
    lhs: str
    rhs: str
    anchor: str


@dataclass
class VerifyReport:
    suite: str
    checks: list[Check] = field(default_factory=list)
    duration: float = 0.0

    @property
    def failures(self) -> int:
        return sum(1 for c in self.checks if not c.passed)


def _suite_table(fixtures: str | None) -> list[Check]:
    rows = invariants.load_p2_table(fixtures)
    checks = []
    for d, nodal, _smooth in rows:
        lhs = invariants.gw_selfnodal(1, d)
        checks.append(Check(
            id=f"table/d={d}",
            passed=lhs == nodal,
            lhs=str(lhs),
            rhs=str(nodal),
            anchor="golden table, nodal-cubic column",
        ))
    return checks


def _suite_chain(d_max: int = 10) -> list[Check]:
    checks = []
    for r in range(1, 5):
        m = r + 2
        totals = divisor_sum(
            [invariants.dt_kronecker_numeric(m, d) for d in range(1, d_max + 1)],
            lambda l, omega: omega / (l * l))
        for d in range(1, d_max + 1):
            rhs = minus_one_pow(m * d - 1) * totals[d - 1]
            lhs = invariants.gw_selfnodal(r, d)
            checks.append(Check(
                id=f"chain/moebius r={r} d={d}",
                passed=lhs == rhs,
                lhs=str(lhs),
                rhs=str(rhs),
                anchor="Moebius-inversion chain to quiver DT",
            ))
            rhs = invariants.log_local_factor(d * m) * invariants.gw_local_p1(r, d)
            checks.append(Check(
                id=f"chain/local r={r} d={d}",
                passed=lhs == rhs,
                lhs=str(lhs),
                rhs=str(rhs),
                anchor="sign/multiplicity conversion to local P1",
            ))
    for r in range(1, 7):
        for d in range(1, 13):
            ok = invariants.binomial_identity_check(r, d)
            n = (r + 1) ** 2 * d - 1
            checks.append(Check(
                id=f"chain/binomial r={r} d={d}",
                passed=ok,
                lhs=f"C({n},{d})",
                rhs=f"{r * (r + 2)}*C({n},{d - 1})",
                anchor="binomial comparison identity",
            ))
    return checks


def _suite_partition(d_max: int = 50) -> list[Check]:
    checks = []
    for d in range(1, d_max + 1):
        lhs = invariants.partition_sum_lhs(d)
        rhs = invariants.c_ord(d)
        checks.append(Check(
            id=f"partition/d={d}",
            passed=lhs == rhs and rhs == invariants.gw_selfnodal(1, d),
            lhs=str(lhs),
            rhs=str(rhs),
            anchor="partition sum vs hypergeometric contribution",
        ))
    return checks


def _suite_scatter(ms: list[int], d_max: int = 3, order: int = 6) -> list[Check]:
    checks = []
    pentagon = scattering.complete_to_consistency(scattering.initial_diagram(1), order)
    for d in range(1, min(d_max, order // 2) + 1):
        value = scattering.central_ray_omega(pentagon, d)
        expected = Fraction(1) if d == 1 else Fraction(0)
        checks.append(Check(
            id=f"scatter/pentagon d={d}",
            passed=value == expected,
            lhs=str(value),
            rhs=str(expected),
            anchor="pentagon: single new ray, no higher corrections",
        ))
    for m in ms:
        if m < 3:
            continue
        diagram = scattering.complete_to_consistency(scattering.initial_diagram(m), order)
        for d in range(1, min(d_max, order // 2) + 1):
            lhs = scattering.central_ray_omega(diagram, d)
            rhs = invariants.dt_kronecker_numeric(m, d)
            checks.append(Check(
                id=f"scatter/central m={m} d={d}",
                passed=lhs == rhs,
                lhs=str(lhs),
                rhs=str(rhs),
                anchor="central-ray extraction vs Moebius-sum DT",
            ))
    return checks


def _suite_refined(ms: list[int], d_max: int = 2) -> list[Check]:
    checks = []
    for m in (1, 2, 3, 4):
        records = qtorus.ks_factorize(m, 1)
        expected = quantum_integer(m) * minus_one_pow(m - 1)
        checks.append(Check(
            id=f"refined/poincare m={m}",
            passed=records[0].omega == expected,
            lhs=laurent_human(records[0].omega),
            rhs=laurent_human(expected),
            anchor="dimension (1,1): signed Poincare polynomial of P^(m-1)",
        ))
    for m in ms:
        if m < 3:
            continue
        records = qtorus.ks_factorize(m, d_max)
        for rec in records:
            d = rec.dimension_vector[0]
            lhs = rec.omega_at_1
            rhs = invariants.dt_kronecker_numeric(m, d)
            checks.append(Check(
                id=f"refined/classical m={m} d={d}",
                passed=lhs == rhs,
                lhs=str(lhs),
                rhs=str(rhs),
                anchor="t = 1 limit vs Moebius-sum DT",
            ))
            ok, quotient = qtorus.divisibility_check(rec.omega, d * m)
            gv_ok = False
            gv_render = "n/a"
            if ok:
                try:
                    gv = qtorus.gv_from_refined(quotient)
                    gv_ok = all(isinstance(n, int) for n in gv)
                    gv_render = "[" + ", ".join(str(n) for n in gv) + "]"
                except WallcrossError:
                    gv_ok = False
            checks.append(Check(
                id=f"refined/divisibility m={m} d={d}",
                passed=ok and quotient.is_palindromic() and gv_ok,
                lhs=laurent_human(rec.omega),
                rhs=f"[{d * m}]_q * ({laurent_human(quotient) if ok else '?'}), gv={gv_render}",
                anchor="divisibility by the quantum number and GV integrality",
            ))
    return checks


def cmd_verify(args) -> int:
    suite = args.suite
    ms = [args.m] if args.m is not None else [3, 4]
    d_max = getattr(args, "d_max", None)
    started = time.monotonic()

    def ranged(name: str, default: int) -> int:
        # the --d-max override only applies to the suite it was aimed at
        return d_max if (d_max and suite == name) else default

    checks: list[Check] = []
    if suite in ("table", "all"):
        checks.extend(_suite_table(args.fixtures))
    if suite in ("chain", "all"):
        checks.extend(_suite_chain(ranged("chain", 10)))
    if suite in ("partition", "all"):
        checks.extend(_suite_partition(ranged("partition", 50)))
    if suite in ("scatter", "all"):
        checks.extend(_suite_scatter(ms, d_max=ranged("scatter", 3), order=args.order or 6))
    if suite in ("refined", "all"):
        checks.extend(_suite_refined(ms, d_max=ranged("refined", 2)))
    report = VerifyReport(suite=suite, checks=checks,
                          duration=time.monotonic() - started)

    if args.out == "json":
        payload = {
            "suite": report.suite,
            "total": len(report.checks),
            "failures": report.failures,
            "checks": [vars(c) for c in report.checks],
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            sys.stdout.write(f"{status} {c.id}: {c.lhs} == {c.rhs}  [{c.anchor}]\n")
        total = len(report.checks)
        sys.stdout.write(f"suite {report.suite}: {total - report.failures}/{total} passed\n")
    print(f"suite {report.suite} completed in {report.duration:.2f}s", file=sys.stderr)
    return 1 if report.failures else 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wallcross",
        description="Exact curve-count, quiver-DT, and wall-crossing cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", choices=("human", "json", "csv"), default="human",
                       help="output format (default: human)")

    p_gw = sub.add_parser("gw", help="closed-form maximal-tangency and local P1 counts")
    p_gw.add_argument("--r", type=int, required=True, help="weight r >= 1 of the pair")
    p_gw.add_argument("--d", type=int, help="single degree")
    p_gw.add_argument("--d-max", type=int, dest="d_max", help="degrees 1..d-max (default 6)")
    common(p_gw)
    p_gw.set_defaults(func=cmd_gw)

    p_dt = sub.add_parser("dt", help="Kronecker-quiver DT invariants (numeric or refined)")
    p_dt.add_argument("--m", type=int, required=True, help="arrow count (numeric needs m >= 3)")
    p_dt.add_argument("--d", type=int, help="single diagonal dimension")
    p_dt.add_argument("--d-max", type=int, dest="d_max", help="dimensions 1..d-max (default 4)")
    p_dt.add_argument("--refined", action="store_true",
                      help="refined invariants via quantum-dilog factorization")
    common(p_dt)
    p_dt.set_defaults(func=cmd_dt)

    p_sc = sub.add_parser("scatter", help="complete a two-line diagram and dump or extract")
    p_sc.add_argument("--m", type=int, required=True, help="pairing determinant m >= 1")
    p_sc.add_argument("--order", type=int, required=True, help="consistency order")
    p_sc.add_argument("--extract-omega", type=int, dest="extract_omega",
                      help="extract the numerical DT invariant at (d, d)")
    common(p_sc)
    p_sc.set_defaults(func=cmd_scatter)

    p_gv = sub.add_parser("gv", help="genus-zero GV invariants of the local geometry")
    p_gv.add_argument("--r", type=int, required=True, help="weight r >= 1")
    p_gv.add_argument("--d", type=int, help="single degree")
    p_gv.add_argument("--d-max", type=int, dest="d_max", help="degrees 1..d-max (default 10)")
    common(p_gv)
    p_gv.set_defaults(func=cmd_gv)

    p_vf = sub.add_parser("verify", help="run cross-check suites; exit 1 on any failure")
    p_vf.add_argument("--suite", choices=SUITES, default="all")
    p_vf.add_argument("--d-max", type=int, dest="d_max", help="override the suite's degree range")
    p_vf.add_argument("--m", type=int, help="restrict scatter/refined suites to one m")
    p_vf.add_argument("--order", type=int, help="scattering order (default 6)")
    p_vf.add_argument("--fixtures", help="path to the golden fixtures CSV "
                      "(falls back to $WALLCROSS_FIXTURES, then the packaged copy)")
    common(p_vf)
    p_vf.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except WallcrossError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
