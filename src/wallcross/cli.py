"""Command-line front end: tables, diagram dumps, and verification suites.

Subcommands: ``gw`` (closed-form curve counts), ``dt`` (numerical and
refined Kronecker DT invariants), ``scatter`` (diagram completion and
central-ray extraction), ``gv`` (genus-zero GV extraction), ``verify``
(cross-check suites with one pass/fail line per check).  ``--d`` and
``--d-max`` exclude each other.

Each ``verify`` suite reads a fixed set of flags, and giving it any other
is a configuration error: ``table`` reads ``--fixtures``; ``chain`` and
``partition`` read ``--d-max``; ``scatter`` reads ``--m``, ``--d-max`` and
``--order``; ``refined`` reads ``--m`` and ``--d-max``; ``all`` reads
``--m``, ``--order`` and ``--fixtures``.  ``--d-max`` is capped per suite:
800 for ``chain``, 200 for ``partition``, 32 for ``scatter`` and 8 for
``refined``; a larger value is a configuration error.

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
from dataclasses import dataclass
from fractions import Fraction

from . import invariants, qtorus, scattering
from .algebra import LaurentPoly
from .combinat import divisor_sum, minus_one_pow, quantum_integer
from .errors import WallcrossError

# the flags each verify suite reads, keyed by suite
SUITES = {
    "table": ("--fixtures",),
    "chain": ("--d-max",),
    "partition": ("--d-max",),
    "scatter": ("--m", "--d-max", "--order"),
    "refined": ("--m", "--d-max"),
    "all": ("--m", "--order", "--fixtures"),
}

# the largest --d-max each suite that reads it takes: scatter and refined are
# bounded by their engines' order caps, chain and partition by run time
# (each takes about 1 s at its cap)
D_MAX_CAPS = {"chain": 800, "partition": 200, "scatter": scattering.MAX_ORDER // 2,
              "refined": qtorus.MAX_FACTOR_ORDER // 2}


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
    d_max = getattr(args, "d_max", None)
    if d_max is None:
        d_max = default_max
    if d_max < 1:
        raise WallcrossError(f"--d-max must be >= 1, got {d_max}")
    return list(range(1, d_max + 1))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gw(args) -> int:
    degrees = _degree_list(args, 6)
    r = args.r
    rows = [{"r": str(r), "d": str(d),
             "gw_nodal": str(invariants.gw_selfnodal(r, d)),
             "gw_local": str(invariants.gw_local_p1(r, d))} for d in degrees]
    emit_rows(rows, ["r", "d", "gw_nodal", "gw_local"], args.out, sys.stdout)
    return 0


def cmd_dt(args) -> int:
    degrees = _degree_list(args, 4)
    m = args.m
    if m < 1:
        raise WallcrossError(f"--m must be >= 1, got {m}")

    if args.refined:
        records = [rec for rec in qtorus.ks_factorize(m, max(degrees))
                   if rec.dimension_vector[0] in degrees]
        if args.out == "json":
            sys.stdout.write(json.dumps([rec.to_json() for rec in records], indent=2) + "\n")
            return 0
        rows = [{
            "m": str(m),
            "d": str(rec.dimension_vector[0]),
            "omega_refined": laurent_human(rec.omega),
            "omega_at_1": str(rec.omega_at_1),
            "quotient": "not divisible" if rec.quotient is None else laurent_human(rec.quotient),
        } for rec in records]
        emit_rows(rows, ["m", "d", "omega_refined", "omega_at_1", "quotient"],
                  args.out, sys.stdout)
        return 0

    rows = [{"m": str(m), "d": str(d),
             "omega_numeric": str(invariants.dt_kronecker_numeric(m, d))} for d in degrees]
    emit_rows(rows, ["m", "d", "omega_numeric"], args.out, sys.stdout)
    return 0


def cmd_scatter(args) -> int:
    diagram = scattering.complete_to_consistency(args.m, args.order)
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


def _suite_scatter(ms: list[int], d_max: int = 3, order: int | None = None) -> list[Check]:
    # resolving (d, d) takes order 2d; without --order use the least that reaches d_max
    if order is None:
        order = max(6, 2 * d_max)
    elif order < 2 * d_max:
        raise WallcrossError(
            f"--order {order} cannot resolve (d, d) for d up to {d_max}; "
            f"it needs --order >= {2 * d_max}")
    checks = []
    pentagon = scattering.complete_to_consistency(1, order)
    for d in range(1, d_max + 1):
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
        diagram = scattering.complete_to_consistency(m, order)
        for d in range(1, d_max + 1):
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
            quotient, gv = rec.quotient, rec.gv
            quotient_render = "?" if quotient is None else laurent_human(quotient)
            gv_render = "n/a" if gv is None else "[" + ", ".join(str(n) for n in gv) + "]"
            checks.append(Check(
                id=f"refined/divisibility m={m} d={d}",
                passed=(quotient is not None and quotient.is_palindromic()
                        and gv is not None and all(isinstance(n, int) for n in gv)),
                lhs=laurent_human(rec.omega),
                rhs=f"[{rec.divisor}]_q * ({quotient_render}), gv={gv_render}",
                anchor="divisibility by the quantum number and GV integrality",
            ))
    return checks


def cmd_verify(args) -> int:
    suite = args.suite
    given = {"--m": args.m, "--d-max": args.d_max, "--order": args.order,
             "--fixtures": args.fixtures}
    for flag, value in given.items():
        if value is not None and flag not in SUITES[suite]:
            reads = ", ".join(SUITES[suite])
            raise WallcrossError(f"--suite {suite} does not read {flag} (it reads {reads})")
    for flag in ("--m", "--d-max", "--order"):
        if given[flag] is not None and given[flag] < 1:
            raise WallcrossError(f"{flag} must be >= 1, got {given[flag]}")
    if args.m is not None and args.m < 3:
        raise WallcrossError(
            f"--m must be >= 3 for --suite {suite}, got {args.m}; "
            "m = 1, 2 are covered by the fixed pentagon and Poincare anchors")
    if args.d_max is not None and args.d_max > D_MAX_CAPS[suite]:
        raise WallcrossError(
            f"--d-max must be at most {D_MAX_CAPS[suite]} for --suite {suite}, got {args.d_max}")
    ms = [args.m] if args.m is not None else [3, 4]
    # a flag the user left out keeps the suite's own default
    d_max = {} if args.d_max is None else {"d_max": args.d_max}
    order = {} if args.order is None else {"order": args.order}
    started = time.monotonic()

    checks: list[Check] = []
    if suite in ("table", "all"):
        checks.extend(_suite_table(args.fixtures))
    if suite in ("chain", "all"):
        checks.extend(_suite_chain(**d_max))
    if suite in ("partition", "all"):
        checks.extend(_suite_partition(**d_max))
    if suite in ("scatter", "all"):
        checks.extend(_suite_scatter(ms, **d_max, **order))
    if suite in ("refined", "all"):
        checks.extend(_suite_refined(ms, **d_max))
    duration = time.monotonic() - started
    failures = sum(1 for c in checks if not c.passed)

    if args.out == "json":
        payload = {
            "suite": suite,
            "total": len(checks),
            "failures": failures,
            "checks": [vars(c) for c in checks],
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            sys.stdout.write(f"{status} {c.id}: {c.lhs} == {c.rhs}  [{c.anchor}]\n")
        total = len(checks)
        sys.stdout.write(f"suite {suite}: {total - failures}/{total} passed\n")
    print(f"suite {suite} completed in {duration:.2f}s", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wallcross",
        description="Exact curve-count, quiver-DT, and wall-crossing cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *formats):
        p.add_argument("--out", choices=formats, default="human",
                       help="output format (default: human)")

    p_gw = sub.add_parser("gw", help="closed-form maximal-tangency and local P1 counts")
    p_gw.add_argument("--r", type=int, required=True, help="weight r >= 1 of the pair")
    degrees = p_gw.add_mutually_exclusive_group()
    degrees.add_argument("--d", type=int, help="single degree")
    degrees.add_argument("--d-max", type=int, dest="d_max", help="degrees 1..d-max (default 6)")
    common(p_gw, "human", "json", "csv")
    p_gw.set_defaults(func=cmd_gw)

    p_dt = sub.add_parser("dt", help="Kronecker-quiver DT invariants (numeric or refined)")
    p_dt.add_argument("--m", type=int, required=True, help="arrow count (numeric needs m >= 3)")
    degrees = p_dt.add_mutually_exclusive_group()
    degrees.add_argument("--d", type=int, help="single diagonal dimension")
    degrees.add_argument("--d-max", type=int, dest="d_max", help="dimensions 1..d-max (default 4)")
    p_dt.add_argument("--refined", action="store_true",
                      help="refined invariants via quantum-dilog factorization")
    common(p_dt, "human", "json", "csv")
    p_dt.set_defaults(func=cmd_dt)

    p_sc = sub.add_parser("scatter", help="complete a two-line diagram and dump or extract")
    p_sc.add_argument("--m", type=int, required=True, help="pairing determinant m >= 1")
    p_sc.add_argument("--order", type=int, required=True, help="consistency order")
    p_sc.add_argument("--extract-omega", type=int, dest="extract_omega",
                      help="extract the numerical DT invariant at (d, d)")
    common(p_sc, "human", "json")
    p_sc.set_defaults(func=cmd_scatter)

    p_gv = sub.add_parser("gv", help="genus-zero GV invariants of the local geometry")
    p_gv.add_argument("--r", type=int, required=True, help="weight r >= 1")
    degrees = p_gv.add_mutually_exclusive_group()
    degrees.add_argument("--d", type=int, help="single degree")
    degrees.add_argument("--d-max", type=int, dest="d_max", help="degrees 1..d-max (default 10)")
    common(p_gv, "human", "json", "csv")
    p_gv.set_defaults(func=cmd_gv)

    p_vf = sub.add_parser("verify", help="run cross-check suites; exit 1 on any failure")
    p_vf.add_argument("--suite", choices=SUITES, default="all")
    p_vf.add_argument("--d-max", type=int, dest="d_max",
                      help="override the degree range of chain, partition, scatter or "
                      "refined; at most 800, 200, 32 and 8 respectively")
    p_vf.add_argument("--m", type=int, help="restrict the scatter/refined checks to one m >= 3")
    p_vf.add_argument("--order", type=int,
                      help="scattering order, at least 2*d-max (default max(6, 2*d-max))")
    p_vf.add_argument("--fixtures", help="path to the golden fixtures CSV "
                      "(falls back to $WALLCROSS_FIXTURES, then the packaged copy)")
    common(p_vf, "human", "json")
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
