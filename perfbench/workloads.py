"""The benchmark's four workloads: inputs, one pass, and exact output checks.

Each workload builds its inputs once (``build``), computes what the
outputs must be from oracles, goldens or the inputs themselves
(``expect``), runs one pass through the public API or the CLI of
``wallcross`` (``run``), and checks that pass's output (``check``).  Checks iterate over the expected structure, not over
the output, so every pass attempts the same number of checks; a pass that
raised is checked as ``None`` and fails every one of them.

Importing this module imports ``wallcross`` and ``wallcross.cli``; the
worker times that import as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import wallcross.cli
from wallcross import algebra, combinat, invariants

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

# A series pass cycles through every input size of acceptance criterion 10
# this many times, so two seeds differ only in coefficients, and enough
# cases are summed that the cost of a pass varies little from seed to seed.
SERIES_CYCLES = 6

# Per-layer metrics read from a pass's output rather than from spans; a
# workload whose output has none of them reports 0.
OUTPUT_METRICS = ("scattering.rays", "scattering.coeff_bits_max",
                  "qtorus.omega_bits_max", "cli.stdout_bytes")


class Tally:
    """Counts attempted and failed checks; a check that raises has failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, predicate) -> None:
        self.attempted += 1
        try:
            ok = bool(predicate())
        except Exception:
            ok = False
        if not ok:
            self.failed += 1


def _try(fn, default=None):
    try:
        return fn()
    except Exception:
        return default


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI invocation; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = wallcross.cli.main(argv)
    return code, out.getvalue()


def _golden(name: str):
    return json.loads((GOLDEN_DIR / name).read_text())


def _bits(x: Fraction) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def log_coeffs(wall: dict[int, Fraction], upto: int) -> list[Fraction]:
    """Coefficients of log(1 + sum_j c_j u^j) through u^upto; index 0 unused.

    Solves n L_n = n c_n - sum_{i<n} i L_i c_{n-i}, independently of the
    package's own log routines.
    """
    c = [wall.get(j, Fraction(0)) for j in range(upto + 1)]
    log = [Fraction(0)] * (upto + 1)
    for n in range(1, upto + 1):
        log[n] = c[n] - sum((i * log[i] * c[n - i] for i in range(1, n)), Fraction(0)) / n
    return log


class _Cli:
    """A workload whose pass is one in-process CLI invocation of ``argv``."""

    seeded = False
    argv: list[str] = []

    def build(self, seed: int):
        return self.argv

    def run(self, inputs):
        return run_cli(inputs)

    def layer_outputs(self, output) -> dict[str, float]:
        return {"cli.stdout_bytes": len(output[1].encode()) if output else 0}


class Scatter(_Cli):
    """Classical scattering: complete the m = 3 diagram to order 20."""

    name = "scatter"
    argv = ["scatter", "--m", "3", "--order", "20", "--out", "json"]
    m = 3
    central_degrees = 10

    def expect(self, inputs):
        golden = _golden("scatter_m3_order20.json")
        m = self.m
        closed = {d: Fraction(comb((m - 1) ** 2 * d - 1, d), (m - 2) * d)
                  for d in range(1, self.central_degrees + 1)}
        return {"rays": self._rays(golden), "closed": closed}

    @staticmethod
    def _rays(doc) -> dict[tuple[int, int], dict[int, Fraction]]:
        return {tuple(r["direction"]): {int(j): Fraction(c) for j, c in r["wall_function"].items()}
                for r in doc["rays"]}

    def _parse(self, output):
        code, text = output if output is not None else (None, "")
        doc = _try(lambda: json.loads(text))
        return code, doc, _try(lambda: self._rays(doc), {})

    def check(self, output, expected, tally: Tally) -> None:
        code, doc, rays = self._parse(output)
        tally.check(lambda: code == 0)
        tally.check(lambda: doc["pairing"] == self.m and doc["order"] == 20
                    and len(doc["rays"]) == len(expected["rays"]))
        log = _try(lambda: log_coeffs(rays[(1, 1)], self.central_degrees))
        for d, value in expected["closed"].items():
            tally.check(lambda: log[d] == value)
        for direction, wall in expected["rays"].items():
            tally.check(lambda: all(c.denominator == 1 for c in rays[direction].values()))
            if direction in ((1, 0), (0, 1)):
                continue
            tally.check(lambda: rays[direction] == wall)
            tally.check(lambda: rays[direction] == rays[direction[::-1]])

    def layer_outputs(self, output) -> dict[str, float]:
        _, doc, rays = self._parse(output)
        coeffs = [c for wall in rays.values() for c in wall.values()]
        return {
            **super().layer_outputs(output),
            "scattering.rays": len(rays),
            "scattering.coeff_bits_max": max(map(_bits, coeffs), default=0),
        }


class Refined(_Cli):
    """Refined DT invariants of the m = 3 Kronecker quiver for d <= 4."""

    name = "refined"
    argv = ["dt", "--refined", "--m", "3", "--d-max", "4", "--out", "json"]
    m = 3
    d_max = 4

    def expect(self, inputs):
        return {"doc": _golden("refined_m3_dmax4.json"),
                "dt": {d: invariants.dt_kronecker_numeric(self.m, d)
                       for d in range(1, self.d_max + 1)}}

    @staticmethod
    def _parse(output):
        code, text = output if output is not None else (None, "")
        return code, _try(lambda: json.loads(text))

    def check(self, output, expected, tally: Tally) -> None:
        code, doc = self._parse(output)
        tally.check(lambda: code == 0)
        tally.check(lambda: len(doc) == self.d_max)
        for d in range(1, self.d_max + 1):
            entry = _try(lambda: doc[d - 1], {})
            omega = _try(lambda: {int(k): Fraction(v) for k, v in entry["omega"].items()}, {})
            dt = expected["dt"][d]
            tally.check(lambda: entry == expected["doc"][d - 1])
            tally.check(lambda: Fraction(entry["omega_at_1"]) == dt)
            tally.check(lambda: omega and sum(omega.values()) == dt)
            tally.check(lambda: omega and all(omega.get(-k) == c for k, c in omega.items()))
            tally.check(lambda: omega and all(c.denominator == 1 for c in omega.values()))
            tally.check(lambda: entry["gv_list"]
                        and all(Fraction(n).denominator == 1 for n in entry["gv_list"]))

    def layer_outputs(self, output) -> dict[str, float]:
        _, doc = self._parse(output)
        coeffs = _try(lambda: [Fraction(v) for e in doc for v in e["omega"].values()], [])
        return {
            **super().layer_outputs(output),
            "qtorus.omega_bits_max": max(map(_bits, coeffs), default=0),
        }


class Verify(_Cli):
    """The user's cross-check command, ``wallcross verify --suite all``."""

    name = "verify"
    argv = ["verify", "--suite", "all"]

    def expect(self, inputs):
        return _golden("verify_all.json")

    def check(self, output, expected, tally: Tally) -> None:
        code, text = output if output is not None else (None, "")
        lines = text.splitlines()
        total = expected["total"]
        tally.check(lambda: code == 0)
        tally.check(lambda: lines and not any(line.startswith("FAIL") for line in lines))
        tally.check(lambda: sum(line.startswith("PASS ") for line in lines) == total)
        tally.check(lambda: lines[-1] == f"suite all: {total}/{total} passed")


def series_inputs(seed: int, cycles: int = SERIES_CYCLES) -> dict[str, list]:
    """Seeded round-trip inputs in the mix of acceptance criterion 10.

    Sizes cycle deterministically through each family's range (multi-cover
    n = 1..8, plethystic n = 1..6, plain series n = 1..12); the seed draws
    the coefficients.
    """
    rng = random.Random(seed)

    def palindromic(span: int, scale: int) -> algebra.LaurentPoly:
        half = {k: rng.randint(-scale, scale) for k in range(span + 1)}
        return algebra.LaurentPoly({**half, **{-k: v for k, v in half.items()}})

    return {
        "multicover": [[palindromic(3, 5) for _ in range(n)]
                       for _ in range(cycles) for n in range(1, 9)],
        "plethystic": [algebra.GradedSeries(n, {d: palindromic(2, 3) for d in range(1, n + 1)})
                       for _ in range(cycles) for n in range(1, 7)],
        "plain": [algebra.GradedSeries(n, {d: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                                           for d in range(1, n + 1)})
                  for _ in range(cycles) for n in range(1, 13)],
    }


class Series:
    """Seeded exact round trips through the series and multi-cover layers."""

    name = "series"
    seeded = True

    def build(self, seed: int):
        return series_inputs(seed)

    def expect(self, inputs):
        return inputs

    def run(self, inputs):
        return {
            "multicover": [invariants.multicover_omega_from_bar(
                invariants.multicover_bar_from_omega(omega)) for omega in inputs["multicover"]],
            "plethystic": [combinat.plethystic_log(combinat.plethystic_exp(s))
                           for s in inputs["plethystic"]],
            "plain": [algebra.series_log(algebra.series_exp(s)) for s in inputs["plain"]],
        }

    def check(self, output, expected, tally: Tally) -> None:
        for family, cases in expected.items():
            for i, case in enumerate(cases):
                tally.check(lambda: output[family][i] == case)

    def layer_outputs(self, output) -> dict[str, float]:
        return {}


WORKLOADS = {w.name: w for w in (Scatter(), Refined(), Verify(), Series())}
