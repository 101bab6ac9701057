"""Acceptance criteria.

One test per criterion; each prints a single pass/fail line (visible under
``pytest -s``) and enforces its runtime budget.  All comparisons are exact:
the arithmetic has no rounding, so every tolerance is zero.
"""

import random
import time
from fractions import Fraction

from wallcross.algebra import GradedSeries, LaurentPoly, series_exp, series_log
from wallcross.combinat import binomial, plethystic_exp, plethystic_log, quantum_integer
from wallcross.invariants import (
    binomial_identity_check,
    dt_kronecker_numeric,
    gv_from_gw_genus0,
    gw_local_p1,
    gw_selfnodal,
    log_local_factor,
    multicover_bar_from_omega,
    multicover_omega_from_bar,
    partition_sum_lhs,
)
from wallcross.qtorus import divisibility_check, gv_from_refined, ks_factorize
from wallcross.scattering import central_ray_omega, complete_to_consistency

GOLDEN_NODAL = [Fraction(3), Fraction(21, 4), Fraction(55, 3), Fraction(1365, 16),
                Fraction(11628, 25), Fraction(33649, 12)]


def report(num: int, name: str, ok: bool, elapsed: float, limit: float | None) -> None:
    status = "PASS" if ok and (limit is None or elapsed < limit) else "FAIL"
    budget = f"{elapsed:.2f}s" + (f" < {limit:g}s" if limit else "")
    print(f"ACCEPTANCE {num:2d} {name}: {status} ({budget})")


def test_criterion_01_golden_table():
    start = time.monotonic()
    ok = all(gw_selfnodal(1, d) == want for d, want in enumerate(GOLDEN_NODAL, start=1))
    elapsed = time.monotonic() - start
    report(1, "golden table d=1..6", ok, elapsed, 1)
    assert ok and elapsed < 1


def test_criterion_02_moebius_chain():
    start = time.monotonic()
    ok = True
    for r in range(1, 5):
        m = r + 2
        for d in range(1, 11):
            total = Fraction(0)
            for l in range(1, d + 1):
                if d % l == 0:
                    total += Fraction(1, l * l) * dt_kronecker_numeric(m, d // l)
            sign = 1 if (m * d - 1) % 2 == 0 else -1
            ok = ok and gw_selfnodal(r, d) == sign * total
    elapsed = time.monotonic() - start
    report(2, "Moebius-inversion chain r<=4 d<=10", ok, elapsed, 1)
    assert ok and elapsed < 1


def test_criterion_03_local_conversion_chain():
    start = time.monotonic()
    ok = all(
        gw_selfnodal(r, d) == log_local_factor(d * (r + 2)) * gw_local_p1(r, d)
        for r in range(1, 5) for d in range(1, 11)
    )
    elapsed = time.monotonic() - start
    report(3, "sign/multiplicity conversion chain", ok, elapsed, 1)
    assert ok and elapsed < 1


def test_criterion_04_partition_identity_to_50():
    start = time.monotonic()
    ok = all(
        partition_sum_lhs(d) == Fraction(binomial(4 * d - 1, d), d * d)
        for d in range(1, 51)
    )
    elapsed = time.monotonic() - start
    report(4, "partition identity d=1..50", ok, elapsed, 10)
    assert ok and elapsed < 10


def test_criterion_05_binomial_identity_grid():
    start = time.monotonic()
    ok = all(binomial_identity_check(r, d) for r in range(1, 7) for d in range(1, 13))
    elapsed = time.monotonic() - start
    report(5, "binomial identity r<=6 d<=12", ok, elapsed, 1)
    assert ok and elapsed < 1


def test_criterion_06_scattering_oracle_equivalence():
    start = time.monotonic()
    ok = True
    pentagon = complete_to_consistency(1, 6)
    ok = ok and central_ray_omega(pentagon, 1) == 1
    ok = ok and all(central_ray_omega(pentagon, d) == 0 for d in (2, 3))
    for m in (3, 4):
        diagram = complete_to_consistency(m, 6)
        for d in (1, 2, 3):
            ok = ok and central_ray_omega(diagram, d) == dt_kronecker_numeric(m, d)
    elapsed = time.monotonic() - start
    report(6, "scattering vs Moebius-sum DT at order 6", ok, elapsed, 60)
    assert ok and elapsed < 60


def test_criterion_07_refined_anchors():
    start = time.monotonic()
    ok = True
    for m in (1, 2, 3, 4):
        records = ks_factorize(m, 2)
        expected = quantum_integer(m) * (1 if m % 2 == 1 else -1)
        ok = ok and records[0].omega == expected
        if m >= 3:
            for rec in records:
                d = rec.dimension_vector[0]
                ok = ok and rec.omega_at_1 == dt_kronecker_numeric(m, d)
    elapsed = time.monotonic() - start
    report(7, "refined factorization anchors m<=4", ok, elapsed, 120)
    assert ok and elapsed < 120


def test_criterion_08_divisibility_and_gv_integrality():
    start = time.monotonic()
    ok = True
    for r in (1, 2):
        m = r + 2
        for rec in ks_factorize(m, 2):
            d = rec.dimension_vector[0]
            divisible, quotient = divisibility_check(rec.omega, d * m)
            ok = ok and divisible
            if divisible:
                ok = ok and quotient.is_palindromic()
                ok = ok and all(k % 2 == 0 for k in quotient.support())
                ok = ok and all(isinstance(n, int) for n in gv_from_refined(quotient))
    elapsed = time.monotonic() - start
    report(8, "divisibility by quantum numbers", ok, elapsed, None)
    assert ok


def test_criterion_09_gv_integrality_to_20():
    start = time.monotonic()
    gw = [gw_local_p1(1, d) for d in range(1, 21)]
    gv = gv_from_gw_genus0(gw)
    ok = all(n.denominator == 1 for n in gv) and gv[:3] == [1, -1, 2]
    elapsed = time.monotonic() - start
    report(9, "genus-0 GV integrality d<=20", ok, elapsed, 1)
    assert ok and elapsed < 1


def test_criterion_10_property_suites():
    start = time.monotonic()
    rng = random.Random(20260810)
    ok = True

    def random_palindromic(span: int = 3, scale: int = 5) -> LaurentPoly:
        half = {k: rng.randint(-scale, scale) for k in range(0, span + 1)}
        return LaurentPoly({**half, **{-k: v for k, v in half.items()}})

    # multicover round-trip, 100 cases
    for _ in range(100):
        n = rng.randint(1, 8)
        omega = [random_palindromic() for _ in range(n)]
        ok = ok and multicover_omega_from_bar(multicover_bar_from_omega(omega)) == omega

    # plethystic Exp/Log inversion, 100 cases
    for _ in range(100):
        n = rng.randint(1, 6)
        s = GradedSeries(n, {d: random_palindromic(2, 3) for d in range(1, n + 1)})
        ok = ok and plethystic_log(plethystic_exp(s)) == s

    # plain series exp/log inversion, 100 cases
    for _ in range(100):
        n = rng.randint(1, 12)
        s = GradedSeries(n, {d: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                             for d in range(1, n + 1)})
        ok = ok and series_log(series_exp(s)) == s

    # palindromicity preservation under product and substitution, 100 cases
    for _ in range(100):
        f, g = random_palindromic(), random_palindromic()
        k = rng.randint(1, 5)
        ok = ok and (f * g).is_palindromic()
        ok = ok and f.substitute_power(k).is_palindromic()

    elapsed = time.monotonic() - start
    report(10, "randomized property suites (4 x 100 cases)", ok, elapsed, None)
    assert ok
