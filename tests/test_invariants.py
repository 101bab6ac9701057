"""Closed formulas, conversion factors, multi-cover and GV inversion, fixtures."""

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import pytest

from wallcross import invariants
from wallcross.algebra import LaurentPoly, RationalFunc
from wallcross.combinat import binomial, divisors
from wallcross.errors import DomainError, FixturesMissing, IndexGap
from wallcross.invariants import (
    PairParams,
    binomial_identity_check,
    c_ord,
    dt_kronecker_numeric,
    gv_from_gw_genus0,
    gw_from_gv_genus0,
    gw_local_p1,
    gw_selfnodal,
    load_p2_table,
    log_local_factor,
    loglocal_prefactor_series,
    multicover_bar_from_omega,
    multicover_omega_from_bar,
    nef_local_factor,
    partition_sum_lhs,
)

GOLDEN_NODAL = [Fraction(3), Fraction(21, 4), Fraction(55, 3), Fraction(1365, 16),
                Fraction(11628, 25), Fraction(33649, 12)]


def moebius_chain_oracle(r: int, d: int) -> Fraction:
    """Independent route to the maximal-tangency count via quiver DT numbers."""
    m = r + 2
    total = Fraction(0)
    for l in divisors(d):
        total += Fraction(1, l * l) * dt_kronecker_numeric(m, d // l)
    sign = 1 if (m * d - 1) % 2 == 0 else -1
    return sign * total


# ---------------------------------------------------------------------------
# Closed formulas


def test_gw_selfnodal_golden_column():
    for d, want in enumerate(GOLDEN_NODAL, start=1):
        assert gw_selfnodal(1, d) == want


def test_gw_selfnodal_examples():
    assert gw_selfnodal(1, 1) == 3
    assert gw_selfnodal(1, 4) == Fraction(1365, 16)
    assert gw_selfnodal(2, 1) == moebius_chain_oracle(2, 1) == 4


def test_gw_local_p1_examples():
    assert gw_local_p1(1, 1) == 1
    assert gw_local_p1(1, 2) == Fraction(-7, 8)
    assert gw_local_p1(2, 1) == -1
    # derived from the sign/multiplicity factor
    assert gw_selfnodal(1, 2) == log_local_factor(6) * gw_local_p1(1, 2)


def test_dt_kronecker_values():
    assert dt_kronecker_numeric(3, 1) == 3
    assert dt_kronecker_numeric(3, 2) == -6  # (-21 - 3)/4 from the two divisor terms
    assert dt_kronecker_numeric(3, 3) == 18
    assert dt_kronecker_numeric(4, 1) == -4
    assert dt_kronecker_numeric(4, 2) == -16


def test_dt_kronecker_domain():
    with pytest.raises(DomainError):
        dt_kronecker_numeric(2, 1)
    with pytest.raises(DomainError) as err:
        dt_kronecker_numeric(1, 1)
    assert "scattering" in str(err.value)
    with pytest.raises(DomainError):
        dt_kronecker_numeric(3, 0)


def test_moebius_chain_grid():
    for r in range(1, 5):
        for d in range(1, 11):
            assert gw_selfnodal(r, d) == moebius_chain_oracle(r, d)


def test_local_conversion_grid():
    for r in range(1, 5):
        for d in range(1, 11):
            factor = log_local_factor(d * (r + 2))
            assert gw_selfnodal(r, d) == factor * gw_local_p1(r, d)


def test_binomial_identity_grid():
    for r in range(1, 7):
        for d in range(1, 13):
            assert binomial_identity_check(r, d)


def test_pair_params_domain():
    with pytest.raises(DomainError):
        PairParams(0, 1)
    with pytest.raises(DomainError):
        PairParams(-1, 2)
    with pytest.raises(DomainError):
        gw_selfnodal(1, 0)
    p = PairParams(3, 2)
    assert p.m == 5 and p.tangency == 10


# ---------------------------------------------------------------------------
# Conversion factors


def test_log_local_factor():
    assert log_local_factor(1) == 1
    assert log_local_factor(3) == 3
    assert log_local_factor(6) == -6


def test_nef_local_factor():
    assert nef_local_factor(1, 1) == 1
    assert nef_local_factor(3, 3) == 9
    assert nef_local_factor(2, 1) == -2


def test_prefactor_series_leading_terms():
    s1 = loglocal_prefactor_series(1, 5)
    assert s1.coeff(-1) == 1
    s2 = loglocal_prefactor_series(2, 5)
    assert s2.coeff(-1) == Fraction(-1, 2)


def test_prefactor_series_odd_parity():
    for a in range(1, 7):
        series = loglocal_prefactor_series(a, 8)
        assert all(k % 2 == 1 for k in series.support())


def reciprocal_oracle(h: list) -> list:
    """1/h for h[0] = 1 by the triangular recurrence sum_{i<=n} h_i r_(n-i) = 0."""
    r = [Fraction(1)] + [Fraction(0)] * (len(h) - 1)
    for n in range(1, len(h)):
        r[n] = -sum((h[i] * r[n - i] for i in range(1, n + 1)), Fraction(0))
    return r


def test_prefactor_series_against_reciprocal_oracle():
    from math import factorial

    for a in (1, 2, 3, 5):
        for cutoff in range(-1, 16):
            length = cutoff + 3
            h = [Fraction(a**j, 2**j * factorial(j + 1)) if j % 2 == 0 else Fraction(0)
                 for j in range(length)]
            hinv = reciprocal_oracle(h)
            sign = 1 if a % 2 else -1
            expected = {j - 1: sign * hinv[j] / a for j in range(0, cutoff + 2, 2) if hinv[j]}
            assert dict(loglocal_prefactor_series(a, cutoff).items()) == expected


def test_prefactor_series_inverts_sinh():
    # multiplying back by 2*sinh(a v / 2) must give (-1)^(a - 1), exactly,
    # through the truncation order
    from math import factorial

    for a in (1, 2, 3, 5):
        cutoff = 9
        series = loglocal_prefactor_series(a, cutoff)
        sinh = {}
        for j in range(0, cutoff + 2):
            if (2 * j + 1) <= cutoff + 2:
                sinh[2 * j + 1] = Fraction(a ** (2 * j + 1), 4**j * 2 * factorial(2 * j + 1)) * 2
        prod: dict[int, Fraction] = {}
        for k, c in series.items():
            for e, s in sinh.items():
                if k + e <= cutoff:
                    prod[k + e] = prod.get(k + e, Fraction(0)) + c * s
        prod = {k: v for k, v in prod.items() if v}
        assert prod == {0: Fraction(1 if a % 2 == 1 else -1)}


# ---------------------------------------------------------------------------
# Multi-cover inversion


def kernel(l: int) -> RationalFunc:
    return RationalFunc(LaurentPoly({1: 1, -1: -1}), LaurentPoly({l: l, -l: -l}))


def test_cover_kernel_equals_the_two_polynomial_quotient():
    for l in range(1, 21):
        assert invariants._cover_kernel(l) == kernel(l), l


def test_multicover_single_class_tower():
    omega = [LaurentPoly.one()] + [LaurentPoly()] * 5
    bar = multicover_bar_from_omega(omega)
    for d in range(1, 7):
        assert bar[d - 1] == kernel(d)
    assert multicover_omega_from_bar(bar) == omega


def test_multicover_numeric_chain():
    omega = [LaurentPoly({0: 3}), LaurentPoly({0: -6})]
    bar = multicover_bar_from_omega(omega)
    assert bar[1].at_one() == Fraction(-21, 4)
    assert -bar[1].at_one() == gw_selfnodal(1, 2)  # sign (-1)^(3*2-1)


def test_multicover_round_trip_random_palindromic():
    rng = random.Random(73)
    for _ in range(30):
        n = rng.randint(1, 6)
        omega = []
        for _d in range(n):
            half = {k: rng.randint(-4, 4) for k in range(0, 4)}
            poly = LaurentPoly({**half, **{-k: v for k, v in half.items()}})
            omega.append(poly)
        assert multicover_omega_from_bar(multicover_bar_from_omega(omega)) == omega


def test_multicover_index_gap():
    with pytest.raises(IndexGap):
        multicover_bar_from_omega({1: LaurentPoly.one(), 3: LaurentPoly.one()})
    with pytest.raises(IndexGap):
        multicover_omega_from_bar({2: RationalFunc.one()})


def test_multicover_non_polynomial_inversion_reported():
    with pytest.raises(ValueError):
        multicover_omega_from_bar([kernel(1), kernel(3)])


# ---------------------------------------------------------------------------
# GV extraction


def test_gv_from_local_p1_first_values():
    gw = [gw_local_p1(1, d) for d in range(1, 4)]
    assert gv_from_gw_genus0(gw) == [1, -1, 2]


def test_gv_pure_multiple_cover_tower():
    gw = [Fraction(1, k**3) for k in range(1, 7)]
    assert gv_from_gw_genus0(gw) == [1, 0, 0, 0, 0, 0]


def test_gv_integrality_up_to_20():
    gw = [gw_local_p1(1, d) for d in range(1, 21)]
    for n in gv_from_gw_genus0(gw):
        assert n.denominator == 1


def test_gv_round_trip():
    rng = random.Random(79)
    for _ in range(30):
        n = rng.randint(1, 8)
        gv = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        assert gv_from_gw_genus0(gw_from_gv_genus0(gv)) == gv


# ---------------------------------------------------------------------------
# Degenerate-hypersurface contributions


def exp_series_oracle(d: int) -> Fraction:
    """Generating-series route: (1/(2 d^2)) [x^d] exp(2 d F(x))."""
    f = [Fraction(0)] * (d + 1)
    for i in range(1, d + 1):
        sign = 1 if i % 2 == 1 else -1
        f[i] = Fraction(sign * binomial(3 * i, i), i)
    scaled = [2 * d * c for c in f]
    expo = [Fraction(0)] * (d + 1)
    expo[0] = Fraction(1)
    term = list(expo)
    for _n in range(1, d + 1):
        nxt = [Fraction(0)] * (d + 1)
        for i in range(d + 1):
            if term[i]:
                for j in range(1, d + 1 - i):
                    nxt[i + j] += term[i] * scaled[j]
        term = [c / _n for c in nxt]
        for i in range(d + 1):
            expo[i] += term[i]
    return expo[d] / (2 * d * d)


@dataclass(frozen=True)
class Partition:
    """Unordered partition with strictly positive parts, stored descending."""

    parts: tuple[int, ...]

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def aut(self) -> int:
        """Order of the automorphism group: product of multiplicity factorials."""
        a = 1
        for mult in Counter(self.parts).values():
            a *= math.factorial(mult)
        return a


def partitions(d: int) -> Iterator[Partition]:
    """All partitions of d, each exactly once, in reverse-lexicographic order."""

    def rec(remaining: int, max_part: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for p in range(min(max_part, remaining), 0, -1):
            prefix.append(p)
            yield from rec(remaining - p, p, prefix)
            prefix.pop()

    for parts in rec(d, d, []):
        yield Partition(parts)


def partition_count(d: int) -> int:
    """p(d) via the pentagonal-number recurrence (independent of the enumerator)."""
    p = [1] + [0] * d
    for n in range(1, d + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p[d]


def partition_enumeration_oracle(d: int) -> Fraction:
    """The defining sum, term by term over every partition of d."""
    total = Fraction(0)
    for part in partitions(d):
        l = part.length
        term = Fraction(2 ** (l - 1) * d**l, d * d * part.aut)
        for p in part.parts:
            sign = 1 if p % 2 == 1 else -1
            term *= Fraction(sign * binomial(3 * p, p), p)
        total += term
    return total


def test_c_ord_values():
    assert c_ord(1) == 3
    assert c_ord(2) == Fraction(21, 4)
    assert c_ord(6) == Fraction(33649, 12)


def test_partition_sum_small_values():
    assert partition_sum_lhs(1) == 3
    assert partition_sum_lhs(2) == Fraction(21, 4)  # -15/4 from (2), +9 from (1,1)
    assert partition_sum_lhs(6) == Fraction(33649, 12)


def test_partition_sum_against_exp_series_oracle():
    for d in range(1, 16):
        assert partition_sum_lhs(d) == exp_series_oracle(d)


def test_partition_sum_against_partition_enumeration_oracle():
    for d in range(1, 21):
        assert partition_sum_lhs(d) == partition_enumeration_oracle(d)


# ---------------------------------------------------------------------------
# The partition oracles themselves


def test_partitions_of_one_and_two():
    [p1] = list(partitions(1))
    assert p1.parts == (1,) and p1.aut == 1
    p2 = {p.parts: p.aut for p in partitions(2)}
    assert p2 == {(2,): 1, (1, 1): 2}


def test_partitions_of_five_has_seven_entries():
    assert len(list(partitions(5))) == 7


def test_partition_counts_match_pentagonal_recurrence():
    assert [partition_count(d) for d in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    for d in range(31):
        assert sum(1 for _ in partitions(d)) == partition_count(d)


def test_partitions_exhaustive_and_duplicate_free():
    for d in range(1, 16):
        seen = set()
        for p in partitions(d):
            assert p.weight == d
            assert all(x >= 1 for x in p.parts)
            assert tuple(p.parts) == tuple(sorted(p.parts, reverse=True))
            assert p.parts not in seen
            seen.add(p.parts)


def test_partitions_reverse_lex_order():
    got = [p.parts for p in partitions(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partition_aut():
    assert Partition((3, 3, 2, 1, 1, 1)).aut == 2 * 6
    assert Partition((5,)).aut == 1
    assert Partition(()).aut == 1


def test_partition_sum_equals_c_ord_and_closed_form():
    for d in range(1, 13):
        assert partition_sum_lhs(d) == c_ord(d) == gw_selfnodal(1, d)


def test_partition_sum_domain():
    with pytest.raises(DomainError):
        partition_sum_lhs(0)
    with pytest.raises(DomainError):
        c_ord(-1)


# ---------------------------------------------------------------------------
# Fixtures


def test_fixture_table_matches_computation():
    rows = load_p2_table()
    assert [d for d, _, _ in rows] == [1, 2, 3, 4, 5, 6]
    for d, nodal, smooth in rows:
        assert nodal == gw_selfnodal(1, d)
        assert smooth > nodal  # the smooth-cubic counts dominate


def test_fixture_env_fallback(tmp_path, monkeypatch):
    target = tmp_path / "p2_table.csv"
    target.write_text("d,gw_nodal,gw_smooth\n1,3,9\n")
    monkeypatch.setenv("WALLCROSS_FIXTURES", str(tmp_path))
    assert load_p2_table() == [(1, Fraction(3), Fraction(9))]
    monkeypatch.setenv("WALLCROSS_FIXTURES", str(target))
    assert load_p2_table() == [(1, Fraction(3), Fraction(9))]


def test_fixture_missing(tmp_path):
    with pytest.raises(FixturesMissing):
        load_p2_table(str(tmp_path / "absent.csv"))


def test_fixture_bad_header(tmp_path):
    bad = tmp_path / "p2_table.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(FixturesMissing):
        load_p2_table(str(bad))
