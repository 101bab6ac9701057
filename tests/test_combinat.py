"""Partitions, Moebius, binomials, quantum integers, plethystic calculus."""

import random
from fractions import Fraction

import pytest

from wallcross.algebra import GradedSeries, LaurentPoly, RationalFunc, rf_reduce, series_exp
from wallcross.combinat import (
    Partition,
    binomial,
    divisor_inversion,
    divisor_sum,
    minus_one_pow,
    moebius,
    partition_count,
    partitions,
    plethystic_exp,
    plethystic_log,
    quantum_integer,
)
from wallcross.errors import BadConstantTerm, NonPositive


def sieve_moebius(limit: int) -> list[int]:
    """Independent oracle via inversion of sum_{d | n} mu(d) = [n == 1]."""
    mu = [0] * (limit + 1)
    mu[1] = 1
    for i in range(1, limit + 1):
        for j in range(2 * i, limit + 1, i):
            mu[j] -= mu[i]
    return mu


def pascal_triangle(rows: int) -> list[list[int]]:
    tri = [[1]]
    for n in range(1, rows):
        prev = tri[-1]
        tri.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    return tri


# ---------------------------------------------------------------------------
# moebius / binomial


def test_moebius_examples():
    assert moebius(1) == 1
    assert moebius(6) == 1
    assert moebius(12) == 0


def test_moebius_against_sieve():
    mu = sieve_moebius(200)
    for n in range(1, 201):
        assert moebius(n) == mu[n]


def test_moebius_divisor_sums():
    for n in range(2, 201):
        assert sum(moebius(d) for d in range(1, n + 1) if n % d == 0) == 0
    assert sum(moebius(d) for d in [1]) == 1


def test_minus_one_pow():
    assert [minus_one_pow(n) for n in range(-3, 4)] == [-1, 1, -1, 1, -1, 1, -1]


def test_divisor_sum_counts_and_sums_divisors():
    assert divisor_sum([1] * 12, lambda l, x: x) == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6]
    assert divisor_sum([1] * 6, lambda l, x: l * x) == [1, 3, 4, 7, 6, 12]


def test_divisor_inversion_is_moebius_inversion():
    # sum_{l | d} mu(d/l) = [d == 1], so inverting the delta gives mu itself
    delta = [1] + [0] * 29
    assert divisor_inversion(delta, lambda l, x: x) == [moebius(d) for d in range(1, 31)]
    assert divisor_inversion([1] * 30, lambda l, x: x) == delta


def _cube_kernel(k: int, n: Fraction) -> Fraction:
    return n / k**3


def _cover_term(l: int, x: RationalFunc) -> RationalFunc:
    """(1/l) (t - 1/t)/(t^l - t^-l) * x(t^l), the refined multi-cover term."""
    return RationalFunc(LaurentPoly({1: 1, -1: -1}), LaurentPoly({l: l, -l: -l})) \
        * x.substitute_power(l)


def test_divisor_sum_inversion_round_trips():
    rng = random.Random(89)
    for n in range(1, 13):
        values = [Fraction(rng.randint(-50, 50), rng.randint(1, 6)) for _ in range(n)]
        sums = divisor_sum(values, _cube_kernel)
        assert sums[n - 1] == sum((values[n // k - 1] / k**3
                                   for k in range(1, n + 1) if n % k == 0), Fraction(0))
        assert divisor_inversion(sums, _cube_kernel) == values
    for n in range(1, 7):
        values = []
        for _ in range(n):
            half = {k: rng.randint(-4, 4) for k in range(0, 3)}
            values.append(RationalFunc(LaurentPoly({**half, **{-k: v for k, v in half.items()}})))
        assert divisor_inversion(divisor_sum(values, _cover_term), _cover_term) == values


def test_moebius_rejects_nonpositive():
    with pytest.raises(NonPositive):
        moebius(0)
    with pytest.raises(NonPositive):
        moebius(-5)


def test_binomial_examples_and_out_of_range():
    assert binomial(3, 1) == 3
    assert binomial(7, 2) == 21
    assert binomial(15, 3) == 455
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0


def test_binomial_against_pascal():
    tri = pascal_triangle(21)
    for n in range(21):
        for k in range(n + 1):
            assert binomial(n, k) == tri[n][k]


# ---------------------------------------------------------------------------
# partitions


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


# ---------------------------------------------------------------------------
# quantum integers


def test_quantum_integer_small_values():
    assert quantum_integer(1) == LaurentPoly.one()
    assert quantum_integer(2) == LaurentPoly({1: 1, -1: 1})
    assert quantum_integer(3) == LaurentPoly({2: 1, 0: 1, -2: 1})


def test_quantum_integer_properties_up_to_50():
    for m in range(1, 51):
        q = quantum_integer(m)
        assert q.is_palindromic()
        assert q.at_one() == m


def test_quantum_integer_as_reduced_quotient():
    for m in range(1, 20):
        quotient = rf_reduce(LaurentPoly({m: 1, -m: -1}), LaurentPoly({1: 1, -1: -1}))
        assert quotient == RationalFunc(quantum_integer(m))


# ---------------------------------------------------------------------------
# plethystic Exp/Log


def test_plethystic_exp_geometric_series():
    s = GradedSeries(4, {1: 1})
    assert plethystic_exp(s) == GradedSeries(4, {d: 1 for d in range(5)})


def test_plethystic_exp_of_zero():
    assert plethystic_exp(GradedSeries.zero(5)) == GradedSeries.one(5)


def test_plethystic_log_inverts_exp_literal():
    s = GradedSeries(6, {1: quantum_integer(2), 2: LaurentPoly({2: 1, -2: 1})})
    assert plethystic_log(plethystic_exp(s)) == s


def test_plethystic_round_trip_random():
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(1, 8)
        s = GradedSeries(n, {
            d: LaurentPoly({k: Fraction(rng.randint(-3, 3))
                            for k in range(-2, 3) if rng.random() < 0.4})
            for d in range(1, n + 1)
        })
        assert plethystic_log(plethystic_exp(s)) == s


def test_plethystic_exp_is_multiplicative():
    rng = random.Random(71)
    for _ in range(20):
        n = rng.randint(2, 7)
        def rand_series():
            return GradedSeries(n, {
                d: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for d in range(1, n + 1)
            })
        a, b = rand_series(), rand_series()
        assert plethystic_exp(a + b) == plethystic_exp(a) * plethystic_exp(b)


def test_plethystic_constant_term_contract():
    with pytest.raises(BadConstantTerm):
        plethystic_exp(GradedSeries.one(3))
    with pytest.raises(BadConstantTerm):
        plethystic_log(GradedSeries.zero(3))


def test_plethystic_exp_vs_direct_expansion_with_coeff_substitution():
    # one nontrivial refined coefficient: Exp([2]_q z) carries t -> t^k inside
    s = GradedSeries(3, {1: quantum_integer(2)})
    got = plethystic_exp(s)
    inner = GradedSeries.zero(3)
    for k in (1, 2, 3):
        inner = inner + GradedSeries(3, {k: quantum_integer(2).substitute_power(k)}) / k
    assert got == series_exp(inner)
