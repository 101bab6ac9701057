"""Moebius, binomials, quantum integers, plethystic calculus."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallcross.algebra import (GradedSeries, LaurentPoly, RationalFunc, exp_coeffs, log_coeffs,
                               series_exp, series_log)
from wallcross.combinat import (
    binomial,
    divisor_inversion,
    divisor_sum,
    minus_one_pow,
    moebius,
    plethystic_exp,
    plethystic_log,
    quantum_integer,
)
from wallcross.errors import BadConstantTerm, NonPositive
from wallcross.qtorus import Factorization, QTorusElement, refined_from_factorization
from wallcross.scattering import Ray, ScatteringDiagram, central_ray_omega

from test_algebra import _mul_truncated, random_palindromic


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


def coeff_list(s: GradedSeries) -> list:
    return [s.coeff(d) for d in range(s.cutoff + 1)]


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
        quotient = RationalFunc(LaurentPoly({m: 1, -m: -1}), LaurentPoly({1: 1, -1: -1}))
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
        def rand_coeffs():
            return {d: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for d in range(1, n + 1)}
        a, b = rand_coeffs(), rand_coeffs()
        product = _mul_truncated(coeff_list(plethystic_exp(GradedSeries(n, a))),
                                 coeff_list(plethystic_exp(GradedSeries(n, b))),
                                 RationalFunc.zero())
        assert plethystic_exp(GradedSeries(n, {d: a[d] + b[d] for d in a})) \
            == GradedSeries(n, dict(enumerate(product)))


def test_plethystic_constant_term_contract():
    with pytest.raises(BadConstantTerm):
        plethystic_exp(GradedSeries.one(3))
    with pytest.raises(BadConstantTerm):
        plethystic_log(GradedSeries.zero(3))


def test_plethystic_exp_vs_direct_expansion_with_coeff_substitution():
    # one nontrivial refined coefficient: Exp([2]_q z) carries t -> t^k inside
    s = GradedSeries(3, {1: quantum_integer(2)})
    got = plethystic_exp(s)
    inner = GradedSeries(3, {k: quantum_integer(2).substitute_power(k) / k for k in (1, 2, 3)})
    assert got == series_exp(inner)


# The Adams-sum Exp and the Moebius-sum Log, accumulated degree by degree on
# coefficient dicts: independent of divisor_sum and divisor_inversion.


def adams_sum_oracle(c: dict, n: int, weight) -> list:
    """sum_k weight(k) c(t^k, z^k), truncated beyond z^n, as a coefficient list."""
    acc = [RationalFunc.zero()] * (n + 1)
    for k in range(1, n + 1):
        w = weight(k)
        if w:
            for d, v in c.items():
                if d * k <= n:
                    acc[d * k] = acc[d * k] + v.substitute_power(k) * w
    return acc


def plethystic_exp_oracle(c: dict, n: int) -> list:
    adams = adams_sum_oracle(c, n, lambda k: Fraction(1, k))
    return exp_coeffs(adams)


def plethystic_log_oracle(f: list) -> list:
    n = len(f) - 1
    inner = log_coeffs(f)
    mu = sieve_moebius(n)
    return adams_sum_oracle(dict(enumerate(inner[1:], start=1)), n,
                            lambda k: Fraction(mu[k], k))


def test_plethystic_pair_against_adams_and_moebius_sums():
    rng = random.Random(97)
    draws = [lambda: RationalFunc(Fraction(rng.randint(-4, 4), rng.randint(1, 4))),
             lambda: RationalFunc(random_palindromic(rng))]
    for draw in draws:
        for n in range(1, 9):
            c = {d: draw() for d in range(1, n + 1)}
            assert coeff_list(plethystic_exp(GradedSeries(n, c))) == plethystic_exp_oracle(c, n)
            # 1 + s is not an Exp output, so this checks Log on its own
            f = [RationalFunc.one()] + [c[d] for d in range(1, n + 1)]
            assert coeff_list(plethystic_log(GradedSeries(n, dict(enumerate(f))))) \
                == plethystic_log_oracle(f)


# ---------------------------------------------------------------------------
# central_plog: both engines' extraction inverts a plethystic Exp


def central_function(m: int, plog: list) -> list:
    """[c_1, ..., c_n] with 1 + sum_k c_k ((-1)^m u)^k = Exp(sum_d plog[d-1] u^d)."""
    n = len(plog)
    exp = plethystic_exp(GradedSeries(n, dict(enumerate(plog, start=1))))
    return [exp.coeff(k) * minus_one_pow(m * k) for k in range(1, n + 1)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 5), st.lists(st.integers(-60, 60), min_size=1, max_size=4))
def test_central_ray_omega_round_trip(m, omegas):
    # numerical normalisation: P_d = -d Omega_d
    walls = {}
    for k, c in enumerate(central_function(m, [-d * om for d, om in enumerate(omegas, 1)]), 1):
        assert c.denominator == 1
        walls[k] = int(c)
    n = len(omegas)
    diagram = ScatteringDiagram(m, 2 * n, (Ray.make((1, 1), False, walls),))
    assert [central_ray_omega(diagram, d) for d in range(1, n + 1)] == omegas


palindromic_omegas = st.dictionaries(st.integers(0, 3), st.integers(-4, 4)).map(
    lambda half: LaurentPoly({**half, **{-k: v for k, v in half.items()}}))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(1, 5), st.lists(palindromic_omegas, min_size=1, max_size=4))
def test_refined_from_factorization_round_trip(m, omegas):
    # refined normalisation: P_d = Omega_d / (t - t^-1)
    tminus = LaurentPoly({1: 1, -1: -1})
    coeffs = central_function(m, [RationalFunc(om, tminus) for om in omegas])
    n = len(omegas)
    rays = (((1, 1), tuple(enumerate(coeffs, start=1))),)
    factorization = Factorization(m, 2 * n, QTorusElement.one(m, 2 * n), rays)
    assert [rec.omega for rec in refined_from_factorization(factorization, n)] == omegas


# ---------------------------------------------------------------------------
# The series layer runs in the ring of its input


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.one_of(st.lists(st.fractions(-4, 4, max_denominator=4), min_size=1, max_size=5),
                 st.lists(palindromic_omegas, min_size=1, max_size=5)))
def test_series_operations_agree_with_their_rational_function_images(coeffs):
    n = len(coeffs)
    for constant, ops in ((0, (series_exp, plethystic_exp)), (1, (series_log, plethystic_log))):
        s = GradedSeries(n, {0: constant, **dict(enumerate(coeffs, start=1))})
        wrapped = GradedSeries(n, {d: RationalFunc(s.coeff(d)) for d in range(n + 1)})
        for op in ops:
            got, want = op(s), op(wrapped)
            assert got == want and hash(got) == hash(want), op.__name__
            out = coeff_list(got)
            assert not any(isinstance(c, RationalFunc) for c in out), op.__name__
            if all(isinstance(c, Fraction) for c in coeffs):
                assert all(type(c) is Fraction for c in out), op.__name__
