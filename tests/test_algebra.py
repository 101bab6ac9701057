"""Core arithmetic: ring axioms, canonical forms, series calculus, wire formats."""

import json
import random
from fractions import Fraction

import pytest

from wallcross.algebra import (
    GradedSeries,
    LaurentPoly,
    RationalFunc,
    exp_coeffs,
    log_coeffs,
    rational_from_str,
    rational_to_str,
    rf_reduce,
    series_exp,
    series_log,
)
from wallcross.combinat import quantum_integer
from wallcross.errors import BadConstantTerm, CutoffMismatch, ZeroDenominator


def naive_product(a: dict, b: dict) -> dict:
    """Brute-force exponent-map product, independent of LaurentPoly internals."""
    out: dict[int, Fraction] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            out[ka + kb] = out.get(ka + kb, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v}


def naive_long_division(num: dict, den: dict) -> dict | None:
    """Schoolbook division on exponent maps; None if the remainder is nonzero."""
    num = dict(num)
    quot: dict[int, Fraction] = {}
    den_top = max(den)
    lead = den[den_top]
    lo_bound = min(num) - min(den)  # exact quotients cannot reach below this
    while num:
        top = max(num)
        shift = top - den_top
        if shift < lo_bound:
            return None
        factor = num[top] / lead
        quot[shift] = quot.get(shift, Fraction(0)) + factor
        for k, v in den.items():
            key = k + shift
            s = num.get(key, Fraction(0)) - factor * v
            if s:
                num[key] = s
            else:
                num.pop(key, None)
    return quot


def random_laurent(rng: random.Random, span: int = 4, scale: int = 6) -> LaurentPoly:
    return LaurentPoly({
        k: Fraction(rng.randint(-scale, scale), rng.randint(1, 3))
        for k in range(-span, span + 1) if rng.random() < 0.5
    })


def as_map(poly: LaurentPoly) -> dict:
    return dict(poly.items())


# ---------------------------------------------------------------------------
# LaurentPoly


def test_lp_mul_hand_expansion():
    f = LaurentPoly({1: 1, -1: 1})
    assert f * f == LaurentPoly({2: 1, 0: 2, -2: 1})


def test_lp_mul_identity():
    rng = random.Random(11)
    for _ in range(20):
        f = random_laurent(rng)
        assert f * LaurentPoly.one() == f


def test_lp_mul_quantum_numbers_against_naive_oracle():
    lhs = quantum_integer(3) * quantum_integer(2)
    oracle = naive_product(as_map(quantum_integer(3)), as_map(quantum_integer(2)))
    assert as_map(lhs) == oracle
    assert lhs == quantum_integer(4) + quantum_integer(2)


def test_lp_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(120):
        a, b, c = (random_laurent(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert as_map(a * b) == naive_product(as_map(a), as_map(b))


def test_lp_substitute_power_examples():
    f = LaurentPoly({1: 1, -1: 1})
    assert f.substitute_power(2) == LaurentPoly({2: 1, -2: 1})
    rng = random.Random(3)
    g = random_laurent(rng)
    assert g.substitute_power(1) == g
    assert quantum_integer(3).substitute_power(2) == LaurentPoly({4: 1, 0: 1, -4: 1})


def test_lp_substitute_power_is_ring_hom():
    rng = random.Random(5)
    for _ in range(60):
        a, b = random_laurent(rng), random_laurent(rng)
        k = rng.randint(1, 5)
        assert (a * b).substitute_power(k) == a.substitute_power(k) * b.substitute_power(k)


def test_lp_substitute_preserves_palindromic():
    rng = random.Random(13)
    for _ in range(60):
        f = random_laurent(rng)
        f = f + f.reversed_var()  # force palindromic
        assert f.is_palindromic()
        assert f.substitute_power(rng.randint(1, 6)).is_palindromic()


def test_lp_palindromic_basics():
    assert LaurentPoly().is_palindromic()
    assert not LaurentPoly.t_power(1).is_palindromic()
    for m in range(1, 20):
        assert quantum_integer(m).is_palindromic()


def test_lp_pow_and_eval():
    f = LaurentPoly({1: 1, -1: -1})
    assert f**0 == LaurentPoly.one()
    assert f**3 == f * f * f
    assert f.evaluate(Fraction(2)) == Fraction(3, 2)
    assert (f * f).at_one() == 0


def test_lp_exact_div():
    two = quantum_integer(2)
    six = quantum_integer(6)
    assert six.exact_div(quantum_integer(3)) == LaurentPoly({3: 1, -3: 1})
    assert (two * six).exact_div(two) == six
    assert quantum_integer(5).exact_div(quantum_integer(3)) is None
    assert LaurentPoly().exact_div(two) == LaurentPoly()
    with pytest.raises(ZeroDivisionError):
        two.exact_div(LaurentPoly())


# ---------------------------------------------------------------------------
# RationalFunc


def test_rf_reduce_quantum_factorisation():
    assert rf_reduce(LaurentPoly({2: 1, -2: -1}), LaurentPoly({1: 1, -1: -1})) \
        == RationalFunc(quantum_integer(2))


def test_rf_reduce_f_over_f():
    rng = random.Random(23)
    for _ in range(30):
        f = random_laurent(rng)
        if f.is_zero:
            continue
        assert rf_reduce(f, f) == RationalFunc.one()


def test_rf_reduce_against_long_division_oracle():
    num = LaurentPoly({3: 1, -3: -1})
    den = LaurentPoly({1: 1, -1: -1})
    oracle = naive_long_division(as_map(num), as_map(den))
    assert oracle == {2: 1, 0: 1, -2: 1}
    assert rf_reduce(num, den) == RationalFunc(LaurentPoly(oracle))


def test_rf_reduce_common_factor_invariance():
    rng = random.Random(31)
    for _ in range(60):
        a, b, c = (random_laurent(rng, span=3, scale=4) for _ in range(3))
        if b.is_zero or c.is_zero:
            continue
        assert rf_reduce(a * c, b * c) == rf_reduce(a, b)


def test_rf_canonical_form_shape():
    rng = random.Random(37)
    for _ in range(60):
        a, b = random_laurent(rng), random_laurent(rng)
        if b.is_zero:
            continue
        r = RationalFunc(a, b)
        if r.is_zero:
            assert r.den == LaurentPoly.one()
            continue
        assert r.den.min_exp() == 0
        assert r.den.coeff(r.den.max_exp()) == 1  # monic denominator


def test_rf_cross_multiplication_agrees_with_canonical_equality():
    rng = random.Random(41)
    checked = 0
    while checked < 100:
        a, b = random_laurent(rng, span=3), random_laurent(rng, span=3)
        c, d = random_laurent(rng, span=3), random_laurent(rng, span=3)
        if b.is_zero or d.is_zero:
            continue
        checked += 1
        lhs, rhs = RationalFunc(a, b), RationalFunc(c, d)
        assert (lhs == rhs) == (a * d == c * b)
        assert (lhs == rhs) == (lhs.num * rhs.den == rhs.num * lhs.den)


def test_rf_field_axioms_random():
    rng = random.Random(43)
    for _ in range(60):
        a, b, c = (RationalFunc(random_laurent(rng, 2), LaurentPoly({0: 1, 2: 1}))
                   for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
    x = RationalFunc(quantum_integer(3), quantum_integer(2))
    assert x * (1 / x) == RationalFunc.one()
    assert x ** -2 == 1 / (x * x)


def test_constants_hash_like_the_scalars_they_equal():
    assert len({LaurentPoly({0: 1}), 1}) == 1
    assert len({LaurentPoly(), 0, RationalFunc(0)}) == 1
    assert len({RationalFunc(3), 3, Fraction(3), LaurentPoly({0: 3})}) == 1
    assert len({RationalFunc(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert len({RationalFunc(quantum_integer(3)), quantum_integer(3)}) == 1
    table = {1: "one", Fraction(1, 2): "half", quantum_integer(2): "[2]"}
    assert table[LaurentPoly.one()] == "one"
    assert table[RationalFunc(Fraction(1, 2))] == "half"
    assert table[RationalFunc(quantum_integer(2))] == "[2]"
    assert RationalFunc(1, quantum_integer(2)) not in table


def test_rf_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        RationalFunc(LaurentPoly.one(), LaurentPoly())
    with pytest.raises(ZeroDenominator):
        RationalFunc.one() / RationalFunc.zero()


def test_rf_substitute_power_splits_num_den():
    x = RationalFunc(quantum_integer(2), LaurentPoly({0: 1, 2: 1}))
    y = x.substitute_power(3)
    assert y == RationalFunc(quantum_integer(2).substitute_power(3),
                             LaurentPoly({0: 1, 6: 1}))


# ---------------------------------------------------------------------------
# GradedSeries


def z_series(cutoff: int, **kw) -> GradedSeries:
    return GradedSeries(cutoff, {1: 1}, **kw)


def test_series_exp_literal():
    got = series_exp(z_series(3))
    want = GradedSeries(3, {0: 1, 1: 1, 2: Fraction(1, 2), 3: Fraction(1, 6)})
    assert got == want


def test_series_log_of_one_is_zero():
    assert series_log(GradedSeries.one(5)) == GradedSeries.zero(5)


def test_series_exp_log_round_trip_random():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 12)
        s = GradedSeries(n, {d: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                             for d in range(1, n + 1)})
        assert series_log(series_exp(s)) == s
        assert series_exp(series_log(GradedSeries.one(n) + s)) == GradedSeries.one(n) + s


def _mul_truncated(a: list, b: list, zero) -> list:
    out = [zero] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] = out[i + j] + x * b[j]
    return out


def exp_power_sum_oracle(a: list, one, zero) -> list:
    """exp a = sum_i a^i / i!, truncated to len(a) terms; needs a[0] = 0."""
    acc = [one] + [zero] * (len(a) - 1)
    term = list(acc)
    for i in range(1, len(a)):
        term = [c / i for c in _mul_truncated(term, a, zero)]
        acc = [x + y for x, y in zip(acc, term)]
    return acc


def log_power_sum_oracle(f: list, one, zero) -> list:
    """log f = sum_i (-1)^(i-1) u^i / i with u = f - 1, truncated; needs f[0] = 1."""
    u = [zero] + list(f[1:])
    acc = [zero] * len(f)
    upow = [one] + [zero] * (len(f) - 1)
    for i in range(1, len(f)):
        upow = _mul_truncated(upow, u, zero)
        acc = [x + c * Fraction((-1) ** (i - 1), i) for x, c in zip(acc, upow)]
    return acc


def random_palindromic(rng: random.Random) -> LaurentPoly:
    half = {k: rng.randint(-3, 3) for k in range(0, 3)}
    return LaurentPoly({**half, **{-k: v for k, v in half.items()}})


def test_log_exp_coeffs_against_power_sum_oracles():
    rng = random.Random(83)
    rings = [
        (Fraction(1), Fraction(0), lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 4))),
        (RationalFunc.one(), RationalFunc.zero(),
         lambda: RationalFunc(random_palindromic(rng))),
    ]
    for one, zero, draw in rings:
        for n in range(1, 9):
            a = [zero] + [draw() for _ in range(n)]
            assert exp_coeffs(a, one) == exp_power_sum_oracle(a, one, zero)
            f = [one] + a[1:]
            assert log_coeffs(f, zero) == log_power_sum_oracle(f, one, zero)
            assert log_coeffs(exp_coeffs(a, one), zero) == a


def test_series_bad_constant_term():
    with pytest.raises(BadConstantTerm):
        series_exp(GradedSeries.one(3))
    with pytest.raises(BadConstantTerm):
        series_log(GradedSeries.zero(3))


def test_series_cutoff_policy():
    a = GradedSeries(5, {1: 1})
    b = GradedSeries(3, {1: 1})
    assert (a * b).cutoff == 3
    strict_a = GradedSeries(5, {1: 1}, strict=True)
    with pytest.raises(CutoffMismatch):
        strict_a * b
    # same cutoff is fine in strict mode
    assert (strict_a * GradedSeries(5, {1: 1})).coeff(2) == RationalFunc(1)


def test_series_mul_exact_mod_cutoff():
    a = GradedSeries(4, {0: 1, 1: quantum_integer(2)})
    b = GradedSeries(4, {0: 1, 1: -1})
    prod = a * b
    assert prod.coeff(0) == RationalFunc.one()
    assert prod.coeff(1) == RationalFunc(quantum_integer(2) - 1)
    assert prod.coeff(2) == RationalFunc(-quantum_integer(2))


# ---------------------------------------------------------------------------
# Serialisation


def test_rational_wire_format():
    assert rational_to_str(Fraction(21, 4)) == "21/4"
    assert rational_to_str(Fraction(3)) == "3"
    assert rational_to_str(Fraction(-7, 8)) == "-7/8"
    rng = random.Random(53)
    for _ in range(100):
        x = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        assert rational_from_str(rational_to_str(x)) == x


def test_laurent_json_round_trip():
    rng = random.Random(59)
    for _ in range(50):
        f = random_laurent(rng)
        blob = json.dumps(f.to_json())
        assert LaurentPoly.from_json(json.loads(blob)) == f
    assert quantum_integer(3).to_json() == {"-2": "1", "0": "1", "2": "1"}


def test_rational_func_json_round_trip():
    rng = random.Random(61)
    for _ in range(50):
        num, den = random_laurent(rng), random_laurent(rng)
        if den.is_zero:
            continue
        r = RationalFunc(num, den)
        blob = json.dumps(r.to_json())
        assert RationalFunc.from_json(json.loads(blob)) == r
