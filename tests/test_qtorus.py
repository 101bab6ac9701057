"""Quantum torus, dilog factorization, divisibility, GV basis change."""

import random
from fractions import Fraction

import pytest

from wallcross.algebra import LaurentPoly, RationalFunc, log_coeffs
from wallcross.combinat import quantum_integer
from wallcross.errors import BasisResidue, OrderOverflow, TruncationMismatch
from wallcross.invariants import dt_kronecker_numeric
from wallcross.qtorus import (
    Factorization,
    QTorusElement,
    dilog_coefficient,
    divisibility_check,
    gv_from_refined,
    ks_factorization,
    ks_factorize,
    quantum_dilog,
    refined_from_factorization,
)


def tpow(k: int) -> RationalFunc:
    return RationalFunc(LaurentPoly.t_power(k))


# ---------------------------------------------------------------------------
# Quantum torus arithmetic


def test_commutation_twist_on_generators():
    for m in (1, 2, 3):
        x = QTorusElement(m, 4, {(1, 0): 1})
        y = QTorusElement(m, 4, {(0, 1): 1})
        assert (x * y).coeff((1, 1)) == tpow(-m)
        assert (y * x).coeff((1, 1)) == tpow(m)


def test_multiplicative_identity():
    rng = random.Random(89)
    one = QTorusElement.one(3, 4)
    for _ in range(10):
        a = QTorusElement(3, 4, {
            (rng.randint(0, 2), rng.randint(0, 2)): RationalFunc(LaurentPoly({rng.randint(-2, 2): 1}))
            for _ in range(3)
        })
        assert a * one == a
        assert one * a == a


def test_associativity_brute_force():
    rng = random.Random(97)
    for _ in range(15):
        def rand_elem():
            return QTorusElement(2, 5, {
                (rng.randint(0, 2), rng.randint(0, 2)):
                    RationalFunc(LaurentPoly({rng.randint(-2, 2): rng.choice([1, -1, 2])}))
                for _ in range(3)
            })
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)


def test_mixed_truncation_rejected():
    a = QTorusElement.one(2, 4)
    b = QTorusElement.one(2, 6)
    c = QTorusElement.one(3, 4)
    with pytest.raises(TruncationMismatch):
        a * b
    with pytest.raises(TruncationMismatch):
        a * c


# ---------------------------------------------------------------------------
# Quantum dilogarithm


def test_dilog_first_coefficients():
    e = quantum_dilog((1, 0), 4, 1)
    assert e.coeff((0, 0)) == RationalFunc.one()
    assert e.coeff((1, 0)) == RationalFunc(LaurentPoly.t_power(1), LaurentPoly({2: 1, 0: -1}))
    assert dilog_coefficient(2) == RationalFunc(
        LaurentPoly.t_power(4),
        LaurentPoly({2: 1, 0: -1}) * LaurentPoly({4: 1, 0: -1}))


def test_dilog_log_is_multicover_kernel():
    # (t - 1/t) * [z^n] log E(z) specialises at t = 1 to 1/n^2, the n-fold
    # cover weight of a single wall; checked through n = 4
    coeffs = {n: dilog_coefficient(n) for n in range(1, 5)}
    log = log_coeffs([RationalFunc.one()] + [coeffs[n] for n in range(1, 5)])
    tminus = RationalFunc(LaurentPoly({1: 1, -1: -1}))
    for n in range(1, 5):
        expected = RationalFunc(LaurentPoly({1: 1, -1: -1}),
                                LaurentPoly({n: n, -n: -n}))
        assert tminus * log[n] == expected
        assert (tminus * log[n]).at_one() == Fraction(1, n * n)


def test_dilog_rejects_bad_vector():
    with pytest.raises(ValueError):
        quantum_dilog((0, 0), 4, 1)


# ---------------------------------------------------------------------------
# Factorization


def test_factorization_reproduces_product():
    # peeling truncates each degree on its own; verify() re-multiplies at full order
    for m in (1, 2, 3, 4):
        fact = ks_factorization(m, 6)
        assert fact.verify()


def test_pentagon_factorization_shape():
    fact = ks_factorization(1, 6)
    directions = [d for d, _ in fact.rays]
    assert directions == [(0, 1), (1, 1), (1, 0)]
    # the extreme factors are the dilog series themselves
    extremes = dict(fact.rays)
    for v in ((0, 1), (1, 0)):
        coeffs = dict(extremes[v])
        for n, c in coeffs.items():
            assert c == dilog_coefficient(n)


def test_refined_anchor_dimension_11():
    for m in (1, 2, 3, 4):
        rec = ks_factorize(m, 1)[0]
        expected = quantum_integer(m) * (1 if m % 2 == 1 else -1)
        assert rec.omega == expected


def test_refined_classical_limits():
    for m in (3, 4):
        records = ks_factorize(m, 2)
        for rec in records:
            d = rec.dimension_vector[0]
            assert rec.omega_at_1 == dt_kronecker_numeric(m, d)


def test_refined_pentagon_and_affine_towers():
    assert [r.omega for r in ks_factorize(1, 3)] == [LaurentPoly.one(), LaurentPoly(), LaurentPoly()]
    m2 = ks_factorize(2, 2)
    assert m2[0].omega == -quantum_integer(2)
    assert m2[1].omega == LaurentPoly()


def test_refined_palindromic_integer_coefficients():
    for m in (2, 3, 4):
        for rec in ks_factorize(m, 2):
            assert rec.omega.is_palindromic()
            assert all(c.denominator == 1 for _, c in rec.omega.items())


def test_refined_extraction_rejects_bad_central_factors():
    # at m = 1, Omega_1 = -(t - 1/t) F_1: not Laurent, not palindromic, not integral
    tminus = LaurentPoly({1: 1, -1: -1})
    for f1, error, match in (
            (RationalFunc(1, LaurentPoly({2: 1, 0: 1})), ValueError, "not a Laurent"),
            (RationalFunc(LaurentPoly.t_power(1), tminus), AssertionError, "not palindromic"),
            (RationalFunc(Fraction(1, 2), tminus), AssertionError, "non-integer")):
        bad = Factorization(1, 2, QTorusElement.one(1, 2), (((1, 1), ((1, f1),)),))
        with pytest.raises(error, match=match):
            refined_from_factorization(bad, 1)


def test_refined_known_polynomials():
    recs = ks_factorize(3, 2)
    assert recs[0].omega == quantum_integer(3)
    assert recs[1].omega == -quantum_integer(6)


def test_factorize_order_validation():
    with pytest.raises(OrderOverflow):
        ks_factorize(0, 2)
    with pytest.raises(OrderOverflow):
        ks_factorization(3, 0)
    with pytest.raises(OrderOverflow):
        ks_factorization(3, 10**4)


# ---------------------------------------------------------------------------
# Divisibility and GV extraction


def test_divisibility_of_refined_invariants():
    for r in (1, 2):
        m = r + 2
        for rec in ks_factorize(m, 2):
            d = rec.dimension_vector[0]
            ok, quotient = divisibility_check(rec.omega, d * m)
            assert ok
            assert quotient.is_palindromic()
            assert all(k % 2 == 0 for k in quotient.support())
            for n in gv_from_refined(quotient):
                assert isinstance(n, int)


def test_divisibility_quotient_examples():
    ok, quotient = divisibility_check(quantum_integer(3), 3)
    assert ok and quotient == LaurentPoly.one()
    ok, quotient = divisibility_check(LaurentPoly(), 5)
    assert ok and quotient == LaurentPoly()


def test_negative_control_support():
    # [6]_q / [3]_q divides exactly but lands on half-integer q-powers,
    # so the GV expansion must refuse it
    ok, quotient = divisibility_check(quantum_integer(6), 3)
    assert ok and quotient == LaurentPoly({3: 1, -3: 1})
    with pytest.raises(BasisResidue):
        gv_from_refined(quotient)


def test_not_divisible_case():
    ok, quotient = divisibility_check(quantum_integer(5), 3)
    assert not ok and quotient is None


def test_gv_from_refined_examples():
    assert gv_from_refined(LaurentPoly.one()) == [1]
    assert gv_from_refined(LaurentPoly({2: 1, 0: 1, -2: 1})) == [3, -1]
    assert gv_from_refined(LaurentPoly()) == []


def test_gv_from_refined_round_trip():
    rng = random.Random(101)
    seesaw = LaurentPoly({1: 1, -1: -1})
    for _ in range(30):
        gv = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
        poly = LaurentPoly()
        for g, n in enumerate(gv):
            sign = 1 if g % 2 == 0 else -1
            poly = poly + seesaw ** (2 * g) * (sign * n)
        got = gv_from_refined(poly)
        want = list(gv)
        while want and want[-1] == 0:
            want.pop()
        assert got == want


def test_gv_from_refined_rejects_residue():
    with pytest.raises(BasisResidue):
        gv_from_refined(LaurentPoly({2: 1, -2: -1}))  # not palindromic


def test_refined_report_shape():
    report = [rec.to_json() for rec in ks_factorize(3, 2)]
    assert [e["dimension_vector"] for e in report] == [[1, 1], [2, 2]]
    first = report[0]
    assert first["omega"] == {"-2": "1", "0": "1", "2": "1"}
    assert first["omega_at_1"] == "3"
    assert first["quotient_by_quantum_number"] == {"0": "1"}
    assert first["gv_list"] == ["1"]
