"""Integer combinatorics and the plethystic calculus.

The Moebius function, binomials, the sign (-1)^n, divisor sums and their
inversion, quantum integers, and the plethystic Exp/Log pair acting on
truncated graded series.  Every multi-cover-type sum runs through the one
pair :func:`divisor_sum` / :func:`divisor_inversion` with its own term; the
plethystic pair runs in the ring of its input, with the Adams term f(t^k)/k.
Both engines read their DT invariants through :func:`central_plog` and
order rays by :func:`slope`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from .algebra import GradedSeries, LaurentPoly, exp_coeffs, log_coeffs
from .errors import BadConstantTerm, NonPositive


def moebius(n: int) -> int:
    """Moebius function mu(n): (-1)^k on squarefree n with k prime factors, else 0."""
    if not isinstance(n, int) or n < 1:
        raise NonPositive(f"moebius needs a positive integer, got {n!r}")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if n > 1:
        result = -result
    return result


def binomial(n: int, k: int) -> int:
    """Exact C(n, k); zero when k < 0 or k > n."""
    if n < 0:
        raise ValueError("binomial needs a non-negative n")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def divisors(n: int) -> list[int]:
    """Positive divisors of n in increasing order."""
    if n < 1:
        raise NonPositive(f"divisors needs a positive integer, got {n!r}")
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def minus_one_pow(n: int) -> int:
    """The sign (-1)^n for any integer n."""
    return -1 if n % 2 else 1


def slope(direction: tuple[int, int]) -> Fraction:
    """b / (a + b) for a first-quadrant direction (a, b): increasing with b / a."""
    a, b = direction
    return Fraction(b, a + b)


def divisor_sum(values: Sequence, term: Callable) -> list:
    """S_d = sum over l | d of term(l, values[d/l - 1]), for d = 1..len(values).

    ``term(1, x)`` must equal x; the l = 1 term is taken as values[d - 1]
    itself, so no zero of the coefficient ring is needed.
    """
    sums = []
    for d in range(1, len(values) + 1):
        acc = values[d - 1]
        for l in divisors(d)[1:]:
            acc = acc + term(l, values[d // l - 1])
        sums.append(acc)
    return sums


def divisor_inversion(sums: Sequence, term: Callable) -> list:
    """Triangular inverse of :func:`divisor_sum` with the same ``term``.

    v_d = S_d - sum over l | d, l > 1, of term(l, v_(d/l)).
    """
    values: list = []
    for d in range(1, len(sums) + 1):
        acc = sums[d - 1]
        for l in divisors(d)[1:]:
            acc = acc - term(l, values[d // l - 1])
        values.append(acc)
    return values


def quantum_integer(m: int) -> LaurentPoly:
    """The quantum number [m]_q = (q^(m/2)-q^(-m/2))/(q^(1/2)-q^(-1/2)).

    Expanded on the t-grid (t = q^(1/2)) this is
    t^(m-1) + t^(m-3) + ... + t^(-(m-1)); palindromic, with value m at t = 1.
    """
    if not isinstance(m, int) or m < 1:
        raise NonPositive(f"quantum_integer needs a positive integer, got {m!r}")
    return LaurentPoly({k: 1 for k in range(-(m - 1), m, 2)})


def _adams_term(k: int, c):
    """The Adams term c(t^k)/k; term(1, c) is c itself and a scalar has no t."""
    return (c if isinstance(c, (int, Fraction)) else c.substitute_power(k)) * Fraction(1, k)


def _plog(f: Sequence) -> list:
    """Plethystic log of the list 1 + f_1 z + ... in degrees 1..n (f[0] is not read)."""
    return divisor_inversion(log_coeffs(f)[1:], _adams_term)


def plethystic_exp(s: GradedSeries) -> GradedSeries:
    """Plethystic exponential Exp(f) = exp(sum_k f(t^k, z^k)/k).

    Needs constant term 0.  The z^d coefficient of the Adams sum is
    sum over k | d of f_(d/k)(t^k)/k, so it is :func:`divisor_sum` with
    :func:`_adams_term`.  The substitution t -> t^k acts on numerator and
    denominator of each coefficient separately, which is well defined since
    substitution never kills a nonzero polynomial.
    """
    if s.coeff(0):
        raise BadConstantTerm("plethystic_exp needs constant term 0")
    sums = divisor_sum([s.coeff(d) for d in range(1, s.cutoff + 1)], _adams_term)
    return GradedSeries(s.cutoff, dict(enumerate(exp_coeffs([0] + sums))))


def plethystic_log(s: GradedSeries) -> GradedSeries:
    """Plethystic logarithm, the exact inverse of :func:`plethystic_exp`.

    Needs constant term 1.  Computed as :func:`divisor_inversion` of log(s)
    with :func:`_adams_term`, the triangular inverse of the Adams sum; since
    the Adams operations compose (t -> t^j after t -> t^k is t -> t^jk),
    this is the Moebius sum sum_k (mu(k)/k) log(s)(t^k, z^k).
    """
    if s.coeff(0) != 1:
        raise BadConstantTerm("plethystic_log needs constant term 1")
    plog = _plog([s.coeff(d) for d in range(s.cutoff + 1)])
    return GradedSeries(s.cutoff, dict(enumerate(plog, start=1)))


def central_plog(m: int, coeffs: Sequence) -> list:
    """PLog(1 + sum_k (-1)^(m k) c_k u^k) in degrees 1..n, for coeffs = [c_1, ..., c_n].

    For the central function 1 + sum_k c_k u^k of the m-arrow Kronecker
    quiver (u the monomial of (1, 1)) this is P_d = Omega_d / (t - t^-1) for
    the refined and P_d = -d Omega_d for the numerical DT invariants.
    """
    # The sign (-1)^(m k) is frozen by two anchors: dimension (1,1) must give
    # (-1)^(m-1) [m]_q, and the t = 1 limits must match the Moebius-sum DT
    # values for m in {3, 4}, d <= 2.  Any other sign family either breaks
    # an anchor or fails to clear denominators in the inversion.
    return _plog([1] + [c * minus_one_pow(m * k) for k, c in enumerate(coeffs, start=1)])
