"""Integer combinatorics and the plethystic calculus.

Partitions, the Moebius function, binomials, the sign (-1)^n, divisor sums
and their inversion, quantum integers, and the plethystic Exp/Log pair
acting on truncated graded series.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .algebra import GradedSeries, LaurentPoly, series_exp, series_log
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
    if not isinstance(d, int) or d < 0:
        raise NonPositive(f"partitions needs a non-negative integer, got {d!r}")

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
    if d < 0:
        raise NonPositive(f"partition_count needs a non-negative integer, got {d!r}")
    p = [1] + [0] * d
    for n in range(1, d + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = minus_one_pow(k - 1)
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p[d]


def quantum_integer(m: int) -> LaurentPoly:
    """The quantum number [m]_q = (q^(m/2)-q^(-m/2))/(q^(1/2)-q^(-1/2)).

    Expanded on the t-grid (t = q^(1/2)) this is
    t^(m-1) + t^(m-3) + ... + t^(-(m-1)); palindromic, with value m at t = 1.
    """
    if not isinstance(m, int) or m < 1:
        raise NonPositive(f"quantum_integer needs a positive integer, got {m!r}")
    return LaurentPoly({k: 1 for k in range(-(m - 1), m, 2)})


def plethystic_exp(s: GradedSeries) -> GradedSeries:
    """Plethystic exponential Exp(f) = exp(sum_k f(t^k, z^k)/k).

    Needs constant term 0.  The substitution t -> t^k acts on numerator and
    denominator of each coefficient separately, which is well defined since
    substitution never kills a nonzero polynomial.
    """
    if s.coeff(0):
        raise BadConstantTerm("plethystic_exp needs constant term 0")
    n = s.cutoff
    acc = GradedSeries.zero(n, s.strict)
    for k in range(1, n + 1):
        acc = acc + s.adams(k) / k
    return series_exp(acc)


def plethystic_log(s: GradedSeries) -> GradedSeries:
    """Plethystic logarithm, the exact inverse of :func:`plethystic_exp`.

    Needs constant term 1.  Computed as sum_k (mu(k)/k) log(s)(t^k, z^k).
    """
    from .algebra import RationalFunc

    if s.coeff(0) != RationalFunc.one():
        raise BadConstantTerm("plethystic_log needs constant term 1")
    n = s.cutoff
    inner = series_log(s)
    acc = GradedSeries.zero(n, s.strict)
    for k in range(1, n + 1):
        mu = moebius(k)
        if mu:
            acc = acc + inner.adams(k) * mu / k
    return acc
