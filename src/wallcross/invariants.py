"""Closed-form invariants and series-level correspondences.

Covers the closed formulas for maximal-tangency genus-zero counts on the
weighted projective pairs and on local P^1, the Kronecker-quiver numerical
DT formula, multi-cover inversion between Omega and Omega-bar, genus-zero
GV extraction, the log/local conversion factors, the degenerate-hypersurface
contribution C_ord and its partition-sum companion, plus the golden fixture
table for the plane-cubic pairs.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping, Sequence

from .algebra import LaurentPoly, RationalFunc
from .combinat import binomial, divisor_inversion, divisor_sum, divisors, minus_one_pow, moebius
from .errors import DomainError, FixturesMissing, IndexGap

FIXTURES_ENV = "WALLCROSS_FIXTURES"


@dataclass(frozen=True)
class PairParams:
    """Degree-d curves on the weight-r pair; m = r + 2 arrows, tangency d(r+2)."""

    r: int
    d: int

    def __post_init__(self):
        if self.r < 1:
            raise DomainError(
                f"r = {self.r} is outside this module's range (r >= 1); "
                "r = 0 and r = -1 are handled by the scattering pipeline")
        if self.d < 1:
            raise DomainError(f"degree must be positive, got {self.d}")

    @property
    def m(self) -> int:
        return self.r + 2

    @property
    def tangency(self) -> int:
        return self.d * (self.r + 2)


# ---------------------------------------------------------------------------
# Closed formulas


def gw_selfnodal(r: int, d: int) -> Fraction:
    """Genus-zero maximal-tangency count of the degree-d class on the weight-r pair.

    Equals (r+2)/d^2 * C((r+1)^2 d - 1, d - 1).
    """
    PairParams(r, d)
    return Fraction(r + 2, d * d) * binomial((r + 1) ** 2 * d - 1, d - 1)


def gw_local_p1(r: int, d: int) -> Fraction:
    """Degree-d equivariant count on the total space of O(r) + O(-r-2) over P^1.

    Equals (-1)^(rd-1)/d^3 * C((r+1)^2 d - 1, d - 1), and satisfies
    gw_selfnodal(r, d) = (-1)^(d(r+2)+1) d(r+2) gw_local_p1(r, d).
    """
    PairParams(r, d)
    return Fraction(minus_one_pow(r * d - 1) * binomial((r + 1) ** 2 * d - 1, d - 1), d**3)


def dt_kronecker_numeric(m: int, d: int) -> Fraction:
    """Numerical DT invariant of the m-arrow Kronecker quiver at dimension (d, d).

    Moebius sum (1/(r d^2)) sum_{l | d} mu(d/l) (-1)^(m l + 1) C((m-1)^2 l - 1, l)
    with r = m - 2.  Needs m >= 3 (the formula divides by r); for m <= 2 use
    the scattering pipeline instead.
    """
    if m <= 2:
        raise DomainError(
            f"m = {m}: the Moebius-sum formula divides by m - 2; "
            "use the scattering pipeline for m <= 2")
    if d < 1:
        raise DomainError(f"dimension must be positive, got {d}")
    r = m - 2
    total = sum(moebius(d // l) * minus_one_pow(m * l + 1) * binomial((m - 1) ** 2 * l - 1, l)
                for l in divisors(d))
    return Fraction(total, r * d * d)


def binomial_identity_check(r: int, d: int) -> bool:
    """Evaluate C((r+1)^2 d - 1, d) == r(r+2) C((r+1)^2 d - 1, d - 1) on both sides."""
    PairParams(r, d)
    n = (r + 1) ** 2 * d - 1
    return binomial(n, d) == r * (r + 2) * binomial(n, d - 1)


# ---------------------------------------------------------------------------
# Conversion factors


def log_local_factor(d_beta: int) -> int:
    """Sign/multiplicity factor (-1)^(D.beta + 1) * D.beta for exceptional-divisor pairs."""
    if d_beta < 1:
        raise DomainError(f"tangency order must be positive, got {d_beta}")
    return minus_one_pow(d_beta + 1) * d_beta


def nef_local_factor(d_beta: int, e_beta: int) -> int:
    """Factor (-1)^((D+E).beta) * (D.beta)(E.beta) for nef two-divisor pairs."""
    if d_beta < 1 or e_beta < 1:
        raise DomainError("both intersection numbers must be positive")
    return minus_one_pow(d_beta + e_beta) * d_beta * e_beta


def loglocal_prefactor_series(d_beta: int, cutoff: int) -> LaurentPoly:
    """Expansion of (-1)^(D.beta - 1) / (t^(D.beta) - t^(-D.beta)) with t = e^(v/2).

    Returned as a Laurent polynomial in v, truncated at exponent <= cutoff.
    The expansion starts at v^(-1) and only odd powers of v occur, since
    1/sinh is odd.  Coefficients are exact rationals.
    """
    if d_beta < 1:
        raise DomainError(f"tangency order must be positive, got {d_beta}")
    if cutoff < -1:
        raise ValueError("cutoff must be at least -1")
    a = d_beta
    # 2*sinh(a v / 2) = a*v*h(v) with h even; invert h as a power series.
    length = cutoff + 3
    h = [Fraction(0)] * length
    for j in range(0, (length - 1) // 2 + 1):
        if 2 * j < length:
            h[2 * j] = Fraction(a ** (2 * j), 4**j * factorial(2 * j + 1))
    hinv = [Fraction(0)] * length
    hinv[0] = Fraction(1)
    for n in range(1, length):
        acc = Fraction(0)
        for i in range(1, n + 1):
            if h[i]:
                acc += h[i] * hinv[n - i]
        hinv[n] = -acc
    sign = minus_one_pow(a - 1)
    coeffs = {2 * j - 1: sign * hinv[2 * j] / a
              for j in range(0, length // 2 + 1)
              if 2 * j < length and 2 * j - 1 <= cutoff and hinv[2 * j]}
    return LaurentPoly(coeffs)


# ---------------------------------------------------------------------------
# Multi-cover inversion and GV extraction


def _by_degree(values: Sequence | Mapping[int, object], what: str) -> list:
    """Normalise degree-indexed input (sequence: d = 1 first) to a plain list."""
    if isinstance(values, Mapping):
        keys = sorted(values)
        if keys != list(range(1, len(keys) + 1)):
            raise IndexGap(f"{what} must be indexed by 1..N without gaps, got keys {keys}")
        return [values[d] for d in keys]
    return list(values)


def _cover_term(l: int, omega: RationalFunc) -> RationalFunc:
    """The l-fold cover term (1/l) (t - t^-1)/(t^l - t^-l) * omega(t^l) on the t-grid."""
    return RationalFunc(LaurentPoly({1: 1, -1: -1}),
                        LaurentPoly({l: l, -l: -l})) * omega.substitute_power(l)


def multicover_bar_from_omega(omega) -> list[RationalFunc]:
    """Package refined invariants into their multi-cover sums.

    bar_d = sum over l | d of (1/l) (t - t^-1)/(t^l - t^-l) * omega_{d/l}(t^l).
    """
    om = [RationalFunc(_to_rf(x).as_laurent()) for x in _by_degree(omega, "omega")]
    return divisor_sum(om, _cover_term)


def multicover_omega_from_bar(bar) -> list[LaurentPoly]:
    """Triangular inverse of :func:`multicover_bar_from_omega`.

    Raises ValueError if the recursion does not clear denominators, which
    signals input outside the Laurent-polynomial regime.
    """
    omega = divisor_inversion([_to_rf(b) for b in _by_degree(bar, "omega_bar")], _cover_term)
    for d, acc in enumerate(omega, start=1):
        if not acc.is_laurent:
            raise ValueError(
                f"multi-cover inversion at degree {d} is not a Laurent polynomial: {acc}")
    return [acc.as_laurent() for acc in omega]


def _to_rf(x) -> RationalFunc:
    if isinstance(x, RationalFunc):
        return x
    return RationalFunc(x)


def _over_cube(k: int, n: Fraction) -> Fraction:
    return n / k**3


def gv_from_gw_genus0(gw) -> list[Fraction]:
    """Triangular solve of GW_d = sum_{k | d} n_{d/k} / k^3 for the n's."""
    return divisor_inversion([Fraction(x) for x in _by_degree(gw, "gw")], _over_cube)


def gw_from_gv_genus0(gv) -> list[Fraction]:
    """Multiple-cover sum GW_d = sum_{k | d} n_{d/k} / k^3."""
    return divisor_sum([Fraction(x) for x in _by_degree(gv, "gv")], _over_cube)


# ---------------------------------------------------------------------------
# Degenerate-hypersurface contributions (r = 1)


def c_ord(d: int) -> Fraction:
    """Ordinary multiple-cover contribution (1/d^2) C(4d - 1, d) of a coordinate line."""
    if d < 1:
        raise DomainError(f"degree must be positive, got {d}")
    return Fraction(binomial(4 * d - 1, d), d * d)


def partition_sum_lhs(d: int) -> Fraction:
    """Partition sum equal to c_ord(d) and to gw_selfnodal(1, d).

    sum over partitions (d_1 >= ... >= d_l) of d of
    2^(l-1) d^(l-2) / #Aut * prod_i (-1)^(d_i - 1) C(3 d_i, d_i) / d_i.

    The length weight is 2^(l-1) d^(l-2) = (2d)^l / (2 d^2), so by the
    exponential formula the sum equals (1/(2 d^2)) [z^d] exp(2d F(z)) with
    F(z) = sum_i (-1)^(i-1) C(3i, i)/i z^i.  E = exp(2d F) comes from
    n E_n = sum_{k=1..n} k A_k E_{n-k}, where k A_k = 2d (-1)^(k-1) C(3k, k)
    is an integer; G_n = n! E_n is then an integer too, with
    G_n = sum_k k A_k (n-1)!/(n-k)! G_{n-k}.  That is O(d^2) exact integer
    operations, and a single division at the end.
    """
    if d < 1:
        raise DomainError(f"degree must be positive, got {d}")
    ka = [0] + [2 * d * minus_one_pow(k - 1) * binomial(3 * k, k) for k in range(1, d + 1)]
    g = [1] + [0] * d
    for n in range(1, d + 1):
        acc = 0
        falling = 1  # (n-1)!/(n-k)!
        for k in range(1, n + 1):
            acc += ka[k] * falling * g[n - k]
            falling *= n - k
        g[n] = acc
    return Fraction(g[d], factorial(d) * 2 * d * d)


# ---------------------------------------------------------------------------
# Golden fixtures: the plane-cubic table (nodal column computable, smooth
# column shipped read-only and never computed here)


def default_fixtures_path() -> str:
    """Packaged copy of fixtures/p2_table.csv."""
    return os.path.join(os.path.dirname(__file__), "fixtures", "p2_table.csv")


def resolve_fixtures_path(path: str | None = None) -> str:
    """Resolve the fixtures file: explicit path, then $WALLCROSS_FIXTURES, then packaged."""
    candidate = path or os.environ.get(FIXTURES_ENV) or default_fixtures_path()
    if os.path.isdir(candidate):
        candidate = os.path.join(candidate, "p2_table.csv")
    return candidate


def load_p2_table(path: str | None = None) -> list[tuple[int, Fraction, Fraction]]:
    """Load the (d, nodal, smooth) golden rows; raises FixturesMissing if absent."""
    candidate = resolve_fixtures_path(path)
    if not os.path.exists(candidate):
        raise FixturesMissing(f"fixtures file not found: {candidate}")
    rows: list[tuple[int, Fraction, Fraction]] = []
    with open(candidate, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"d", "gw_nodal", "gw_smooth"}
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise FixturesMissing(
                f"fixtures file {candidate} must have header d,gw_nodal,gw_smooth")
        for row in reader:
            try:
                rows.append((int(row["d"]), Fraction(row["gw_nodal"]),
                             Fraction(row["gw_smooth"])))
            except (TypeError, ValueError, ZeroDivisionError) as err:
                raise FixturesMissing(
                    f"fixtures file {candidate} has a malformed row at line "
                    f"{reader.line_num}: {row}") from err
    rows.sort(key=lambda r: r[0])
    return rows
