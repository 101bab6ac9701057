"""Refined pipeline: quantum torus, quantum dilogarithms, ordered factorization.

The quantum torus here has monomials x_v indexed by v in the non-negative
quadrant of Z^2, with product x_v * x_w = t^(m * (v /\\ w)) x_(v+w) where m
is the arrow count of the Kronecker quiver.  The orientation of the wedge,
(a,b) /\\ (c,d) = b*c - a*d, is part of the anchor-frozen convention: with
this chirality the slope-decreasing factorization of E(x_(1,0)) E(x_(0,1))
is clean (for m = 1 it is the pentagon, with the central ray only), and the
extraction below reproduces the required dimension-(1,1) polynomials and
the numerical t = 1 limits.  The refined DT invariants of the m-arrow
quiver at diagonal dimension vectors come out palindromic with integer
coefficients; their t = 1 limits recover the numerical invariants and
their quotients by quantum integers recover all-genus GV data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping

from .algebra import LaurentPoly, RationalFunc
from .combinat import central_plog, minus_one_pow, quantum_integer, slope
from .errors import BasisResidue, OrderOverflow, TruncationMismatch

MAX_FACTOR_ORDER = 16

_RF0 = RationalFunc.zero()
_RF1 = RationalFunc.one()


class QTorusElement:
    """Truncated element of the m-commuting quantum torus.

    Terms live on lattice vectors (a, b) with a, b >= 0 and a + b <= trunc;
    coefficients are rational functions in t = q^(1/2).
    """

    __slots__ = ("pairing", "trunc", "terms")

    def __init__(self, pairing: int, trunc: int,
                 terms: Mapping[tuple[int, int], RationalFunc] | None = None):
        self.pairing = pairing
        self.trunc = trunc
        t: dict[tuple[int, int], RationalFunc] = {}
        if terms:
            for v, c in terms.items():
                if v[0] < 0 or v[1] < 0:
                    raise ValueError(f"lattice vector {v} outside the non-negative quadrant")
                if v[0] + v[1] <= trunc and c:
                    t[v] = c if isinstance(c, RationalFunc) else RationalFunc(c)
        self.terms = t

    @classmethod
    def one(cls, pairing: int, trunc: int) -> QTorusElement:
        return cls(pairing, trunc, {(0, 0): _RF1})

    def coeff(self, v: tuple[int, int]) -> RationalFunc:
        return self.terms.get(tuple(v), _RF0)

    def _check_compatible(self, other: QTorusElement) -> None:
        if self.pairing != other.pairing or self.trunc != other.trunc:
            raise TruncationMismatch(
                f"incompatible elements: pairing/trunc ({self.pairing},{self.trunc}) "
                f"vs ({other.pairing},{other.trunc})")

    def __sub__(self, other: QTorusElement) -> QTorusElement:
        self._check_compatible(other)
        out = dict(self.terms)
        for v, c in other.terms.items():
            s = out.get(v, _RF0) - c
            if s:
                out[v] = s
            else:
                out.pop(v, None)
        return QTorusElement(self.pairing, self.trunc, out)

    def __mul__(self, other: QTorusElement) -> QTorusElement:
        self._check_compatible(other)
        m = self.pairing
        out: dict[tuple[int, int], RationalFunc] = {}
        for (a, b), ca in self.terms.items():
            for (c, d), cb in other.terms.items():
                v = (a + c, b + d)
                if v[0] + v[1] > self.trunc:
                    continue
                wedge = b * c - a * d
                coeff = ca * cb
                if wedge:
                    coeff = coeff * RationalFunc(LaurentPoly.t_power(m * wedge))
                s = out.get(v, _RF0) + coeff
                if s:
                    out[v] = s
                else:
                    out.pop(v, None)
        return QTorusElement(self.pairing, self.trunc, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QTorusElement):
            return NotImplemented
        return (self.pairing == other.pairing and self.trunc == other.trunc
                and self.terms == other.terms)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {c}" for v, c in sorted(self.terms.items()))
        return f"QTorusElement(m={self.pairing}, trunc={self.trunc}, {{{inner}}})"


def dilog_coefficient(n: int) -> RationalFunc:
    """n-th series coefficient t^(n^2) / ((t^2-1)(t^4-1)...(t^(2n)-1))."""
    den = LaurentPoly.one()
    for i in range(1, n + 1):
        den = den * LaurentPoly({2 * i: 1, 0: -1})
    return RationalFunc(LaurentPoly.t_power(n * n), den)


def quantum_dilog(v: tuple[int, int], trunc: int, pairing: int) -> QTorusElement:
    """E(x_v) = sum_n t^(n^2)/((t^2-1)...(t^(2n)-1)) x_(nv), truncated.

    Powers of the single monomial x_v commute, so the series is well defined
    as written.  The element is invertible with constant term 1.
    """
    a, b = v
    if (a, b) == (0, 0) or a < 0 or b < 0:
        raise ValueError(f"dilog argument must be a nonzero non-negative vector, got {v}")
    weight = a + b
    terms: dict[tuple[int, int], RationalFunc] = {}
    n = 0
    while n * weight <= trunc:
        terms[(n * a, n * b)] = dilog_coefficient(n)
        n += 1
    return QTorusElement(pairing, trunc, terms)


# ---------------------------------------------------------------------------
# Slope-ordered factorization


@dataclass(frozen=True)
class RefinedDT:
    """Refined DT invariant at one dimension vector, in the frozen convention.

    Carries the invariant omega, the divisor d*m of the quantum number it is
    divided by, the exact quotient by [d*m]_q (None when the division leaves
    a remainder), and the GV list of that quotient (None when there is no
    quotient or it is not expressible in the GV basis).
    """

    dimension_vector: tuple[int, int]
    omega: LaurentPoly
    divisor: int
    quotient: LaurentPoly | None
    gv: list | None

    @property
    def omega_at_1(self) -> Fraction:
        return self.omega.at_one()

    def to_json(self) -> dict:
        return {
            "dimension_vector": list(self.dimension_vector),
            "omega": self.omega.to_json(),
            "omega_at_1": str(self.omega_at_1),
            "divisible_by": f"[{self.divisor}]_q",
            "quotient_by_quantum_number":
                None if self.quotient is None else self.quotient.to_json(),
            "gv_list": None if self.gv is None else [str(n) for n in self.gv],
        }


@dataclass(frozen=True)
class Factorization:
    """Slope-ordered factor data of E(x_(1,0)) E(x_(0,1)).

    `rays` lists, in strictly decreasing slope order, each primitive
    direction together with the coefficients F_k of its factor
    1 + sum_k F_k x_(k v); re-multiplying the factors in order reproduces
    `product` exactly (see :meth:`verify`).
    """

    pairing: int
    order: int
    product: QTorusElement
    rays: tuple[tuple[tuple[int, int], tuple[tuple[int, RationalFunc], ...]], ...]

    def verify(self) -> bool:
        trunc = self.product.trunc
        acc = QTorusElement.one(self.pairing, trunc)
        for direction, coeffs in self.rays:
            acc = acc * _factor_element(self.pairing, trunc, direction, dict(coeffs))
        return acc == self.product

    def diagonal_coeffs(self) -> dict[int, RationalFunc]:
        return dict(dict(self.rays).get((1, 1), ()))


def _factor_element(m: int, trunc: int, direction: tuple[int, int],
                    coeffs: Mapping[int, RationalFunc]) -> QTorusElement:
    """The factor 1 + sum_k F_k x_(k v) of the ray v = `direction`."""
    a, b = direction
    terms = {(k * a, k * b): c for k, c in coeffs.items()}
    terms[(0, 0)] = _RF1
    return QTorusElement(m, trunc, terms)


def ks_factorization(m: int, order: int) -> Factorization:
    """Factor E(x_(1,0)) E(x_(0,1)) into slope-decreasing per-ray factors.

    Works degree by degree: at the lowest total degree where the ordered
    product of the current factors differs from the target, the defect is
    supported on multiples of primitive directions and is absorbed additively
    into the corresponding factor coefficients.
    """
    if m < 1:
        raise OrderOverflow(f"arrow count must be >= 1, got {m}")
    if order < 1 or order > MAX_FACTOR_ORDER:
        raise OrderOverflow(f"order must be in 1..{MAX_FACTOR_ORDER}, got {order}")
    trunc = order
    target = quantum_dilog((1, 0), trunc, m) * quantum_dilog((0, 1), trunc, m)
    factors: dict[tuple[int, int], dict[int, RationalFunc]] = {}

    for deg in range(1, trunc + 1):
        # the degree-deg defect only needs the product up to degree deg
        acc = QTorusElement.one(m, deg)
        for direction in sorted(factors, key=slope, reverse=True):
            acc = acc * _factor_element(m, deg, direction, factors[direction])
        defect = QTorusElement(m, deg, target.terms) - acc
        for (v, c) in sorted(defect.terms.items()):
            if v[0] + v[1] != deg:
                if v[0] + v[1] < deg:
                    raise AssertionError(
                        f"defect below current degree at {v}; peeling out of sync")
                continue
            g = gcd(v[0], v[1])
            prim = (v[0] // g, v[1] // g)
            ray = factors.setdefault(prim, {})
            s = ray.get(g, _RF0) + c
            if s:
                ray[g] = s
            else:
                ray.pop(g, None)

    rays = tuple(
        (direction, tuple(sorted(factors[direction].items())))
        for direction in sorted(factors, key=slope, reverse=True)
        if factors[direction]
    )
    return Factorization(pairing=m, order=order, product=target, rays=rays)


def ks_factorize(m: int, order: int) -> list[RefinedDT]:
    """Refined DT invariants at diagonal dimension vectors (d, d), d <= order.

    See :func:`refined_from_factorization`; the results are palindromic
    Laurent polynomials with integer coefficients, and their t = 1 limits
    match the numerical DT invariants.
    """
    dmax = MAX_FACTOR_ORDER // 2
    if order < 1 or order > dmax:
        raise OrderOverflow(f"d must be in 1..{dmax}, got {order}")
    factorization = ks_factorization(m, 2 * order)
    return refined_from_factorization(factorization, order)


def refined_from_factorization(factorization: Factorization, dmax: int) -> list[RefinedDT]:
    """Extract diagonal refined DT invariants from a completed factorization.

    The central factor 1 + sum_k F_k u^k (u = x_(1,1)) goes through
    :func:`~wallcross.combinat.central_plog`, and Omega_d = (t - t^(-1)) P_d
    for its values P_d.  Each record also holds the quotient by [d*m]_q and
    its GV list.
    """
    if 2 * dmax > factorization.order:
        raise OrderOverflow(
            f"factorization order {factorization.order} cannot resolve d = {dmax}")
    m = factorization.pairing
    central = factorization.diagonal_coeffs()
    tminus = RationalFunc(LaurentPoly({1: 1, -1: -1}))
    plogs = central_plog(m, [central.get(k, _RF0) for k in range(1, dmax + 1)])
    out = []
    for d, p in enumerate(plogs, start=1):
        omega = (tminus * p).as_laurent()
        if not omega.is_palindromic():
            raise AssertionError(
                f"extracted invariant at ({d},{d}) is not palindromic: {omega}; "
                "this signals a convention bug and is surfaced rather than patched")
        for k, c in omega.items():
            if c.denominator != 1:
                raise AssertionError(
                    f"extracted invariant at ({d},{d}) has non-integer coefficient "
                    f"{c} at t^{k}")
        ok, quotient = divisibility_check(omega, d * m)
        gv = None
        if ok:
            try:
                gv = gv_from_refined(quotient)
            except BasisResidue:
                pass
        out.append(RefinedDT(dimension_vector=(d, d), omega=omega, divisor=d * m,
                             quotient=quotient, gv=gv))
    return out


# ---------------------------------------------------------------------------
# Divisibility and GV extraction


def divisibility_check(omega: LaurentPoly, d_beta: int) -> tuple[bool, LaurentPoly | None]:
    """Exact division of a palindromic invariant by the quantum number [d_beta]_q.

    Returns (True, quotient) on exact division and (False, None) otherwise.
    The zero polynomial divides to (True, 0).
    """
    quotient = omega.exact_div(quantum_integer(d_beta))
    if quotient is None:
        return False, None
    return True, quotient


def gv_from_refined(quotient: LaurentPoly) -> list:
    """Expand a palindromic integer-q-power polynomial in the GV basis.

    Writes quotient = sum_g n_g (-1)^g (q^(1/2) - q^(-1/2))^(2g) and returns
    [n_0, n_1, ...].  Entries are ints whenever the expansion is integral.
    Raises BasisResidue if the input is supported on half-integer q-powers
    or is not palindromic (the expansion then leaves a residue).
    """
    if quotient.is_zero:
        return []
    if any(k % 2 for k in quotient.support()):
        raise BasisResidue(
            f"{quotient} has half-integer q-powers; not expressible in the GV basis")
    work = quotient
    coeffs: dict[int, Fraction] = {}
    seesaw = LaurentPoly({1: 1, -1: -1})
    while not work.is_zero:
        k = work.max_exp()
        if k < 0 or -work.min_exp() != k:
            raise BasisResidue(f"residue {work} not expressible in the GV basis")
        g = k // 2
        top = work.coeff(k)
        n_g = top * minus_one_pow(g)
        coeffs[g] = n_g
        work = work - seesaw ** (2 * g) * top
    gmax = max(coeffs)
    out = []
    for g in range(gmax + 1):
        c = coeffs.get(g, Fraction(0))
        out.append(int(c) if c.denominator == 1 else c)
    return out
