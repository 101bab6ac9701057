"""Classical tropical-vertex engine for two-wall local scattering diagrams.

The diagram starts from two incoming lines through the origin with wall
functions 1 + s1*x and 1 + s2*y, and a skew pairing scaled by an integer m
(so the two incoming directions pair to m).  Completing the diagram to
consistency order by order produces outgoing rays in the first quadrant;
the wall function of the central ray encodes the numerical DT invariants of
the m-arrow Kronecker quiver at diagonal dimension vectors, independently
of the Moebius-sum formula.

Bookkeeping: the deformation parameters are folded into the monomials,
X = s1*x and Y = s2*y, so the formal order of a term is its total degree in
(X, Y).  A ray of primitive direction (a, b) has wall function
1 + sum_j c_j (X^a Y^b)^j.

Conventions (fixed once, any coherent choice passes the consistency test):
the loop runs counterclockwise starting just below the positive x-axis, and
crossing a ray of primitive direction rho sends X^p Y^q to
X^p Y^q * f^(m * (rho /\\ (p, q))) where (a,b) /\\ (p,q) = a*q - b*p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping

from .algebra import log_coeffs
from .combinat import binomial, divisor_inversion, minus_one_pow
from .errors import DomainError, InsufficientOrder, NonPrimitiveInput, OrderOverflow

MAX_ORDER = 64


# ---------------------------------------------------------------------------
# Truncated polynomials in X, Y


class _XYPoly:
    """Polynomial in X, Y over Fraction, truncated beyond total degree `trunc`."""

    __slots__ = ("trunc", "c")

    def __init__(self, trunc: int, c: dict[tuple[int, int], Fraction] | None = None):
        self.trunc = trunc
        self.c = c if c is not None else {}

    @classmethod
    def one(cls, trunc: int) -> _XYPoly:
        return cls(trunc, {(0, 0): Fraction(1)})

    @classmethod
    def monomial(cls, trunc: int, p: int, q: int, coeff=1) -> _XYPoly:
        if p + q > trunc:
            return cls(trunc)
        return cls(trunc, {(p, q): Fraction(coeff)})

    def copy(self) -> _XYPoly:
        return _XYPoly(self.trunc, dict(self.c))

    def add_inplace(self, other: _XYPoly, scale: Fraction = Fraction(1)) -> None:
        for k, v in other.c.items():
            s = self.c.get(k, Fraction(0)) + scale * v
            if s:
                self.c[k] = s
            else:
                self.c.pop(k, None)

    def __add__(self, other: _XYPoly) -> _XYPoly:
        out = self.copy()
        out.add_inplace(other)
        return out

    def __sub__(self, other: _XYPoly) -> _XYPoly:
        out = self.copy()
        out.add_inplace(other, Fraction(-1))
        return out

    def __mul__(self, other: _XYPoly) -> _XYPoly:
        trunc = min(self.trunc, other.trunc)
        c: dict[tuple[int, int], Fraction] = {}
        for (pa, qa), va in self.c.items():
            for (pb, qb), vb in other.c.items():
                p, q = pa + pb, qa + qb
                if p + q > trunc:
                    continue
                key = (p, q)
                s = c.get(key, Fraction(0)) + va * vb
                if s:
                    c[key] = s
                else:
                    c.pop(key, None)
        return _XYPoly(trunc, c)

    def shift_scale(self, p: int, q: int, coeff: Fraction) -> _XYPoly:
        """self * coeff * X^p Y^q, truncated."""
        c = {}
        for (pa, qa), v in self.c.items():
            if pa + p + qa + q <= self.trunc:
                c[(pa + p, qa + q)] = v * coeff
        return _XYPoly(self.trunc, c)

    def terms_of_degree(self, k: int) -> list[tuple[tuple[int, int], Fraction]]:
        return sorted((kk, v) for kk, v in self.c.items() if kk[0] + kk[1] == k)

    def is_one(self) -> bool:
        return self.c == {(0, 0): Fraction(1)}


def _int_power_of_one_plus(u: _XYPoly, e: int) -> _XYPoly:
    """(1 + u)^e for integer e (negative allowed) with u of positive degree."""
    out = _XYPoly.one(u.trunc)
    upow = _XYPoly.one(u.trunc)
    coeff = Fraction(1)
    for i in range(1, u.trunc + 1):
        upow = upow * u
        if not upow.c:
            break
        coeff = coeff * Fraction(e - i + 1, i)
        if coeff:
            out.add_inplace(upow, coeff)
    return out


# ---------------------------------------------------------------------------
# Rays and diagrams


@dataclass(frozen=True)
class Ray:
    """Wall of a scattering diagram.

    `direction` is a primitive lattice vector; `incoming` marks the two
    initial full lines (outgoing walls are half-lines).  `wall_powers` lists
    (j, c_j) pairs of the function 1 + sum_j c_j (X^a Y^b)^j.
    """

    direction: tuple[int, int]
    incoming: bool
    wall_powers: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        a, b = self.direction
        if gcd(abs(a), abs(b)) != 1:
            raise NonPrimitiveInput(f"ray direction {self.direction} is not primitive")

    def wall_coeffs(self) -> dict[int, Fraction]:
        return dict(self.wall_powers)

    @staticmethod
    def make(direction, incoming, coeffs: Mapping[int, Fraction]) -> Ray:
        powers = tuple(sorted((int(j), Fraction(c)) for j, c in coeffs.items() if c))
        return Ray(tuple(direction), incoming, powers)


@dataclass(frozen=True)
class ScatteringDiagram:
    """Collection of rays with the scaled pairing determinant and the order cutoff."""

    pairing: int
    order: int
    rays: tuple[Ray, ...]

    def central_ray(self) -> Ray | None:
        for ray in self.rays:
            if ray.direction == (1, 1):
                return ray
        return None

    def outgoing(self) -> list[Ray]:
        return [r for r in self.rays if not r.incoming]

    def to_json(self) -> dict:
        return {
            "pairing": self.pairing,
            "order": self.order,
            "rays": [
                {
                    "direction": list(r.direction),
                    "incoming": r.incoming,
                    "wall_function": {str(j): str(c) for j, c in r.wall_powers},
                }
                for r in self.rays
            ],
        }


def initial_diagram(m: int) -> ScatteringDiagram:
    """Two incoming lines with functions 1 + X and 1 + Y and pairing scaled by m."""
    if m < 1:
        raise OrderOverflow(f"pairing determinant must be >= 1, got {m}")
    one = Fraction(1)
    return ScatteringDiagram(
        pairing=m,
        order=0,
        rays=(
            Ray.make((1, 0), True, {1: one}),
            Ray.make((0, 1), True, {1: one}),
        ),
    )


def _ray_sort_key(direction: tuple[int, int]):
    a, b = direction
    if a == 0:
        return (1, Fraction(0))
    return (0, Fraction(b, a))


def wall_crossing_automorphism(ray: Ray, element: _XYPoly, m: int,
                               orientation: int = 1) -> _XYPoly:
    """Apply the crossing of `ray` to a truncated element.

    Each monomial X^p Y^q is multiplied by f^(orientation * m * (a q - b p))
    where (a, b) is the ray direction and f its wall function; orientation
    +1 is the counterclockwise crossing, -1 undoes it.
    """
    a, b = ray.direction
    wall = ray.wall_coeffs()
    u = _XYPoly(element.trunc)
    for j, cj in wall.items():
        p, q = j * abs(a), j * abs(b)
        if p + q <= element.trunc:
            u.add_inplace(_XYPoly.monomial(element.trunc, p, q, cj))
    powers: dict[int, _XYPoly] = {}
    out = _XYPoly(element.trunc)
    for (p, q), coeff in element.c.items():
        e = orientation * m * (a * q - b * p)
        if e == 0:
            out.add_inplace(_XYPoly.monomial(element.trunc, p, q, coeff))
            continue
        fe = powers.get(e)
        if fe is None:
            fe = _int_power_of_one_plus(u, e)
            powers[e] = fe
        out.add_inplace(fe.shift_scale(p, q, coeff))
    return out


def _loop_multipliers(m: int, outgoing: dict[tuple[int, int], dict[int, Fraction]],
                      trunc: int) -> tuple[_XYPoly, _XYPoly]:
    """Path-ordered product around the origin applied to the generators.

    Returns (P(X)/X, P(Y)/Y); both are 1 exactly when the diagram is
    consistent to order trunc - 1.
    """
    one = Fraction(1)
    crossings: list[Ray] = [Ray.make((1, 0), True, {1: one})]
    for direction in sorted(outgoing, key=_ray_sort_key):
        coeffs = outgoing[direction]
        if coeffs:
            crossings.append(Ray.make(direction, False, coeffs))
    crossings.append(Ray.make((0, 1), True, {1: one}))
    crossings.append(Ray.make((-1, 0), True, {1: one}))
    crossings.append(Ray.make((0, -1), True, {1: one}))

    px = _XYPoly.monomial(trunc, 1, 0)
    py = _XYPoly.monomial(trunc, 0, 1)
    for ray in crossings:
        px = wall_crossing_automorphism(ray, px, m)
        py = wall_crossing_automorphism(ray, py, m)
    mx = _XYPoly(trunc, {(p - 1, q): v for (p, q), v in px.c.items()})
    my = _XYPoly(trunc, {(p, q - 1): v for (p, q), v in py.c.items()})
    return mx, my


def complete_to_consistency(initial: ScatteringDiagram, order: int) -> ScatteringDiagram:
    """Complete the two-line diagram to consistency modulo total order `order` + 1.

    Works order by order: the discrepancy of the path-ordered loop product at
    order k is supported on first-quadrant monomials, decomposes along
    primitive directions, and is absorbed into the corresponding outgoing
    wall functions.  The output is deterministic, rays sorted by slope.
    """
    if order < 1 or order > MAX_ORDER:
        raise OrderOverflow(f"order must be in 1..{MAX_ORDER}, got {order}")
    incoming = [r for r in initial.rays if r.incoming]
    if len(incoming) != 2 or {r.direction for r in incoming} != {(1, 0), (0, 1)}:
        raise NonPrimitiveInput(
            "initial diagram must consist of the two incoming lines (1,0) and (0,1)")
    for r in incoming:
        if r.wall_coeffs() != {1: Fraction(1)}:
            raise NonPrimitiveInput(
                f"incoming line {r.direction} must carry the wall function 1 + s*x^rho")
    if initial.pairing < 1:
        raise OrderOverflow(f"pairing determinant must be >= 1, got {initial.pairing}")

    m = initial.pairing
    trunc = order + 1
    outgoing: dict[tuple[int, int], dict[int, Fraction]] = {
        r.direction: r.wall_coeffs() for r in initial.rays if not r.incoming
    }

    for k in range(1, order + 1):
        mx, my = _loop_multipliers(m, outgoing, trunc)
        defect_x = dict(mx.terms_of_degree(k))
        defect_y = dict(my.terms_of_degree(k))
        monomials = sorted(set(defect_x) | set(defect_y))
        for (p, q) in monomials:
            cx = defect_x.get((p, q), Fraction(0))
            cy = defect_y.get((p, q), Fraction(0))
            if not cx and not cy:
                continue
            if p == 0 or q == 0:
                raise AssertionError(
                    f"loop discrepancy on a boundary monomial X^{p} Y^{q}; "
                    "two-line scattering should only correct interior rays")
            g = gcd(p, q)
            a, b = p // g, q // g
            if a * cx + b * cy != 0:
                raise AssertionError(
                    f"discrepancy at X^{p} Y^{q} is not tangent to ray ({a},{b}): "
                    f"{a}*{cx} + {b}*{cy} != 0")
            delta = cx / (m * b)
            wall = outgoing.setdefault((a, b), {})
            wall[g] = wall.get(g, Fraction(0)) + delta
            if not wall[g]:
                del wall[g]

    mx, my = _loop_multipliers(m, outgoing, trunc)
    for k in range(1, order + 1):
        if mx.terms_of_degree(k) or my.terms_of_degree(k):
            raise AssertionError(f"completion left a discrepancy at order {k}")

    rays = [Ray.make((1, 0), True, {1: Fraction(1)})]
    for direction in sorted(outgoing, key=_ray_sort_key):
        coeffs = outgoing[direction]
        if coeffs:
            rays.append(Ray.make(direction, False, coeffs))
    rays.append(Ray.make((0, 1), True, {1: Fraction(1)}))
    return ScatteringDiagram(pairing=m, order=order, rays=tuple(rays))


def consistency_defect(diagram: ScatteringDiagram) -> list[tuple[tuple[int, int], Fraction]]:
    """Nonzero terms of the loop-product multipliers up to the diagram's order.

    Empty exactly when the path-ordered product of wall crossings around the
    origin is the identity on both generators modulo order + 1.
    """
    outgoing = {r.direction: r.wall_coeffs() for r in diagram.rays if not r.incoming}
    mx, my = _loop_multipliers(diagram.pairing, outgoing, diagram.order + 1)
    defects = []
    for k in range(1, diagram.order + 1):
        defects.extend(mx.terms_of_degree(k))
        defects.extend(my.terms_of_degree(k))
    return defects


# ---------------------------------------------------------------------------
# DT extraction from the central ray


def central_ray_omega(diagram: ScatteringDiagram, d: int) -> Fraction:
    """Numerical DT invariant at diagonal dimension (d, d) from the central ray.

    Writes log of the central wall function as sum_k c_k u^k (u the central
    monomial), converts via the frozen dictionary
    bar_k = (-1)^(m*k - 1) c_k / k, and Moebius-inverts the multi-cover
    relation bar_k = sum_{l | k} Omega_{k/l} / l^2.  The dictionary is pinned
    by the m = 3 Kronecker values at d = 1, 2 and then applied everywhere.
    """
    if d < 1:
        raise DomainError(f"dimension must be positive, got {d}")
    if diagram.order < 2 * d:
        raise InsufficientOrder(
            f"order {diagram.order} diagram cannot resolve (d,d) = ({d},{d}); "
            f"complete to order >= {2 * d}")
    central = diagram.central_ray()
    wall = central.wall_coeffs() if central is not None else {}
    log = log_coeffs([Fraction(1)] + [wall.get(j, Fraction(0)) for j in range(1, d + 1)],
                     Fraction(0))
    m = diagram.pairing
    bars = [minus_one_pow(m * k - 1) * log[k] / k for k in range(1, d + 1)]
    return divisor_inversion(bars, lambda l, omega: omega / (l * l))[d - 1]


def central_log_closed_form(m: int, d: int) -> Fraction:
    """Closed form C((m-1)^2 d - 1, d) / ((m-2) d) for the central log coefficients.

    Valid for m >= 3; equivalent to the Moebius-sum DT formula and used as a
    cross-check of the completion engine.
    """
    if m <= 2:
        raise OrderOverflow(f"closed form needs m >= 3, got {m}")
    return Fraction(binomial((m - 1) ** 2 * d - 1, d), (m - 2) * d)
