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

Arithmetic: the engine runs on plain ints.  Every wall coefficient of the
completed diagram is an integer (Gross-Pandharipande-Siebert, "The tropical
vertex"), the crossing multipliers (1 + u)^e have binomial coefficients, and
each correction is an exact quotient of an integer defect; the completion
raises if that division ever leaves a remainder, so the theorem is checked
at run time.  The public types (`Ray`, `ScatteringDiagram`) keep `Fraction`.
Step k of the completion truncates the loop product at degree k + 1, the
least that determines the degree-k defect; one full-order product at the
end checks the whole diagram.
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
    """Polynomial in X, Y with integer coefficients, truncated beyond total degree `trunc`.

    Completion only ever needs ints (see the module docstring).  A hand-built
    ray with non-integral `Fraction` coefficients still crosses correctly,
    because int and Fraction arithmetic mix exactly.
    """

    __slots__ = ("trunc", "c")

    def __init__(self, trunc: int, c: dict[tuple[int, int], int] | None = None):
        self.trunc = trunc
        self.c = c if c is not None else {}

    @classmethod
    def monomial(cls, trunc: int, p: int, q: int, coeff=1) -> _XYPoly:
        if p + q > trunc:
            return cls(trunc)
        return cls(trunc, {(p, q): coeff})

    def terms_of_degree(self, k: int) -> list[tuple[tuple[int, int], int]]:
        return sorted((kk, v) for kk, v in self.c.items() if kk[0] + kk[1] == k)


def _series_powers(u: list) -> list[list]:
    """[u^0, u^1, ..., u^n] for a one-variable series u with u[0] = 0.

    Each power is a coefficient list truncated beyond degree n = len(u) - 1;
    u^i has no terms below degree i.
    """
    n = len(u) - 1
    powers = [[1] + [0] * n]
    for i in range(1, n + 1):
        prev = powers[-1]
        powers.append([0] * i + [sum(u[j] * prev[k - j] for j in range(1, k - i + 2))
                                 for k in range(i, n + 1)])
    return powers


def _int_power_of_one_plus(upows: list[list], e: int) -> list:
    """(1 + u)^e = sum_i binomial(e, i) u^i for integer e (negative allowed).

    `upows` are the powers of u from :func:`_series_powers`; the result is a
    coefficient list truncated like them.
    """
    n = len(upows) - 1
    out = upows[0][:]
    coeff = 1
    for i in range(1, n + 1):
        # binomial(e, i) from binomial(e, i - 1): an exact division, also for e < 0
        coeff = coeff * (e - i + 1) // i
        if not coeff:
            break  # e >= 0 and i > e: every later binomial vanishes too
        ui = upows[i]
        for k in range(i, n + 1):
            out[k] += coeff * ui[k]
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
    da, db = abs(a), abs(b)
    trunc = element.trunc
    # f = 1 + u(w) is a series in the ray monomial w = X^da Y^db
    u = [0] * (trunc // (da + db) + 1)
    for j, cj in ray.wall_powers:
        if j < len(u):
            # integral wall coefficients (all of a completed diagram) enter as ints
            u[j] = cj.numerator if cj.denominator == 1 else cj
    upows = _series_powers(u)
    powers: dict[int, list] = {}
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for (p, q), coeff in element.c.items():
        e = orientation * m * (a * q - b * p)
        if e == 0:
            out[(p, q)] = get((p, q), 0) + coeff
            continue
        fe = powers.get(e)
        if fe is None:
            fe = powers[e] = _int_power_of_one_plus(upows, e)
        for j in range((trunc - p - q) // (da + db) + 1):
            if fe[j]:
                key = (p + j * da, q + j * db)
                out[key] = get(key, 0) + coeff * fe[j]
    return _XYPoly(trunc, {k: v for k, v in out.items() if v})


def _loop_multipliers(m: int, outgoing: dict[tuple[int, int], dict[int, int]],
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
    outgoing: dict[tuple[int, int], dict[int, int]] = {
        r.direction: r.wall_coeffs() for r in initial.rays if not r.incoming
    }

    for k in range(1, order + 1):
        # the degree-k defect of P(X)/X, P(Y)/Y needs P only up to degree k + 1
        mx, my = _loop_multipliers(m, outgoing, k + 1)
        defect_x = dict(mx.terms_of_degree(k))
        defect_y = dict(my.terms_of_degree(k))
        monomials = sorted(set(defect_x) | set(defect_y))
        for (p, q) in monomials:
            cx = defect_x.get((p, q), 0)
            cy = defect_y.get((p, q), 0)
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
            delta, rest = divmod(cx, m * b)
            if rest:
                raise AssertionError(
                    f"non-integral wall correction {cx}/{m * b} at X^{p} Y^{q}; "
                    "the tropical vertex has integer wall functions")
            wall = outgoing.setdefault((a, b), {})
            wall[g] = wall.get(g, 0) + delta
            if not wall[g]:
                del wall[g]

    rays = [Ray.make((1, 0), True, {1: Fraction(1)})]
    for direction in sorted(outgoing, key=_ray_sort_key):
        coeffs = outgoing[direction]
        if coeffs:
            rays.append(Ray.make(direction, False, coeffs))
    rays.append(Ray.make((0, 1), True, {1: Fraction(1)}))
    diagram = ScatteringDiagram(pairing=m, order=order, rays=tuple(rays))
    defects = consistency_defect(diagram)
    if defects:
        k = min(p + q for (p, q), _ in defects)
        raise AssertionError(f"completion left a discrepancy at order {k}")
    return diagram


def consistency_defect(diagram: ScatteringDiagram) -> list[tuple[tuple[int, int], int]]:
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
