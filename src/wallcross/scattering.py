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

Arithmetic: the engine runs on plain ints.  An element is a dict
{(p, q): coeff} standing for sum coeff X^p Y^q, a wall is a dict {j: c_j},
and the truncation degree travels as an argument.  Every wall coefficient of
the completed diagram is an integer (Gross-Pandharipande-Siebert, "The
tropical vertex"), the crossing multipliers (1 + u)^e have binomial
coefficients, and each correction is an exact quotient of an integer defect;
the completion raises if that division ever leaves a remainder, so the
theorem is checked at run time.  The public types (`Ray`,
`ScatteringDiagram`) hold the same int walls and are built once, from the
finished walls.  `complete_to_consistency(m, order)` always starts from the
two lines 1 + X and 1 + Y.  Step k of the completion truncates the loop product at
degree k + 1, the least that determines the degree-k defect; one full-order
product at the end checks the whole diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping

from .combinat import binomial, central_plog, slope
from .errors import DomainError, InsufficientOrder, NonPrimitiveInput, OrderOverflow

MAX_ORDER = 64


# ---------------------------------------------------------------------------
# Truncated polynomials in X, Y


def _terms_of_degree(element: dict[tuple[int, int], int], k: int) -> list:
    return sorted((pq, v) for pq, v in element.items() if pq[0] + pq[1] == k)


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
    wall_powers: tuple[tuple[int, int], ...]

    def __post_init__(self):
        a, b = self.direction
        if gcd(abs(a), abs(b)) != 1:
            raise NonPrimitiveInput(f"ray direction {self.direction} is not primitive")

    def wall_coeffs(self) -> dict[int, int]:
        return dict(self.wall_powers)

    @staticmethod
    def make(direction, incoming, coeffs: Mapping[int, int]) -> Ray:
        powers = tuple(sorted((int(j), c) for j, c in coeffs.items() if c))
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


def wall_crossing_automorphism(direction: tuple[int, int], wall: Mapping[int, int],
                               element: dict[tuple[int, int], int], trunc: int, m: int,
                               orientation: int = 1) -> dict[tuple[int, int], int]:
    """Apply the crossing of the wall 1 + sum_j c_j (X^a Y^b)^j to an element.

    `wall` maps j to c_j and `element` maps (p, q) to the coefficient of
    X^p Y^q; terms beyond total degree `trunc` are dropped.  Each monomial
    X^p Y^q is multiplied by f^(orientation * m * (a q - b p)) where (a, b)
    is the wall direction and f its function; orientation +1 is the
    counterclockwise crossing, -1 undoes it.
    """
    a, b = direction
    da, db = abs(a), abs(b)
    # f = 1 + u(w) is a series in the ray monomial w = X^da Y^db
    u = [0] * (trunc // (da + db) + 1)
    for j, cj in wall.items():
        if j < len(u):
            u[j] = cj
    upows = _series_powers(u)
    powers: dict[int, list] = {}
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for (p, q), coeff in element.items():
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
    return {k: v for k, v in out.items() if v}


_INCOMING = {1: 1}  # wall of each incoming line: 1 + X, 1 + Y


def _loop_multipliers(m: int, outgoing: dict[tuple[int, int], dict[int, int]],
                      trunc: int) -> tuple[dict, dict]:
    """Path-ordered product around the origin applied to the generators.

    Returns (P(X)/X, P(Y)/Y); both are 1 exactly when the diagram is
    consistent to order trunc - 1.
    """
    crossings = [((1, 0), _INCOMING)]
    crossings += [(d, outgoing[d]) for d in sorted(outgoing, key=slope) if outgoing[d]]
    crossings += [((0, 1), _INCOMING), ((-1, 0), _INCOMING), ((0, -1), _INCOMING)]
    px = {(1, 0): 1}
    py = {(0, 1): 1}
    for direction, wall in crossings:
        px = wall_crossing_automorphism(direction, wall, px, trunc, m)
        py = wall_crossing_automorphism(direction, wall, py, trunc, m)
    mx = {(p - 1, q): v for (p, q), v in px.items()}
    my = {(p, q - 1): v for (p, q), v in py.items()}
    return mx, my


def complete_to_consistency(m: int, order: int) -> ScatteringDiagram:
    """Complete the lines 1 + X, 1 + Y with pairing m to consistency modulo order + 1.

    Works order by order: the discrepancy of the path-ordered loop product at
    order k is supported on first-quadrant monomials, decomposes along
    primitive directions, and is absorbed into the corresponding outgoing
    wall functions.  The output is deterministic, rays sorted by slope.
    """
    if m < 1:
        raise OrderOverflow(f"pairing determinant must be >= 1, got {m}")
    if order < 1 or order > MAX_ORDER:
        raise OrderOverflow(f"order must be in 1..{MAX_ORDER}, got {order}")
    outgoing: dict[tuple[int, int], dict[int, int]] = {}

    for k in range(1, order + 1):
        # the degree-k defect of P(X)/X, P(Y)/Y needs P only up to degree k + 1
        mx, my = _loop_multipliers(m, outgoing, k + 1)
        defect_x = dict(_terms_of_degree(mx, k))
        defect_y = dict(_terms_of_degree(my, k))
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

    rays = [Ray.make((1, 0), True, _INCOMING)]
    for direction in sorted(outgoing, key=slope):
        coeffs = outgoing[direction]
        if coeffs:
            rays.append(Ray.make(direction, False, coeffs))
    rays.append(Ray.make((0, 1), True, _INCOMING))
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
        defects.extend(_terms_of_degree(mx, k))
        defects.extend(_terms_of_degree(my, k))
    return defects


# ---------------------------------------------------------------------------
# DT extraction from the central ray


def central_ray_omega(diagram: ScatteringDiagram, d: int) -> Fraction:
    """Numerical DT invariant at diagonal dimension (d, d) from the central ray.

    Reads the central wall function f = 1 + sum_k c_k u^k (u the central
    monomial) through :func:`~wallcross.combinat.central_plog`.  On the int
    walls its values P_k are Fractions, so Omega_d = -P_d / d is a Fraction
    and no RationalFunc is built.  Equivalently f((-1)^m u) = prod_k (1 - u^k)^(k Omega_k).
    """
    if d < 1:
        raise DomainError(f"dimension must be positive, got {d}")
    if diagram.order < 2 * d:
        raise InsufficientOrder(
            f"order {diagram.order} diagram cannot resolve (d,d) = ({d},{d}); "
            f"complete to order >= {2 * d}")
    central = diagram.central_ray()
    wall = central.wall_coeffs() if central is not None else {}
    plog = central_plog(diagram.pairing, [wall.get(j, 0) for j in range(1, d + 1)])
    return -plog[d - 1] / d


def central_log_closed_form(m: int, d: int) -> Fraction:
    """Closed form C((m-1)^2 d - 1, d) / ((m-2) d) for the central log coefficients.

    Valid for m >= 3; equivalent to the Moebius-sum DT formula and used as a
    cross-check of the completion engine.
    """
    if m <= 2:
        raise OrderOverflow(f"closed form needs m >= 3, got {m}")
    return Fraction(binomial((m - 1) ** 2 * d - 1, d), (m - 2) * d)
