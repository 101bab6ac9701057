"""Exact scalar, polynomial, rational-function and truncated-series arithmetic.

Every scalar is a ``fractions.Fraction``; nothing here ever rounds.  Four
layers build on each other:

* ``Fraction`` -- exact rationals (stdlib), serialised as ``"p/q"``.
* ``LaurentPoly`` -- Laurent polynomials in a variable ``t``, where ``t``
  stands for ``q^(1/2)``.  Refined BPS/DT invariants live here.
* ``RationalFunc`` -- reduced quotients of Laurent polynomials, the home of
  multi-cover packagings with poles at roots of unity.  Reduction and
  ``LaurentPoly.exact_div`` clear denominators and run on integer lists: by
  Gauss's lemma the gcd over Q[t] is the primitive gcd over Z[t], computed
  by a primitive pseudo-remainder sequence, so only the results are built
  as ``Fraction``.
* ``GradedSeries`` -- formal series in a grading variable ``z`` truncated at
  a degree cutoff, with coefficients in any of the three rings above, kept
  as given: the typed container that ``series_exp``, ``series_log`` and the
  plethystic calculus take and return.  It has no arithmetic of its own.

Series logarithms and exponentials have a single core, :func:`log_coeffs`
and :func:`exp_coeffs`: O(n^2) triangular recurrences on plain lists that
run in the ring of their coefficients (int or ``Fraction``, ``LaurentPoly``,
``RationalFunc``), so integer or Laurent input never builds a quotient.

All values are immutable after construction and all operations are pure, so
instances can be shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Mapping, Sequence, Union

from .errors import BadConstantTerm, ZeroDenominator

Scalar = Union[int, Fraction]

_F0 = Fraction(0)


def rational_to_str(x: Scalar) -> str:
    """Serialise an exact rational as ``"p/q"`` (``"p"`` when q = 1)."""
    return str(Fraction(x))


def rational_from_str(s: str) -> Fraction:
    """Inverse of :func:`rational_to_str`; round-trips bit-exactly."""
    return Fraction(s)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly:
    """Laurent polynomial in t = q^(1/2) with Fraction coefficients.

    Stored as a map from integer t-exponent to coefficient, with zero
    coefficients never kept.  Working on the integer t-grid means every
    half-integer power of q in the underlying formulas is representable
    without fractional exponents.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        c: dict[int, Fraction] = {}
        if coeffs:
            for k, v in coeffs.items():
                if not isinstance(k, int):
                    raise TypeError(f"exponent must be an int, got {type(k).__name__}")
                v = _as_fraction(v)
                if v:
                    c[k] = v
        self._c = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    @classmethod
    def t_power(cls, k: int) -> LaurentPoly:
        """The monomial t^k."""
        return cls({k: 1})

    # -- inspection --------------------------------------------------------

    def coeff(self, k: int) -> Fraction:
        return self._c.get(k, _F0)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """(exponent, coefficient) pairs in increasing exponent order."""
        return iter(sorted(self._c.items()))

    def support(self) -> list[int]:
        return sorted(self._c)

    @property
    def is_zero(self) -> bool:
        return not self._c

    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponent range")
        return min(self._c)

    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponent range")
        return max(self._c)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> LaurentPoly:
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for k, v in other._c.items():
            s = c.get(k, _F0) + v
            if s:
                c[k] = s
            else:
                c.pop(k, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {k: -v for k, v in self._c.items()}
        return out

    def __sub__(self, other) -> LaurentPoly:
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> LaurentPoly:
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> LaurentPoly:
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            if not f:
                return LaurentPoly()
            out = LaurentPoly.__new__(LaurentPoly)
            out._c = {k: v * f for k, v in self._c.items()}
            return out
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        c: dict[int, Fraction] = {}
        for ka, va in self._c.items():
            for kb, vb in other._c.items():
                k = ka + kb
                s = c.get(k, _F0) + va * vb
                if s:
                    c[k] = s
                else:
                    c.pop(k, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> LaurentPoly:
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            if not f:
                raise ZeroDivisionError("division of LaurentPoly by zero scalar")
            return self * (1 / f)
        return NotImplemented

    def __pow__(self, n: int) -> LaurentPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("LaurentPoly exponent must be a non-negative integer")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def substitute_power(self, k: int) -> LaurentPoly:
        """Substitute t -> t^k, i.e. q^(1/2) -> q^(k/2).  Requires k >= 1."""
        if not isinstance(k, int) or k < 1:
            raise ValueError("substitution power must be a positive integer")
        if k == 1:
            return self
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e * k: v for e, v in self._c.items()}
        return out

    def is_palindromic(self) -> bool:
        """True iff coeff(k) = coeff(-k) for every exponent k."""
        return all(self._c.get(-k, _F0) == v for k, v in self._c.items())

    def evaluate(self, x: Scalar) -> Fraction:
        """Exact evaluation at t = x (x nonzero if negative exponents occur)."""
        x = _as_fraction(x)
        total = _F0
        for k, v in self._c.items():
            total += v * x**k
        return total

    def at_one(self) -> Fraction:
        """Evaluation at t = 1, the numerical specialisation."""
        return sum(self._c.values(), _F0)

    def exact_div(self, divisor: LaurentPoly) -> LaurentPoly | None:
        """Exact quotient self/divisor, or None if it is not a Laurent polynomial."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly()
        lo_a, a, den_a = _int_dense(self._c)
        lo_b, b, den_b = _int_dense(divisor._c)
        content = gcd(*b)
        q = _zdiv(a, b if content == 1 else [x // content for x in b])
        if q is None:
            return None
        return _from_ints(q, lo_a - lo_b, den_b, den_a * content)

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> dict[str, str]:
        return {str(k): rational_to_str(v) for k, v in sorted(self._c.items())}

    @classmethod
    def from_json(cls, obj: Mapping[str, str]) -> LaurentPoly:
        return cls({int(k): rational_from_str(v) for k, v in obj.items()})

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        # a constant equals its scalar, so it must hash like it
        if self._c.keys() <= {0}:
            return hash(self._c.get(0, _F0))
        return hash(tuple(sorted(self._c.items())))

    def __bool__(self) -> bool:
        return bool(self._c)

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for k, v in sorted(self._c.items(), reverse=True):
            if k == 0:
                parts.append(str(v))
            else:
                var = "t" if k == 1 else f"t^{k}"
                parts.append(var if v == 1 else f"{v}*{var}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._c.items()))!r})"


def _as_laurent(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly({0: x})
    return NotImplemented


# Integer core for exact division and gcd.  A Laurent polynomial is handled
# as t^lo * (c0 + c1 t + ... + cn t^n) / den with integer c, c0 != 0 != cn
# and den > 0.  By Gauss's lemma a gcd over Q[t] is a rational multiple of
# the primitive gcd over Z[t] of the cleared polynomials, and a primitive
# polynomial that divides over Q also divides over Z, so neither operation
# needs a Fraction until the result is built.


def _int_dense(c: Mapping[int, Fraction]) -> tuple[int, list[int], int]:
    lo, hi = min(c), max(c)
    den = lcm(*[v.denominator for v in c.values()])
    ints = [0] * (hi - lo + 1)
    for k, v in c.items():
        ints[k - lo] = v.numerator * (den // v.denominator)
    return lo, ints, den


def _from_ints(ints: list[int], shift: int, num: int, den: int) -> LaurentPoly:
    """t^shift * (num/den) * sum(ints[i] t^i), built without re-validation."""
    out = LaurentPoly.__new__(LaurentPoly)
    out._c = {shift + i: Fraction(num * x, den) for i, x in enumerate(ints) if x}
    return out


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, with a positive leading coefficient."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [x // g for x in a]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """k * (a mod b) for some nonzero integer k, trimmed; needs len(a) >= len(b)."""
    r = a[:]
    db = len(b) - 1
    lead = b[-1]
    while len(r) > db:
        c = r.pop()
        if c:
            g = gcd(c, lead)
            f, c = lead // g, c // g
            if f != 1:
                r = [x * f for x in r]
            s = len(r) - db
            for j in range(db):
                r[s + j] -= c * b[j]
    while r and not r[-1]:
        r.pop()
    return r


def _zgcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd over Z[t] of two nonzero polynomials (primitive PRS)."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _zdiv(a: list[int], b: list[int]) -> list[int] | None:
    """Exact quotient a/b over Z[t] for a primitive b, or None if b does not divide a."""
    r = a[:]
    db = len(b) - 1
    lead = b[-1]
    q = [0] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i]
        if c:
            f, m = divmod(c, lead)
            if m:
                return None
            s = i - db
            q[s] = f
            for j in range(db):
                r[s + j] -= f * b[j]
    if any(r[:db]):
        return None
    return q


# ---------------------------------------------------------------------------
# Rational functions


class RationalFunc:
    """Reduced quotient num/den of Laurent polynomials in t.

    The canonical form makes equality structural: the polynomial gcd of the
    pair is removed, the denominator is shifted so its lowest exponent is 0,
    and the denominator is made monic.  ``0/0`` is never constructed; a zero
    denominator is rejected eagerly.  The gcd is found and divided out on
    the denominator-cleared integer polynomials (Gauss's lemma), and the
    ``Fraction`` coefficients of the canonical form are built once at the end.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num=0, den=1):
        num = _coerce_lp(num)
        den = _coerce_lp(den)
        if den.is_zero:
            raise ZeroDenominator("rational function with denominator zero")
        self._num, self._den = _rf_reduce(num, den)

    @property
    def num(self) -> LaurentPoly:
        return self._num

    @property
    def den(self) -> LaurentPoly:
        return self._den

    @classmethod
    def zero(cls) -> RationalFunc:
        return cls(0)

    @classmethod
    def one(cls) -> RationalFunc:
        return cls(1)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> RationalFunc:
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_laurent and other.is_laurent:
            return _laurent_rf(self._num + other._num)
        return RationalFunc(self._num * other._den + other._num * self._den,
                            self._den * other._den)

    __radd__ = __add__

    def __neg__(self) -> RationalFunc:
        out = RationalFunc.__new__(RationalFunc)
        out._num, out._den = -self._num, self._den
        return out

    def __sub__(self, other) -> RationalFunc:
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> RationalFunc:
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> RationalFunc:
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_laurent and other.is_laurent:
            return _laurent_rf(self._num * other._num)
        return RationalFunc(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RationalFunc:
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other._num.is_zero:
            raise ZeroDenominator("division by the zero rational function")
        return RationalFunc(self._num * other._den, self._den * other._num)

    def __rtruediv__(self, other) -> RationalFunc:
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> RationalFunc:
        if not isinstance(n, int):
            raise ValueError("RationalFunc exponent must be an integer")
        if n < 0:
            return 1 / (self ** (-n))
        result = RationalFunc.one()
        for _ in range(n):
            result = result * self
        return result

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    @property
    def is_laurent(self) -> bool:
        """True iff the reduced denominator is 1."""
        return self._den._c == _LP1._c

    def as_laurent(self) -> LaurentPoly:
        if not self.is_laurent:
            raise ValueError(f"{self} is not a Laurent polynomial")
        return self._num

    def substitute_power(self, k: int) -> RationalFunc:
        """t -> t^k on numerator and denominator separately."""
        return RationalFunc(self._num.substitute_power(k),
                            self._den.substitute_power(k))

    def evaluate(self, x: Scalar) -> Fraction:
        """Exact evaluation at t = x; raises ZeroDivisionError at a pole."""
        d = self._den.evaluate(x)
        if not d:
            raise ZeroDivisionError(f"pole at t = {x}")
        return self._num.evaluate(x) / d

    def at_one(self) -> Fraction:
        return self.evaluate(1)

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> dict[str, dict[str, str]]:
        return {"num": self._num.to_json(), "den": self._den.to_json()}

    @classmethod
    def from_json(cls, obj) -> RationalFunc:
        return cls(LaurentPoly.from_json(obj["num"]), LaurentPoly.from_json(obj["den"]))

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        # a quotient with denominator 1 equals its numerator, so it must hash like it
        if self.is_laurent:
            return hash(self._num)
        return hash((self._num, self._den))

    def __bool__(self) -> bool:
        return not self._num.is_zero

    def __str__(self) -> str:
        if self.is_laurent:
            return str(self._num)
        return f"({self._num})/({self._den})"

    def __repr__(self) -> str:
        return f"RationalFunc({self._num!r}, {self._den!r})"


_LP1 = LaurentPoly.one()


def _laurent_rf(num: LaurentPoly) -> RationalFunc:
    """num / 1, which is already in canonical form: no gcd needed."""
    out = RationalFunc.__new__(RationalFunc)
    out._num, out._den = num, _LP1
    return out


def _coerce_lp(x) -> LaurentPoly:
    lp = _as_laurent(x)
    if lp is NotImplemented:
        raise TypeError(f"cannot build a rational function from {type(x).__name__}")
    return lp


def _as_rf(x) -> RationalFunc:
    if isinstance(x, RationalFunc):
        return x
    if isinstance(x, (int, Fraction, LaurentPoly)):
        return RationalFunc(x)
    return NotImplemented


def _rf_reduce(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    if num.is_zero:
        return LaurentPoly(), LaurentPoly.one()
    lo_n, n, den_n = _int_dense(num._c)
    lo_d, d, den_d = _int_dense(den._c)
    if len(n) > 1 and len(d) > 1:
        g = _zgcd(n, d)
        if len(g) > 1:
            n, d = _zdiv(n, g), _zdiv(d, g)
    # num/den = t^(lo_n - lo_d) * (den_d * n) / (den_n * d); make d monic
    lead = d[-1]
    return _from_ints(n, lo_n - lo_d, den_d, den_n * lead), _from_ints(d, 0, 1, lead)


# ---------------------------------------------------------------------------
# Truncated graded series


class GradedSeries:
    """Formal series in z, truncated beyond degree ``cutoff``.

    A typed, validated container of int, Fraction, LaurentPoly or
    RationalFunc coefficients, kept as given and keyed by integer degree
    0..cutoff; zeros are never kept.  The arithmetic lives elsewhere, in
    :func:`series_exp`, :func:`series_log` and the plethystic pair of
    ``combinat``, which work on coefficient lists.
    """

    __slots__ = ("_cutoff", "_coeffs")

    def __init__(self, cutoff: int, coeffs: Mapping[int, object] | None = None):
        if not isinstance(cutoff, int) or cutoff < 0:
            raise ValueError("cutoff must be a non-negative integer")
        self._cutoff = cutoff
        c: dict[int, object] = {}
        if coeffs:
            for d, v in coeffs.items():
                if not isinstance(d, int):
                    raise TypeError(f"degree must be an int, got {type(d).__name__}")
                if d < 0 or d > cutoff:
                    raise ValueError(f"degree {d} outside 0..{cutoff}")
                if not isinstance(v, (int, Fraction, LaurentPoly, RationalFunc)):
                    raise TypeError(f"bad coefficient type {type(v).__name__}")
                if v:
                    c[d] = v
        self._coeffs = c

    @classmethod
    def one(cls, cutoff: int) -> GradedSeries:
        return cls(cutoff, {0: 1})

    @classmethod
    def zero(cls, cutoff: int) -> GradedSeries:
        return cls(cutoff)

    @property
    def cutoff(self) -> int:
        return self._cutoff

    def coeff(self, d: int):
        return self._coeffs.get(d, _F0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self._cutoff == other._cutoff and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self._cutoff, tuple(sorted(self._coeffs.items()))))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for d in sorted(self._coeffs):
            v = self._coeffs[d]
            if d == 0:
                parts.append(f"{v}")
            else:
                parts.append(f"({v})*z^{d}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"GradedSeries({self._cutoff}, {{{', '.join(f'{d}: {v!r}' for d, v in sorted(self._coeffs.items()))}}})"


def log_coeffs(f: Sequence) -> list:
    """Coefficients of log f for a series f with f[0] = 1; index 0 holds Fraction(0).

    Solves (log f)' f = f' triangularly: M_n = n L_n satisfies
    M_n = n f_n - sum_{0<i<n} M_i f_{n-i}.  That is O(n^2) exact ring
    operations in the ring of f, except that int input gives Fractions.
    """
    m = [_F0] * len(f)
    for n in range(1, len(f)):
        acc = f[n] * n
        for i in range(1, n):
            if m[i] and f[n - i]:
                acc = acc - m[i] * f[n - i]
        m[n] = acc
    return [_F0] + [m[n] * Fraction(1, n) for n in range(1, len(f))]


def exp_coeffs(a: Sequence) -> list:
    """Coefficients of exp a for a series a with a[0] = 0; index 0 holds Fraction(1).

    Solves E' = a' E triangularly, n E_n = sum_{0<k<=n} k a_k E_{n-k}.  That
    is O(n^2) exact ring operations in the ring of a, as for :func:`log_coeffs`.
    """
    ka = [c * k for k, c in enumerate(a)]
    exp = [Fraction(1)]
    for n in range(1, len(a)):
        acc = _F0
        for k in range(1, n + 1):
            if ka[k] and exp[n - k]:
                acc = acc + ka[k] * exp[n - k]
        exp.append(acc * Fraction(1, n))
    return exp


def series_exp(s: GradedSeries) -> GradedSeries:
    """exp of a series with zero constant term, exact modulo z^(cutoff+1)."""
    if s.coeff(0):
        raise BadConstantTerm("series_exp needs constant term 0")
    coeffs = exp_coeffs([s.coeff(d) for d in range(s.cutoff + 1)])
    return GradedSeries(s.cutoff, dict(enumerate(coeffs)))


def series_log(s: GradedSeries) -> GradedSeries:
    """log of a series with constant term 1, exact modulo z^(cutoff+1)."""
    if s.coeff(0) != 1:
        raise BadConstantTerm("series_log needs constant term 1")
    coeffs = log_coeffs([s.coeff(d) for d in range(s.cutoff + 1)])
    return GradedSeries(s.cutoff, dict(enumerate(coeffs)))
