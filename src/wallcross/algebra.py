"""Exact scalar, polynomial, rational-function and truncated-series arithmetic.

Every scalar is a ``fractions.Fraction``; nothing here ever rounds.  Four
layers build on each other:

* ``Fraction`` -- exact rationals (stdlib), serialised as ``"p/q"``.
* ``LaurentPoly`` -- Laurent polynomials in a variable ``t``, where ``t``
  stands for ``q^(1/2)``.  Refined BPS/DT invariants live here.
* ``RationalFunc`` -- reduced quotients of Laurent polynomials, the home of
  multi-cover packagings with poles at roots of unity.
* ``GradedSeries`` -- formal series in a grading variable ``z`` truncated at
  a degree cutoff, with ``RationalFunc`` coefficients; generating functions
  and the plethystic calculus operate on these.

Series logarithms and exponentials have a single core, :func:`log_coeffs`
and :func:`exp_coeffs`: O(n^2) triangular recurrences on plain lists of
``Fraction`` or ``RationalFunc`` coefficients.  ``series_log`` and
``series_exp`` apply them to a ``GradedSeries``; the scattering and refined
extractions apply them to wall and factor coefficients directly.

All values are immutable after construction and all operations are pure, so
instances can be shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

from .errors import BadConstantTerm, CutoffMismatch, ZeroDenominator

Scalar = Union[int, Fraction]

_F0 = Fraction(0)
_F1 = Fraction(1)


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
                v = _as_fraction(v)
                if v:
                    c[int(k)] = v
        self._c = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    @classmethod
    def term(cls, coeff: Scalar, exp: int = 0) -> LaurentPoly:
        return cls({exp: coeff})

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

    def reversed_var(self) -> LaurentPoly:
        """Substitute t -> t^(-1)."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {-k: v for k, v in self._c.items()}
        return out

    def shifted(self, k: int) -> LaurentPoly:
        """Multiply by t^k."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e + k: v for e, v in self._c.items()}
        return out

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
        lo_a, da = _dense(self._c)
        lo_b, db = _dense(divisor._c)
        q, r = _dense_divmod(da, db)
        if any(r):
            return None
        return _from_dense(q, lo_a - lo_b)

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


# Dense helpers for ordinary-polynomial division and gcd.  A Laurent
# polynomial t^lo * sum(c[i] t^i) is handled as (lo, [c0..cn]) with c0 != 0.


def _dense(c: Mapping[int, Fraction]) -> tuple[int, list[Fraction]]:
    lo, hi = min(c), max(c)
    return lo, [c.get(k, _F0) for k in range(lo, hi + 1)]


def _from_dense(coeffs: list[Fraction], shift: int) -> LaurentPoly:
    return LaurentPoly({shift + i: v for i, v in enumerate(coeffs) if v})


def _dense_trim(a: list[Fraction]) -> list[Fraction]:
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return a[:n]


def _dense_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = a[:]
    b = _dense_trim(b[:])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    lead = b[-1]
    q = [_F0] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        if not a[i]:
            continue
        f = a[i] / lead
        q[i - db] = f
        for j, bj in enumerate(b):
            a[i - db + j] -= f * bj
    return _dense_trim(q), _dense_trim(a)


def _dense_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _dense_trim(a[:]), _dense_trim(b[:])
    while b:
        _, r = _dense_divmod(a, b)
        a, b = b, r
        # keep coefficients small by renormalising to a monic remainder
        if b:
            lead = b[-1]
            b = [c / lead for c in b]
    lead = a[-1]
    return [c / lead for c in a]


# ---------------------------------------------------------------------------
# Rational functions


class RationalFunc:
    """Reduced quotient num/den of Laurent polynomials in t.

    The canonical form makes equality structural: the polynomial gcd of the
    pair is removed, the denominator is shifted so its lowest exponent is 0,
    and the denominator is made monic.  ``0/0`` is never constructed; a zero
    denominator is rejected eagerly.
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
        return self._den == LaurentPoly.one()

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
    lo_n, dn = _dense(num._c)
    lo_d, dd = _dense(den._c)
    g = _dense_gcd(dn, dd)
    if len(g) > 1:
        dn, _ = _dense_divmod(dn, g)
        dd, _ = _dense_divmod(dd, g)
    lead = dd[-1]
    if lead != 1:
        dn = [c / lead for c in dn]
        dd = [c / lead for c in dd]
    return _from_dense(dn, lo_n - lo_d), _from_dense(dd, 0)


def rf_reduce(num, den) -> RationalFunc:
    """Build the canonical reduced quotient num/den."""
    return RationalFunc(num, den)


# ---------------------------------------------------------------------------
# Truncated graded series


class GradedSeries:
    """Formal series in z, truncated beyond degree ``cutoff``.

    Coefficients are RationalFunc values keyed by degree 0..cutoff.  Binary
    operations silently truncate to the smaller cutoff; constructing either
    operand with ``strict=True`` turns a cutoff mismatch into an error
    instead, which is useful when auditing a computation.
    """

    __slots__ = ("_cutoff", "_coeffs", "_strict")

    def __init__(self, cutoff: int, coeffs: Mapping[int, object] | None = None,
                 strict: bool = False):
        if not isinstance(cutoff, int) or cutoff < 0:
            raise ValueError("cutoff must be a non-negative integer")
        self._cutoff = cutoff
        self._strict = bool(strict)
        c: dict[int, RationalFunc] = {}
        if coeffs:
            for d, v in coeffs.items():
                d = int(d)
                if d < 0 or d > cutoff:
                    raise ValueError(f"degree {d} outside 0..{cutoff}")
                rf = _as_rf(v)
                if rf is NotImplemented:
                    raise TypeError(f"bad coefficient type {type(v).__name__}")
                if rf:
                    c[d] = rf
        self._coeffs = c

    @classmethod
    def one(cls, cutoff: int, strict: bool = False) -> GradedSeries:
        return cls(cutoff, {0: 1}, strict)

    @classmethod
    def zero(cls, cutoff: int, strict: bool = False) -> GradedSeries:
        return cls(cutoff, None, strict)

    @property
    def cutoff(self) -> int:
        return self._cutoff

    @property
    def strict(self) -> bool:
        return self._strict

    def coeff(self, d: int) -> RationalFunc:
        return self._coeffs.get(d, RationalFunc.zero())

    def degrees(self) -> list[int]:
        return sorted(self._coeffs)

    def _merge_cutoff(self, other: GradedSeries) -> int:
        if (self._strict or other._strict) and self._cutoff != other._cutoff:
            raise CutoffMismatch(f"cutoffs {self._cutoff} != {other._cutoff}")
        return min(self._cutoff, other._cutoff)

    def __add__(self, other) -> GradedSeries:
        other = _as_series(other, self._cutoff)
        if other is NotImplemented:
            return NotImplemented
        n = self._merge_cutoff(other)
        out: dict[int, RationalFunc] = {}
        for d in range(n + 1):
            v = self.coeff(d) + other.coeff(d)
            if v:
                out[d] = v
        return GradedSeries(n, out, self._strict or other._strict)

    __radd__ = __add__

    def __neg__(self) -> GradedSeries:
        return GradedSeries(self._cutoff, {d: -v for d, v in self._coeffs.items()},
                            self._strict)

    def __sub__(self, other) -> GradedSeries:
        other = _as_series(other, self._cutoff)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> GradedSeries:
        other = _as_series(other, self._cutoff)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> GradedSeries:
        if isinstance(other, (int, Fraction, LaurentPoly, RationalFunc)):
            rf = _as_rf(other)
            return GradedSeries(self._cutoff,
                                {d: v * rf for d, v in self._coeffs.items()},
                                self._strict)
        if not isinstance(other, GradedSeries):
            return NotImplemented
        n = self._merge_cutoff(other)
        out: dict[int, RationalFunc] = {}
        for da, va in self._coeffs.items():
            if da > n:
                continue
            for db, vb in other._coeffs.items():
                d = da + db
                if d > n:
                    continue
                s = out.get(d, RationalFunc.zero()) + va * vb
                if s:
                    out[d] = s
                else:
                    out.pop(d, None)
        return GradedSeries(n, out, self._strict or other._strict)

    __rmul__ = __mul__

    def __truediv__(self, other) -> GradedSeries:
        if isinstance(other, (int, Fraction, LaurentPoly, RationalFunc)):
            rf = _as_rf(other)
            return self * (RationalFunc.one() / rf)
        return NotImplemented

    def truncate(self, cutoff: int) -> GradedSeries:
        return GradedSeries(cutoff,
                            {d: v for d, v in self._coeffs.items() if d <= cutoff},
                            self._strict)

    def adams(self, k: int) -> GradedSeries:
        """Substitute t -> t^k inside every coefficient and z -> z^k.

        Terms pushed beyond the cutoff are dropped; this is the substitution
        underlying the plethystic calculus.
        """
        if not isinstance(k, int) or k < 1:
            raise ValueError("substitution power must be a positive integer")
        out = {d * k: v.substitute_power(k)
               for d, v in self._coeffs.items() if d * k <= self._cutoff}
        return GradedSeries(self._cutoff, out, self._strict)

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


def _as_series(x, cutoff: int) -> GradedSeries:
    if isinstance(x, GradedSeries):
        return x
    if isinstance(x, (int, Fraction, LaurentPoly, RationalFunc)):
        return GradedSeries(cutoff, {0: x})
    return NotImplemented


def log_coeffs(f: Sequence, zero) -> list:
    """Coefficients of log f for a series f with f[0] = 1; index 0 holds ``zero``.

    Solves (log f)' f = f' triangularly: M_n = n L_n satisfies
    M_n = n f_n - sum_{0<i<n} M_i f_{n-i}.  That is O(n^2) ring operations
    on Fraction or RationalFunc coefficients.
    """
    m = [zero] * len(f)
    for n in range(1, len(f)):
        acc = f[n] * n
        for i in range(1, n):
            if m[i] and f[n - i]:
                acc = acc - m[i] * f[n - i]
        m[n] = acc
    return [zero] + [m[n] / n for n in range(1, len(f))]


def exp_coeffs(a: Sequence, one) -> list:
    """Coefficients of exp a for a series a with a[0] = 0; index 0 holds ``one``.

    Solves E' = a' E triangularly, n E_n = sum_{0<k<=n} k a_k E_{n-k}.  That
    is O(n^2) ring operations on Fraction or RationalFunc coefficients.
    """
    ka = [c * k for k, c in enumerate(a)]
    exp = [one]
    for n in range(1, len(a)):
        acc = one - one
        for k in range(1, n + 1):
            if ka[k] and exp[n - k]:
                acc = acc + ka[k] * exp[n - k]
        exp.append(acc / n)
    return exp


def series_exp(s: GradedSeries) -> GradedSeries:
    """exp of a series with zero constant term, exact modulo z^(cutoff+1)."""
    if s.coeff(0):
        raise BadConstantTerm("series_exp needs constant term 0")
    coeffs = exp_coeffs([s.coeff(d) for d in range(s.cutoff + 1)], RationalFunc.one())
    return GradedSeries(s.cutoff, dict(enumerate(coeffs)), s.strict)


def series_log(s: GradedSeries) -> GradedSeries:
    """log of a series with constant term 1, exact modulo z^(cutoff+1)."""
    if s.coeff(0) != RationalFunc.one():
        raise BadConstantTerm("series_log needs constant term 1")
    coeffs = log_coeffs([s.coeff(d) for d in range(s.cutoff + 1)], RationalFunc.zero())
    return GradedSeries(s.cutoff, dict(enumerate(coeffs)), s.strict)
