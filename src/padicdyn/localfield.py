"""Exact and capped-precision arithmetic in Q_p and small explicit extensions.

Two coefficient backends sit behind one element interface:

* ``ExactField`` -- elements wrap exact rationals tagged with a prime.
  Valuations are always exact.  This is the oracle backend and the default
  wherever Newton polygons need exactly known valuations.
* ``CappedField`` -- elements are cosets ``p^v * unit + O(p^(v+A))`` with a
  relative-precision cap ``A``.  Arithmetic never claims more precision
  than the standard propagation rules allow (add: min of absolute
  precisions, mul: valuations add, relative precisions take the min).
  An element that cancels down to ``O(p^k)`` is the coset of valuation
  k and relative precision 0, so absolute precision k: +, * and / apply
  to it the rule they apply to any coset.  It is indistinguishable from
  zero, so operations that need its exact valuation raise instead of
  guessing.

Extensions are towers of explicit Eisenstein or unramified stages of total
degree at most 8, built one stage at a time by ``ExtensionField``.  All
values are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from . import config
from .errors import DomainError, InternalError, PrecisionError, UsageError

MAX_TOWER_DEGREE = 8


def _vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of integer zero")
    v = 0
    while n % p == 0:
        # strip p, p^2, p^4, ... while they divide: large valuations
        # cost O(log v) divisions, not v
        q, k = p, 1
        while n % q == 0:
            n //= q
            v += k
            q, k = q * q, 2 * k
    return v


def _power(base, n: int, mul=operator.mul):
    """base^n for n >= 1 under the product mul, by squaring and
    multiplying.  The first factor is taken as it is: 1 * x is x for
    every element and series, since no coefficient has more relative
    precision than 1 and exact zeros add nothing to a product."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if not n:
            return result
        base = mul(base, base)


class Valuation:
    """An additive valuation value, normalized so v(p) = 1.

    ``value is None`` encodes +infinity (the exact zero element).
    ``exact=False`` marks a lower bound -- "the valuation is at least
    this" -- which is all a capped element indistinguishable from zero
    can report.  Callers that need an exact valuation must branch on
    ``exact``.
    """

    __slots__ = ("value", "exact")

    def __init__(self, value, exact: bool = True):
        # a Fraction is kept as it is: ``value`` is always a Fraction, so
        # that the callers' ``/`` stays exact
        self.value = (value if value is None or type(value) is Fraction
                      else Fraction(value))
        self.exact = bool(exact)

    @classmethod
    def infinite(cls) -> "Valuation":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def as_fraction(self) -> Fraction:
        if self.value is None:
            raise PrecisionError("valuation is infinite")
        return self.value

    @classmethod
    def least(cls, vals) -> "Valuation":
        """The minimum of finite valuations, infinite if there are none.

        It is exact unless some lower bound lies strictly below every
        exact value; a bound equal to the exact minimum keeps it exact.
        """
        return cls._least_pairs((v.value, v.exact) for v in vals
                                if v.value is not None)

    @classmethod
    def _least_pairs(cls, pairs) -> "Valuation":
        """``least`` over (value, exact) pairs of finite values: the one
        home of its rule, which ``series.gauss_norm`` shares."""
        exact, floors = [], []
        for value, known in pairs:
            (exact if known else floors).append(value)
        if floors and (not exact or min(floors) < min(exact)):
            return cls(min(floors), exact=False)
        return cls(min(exact)) if exact else cls(None)

    @staticmethod
    def _key(x):
        if isinstance(x, Valuation):
            x = x.value
        return (1, 0) if x is None else (0, x)

    def __lt__(self, other):
        return self._key(self) < self._key(other)

    def __le__(self, other):
        return self._key(self) <= self._key(other)

    def __gt__(self, other):
        return self._key(self) > self._key(other)

    def __ge__(self, other):
        return self._key(self) >= self._key(other)

    def __eq__(self, other):
        if isinstance(other, (Valuation, int, Fraction)):
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __add__(self, other):
        exact = self.exact
        if isinstance(other, Valuation):
            exact = exact and other.exact
            other = other.value
        if self.value is None or other is None:
            return Valuation(None)
        if not isinstance(other, (int, Fraction)):
            other = Fraction(other)
        return Valuation(self.value + other, exact)

    __radd__ = __add__

    def __mul__(self, k):
        if self.value is None:
            return Valuation(None)
        if not isinstance(k, (int, Fraction)):
            k = Fraction(k)
        return Valuation(self.value * k, self.exact)

    __rmul__ = __mul__

    def __str__(self):
        if self.value is None:
            return "+inf"
        text = str(self.value)
        return text if self.exact else ">=" + text

    def __repr__(self):
        return f"Valuation({self})"


# ---------------------------------------------------------------------------
# base-field elements
# ---------------------------------------------------------------------------


class _Element:
    """Subtraction, equality, reflected division, inverses and powers as
    every element class derives them from its own +, unary -, *, / and
    ``_coerce``; ExactElement and ExtElement override some."""

    __slots__ = ()
    __hash__ = None

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()

    def inverse(self):
        return self.field.one() / self

    def __pow__(self, n: int):
        if n > 0:
            return _power(self, n)
        return _power(self.inverse(), -n) if n else self.field.one()


class ExactElement(_Element):
    """An exact rational viewed inside Q_p.  The oracle backend."""

    __slots__ = ("field", "value")

    def __init__(self, field: "ExactField", value):
        self.field = field
        self.value = value if type(value) is Fraction else Fraction(value)

    def _coerce(self, other):
        if isinstance(other, ExactElement):
            if other.field is not self.field and other.field != self.field:
                raise UsageError("operands belong to different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return ExactElement(self.field, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ExactElement(self.field, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ExactElement(self.field, self.value - other.value)

    def __neg__(self):
        return ExactElement(self.field, -self.value)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ExactElement(self.field, self.value * other.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError("division by exact zero")
        return ExactElement(self.field, self.value / other.value)

    def __pow__(self, n: int):
        return ExactElement(self.field, self.value ** n)

    def __hash__(self):
        return hash((self.field, self.value))

    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_exact_zero(self) -> bool:
        return self.value == 0

    def valuation(self) -> Valuation:
        if self.value == 0:
            return Valuation.infinite()
        p = self.field.p
        return Valuation(_vp_int(self.value.numerator, p)
                         - _vp_int(self.value.denominator, p))

    def __repr__(self):
        return f"{self.value} (p={self.field.p})"


class PadicElement(_Element):
    """A coset ``p^v * unit + O(p^(v+rel))`` in Q_p.

    ``unit == 0`` encodes a zero: exactly zero when ``v is None``, or
    ``O(p^v)``, known to vanish modulo p^v, with ``rel == 0`` otherwise.
    """

    __slots__ = ("field", "v", "unit", "rel")

    def __init__(self, field, v, unit, rel):
        self.field = field
        self.v = v
        self.unit = unit
        self.rel = rel

    # -- constructors ------------------------------------------------------

    @classmethod
    def _zero(cls, field, floor):
        return cls(field, floor, 0, 0)

    @classmethod
    def exact_zero(cls, field):
        return cls(field, None, 0, 0)

    @classmethod
    def _make(cls, field, v, unit, rel):
        """p^v unit + O(p^(v + rel)) for any integer unit: reduced modulo
        p^rel, then normalized; an O(p^(v + rel)) zero if it vanishes."""
        if rel <= 0:
            return cls._zero(field, v + rel)
        p = field.p
        unit %= p ** rel
        if unit == 0:
            return cls._zero(field, v + rel)
        s = _vp_int(unit, p)
        if s:   # s < rel, since the unit is nonzero modulo p^rel
            unit //= p ** s
            rel -= s
            v += s
        return cls(field, v, unit, rel)

    @classmethod
    def from_rational(cls, field, q) -> "PadicElement":
        """q, an int or anything ``Fraction`` reads, to the field's cap;
        an int is taken as it is, with no Fraction made."""
        if type(q) is int:
            num, den = q, 1
        else:
            q = Fraction(q)
            num, den = q.numerator, q.denominator
        if num == 0:
            return cls.exact_zero(field)
        p, rel = field.p, field.prec
        vn = _vp_int(num, p)
        num //= p ** vn
        if den == 1:
            return cls._make(field, vn, num, rel)
        vd = _vp_int(den, p)
        return cls._make(field, vn - vd,
                         num * pow(den // p ** vd, -1, p ** rel), rel)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        """True when the element is indistinguishable from zero."""
        return self.unit == 0

    @property
    def is_exact_zero(self) -> bool:
        return self.unit == 0 and self.v is None

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicElement):
            if other.field is not self.field and other.field != self.field:
                raise UsageError("operands belong to different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return PadicElement.from_rational(self.field, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self, other
        if a.is_exact_zero:
            return b
        if b.is_exact_zero:
            return a
        # an O(p^k) zero is the coset of unit 0, v = k and rel = 0
        p = self.field.p
        m = min(a.v, b.v)
        return PadicElement._make(
            self.field, m, a.unit * p ** (a.v - m) + b.unit * p ** (b.v - m),
            min(a.v + a.rel, b.v + b.rel) - m)

    __radd__ = __add__

    def __neg__(self):
        if self.unit == 0:
            return self
        return PadicElement(self.field, self.v,
                            self.field.p ** self.rel - self.unit, self.rel)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self, other
        if a.is_exact_zero or b.is_exact_zero:
            return PadicElement.exact_zero(self.field)
        return PadicElement._make(self.field, a.v + b.v, a.unit * b.unit,
                                  min(a.rel, b.rel))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_exact_zero:
            raise ZeroDivisionError("division by exact zero")
        if other.unit == 0:
            raise PrecisionError(
                "insufficient precision: divisor indistinguishable from zero")
        if self.is_exact_zero:
            return self
        rel = min(self.rel, other.rel)
        return PadicElement._make(
            self.field, self.v - other.v,
            self.unit * pow(other.unit, -1, self.field.p ** rel), rel)

    # _Element's, repeated here for ``perfbench/tracing.py`` to count
    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    # -- inspection --------------------------------------------------------

    def valuation(self) -> Valuation:
        # an O(p^v) zero gives its floor, the exact zero (v None) infinity
        return Valuation(self.v, exact=self.unit != 0 or self.v is None)

    def digits(self) -> list:
        """Base-p digits of the unit part, lowest first, one per known digit."""
        if self.unit == 0:
            return []
        out, u, p = [], self.unit, self.field.p
        for _ in range(self.rel):
            u, r = divmod(u, p)
            out.append(r)
        return out

    def __repr__(self):
        p = self.field.p
        if self.unit == 0:
            if self.v is None:
                return f"0 (p={p})"
            return f"O({p}^{self.v})"
        return f"{self.unit}*{p}^{self.v} + O({p}^{self.v + self.rel})"


# ---------------------------------------------------------------------------
# base fields
# ---------------------------------------------------------------------------


class _BaseField:
    """Q_p itself: what ExactField and CappedField share.  The hot
    ``embed``, ``from_rational``, ``zero`` and ``one`` stay in each."""

    e = 1
    f_res = 1

    def __init__(self, p: int):
        if p < 2:
            raise UsageError(f"residue characteristic must be >= 2, got {p}")
        self.p = p

    @property
    def base_field(self):
        return self

    def residue(self, x) -> tuple:
        """Residue of an integral element, as a length-1 tuple."""
        x = self.embed(x)
        val = x.valuation()
        if val < 0:
            raise UsageError("residue of a non-integral element")
        if val > 0 or x.is_zero():
            return (0,)
        if isinstance(x, ExactElement):
            num, den = x.value.numerator, x.value.denominator
            return ((num * pow(den, -1, self.p)) % self.p,)
        return (x.unit % self.p,)

    def __eq__(self, other):
        return self is other or (isinstance(other, _BaseField)
                                 and other._key() == self._key())

    def __hash__(self):
        return hash(self._key())


class ExactField(_BaseField):
    """Q_p modelled by exact rationals; valuations are always exact."""

    backend = "exact"

    def _key(self):
        return ("exact", self.p)

    def from_rational(self, q) -> ExactElement:
        return ExactElement(self, q)

    def zero(self):
        return ExactElement(self, 0)

    def one(self):
        return ExactElement(self, 1)

    def embed(self, x):
        if isinstance(x, ExactElement):
            if x.field is not self and x.field != self:
                raise UsageError("element of a different field")
            return x
        if isinstance(x, (PadicElement, ExtElement)):
            raise UsageError("element of a different field")
        return self.from_rational(x)

    def __repr__(self):
        return f"ExactField(p={self.p})"


class CappedField(_BaseField):
    """Q_p with a relative-precision cap on every element."""

    backend = "capped"

    def __init__(self, p: int, prec: int):
        super().__init__(p)
        if prec < 1:
            raise UsageError("precision cap must be >= 1")
        self.prec = prec
        self._powers = [1]
        self._logs = {1: 0}     # bit length of p^k -> k

    def _key(self):
        return ("capped", self.p, self.prec)

    def powers(self, top: int) -> tuple:
        """(pw, logs): the field's table pw = [1, p, p^2, ...] through at
        least p^top, and logs, which maps the bit length of each p^k in it
        to k (p >= 2, so no two powers share a bit length).

        The table grows into a new list, never in place, so a caller in
        another thread holding the old one still reads a correct table.
        """
        pw = self._powers
        if len(pw) <= top:
            pw = list(pw)
            while len(pw) <= top:
                pw.append(pw[-1] * self.p)
                self._logs[pw[-1].bit_length()] = len(pw) - 1
            self._powers = pw
        return pw, self._logs

    def from_rational(self, q) -> PadicElement:
        return PadicElement.from_rational(self, q)

    def zero(self):
        return PadicElement.exact_zero(self)

    def one(self):
        return PadicElement.from_rational(self, 1)

    def embed(self, x):
        if isinstance(x, PadicElement):
            if x.field is not self and x.field != self:
                raise UsageError("element of a different field")
            return x
        if isinstance(x, (ExactElement, ExtElement)):
            raise UsageError("element of a different field")
        return self.from_rational(x)

    def __repr__(self):
        return f"CappedField(p={self.p}, prec={self.prec})"


def field_for(p: int, backend: str = "exact", prec: int = 24):
    """Convenience constructor used by the CLI."""
    if backend == "exact":
        return ExactField(p)
    if backend == "capped":
        return CappedField(p, prec)
    raise UsageError(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# polynomials over a field (coefficient lists, lowest degree first)
# ---------------------------------------------------------------------------


def poly_eval(coeffs, x):
    """Evaluate a coefficient list (lowest first) at x by Horner.  At a
    point of one stage over CappedField, with two coefficients or more
    from that field, Horner runs on integers (``_capped_stage_eval``);
    every other point, an exact stage's included, takes the element
    loop."""
    ring = x.field
    if type(x) is ExtElement:
        sub = ring.subfield
        if type(sub) is CappedField and len(coeffs) > 1 and all(
                type(c) is PadicElement and c.field is sub for c in coeffs):
            return _capped_stage_eval(coeffs, x)
    acc = ring.embed(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * x + ring.embed(c)
    return acc


def _over_common(values) -> tuple:
    """(r, D) for a list of rationals: integer numerators over D, the lcm
    of the denominators (the exact series form at scale 1 is (r, D, 1))."""
    den = math.lcm(*[q.denominator for q in values])
    return [q.numerator * (den // q.denominator) for q in values], den


def _capped_stage_eval(coeffs, x):
    """``poly_eval`` of CappedField elements at x in a stage E over
    CappedField, on integers.  The accumulator lists its coordinates that
    are not exact zeros as (i, r, v, A): coordinate i is r p^e, e one
    exponent for all, with valuation v and absolute precision A, and r
    reduced modulo p^(A - e).  Each step multiplies by x at the exponent
    e plus x's least valuation, a product's precision the least of
    A_i + v_j and v_i + A_j; adds the next coefficient into slot 0; and
    folds E's defining polynomial down from the top slot, each slot
    reduced before it folds.  A slot's precision is the least over its
    terms, in any order, and exact zeros add nothing, the element rules,
    so each slot reduced once gives the element the element loop gives,
    digit for digit."""
    E = x.field
    n, sub = E.degree, E.subfield
    p, top = sub.p, 2 * n - 1
    # a slot's A - e is rarely above two caps; past the table, p ** d
    pw = sub.powers(2 * sub.prec)[0]
    xs = [(j, c.unit, c.v, c.v + c.rel)
          for j, c in enumerate(x.vec) if c.v is not None]
    lx = min([v for _, _, v, _ in xs], default=0)
    xs = [(j, u * p ** (v - lx), v, A) for j, u, v, A in xs]
    # validation makes every stage coefficient integral: values at p^0
    gs = [(i, g.unit * p ** g.v, g.v, g.v + g.rel)
          for i, g in enumerate(E.stage_coeffs) if g.v is not None]
    c = coeffs[-1]
    e = 0 if c.v is None else c.v
    acc = [] if c.v is None else [(0, c.unit, c.v, c.v + c.rel)]
    for c in reversed(coeffs[:-1]):
        conv, prec = [0] * top, [None] * top
        for i, ra, va, Aa in acc:
            for j, b, vb, Ab in xs:
                k, t, s = i + j, Aa + vb, va + Ab
                conv[k] += ra * b
                if s < t:
                    t = s
                if prec[k] is None or t < prec[k]:
                    prec[k] = t
        e += lx
        if c.v is not None:
            if c.v < e:
                conv = [v * p ** (e - c.v) for v in conv]
                e = c.v
            conv[0] += c.unit * p ** (c.v - e) if c.v > e else c.unit
            A = c.v + c.rel
            if prec[0] is None or A < prec[0]:
                prec[0] = A
        acc, lo = [], None
        for k in range(top - 1, -1, -1):
            A = prec[k]
            if A is None:
                continue
            d = A - e
            r = conv[k] % (pw[d] if d < len(pw) else p ** d) if d else 0
            v = A if not r else e if r % p else e + _vp_int(r, p)
            if k < n:
                acc.append((k, r, v, A))
                lo = v if lo is None or v < lo else lo
                continue
            for i, g, vg, Ag in gs:
                t, s = A + vg, v + Ag
                if s < t:
                    t = s
                conv[k - n + i] -= r * g
                if prec[k - n + i] is None or t < prec[k - n + i]:
                    prec[k - n + i] = t
        if lo is not None and lo > e:
            acc = [(i, r // p ** (lo - e), v, A) for i, r, v, A in acc]
            e = lo
    vec = [PadicElement(sub, None, 0, 0)] * n
    for i, r, v, A in acc:
        vec[i] = PadicElement(sub, v, r // p ** (v - e), A - v)
    return ExtElement(E, tuple(vec))


def poly_mul(a, b):
    """Schoolbook product of two coefficient lists (lowest first), each
    slot from its first product on: exact zeros add nothing."""
    xs = [(i, x) for i, x in enumerate(a) if not x.is_exact_zero]
    ys = [(j, y) for j, y in enumerate(b) if not y.is_exact_zero]
    out = [None] * (len(a) + len(b) - 1)
    for i, x in xs:
        for j, y in ys:
            out[i + j] = x * y if out[i + j] is None else out[i + j] + x * y
    zero = a[0].field.zero()
    return [zero if c is None else c for c in out]


def _deflate(coeffs, root):
    """Quotient of coeffs (lowest first) by x - root, remainder dropped."""
    quot = [coeffs[-1]]
    for c in reversed(coeffs[1:-1]):
        quot.append(c + quot[-1] * root)
    return quot[::-1]


def poly_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def _poly_degree(coeffs):
    for i in range(len(coeffs) - 1, -1, -1):
        if not coeffs[i].is_zero():
            return i
    return -1


def _poly_divmod(num, den):
    """Division with remainder over a field; leading zeros are stripped."""
    num = list(num)
    dd = _poly_degree(den)
    if dd < 0:
        raise ZeroDivisionError("polynomial division by zero")
    lead = den[dd]
    quot = [num[0] * 0 for _ in range(max(len(num) - dd, 1))]
    for k in range(_poly_degree(num), dd - 1, -1):
        c = num[k]
        if c.is_exact_zero:
            continue
        q = c / lead
        quot[k - dd] = q
        for i in range(dd + 1):
            num[k - dd + i] = num[k - dd + i] - q * den[i]
    return quot, num[:dd] if dd > 0 else [num[0] * 0]


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------

_NEWTON_BUDGET = 64


def _rationals(x) -> list:
    """The rationals an element over an ExactField is made of: its value,
    or its coordinates' on a stage or a tower."""
    if isinstance(x, ExactElement):
        return [x.value]
    return [q for c in x.vec for q in _rationals(c)]


def hensel_lift(g, x0, target_precision):
    """Refine a simple approximate root of g by Newton iteration.

    ``g`` is a coefficient list (lowest first) over the field of ``x0``.
    Requires the simple-root condition v(g(x0)) > 2 v(g'(x0)); each step
    then doubles the number of correct digits.  Returns x with
    v(g(x)) >= target_precision and x congruent to x0 modulo the initial
    separation.  Once g(x) is an O(p^k) zero with k below the target,
    no step can refine x, and it raises PrecisionError.  Over an
    ExactField each iterate's rationals are held to
    ``PADICDYN_MAX_COEFF_BITS`` (``config.check_coeff_bits``): past it,
    BudgetError.

    When x0 and every coefficient of g, all in one stage, have exact
    zeros above coordinate 0, the loop runs in the subfield on
    coordinate 0 and the root is embedded.  Stage arithmetic on such
    elements is the subfield's on coordinate 0 (products skip exact
    zeros, the valuation reads coordinate 0), so the root is the same
    element.
    """
    E = x0.field
    if type(x0) is ExtElement and all(
            type(c) is ExtElement and c.field is E and
            all(a.is_exact_zero for a in c.vec[1:]) for c in [x0, *g]):
        return E.embed(_newton([c.vec[0] for c in g], x0.vec[0],
                               target_precision))
    return _newton(g, x0, target_precision)


def _newton(g, x0, target_precision):
    """``hensel_lift``'s Newton loop, in the field of x0."""
    gp = poly_derivative(g)
    fx = poly_eval(g, x0)
    vf = fx.valuation()
    vfp = poly_eval(gp, x0).valuation()
    if vf.is_infinite:
        return x0
    if vfp.is_infinite or not vfp.exact or not vf > 2 * vfp.as_fraction():
        raise DomainError("not a simple root at this precision")
    target = Fraction(target_precision)
    exact = x0.field.backend == "exact"
    x = x0
    for _ in range(_NEWTON_BUDGET):
        if vf >= target:
            return x
        if not vf.exact:
            raise PrecisionError(
                "target precision exceeds the working precision")
        x = x - fx / poly_eval(gp, x)
        if exact:
            # exact iterates keep every digit, so their size can outgrow
            # any budget before the target is met: BudgetError, exit 3
            config.check_coeff_bits(_rationals(x))
        fx = poly_eval(g, x)
        vf = fx.valuation()
    raise InternalError("Newton iteration failed to converge")


# ---------------------------------------------------------------------------
# residue fields F_{p^f} (f <= 4), used for conjugate enumeration
# ---------------------------------------------------------------------------


class ResidueField:
    """F_{p^f} presented as F_p[x] modulo a fixed irreducible polynomial.

    Elements are int tuples of length f, lowest degree first.
    """

    def __init__(self, p: int, modulus: list):
        self.p = p
        self.modulus = tuple(m % p for m in modulus)
        self.f = len(modulus) - 1

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def scalar(self, k, a):
        return tuple((k * x) % self.p for x in a)

    def mul(self, a, b):
        conv = [0] * (2 * self.f - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] = (conv[i + j] + x * y) % self.p
        # reduce modulo the monic modulus
        for k in range(len(conv) - 1, self.f - 1, -1):
            c = conv[k]
            if c:
                for i in range(self.f):
                    conv[k - self.f + i] = (conv[k - self.f + i]
                                            - c * self.modulus[i]) % self.p
                conv[k] = 0
        return tuple(conv[: self.f])

    def poly_eval(self, coeffs, x):
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def is_zero(self, a):
        return not any(a)


def _fp_poly_irreducible(coeffs: list, p: int) -> bool:
    """Irreducibility of a monic polynomial g over F_p, lowest degree
    first, by Ben-Or's test: g of degree n is irreducible iff
    gcd(x^(p^i) - x, g) = 1 for every i <= n / 2.  Each x^(p^i) is the
    p-th power of the one before in F_p[x] / g, by squaring and
    multiplying (``_power``), so the cost grows with log p, not p."""
    n = len(coeffs) - 1
    if n <= 1:
        return n == 1
    F = ResidueField(p, coeffs)
    x = (0, 1) + (0,) * (n - 2)
    h = x
    for _ in range(n // 2):
        h = _power(h, p, F.mul)
        if len(_fp_gcd([a - b for a, b in zip(h, x)], coeffs, p)) > 1:
            return False
    return True


def _fp_gcd(a: list, b: list, p: int) -> list:
    """A gcd over F_p of two polynomials, lowest degree first, with no
    trailing zeros; [] when both are zero."""
    def trim(c):
        c = [x % p for x in c]
        while c and not c[-1]:
            c.pop()
        return c
    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q, k = a[-1] * inv, len(a) - len(b)
            a = trim(a[:k] + [x - q * y for x, y in zip(a[k:], b)])
        a, b = b, a
    return a


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------


class ExtensionField:
    """One Eisenstein or unramified stage on top of a base field or tower.

    The defining polynomial is monic; ``stage_coeffs`` holds its non-leading
    coefficients in the subfield, lowest degree first.
    """

    backend = property(lambda self: self.base_field.backend)

    def __init__(self, subfield, coeffs, kind: str):
        if kind not in ("eisenstein", "unramified"):
            raise UsageError(f"unknown stage kind {kind!r}")
        self.subfield = subfield
        self.kind = kind
        self.stage_coeffs = tuple(subfield.embed(c) for c in coeffs)
        self.degree = len(self.stage_coeffs)
        if self.degree < 2:
            raise UsageError("stage degree must be >= 2")
        self.tower_degree = self.degree * getattr(subfield, "tower_degree", 1)
        if self.tower_degree > MAX_TOWER_DEGREE:
            raise UsageError(
                f"tower degree {self.tower_degree} exceeds {MAX_TOWER_DEGREE}")
        self._images = {}   # precision -> generator images (``conjugates``)
        if kind == "eisenstein":
            self.e = subfield.e * self.degree
            self.f_res = subfield.f_res
            self._validate_eisenstein()
        else:
            self.e = subfield.e
            self.f_res = subfield.f_res * self.degree
            self._validate_unramified()

    @property
    def p(self) -> int:
        return self.base_field.p

    @property
    def base_field(self):
        return self.subfield.base_field

    def _validate_eisenstein(self):
        u = Fraction(1, self.subfield.e)
        v0 = self.stage_coeffs[0].valuation()
        if not (v0.exact and not v0.is_infinite and v0.as_fraction() == u):
            raise UsageError(
                "Eisenstein stage needs constant term of uniformizer valuation")
        for c in self.stage_coeffs[1:]:
            if c.valuation() < u:
                raise UsageError(
                    "Eisenstein stage needs positive non-leading valuations")

    def _validate_unramified(self):
        if self.subfield.f_res != 1:
            raise UsageError("unramified stages cannot be nested; "
                             "combine them into a single stage")
        red = []
        for c in self.stage_coeffs:
            if c.valuation() < 0:
                raise UsageError("unramified stage needs integral coefficients")
            red.append(self.subfield.residue(c)[0])
        red.append(1)
        if not _fp_poly_irreducible(red, self.p):
            raise UsageError(
                "unramified stage must reduce to an irreducible polynomial")
        self._reduced_modulus = red

    # -- element factories -------------------------------------------------

    def from_vector(self, entries) -> "ExtElement":
        entries = list(entries)
        if len(entries) != self.degree:
            raise UsageError("coefficient vector has the wrong length")
        return ExtElement(self, tuple(self.subfield.embed(c) for c in entries))

    def zero(self):
        return self.from_vector([0] * self.degree)

    def one(self):
        return self.from_vector([1] + [0] * (self.degree - 1))

    def generator(self):
        return self.from_vector([0, 1] + [0] * (self.degree - 2))

    def from_rational(self, q):
        return self.embed(q)

    def embed(self, x):
        if isinstance(x, ExtElement) and (x.field is self or x.field == self):
            return x
        x = self.subfield.embed(x)
        zero = self.subfield.zero()
        return ExtElement(self, (x,) + (zero,) * (self.degree - 1))

    # -- residues ----------------------------------------------------------

    def residue(self, x) -> tuple:
        """Image of an integral element in the residue field (int tuple)."""
        x = self.embed(x)
        if x.valuation() < 0:
            raise UsageError("residue of a non-integral element")
        if self.kind == "eisenstein":
            return self.subfield.residue(x.vec[0])
        return tuple(self.subfield.residue(c)[0] for c in x.vec)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, ExtensionField)
            and other.kind == self.kind
            and other.degree == self.degree
            and other.subfield == self.subfield
            and all((a - b).is_zero() for a, b in
                    zip(other.stage_coeffs, self.stage_coeffs)))

    def __hash__(self):
        return hash((self.kind, self.degree, self.subfield))

    def __repr__(self):
        return (f"ExtensionField({self.subfield!r}, degree={self.degree}, "
                f"{self.kind})")


class ExtElement(_Element):
    """Element of an ExtensionField: a coefficient vector over the subfield."""

    __slots__ = ("field", "vec")

    def __init__(self, field: ExtensionField, vec: tuple):
        self.field = field
        self.vec = vec

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, _Element)):
            return self.field.embed(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ExtElement(self.field,
                          tuple(a + b for a, b in zip(self.vec, other.vec)))

    __radd__ = __add__

    def __neg__(self):
        return ExtElement(self.field, tuple(-a for a in self.vec))

    def _reduce(self, conv):
        """Reduce a long coefficient list modulo the defining polynomial."""
        n = self.field.degree
        g = self.field.stage_coeffs
        terms = [(i, gi) for i, gi in enumerate(g) if not gi.is_exact_zero]
        for k in range(len(conv) - 1, n - 1, -1):
            c = conv[k]
            if not c.is_exact_zero:
                for i, gi in terms:
                    conv[k - n + i] = conv[k - n + i] - c * gi
        return conv[:n]

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        conv = poly_mul(self.vec, other.vec)
        return ExtElement(self.field, tuple(self._reduce(conv)))

    __rmul__ = __mul__

    def inverse(self):
        """Inverse modulo the defining polynomial, by extended Euclid."""
        if self.is_zero():
            raise PrecisionError(
                "insufficient precision: divisor indistinguishable from zero")
        sub = self.field.subfield
        one, zero = sub.one(), sub.zero()
        g = list(self.field.stage_coeffs) + [one]
        r0, r1 = g, list(self.vec)
        t0, t1 = [zero], [one]
        while _poly_degree(r1) > 0:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, [a - b for a, b in
                          itertools.zip_longest(t0, poly_mul(q, t1),
                                                fillvalue=zero)]
        if _poly_degree(r1) < 0:
            # every stage is irreducible: a remainder lost to precision
            raise PrecisionError(
                "insufficient precision: Euclid remainder indistinguishable "
                "from zero")
        c = r1[0]
        n = self.field.degree
        scaled = [tc / c for tc in t1]
        scaled += [zero] * max(0, n - len(scaled))
        return ExtElement(self.field, tuple(self._reduce(scaled)[:n]))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.vec)

    @property
    def is_exact_zero(self) -> bool:
        return all(c.is_exact_zero for c in self.vec)

    def valuation(self) -> Valuation:
        """min over the stage basis of v(c_i) + i/e on an Eisenstein stage
        and of v(c_i) on an unramified one; exact for both.  Each v(c_i)
        lies in (1/e)Z, so the minimum is taken over the integers
        v(c_i) e (+ i) and divided by e once, as ``series.gauss_norm``
        does."""
        e, step = self.field.e, self.field.kind == "eisenstein"
        pairs = []
        for i, c in enumerate(self.vec):
            v = c.valuation()
            if v.value is not None:
                pairs.append((v.value.numerator * (e // v.value.denominator)
                              + i * step, v.exact))
        least = Valuation._least_pairs(pairs)
        if least.value is None:
            return least
        return Valuation(Fraction(least.value.numerator, e), least.exact)

    def apply_root_map(self, root: "ExtElement") -> "ExtElement":
        """Image under the automorphism sending the stage generator to root."""
        return poly_eval(self.vec, root)

    def __repr__(self):
        return f"ExtElement({list(self.vec)!r})"


def _generator_images(E: ExtensionField, precision: int) -> tuple:
    """The roots of E's defining polynomial g, the generator first.

    Validation fixes every root's valuation: 1/e on an Eisenstein stage
    and 0 on an unramified one.  So once g is deflated to degree k, its
    roots are t * y with t the generator or 1 and y a unit root of
    h(y) = g_k(t y) / t^k.  Each y is lifted from the least residue root
    of h, found among few candidates: on an Eisenstein stage of degree e
    every root is gen * y with y^e = 1 modulo p, so among the e-th roots
    of unity of F_p, and on an unramified stage among the Frobenius
    images x^(p^i), i < n, of the generator's residue x, each the p-th
    power of the one before.
    """
    gen = E.generator()
    if not poly_eval([*E.stage_coeffs, E.subfield.one()], gen).is_zero():
        raise InternalError("generator does not satisfy its polynomial")
    g = [E.embed(c) for c in E.stage_coeffs] + [E.one()]
    if E.kind == "eisenstein":
        # the powers of an element of order q = gcd(e, p - 1), the first
        # ((p - 1) / q)-th power of 1, 2, 3, ... with q distinct powers
        t, rf, p = gen, ResidueField(E.p, [0, 1]), E.p
        q = math.gcd(E.degree, p - 1)
        powers = ({(pow(a, i * (p - 1) // q, p),) for i in range(q)}
                  for a in itertools.count(1))
        candidates = sorted(next(c for c in powers if len(c) == q))
    else:
        t, rf = E.one(), ResidueField(E.p, E._reduced_modulus)
        x, candidates = E.residue(gen), []
        for _ in range(1, E.degree):
            x = _power(x, E.p, rf.mul)
            candidates.append(x)
        candidates.sort()
    images, work = [gen], _deflate(g, gen)
    while len(work) > 2:
        h = [c * t ** i for i, c in enumerate(work)]
        # every root is t times a unit, so h's least valuation is that of
        # its leading coefficient t^k, unless precision has run out
        m = Valuation.least([c.valuation() for c in h])
        if not (m.exact and m == h[-1].valuation()
                and all(c.valuation().exact for c in work)):
            raise PrecisionError("cannot normalize root candidates")
        inverse = h[-1].inverse()
        h = [c * inverse for c in h]
        hbar = [E.residue(c) for c in h]
        r = next((r for r in candidates
                  if rf.is_zero(rf.poly_eval(hbar, r))), None)
        if r is None:
            raise DomainError("non-normal extension: no root in the field")
        hbar_prime = [rf.scalar(i, c) for i, c in enumerate(hbar)][1:]
        if rf.is_zero(rf.poly_eval(hbar_prime, r)):
            raise DomainError("non-normal extension: repeated residue root")
        y = hensel_lift(h, E.from_vector(r + (0,) * (E.degree - len(r))),
                        precision)
        images.append(t * y)
        work = _deflate(work, images[-1])
    # each quotient keeps g's leading 1, so the last root is -work[0]
    images.append(-work[0])
    return tuple(images)


def conjugates(E: ExtensionField, a, precision: int = 32):
    """Images of ``a`` under all base-fixing automorphisms of E.

    E must be a single-stage extension of degree <= 4 whose defining
    polynomial splits in E; the conjugates are obtained by sending the
    generator to each root.  Those roots, the generator's images, are
    found once per precision and kept on E, so the i-th conjugate of
    every element is its image under one automorphism sigma_i, the
    identity first: ``transport_check`` pairs conjugates by that order.
    The first conjugate is ``a`` itself: Horner at the generator only
    multiplies by an exact 1 and exact zeros.  Over a CappedField the
    roots are lifted to at most the cap, the digits its elements hold.
    """
    if isinstance(E.subfield, ExtensionField):
        raise UsageError("conjugates need a single-stage extension")
    if E.degree > 4:
        raise UsageError("conjugates support degree <= 4 only")
    if type(E.subfield) is CappedField:
        precision = min(precision, E.subfield.prec)
    a = E.embed(a)
    images = E._images.get(precision)
    if images is None:
        images = _generator_images(E, precision)
        # a new dict with the complete tuple, never one changed in place
        E._images = {**E._images, precision: images}
    return [a] + [a.apply_root_map(r) for r in images[1:]]
