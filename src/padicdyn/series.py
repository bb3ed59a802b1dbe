"""Truncated series in w = 1/z over a p-adic coefficient field.

Every series carries an explicit truncation order M ("known modulo w^M"),
and every ring operation computes the tightest sound truncation for its
result: min rule for sums, ord-shifted min rule for products.  n-th roots
of 1-units are taken by Newton iteration in the series ring.  General
reversion (``lagrange_invert``) is Newton iteration on the composition
identity; the Böttcher build does not use it, since its inverse series
solves a functional equation of its own (``boettcher``).  Disk norms and
pointwise evaluation come with rigorous tail bounds.

A series over ``CappedField`` is stored flat, as a triple (s, r, f): a
shift s, the integer representatives r_i = unit_i p^(v_i - s) reduced to
[0, p^(A_i - s)), and the interleaved list f = [A_0, v_0, A_1, v_1, ...]
of each coefficient's absolute precision and valuation (both infinite for
an exact zero, both the floor for an O(p^k) zero).  s is the least finite
v_i, 0 if there is none, so each series has one triple.  Every operation
works on triples with the precision rule of the element arithmetic, digit
for digit; element objects are built only when ``coeffs`` is read.
Unit inverses, and products of at least ``_SLOPED`` terms, take their dot
products on a line of integer slope t under the valuations,
v_i >= c + i t: each representative is carried as u_i p^(v_i - c - i t),
about as many digits as the precision where u_i p^(v_i - s) grows with
i, and the sums are mapped back exactly, so digits and precisions do not
change.  Over ``ExactField`` products and unit inverses run on integer
numerators over a common denominator.  Coefficients lie in one of these
two fields: no construction needs series over an extension (points in
extensions are handled by ``evaluate``), so ``TailSeries`` refuses other
fields.

Values are immutable; evaluating one series at many points concurrently
needs no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import add, floordiv, mul, sub

from .errors import DomainError, InternalError, PrecisionError, UsageError
from .localfield import (CappedField, ExactElement, ExactField, PadicElement,
                         Valuation, _vp_int, poly_eval)


@dataclass(frozen=True)
class DiskSpec:
    """A disk in the w-coordinate: |w| < p^(-eps).

    ``center`` is "inf" (disk about infinity in z, so w = 1/z) or "zero"
    (disk about 0, evaluated at w directly).
    """

    center: str
    eps: Fraction

    def __post_init__(self):
        if self.center not in ("inf", "zero"):
            raise UsageError("disk center must be 'inf' or 'zero'")
        object.__setattr__(self, "eps", Fraction(self.eps))


class TailSeries:
    """c_ord w^ord + ... + c_{M-1} w^{M-1} + O(w^M).

    The leading stored coefficient is nonzero (the constructor strips
    zeros); an all-zero series has ord == trunc and no coefficients.
    ``_flat`` holds the (s, r, f) triple of a capped series (see the
    module docstring) and is None over ``ExactField``, where ``_coeffs``
    holds the elements.
    """

    __slots__ = ("field", "ord", "trunc", "_flat", "_coeffs")

    def __init__(self, field, ord: int, coeffs, trunc: int):
        if not isinstance(field, (CappedField, ExactField)):
            raise UsageError("series coefficients must lie in an "
                             "ExactField or a CappedField")
        coeffs = [field.embed(c) for c in coeffs]
        if len(coeffs) > max(trunc - ord, 0):
            raise UsageError("more coefficients than the truncation allows")
        coeffs += [field.embed(0)] * (trunc - ord - len(coeffs))
        # only exactly-zero leading terms may be stripped; a capped
        # coefficient indistinguishable from zero stays stored, since
        # raising ord would overclaim precision downstream
        while coeffs and coeffs[0].is_exact_zero:
            coeffs.pop(0)
            ord += 1
        if not coeffs:
            ord = trunc
        self.field = field
        self.ord = ord
        self.trunc = trunc
        if isinstance(field, CappedField):
            self._flat = _capped_triple(field, coeffs)
            self._coeffs = None
        else:
            self._flat = None
            self._coeffs = tuple(coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _capped(cls, field, ord: int, flat, trunc: int) -> "TailSeries":
        """A capped series from the triple of its trunc - ord coefficients
        from w^ord: leading exact zeros stripped, the shift made the
        least finite valuation."""
        s, r, f = flat
        i = 0
        while i < len(r) and f[2 * i] == _INF:
            i += 1
        if i:
            ord, r, f = ord + i, r[i:], f[2 * i:]
        least = _least(f)
        if least != s:
            r = _scaled(field, r, s - least, 0)
        self = object.__new__(cls)
        self.field = field
        self.ord = ord if r else trunc
        self.trunc = trunc
        self._flat = (least, r, f)
        self._coeffs = None
        return self

    @classmethod
    def zero(cls, field, trunc: int):
        return cls(field, trunc, [], trunc)

    @classmethod
    def one(cls, field, trunc: int):
        return cls.from_polynomial(field, [1], trunc)

    @classmethod
    def w_power(cls, field, k: int, trunc: int):
        return cls.from_polynomial(field, [0] * k + [1], trunc)

    @classmethod
    def from_polynomial(cls, field, coeffs, trunc: int):
        """A polynomial in w, truncated (or zero-padded) to order trunc."""
        return cls(field, 0, list(coeffs)[:trunc], trunc)

    # -- inspection ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The stored coefficients as field elements; a capped series
        builds them on the first read."""
        if self._coeffs is None:
            s, r, f = self._flat
            self._coeffs = tuple(_element(self.field, s, x, f[2 * i],
                                          f[2 * i + 1])
                                 for i, x in enumerate(r))
        return self._coeffs

    def is_zero(self) -> bool:
        """True when every stored coefficient is indistinguishable from 0."""
        if self._flat is not None:
            return not any(self._flat[1])
        return all(c.is_zero() for c in self.coeffs)

    @property
    def is_exact_zero(self) -> bool:
        return self.ord >= self.trunc

    def coefficient(self, k: int):
        """The coefficient of w^k; k must be below the truncation order."""
        if k >= self.trunc:
            raise UsageError(f"coefficient {k} is beyond truncation "
                             f"{self.trunc}")
        if k < self.ord:
            return self.field.embed(0)
        i = k - self.ord
        if self._coeffs is None:
            s, r, f = self._flat
            return _element(self.field, s, r[i], f[2 * i], f[2 * i + 1])
        return self._coeffs[i]

    def replace_coefficient(self, k: int, value) -> "TailSeries":
        """Copy with the coefficient of w^k replaced (test harness hook)."""
        lo = min(self.ord, k)
        coeffs = [self.coefficient(i) for i in range(lo, self.trunc)]
        coeffs[k - lo] = self.field.embed(value)
        return TailSeries(self.field, lo, coeffs, self.trunc)

    def __eq__(self, other):
        if not isinstance(other, TailSeries):
            return NotImplemented
        if self.field != other.field or self.trunc != other.trunc:
            return False
        return agreement_order(self, other) >= self.trunc

    __hash__ = None

    def __repr__(self):
        terms = ", ".join(f"w^{self.ord + i}: {c!r}"
                          for i, c in enumerate(self.coeffs[:6]))
        return f"TailSeries([{terms}, ...] + O(w^{self.trunc}))"

    # -- ring operations -----------------------------------------------------

    def _check_field(self, other):
        if self.field != other.field:
            raise UsageError("series over different coefficient fields")

    def truncate(self, trunc: int) -> "TailSeries":
        if trunc >= self.trunc:
            return self
        n = max(trunc - self.ord, 0)
        if self._flat is not None:
            s, r, f = self._flat
            return TailSeries._capped(self.field, min(self.ord, trunc),
                                      (s, r[:n], f[:2 * n]), trunc)
        return TailSeries(self.field, min(self.ord, trunc), self.coeffs[:n],
                          trunc)

    def _padded(self, trunc: int) -> "TailSeries":
        """Zero-extend the claimed truncation: iteration state only.

        Newton-style loops refine a candidate whose high terms are not yet
        meaningful, so the inflated claim never escapes those loops.
        """
        if trunc <= self.trunc:
            return self.truncate(trunc)
        if self._flat is not None:
            s, r, f = self._flat
            k = trunc - self.trunc
            return TailSeries._capped(self.field, self.ord,
                                      (s, r + [0] * k, f + [_INF, _INF] * k),
                                      trunc)
        return TailSeries(self.field, self.ord, self.coeffs, trunc)

    def shifted(self, k: int) -> "TailSeries":
        """Multiplication by the exact monomial w^k."""
        if self._flat is not None:
            return TailSeries._capped(self.field, self.ord + k, self._flat,
                                      self.trunc + k)
        return TailSeries(self.field, self.ord + k, self.coeffs,
                          self.trunc + k)

    def spread(self, d: int) -> "TailSeries":
        """S(w^d): coefficient k moves to index d k, exact zeros between.

        S known modulo w^M makes S(w^d) known modulo w^(d M); each
        coefficient keeps its value and precision, so no product runs.
        """
        if d < 1:
            raise UsageError("spread needs d >= 1")
        if self._flat is not None:
            s, r, f = self._flat
            rr = [0] * (d * len(r))
            rr[::d] = r
            ff = [_INF] * (2 * d * len(r))
            ff[::2 * d] = f[::2]
            ff[1::2 * d] = f[1::2]
            return TailSeries._capped(self.field, d * self.ord, (s, rr, ff),
                                      d * self.trunc)
        coeffs = [self.field.embed(0)] * (d * len(self.coeffs))
        coeffs[::d] = self.coeffs
        return TailSeries(self.field, d * self.ord, coeffs, d * self.trunc)

    def _aligned(self, lo: int, trunc: int, s: int):
        """Representatives at shift s <= own shift, and precisions, of the
        capped coefficients of w^lo .. w^(trunc-1); lo <= ord."""
        own, r, f = self._flat
        front = min(self.ord, trunc) - lo
        n = max(trunc - self.ord, 0)
        scale = self.field.p ** (own - s)
        r = r[:n] if scale == 1 else [x * scale for x in r[:n]]
        return [0] * front + r, [_INF] * front + f[:2 * n:2]

    def _plus(self, other, op):
        """self + other (op = add) or self - other (op = sub)."""
        self._check_field(other)
        trunc = min(self.trunc, other.trunc)
        lo = min(self.ord, other.ord, trunc)
        if self._flat is not None:
            # the element rule: the sum of the representatives, known to
            # the lesser absolute precision
            s = min(self._flat[0], other._flat[0])
            ra, pa = self._aligned(lo, trunc, s)
            rb, pb = other._aligned(lo, trunc, s)
            return TailSeries._capped(
                self.field, lo, _reduced(self.field, s, map(op, ra, rb),
                                         map(min, pa, pb)), trunc)
        if op is sub:
            other = -other
        # below its order a series adds nothing
        return TailSeries(self.field, lo, [
            other.coefficient(k) if k < self.ord else self.coefficient(k)
            if k < other.ord else self.coefficient(k) + other.coefficient(k)
            for k in range(lo, trunc)], trunc)

    def __add__(self, other):
        if not isinstance(other, TailSeries):
            return NotImplemented
        return self._plus(other, add)

    def __sub__(self, other):
        if not isinstance(other, TailSeries):
            return NotImplemented
        return self._plus(other, sub)

    def __neg__(self):
        if self._flat is not None:
            s, r, f = self._flat
            return TailSeries._capped(
                self.field, self.ord,
                _reduced(self.field, s, [-x for x in r], f[::2]), self.trunc)
        return TailSeries(self.field, self.ord, [-c for c in self.coeffs],
                          self.trunc)

    def __mul__(self, other):
        if isinstance(other, TailSeries):
            self._check_field(other)
            trunc = min(self.trunc + other.ord, other.trunc + self.ord)
            if self.is_exact_zero or other.is_exact_zero:
                return TailSeries.zero(self.field, trunc)
            ord_ = self.ord + other.ord
            if self._flat is not None:
                return TailSeries._capped(
                    self.field, ord_, _capped_product(
                        self.field, self._flat, other._flat, trunc - ord_),
                    trunc)
            out = _exact_product(self.field, self.coeffs, other.coeffs,
                                 trunc - ord_)
            return TailSeries(self.field, ord_, out, trunc)
        return weighted_sum((self.field.embed(other),), (self,))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise UsageError("negative series powers are not supported")
        if n == 0:
            return TailSeries.one(self.field, self.trunc)
        # the first factor is taken as it is: no coefficient has more
        # relative precision than 1, so 1 * x is x, truncation included
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def derivative(self) -> "TailSeries":
        """Formal d/dw."""
        if self.is_exact_zero:
            return TailSeries.zero(self.field, max(self.trunc - 1, 0))
        start = max(self.ord, 1)
        skip = start - self.ord           # the constant term drops out
        ord_, trunc = max(self.ord - 1, 0), self.trunc - 1
        if self._flat is not None:
            # m * c, m = k embedded with relative precision prec: as no
            # coefficient has more, the precision is A + vp(m)
            s, r, f = self._flat
            p = self.field.p
            ms = range(start, self.trunc)
            precs = [A + _vp_int(m, p) for m, A in zip(ms, f[2 * skip::2])]
            return TailSeries._capped(
                self.field, ord_, _reduced(self.field, s, map(
                    mul, r[skip:], ms), precs), trunc)
        coeffs = [k * c for k, c in enumerate(self.coeffs[skip:], start)]
        return TailSeries(self.field, ord_, coeffs, trunc)

    # -- unit operations -----------------------------------------------------

    def invert_unit(self) -> "TailSeries":
        """Inverse of a series with constant term exactly 1."""
        if self.ord != 0 or not (self.coefficient(0)
                                 - self.field.embed(1)).is_zero():
            raise UsageError("inversion needs constant term 1; "
                             "callers normalize first")
        if self._flat is not None:
            return TailSeries._capped(self.field, 0, _capped_inverse(
                self.field, self._flat), self.trunc)
        inverse = _exact_inverse(self.field, self.coeffs)
        return TailSeries(self.field, 0, inverse, self.trunc)

    def nth_root(self, n: int) -> "TailSeries":
        """The unique n-th root with constant term 1, by Newton iteration.

        Requires constant term exactly 1 and n not divisible by the
        residue characteristic.
        """
        if n <= 0:
            raise UsageError("root index must be positive")
        if n % self.field.p == 0:
            raise DomainError("root not available: residue characteristic "
                              "divides index")
        if self.ord != 0 or not (self.coefficient(0)
                                 - self.field.embed(1)).is_zero():
            raise UsageError("n-th roots need constant term 1")
        M = self.trunc
        inv_n = Fraction(1, n)
        x = TailSeries.one(self.field, min(2, M))
        t = x.trunc
        # agreement with the root doubles per step, so refine at doubling
        # truncations; cost concentrates in the final full-order step.  A
        # residual that is only indistinguishable from zero still corrects
        # x: it replaces the exact zeros of the padding by O(p^k) zeros
        while True:
            xpow = (x ** (n - 1)).truncate(t)
            residual = (xpow * x).truncate(t) - self.truncate(t)
            if not residual.is_exact_zero:
                x = (x - residual * xpow.invert_unit() * inv_n).truncate(t)
            if t == M:
                break
            t = min(2 * t, M)
            x = x._padded(t)
        residual = (x ** n).truncate(M) - self
        if residual.is_zero():
            return x
        raise InternalError("series Newton iteration failed to converge")

    def _plus_constant(self, outer: "TailSeries", k: int) -> "TailSeries":
        """self + (outer's coefficient of w^k) w^0, for self.trunc > 0:
        only coefficient 0 changes (an exact zero below ord)."""
        if self._flat is None:
            c = outer.coefficient(k)
            if c.is_exact_zero:
                return self
            coeffs = list(self.coeffs)
            if self.ord == 0:
                coeffs[0] = coeffs[0] + c
            else:
                coeffs[:0] = [c] + [0] * (self.ord - 1)
            return TailSeries(self.field, 0, coeffs, self.trunc)
        so, ro, fo = outer._flat
        i = k - outer.ord
        if fo[2 * i] == _INF:
            return self
        s, r, f = self._flat
        low, p = min(s, so), self.field.p
        if s != low:
            r = [x * p ** (s - low) for x in r]
        r, f = [0] * self.ord + r, [_INF, _INF] * self.ord + f
        _, head, head_f = _reduced(self.field, low,
                                   [r[0] + ro[i] * p ** (so - low)],
                                   [min(f[0], fo[2 * i])])
        return TailSeries._capped(self.field, 0,
                                  (low, head + r[1:], head_f + f[2:]),
                                  self.trunc)

    def compose(self, inner: "TailSeries") -> "TailSeries":
        """self(inner(w)) for inner with ord >= 1, by Horner on a shrinking
        truncation.

        After step k the accumulator acc_k = sum_{j >= k} c_j inner^(j-k)
        is still to be multiplied by inner^k, of order >= k s with
        s = inner.ord, so only its coefficients below target - k s reach
        the result: acc_k is kept to that truncation, and the steps with
        k s >= target are skipped.  This is exact, digits and precision
        alike: coefficient j of a product depends only on the operands'
        coefficients up to j, and each truncation is the smaller of the
        full-order one and target - k s, so the final truncation is the
        full-order one.  A series of order d as inner leaves about 1/d of
        the steps.  General composition stays Horner: summed by baby and
        giant steps (as ``boettcher.compose_through_poly`` sums through f)
        random capped compositions come out with other precisions.
        """
        self._check_field(inner)
        if not inner.is_exact_zero and inner.ord < 1:
            raise UsageError("composition needs inner order >= 1")
        target = min(self.trunc * max(inner.ord, 1), inner.trunc
                     + max(self.ord - 1, 0) * max(inner.ord, 1))
        s = inner.ord   # 0 only for an exact zero O(w^0): nothing shrinks
        steps = min(self.trunc, -(-target // s)) if s else self.trunc
        acc = TailSeries.zero(self.field, target)
        for k in range(steps - 1, -1, -1):
            acc = (acc * inner).truncate(target - k * s)
            if k >= self.ord and acc.trunc:
                acc = acc._plus_constant(self, k)
        return acc


# ---------------------------------------------------------------------------
# coefficient kernels: products and unit inverses of coefficient tuples
# ---------------------------------------------------------------------------

_INF = math.inf   # precision and valuation of an exact zero


def _least(f) -> int:
    """The shift of a capped triple: the least finite valuation in its
    [A, v] list (an O(p^k) zero's floor counts), 0 if there is none."""
    v = min(f[1::2], default=_INF)
    return 0 if v == _INF else v


def _scaled(field, xs, e: int, t: int) -> list:
    """The integers x_i p^(e + i t); each negative power must divide its
    x_i."""
    n = len(xs)
    pw, _ = field.powers(max(abs(e), abs(e + t * (n - 1))))
    ks = range(e, e + t * n, t) if t else repeat(e, n)
    return [x * pw[k] if k >= 0 else x // pw[-k] for x, k in zip(xs, ks)]


def _reduced(field, s, values, precs):
    """The triple of the cosets values[k] p^s + O(p^precs[k]).

    Each value is reduced mod p^(A - s) and its valuation found; a value
    that vanishes there is an O(p^A) zero, and an infinite precision
    (whose value is always 0) an exact zero.  This is what
    ``PadicElement._make`` does per element.  A reduced value x != 0 has
    valuation below A - s, so gcd(x, p^(A - s)) is p^v(x), and its bit
    length gives v(x) (``CappedField.powers``).
    """
    p = field.p
    pw, logs = field.powers(0)
    r, f = [], []
    for x, A in zip(values, precs):
        if A != _INF and A > s:
            e = A - s
            if e >= len(pw):
                pw, logs = field.powers(e)
            x %= pw[e]
            if x:
                r.append(x)
                f += (A, s + logs[gcd(x, pw[e]).bit_length()] if x % p == 0
                      else s)
                continue
        r.append(0)
        f += (A, A)
    return s, r, f


def _capped_triple(field, coeffs):
    """The (s, r, f) triple of a list of capped elements."""
    f = []
    for c in coeffs:
        f += (_INF, _INF) if c.v is None else (c.v + c.rel, c.v)
    s, p = _least(f), field.p
    return s, [c.unit * p ** (c.v - s) % p ** (c.v + c.rel - s) if c.unit
               else 0 for c in coeffs], f


def _element(field, s, x, A, v):
    """The capped element with representative x at shift s, absolute
    precision A and valuation v."""
    if A == _INF:
        return PadicElement.exact_zero(field)
    if not x:
        return PadicElement._zero(field, A)
    return PadicElement(field, v, x // field.p ** (v - s), A - v)


def _convolve(xs, ys, n):
    """First n coefficients of the product of two integer polynomials,
    each with at least n coefficients, as n C-level dot products."""
    ys = ys[n - 1::-1]
    return [sum(map(mul, xs, ys[n - 1 - k:])) for k in range(n)]


# products of at least this many terms run on a valuation line (see
# ``_capped_product``); for shorter ones finding the line costs more than
# the smaller integers save
_SLOPED = 96


def _slope(r, f, i0: int, v0) -> int:
    """The greatest integer t with v_i >= v0 + (i - i0) t for every
    nonzero r_i with i > i0, 0 if there is none: the steepest line of
    integer slope through (i0, v0) that stays under the valuations."""
    return min(((f[2 * i + 1] - v0) // (i - i0)
                for i in range(i0 + 1, len(r)) if r[i]), default=0)


def _capped_product(field, a, b, n):
    """The triple of the first n coefficients of a * b over a CappedField,
    from the triples a and b, each of at least n coefficients.

    Coefficient k is the exact sum of the representatives' products at
    shift s_a + s_b, known to absolute precision min over i + j = k of
    min(A_i + v_j, v_i + A_j): exactly what the chain of element adds
    and muls yields, so results agree with it digit for digit.

    The series of the Böttcher build have valuations that fall (or rise)
    linearly, so at one shift s the representatives r_i = u_i p^(v_i - s)
    of a long series grow to p^(A_i - s), far more digits than the
    precision.  From ``_SLOPED`` terms on, both operands are put on one
    line of integer slope t under their valuations, v_i >= c + i t (each
    its own c, from ``_slope`` at its first nonzero coefficient, t the
    lesser of the two slopes), and carried as the integers
    x_i = r_i p^(s - c - i t) = u_i p^(v_i - c - i t).  Then
    sum_{i+j=k} r_i r'_j = p^(c + c' + k t - s - s') sum_{i+j=k} x_i x'_j,
    an exact identity, so digits and precisions are those of the plain
    convolution.
    """
    (sa, ra, fa), (sb, rb, fb) = a, b
    # b's first n [A, v] pairs reversed, so that pairs (i, k - i) line up
    # as (A_i, v_j), (v_i, A_j)
    starts = fb[2 * n - 1::-1]
    precs = [min(map(add, fa, starts[2 * (n - 1 - k):])) for k in range(n)]
    s = sa + sb
    ra, rb = ra[:n], rb[:n]
    if n >= _SLOPED and any(ra) and any(rb):
        # each operand's line through its first nonzero coefficient
        ia = next(i for i, x in enumerate(ra) if x)
        ib = next(i for i, x in enumerate(rb) if x)
        va, vb = fa[2 * ia + 1], fb[2 * ib + 1]
        t = min(_slope(ra, fa, ia, va), _slope(rb, fb, ib, vb))
        if t:
            ca, cb = va - ia * t, vb - ib * t
            xa = _scaled(field, ra, sa - ca, -t)
            xb = _scaled(field, rb, sb - cb, -t)
            return _reduced(field, s, _scaled(
                field, _convolve(xa, xb, n), ca + cb - s, t), precs)
    return _reduced(field, s, _convolve(ra, rb, n), precs)


def _capped_inverse(field, a):
    """inv_0 = 1, inv_k = -sum_{j=1..k} a_j inv_{k-j} over a CappedField,
    triple in and out, with the precision rule of ``_capped_product`` for
    each sum."""
    s_a, r_a, f_a = a
    M = len(r_a)
    # v(a_j) >= j t for j >= 1, hence v(inv_k) >= k t; terms are carried
    # as the integers unit * p^(v - j t)
    t = _slope(r_a, f_a, 0, 0)
    ra = _scaled(field, r_a, s_a, -t)[::-1]   # a_k .. a_1 at M-1-k .. M-2
    flat = f_a[::-1]                          # v, A of a_k at 2(M-1-k)
    ri, f = [1], [field.prec, 0]              # inv_0 .. inv_{k-1}
    for k in range(1, M):
        lo = M - 1 - k
        _, x, fk = _reduced(field, k * t, [-sum(map(mul, ra[lo:], ri))],
                            [min(map(add, flat[2 * lo:], f))])
        ri += x
        f += fk
    s = min(0, (M - 1) * t)
    return s, _scaled(field, ri, -s, t), f


def _over_common(coeffs) -> tuple:
    """(integer numerators, the lcm of the denominators) of a list of
    ExactField elements."""
    den = math.lcm(*(c.value.denominator for c in coeffs))
    return [c.value.numerator * (den // c.value.denominator)
            for c in coeffs], den


def _exact_product(field, a, b, n):
    """First n coefficients of a * b over an ExactField, each operand as
    integer numerators over the lcm of its denominators."""
    (xs, den_x), (ys, den_y) = _over_common(a[:n]), _over_common(b[:n])
    den = den_x * den_y
    return [ExactElement(field, Fraction(t, den))
            for t in _convolve(xs, ys, n)]


def _exact_inverse(field, a):
    """inv_0 = 1, inv_k = -sum_{j=1..k} a_j inv_{k-j} over an ExactField,
    each sum taken over the lcm of its terms' denominators."""
    M = len(a)
    na = [c.value.numerator for c in a][::-1]     # a_k .. a_1 at M-1-k ..
    da = [c.value.denominator for c in a][::-1]
    ni, di = [1], [1]                             # inv_0 .. inv_{k-1}
    for k in range(1, M):
        dens = list(map(mul, da[M - 1 - k:], di))
        den = math.lcm(*dens)
        q = Fraction(-sum(map(mul, map(mul, na[M - 1 - k:], ni),
                              map(floordiv, repeat(den), dens))), den)
        ni.append(q.numerator)
        di.append(q.denominator)
    return [ExactElement(field, Fraction(n, d)) for n, d in zip(ni, di)]


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def weighted_sum(weights, terms) -> TailSeries:
    """sum_j weights[j] terms[j] in one pass, to the least truncation of
    the terms.

    Digit for digit (precision included) the chain of scalar products and
    sums: each coefficient is the exact sum of the scaled values, known to
    the least of the scalar rule's precisions min(A + v_c, v + A_c), and
    is reduced once instead of once per operation.
    """
    field = terms[0].field
    trunc = min(x.trunc for x in terms)
    pairs = [(c, x) for c, x in zip(weights, terms)
             if not c.is_exact_zero and x.ord < trunc]
    lo = min([x.ord for _, x in pairs] + [trunc])
    n = trunc - lo
    if not isinstance(field, CappedField):
        # integer numerators over one common denominator
        rows = [(c.value, x.ord - lo,
                 *_over_common(x.coeffs[:trunc - x.ord])) for c, x in pairs]
        den = math.lcm(*(c.denominator * m for c, _, _, m in rows))
        values = [0] * n
        for c, k, row, m in rows:
            scale = c.numerator * (den // (c.denominator * m))
            values[k:] = map(add, values[k:], [y * scale for y in row])
        return TailSeries(field, lo, [ExactElement(field, Fraction(y, den))
                                      for y in values], trunc)
    p = field.p
    shift = min((x._flat[0] + c.v for c, x in pairs), default=0)
    values, precs = [0] * n, [_INF] * n
    for c, x in pairs:
        s, r, f = x._flat
        k = x.ord - lo
        m = 2 * (n - k)
        scale = c.unit * p ** (s + c.v - shift)
        values[k:] = map(add, values[k:], map(mul, r, repeat(scale)))
        precs[k:] = map(min, precs[k:], map(
            min, map(add, f[:m:2], repeat(c.v)),
            map(add, f[1:m:2], repeat(c.v + c.rel))))
    return TailSeries._capped(field, lo, _reduced(field, shift, values,
                                                  precs), trunc)


def lagrange_invert(S: TailSeries) -> TailSeries:
    """Compositional inverse B with S(B) = B(S) = w + O(w^M).

    Needs ord == 1 and linear coefficient exactly 1.  Computed by Newton
    iteration on the identity S(B) - w = 0; if S has integral
    coefficients, so does B (only the linear coefficient 1 is ever
    inverted).
    """
    if S.ord != 1 or not (S.coefficient(1) - S.field.embed(1)).is_zero():
        raise UsageError("reversion needs leading term exactly w")
    M = S.trunc
    if M <= 2:
        return TailSeries.w_power(S.field, 1, M)
    deriv = S.derivative()
    B = TailSeries.w_power(S.field, 1, 2)
    t = 2
    # quadratic convergence: refine at doubling truncations
    while True:
        w_t = TailSeries.w_power(S.field, 1, t)
        residual = S.truncate(t).compose(B).truncate(t) - w_t
        if not residual.is_exact_zero:   # see TailSeries.nth_root
            unit = deriv.truncate(t - 1).compose(B).truncate(t - 1)
            B = (B - residual * unit.invert_unit()).truncate(t)
        if t == M:
            break
        t = min(2 * t, M)
        B = B._padded(t)
    residual = S.compose(B).truncate(M) - TailSeries.w_power(S.field, 1, M)
    if residual.is_zero():
        return B
    raise InternalError("series reversion failed to converge")


def gauss_norm(S: TailSeries, D: DiskSpec) -> Valuation:
    """-log_p of the sup of |c_k| r^k on the disk: min_k v(c_k) + k eps.

    Only stored coefficients enter; an infinite result means the series
    is zero to its truncation order.
    """
    return Valuation.least([c.valuation() + (S.ord + i) * D.eps
                            for i, c in enumerate(S.coeffs)])


@dataclass(frozen=True)
class PointValue:
    """A field element together with a rigorous error-bound valuation.

    The true value differs from ``value`` by something of valuation at
    least ``err``.
    """

    value: object
    err: Valuation

    def power(self, d: int) -> "PointValue":
        """d-th power with the propagated binomial error bound."""
        vx = self.value.valuation()
        if self.err.is_infinite:
            return PointValue(self.value ** d, self.err)
        e = self.err.as_fraction()
        if vx.is_infinite:
            bound = d * e
        else:
            x = vx.as_fraction()
            bound = min((d - 1) * x + e, d * e)
        return PointValue(self.value ** d, Valuation(bound, self.err.exact))

    def matches(self, other: "PointValue"):
        """Residual valuation of the difference and whether it clears the
        combined error bound."""
        diff = self.value - other.value
        residual = diff.valuation()
        bound = min(self.err, other.err)
        return residual >= bound, residual, bound


def evaluate(S: TailSeries, z, D: DiskSpec) -> PointValue:
    """Sum the stored terms at a point strictly inside the disk.

    For center "inf" the point is z and the series variable is w = 1/z;
    for center "zero" the series is summed at w = z directly.  The tail
    bound assumes the stored-coefficient Gauss bound extends to the
    unstored tail, which holds for series produced by the conjugacy
    constructions (their rescaled coefficients are integral).
    """
    w0 = z.field.embed(1) / z if D.center == "inf" else z
    v0 = w0.valuation()
    if v0.is_infinite or not v0.exact:
        raise DomainError("outside certified domain: point valuation unknown")
    if not v0.as_fraction() > D.eps:
        raise DomainError("outside certified domain")
    g = gauss_norm(S, D)
    if g.is_infinite:
        tail = Valuation(None)
    else:
        if not g.exact:
            raise PrecisionError("Gauss norm is only a lower bound here")
        tail = Valuation(g.as_fraction()
                         + S.trunc * (v0.as_fraction() - D.eps))
    if S.is_exact_zero:
        zero = z - z
        return PointValue(zero, tail)
    return PointValue(poly_eval(S.coeffs, w0) * w0 ** S.ord, tail)


def agreement_order(a: TailSeries, b: TailSeries) -> int:
    """Smallest index with distinguishable coefficients, else min trunc."""
    if a.field != b.field:
        raise UsageError("series over different coefficient fields")
    limit = min(a.trunc, b.trunc)
    for k in range(min(a.ord, b.ord, limit), limit):
        ca = a.coefficient(k)
        cb = b.coefficient(k)
        if not (ca - cb).is_zero():
            return k
    return limit
