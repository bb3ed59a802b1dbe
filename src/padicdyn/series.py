"""Truncated series in w = 1/z over a p-adic coefficient field.

Every series carries an explicit truncation order M ("known modulo w^M"),
and every ring operation computes the tightest sound truncation for its
result: min rule for sums, ord-shifted min rule for products.  n-th roots
of 1-units are taken by Newton iteration in the series ring, reversion by
Newton iteration on the composition identity.  Disk norms and pointwise
evaluation come with rigorous tail bounds.

Over Q_p itself (``CappedField``, ``ExactField``) products and unit
inverses run on a flat integer kernel: coefficients become plain integers
(units scaled by powers of p, or numerators over a common denominator),
each output coefficient is one C-level dot product, and capped results
get the precision the element-wise rules would give.  Series over
extension fields use the element-by-element loops.

Values are immutable; evaluating one series at many points concurrently
needs no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, floordiv, mul

from .errors import DomainError, InternalError, PrecisionError, UsageError
from .localfield import (CappedField, ExactElement, ExactField, PadicElement,
                         Valuation, poly_eval)


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
    """

    __slots__ = ("field", "ord", "coeffs", "trunc")

    def __init__(self, field, ord: int, coeffs, trunc: int):
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
        self.coeffs = tuple(coeffs)
        self.trunc = trunc

    # -- constructors ------------------------------------------------------

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
        coeffs = list(coeffs)[:trunc]
        coeffs += [0] * (trunc - len(coeffs))
        return cls(field, 0, coeffs, trunc)

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        """True when every stored coefficient is indistinguishable from 0."""
        return all(c.is_zero() for c in self.coeffs)

    @property
    def is_exact_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int):
        """The coefficient of w^k; k must be below the truncation order."""
        if k >= self.trunc:
            raise UsageError(f"coefficient {k} is beyond truncation "
                             f"{self.trunc}")
        if k < self.ord:
            return self.field.embed(0)
        return self.coeffs[k - self.ord]

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
        coeffs = self.coeffs[: max(trunc - self.ord, 0)]
        return TailSeries(self.field, min(self.ord, trunc), coeffs, trunc)

    def _padded(self, trunc: int) -> "TailSeries":
        """Zero-extend the claimed truncation: iteration state only.

        Newton-style loops refine a candidate whose high terms are not yet
        meaningful, so the inflated claim never escapes those loops.
        """
        if trunc <= self.trunc:
            return self.truncate(trunc)
        return TailSeries(self.field, self.ord, list(self.coeffs), trunc)

    def shifted(self, k: int) -> "TailSeries":
        """Multiplication by the exact monomial w^k."""
        return TailSeries(self.field, self.ord + k, self.coeffs,
                          self.trunc + k)

    def __add__(self, other):
        if not isinstance(other, TailSeries):
            return NotImplemented
        self._check_field(other)
        trunc = min(self.trunc, other.trunc)
        lo = min(self.ord, other.ord, trunc)
        coeffs = []
        for k in range(lo, trunc):
            a = self.coefficient(k) if k >= self.ord else None
            b = other.coefficient(k) if k >= other.ord else None
            if a is None and b is None:
                coeffs.append(0)
            elif a is None:
                coeffs.append(b)
            elif b is None:
                coeffs.append(a)
            else:
                coeffs.append(a + b)
        return TailSeries(self.field, lo, coeffs, trunc)

    def __neg__(self):
        return TailSeries(self.field, self.ord, [-c for c in self.coeffs],
                          self.trunc)

    def __sub__(self, other):
        if not isinstance(other, TailSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TailSeries):
            self._check_field(other)
            trunc = min(self.trunc + other.ord, other.trunc + self.ord)
            if self.is_exact_zero or other.is_exact_zero:
                return TailSeries.zero(self.field, trunc)
            ord_ = self.ord + other.ord
            product = _KERNELS.get(type(self.field), _GENERIC)[0]
            out = product(self.field, self.coeffs, other.coeffs,
                          trunc - ord_)
            return TailSeries(self.field, ord_, out, trunc)
        # scalar
        c = self.field.embed(other)
        if c.is_exact_zero:
            return TailSeries.zero(self.field, self.trunc)
        return TailSeries(self.field, self.ord,
                          [a * c for a in self.coeffs], self.trunc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise UsageError("negative series powers are not supported")
        result = TailSeries.one(self.field, self.trunc + self.ord * max(n - 1, 0))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def derivative(self) -> "TailSeries":
        """Formal d/dw."""
        if self.is_exact_zero:
            return TailSeries.zero(self.field, max(self.trunc - 1, 0))
        coeffs = [(self.ord + i) * c for i, c in enumerate(self.coeffs)]
        if self.ord == 0:
            coeffs = coeffs[1:]
        return TailSeries(self.field, max(self.ord - 1, 0), coeffs,
                          self.trunc - 1)

    # -- unit operations -----------------------------------------------------

    def invert_unit(self) -> "TailSeries":
        """Inverse of a series with constant term exactly 1."""
        if self.ord != 0 or not (self.coefficient(0)
                                 - self.field.embed(1)).is_zero():
            raise UsageError("inversion needs constant term 1; "
                             "callers normalize first")
        inverse = _KERNELS.get(type(self.field), _GENERIC)[1]
        return TailSeries(self.field, 0, inverse(self.field, self.coeffs),
                          self.trunc)

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
        # truncations; cost concentrates in the final full-order step
        while True:
            xpow = (x ** (n - 1)).truncate(t)
            residual = (xpow * x).truncate(t) - self.truncate(t)
            if not residual.is_zero():
                x = (x - residual * xpow.invert_unit() * inv_n).truncate(t)
            if t == M:
                break
            t = min(2 * t, M)
            x = x._padded(t)
        residual = (x ** n).truncate(M) - self
        if residual.is_zero():
            return x
        raise InternalError("series Newton iteration failed to converge")

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
        full-order one.  A series of order d as inner (as in
        ``compose_through_poly``) leaves about 1/d of the steps.
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
            if k >= self.ord:
                c = self.coefficient(k)
                if not c.is_exact_zero and acc.trunc:
                    # acc + c: only coefficient 0 changes
                    coeffs = list(acc.coeffs)
                    if acc.ord == 0:
                        coeffs[0] = coeffs[0] + c
                    else:
                        coeffs[:0] = [c] + [0] * (acc.ord - 1)
                    acc = TailSeries(self.field, 0, coeffs, acc.trunc)
        return acc


# ---------------------------------------------------------------------------
# coefficient kernels: products and unit inverses of coefficient tuples
# ---------------------------------------------------------------------------

_INF = math.inf   # valuation and precision of an exact zero


def _convolve(xs, ys, n):
    """First n coefficients of the product of two integer polynomials,
    each with at least n coefficients, as n C-level dot products."""
    ys = ys[n - 1::-1]
    return [sum(map(mul, xs, ys[n - 1 - k:])) for k in range(n)]


def _capped_flat(coeffs):
    """[A_0, v_0, A_1, v_1, ...]: absolute precision and valuation of each
    capped coefficient.

    A coefficient indistinguishable from zero has both equal to its floor;
    an exact zero has both infinite, so it never bounds a precision.
    """
    out = []
    for c in coeffs:
        out += (_INF, _INF) if c.v is None else (c.v + c.rel, c.v)
    return out


def _capped_product(field, a, b, n):
    """First n coefficients of a * b over a CappedField; a and b have at
    least n coefficients.

    Coefficient k is the exact sum of the representatives' products,
    known to absolute precision min over i + j = k of
    min(A_i + v_j, v_i + A_j): exactly what the chain of element adds
    and muls yields, so results agree with it digit for digit.
    """
    a, b = a[:n], b[:n]
    p = field.p
    low_a = min((c.v for c in a if c.unit), default=None)
    low_b = min((c.v for c in b if c.unit), default=None)
    if low_a is None or low_b is None:
        low, values = 0, [0] * n
    else:
        low = low_a + low_b
        values = _convolve(
            [c.unit * p ** (c.v - low_a) if c.unit else 0 for c in a],
            [c.unit * p ** (c.v - low_b) if c.unit else 0 for c in b], n)
    # b reversed, so that pairs (i, k - i) line up as (A_i, v_j), (v_i, A_j)
    ends, starts = _capped_flat(a), _capped_flat(b)[::-1]
    zero = field.zero()
    make = PadicElement._make
    out = []
    for k in range(n):
        prec = min(map(add, ends, starts[2 * (n - 1 - k):]))
        out.append(zero if prec == _INF
                   else make(field, low, values[k], prec - low))
    return out


def _capped_inverse(field, a):
    """inv_0 = 1, inv_k = -sum_{j=1..k} a_j inv_{k-j} over a CappedField,
    with the precision rule of ``_capped_product`` for each sum."""
    p = field.p
    M = len(a)
    # v(a_j) >= j s for j >= 1, hence v(inv_k) >= k s; terms are carried
    # as the integers unit * p^(v - k s)
    s = min((c.v // j for j, c in enumerate(a) if j and c.unit), default=0)
    ra = [c.unit * p ** (c.v - j * s) if c.unit else 0
          for j, c in enumerate(a)][::-1]     # a_k .. a_1 at M-1-k .. M-2
    flat = _capped_flat(a)[::-1]              # v, A of a_k at 2(M-1-k)
    one = field.one()
    zero = field.zero()
    make = PadicElement._make
    ri, flat_inv = [1], [one.rel, 0]          # A, v of inv_0 .. inv_{k-1}
    out = [one]
    for k in range(1, M):
        lo = M - 1 - k
        prec = min(map(add, flat[2 * lo:], flat_inv))
        if prec == _INF:
            x = zero
            flat_inv += (_INF, _INF)
        else:
            x = make(field, k * s, -sum(map(mul, ra[lo:], ri)),
                     prec - k * s)
            flat_inv += (x.v + x.rel, x.v)
        ri.append(x.unit * p ** (x.v - k * s) if x.unit else 0)
        out.append(x)
    return out


def _exact_product(field, a, b, n):
    """First n coefficients of a * b over an ExactField, each operand as
    integer numerators over the lcm of its denominators."""
    xs = [c.value for c in a[:n]]
    ys = [c.value for c in b[:n]]
    den_x = math.lcm(*(q.denominator for q in xs))
    den_y = math.lcm(*(q.denominator for q in ys))
    values = _convolve(
        [q.numerator * (den_x // q.denominator) for q in xs],
        [q.numerator * (den_y // q.denominator) for q in ys], n)
    den = den_x * den_y
    return [ExactElement(field, Fraction(t, den)) for t in values]


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


def _element_product(field, a, b, n):
    """Schoolbook product on element objects: the extension-field path."""
    out = [field.embed(0)] * n
    for i, x in enumerate(a[:n]):
        if x.is_exact_zero:
            continue
        for j, y in enumerate(b[:n - i]):
            if not y.is_exact_zero:
                out[i + j] = out[i + j] + x * y
    return out


def _element_inverse(field, a):
    """The unit-inverse recurrence on element objects (extension fields)."""
    inv = [field.embed(1)] + [field.embed(0)] * (len(a) - 1)
    for k in range(1, len(a)):
        acc = field.embed(0)
        for j in range(1, k + 1):
            if not a[j].is_exact_zero:
                acc = acc + a[j] * inv[k - j]
        inv[k] = -acc
    return inv


# (product, inverse) by coefficient field type
_KERNELS = {CappedField: (_capped_product, _capped_inverse),
            ExactField: (_exact_product, _exact_inverse)}
_GENERIC = (_element_product, _element_inverse)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


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
        if not residual.is_zero():
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
