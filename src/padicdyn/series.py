"""Truncated series in w = 1/z over a p-adic coefficient field.

Every series carries an explicit truncation order M ("known modulo w^M"),
and every ring operation computes the tightest sound truncation for its
result: min rule for sums, ord-shifted min rule for products.  n-th roots
of 1-units are taken by Newton iteration in the series ring, from 1 or
resuming the ladder of an earlier root (``_root_steps``), and checked to
full order (the Böttcher fixed point checks only its last root).  General
reversion (``lagrange_invert``) is Newton iteration on the composition
identity; the Böttcher build does not use it, since its inverse series
solves a functional equation of its own (``boettcher``).  Disk norms and
pointwise evaluation come with rigorous tail bounds.

Every series is stored flat: an integer vector r with one scale for the
whole series, (r, s, f, m) over ``CappedField`` and (r, D, L) over
``ExactField``.  A capped form holds coefficient i as
r_i p^(s - i m) + O(p^(A_i)): the series in the variable u = w / p^m, at
the shift p^s, s the least v_i + i m over the finite valuations (0 if
there is none), the representatives r_i = unit_i p^(v_i - s + i m)
reduced to [0, p^(A_i - s + i m)), and the interleaved list
f = [A_0, v_0, A_1, v_1, ...] of each coefficient's absolute precision
and valuation (both infinite for an exact zero, both the floor for an
O(p^k) zero).  An exact form holds coefficient i as r_i / (D L^i): the
series in the variable u = w / L, over D, the least denominator at that
scale.  A form made from elements has m = 0 and L = 1, numerators over
their least common denominator.  An exact Böttcher build takes its
scale from its map (``boettcher._scale``): its series are then integer
vectors (D = 1), where at L = 1 each numerator would be inflated to the
size of the common denominator.  A capped unit inverse runs on the
steepest integer line under its input's valuations (``_slope``), so the
capped series of a build take their m from the inverses they meet, and
their representatives hold about as many digits as their precision,
where at m = 0 each would also carry the series' valuation slope (and a
packed product's slots are as wide as the widest entry).  Products and
sums bring operands to one scale, the lcm of theirs (the greater m), so
any scale gives the same coefficients, digits and precisions alike: a
wrong one costs only speed.  So each series has one form at its
scale.  The methods of
``TailSeries`` are written once over a kernel of functions per backend
(below); capped operations keep the precision rule of the element
arithmetic digit for digit, and elements are built only when ``coeffs``
or ``coefficient`` is read.  Every sum of series, with the products
that only a sum reads, is one ``weighted_sum``, each coefficient reduced
once.  Capped products of at least ``_LONG`` terms
take two more exact routes.  Their n coefficient sums come from one
big-integer product (Kronecker substitution): the vectors, never
negative, are packed into one integer each with a byte slot per
coefficient wide enough that no sum carries.  Their precision list, the
min-plus convolution of the [A, v] lists, comes from the operands'
affine runs: a run of precisions on one line meets the other operand's
valuations, shifted by that line, in sliding windows whose minima cost a
few passes each, not one per pair (operands with many runs keep the
pairwise minima).  Shorter products take dot products and pairwise
minima.  A square (x * x) is packed once and takes its precisions over
half the pairs.  The exact backend, the oracle, keeps its plain dot
products: its numerators grow with the index, so slots wide enough for
the last of them make packing slower.  Coefficients lie in one of these
two fields: no construction needs series over an extension (points in
extensions are handled by ``evaluate``), so ``TailSeries`` refuses other
fields.

Values are immutable; evaluating one series at many points concurrently
needs no coordination.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import add, mul, sub

from .errors import DomainError, InternalError, PrecisionError, UsageError
from .localfield import (CappedField, ExactElement, ExactField, PadicElement,
                         Valuation, _over_common, _power, _vp_int,
                         poly_eval)


class DiskSpec(namedtuple("DiskSpec", "center eps")):
    """A disk in the w-coordinate: |w| < p^(-eps), eps a Fraction.

    ``center`` is "inf" (disk about infinity in z, so w = 1/z) or "zero"
    (disk about 0, evaluated at w directly).
    """

    __slots__ = ()

    def __new__(cls, center, eps):
        if center not in ("inf", "zero"):
            raise UsageError("disk center must be 'inf' or 'zero'")
        return super().__new__(cls, center, Fraction(eps))

    # _replace builds through _make: check its fields too
    _make = classmethod(lambda cls, fields: cls(*fields))


class TailSeries:
    """c_ord w^ord + ... + c_{M-1} w^{M-1} + O(w^M).

    The leading stored coefficient is not an exact zero (those are
    stripped); an all-zero series has ord == trunc and no coefficients.
    ``_flat`` holds the flat form of the trunc - ord stored coefficients,
    (r, s, f, m) over ``CappedField`` and (r, D, L) over ``ExactField``,
    where coefficient ord + i is r_i p^(s - i m) + O(p^(A_i)) or
    r_i / (D L^i), at a scale p^m or L that costs only speed when it is
    wrong (see the module docstring), and ``_kernel`` the backend's
    functions on that form, which every method calls; ``_coeffs`` caches
    the elements once ``coeffs`` is read.
    """

    __slots__ = ("field", "ord", "trunc", "_kernel", "_flat", "_coeffs")

    def __init__(self, field, ord: int, coeffs, trunc: int):
        kernel = _kernel_of(field)
        coeffs = [field.embed(c) for c in coeffs]
        n = max(trunc - ord, 0)
        if len(coeffs) > n:
            raise UsageError("more coefficients than the truncation allows")
        self._set(kernel, field, ord,
                  kernel.window(field, kernel.flat(field, coeffs), 0, n),
                  trunc)

    def _set(self, kernel, field, ord: int, flat, trunc: int) -> None:
        # only exact-zero leading terms are stripped; a capped coefficient
        # indistinguishable from zero stays stored, since raising ord
        # would overclaim precision downstream
        lead, flat = kernel.normal(field, flat)
        self.field, self._kernel, self._flat = field, kernel, flat
        self.ord = ord + lead if flat[0] else trunc
        self.trunc = trunc
        self._coeffs = None

    def _new(self, ord: int, flat, trunc: int) -> "TailSeries":
        """A series over self's field from the flat form of its trunc - ord
        coefficients from w^ord, in any scale."""
        out = object.__new__(TailSeries)
        out._set(self._kernel, self.field, ord, flat, trunc)
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field, trunc: int):
        return cls.w_power(field, trunc, trunc)

    @classmethod
    def one(cls, field, trunc: int):
        return cls.w_power(field, 0, trunc)

    @classmethod
    def w_power(cls, field, k: int, trunc: int):
        """w^k + O(w^trunc) from the kernel's 1 (O(w^trunc) if k >= trunc)."""
        kernel = _kernel_of(field)
        out = object.__new__(cls)
        out._set(kernel, field, min(k, trunc), kernel.window(
            field, kernel.one(field), 0, max(trunc - k, 0)), trunc)
        return out

    @classmethod
    def from_polynomial(cls, field, coeffs, trunc: int):
        """A polynomial in w, truncated (or zero-padded) to order trunc."""
        return cls(field, 0, list(coeffs)[:trunc], trunc)

    # -- inspection ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The stored coefficients as field elements, built on the first
        read."""
        if self._coeffs is None:
            self._coeffs = tuple(
                self._kernel.element(self.field, self._flat, i)
                for i in range(self.trunc - self.ord))
        return self._coeffs

    def is_zero(self) -> bool:
        """True when every stored coefficient is indistinguishable from 0."""
        return not any(self._flat[0])

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
        return self._kernel.element(self.field, self._flat, k - self.ord)

    def _has_constant_one(self) -> bool:
        """Order 0 and constant term 1: c_0 - 1 is zero to its precision."""
        return not self.ord and self.trunc > 0 and self._kernel.is_one(
            self.field, self._flat)

    def identical_to(self, other: "TailSeries", n: int) -> bool:
        """True when both are known to order n and their coefficients
        below w^n are the same elements, digit for digit and in precision
        (indistinguishable is not enough): their flat forms cut to n and
        brought to one scale, where each has one form, are equal."""
        if self.field != other.field or min(self.trunc, other.trunc) < n:
            return False
        a, b = self._padded(n), other._padded(n)
        at, scale = a._kernel.at, a._kernel.scale
        return a.ord == b.ord and at(a.field, a._flat, scale(
            b.field, b._flat)) == at(b.field, b._flat, scale(a.field, a._flat))

    def _rescaled(self, L: int) -> "TailSeries":
        """The same series with a form at scale L (at the lcm of L and its
        own; over ``CappedField``, at the greater of m and v_p(L)): an
        exact build takes L from its map, so that its series are integer
        vectors.  A capped build passes L = 1, a form unchanged: its
        unit inverses choose its line (``_capped_inverse``)."""
        flat = self._kernel.at(self.field, self._flat, L)
        return self if flat is self._flat else self._new(self.ord, flat,
                                                         self.trunc)

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
        return self if trunc >= self.trunc else self._padded(trunc)

    def _padded(self, trunc: int) -> "TailSeries":
        """Cut, or zero-extend, the claimed truncation to trunc.

        Zero-extension is iteration state only: Newton-style loops refine a
        candidate whose high terms are not yet meaningful, so the inflated
        claim never escapes those loops.
        """
        return self._new(min(self.ord, trunc), self._kernel.window(
            self.field, self._flat, 0, max(trunc - self.ord, 0)), trunc)

    def shifted(self, k: int) -> "TailSeries":
        """Multiplication by the exact monomial w^k: the same coefficients,
        so the same form, already normal, from w^(ord + k)."""
        return self._new(self.ord + k, self._flat, self.trunc + k)

    def spread(self, d: int) -> "TailSeries":
        """S(w^d): coefficient k moves to index d k, exact zeros between.

        S known modulo w^M makes S(w^d) known modulo w^(d M); each
        coefficient keeps its value and precision, so no product runs.
        """
        if d < 1:
            raise UsageError("spread needs d >= 1")
        n = self.trunc - self.ord
        return self._new(d * self.ord, self._kernel.window(
            self.field, self._flat, 0, d * n, d), d * self.trunc)

    def __add__(self, other):
        if not isinstance(other, TailSeries):
            return NotImplemented
        self._check_field(other)
        return weighted_sum((1, 1), (self, other))

    def __sub__(self, other):
        if not isinstance(other, TailSeries):
            return NotImplemented
        self._check_field(other)
        return weighted_sum((1, -1), (self, other))

    def __neg__(self):
        return weighted_sum((-1,), (self,))

    def __mul__(self, other):
        if isinstance(other, TailSeries):
            self._check_field(other)
            trunc = min(self.trunc + other.ord, other.trunc + self.ord)
            if self.is_exact_zero or other.is_exact_zero:
                return TailSeries.zero(self.field, trunc)
            ord_ = self.ord + other.ord
            return self._new(ord_, self._kernel.product(
                self.field, self._flat, other._flat, trunc - ord_), trunc)
        return weighted_sum((self.field.embed(other),), (self,))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise UsageError("negative series powers are not supported")
        if n == 0:
            return TailSeries.one(self.field, self.trunc)
        return _power(self, n)

    # -- unit operations -----------------------------------------------------

    def invert_unit(self) -> "TailSeries":
        """Inverse of a series with constant term exactly 1."""
        if not self._has_constant_one():
            raise UsageError("inversion needs constant term 1; "
                             "callers normalize first")
        return self._new(0, self._kernel.inverse(self.field, self._flat),
                         self.trunc)

    def nth_root(self, n: int, ladder: tuple = None) -> "TailSeries":
        """The unique n-th root with constant term 1, by the Newton steps
        of ``_root_steps`` from 1, or from ladder where it serves, checked:
        x^n = self to full order.

        Requires constant term exactly 1 and n not divisible by the
        residue characteristic.  The steps trust a ladder's iterate, so
        the check binds the result: an iterate wrong below its truncation
        fails it and raises InternalError.  The Böttcher fixed point
        checks only its last root, and that check is also the build's
        comparison of omega^d with its last image
        (``boettcher._omega_series``).
        """
        x, _ = self._root_steps(n, ladder)
        if ((x ** n).truncate(self.trunc) - self).is_zero():
            return x
        raise InternalError("series Newton iteration failed to converge")

    def _root_steps(self, n: int, ladder: tuple = None) -> tuple:
        """The Newton steps of ``nth_root`` without its check: (root,
        ladder).

        From 1 modulo w the steps climb truncations 2, 4, 8, ..., each
        doubling the agreement with the root, and take one last step to
        self's truncation when it is no power of two; cost concentrates
        in that full-order step.  The iterate at a power of two S reads
        only self's first S coefficients, so the ladder returned, (the
        iterate at the last power of two reached, self), serves a target
        with the same first S coefficients (``identical_to``): a call
        given it resumes there, and otherwise starts from 1, so the root
        is the one from 1, digits and precision alike.  A start off the
        ladder is not: a step from a truncation the ladder skips
        multiplies the exact zeros of its padding where the ladder has
        O(p^k) zeros, and over a capped field claims other precisions.

        Each residual x^(n-1) x - self, the product summed before
        reduction, and each update x - (residual / x^(n-1)) / n is one
        ``weighted_sum`` to the step's order, the same elements as the
        chain of operations and cuts.
        """
        if n <= 0:
            raise UsageError("root index must be positive")
        if n % self.field.p == 0:
            raise DomainError("root not available: residue characteristic "
                              "divides index")
        if not self._has_constant_one():
            raise UsageError("n-th roots need constant term 1")
        M = self.trunc
        x = TailSeries.one(self.field, 1)
        if ladder and self.identical_to(ladder[1], ladder[0].trunc):
            x = ladder[0]
        if not x._has_constant_one():
            raise InternalError("a Newton start needs constant term 1")
        minus_inv_n = self.field.embed(Fraction(-1, n))
        state, t = x, x.trunc
        # a residual that is only indistinguishable from zero still
        # corrects x: it replaces the exact zeros of the padding by O(p^k)
        # zeros; residual and update are one pass each
        while True:
            t = min(2 * t, M)
            x = x._padded(t)
            xpow = (x ** (n - 1)).truncate(t)
            residual = weighted_sum((1, -1), ((xpow, x), self), t)
            if not residual.is_exact_zero:
                delta = residual * xpow.invert_unit()
                x = weighted_sum((1, minus_inv_n), (x, delta), t)
            if t == 2 * state.trunc:
                state = x
            if t == M:
                return x, (state, self)

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
        kernel = self._kernel
        for k in range(steps - 1, -1, -1):
            acc = (acc * inner).truncate(target - k * s)
            if k >= self.ord and acc.trunc:
                # plus c_k w^0: c_k alone, padded with exact zeros
                c = kernel.window(self.field, self._flat, k - self.ord, 1)
                acc = acc + acc._new(0, kernel.window(
                    self.field, c, 0, acc.trunc), acc.trunc)
        return acc


# ---------------------------------------------------------------------------
# kernels: the flat form of each backend
# ---------------------------------------------------------------------------

_INF = math.inf   # precision and valuation of an exact zero


def _least(f, m: int) -> int:
    """The shift of a capped form at scale p^m: the least v_i + i m over
    the finite valuations in its [A, v] list (an O(p^k) zero's floor
    counts), 0 if there is none."""
    vs = f[1::2]
    v = min(map(add, vs, range(0, m * len(vs), m)) if m else vs,
            default=_INF)
    return 0 if v == _INF else v


def _scaled(field, xs, e: int, t: int) -> list:
    """The integers x_i p^(e + i t); each negative power must divide its
    x_i."""
    n = len(xs)
    pw, _ = field.powers(max(abs(e), abs(e + t * (n - 1))))
    ks = range(e, e + t * n, t) if t else repeat(e, n)
    return [x * pw[k] if k >= 0 else x // pw[-k] for x, k in zip(xs, ks)]


def _reduced(field, s, m, pairs, r=None, f=None):
    """The capped form at scale p^m of the cosets x_k p^(s - k m) +
    O(p^(A_k)), for the pairs (x_k, A_k) in order.  Given the lists r
    and f of a form's first coefficients, it appends to them, k counting
    on from len(r) (``_capped_inverse``).

    Each value is reduced mod p^(A - s_k), s_k = s - k m its shift, and
    its valuation found; a value that vanishes there is an O(p^A) zero,
    and an infinite precision (whose value is always 0) an exact zero.
    This is what ``PadicElement._make`` does per element, and the only
    place a capped series coefficient is reduced.  A reduced value
    x != 0 has valuation below A - s_k, so gcd(x, p^(A - s_k)) is
    p^v(x), and its bit length gives v(x) (``CappedField.powers``).
    """
    p = field.p
    pw, logs = field.powers(0)
    if r is None:
        r, f = [], []
    sk = s - (len(r) - 1) * m
    for x, A in pairs:
        sk -= m
        if A != _INF and A > sk:
            e = A - sk
            if e >= len(pw):
                pw, logs = field.powers(e)
            x %= pw[e]
            if x:
                r.append(x)
                f += (A, sk + logs[gcd(x, pw[e]).bit_length()] if x % p == 0
                      else sk)
                continue
        r.append(0)
        f += (A, A)
    return r, s, f, m


def _capped_flat(field, coeffs):
    """The (r, s, f, 0) form of a list of capped elements."""
    f = []
    for c in coeffs:
        f += (_INF, _INF) if c.v is None else (c.v + c.rel, c.v)
    s, p = _least(f, 0), field.p
    return [c.unit * p ** (c.v - s) % p ** (c.v + c.rel - s) if c.unit
            else 0 for c in coeffs], s, f, 0


def _capped_element(field, flat, i):
    """Coefficient i of a capped form as an element."""
    r, s, f, m = flat
    A, v = f[2 * i], f[2 * i + 1]
    if A == _INF:
        return PadicElement.exact_zero(field)
    # an O(p^A) zero has r_i = 0 and v = A: unit 0, rel 0
    return PadicElement(field, v, r[i] // field.p ** (v - s + i * m), A - v)


def _capped_to(field, flat, m: int):
    """The same coefficients at scale p^m, m at least the form's own, at
    the least shift there: r_i times p^(s - s' + i (m - m_own))."""
    r, s, f, own = flat
    if m == own:
        return flat
    least = _least(f, m)
    return _scaled(field, r, s - least, m - own), least, f, m


def _capped_normal(field, flat):
    """(the number of leading exact zeros, the form without them at the
    least shift)."""
    r, s, f, m = flat
    i = 0
    while i < len(r) and f[2 * i] == _INF:
        i += 1
    if i:
        r, s, f = r[i:], s - i * m, f[2 * i:]
    least = _least(f, m)
    if least != s:
        r = _scaled(field, r, s - least, 0)
    return i, (r, least, f, m)


def _capped_window(field, flat, lo: int, n: int, d: int = 1):
    """n coefficients: those of the form from index lo, d apart, with exact
    zeros between them and past the end.  Index lo moves to 0, so the
    shift drops by lo m; index lo + i moves to d i, so r_i takes
    p^(i m (d - 1))."""
    r, s, f, m = flat
    k = -(-n // d)
    r, f = r[lo:lo + k], f[2 * lo:2 * (lo + k)]
    if m and d > 1:
        r = _scaled(field, r, 0, m * (d - 1))
    rr, ff, k = [0] * n, [_INF] * (2 * n), d * len(r)
    rr[:k:d] = r
    ff[:2 * k:2 * d], ff[1:2 * k:2 * d] = f[::2], f[1::2]
    return rr, s - lo * m, ff, m


def _capped_linear(field, terms, n: int):
    """The n coefficients of sum c x over the terms (c, k, x): x a capped
    form placed k coefficients up, c = (v, unit, A) the weight p^v unit
    + O(p^A) (A infinite for an exact integer, ``_capped_sign``, the
    weight of a product's form before reduction, ``_capped_unreduced``).

    The forms are brought to the greatest scale m among them; a term
    placed k up then has the shift s + k m.  Each coefficient is the
    exact sum of the scaled values, known to the least of the scalar
    rule's precisions min(A_i + v, v_i + A), and reduced once, to that
    precision (``_reduced``).
    """
    p = field.p
    ms = [x[3] for _, _, x in terms]
    m = max(ms, default=0)
    if ms.count(m) < len(ms):
        terms = [(c, k, _capped_to(field, x, m)) for c, k, x in terms]
    shift = min((s + k * m + c[0] for c, k, (_, s, _, _) in terms),
                default=0)
    values, precs = [], []
    for (v, unit, A), k, (r, s, f, _) in terms:
        r, j = r[:n - k], 2 * (n - k)
        scale = unit * p ** (s + k * m + v - shift)
        scaled = r if scale == 1 else [x * scale for x in r]
        known = f[:j:2] if not v else [A_i + v for A_i in f[:j:2]]
        if A != _INF:    # an exact weight leaves A_i + v
            known = [x if x < y else y for x, y in
                     zip(known, map(add, f[1:j:2], repeat(A)))]
        if values:
            values[k:] = map(add, values[k:], scaled)
            precs[k:] = [x if x < y else y for x, y in zip(precs[k:], known)]
        else:       # the first term: below it, exact zeros
            values, precs = [0] * k + scaled, [_INF] * k + known
    return _reduced(field, shift, m, zip(values, precs))


def _capped_sign(field, n: int):
    """The weight of a nonzero integer n, known exactly: p^v u with
    v = v_p(n) and A infinite, so each coefficient keeps A_i + v."""
    v = _vp_int(n, field.p)
    return v, n // field.p ** v, _INF


def _capped_is_one(field, flat) -> bool:
    """Coefficient 0 of a capped form is 1 to its precision, as
    ``_capped_linear`` would find c_0 - 1: at the shift sigma = min(s, 0),
    r_0 p^(s - sigma) - p^(-sigma) vanishes modulo p^(A - sigma),
    A = min(A_0, prec), which holds outright when A <= sigma."""
    r, s, f, _ = flat
    sigma, A, p = min(s, 0), min(f[0], field.prec), field.p
    return A <= sigma or (r[0] * p ** (s - sigma) - p ** -sigma) \
        % p ** (A - sigma) == 0


def _capped_valuations(field, flat):
    """(i, v_i, exact) for each coefficient of a capped form that is not an
    exact zero; an O(p^k) zero (r_i = 0, A_i finite) gives its floor."""
    r, _, f, _ = flat
    return [(i, f[2 * i + 1], x != 0) for i, x in enumerate(r)
            if f[2 * i] != _INF]


def _convolve(xs, ys, n):
    """First n coefficients of the product of two integer polynomials,
    each with at least n coefficients, as n C-level dot products."""
    ys = ys[n - 1::-1]
    return [sum(map(mul, xs, ys[n - 1 - k:])) for k in range(n)]


# capped products of at least this many terms take their coefficient sums
# from one big-integer product (``_packed``) and their precision lists from
# the operands' affine runs (``_run_precisions``); for shorter ones the n
# dot products of ``_convolve`` and the pairwise minima cost less
# (``benchmarks/layers.py``, ``products`` rows)
_LONG = 20


def _packed(xs, ys, n):
    """First n coefficients of the product of two polynomials with
    nonnegative integer coefficients, each with at least n, from one
    big-integer product (Kronecker substitution; Harvey, arXiv:0712.4046).

    Each vector becomes one integer with a slot of w whole bytes per
    coefficient.  A coefficient of the product sums at most n products
    below 2^(bits(max x) + bits(max y)), so w bytes of
    bits(max x) + bits(max y) + bits(n) hold it and no slot carries into
    the next; ``int.to_bytes`` raises OverflowError on a negative entry,
    which would borrow, instead of giving wrong sums.  When ys is xs the
    vector is packed once and squared.
    """
    square = ys is xs
    xs = xs[:n]
    ys = xs if square else ys[:n]
    w = (max(xs).bit_length() + max(ys).bit_length()
         + n.bit_length() + 7) // 8

    def pack(zs):
        return int.from_bytes(b"".join(map(int.to_bytes, zs, repeat(w),
                                           repeat("little"))), "little")

    X = pack(xs)
    buf = (X * (X if square else pack(ys))).to_bytes(w * (2 * n - 1),
                                                      "little")
    return [int.from_bytes(buf[i:i + w], "little")
            for i in range(0, n * w, w)]


def _affine_runs(A) -> list:
    """(start, length, first value, slope) of each maximal run of finite
    entries of A on one line, exact zeros (infinite) left out."""
    runs, i, n = [], 0, len(A)
    while i < n:
        start, x = i, A[i]
        i += 1
        if x == _INF:
            continue
        slope = A[i] - x if i < n and A[i] != _INF else 0
        # an infinite A_i stops the run: inf - x is never the slope
        while i < n and A[i] - A[i - 1] == slope:
            i += 1
        runs.append((start, i - start, x, slope))
    return runs


def _block_minima(u, L: int) -> list:
    """The running minimum of u, restarted at every L-th entry."""
    out, m = [], _INF
    for i, x in enumerate(u):
        if x < m or not i % L:
            m = x
        out.append(m)
    return out


def _window_minima(u, L: int) -> list:
    """[min(u[max(b - L + 1, 0):b + 1]) for b < len(u)], from the prefix
    and suffix minima of consecutive blocks of L entries (Gil and Werman,
    IEEE PAMI 15, 1993): a window of L entries is a suffix of one block
    and a prefix of the next."""
    n = len(u)
    if L >= n:
        return _block_minima(u, n)
    u = u + [_INF] * (-n % L)       # whole blocks, read backwards too
    prefix = _block_minima(u, L)
    suffix = _block_minima(u[::-1], L)[::-1]
    return prefix[:L - 1] + [x if x < y else y for x, y in
                             zip(suffix, prefix[L - 1:n])]


def _runs_of(f, n: int):
    """(i0, d, the affine runs of A_{i0}, A_{i0 + d}, ...) for the first n
    precisions A of the [A, v] list f: i0 the least index of a finite
    entry and d the gcd of the distances of the others from it, so that
    the runs of a spread are not broken at its exact zeros; None when A
    has none."""
    A = f[:2 * n:2]
    if _INF not in A:
        return 0, 1, _affine_runs(A)
    finite = [i for i, x in enumerate(A) if x != _INF]
    if not finite:
        return None
    i0 = finite[0]
    # from a list, not an iterator: a tuple of arguments built from an
    # iterator is resized, and the tuple free lists keep such tuples
    d = gcd(*[i - i0 for i in finite]) or 1
    return i0, d, _affine_runs(A[i0::d])


def _run_precisions(fa, fb, n: int, square: bool):
    """The precision list of ``_capped_product`` from the affine runs of
    the operands' precisions, or None when they have too many runs.

    Its two terms are min over i + j = k of A_i + v'_j and of v_i + A'_j
    (one term for a square, whose two are equal).  Take the first: the
    finite A_i lie at i0 + d t (``_runs_of``), so for k = i0 + r + d q,
    r < d, it is the least of A_{i0 + d t} + w_{q - t} over t, with
    w_m = v'_{r + d m}.  A run from t0 of L entries on the line
    x + (t - t0) sigma gives at q the value x + (q - t0) sigma plus the
    least u_m = w_m - m sigma over the window q - t0 - L < m <= q - t0
    (``_window_minima``).  These are the minima of the same sums over the
    same pairs, regrouped, so the list is identical.
    """
    terms = [(_runs_of(fa, n), fb)]
    if not square:
        terms.append((_runs_of(fb, n), fa))
    # each run costs a few passes over n / d entries per column, against
    # the n^2 / 2 pairs of one term taken directly
    if 5 * sum(plan[1] * len(plan[2]) for plan, _ in terms if plan) > n:
        return None
    out = [_INF] * n
    for plan, f in terms:
        if plan is None:
            continue
        i0, d, runs = plan
        for r in range(min(d, n - i0)):
            col = f[2 * r + 1:2 * (n - i0):2 * d]     # v_r, v_{r + d}, ...
            for t0, L, x, slope in runs:
                m = len(col) - t0
                if m <= 0:
                    continue
                if slope:
                    u = list(map(sub, col[:m], range(0, m * slope, slope)))
                    line = range(x, x + m * slope, slope)
                else:
                    u, line = col[:m], repeat(x)
                k = i0 + r + d * t0
                out[k::d] = [y if y < z else z for y, z in zip(
                    out[k::d], map(add, _window_minima(u, L), line))]
    return out


def _capped_sums(field, a, b, n):
    """(s, m, values, precs): the first n coefficients of a * b over a
    CappedField before reduction, coefficient k values[k] p^(s - k m) +
    O(p^precs[k]), from the forms a and b, each of at least n
    coefficients; ``_capped_product`` reduces them.

    Both are brought to the greater of their scales m (``_capped_to``);
    then coefficient k is p^(s_a + s_b - k m) times the exact sum of the
    representatives' products r_i r'_j, i + j = k, known to absolute
    precision min over i + j = k of min(A_i + v_j, v_i + A_j): exactly
    what the chain of element adds and muls yields, so results agree
    with it digit for digit.  The series of a Böttcher build have
    valuations that fall (or rise) linearly, and at the scale their unit
    inverses give (``_capped_inverse``) each representative r_i = u_i
    p^(v_i - s + i m) holds about as many digits as its precision; at
    m = 0 it would grow with i by the slope.

    From ``_LONG`` terms on, the sums are read from one big-integer
    product (``_packed``): representatives are never negative.  And the
    precision list is the least of the two min-plus terms min(A_i + v_j)
    and min(v_i + A_j), each taken over the affine runs of its A list
    with sliding-window minima (``_run_precisions``): O(runs n) instead
    of O(n^2), and the same list, since each is a minimum over the same
    pairs.  Operands with too many runs for that to pay, and shorter
    products, take the pairs one by one.  A square (a is b, as
    ``TailSeries.__mul__`` passes x * x) packs once and takes one
    min-plus term, or the pairs with i <= k - i only: (i, k - i) and
    (k - i, i) give the same min(A_i + v_j, v_i + A_j).
    """
    square = a is b
    if a[3] != b[3]:
        m = max(a[3], b[3])
        a, b = _capped_to(field, a, m), _capped_to(field, b, m)
    (ra, sa, fa, m), (rb, sb, fb, _) = a, b
    precs = _run_precisions(fa, fb, n, square) if n >= _LONG else None
    if precs is None:
        # b's first n [A, v] pairs reversed, so that pairs (i, k - i) line
        # up as (A_i, v_j), (v_i, A_j); a square stops at i = k // 2
        starts = fb[2 * n - 1::-1]
        precs = [min(map(add, fa, starts[2 * (n - 1 - k):
                                         2 * (n - k + k // 2)
                                         if square else None]))
                 for k in range(n)]
    ra = ra[:n]
    rb = ra if square else rb[:n]
    sums = _packed if n >= _LONG else _convolve
    return sa + sb, m, sums(ra, rb, n), precs


def _capped_product(field, a, b, n):
    """The form of the first n coefficients of a * b: ``_capped_sums``
    reduced."""
    s, m, values, precs = _capped_sums(field, a, b, n)
    return _reduced(field, s, m, zip(values, precs))


def _capped_unreduced(field, a, b, n):
    """a * b as a form before reduction, for ``_capped_linear`` at an exact
    weight, which reads no valuation: ``_capped_sums`` with, for each
    valuation, the lower bound s - k m, whose least is s, so that
    ``_capped_to`` rescales the form without dividing."""
    s, m, values, precs = _capped_sums(field, a, b, n)
    f = [s] * (2 * n)
    f[::2] = precs
    if m:
        f[1::2] = range(s, s - n * m, -m)
    return values, s, f, m


def _slope(r, f) -> int:
    """The greatest integer t with v_i >= i t for every nonzero r_i with
    i >= 1, 0 if there is none: the steepest line of integer slope
    through the origin that stays under the valuations."""
    return min((f[2 * i + 1] // i for i in range(1, len(r)) if r[i]),
               default=0)


def _capped_inverse(field, a):
    """inv_0 = 1, inv_k = -sum_{j=1..min(k, J)} a_j inv_{k-j} over a
    CappedField, form in and out, with the precision rule of
    ``_capped_product`` for each sum.  J is the last coefficient that is
    not an exact zero, found by scanning back from the end, so a dense
    unit pays one comparison and a polynomial unit of degree J, as W's,
    O(J) per coefficient.

    The recurrence runs on integers at a scale m' with
    v(a_j) >= -j m' for j >= 1: there a_j = x_j p^(-j m'), so
    inv_k = y_k p^(-k m') with y_k = -sum x_j y_{k-j}, and the inverse is
    (y, 0, f, m').  Each y_k is reduced as it is found, by ``_reduced``
    at the shift -k m'.  m' is the steepest line under the valuations
    (``_slope``), never below the form's own m, not the line m - s,
    whose representatives would grow quadratically.
    """
    r, s, f_a, m = a
    M = len(r)
    J = M - 1
    while J and f_a[2 * J] == _INF:
        J -= 1
    step = max(m, -_slope(r, f_a))
    # a_J .. a_1 as x_j = r_j p^(s + j (m' - m)), and v_J, A_J .. v_1, A_1
    xs = _scaled(field, r[1:J + 1], s + step - m, step - m)[::-1]
    flat = f_a[2 * J + 1:1:-1]
    ys, f = [1], [field.prec, 0]              # inv_0 .. inv_{k-1}

    def sums():
        # _reduced reduces each inv_k and appends it to ys and f before
        # this generator resumes, so the sum for inv_{k+1} reads it
        for k in range(1, M):
            if k <= J:
                yield (-sum(map(mul, xs[J - k:], ys)),
                       min(map(add, flat[2 * (J - k):], f)))
            else:   # a_J .. a_1 against inv_{k-J} .. inv_{k-1}
                yield (-sum(map(mul, xs, ys[k - J:])),
                       min(map(add, flat, f[2 * (k - J):]), default=_INF))

    return _reduced(field, 0, step, sums(), ys, f)


def _exact_element(field, flat, i):
    """Coefficient i of an exact form as an element."""
    r, den, L = flat
    return ExactElement(field, Fraction(r[i], den * L ** i))


def _exact_normal(field, flat):
    """(the number of leading zeros, the form without them)."""
    r = flat[0]
    i = next((i for i, x in enumerate(r) if x), len(r))
    return i, _exact_window(field, flat, i, len(r) - i)


def _least_den(r, den, L):
    """The form (r, D, L) over the least D: r and D divided by their
    gcd."""
    g = gcd(den, *r) if den != 1 else 1
    return ([x // g for x in r] if g != 1 else r), den // g, L


def _geometric(r, m) -> list:
    """[r_i m^i]; no power of m past the last nonzero r_i is formed."""
    k = len(r)
    while k and not r[k - 1]:
        k -= 1
    out, x = [], 1
    for y in r[:k]:
        out.append(y * x)
        x *= m
    return out + r[k:]


def _exact_at(flat, L: int):
    """The same coefficients at scale lcm(L', L), L' the form's own: r_i
    times m^i, m = lcm(L', L) / L', over the least D."""
    r, den, own = flat
    m = L // gcd(L, own)
    return flat if m == 1 else _least_den(_geometric(r, m), den, own * m)


def _exact_window(field, flat, lo: int, n: int, d: int = 1):
    """n coefficients: those of the form from index lo, d apart, with zeros
    between them and past the end, over their least D (the coefficients
    left out can only inflate it).  Index lo moves to 0, so D takes
    L^lo; index i moves to d i, so r_i takes L^((d - 1) i)."""
    r, den, L = flat
    if not lo and d == 1 and n == len(r) and den == 1:
        return flat
    r = r[lo:lo - (-n // d)]
    if L != 1:
        den *= L ** lo
        if d > 1:
            r = _geometric(r, L ** (d - 1))
    rr = [0] * n
    rr[:d * len(r):d] = r
    return _least_den(rr, den, L)


def _exact_linear(field, terms, n: int):
    """The n coefficients of sum c x over the terms (c, k, x): x an exact
    form placed k coefficients up, c = (numerator, denominator) the
    weight; numerators over one common denominator, at the lcm of the
    forms' scales, a term placed k up taking L^k."""
    L = math.lcm(*[x[2] for _, _, x in terms])
    terms = [(c, k, _exact_window(field, _exact_at(x, L), 0, n - k))
             for c, k, x in terms]
    den = math.lcm(*[c_den * d for (_, c_den), _, (_, d, _) in terms])
    values = [0] * n
    for (c_num, c_den), k, (r, d, _) in terms:
        scale = c_num * (den // (c_den * d)) * L ** k
        values[k:] = map(add, values[k:], map(mul, r, repeat(scale)))
    return values, den, L


def _exact_valuations(field, flat):
    """(i, vp(r_i) - vp(D) - i vp(L), True) for each nonzero r_i of an
    exact form."""
    (r, den, L), p = flat, field.p
    vd, vl = _vp_int(den, p), _vp_int(L, p)
    return [(i, _vp_int(x, p) - vd - i * vl, True)
            for i, x in enumerate(r) if x]


def _exact_product(field, a, b, n):
    """The first n coefficients of a * b, from exact forms a and b, each of
    at least n coefficients: at one scale L, coefficient k is
    sum r_i r'_j / (D D' L^k), so the numerators are convolved."""
    L = math.lcm(a[2], b[2])
    ra, da, _ = _exact_window(field, _exact_at(a, L), 0, n)
    if a is b:
        rb, db = ra, da
    else:
        rb, db, _ = _exact_window(field, _exact_at(b, L), 0, n)
    return _convolve(ra, rb, n), da * db, L


def _exact_inverse(field, a):
    """inv_0 = 1, inv_k = -sum_{j=1..min(k, J)} a_j inv_{k-j} on
    integers, from an exact form (r, D, L) with coefficient 0 equal to 1
    and J its last nonzero numerator (see ``_capped_inverse``).  At scale
    L D its numerators are r_i D^i, and r_0 = D divides them all, so
    there its D is 1 (``_exact_at``): the coefficients times (L D)^k are
    integers, the recurrence holds for them, and the inverse is
    (inv, 1, L D)."""
    _, den, L = a
    r, _, L = _exact_at(a, L * den)
    J = len(r) - 1
    while J and not r[J]:
        J -= 1
    ra = r[J:0:-1]                                # a_J .. a_1
    inv = [1]
    for k in range(1, J + 1):
        inv.append(-sum(map(mul, ra[J - k:], inv)))
    for k in range(J + 1, len(r)):
        inv.append(-sum(map(mul, ra, inv[k - J:])))
    return inv, 1, L


# what the methods of ``TailSeries`` call on a backend's flat form
_Kernel = namedtuple("_Kernel", "flat one is_one valuations element normal "
                     "window weight sign linear product sums inverse at "
                     "scale")

_CAPPED = _Kernel(
    flat=_capped_flat, one=lambda field: ([1], 0, [field.prec, 0], 0),
    is_one=_capped_is_one, valuations=_capped_valuations,
    element=_capped_element, normal=_capped_normal,
    window=_capped_window, weight=lambda c: (c.v, c.unit, c.v + c.rel),
    sign=_capped_sign, linear=_capped_linear, product=_capped_product,
    sums=_capped_unreduced, inverse=_capped_inverse,
    at=lambda field, flat, L: _capped_to(field, flat, max(
        flat[3], _vp_int(L, field.p))),
    scale=lambda field, flat: field.p ** flat[3])

_EXACT = _Kernel(
    flat=lambda field, coeffs: (*_over_common([c.value for c in coeffs]),
                                1),
    one=lambda field: ([1], 1, 1),
    is_one=lambda field, flat: flat[0][0] == flat[1],
    valuations=_exact_valuations, element=_exact_element,
    normal=_exact_normal, window=_exact_window,
    weight=lambda c: (c.value.numerator, c.value.denominator),
    sign=lambda field, n: (n, 1), linear=_exact_linear,
    product=_exact_product, sums=_exact_product, inverse=_exact_inverse,
    at=lambda field, flat, L: _exact_at(flat, L),
    scale=lambda field, flat: flat[2])


def _kernel_of(field) -> _Kernel:
    """The kernel of field's backend; series refuse any other field."""
    if isinstance(field, CappedField):
        return _CAPPED
    if isinstance(field, ExactField):
        return _EXACT
    raise UsageError("series coefficients must lie in an ExactField or a "
                     "CappedField")


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def _trunc(x) -> int:
    """The truncation of a series x, or of the product a b for a pair
    (a, b): the lesser of a.trunc + b.ord and b.trunc + a.ord, as
    ``TailSeries.__mul__`` takes it."""
    if isinstance(x, TailSeries):
        return x.trunc
    a, b = x
    return min(a.trunc + b.ord, b.trunc + a.ord)


def weighted_sum(weights, terms, trunc: int | None = None) -> TailSeries:
    """sum_j weights[j] terms[j] in one pass, to the least truncation of
    the terms, cut to trunc: digit for digit (precision included) the
    chain of scalar products, sums and the cut, each coefficient reduced
    once instead of once per operation (``_capped_linear``).  Every sum
    of series is one: ``+``, ``-``, the residual and update of each
    Newton step, and each block of ``boettcher._compose_with``.

    A weight is a field element, whose term is skipped when it is an
    exact zero, or a nonzero int, exact (the kernel's ``sign``).  At an
    int weight a term may be a pair (a, b) for the product a b, which
    enters as the kernel's sums before reduction
    (``_capped_unreduced``): each coefficient is reduced once, in the
    sum, to a precision no greater than the product's, so the digits
    are the same.  Below its order a term adds nothing.
    """
    first = terms[0] if type(terms[0]) is TailSeries else terms[0][0]
    kernel, field = first._kernel, first.field
    least = min(map(_trunc, terms))
    if trunc is not None:
        least = min(least, trunc)
    parts = []
    for c, x in zip(weights, terms):
        if type(c) is int:
            c = kernel.sign(field, c)
        elif c.is_exact_zero:
            continue
        else:
            c = kernel.weight(c)
        if type(x) is TailSeries:
            parts.append((c, x.ord, x._flat))
        else:   # no sums when the product starts at or past the cut
            a, b = x
            ord_ = a.ord + b.ord
            parts.append((c, ord_, ord_ < least and kernel.sums(
                field, a._flat, b._flat, least - ord_)))
    lo = min([ord_ for _, ord_, _ in parts] + [least])
    return first._new(lo, kernel.linear(
        field, [(c, ord_ - lo, x) for c, ord_, x in parts if ord_ < least],
        least - lo), least)


def lagrange_invert(S: TailSeries) -> TailSeries:
    """Compositional inverse B with S(B) = B(S) = w + O(w^M).

    Needs ord == 1 and linear coefficient exactly 1.  Computed by Newton
    iteration on the identity S(B) - w = 0; if S has integral
    coefficients, so does B (only the linear coefficient 1 is ever
    inverted).
    """
    if not S.shifted(-1)._has_constant_one():
        raise UsageError("reversion needs leading term exactly w")
    M = S.trunc
    if M <= 2:
        return TailSeries.w_power(S.field, 1, M)
    # S' elementwise: k c_k embeds k with the cap's relative precision,
    # which no coefficient exceeds, so its precision is A + v_p(k)
    deriv = TailSeries(S.field, 0, [k * S.coefficient(k)
                                    for k in range(1, M)], M - 1)
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
    is zero to its truncation order.  The valuations are read from the
    flat form; with eps = a / b the minimum of v_k b + k a is taken in
    integers, and divided by b once.
    """
    a, b = D.eps.numerator, D.eps.denominator
    vals = S._kernel.valuations(S.field, S._flat)
    return Valuation._least_pairs((v * b + (S.ord + i) * a, exact)
                                  for i, v, exact in vals) * Fraction(1, b)


class PointValue(namedtuple("PointValue", "value err")):
    """A field element together with a rigorous error-bound valuation.

    The true value differs from ``value`` by something of valuation at
    least ``err``, a Valuation.
    """

    __slots__ = ()

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


def _as_point(S: TailSeries, z):
    """z as an element: an int or Fraction embedded in S's field, any
    other value (a base-field or extension element) as it is."""
    return S.field.embed(z) if isinstance(z, (int, Fraction)) else z


def evaluate(S: TailSeries, z, D: DiskSpec) -> PointValue:
    """Sum the stored terms at a point strictly inside the disk.

    For center "inf" the point is z and the series variable is w = 1/z;
    for center "zero" the series is summed at w = z directly.  The tail
    bound assumes the stored-coefficient Gauss bound extends to the
    unstored tail, which holds for series produced by the conjugacy
    constructions (their rescaled coefficients are integral).  At an
    exact zero w (the center of a disk about zero) the value is the
    constant term, exactly, with an infinite tail.  An int or Fraction
    point is embedded in S's field; field and extension elements are
    taken as they are.
    """
    z = _as_point(S, z)
    if D.center == "inf" and z.is_zero():
        raise DomainError("outside certified domain")
    w0 = z.inverse() if D.center == "inf" else z
    v0 = w0.valuation()
    if v0.is_infinite and v0.exact:
        return PointValue(w0.field.embed(S.coefficient(0)), Valuation(None))
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
    return PointValue(z - z if S.is_exact_zero
                      else poly_eval(S.coeffs, w0) * w0 ** S.ord, tail)


def agreement_order(a: TailSeries, b: TailSeries) -> int:
    """Smallest index with distinguishable coefficients, else min trunc:
    the first coefficient of a - b that is not zero."""
    d = a - b
    return next((d.ord + i for i, x in enumerate(d._flat[0]) if x), d.trunc)
