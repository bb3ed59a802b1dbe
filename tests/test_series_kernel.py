"""The series kernels checked against element-by-element arithmetic.

Series are stored flat: capped ones as integer representatives r_i, a
shift s, an [A, v] precision list and a scale p^m (coefficient i is
r_i p^(s - i m)), exact ones as integer numerators r_i over D L^i, at a
scale L and the least D for it.  Every operation on either backend is
compared, digit and precision alike, with ``Ref``, a series that stores
one element per coefficient and runs the element loops, and every result
must hold the one flat form its own coefficients give (at its scale);
forms at several scales, mixed in one operation, give the same
elements.  The shrinking-truncation Horner of
``TailSeries.compose``, ``TailSeries.spread`` and ``weighted_sum`` are
compared with the same oracle, the one-pass Newton update and
constant-term test with the chains they replace, and sums with a product
term with the product reduced first.
Capped results, the Böttcher series, the image omega(W) its build checks
and the inverse series included, are also checked against exact rational
arithmetic: no coefficient may claim more precision than it has.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import (CappedField, DiskSpec, ExactField, InternalError,
                      MonicPoly, PrecisionError, TailSeries, agreement_order,
                      gauss_norm, lagrange_invert)
from padicdyn.boettcher import _omega_inverse, _omega_series
from padicdyn.cli import element_json, series_json
from padicdyn.localfield import ExactElement, PadicElement
from padicdyn.series import (_INF, _LONG, _capped_product,
                             _convolve, _packed, _run_precisions, _trunc,
                             _window_minima, weighted_sum)

PRIMES = st.sampled_from([2, 3, 5, 7])


# -- the oracle: one element per coefficient ----------------------------------


class Ref:
    """A truncated series as a tuple of elements, with the element loops
    for every ring operation; method names follow ``TailSeries``."""

    def __init__(self, field, ord_, coeffs, trunc):
        coeffs = [field.embed(c) for c in coeffs]
        coeffs += [field.embed(0)] * (trunc - ord_ - len(coeffs))
        while coeffs and coeffs[0].is_exact_zero:
            coeffs.pop(0)
            ord_ += 1
        self.field, self.trunc = field, trunc
        self.ord = ord_ if coeffs else trunc
        self.coeffs = tuple(coeffs)

    @classmethod
    def of(cls, s):
        return cls(s.field, s.ord, s.coeffs, s.trunc)

    @property
    def is_exact_zero(self):
        return not self.coeffs

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def coefficient(self, k):
        return (self.coeffs[k - self.ord] if k >= self.ord
                else self.field.embed(0))

    def truncate(self, trunc):
        if trunc >= self.trunc:
            return self
        return Ref(self.field, min(self.ord, trunc),
                   self.coeffs[:max(trunc - self.ord, 0)], trunc)

    def _padded(self, trunc):
        if trunc <= self.trunc:
            return self.truncate(trunc)
        return Ref(self.field, self.ord, self.coeffs, trunc)

    def shifted(self, k):
        return Ref(self.field, self.ord + k, self.coeffs, self.trunc + k)

    def __add__(self, other):
        # below its order a series contributes an exact zero, and an
        # exact zero added to an element leaves it unchanged
        trunc = min(self.trunc, other.trunc)
        lo = min(self.ord, other.ord, trunc)
        return Ref(self.field, lo, [self.coefficient(k) + other.coefficient(k)
                                    for k in range(lo, trunc)], trunc)

    def __neg__(self):
        return Ref(self.field, self.ord, [-c for c in self.coeffs],
                   self.trunc)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Ref):
            c = self.field.embed(other)
            if c.is_exact_zero:
                return Ref(self.field, self.trunc, [], self.trunc)
            return Ref(self.field, self.ord, [a * c for a in self.coeffs],
                       self.trunc)
        trunc = min(self.trunc + other.ord, other.trunc + self.ord)
        ord_ = self.ord + other.ord
        out = [self.field.embed(0)] * max(trunc - ord_, 0)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                if i + j < len(out) and not (x.is_exact_zero
                                             or y.is_exact_zero):
                    out[i + j] = out[i + j] + x * y
        return Ref(self.field, min(ord_, trunc), out, trunc)

    def __pow__(self, n):
        result = Ref(self.field, 0, [1],
                     self.trunc + self.ord * max(n - 1, 0))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def derivative(self):
        if self.is_exact_zero:
            return Ref(self.field, 0, [], max(self.trunc - 1, 0))
        coeffs = [(self.ord + i) * c for i, c in enumerate(self.coeffs)]
        return Ref(self.field, max(self.ord - 1, 0),
                   coeffs[1:] if self.ord == 0 else coeffs, self.trunc - 1)

    def invert_unit(self):
        """inv_0 = 1, inv_k = -sum_{j=1..k} a_j inv_{k-j}."""
        field = self.field
        inv = [field.embed(1)] + [field.embed(0)] * (self.trunc - 1)
        for k in range(1, self.trunc):
            acc = field.embed(0)
            for j in range(1, k + 1):
                c = self.coefficient(j)
                if not c.is_exact_zero:
                    acc = acc + c * inv[k - j]
            inv[k] = -acc
        return Ref(field, 0, inv, self.trunc)

    def compose(self, inner):
        """Horner with every step kept to the full target order."""
        field = self.field
        s = max(inner.ord, 1)
        target = min(self.trunc * s, inner.trunc + max(self.ord - 1, 0) * s)
        acc = Ref(field, target, [], target)
        for k in range(self.trunc - 1, -1, -1):
            acc = (acc * inner).truncate(target)
            if k >= self.ord:
                c = self.coefficient(k)
                if not c.is_exact_zero and acc.trunc:
                    coeffs = list(acc.coeffs)
                    if acc.ord == 0:
                        coeffs[0] = coeffs[0] + c
                    else:
                        coeffs[:0] = [c] + [0] * (acc.ord - 1)
                    acc = Ref(field, 0, coeffs, acc.trunc)
        return acc.truncate(target)

    def nth_root(self, n):
        M = self.trunc
        x = Ref(self.field, 0, [1], min(2, M))
        t = x.trunc
        while True:
            xpow = (x ** (n - 1)).truncate(t)
            residual = (xpow * x).truncate(t) - self.truncate(t)
            if not residual.is_exact_zero:
                x = (x - residual * xpow.invert_unit()
                     * Fraction(1, n)).truncate(t)
            if t == M:
                break
            t = min(2 * t, M)
            x = x._padded(t)
        if not ((x ** n).truncate(M) - self).is_zero():
            raise InternalError("no convergence")
        return x

    def reverted(self):
        M = self.trunc
        w = Ref(self.field, 1, [1], M)
        if M <= 2:
            return w
        deriv = self.derivative()
        B = w.truncate(2)
        t = 2
        while True:
            residual = self.truncate(t).compose(B).truncate(t) - w.truncate(t)
            if not residual.is_exact_zero:
                unit = deriv.truncate(t - 1).compose(B).truncate(t - 1)
                B = (B - residual * unit.invert_unit()).truncate(t)
            if t == M:
                break
            t = min(2 * t, M)
            B = B._padded(t)
        if not (self.compose(B).truncate(M) - w).is_zero():
            raise InternalError("no convergence")
        return B

    def agreement(self, other):
        limit = min(self.trunc, other.trunc)
        for k in range(min(self.ord, other.ord, limit), limit):
            if not (self.coefficient(k) - other.coefficient(k)).is_zero():
                return k
        return limit


# -- random series ----------------------------------------------------------


@st.composite
def capped_fields(draw):
    return CappedField(draw(PRIMES), draw(st.integers(1, 8)))


@st.composite
def capped_elements(draw, field):
    """Exact zeros, O(p^k) zeros and nonzero cosets of any valuation."""
    kind = draw(st.sampled_from(["exact-zero", "zero", "unit", "unit",
                                 "unit"]))
    if kind == "exact-zero":
        return PadicElement.exact_zero(field)
    v = draw(st.integers(-4, 6))
    if kind == "zero":
        return PadicElement._zero(field, v)
    rel = draw(st.integers(1, field.prec))
    unit = draw(st.integers(1, field.p ** rel - 1))
    return PadicElement._make(field, v, unit, rel)


@st.composite
def exact_elements(draw, field):
    """Rationals with powers of p (and other factors) in the denominator."""
    num = draw(st.integers(-60, 60))
    den = field.p ** draw(st.integers(0, 3)) * draw(st.sampled_from([1, 2,
                                                                     3, 7]))
    return field.embed(Fraction(num, den))


@st.composite
def series(draw, field, elements, max_ord=3):
    ord_ = draw(st.integers(0, max_ord))
    coeffs = draw(st.lists(elements(field), min_size=0, max_size=10))
    trunc = ord_ + len(coeffs) + draw(st.integers(0, 2))
    return TailSeries(field, ord_, coeffs, trunc)


@st.composite
def units(draw, field, elements, one, ord_=0, max_size=11):
    """w^ord_ times (a term indistinguishable from 1, then arbitrary
    terms)."""
    rest = draw(st.lists(elements(field), min_size=0, max_size=max_size))
    return TailSeries(field, ord_, [one] + rest, ord_ + 1 + len(rest))


@st.composite
def inner_series(draw, field, elements):
    """Order 1 to 3 with a truncation often below the composition target,
    or an exact zero (whose order is its truncation, possibly 0)."""
    if draw(st.integers(0, 9)) == 0:
        return TailSeries.zero(field, draw(st.integers(0, 3)))
    ord_ = draw(st.integers(1, 3))
    coeffs = draw(st.lists(elements(field), min_size=0, max_size=8))
    trunc = ord_ + len(coeffs) + draw(st.integers(0, 2))
    return TailSeries(field, ord_, coeffs, trunc)


@st.composite
def sparse_units(draw, field, elements, one):
    """Units as the inverses meet them: 1 to 3 terms, or more with exact
    zeros inside and a polynomial's trailing exact zeros after its last
    drawn coefficient (as W's unit, 1 + a_{d-1} w + ... + a_0 w^d)."""
    size = draw(st.one_of(st.integers(1, 3), st.integers(4, 24)))
    degree = draw(st.integers(0, size - 1))
    rest = [draw(st.one_of(elements(field), st.just(field.zero())))
            for _ in range(degree)]
    return TailSeries(field, 0, [one] + rest, size)


def capped_one(data, field):
    """1 + O(p^rel) for a drawn rel."""
    return PadicElement._make(field, 0, 1, data.draw(st.integers(
        1, field.prec)))


def same(x, y):
    """x (a TailSeries) encodes as the oracle's y and holds the one flat
    form its own coefficients give at x's scale: capped, the least shift
    and reduced representatives at p^m; exact, the least D at L."""
    assert series_json(x) == series_json(y)
    rebuilt = TailSeries(x.field, x.ord, x.coeffs, x.trunc)
    if isinstance(x.field, ExactField):
        rebuilt = rebuilt._rescaled(x._flat[2])
    else:
        rebuilt = rebuilt._rescaled(x.field.p ** x._flat[3])
    assert x._flat == rebuilt._flat


def backend_draws(data, backend):
    """(field, element strategy, a function drawing 1) of a backend."""
    if backend == "capped":
        field = data.draw(capped_fields())
        return field, capped_elements, lambda: capped_one(data, field)
    field = ExactField(data.draw(PRIMES))
    return field, exact_elements, field.one


def outcome(op, *args):
    """op(*args), or the kind of error it raised."""
    try:
        return op(*args)
    except (InternalError, PrecisionError, ZeroDivisionError) as exc:
        return type(exc)


def same_outcome(x, y):
    if isinstance(x, type) or isinstance(y, type):
        assert x is y
    else:
        same(x, y)


# -- the flat capped form against the element loops ---------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_capped_product_matches_element_loop(data):
    field = data.draw(capped_fields())
    a = data.draw(series(field, capped_elements))
    b = data.draw(series(field, capped_elements))
    same(a * b, Ref.of(a) * Ref.of(b))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_capped_inverse_matches_recurrence(data):
    """Dense units, and units with interior and trailing exact zeros,
    whose sums stop at the last coefficient that is not one, at scales
    p^0, p, p^3 and a wrong one."""
    field = data.draw(capped_fields())
    one = capped_one(data, field)
    a = data.draw(st.one_of(units(field, capped_elements, one),
                            sparse_units(field, capped_elements, one)))
    a = a._rescaled(field.p ** data.draw(CAPPED_SCALES))
    same(a.invert_unit(), Ref.of(a).invert_unit())


@pytest.mark.parametrize("backend", ["capped", "exact"])
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ring_operations_match_element_loops(backend, data):
    field, elements, _ = backend_draws(data, backend)
    a = data.draw(series(field, elements))
    b = data.draw(series(field, elements))
    c = data.draw(elements(field))
    k = data.draw(st.integers(0, 14))
    ra, rb = Ref.of(a), Ref.of(b)
    same(a, ra)
    same(a + b, ra + rb)
    same(a - b, ra - rb)
    same(-a, -ra)
    same(a * c, ra * c)
    same(c * a, ra * c)
    same(a * 3, ra * 3)
    same(a ** 3, ra ** 3)
    same(a.truncate(k), ra.truncate(k))
    same(a._padded(k), ra._padded(k))
    same(a.shifted(k), ra.shifted(k))
    assert agreement_order(a, b) == ra.agreement(rb)
    assert agreement_order(a, a + b) == ra.agreement(ra + rb)
    assert a.is_zero() == ra.is_zero()
    assert (a - a).is_zero() == (ra - ra).is_zero()
    fresh = a.shifted(0)    # no elements built yet
    assert [element_json(fresh.coefficient(j)) for j in range(a.trunc)] \
        == [element_json(ra.coefficient(j)) for j in range(a.trunc)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_capped_compose_matches_full_horner(data):
    field = data.draw(capped_fields())
    outer = data.draw(series(field, capped_elements))
    inner = data.draw(inner_series(field, capped_elements))
    same(outer.compose(inner), Ref.of(outer).compose(Ref.of(inner)))


@pytest.mark.parametrize("backend", ["capped", "exact"])
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_newton_iterations_match_element_loops(backend, data):
    field, elements, one = backend_draws(data, backend)
    n = data.draw(st.integers(2, 7).filter(lambda n: n % field.p))
    a = data.draw(units(field, elements, one(), max_size=9))
    same_outcome(outcome(a.nth_root, n), outcome(Ref.of(a).nth_root, n))
    s = data.draw(units(field, elements, one(), ord_=1, max_size=7))
    same_outcome(outcome(lagrange_invert, s), outcome(Ref.of(s).reverted))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_capped_spread_matches_composition_with_power(data):
    field = data.draw(capped_fields())
    a = data.draw(series(field, capped_elements))
    d = data.draw(st.integers(1, 4))
    power = Ref(field, d, [1], d * a.trunc + 1)
    same(a.spread(d), Ref.of(a).compose(power))


def weighted_chain(weights, terms):
    """sum_j weights[j] terms[j] as one scalar product and one sum per
    term, from an exact zero at the least truncation; an int weight is
    embedded, with the cap's relative precision."""
    trunc = min(x.trunc for x in terms)
    total = Ref(terms[0].field, trunc, [], trunc)
    for c, x in zip(weights, terms):
        if isinstance(c, int) or not c.is_exact_zero:
            total = total + Ref.of(x) * c
    return total


# exact int weights, with p^1 in them for p = 2 and 3
INT_WEIGHTS = st.sampled_from([1, -1, 2, -3])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_capped_weighted_sum_matches_chain(data):
    field = data.draw(capped_fields())
    terms = data.draw(st.lists(series(field, capped_elements), min_size=1,
                               max_size=4))
    weights = [data.draw(st.one_of(capped_elements(field), INT_WEIGHTS))
               for _ in terms]
    same(weighted_sum(weights, terms), weighted_chain(weights, terms))


# -- one-pass Newton steps ----------------------------------------------------


@pytest.mark.parametrize("backend", ["capped", "exact"])
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_pass_newton_update_is_the_chain(backend, data):
    """x - c y to order t is one linear pass (``weighted_sum`` with x at
    the int weight 1), and a residual x - y to t another: the same
    elements as the chains of operations and cuts."""
    if backend == "capped":
        field = CappedField(data.draw(PRIMES), data.draw(st.integers(1, 20)))
        elements = capped_elements
    else:
        field = ExactField(data.draw(PRIMES))
        elements = exact_elements
    x, y = (data.draw(series(field, elements)) for _ in range(2))
    c = data.draw(elements(field))
    t = data.draw(st.integers(0, min(x.trunc, y.trunc)))
    chain = (x - y * c).truncate(t)
    fused = weighted_sum((1, -c), (x, y), t)
    assert fused.trunc == chain.trunc == t
    assert fused.identical_to(chain, t)
    same(fused, (Ref.of(x) - Ref.of(y) * c).truncate(t))
    residual = weighted_sum((1, -1), (x, y), t)
    assert residual.identical_to(x.truncate(t) - y.truncate(t), t)
    same(residual, (Ref.of(x) - Ref.of(y)).truncate(t))


# -- product terms: a product summed before reduction -------------------------


@st.composite
def product_operands(draw, field, elements):
    """A series of 0 to 6 coefficients or of about _LONG, on either side of
    it (random ones, with O(p^k) zeros and exact zeros, or capped ones on
    valuation lines), from w^0 to w^2, at a drawn scale: p^0, p or p^2
    when capped."""
    n = draw(st.one_of(st.integers(0, 6), st.integers(_LONG - 2, _LONG + 4)))
    ord_ = draw(st.integers(0, 2))
    if isinstance(field, CappedField):
        if n and draw(st.booleans()):
            x = draw(lined_series(field, n))
        else:
            x = TailSeries(field, ord_, draw(st.lists(
                elements(field), min_size=n, max_size=n)), ord_ + n)
        return x._rescaled(field.p ** draw(st.integers(0, 2)))
    x = TailSeries(field, ord_, draw(st.lists(
        elements(field), min_size=n, max_size=n)), ord_ + n)
    return x._rescaled(draw(scale_draws(field.p)))


def form(x):
    return x.ord, x.trunc, x._flat


@pytest.mark.parametrize("backend", ["capped", "exact"])
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_product_terms_are_the_product_then_the_sum(backend, data):
    """A sum with a product term (a, b) at an int weight, the product
    summed before reduction, has the flat form (digits, precisions,
    valuations, scale) of a * b reduced first and then summed, and the
    element loops' coefficients: operands at different scales, squares
    (a is b), lengths on both sides of _LONG, the product k coefficients
    above or below the other term, which has an int or element weight."""
    field, elements, _ = backend_draws(data, backend)
    a = data.draw(product_operands(field, elements))
    b = a if data.draw(st.booleans()) else data.draw(
        product_operands(field, elements))
    x = data.draw(product_operands(field, elements)).shifted(
        data.draw(st.integers(0, 3)))
    k = data.draw(INT_WEIGHTS)
    t = data.draw(st.integers(0, min(x.trunc, _trunc((a, b)))))
    fused = weighted_sum((1, k), (x, (a, b)), t)
    assert form(fused) == form(weighted_sum((1, k), (x, a * b), t))
    same(fused, (Ref.of(x) + Ref.of(a) * Ref.of(b) * k).truncate(t))
    assert form(weighted_sum((1, -1), (x, (a, b)))) == form(x - a * b)
    weights = [data.draw(st.one_of(elements(field), INT_WEIGHTS)), 1]
    assert form(weighted_sum(weights, [x, (a, b)], t)) == form(
        weighted_sum(weights, [x, a * b], t))


def test_product_term_below_the_sum_scale_pinned():
    """A product term at scale 5 summed with a series at scale 25: the
    unreduced product, a square or not, is brought to the greater scale,
    its coefficient 0 a unit, and gives the digits of the reduced
    product."""
    field = CappedField(5, 6)
    a = TailSeries(field, 0, [2, Fraction(1, 5), Fraction(3, 25)], 3)
    x = TailSeries(field, 0, [1, Fraction(1, 25), Fraction(1, 625)], 3)
    a, x = a._rescaled(5), x._rescaled(25)
    for b in (a, TailSeries(field, 0, a.coeffs, 3)._rescaled(5)):
        assert form(weighted_sum((1, 1), (x, (a, b)), 3)) == form(x + a * b)


def constant_one_by_linear(x):
    """The definition the direct test replaces: c_0 - 1, as one linear
    combination, vanishes to its precision."""
    if x.ord or not x.trunc:
        return False
    kernel = x._kernel
    terms = [(kernel.sign(x.field, 1), 0,
              kernel.window(x.field, x._flat, 0, 1)),
             (kernel.sign(x.field, -1), 0, kernel.one(x.field))]
    return not any(kernel.linear(x.field, terms, 1)[0])


def pinned_constants():
    """(series, whether its constant term is 1) over CappedField(3, 4)
    and ExactField(3), one for each case of the direct test."""
    K = CappedField(3, 4)
    zero, make = PadicElement._zero, PadicElement._make
    one = make(K, 0, 1, 4)
    E = ExactField(3)
    return [
        ([PadicElement.exact_zero(K), one], False),    # exact zero: ord 1
        ([zero(K, 2), one], False),                    # O(3^2) zero
        ([zero(K, 6)], False),                         # A_0 = 6 > prec
        ([make(K, 1, 1, 4)], False),                   # 3: s = 1, A_0 > prec
        ([zero(K, -1)], True),                         # A_0 = sigma = -1
        ([zero(K, -3), make(K, -3, 1, 4)], True),      # A_0 = sigma = -3
        ([zero(K, -2), make(K, -3, 1, 4)], True),      # A_0 = -2 > sigma
        ([make(K, 0, 1, 2), make(K, -2, 5, 4)], True),   # s = -2 < 0
        ([make(K, 0, 4, 4), make(K, -2, 5, 4)], False),  # 4, s = -2
        ([make(K, 0, 10, 2)], True),                   # 1 + O(3^2)
        ([E.embed(1), E.embed(Fraction(1, 9))], True),
        ([E.embed(Fraction(2, 2)), E.embed(Fraction(5, 3))], True),
        ([E.embed(Fraction(1, 3)), E.embed(1)], False),
        ([E.embed(0), E.embed(1)], False),             # exact zero: ord 1
    ]


@pytest.mark.parametrize("coeffs, expected", pinned_constants())
def test_has_constant_one_pinned(coeffs, expected):
    x = TailSeries(coeffs[0].field, 0, coeffs, len(coeffs) + 1)
    assert x._has_constant_one() is constant_one_by_linear(x) is expected


@pytest.mark.parametrize("backend", ["capped", "exact"])
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_has_constant_one_is_the_linear_definition(backend, data):
    if backend == "capped":
        field = CappedField(data.draw(PRIMES), data.draw(st.integers(1, 20)))
        elements = capped_elements
        lead = st.one_of(capped_elements(field), st.builds(
            PadicElement._zero, st.just(field), st.integers(-4, 25)),
            st.just(field.one()), st.builds(
                lambda rel, k: PadicElement._make(
                    field, 0, 1 + field.p ** k, rel),
                st.integers(1, field.prec), st.integers(1, 22)))
    else:
        field = ExactField(data.draw(PRIMES))
        elements = exact_elements
        lead = st.one_of(exact_elements(field), st.just(field.one()))
    coeffs = [data.draw(lead)] + data.draw(st.lists(elements(field),
                                                    max_size=6))
    x = TailSeries(field, 0, coeffs, len(coeffs) + data.draw(
        st.integers(0, 2)))
    assert x._has_constant_one() is constant_one_by_linear(x)


# -- long products on a valuation line ----------------------------------------


@st.composite
def lined_series(draw, field, n, at_scale=False):
    """n coefficients whose valuations follow one or two lines of integer
    slope (coefficients like p^(-k) or p^k, a kink between), some
    coefficients a few digits above the line, with O(p^k) zeros and exact
    zeros among them; at_scale brings the form to the scale p^m of its
    steepest falling line, m = -slope, as a build takes its scale from
    its map."""
    slopes = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=2))
    kink = draw(st.integers(0, n))
    v = draw(st.integers(-5, 5))
    coeffs = []
    for i in range(n):
        # the first stays nonzero, so that the product has n terms
        kind = draw(st.sampled_from(["line"] * 8 + ["zero", "exact-zero"]
                                    if i else ["line"]))
        if kind == "exact-zero":
            coeffs.append(PadicElement.exact_zero(field))
        elif kind == "zero":
            coeffs.append(PadicElement._zero(field, v + draw(st.integers(
                0, field.prec))))
        else:
            rel = draw(st.integers(1, field.prec))
            coeffs.append(PadicElement._make(
                field, v + draw(st.sampled_from([0, 0, 0, 1, 2])),
                draw(st.integers(1, field.p ** rel - 1)), rel))
        v += slopes[-1] if i >= kink else slopes[0]
    ord_ = draw(st.integers(0, 2))
    x = TailSeries(field, ord_, coeffs, ord_ + n + draw(st.integers(0, 2)))
    return x._rescaled(field.p ** max(0, -min(slopes))) if at_scale else x


# long enough for packed sums and run precisions, with representatives
# that at scale 1 would grow by up to 3 digits per index
LONG_TERMS = st.integers(96, 104)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_long_capped_product_matches_element_loop(data):
    """Long products of series at the scale of their valuation line (each
    operand its own, so that one is brought to the other's): digits and
    precisions are those of the element loop."""
    field = CappedField(data.draw(PRIMES), data.draw(st.integers(1, 8)))
    n = data.draw(LONG_TERMS)
    a = data.draw(lined_series(field, n, at_scale=True))
    b = data.draw(lined_series(field, n, at_scale=True))
    same(a * b, Ref.of(a) * Ref.of(b))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_long_capped_square_matches_element_loop(data):
    """A long square (a is b) at the scale of its line packs once and takes
    its precisions over half the pairs; digits and precisions are the
    element loop's."""
    field = CappedField(data.draw(PRIMES), data.draw(st.integers(1, 8)))
    a = data.draw(lined_series(field, data.draw(LONG_TERMS), at_scale=True))
    same(a * a, Ref.of(a) * Ref.of(a))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_capped_products_about_the_packing_crossover(data):
    """From _LONG terms on, the sums come from one big-integer product;
    products and squares on either side of that match the element loop."""
    field = CappedField(data.draw(PRIMES), data.draw(st.integers(1, 8)))
    n = data.draw(st.integers(_LONG - 2, _LONG + 8))
    a = data.draw(lined_series(field, n))
    b = data.draw(lined_series(field, n))
    ra, rb = Ref.of(a), Ref.of(b)
    same(a * b, ra * rb)
    same(a * a, ra * ra)
    same(a ** 3, ra ** 3)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_sums_equal_dot_products(data):
    """The Kronecker-packed sums are the dot products of ``_convolve`` on
    nonnegative vectors of any widths, zeros anywhere, squares included."""
    m = data.draw(st.integers(1, 40))
    bits = st.sampled_from([0, 1, 7, 8, 9, 60, 200])
    entries = st.one_of(st.just(0), bits.flatmap(
        lambda b: st.integers(0, 2 ** b)))
    xs = data.draw(st.lists(entries, min_size=m, max_size=m + 3))
    ys = data.draw(st.lists(entries, min_size=m, max_size=m + 3))
    n = data.draw(st.integers(1, m))
    assert _packed(xs, ys, n) == _convolve(xs, ys, n)
    assert _packed(xs, xs, n) == _convolve(xs, xs, n)


def test_packed_sums_edge_cases():
    assert _packed([5], [7], 1) == [35]
    assert _packed([0] * 9, [0] * 9, 9) == [0] * 9
    assert _packed([0] * 4, [3, 1, 4, 1], 4) == [0] * 4
    xs = [2 ** 70, 0, 0, 1, 0, 2 ** 8 - 1]
    assert _packed(xs, xs, 6) == _convolve(xs, xs, 6)
    assert _packed(xs, [0, 1, 0, 0, 2 ** 90, 0], 6) == _convolve(
        xs, [0, 1, 0, 0, 2 ** 90, 0], 6)
    # a negative entry would borrow from its neighbour: refused
    with pytest.raises(OverflowError):
        _packed([3, -1, 2], [1, 1, 1], 3)


# -- precision lists from affine runs -----------------------------------------


def pairwise_precisions(fa, fb, n):
    """The precision list of a product, pair by pair: coefficient k is
    known to min over i + j = k of min(A_i + v'_j, v_i + A'_j)."""
    return [min(min(fa[2 * i] + fb[2 * (k - i) + 1],
                    fa[2 * i + 1] + fb[2 * (k - i)]) for i in range(k + 1))
            for k in range(n)]


@st.composite
def affine_series(draw, field, n):
    """n coefficients whose precisions A_i lie on a line of slope -2, -1,
    0 or 1, with O(p^k) zeros, a few entries off the line, exact zeros at
    the places not divisible by d (a spread, d of 1, 2 or 3) and trailing
    exact zeros (padding)."""
    slope = draw(st.sampled_from([-2, -1, 0, 1]))
    A0 = draw(st.integers(-4, 8))
    d = draw(st.sampled_from([1, 1, 2, 3]))
    pad = draw(st.integers(0, n // 4))
    off = set(draw(st.lists(st.integers(0, n - 1), max_size=3)))
    coeffs = []
    for i in range(n):
        if i and (i % d or i >= n - pad):
            coeffs.append(PadicElement.exact_zero(field))
            continue
        A = A0 + i * slope + (draw(st.integers(1, 3)) if i in off else 0)
        if draw(st.integers(0, 6)) == 0:
            coeffs.append(PadicElement._zero(field, A))
        else:
            rel = draw(st.integers(1, field.prec))
            coeffs.append(PadicElement._make(
                field, A - rel, draw(st.integers(1, field.p ** rel - 1)),
                rel))
    ord_ = draw(st.integers(0, 1))
    return TailSeries(field, ord_, coeffs, ord_ + n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_capped_product_precisions_from_affine_runs(data):
    """From _LONG terms on, a product takes its precision list from the
    operands' affine runs (``series._run_precisions``); digits and
    precisions are the element loop's, the list is the pairwise one, and
    so is the runs route's own wherever it does not decline."""
    field = CappedField(data.draw(PRIMES), data.draw(st.integers(1, 8)))
    n = data.draw(st.integers(_LONG - 4, 104))
    a = data.draw(affine_series(field, n))
    b = a if data.draw(st.booleans()) else data.draw(affine_series(field, n))
    ab = a * b
    same(ab, Ref.of(a) * Ref.of(b))
    want = pairwise_precisions(a._flat[2], b._flat[2], n)
    assert ab._flat[2][::2] == want
    route = _run_precisions(a._flat[2], b._flat[2], n, a is b)
    assert route is None or route == want


def pinned_operands(n):
    """(name, f, f') of [A, v] lists for the runs route's edge cases."""
    def flat(specs):      # (A, v) per coefficient, None an exact zero
        return [x for spec in specs for x in (spec or (_INF, _INF))]

    line = flat([(20 - i, 14 - i) for i in range(n)])
    isolated = {0: (9, 3), 2: (7, 7), 5: (4, 1)}      # O(p^7) zero at 2
    return [
        ("an all-exact-zero operand", flat([None] * n), line),
        ("runs of one coefficient",
         flat([isolated.get(i, (30 - 2 * i, 25 - 2 * i) if i >= 9
                            else None) for i in range(n)]), line),
        ("a run that ends at n - 1",
         flat([(6 + i, 2 + i) if i < 12 else (40 - i, 33 - i)
               for i in range(n)]), line),
        ("a window longer than what remains",
         flat([(10 - i, 4 - i) if i % 2 == 0 else None for i in range(n)]),
         flat([(5 + i, 1 + i) if i % 3 else (5 + i, 5 + i)
               for i in range(n)])),
    ]


@pytest.mark.parametrize("n", [31, 97])
def test_run_precisions_pinned(n):
    """Each case takes the runs route, both ways round and as a square,
    and gives the pairwise list."""
    field = CappedField(5, 8)
    for name, fa, fb in pinned_operands(n):
        for x, y in ((fa, fb), (fb, fa), (fa, fa)):
            assert _run_precisions(x, y, n, x is y) == pairwise_precisions(
                x, y, n), name
        want = pairwise_precisions(fa, fb, n)
        r = [0] * n
        _, _, f, _ = _capped_product(field, (r, 0, fa, 0), (r, 0, fb, 0), n)
        assert f[::2] == want, name


def test_window_minima_is_the_sliding_minimum():
    values = [3, _INF, -1, 4, 1, 5, _INF, 9, -2, 6, 5, 3, 5]
    for n in range(len(values) + 1):
        u = values[:n]
        for L in range(1, n + 3):
            assert _window_minima(u, L) == [
                min(u[max(b - L + 1, 0):b + 1]) for b in range(n)], (n, L)


# -- capped forms at a scale p^m ----------------------------------------------


# 7 is steeper than any line ``lined_series`` draws: a wrong scale
CAPPED_SCALES = st.sampled_from([0, 1, 3, 7])


@st.composite
def scaled_capped(draw, field):
    """A capped series, random or on valuation lines, brought to a drawn
    scale p^m: coefficient i of its form is r_i p^(s - i m)."""
    x = draw(st.one_of(series(field, capped_elements),
                       st.integers(1, 12).flatmap(
                           lambda n: lined_series(field, n))))
    return x._rescaled(field.p ** draw(CAPPED_SCALES))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_capped_kernel_at_any_scale_matches_element_loops(data):
    """Products, squares, cubes, sums, weighted sums, cuts, shifts and
    spreads of capped forms at scales p^0, p, p^3 and a
    wrong one, the two operands at different scales as often as not, give
    the element loops' digits and precisions; Gauss norms, read from the
    form, are those at scale 1, and the same series at two scales is
    identical to itself."""
    field = data.draw(capped_fields())
    a, b = (data.draw(scaled_capped(field)) for _ in range(2))
    ra, rb = Ref.of(a), Ref.of(b)
    same(a, ra)
    rebuilt = TailSeries(field, a.ord, a.coeffs, a.trunc)
    for eps in (Fraction(-1, 2), Fraction(0), Fraction(3, 2)):
        g, h = (gauss_norm(x, DiskSpec("inf", eps)) for x in (a, rebuilt))
        assert (g, g.exact) == (h, h.exact)
    same(a * b, ra * rb)
    same(a * a, ra * ra)
    same(a ** 3, ra ** 3)
    same(a + b, ra + rb)
    same(a - b, ra - rb)
    weights = [data.draw(capped_elements(field)) for _ in "ab"]
    same(weighted_sum(weights, [a, b]), weighted_chain(weights, [a, b]))
    k = data.draw(st.integers(0, 14))
    same(a._padded(k), ra._padded(k))
    same(a.shifted(k), ra.shifted(k))
    d = data.draw(st.integers(1, 4))
    same(a.spread(d), ra.compose(Ref(field, d, [1], d * a.trunc + 1)))
    other = rebuilt._rescaled(field.p ** data.draw(CAPPED_SCALES))
    assert a.identical_to(other, a.trunc) and other.identical_to(a, a.trunc)


@pytest.mark.parametrize("lined", [True, False])
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_capped_inverse_at_any_scale(lined, data):
    """A unit whose coefficient j has valuation at least -j m is at its
    scale p^m (shift 0) and is inverted there; any other unit at p^m
    (shift below 0) is inverted on the steepest line under its
    valuations.  Both give the element loop's digits and precisions."""
    field = data.draw(capped_fields())
    m = data.draw(CAPPED_SCALES)
    one = capped_one(data, field)
    if lined:
        rest = [data.draw(st.one_of(
            st.just(PadicElement.exact_zero(field)),
            st.builds(PadicElement._zero, st.just(field),
                      st.integers(-j * m, -j * m + 3)),
            st.builds(PadicElement._make, st.just(field),
                      st.integers(-j * m, -j * m + 3),
                      st.integers(1, field.p ** field.prec - 1),
                      st.just(field.prec))))
            for j in range(1, data.draw(st.integers(0, 11)) + 1)]
        a = TailSeries(field, 0, [one] + rest, 1 + len(rest))._rescaled(
            field.p ** m)
        assert a._flat[1] == 0
    else:
        a = data.draw(units(field, capped_elements, one))._rescaled(
            field.p ** m)
    same(a.invert_unit(), Ref.of(a).invert_unit())


def test_capped_form_strips_exact_zeros_at_its_scale():
    """The coefficients of 1 + 0 w + 3/25 w^2 + 2/125 w^3 at scale 5 from
    index 1 start with an exact zero, which the form strips: index 1
    moves to 0, so the shift takes m."""
    field = CappedField(5, 4)
    make = PadicElement._make
    a = TailSeries(field, 0, [make(field, 0, 1, 4),
                              PadicElement.exact_zero(field),
                              make(field, -2, 3, 4), make(field, -3, 2, 4)],
                   4)._rescaled(5)
    assert a._flat[3] == 1
    tail = a._new(0, a._kernel.window(field, a._flat, 1, 3), 3)
    assert (tail.ord, tail._flat[3]) == (1, 1)
    same(tail, Ref(field, 0, a.coeffs[1:], 3))


def test_identical_to_across_capped_scales_pinned():
    field = CappedField(5, 6)
    make = PadicElement._make
    a = TailSeries(field, 1, [make(field, 0, 1, 6), make(field, -1, 2, 6),
                              PadicElement._zero(field, 3),
                              make(field, -3, 7, 4)], 6)
    b, c = a._rescaled(5), a._rescaled(125)
    assert [x._flat[3] for x in (a, b, c)] == [0, 1, 3]
    assert [x._flat[1] for x in (a, b, c)] == [-3, 0, 0]
    assert a._flat != b._flat != c._flat
    assert a.identical_to(b, 6) and b.identical_to(c, 6)
    assert c.identical_to(a, 6)
    changed = a.replace_coefficient(3, make(field, 3, 1, 6))._rescaled(125)
    assert b.identical_to(changed, 3) and not b.identical_to(changed, 4)


# -- over ExactField ----------------------------------------------------------


def created_rationals(monkeypatch):
    """A one-item list counting the ExactElements and Fractions made from
    now on."""
    count = [0]
    init, new = ExactElement.__init__, Fraction.__new__

    def counted_init(self, *args):
        count[0] += 1
        init(self, *args)

    def counted_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(ExactElement, "__init__", counted_init)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    return count


def test_exact_operations_make_no_rationals(monkeypatch):
    """Exact series work on integer numerators: no operation makes an
    element or a Fraction until coefficients are read, and a Newton
    iteration makes only its scalar 1/n, once per step."""
    field = ExactField(5)
    a = TailSeries(field, 0, [1, Fraction(2, 5), -3, Fraction(1, 7), 4], 5)
    b = TailSeries(field, 1, [Fraction(3, 25), 0, 6, Fraction(-1, 2)], 6)
    weights = [field.embed(2), field.embed(Fraction(1, 5))]
    count = created_rationals(monkeypatch)
    results = [a + b, a - b, -a, a * b, a.invert_unit(), a.truncate(3),
               a._padded(8), a.shifted(2), a.spread(3),
               weighted_sum(weights, [a, b]), weighted_sum(
                   (2, -3), (a, (a, b))), a.compose(b), a ** 3,
               TailSeries.one(field, 4), TailSeries.w_power(field, 2, 6)]
    assert agreement_order(a, a + b) == 1 and not a.is_zero()
    assert count[0] == 0
    M = 64
    a._padded(M).nth_root(3)
    assert count[0] <= 2 * M.bit_length()
    assert all(c is not None for r in results for c in r.coeffs)
    assert count[0] > 2 * M.bit_length()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_product_matches_element_loop(data):
    field = ExactField(data.draw(PRIMES))
    a = data.draw(series(field, exact_elements))
    b = data.draw(series(field, exact_elements))
    same(a * b, Ref.of(a) * Ref.of(b))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_inverse_matches_recurrence(data):
    """Dense units, and units with interior and trailing zeros, whose
    sums stop at the last nonzero numerator."""
    field = ExactField(data.draw(PRIMES))
    a = data.draw(st.one_of(units(field, exact_elements, field.one()),
                            sparse_units(field, exact_elements, field.one())))
    same(a.invert_unit(), Ref.of(a).invert_unit())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_spread_and_weighted_sum_match_element_loops(data):
    field = ExactField(data.draw(PRIMES))
    terms = data.draw(st.lists(series(field, exact_elements), min_size=1,
                               max_size=4))
    weights = [data.draw(st.one_of(st.sampled_from(
        [0, 1, -3, Fraction(2, field.p)]).map(field.embed), INT_WEIGHTS))
               for _ in terms]
    same(weighted_sum(weights, terms), weighted_chain(weights, terms))
    d = data.draw(st.integers(1, 4))
    a = terms[0]
    same(a.spread(d), Ref.of(a).compose(Ref(field, d, [1],
                                            d * a.trunc + 1)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_compose_matches_full_horner(data):
    field = ExactField(data.draw(PRIMES))
    outer = data.draw(series(field, exact_elements))
    inner = data.draw(inner_series(field, exact_elements))
    same(outer.compose(inner), Ref.of(outer).compose(Ref.of(inner)))


# -- exact forms at a scale L --------------------------------------------------


def scales(p, d):
    """1, p, d^2 p (the kind a build takes from its map) and 143, prime to
    every denominator ``exact_elements`` draws (a wrong scale)."""
    return [1, p, d * d * p, 143]


@st.composite
def scale_draws(draw, p):
    return draw(st.sampled_from(scales(p, draw(st.integers(2, 5)))))


@st.composite
def scaled_series(draw, field):
    """An exact series brought to a drawn scale L: coefficient i of its
    form is r_i / (D L^i)."""
    return draw(series(field, exact_elements))._rescaled(
        draw(scale_draws(field.p)))


def same_fractions(x, y):
    """x and the oracle's y have the same order, truncation and
    coefficients, each the same Fraction, and x holds its one form."""
    assert (x.ord, x.trunc) == (y.ord, y.trunc)
    assert [c.value for c in x.coeffs] == [c.value for c in y.coeffs]
    same(x, y)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_kernel_at_any_scale_matches_element_loops(data):
    """Products, squares, sums, weighted sums, spreads, cuts and shifts of
    exact forms at scales 1, p, d^2 p and a wrong one, the two operands
    at different scales as often as not, give the element loops'
    Fractions; Gauss norms, read from the form, are those at scale 1."""
    field = ExactField(data.draw(PRIMES))
    a, b = (data.draw(scaled_series(field)) for _ in range(2))
    ra, rb = Ref.of(a), Ref.of(b)
    same_fractions(a, ra)
    rebuilt = TailSeries(field, a.ord, a.coeffs, a.trunc)
    for eps in (Fraction(-1, 2), Fraction(0), Fraction(3, 2)):
        g, h = (gauss_norm(x, DiskSpec("inf", eps)) for x in (a, rebuilt))
        assert (g, g.exact) == (h, h.exact)
    same_fractions(a * b, ra * rb)
    same_fractions(a * a, ra * ra)
    same_fractions(a ** 3, ra ** 3)
    same_fractions(a + b, ra + rb)
    same_fractions(a - b, ra - rb)
    weights = [field.embed(data.draw(st.sampled_from(
        [0, 1, -3, Fraction(2, field.p), Fraction(-1, 7)]))) for _ in "ab"]
    same_fractions(weighted_sum(weights, [a, b]),
                   weighted_chain(weights, [a, b]))
    k = data.draw(st.integers(0, 14))
    same_fractions(a._padded(k), ra._padded(k))
    same_fractions(a.shifted(k), ra.shifted(k))
    d = data.draw(st.integers(1, 4))
    same_fractions(a.spread(d), ra.compose(Ref(field, d, [1],
                                               d * a.trunc + 1)))


@pytest.mark.parametrize("integral", [True, False])
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_inverse_at_any_scale(integral, data):
    """A unit whose coefficients times L^i are integers has D = 1 and is
    inverted by the integer recurrence at its scale; one with a
    coefficient of denominator 11 L^j has D > 1 and is inverted at scale
    L D, where its D is 1.  Both give the element loop's Fractions, and
    every inverse is an integer vector."""
    field = ExactField(data.draw(PRIMES))
    L = data.draw(scale_draws(field.p))
    nums = data.draw(st.lists(st.integers(-60, 60), max_size=11))
    coeffs = [1] + [Fraction(x, L ** i) for i, x in enumerate(nums, 1)]
    if not integral:
        j = data.draw(st.integers(1, len(coeffs)))
        coeffs[j:j + 1] = [Fraction(data.draw(st.integers(1, 10)),
                                    11 * L ** j)]
    a = TailSeries(field, 0, coeffs, len(coeffs) + data.draw(
        st.integers(0, 2)))._rescaled(L)
    assert (a._flat[1] == 1) is integral
    inverse = a.invert_unit()
    assert inverse._flat[1] == 1
    same_fractions(inverse, Ref.of(a).invert_unit())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_identical_to_across_scales(data):
    """The same coefficients at two scales are identical; one changed
    coefficient makes them differ from its index on."""
    field = ExactField(data.draw(PRIMES))
    a = data.draw(series(field, exact_elements))
    x, y = (a._rescaled(data.draw(scale_draws(field.p))) for _ in "xy")
    assert x.identical_to(y, a.trunc) and y.identical_to(x, a.trunc)
    if a.trunc:
        k = data.draw(st.integers(0, a.trunc - 1))
        changed = a.replace_coefficient(k, a.coefficient(k).value + Fraction(
            1, data.draw(st.sampled_from([1, field.p, 7]))))._rescaled(
                y._flat[2])
        assert x.identical_to(changed, k)
        assert not x.identical_to(changed, a.trunc)
        assert not changed.identical_to(x, a.trunc)


def test_identical_to_across_scales_pinned():
    field = ExactField(5)
    a = TailSeries(field, 1, [1, Fraction(2, 5), -3, Fraction(1, 7), 4], 7)
    b, c = a._rescaled(20), a._rescaled(143)
    assert [s._flat[2] for s in (a, b, c)] == [1, 20, 143]
    assert a._flat != b._flat != c._flat
    assert a.identical_to(b, 7) and b.identical_to(c, 7)
    assert c.identical_to(a, 7)
    changed = a.replace_coefficient(3, Fraction(-2, 5))._rescaled(143)
    assert b.identical_to(changed, 3) and not b.identical_to(changed, 4)


# -- capped results never claim more than the exact ones give ----------------


def rationals(p):
    return st.builds(Fraction, st.integers(-40, 40),
                     st.sampled_from([1, 2, 3, p, p * p, 5 * p]))


def known_modulo_precision(capped, exact):
    """Each capped coefficient p^v u + O(p^A) agrees with the exact one
    modulo p^A, and is an exact zero only where the exact one is 0."""
    assert capped.trunc == exact.trunc
    p = capped.field.p
    for k in range(min(capped.ord, exact.ord), capped.trunc):
        c, e = capped.coefficient(k), exact.coefficient(k)
        if c.is_exact_zero:
            assert e.is_exact_zero, (k, e)
        else:   # an O(p^A) zero has u = 0 and v = A
            err = e - Fraction(c.unit) * Fraction(p) ** c.v
            assert err.valuation() >= c.v + c.rel, (k, c, e)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_capped_never_overclaims_precision(data):
    p = data.draw(PRIMES)
    cap = data.draw(st.integers(1, 8))
    q = rationals(p)
    ord_a, ord_b = data.draw(st.integers(0, 2)), data.draw(st.integers(1, 2))
    a = data.draw(st.lists(q, max_size=8))
    b = data.draw(st.lists(q, max_size=8))
    n = data.draw(st.integers(2, 7).filter(lambda n: n % p))
    poly = data.draw(st.lists(q, min_size=n, max_size=n))
    M = data.draw(st.integers(2, 16))
    results = []
    for field in (CappedField(p, cap), ExactField(p)):
        A = TailSeries(field, ord_a, a, ord_a + len(a))
        B = TailSeries(field, ord_b, b, ord_b + len(b))
        U = TailSeries(field, 0, [1] + a, 1 + len(a))
        S = TailSeries(field, 1, [1] + b, 2 + len(b))
        f = MonicPoly(field, poly)
        built = outcome(_omega_series, f, M)
        results.append([outcome(lambda: A * B), outcome(U.invert_unit),
                        outcome(A.compose, B), outcome(U.nth_root, n),
                        outcome(lagrange_invert, S),
                        outcome(_omega_inverse, f, M),
                        *(built[:2] if isinstance(built, tuple)
                          else [built] * 2)])
    for capped, exact in zip(*results):
        if not isinstance(capped, type):   # capped may run out of digits
            known_modulo_precision(capped, exact)


def test_regrouped_build_image_never_overclaims_precision():
    """z^5 + 9 z^4 over Q_3 capped at one digit, M = 37: the build's image
    has other precisions than a fresh composition (see
    ``tests/test_boettcher.py``), and each is still sound."""
    capped, exact = (
        _omega_series(MonicPoly(field, [0, 0, 0, 0, 9]), 37)[:2]
        for field in (CappedField(3, 1), ExactField(3)))
    for c, e in zip(capped, exact):
        known_modulo_precision(c, e)
