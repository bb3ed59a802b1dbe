"""The flat integer kernel behind series products and unit inverses over
Q_p, checked against element-by-element arithmetic on random series, and
the shrinking-truncation Horner of ``TailSeries.compose`` checked against
Horner at the full target order."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import CappedField, ExactField, TailSeries
from padicdyn.cli import series_json
from padicdyn.localfield import PadicElement

PRIMES = st.sampled_from([2, 3, 5, 7])


# -- oracles: the element loops ---------------------------------------------


def schoolbook_mul(a, b):
    """Product by one element add and mul per pair of coefficients."""
    trunc = min(a.trunc + b.ord, b.trunc + a.ord)
    if a.is_exact_zero or b.is_exact_zero:
        return TailSeries.zero(a.field, trunc)
    ord_ = a.ord + b.ord
    out = [a.field.embed(0)] * (trunc - ord_)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            if i + j < len(out) and not (x.is_exact_zero or y.is_exact_zero):
                out[i + j] = out[i + j] + x * y
    return TailSeries(a.field, ord_, out, trunc)


def recurrence_inverse(a):
    """inv_0 = 1, inv_k = -sum_{j=1..k} a_j inv_{k-j}, on elements."""
    field = a.field
    inv = [field.embed(1)] + [field.embed(0)] * (a.trunc - 1)
    for k in range(1, a.trunc):
        acc = field.embed(0)
        for j in range(1, k + 1):
            c = a.coefficient(j)
            if not c.is_exact_zero:
                acc = acc + c * inv[k - j]
        inv[k] = -acc
    return TailSeries(field, 0, inv, a.trunc)


def full_horner(outer, inner):
    """outer(inner) by Horner with every step kept to the full target."""
    field = outer.field
    s = max(inner.ord, 1)
    target = min(outer.trunc * s, inner.trunc + max(outer.ord - 1, 0) * s)
    acc = TailSeries.zero(field, target)
    for k in range(outer.trunc - 1, -1, -1):
        acc = (acc * inner).truncate(target)
        if k >= outer.ord:
            c = outer.coefficient(k)
            if not c.is_exact_zero and acc.trunc:
                coeffs = list(acc.coeffs)
                if acc.ord == 0:
                    coeffs[0] = coeffs[0] + c
                else:
                    coeffs[:0] = [c] + [0] * (acc.ord - 1)
                acc = TailSeries(field, 0, coeffs, acc.trunc)
    return acc.truncate(target)


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
def units(draw, field, elements, one):
    """Constant term indistinguishable from 1, then arbitrary terms."""
    rest = draw(st.lists(elements(field), min_size=0, max_size=11))
    return TailSeries(field, 0, [one] + rest, 1 + len(rest))


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


def same(x, y):
    assert series_json(x) == series_json(y)


# -- properties -------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_capped_product_matches_element_loop(data):
    field = data.draw(capped_fields())
    a = data.draw(series(field, capped_elements))
    b = data.draw(series(field, capped_elements))
    same(a * b, schoolbook_mul(a, b))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_capped_inverse_matches_recurrence(data):
    field = data.draw(capped_fields())
    rel = data.draw(st.integers(1, field.prec))
    one = PadicElement._make(field, 0, 1, rel)   # 1 + O(p^rel)
    a = data.draw(units(field, capped_elements, one))
    same(a.invert_unit(), recurrence_inverse(a))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_product_matches_element_loop(data):
    field = ExactField(data.draw(PRIMES))
    a = data.draw(series(field, exact_elements))
    b = data.draw(series(field, exact_elements))
    same(a * b, schoolbook_mul(a, b))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_inverse_matches_recurrence(data):
    field = ExactField(data.draw(PRIMES))
    a = data.draw(units(field, exact_elements, field.one()))
    same(a.invert_unit(), recurrence_inverse(a))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_capped_compose_matches_full_horner(data):
    field = data.draw(capped_fields())
    outer = data.draw(series(field, capped_elements))
    inner = data.draw(inner_series(field, capped_elements))
    same(outer.compose(inner), full_horner(outer, inner))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_compose_matches_full_horner(data):
    field = ExactField(data.draw(PRIMES))
    outer = data.draw(series(field, exact_elements))
    inner = data.draw(inner_series(field, exact_elements))
    same(outer.compose(inner), full_horner(outer, inner))
