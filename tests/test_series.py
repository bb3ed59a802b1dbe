"""Series ring operations, roots, reversion, norms, and evaluation."""

import random
from fractions import Fraction as F

import pytest

from padicdyn import (CappedField, DiskSpec, DomainError, ExactField,
                      ExtensionField, PrecisionError, TailSeries, UsageError,
                      agreement_order, evaluate, gauss_norm, lagrange_invert)
from padicdyn.errors import InternalError
from padicdyn.localfield import PadicElement, Valuation
from padicdyn.series import PointValue
from test_series_kernel import known_modulo_precision


def S(field, ord_, coeffs, trunc):
    return TailSeries(field, ord_, coeffs, trunc)


K5 = ExactField(5)
K3 = ExactField(3)


# -- independent oracles -------------------------------------------------------


def brute_mul(a, b, n):
    """Coefficient lists (index = power), truncated at n."""
    out = [F(0)] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
    return out


def brute_revert(s, n):
    """Order-by-order compositional inverse of s = [0, 1, s2, ...].

    Substitutes the partial inverse into s and solves for one new
    coefficient at a time.
    """
    b = [F(0), F(1)]
    for m in range(2, n):
        cur = b + [F(0)] * (m + 1 - len(b))
        power = list(cur)
        acc = [F(0)] * (m + 1)
        for k in range(1, m + 1):
            sk = s[k] if k < len(s) else F(0)
            if sk:
                for idx in range(m + 1):
                    acc[idx] += sk * power[idx]
            power = brute_mul(power, cur, m + 1)
        b.append(-acc[m])
    return b


# -- ring operations -----------------------------------------------------------


def test_series_refuse_extension_fields():
    for base in (K3, CappedField(3, 10)):
        E = ExtensionField(base, [-3, 0], "eisenstein")
        with pytest.raises(UsageError, match="ExactField or a CappedField"):
            S(E, 0, [1, 1], 3)
        with pytest.raises(UsageError):
            TailSeries.zero(E, 4)
        with pytest.raises(UsageError):
            TailSeries.one(E, 4)
        with pytest.raises(UsageError, match="ExactField or a CappedField"):
            TailSeries.w_power(E, 1, 4)


@pytest.mark.parametrize("field", [K5, CappedField(5, 20)],
                         ids=["exact", "capped"])
def test_constants_are_built_from_the_kernel(field, monkeypatch):
    """``zero``, ``one`` and ``w_power`` build their forms from the
    kernel's 1, with no series built from elements on the way, and give
    the series built from elements, digits and precision alike: k below,
    at and past trunc, and trunc = 0."""
    cases = [(k, trunc) for trunc in (0, 1, 5) for k in (0, 1, trunc, 7)]
    refs = {(k, trunc): S(field, min(k, trunc), [1] if k < trunc else [],
                          trunc) for k, trunc in cases}

    def refused(self, *args):
        raise AssertionError("a series built from elements")

    monkeypatch.setattr(TailSeries, "__init__", refused)
    for (k, trunc), ref in refs.items():
        built = [TailSeries.w_power(field, k, trunc)]
        if k == 0:
            built.append(TailSeries.one(field, trunc))
        if k >= trunc:
            built.append(TailSeries.zero(field, trunc))
        for x in built:
            assert (x.ord, x.trunc) == (ref.ord, ref.trunc)
            assert x.identical_to(ref, trunc)


def test_spread_examples():
    s = S(K5, 1, [1, 2, 3], 4)         # w + 2w^2 + 3w^3 + O(w^4)
    out = s.spread(3)
    assert (out.ord, out.trunc) == (3, 12)
    assert [out.coefficient(k) for k in range(12)] == [
        0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0]
    assert s.spread(1) == s
    zero = TailSeries.zero(K5, 3).spread(2)
    assert zero.is_exact_zero and zero.trunc == 6
    with pytest.raises(UsageError):
        s.spread(0)


def test_mul_monomials():
    w = TailSeries.w_power(K5, 1, 8)
    sq = w * w
    assert sq.ord == 2
    assert sq.coefficient(2) == 1
    assert sq.trunc == 9  # min(8 + 1, 8 + 1)


def test_mul_difference_of_squares():
    c = F(3)
    a = S(K5, 0, [1, 0, c], 6)
    b = S(K5, 0, [1, 0, -c], 6)
    prod = a * b
    assert prod.coefficient(0) == 1
    assert prod.coefficient(2) == 0
    assert prod.coefficient(4) == -c * c


def test_add_truncation_min_rule():
    a = S(K5, 0, [1, 2, 3], 3)
    b = S(K5, 0, [1, 1, 1, 1, 1], 5)
    assert (a + b).trunc == 3


def test_invert_unit_geometric_series():
    a = S(K5, 0, [1, 1], 7)          # 1 + w
    inv = a.invert_unit()
    for k in range(7):
        assert inv.coefficient(k) == (-1) ** k
    assert (a * inv).truncate(7) == TailSeries.one(K5, 7)


def test_invert_unit_derived_example():
    # oracle: multiply back and get 1
    c = F(2)
    a = S(K5, 0, [1, 0, c / 2, 0, c / 4 - c * c / 8], 6)
    inv = a.invert_unit()
    expected = S(K5, 0, [1, 0, -c / 2, 0, 3 * c * c / 8 - c / 4], 6)
    assert inv == expected
    assert (a * inv).truncate(6) == TailSeries.one(K5, 6)


def test_disk_spec_checks_its_center():
    # eps is held as a Fraction, and _replace builds through the check
    D = DiskSpec("inf", 1)
    assert type(D.eps) is F and type(D._replace(eps=2).eps) is F
    for make in (lambda: DiskSpec("left", 0),
                 lambda: D._replace(center="left")):
        with pytest.raises(UsageError, match="disk center must be"):
            make()


def test_invert_requires_unit_normalization():
    with pytest.raises(UsageError):
        S(K5, 0, [2, 1], 4).invert_unit()
    with pytest.raises(UsageError):
        S(K5, 1, [1], 4).invert_unit()


def test_nth_root_trivial_and_binomial():
    one = TailSeries.one(K5, 9)
    for n in (2, 3, 4):
        assert one.nth_root(n) == one
    c = F(3)
    a = S(K5, 0, [1, 0, c], 6)
    root = a.nth_root(2)
    assert root.coefficient(2) == c / 2
    assert root.coefficient(4) == -c * c / 8
    assert (root * root).truncate(6) == a


def test_nth_root_rejects_residue_characteristic():
    a = S(K5, 0, [1, 1], 6)
    with pytest.raises(DomainError):
        a.nth_root(5)
    with pytest.raises(DomainError):
        a.nth_root(10)


def test_nth_root_reproduces_input_random():
    rng = random.Random(2001)
    for p, n in [(3, 2), (5, 3), (7, 4), (3, 5)]:
        if n % p == 0:
            continue
        K = ExactField(p)
        M = 12
        coeffs = [1] + [F(rng.randrange(-9, 10), rng.choice([1, 2, p]))
                        for _ in range(M - 1)]
        a = S(K, 0, coeffs, M)
        x = a.nth_root(n)
        assert (x ** n).truncate(M) == a


def test_nth_root_integrality_transport():
    rng = random.Random(2002)
    K = ExactField(7)
    M = 10
    for n in (2, 3, 5):
        coeffs = [1] + [F(rng.randrange(-20, 21)) for _ in range(M - 1)]
        a = S(K, 0, coeffs, M)
        x = a.nth_root(n)
        assert all(c.valuation() >= 0 for c in x.coeffs)


@pytest.mark.parametrize("field", [ExactField(5), CappedField(5, 20)],
                         ids=["exact", "capped"])
def test_corrupted_warm_start_raises(field):
    """A Newton start is trusted below its truncation, and the final check
    x^n = a binds the result: a start that is wrong there raises
    InternalError instead of returning a root."""
    rng = random.Random(2003)
    M, known = 16, 4
    a = S(field, 0, [1] + [F(rng.randrange(-9, 10), rng.choice([1, 2, 5]))
                           for _ in range(M - 1)], M)
    root = a.nth_root(3)
    start = root.truncate(known)
    assert a.nth_root(3, (start, a)) == root
    for k in range(known):
        bad = start.replace_coefficient(k, start.coefficient(k) + 1)
        with pytest.raises(InternalError):
            a.nth_root(3, (bad, a))
    # the same refusals as a start from 1
    with pytest.raises(UsageError):
        S(field, 0, [2, 1], M).nth_root(3, (start, a))
    with pytest.raises(DomainError):
        a.nth_root(5, (start, a))


def unit_target(field, rng, M, head=()):
    """1 + ... + O(w^M): the elements of head first (head[0] = 1 when
    given), random coefficients after."""
    tail = [F(rng.randrange(-9, 10), rng.choice([1, 2, field.p]))
            for _ in range(M - max(len(head), 1))]
    return S(field, 0, (list(head) or [1]) + tail, M)


def test_a_ladder_is_resumed_only_where_it_serves():
    """``_root_steps``' ladder is (its iterate at a power of two S, the
    target it served).  A target with that target's first S coefficients
    resumes from it, a target that differs below S starts from 1, and
    either way the root is the root from 1, digits and precision alike,
    checked (``nth_root``) or not: over both backends, capped at 1 to 4
    digits, and orders up to 40."""
    rng = random.Random(3307)
    cases = 0
    for p, n in ((2, 3), (2, 5), (3, 2), (3, 5), (5, 2), (5, 3),
                 (7, 2), (7, 3), (7, 5)):
        capped = [CappedField(p, cap) for cap in (1, 2, 3, 4)]
        for field in [ExactField(p)] + capped:
            for _ in range(2):
                a = unit_target(field, rng, rng.randrange(1, 41))
                _, ladder = a._root_steps(n)
                start, served = ladder
                T = start.trunc
                assert served is a and T & (T - 1) == 0
                b = unit_target(field, rng, rng.randrange(T, 41),
                                [a.coefficient(k) for k in range(T)])
                assert b.identical_to(a, T)
                targets = [b]
                if T > 1:   # one coefficient below T changed
                    k = rng.randrange(1, T)
                    targets.append(
                        b.replace_coefficient(k, b.coefficient(k) + 1))
                for target in targets:
                    cold, cold_ladder = target._root_steps(n)
                    warm, warm_ladder = target._root_steps(n, ladder)
                    assert warm.trunc == target.trunc
                    assert warm.identical_to(cold, target.trunc)
                    assert target.nth_root(n, ladder).identical_to(
                        target.nth_root(n), target.trunc)
                    assert warm_ladder[0].identical_to(
                        cold_ladder[0], cold_ladder[0].trunc)
                    assert warm_ladder[1] is target
                    W = warm_ladder[0].trunc
                    assert W & (W - 1) == 0
                    cases += 1
                # a resumed ladder that takes no doubling step is kept
                if T < b.trunc < 2 * T:
                    assert b._root_steps(n, ladder)[1][0] is start
    assert cases > 150


# -- reversion -----------------------------------------------------------------


def test_lagrange_invert_identity():
    w = TailSeries.w_power(K5, 1, 8)
    assert lagrange_invert(w) == w


def test_lagrange_invert_catalan_signs():
    s = S(K5, 1, [1, 1], 5)  # w + w^2
    b = lagrange_invert(s)
    oracle = brute_revert([F(0), F(1), F(1)], 5)
    assert [b.coefficient(k) for k in range(1, 5)] == oracle[1:5]
    assert [oracle[k] for k in range(1, 5)] == [1, -1, 2, -5]


def test_lagrange_invert_odd_series():
    c = F(3)
    s = S(K5, 1, [1, 0, -c / 2, 0, 3 * c * c / 8 - c / 4], 7)
    b = lagrange_invert(s)
    assert b.coefficient(3) == c / 2
    assert b.coefficient(5) == 3 * c * c / 8 + c / 4
    assert agreement_order(s.compose(b),
                           TailSeries.w_power(K5, 1, 7)) >= 7


def test_lagrange_invert_matches_brute_force_random():
    rng = random.Random(2003)
    K = ExactField(3)
    M = 9
    for _ in range(10):
        tail = [F(rng.randrange(-6, 7)) for _ in range(M - 2)]
        s = S(K, 1, [1] + tail, M)
        b = lagrange_invert(s)
        oracle = brute_revert([F(0), F(1)] + tail, M)
        assert [b.coefficient(k) for k in range(1, M)] == oracle[1:M]


def test_lagrange_invert_is_involution():
    rng = random.Random(2004)
    K = ExactField(7)
    M = 10
    for _ in range(8):
        s = S(K, 1, [1] + [F(rng.randrange(-5, 6), rng.choice([1, 3]))
                           for _ in range(M - 2)], M)
        assert lagrange_invert(lagrange_invert(s)) == s


def test_lagrange_invert_requires_normalized_leading_term():
    with pytest.raises(UsageError):
        lagrange_invert(S(K5, 1, [2, 1], 5))
    with pytest.raises(UsageError):
        lagrange_invert(S(K5, 0, [1, 1], 5))


def test_lagrange_integral_coefficients_stay_integral():
    rng = random.Random(2005)
    K = ExactField(5)
    M = 11
    for _ in range(6):
        s = S(K, 1, [1] + [F(rng.randrange(-20, 21)) for _ in range(M - 2)], M)
        b = lagrange_invert(s)
        assert all(c.valuation() >= 0 for c in b.coeffs)


@pytest.mark.parametrize("op, p, cap, ord_, coeffs, last", [
    (lambda s: s.nth_root(5), 2, 3, 0, [1, F(-5, 3), 0, 1, -3], F(-16, 27)),
    (lagrange_invert, 3, 2, 1,
     [1, -1, F(-27, 2), 18, 27, F(-54, 5), 54, 6], F(12415023, 40)),
], ids=["nth_root", "lagrange_invert"])
def test_capped_newton_padding_never_stays_exact(op, p, cap, ord_, coeffs,
                                                 last):
    # the padded exact zeros of the Newton iterate must not survive a
    # residual that is only indistinguishable from zero
    capped, exact = (op(S(K, ord_, coeffs, ord_ + len(coeffs)))
                     for K in (CappedField(p, cap), ExactField(p)))
    assert exact.coeffs[-1].value == last
    assert not capped.coeffs[-1].is_exact_zero
    known_modulo_precision(capped, exact)


# -- norms and evaluation ------------------------------------------------------


def test_gauss_norm_single_term():
    w = TailSeries.w_power(K5, 1, 6)
    D = DiskSpec("inf", F(0))
    assert gauss_norm(w, D) == 0
    D2 = DiskSpec("inf", F(1, 2))
    assert gauss_norm(w, D2) == F(1, 2)


def test_gauss_norm_matches_the_element_route():
    """gauss_norm, read from the flat form in integers, is the minimum of
    v(c_k) + k eps over the coefficient elements (``Valuation.least``), in
    value and in exactness: capped series at caps 1-20 with exact zeros,
    O(p^k) zeros from cancellation and negative valuations, exact series,
    and eps of both signs."""
    rng = random.Random(1906)

    def capped_coefficient(K):
        kind = rng.random()
        if kind < 0.15:
            return K.zero()
        x = PadicElement._make(K, rng.randint(-6, 6),
                               rng.randrange(1, K.p ** K.prec),
                               rng.randint(1, K.prec))
        if kind < 0.35:     # an O(p^k) zero: x - x or (x + y) - y
            y = K.from_rational(F(rng.randint(-40, 40), rng.choice([1, 7])))
            return x - x if kind < 0.25 else (x + y) - y - x
        return x

    def exact_coefficient(K):
        if rng.random() < 0.2:
            return K.zero()
        return K.from_rational(F(rng.randint(-10 ** 6, 10 ** 6),
                                 rng.choice([1, 2, 3, 9, 25, 125])) * F(
                                     K.p) ** rng.randint(-4, 4))

    cases = 0
    for _ in range(2000):
        p = rng.choice([2, 3, 5, 7])
        if rng.random() < 0.7:
            K = CappedField(p, rng.randint(1, 20))
            make = capped_coefficient
        else:
            K, make = ExactField(p), exact_coefficient
        n = rng.randint(1, 12)
        ord_ = rng.randint(-3, 3)
        series = S(K, ord_, [make(K) for _ in range(n)], ord_ + n)
        for eps in (F(rng.randint(-12, 12), rng.randint(1, 6)),
                    F(-rng.randint(1, 9), rng.randint(1, 4))):
            D = DiskSpec("zero", eps)
            want = Valuation.least([c.valuation() + (series.ord + i) * eps
                                    for i, c in enumerate(series.coeffs)])
            got = gauss_norm(series, D)
            assert (got.value, got.exact) == (want.value, want.exact), (
                series, eps)
            cases += 1
    assert cases == 4000


def test_gauss_norm_direct_minimum():
    # S = w - (c/2) w^3 with v(c) = -1, p != 2, eps = 1
    K = ExactField(3)
    c = F(1, 3)
    s = S(K, 1, [1, 0, -c / 2], 4)
    assert gauss_norm(s, DiskSpec("inf", F(1))) == 1


def test_gauss_norm_multiplicative_random():
    # truncation generous enough that the product window holds every
    # cross term of the nonzero supports
    rng = random.Random(2006)
    K = ExactField(3)
    D = DiskSpec("inf", F(1, 2))
    for _ in range(60):
        a = TailSeries.from_polynomial(
            K, [F(rng.randrange(1, 30), rng.choice([1, 3, 9]))
                for _ in range(5)], 12)
        b = TailSeries.from_polynomial(
            K, [F(rng.randrange(1, 30), rng.choice([1, 3, 9]))
                for _ in range(5)], 12)
        na, nb, nab = gauss_norm(a, D), gauss_norm(b, D), gauss_norm(a * b, D)
        assert nab == na + nb
        # coefficient-wise oracle for the product norm
        direct = min((a * b).coeffs[i].valuation().as_fraction()
                     + ((a * b).ord + i) * D.eps
                     for i in range(len((a * b).coeffs))
                     if not (a * b).coeffs[i].is_zero())
        assert nab == direct


def test_evaluate_monomial():
    w = TailSeries.w_power(K5, 1, 6)
    z = K5.from_rational(F(1, 5))
    pv = evaluate(w, z, DiskSpec("inf", F(0)))
    assert pv.value == 5
    assert pv.value.valuation() == 1
    assert pv.err >= 6


def test_evaluate_outside_domain_rejected():
    w = TailSeries.w_power(K5, 1, 6)
    with pytest.raises(DomainError):
        evaluate(w, K5.from_rational(2), DiskSpec("inf", F(0)))


def test_evaluate_refuses_zero_about_infinity():
    # z = 0 is w = infinity: outside every disk about infinity, refused
    # before 1 / z is formed
    for field in (K5, CappedField(5, 10)):
        with pytest.raises(DomainError, match="outside certified domain"):
            evaluate(TailSeries.w_power(field, 1, 6), field.embed(0),
                     DiskSpec("inf", F(0)))


def test_evaluate_at_the_center_of_a_disk_about_zero():
    # w = 0 exactly: every term past the constant vanishes, so the value is
    # the constant term (an exact zero when ord >= 1) with no tail
    disk = DiskSpec("zero", F(1, 2))
    for field in (K5, CappedField(5, 10)):
        zero = field.embed(0)
        pv = evaluate(S(field, 0, [3, 2, F(1, 5)], 4), zero, disk)
        assert pv.value == 3 and pv.err.is_infinite
        pv = evaluate(S(field, 1, [3, 2], 4), zero, disk)
        assert pv.value.is_exact_zero and pv.err.is_infinite
        # an O(p^k) zero is not the center: its valuation is unknown
        fuzzy = field.embed(2) - field.embed(2)
        if not fuzzy.is_exact_zero:
            with pytest.raises(DomainError, match="valuation unknown"):
                evaluate(S(field, 1, [3, 2], 4), fuzzy, disk)


def test_evaluate_refuses_a_gauss_norm_known_only_as_a_lower_bound():
    # the O(5^-2) coefficient is below the exact one on the disk, so the
    # Gauss norm, and with it the tail bound, is only a floor
    K = CappedField(5, 4)
    fuzzy = K.embed(F(1, 5 ** 6)) - K.embed(F(1, 5 ** 6))
    assert fuzzy.valuation() == -2 and not fuzzy.valuation().exact
    s = S(K, 0, [1, fuzzy], 2)
    disk = DiskSpec("zero", F(0))
    assert gauss_norm(s, disk) == -2 and not gauss_norm(s, disk).exact
    with pytest.raises(PrecisionError, match="only a lower bound"):
        evaluate(s, K.embed(5), disk)


def test_point_value_power_with_an_infinite_error_or_a_zero_value():
    for field in (K5, CappedField(5, 10)):
        # an exact value stays exact: the error stays infinite
        pv = PointValue(field.embed(3), Valuation(None)).power(3)
        assert pv.value == 27 and pv.err.is_infinite
        # at an exactly zero value only the error's d-th power is left:
        # (0 + e)^d has valuation d v(e), with the error's exactness
        for exact in (True, False):
            pv = PointValue(field.embed(0), Valuation(F(1, 2), exact))
            pv = pv.power(3)
            assert pv.value.is_exact_zero
            assert pv.err == F(3, 2) and pv.err.exact is exact


def test_evaluate_embeds_int_and_fraction_points():
    for field in (K5, CappedField(5, 10)):
        s = S(field, 1, [1, 2, F(1, 5)], 5)
        for z, disk in ((F(1, 25), DiskSpec("inf", F(1))),
                        (5, DiskSpec("zero", F(0))),
                        (F(10, 3), DiskSpec("zero", F(1, 2)))):
            pv = evaluate(s, z, disk)
            ref = evaluate(s, field.embed(z), disk)
            assert pv.value == ref.value and pv.err == ref.err
            assert pv.value.field is field
        with pytest.raises(DomainError):
            evaluate(s, 2, DiskSpec("inf", F(0)))
    # extension elements are taken as they are
    E = ExtensionField(K5, [-5, 0], "eisenstein")
    pi = E.generator()
    pv = evaluate(S(K5, 1, [1, 1], 4), pi, DiskSpec("zero", F(0)))
    assert pv.value == pi + pi * pi


def test_evaluate_linearity_within_bounds():
    rng = random.Random(2007)
    K = ExactField(5)
    D = DiskSpec("inf", F(0))
    for _ in range(40):
        a = S(K, 1, [F(rng.randrange(-9, 10)) for _ in range(5)], 6)
        b = S(K, 1, [F(rng.randrange(-9, 10)) for _ in range(5)], 6)
        z = K.from_rational(F(rng.choice([1, 2, 3, 4]), 25))
        pa = evaluate(a, z, D)
        pb = evaluate(b, z, D)
        ps = evaluate(a + b, z, D)
        diff = ps.value - (pa.value + pb.value)
        bound = min(pa.err, pb.err, ps.err)
        assert diff.valuation() >= bound


def test_ring_axioms_random_triples():
    rng = random.Random(2008)
    K = ExactField(5)
    for _ in range(40):
        def rand_series():
            o = rng.randrange(0, 2)
            return S(K, o, [F(rng.randrange(-8, 9)) for _ in range(4)],
                     o + rng.randrange(4, 7))
        a, b, c = rand_series(), rand_series(), rand_series()
        lhs = (a * b) * c
        rhs = a * (b * c)
        m = min(lhs.trunc, rhs.trunc)
        assert agreement_order(lhs.truncate(m), rhs.truncate(m)) >= m
        lhs2 = a * (b + c)
        rhs2 = a * b + a * c
        m2 = min(lhs2.trunc, rhs2.trunc)
        assert agreement_order(lhs2.truncate(m2), rhs2.truncate(m2)) >= m2


def test_agreement_order_cases():
    a = S(K5, 1, [1, 0, 2], 4)
    assert agreement_order(a, a) == 4
    b = S(K5, 1, [1, 0, 2, 0, 1], 6)
    w5 = S(K5, 1, [1, 0, 2, 0, 0], 6)
    assert agreement_order(b, w5) == 5
    w = TailSeries.w_power(K5, 1, 6)
    w_plus = S(K5, 1, [1, 0, 0, 0, 1], 6)
    assert agreement_order(w, w_plus) == 5


def test_identical_to_asks_for_the_same_elements():
    C = CappedField(5, 10)
    a = S(C, 0, [1, 7, 3], 6)
    coarse = S(C, 0, [1, PadicElement(C, 0, 7, 4), 3], 6)
    assert a == coarse                   # indistinguishable, not identical
    assert a.identical_to(coarse, 1) and not a.identical_to(coarse, 2)
    assert a.identical_to(a.truncate(3), 3)
    assert not a.identical_to(a.truncate(3), 4)     # not known to order 4
    assert not S(C, 1, [1], 4).identical_to(
        S(C, 1, [1, PadicElement._zero(C, 3)], 4), 3)
    assert S(K5, 1, [1, F(1, 5)], 6).identical_to(
        S(K5, 1, [1, F(1, 5), 2], 6), 3)
    assert not S(K5, 1, [1, F(1, 5)], 6).identical_to(
        S(K5, 1, [1, F(2, 5)], 6), 3)


def test_capped_backend_series_roundtrip():
    C = CappedField(5, 10)
    a = S(C, 0, [1, F(1, 2), 3], 6)
    inv = a.invert_unit()
    assert (a * inv).truncate(6) == TailSeries.one(C, 6)
    root = S(C, 0, [1, 0, 10], 6).nth_root(2)
    assert (root * root).truncate(6) == S(C, 0, [1, 0, 10], 6)


def test_concurrent_evaluation_of_one_series():
    # one immutable series, many points, no locks
    from concurrent.futures import ThreadPoolExecutor
    K = ExactField(5)
    s = S(K, 1, [1, 0, F(-3, 2), 0, F(21, 8)], 6)
    D = DiskSpec("inf", F(0))
    points = [K.from_rational(F(n, 25)) for n in (1, 2, 3, 4, 6, 7, 8, 9)]

    def at(z):
        return evaluate(s, z, D).value.value

    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(at, points))
    assert parallel == [at(z) for z in points]


def test_concurrent_capped_products_on_one_fresh_field():
    # the field's power table grows while several threads read it; each
    # must still get the serial digits
    import sys
    import threading
    from padicdyn.cli import series_json

    def square(K):
        # valuations 0, 2, 4, ...: each output coefficient needs a power
        # of 5 beyond the last one's
        s = S(K, 0, [2 * 5 ** (2 * k) for k in range(40)], 40)
        return series_json(s * s)

    expected = square(CappedField(5, 20))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            K = CappedField(5, 20)
            start = threading.Barrier(6)
            results = []

            def work():
                start.wait(timeout=10)
                results.append(square(K))

            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert results == [expected] * 6
    finally:
        sys.setswitchinterval(interval)
