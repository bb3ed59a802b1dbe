"""Escape radius, conjugacy construction, functional equation, escape tests."""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicdyn import (BudgetError, CappedField, Conjugacy, DomainError,
                      ExactField, MonicPoly, boettcher_series,
                      cauchy_rate_check, cf_constant, cf_sup_check,
                      compose_through_poly, conjugacy, escape_test,
                      functional_equation_check, good_reduction,
                      lagrange_invert, omega_at, point_identity_report,
                      rescaled_integrality_ok, series)
from padicdyn.boettcher import (_baby_steps, _beta_series,
                                _inverse_residual, _omega_inverse,
                                _omega_series, _powers, _reciprocal,
                                _xi_series, check_build)
from padicdyn.cli import series_json
from padicdyn.errors import InternalError, PrecisionError, UsageError
from padicdyn.series import TailSeries, agreement_order
from test_series_kernel import Ref, known_modulo_precision


def mono(p, coeffs, backend="exact", prec=20):
    field = ExactField(p) if backend == "exact" else CappedField(p, prec)
    return MonicPoly(field, coeffs)


# -- independent closed-form oracle -------------------------------------------


def omega_oracle_quadratic(c_value, order=6):
    """Coefficients of the conjugacy for z^2 + c by symbolic iteration.

    Second-stage normalized root of f^2(z)/z^4, expanded with sympy's
    series machinery; valid through w^(order) for order <= 7.
    """
    w = sympy.symbols("w")
    c = sympy.Rational(c_value.numerator, c_value.denominator)
    z = 1 / w
    f2 = (z ** 2 + c) ** 2 + c
    beta2 = sympy.expand(f2 * w ** 4)
    xi2 = sympy.series(beta2 ** sympy.Rational(1, 4), w, 0, order).removeO()
    omega = sympy.series(w / xi2, w, 0, order + 1).removeO()
    poly = sympy.Poly(sympy.expand(omega), w)
    return [F(str(poly.coeff_monomial(w ** k))) for k in range(order + 1)]


def test_oracle_matches_frozen_closed_form():
    for c in (F(3), F(-1), F(5), F(1, 7)):
        coeffs = omega_oracle_quadratic(c, 6)
        assert coeffs[1] == 1
        assert coeffs[2] == 0
        assert coeffs[3] == -c / 2
        assert coeffs[4] == 0
        assert coeffs[5] == 3 * c * c / 8 - c / 4


# -- escape radius -------------------------------------------------------------


def test_cf_examples():
    assert cf_constant(mono(5, [3, 0])) == 0
    assert cf_constant(mono(5, [F(-1, 5), 0])) == F(-1, 2)
    assert cf_constant(mono(5, [F(1, 25), F(1, 5), 0])) == F(-2, 3)


def test_cf_sup_check_examples():
    assert cf_sup_check(mono(5, [F(-1, 5), 0]))
    assert cf_sup_check(mono(5, [3, 0]))
    assert cf_sup_check(mono(3, [F(1, 3), F(2, 9), 0, 0]))
    # negative control: a corrupted value must be caught
    f = mono(5, [F(-1, 5), 0])
    assert not cf_sup_check(f, cf_valuation=F(-1, 3))
    assert not cf_sup_check(mono(5, [3, 0]), cf_valuation=F(-1, 2))


def test_good_reduction_examples():
    assert good_reduction(mono(5, [3, 0]))
    assert not good_reduction(mono(5, [F(1, 5), 0]))
    assert good_reduction(mono(5, [125, 5, 0]))


def test_cf_iterate_monotone():
    # v(C_{f^N}) >= v(C_f) for N <= 3
    for coeffs in ([F(1, 5), 0], [3, 0], [F(1, 25), F(1, 5), 0]):
        f = mono(5, coeffs)
        base = cf_constant(f)
        for N in (2, 3):
            assert cf_constant(f.iterate(N)) >= base


# -- construction --------------------------------------------------------------


def test_power_map_is_fixed():
    for d in (2, 3, 4):
        f = mono(5, [0] * d) if d % 5 else None
        f = mono(7, [0] * d)
        B = boettcher_series(f, 12)
        w = TailSeries.w_power(f.field, 1, 12)
        assert B.omega == w
        assert B.omega_inverse == w
        assert B.verified_order == 12


def test_quadratic_closed_form_exact():
    oracle = omega_oracle_quadratic(F(3), 6)
    f = mono(5, [3, 0])
    B = boettcher_series(f, 7)
    for k in range(1, 6):
        assert B.omega.coefficient(k) == oracle[k]
    assert B.omega.coefficient(3) == F(-3, 2)
    assert B.omega.coefficient(5) == F(21, 8)
    # inverse closed form
    assert B.omega_inverse.coefficient(3) == F(3, 2)
    assert B.omega_inverse.coefficient(5) == 3 * F(9, 8) + F(3, 4)


def test_cubic_plus_pz_closed_form():
    p = 5
    f = mono(p, [0, p, 0])
    B = boettcher_series(f, 7)
    assert B.omega.coefficient(1) == 1
    assert B.omega.coefficient(3) == F(-p, 3)
    assert B.omega.coefficient(5) == F(2 * p * p, 9)


def test_construction_refuses_residue_characteristic():
    f = mono(5, [1, 0, 0, 0, 0])  # degree 5 over Q_5
    for build in (boettcher_series, conjugacy):
        with pytest.raises(DomainError):
            build(f, 8)


def test_construction_budget():
    f = mono(5, [3, 0])
    for build in (boettcher_series, conjugacy):
        with pytest.raises(BudgetError):
            build(f, 100000)


def test_degree_budget():
    # W = 1/f(1/w) is formed to order M + d - 1, so the order budget
    # (512) bounds d too, and a map past it is refused before any work
    with pytest.raises(BudgetError, match="degree 3001"):
        check_build(mono(5, [3] * 3000 + [0]), 16)
    f = mono(5, [3] * 511 + [0], "capped")
    assert conjugacy(f, 16).verified_order == 16


def test_functional_equation_order_32():
    f = mono(5, [3, 0])
    B = boettcher_series(f, 32)
    assert functional_equation_check(B, 32) == 32
    assert B.verified_order == 32


def test_functional_equation_detects_corruption():
    f = mono(5, [3, 0])
    B = boettcher_series(f, 16)
    for k in (4, 9, 13):
        bad = B.omega.replace_coefficient(
            k, B.omega.coefficient(k) + f.field.embed(1))
        corrupted = B._replace(omega=bad)
        got = functional_equation_check(corrupted, 16)
        # the first bad index of the two recomputed sides
        assert got == min(2 * k, k + f.degree - 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equation_check_locates_corruption_like_horner(data):
    """compose_through_poly sums omega(W) by baby and giant steps, whose
    capped precisions differ from Horner's; a corrupted omega must still
    fail the check at the index Horner's omega.compose(W) gives."""
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    d = data.draw(st.sampled_from([d for d in range(2, 5) if d % p]))
    coeffs = data.draw(st.lists(st.builds(
        F, st.integers(-30, 30), st.sampled_from([1, 2, p])),
        min_size=d, max_size=d))
    M = data.draw(st.integers(8, 40))
    k = data.draw(st.integers(1, M - 1))
    place = data.draw(st.integers(-3, 12))   # of the wrong digit
    for backend in ("exact", "capped"):
        f = mono(p, coeffs, backend, prec=12)
        try:
            B = boettcher_series(f, M)
        except PrecisionError:
            continue        # the capped roots ran out of digits
        bad = B.omega.replace_coefficient(
            k, B.omega.coefficient(k) + F(p) ** place)
        horner = agreement_order(bad.compose(_reciprocal(f, M)).truncate(M),
                                 (bad ** d).truncate(M))
        assert functional_equation_check(B._replace(omega=bad), M) == horner


def test_capped_order_256_digest():
    """A capped build at an order the benchmark pools do not reach, where
    the long products run on valuation lines: omega and omega^-1 keep
    their recorded digits and precisions."""
    B = boettcher_series(mono(5, [3, F(1, 5)], "capped"), 256)
    doc = json.dumps([series_json(B.omega), series_json(B.omega_inverse)],
                     sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest()[:16] == "8ee06c19c2143208"


def test_capped_order_512_digest():
    """The capped build at the full order budget keeps its recorded
    digits and precisions."""
    B = boettcher_series(mono(5, [3, F(1, 5)], "capped"), 512)
    doc = json.dumps([series_json(B.omega), series_json(B.omega_inverse)],
                     sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest()[:16] == "d7b69ba9b6741b73"


@pytest.mark.parametrize("p, coeffs, digest", [
    (5, [3, F(1, 5), 1], "7a98b9e452600a98"),
    (7, [2, F(1, 7), 0, 1, -1], "f189b900f436cd4e")])
def test_capped_digests_of_degree_three_and_five(p, coeffs, digest):
    """Capped builds at M = 64 of z^3 + z^2 + z/5 + 3 over Q_5 and
    z^5 - z^4 + z^3 + z/7 + 2 over Q_7, whose fixed points take more than
    one Newton step per root: omega and omega^-1 keep their recorded
    digits and precisions."""
    B = boettcher_series(mono(p, coeffs, "capped"), 64)
    doc = json.dumps([series_json(B.omega), series_json(B.omega_inverse)],
                     sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest()[:16] == digest


def test_capped_builds_are_narrow(monkeypatch):
    """z^2 + z/5 + 3 over Q_5 capped at 20 digits, M = 128: the valuations
    of omega and omega^-1 fall one per index, and at the scale 5^1 their
    map gives, every representative of omega, omega^-1 and each unit
    inverse the build forms stays below 5^22 (at scale 1 the widest has
    336 bits, against 47 for 5^20)."""
    inverses = []
    capped = series._CAPPED

    def inverse(field, flat):
        inverses.append(capped.inverse(field, flat))
        return inverses[-1]

    monkeypatch.setattr(series, "_CAPPED", capped._replace(inverse=inverse))
    B = boettcher_series(mono(5, [3, F(1, 5)], "capped"), 128)
    forms = [B.omega._flat, B.omega_inverse._flat, *inverses]
    assert len(forms) > 2
    assert all(x < 5 ** 22 for r, *_ in forms for x in r)


@pytest.mark.parametrize("coeffs, M, digest", [
    ([3, F(1, 5)], 128, "3fd9a8fe957b16a6"),
    ([3, F(1, 5), 1], 64, "fcb3a7adf396918d")])
def test_exact_digests_beyond_the_pool(coeffs, M, digest):
    """Exact builds past the pool's M = 64 and of degree 3, whose series
    are integer vectors at the scale their map gives: omega and
    omega^-1 keep their recorded coefficients."""
    B = boettcher_series(mono(5, coeffs, "exact"), M)
    doc = json.dumps([series_json(B.omega), series_json(B.omega_inverse)],
                     sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("coeffs, M", [
    ([3, F(1, 5)], 64), ([3, F(1, 5)], 128), ([3, F(1, 5), 1], 64)])
def test_exact_builds_are_integer_vectors(coeffs, M, monkeypatch):
    """At the scale its map gives, an exact build's omega and omega^-1
    are integer vectors (D = 1), and so is every unit it inverts: the
    integer recurrence serves each inverse without a change of scale."""
    inverted = []

    def inverse(field, flat):
        inverted.append(flat[1])
        return exact.inverse(field, flat)

    exact = series._EXACT
    monkeypatch.setattr(series, "_EXACT", exact._replace(inverse=inverse))
    B = boettcher_series(mono(5, coeffs, "exact"), M)
    assert [S._flat[1] for S in (B.omega, B.omega_inverse)] == [1, 1]
    assert inverted and set(inverted) == {1}


def test_iterate_refuses_capped_maps():
    with pytest.raises(UsageError):
        mono(5, [3, 0], "capped").iterate(2)


def test_verify_order_on_verify_style_example():
    f = mono(7, [2, 1, 0])  # z^3 + z + 2 over Q_7
    B = boettcher_series(f, 32)
    assert B.verified_order == 32


# -- Cauchy rates --------------------------------------------------------------


def test_cauchy_rate_quadratic_sharpened():
    f = mono(5, [3, 0])  # a_1 = 0 improves agreement to d^(N+1)
    assert cauchy_rate_check(f, 2, trunc=10) == [4, 8]
    # the default window still certifies the guaranteed bound
    assert all(r >= 2 ** (n + 1)
               for n, r in enumerate(cauchy_rate_check(f, 2)))


def test_cauchy_rate_generic_equality():
    f = mono(5, [1, 1])  # a_{d-1} = 1, a unit
    rates = cauchy_rate_check(f, 3)
    assert rates == [2, 4, 8]
    g = mono(5, [1, 1, 1])  # degree 3, a_2 unit
    assert cauchy_rate_check(g, 2) == [3, 9]


def test_cauchy_rate_power_map():
    f = mono(5, [0, 0])
    trunc = 2 ** 2 + 2
    assert cauchy_rate_check(f, 2) == [trunc, trunc]


def test_cauchy_rate_lower_bound_random():
    rng = random.Random(4001)
    for p, d in [(3, 2), (5, 2), (7, 3), (5, 4)]:
        coeffs = [F(rng.randrange(-9, 10), rng.choice([1, 1, p]))
                  for _ in range(d)]
        f = mono(p, coeffs)
        for N, rate in enumerate(cauchy_rate_check(f, 2), start=1):
            assert rate >= d ** N


@pytest.mark.parametrize("backend", ["exact", "capped"])
@pytest.mark.parametrize("coeffs", [[3, F(1, 5)], [1, F(-2, 5), F(1, 5)]])
def test_build_root_chain_matches_cauchy_approximants(backend, coeffs):
    # the oracle is the route that iterates f: the d^N-th root of
    # beta_N = f^N(z)/z^(d^N), the xi_N that cauchy_rate_check compares;
    # w / xi_N and the build's fixed point must agree digit for digit
    f = mono(5, coeffs, backend, prec=12)
    M = 20
    N = next(n for n in range(1, M) if f.degree ** n >= M)
    xi = _xi_series(f, N, M)[-1]
    omega = xi.invert_unit().shifted(1).truncate(M)
    assert series_json(boettcher_series(f, M).omega) == series_json(omega)


# -- omega from its own functional equation -----------------------------------


@st.composite
def random_maps(draw):
    """(f over Q_p exactly, f capped at 1 to 20 digits, M in 2..40); bad
    reduction included, denominators carry p and p^2."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.sampled_from([d for d in range(2, 6) if d % p]))
    coeffs = draw(st.lists(st.builds(
        F, st.integers(-30, 30), st.sampled_from([1, 2, p, p * p])),
        min_size=d, max_size=d))
    cap = draw(st.integers(1, 20))
    return (MonicPoly(ExactField(p), coeffs),
            MonicPoly(CappedField(p, cap), coeffs), draw(st.integers(2, 40)))


def root_approximant_omega(f, M):
    """w / xi_N for the least N with d^N >= M: the route by iterating f."""
    N = next(n for n in range(1, M + 1) if f.degree ** n >= M)
    return _xi_series(f, N, M)[-1].invert_unit().shifted(1).truncate(M)


def outcome(op, *args):
    """op(*args), or the kind of error it raised."""
    try:
        return op(*args)
    except (InternalError, PrecisionError, ZeroDivisionError) as exc:
        return type(exc).__name__


def encoded(op, *args):
    """series_json of op(*args), or the kind of error it raised."""
    result = outcome(op, *args)
    return result if isinstance(result, str) else series_json(result)


def routes_agree(exact, capped, M):
    """The fixed-point omega and the root-approximant omega of one map.
    Over ExactField: the same elements, or the same error.  Over a capped
    field the routes take different operations and may keep different
    digits, so each must know the exact omega to every digit it claims,
    and the two must agree to order M.  Neither capped route may raise:
    no step divides, and capped arithmetic never overclaims, so each
    Newton iterate encloses the exact one and every final check passes;
    a coefficient whose digits run out is an O(p^k) zero, not an error
    (``test_capped_routes_run_out_of_digits_without_raising``)."""
    assert encoded(lambda: _omega_series(exact, M)[0]) \
        == encoded(root_approximant_omega, exact, M)
    fixed = _omega_series(capped, M)[0]
    root = root_approximant_omega(capped, M)
    omega = _omega_series(exact, M)[0]
    known_modulo_precision(fixed, omega)
    known_modulo_precision(root, omega)
    assert agreement_order(fixed, root) == M


@settings(max_examples=80, deadline=None)
@given(random_maps())
def test_omega_fixed_point_matches_root_approximants(case):
    routes_agree(*case)


def test_capped_routes_run_out_of_digits_without_raising():
    """z^2 + 5 z + 10 over Q_5 capped at one digit, M = 40: omega's
    valuations rise, so most of its coefficients keep no digit at all;
    both routes still return, each coefficient that runs out an O(5^k)
    zero, and they agree with each other and with the exact omega."""
    coeffs = [10, 5]
    capped = mono(5, coeffs, "capped", prec=1)
    for route in (_omega_series(capped, 40)[0],
                  root_approximant_omega(capped, 40)):
        lost = [k for k, c in enumerate(route.coeffs)
                if not c.is_exact_zero and c.rel == 0]
        assert len(lost) > 30
    routes_agree(mono(5, coeffs), capped, 40)


@pytest.mark.parametrize("coeffs, cap, M, digits", [
    ([-12, -28, 4], 15, 12, (20, 19)),
    ([2, 0, 0, 0, 2], 1, 28, (4, 3)),
    ([2, 0, 2], 1, 12, (4, 3)),
])
def test_capped_routes_may_keep_different_digits(coeffs, cap, M, digits):
    """Over Q_2: the fixed point knows the last coefficient, w^(M-1),
    modulo 2^digits[0] and the root route modulo 2^digits[1]; both hold
    the exact omega to those digits."""
    capped = mono(2, coeffs, "capped", prec=cap)
    last = [route.coefficient(M - 1) for route in (
        _omega_series(capped, M)[0], root_approximant_omega(capped, M))]
    assert tuple(c.v + c.rel for c in last) == digits
    routes_agree(mono(2, coeffs), capped, M)


def image_encloses_a_fresh_composition(f, M):
    """The image the fixed point returns is omega(W) modulo w^M: over
    ExactField the very composition the full check makes; over a capped
    field it agrees with that one to order M, though its precisions may
    differ (it was summed at M + d - 1, in other blocks).  The build
    verifies what the full check does."""
    try:
        omega, image, _ = _omega_series(f, M)
        B = boettcher_series(f, M)
    except PrecisionError:
        return              # the capped roots ran out of digits
    fresh = compose_through_poly(omega, f)
    if isinstance(f.field, ExactField):
        assert series_json(image) == series_json(fresh)
    else:
        assert agreement_order(image, fresh) == M
    assert B.verified_order == functional_equation_check(B, M) == M


@settings(max_examples=60, deadline=None)
@given(random_maps())
def test_shared_image_is_a_fresh_composition(case):
    *maps, M = case
    for f in maps:
        image_encloses_a_fresh_composition(f, M)


def test_shared_image_precisions_may_differ_from_a_fresh_composition():
    """z^5 + 9 z^4 over Q_3 capped at one digit, M = 37: the last step sums
    at order 41 with m = 3, a composition at order 37 with m = 2, and
    coefficient w^16 comes out O(3^8) in the image, O(3^7) afresh."""
    f = mono(3, [0, 0, 0, 0, 9], "capped", prec=1)
    omega, image, _ = _omega_series(f, 37)
    fresh = compose_through_poly(omega, f)
    assert image.coefficient(16).v == 8 and fresh.coefficient(16).v == 7
    image_encloses_a_fresh_composition(f, 37)


@settings(max_examples=30, deadline=None)
@given(random_maps())
def test_fallback_check_gives_the_same_build(case):
    *maps, M = case
    for f in maps:
        try:
            B = boettcher_series(f, M)
        except PrecisionError:
            continue
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TailSeries, "identical_to",
                          lambda self, other, n: False)
            omega, image, _ = _omega_series(f, M)
            fallback = boettcher_series(f, M)
        fresh = compose_through_poly(omega.truncate(M), f)
        assert series_json(image) == series_json(fresh)
        assert fallback.verified_order == B.verified_order
        assert [series_json(fallback.omega),
                series_json(fallback.omega_inverse)] \
            == [series_json(B.omega), series_json(B.omega_inverse)]


def verified_orders(f, M):
    """(the verified_order conjugacy(f, M) reports, the agreement of the
    build's image with omega^d cut to M), or None when the capped roots
    run out of digits."""
    try:
        omega, image, _ = _omega_series(f, M)
        B = conjugacy(f, M)
    except PrecisionError:
        return None
    return B.verified_order, agreement_order(
        image, (omega ** f.degree).truncate(M))


@settings(max_examples=40, deadline=None)
@given(random_maps())
def test_verified_order_is_the_explicit_check(case):
    """With the last step's image the build takes verified_order from the
    last root's check, and forms omega^d only for a fresh composition
    (``identical_to`` patched to False): either way it is the order the
    explicit comparison gives."""
    *maps, M = case
    for f in maps:
        orders = [verified_orders(f, M)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TailSeries, "identical_to",
                          lambda self, other, n: False)
            orders.append(verified_orders(f, M))
        for pair in orders:
            assert pair is None or pair == (M, M)


@settings(max_examples=40, deadline=None)
@given(random_maps(), st.integers(1, 5))
def test_one_root_per_approximant_is_the_chain_of_d_th_roots(case, N):
    """xi_n = beta_n^(1/d^n) taken as one root is, element for element at
    full order, n successive d-th roots (or both raise the same error);
    the chain is this test's oracle and runs nowhere else."""
    *maps, M = case
    for f in maps:
        for n, beta in enumerate(_beta_series(f, N, M), 1):
            def chained():
                x = beta
                for _ in range(n):
                    x = x.nth_root(f.degree)
                return x
            one = outcome(beta.nth_root, f.degree ** n)
            chain = outcome(chained)
            if isinstance(one, str) or isinstance(chain, str):
                assert one == chain
            else:
                assert one.trunc == chain.trunc == M
                assert one.identical_to(chain, M)


@settings(max_examples=40, deadline=None)
@given(random_maps(), st.data())
def test_cut_w_powers_are_fresh_powers(case, data):
    """The fixed point forms 1, W, ..., W^m once to its last order and
    reads them cut to each step's T: every entry cut to a smaller T is
    the element-for-element power formed at T."""
    *maps, _ = case
    top = data.draw(st.integers(2, 200))
    T = data.draw(st.integers(1, top))
    for f in maps:
        table = _powers(_reciprocal(f, top), _baby_steps(top, f.degree), top)
        fresh = _powers(_reciprocal(f, T), len(table) - 1, T)
        assert len(fresh) == len(table)
        for cut, power in zip(table, fresh):
            assert cut.truncate(T).identical_to(power, T)


def built(f, M):
    """Omega, Omega^-1 and the verified order of a build, or the kind of
    error it raised."""
    try:
        B = boettcher_series(f, M)
    except (InternalError, PrecisionError, ZeroDivisionError) as exc:
        return type(exc).__name__
    return [series_json(B.omega), series_json(B.omega_inverse),
            B.verified_order]


def cold_roots_give_the_same_build(f, M):
    """Each root of the fixed point taken from 1, as ``nth_root`` does,
    instead of from the previous omega, changes no output: the Newton
    steps, which the checked roots run too, start from 1."""
    warm = built(f, M)
    steps = TailSeries._root_steps
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TailSeries, "_root_steps",
                      lambda self, n, ladder=None: steps(self, n))
        cold = built(f, M)
    assert warm == cold


@settings(max_examples=60, deadline=None)
@given(random_maps())
# a step from 9 straight to 17 met exact zeros where the ladder from 1,
# through 16, has O(2^2) ones, and claimed more precision
@example((MonicPoly(ExactField(2), [2, 0, 2]),
          MonicPoly(CappedField(2, 1), [2, 0, 2]), 18))
def test_warm_roots_give_the_cold_build(case):
    *maps, M = case
    for f in maps:
        cold_roots_give_the_same_build(f, M)


@settings(max_examples=8, deadline=None)
@given(random_maps(), st.integers(41, 200))
def test_warm_roots_give_the_cold_build_at_higher_orders(case, M):
    # capped only: an exact root is the one root, however it is reached
    cold_roots_give_the_same_build(case[1], M)


@pytest.mark.parametrize("backend", ["exact", "capped"])
@pytest.mark.parametrize("wrong", [2, 3])
def test_corrupted_intermediate_root_raises(backend, wrong, monkeypatch):
    """Only the fixed point's last root is checked, and a wrong one before
    it still cannot pass: with 1 added to coefficient 1 of the second or
    third root of z^2 + z/5 + 3 at M = 32, the build raises."""
    steps, calls = TailSeries._root_steps, []

    def corrupted(self, n, ladder=None):
        x, ladder = steps(self, n, ladder)
        calls.append(x)
        if len(calls) == wrong:
            x = x.replace_coefficient(1, x.coefficient(1) + 1)
        return x, ladder

    f = mono(5, [3, F(1, 5)], backend)
    conjugacy(f, 32)
    monkeypatch.setattr(TailSeries, "_root_steps", corrupted)
    with pytest.raises(InternalError):
        conjugacy(f, 32)
    assert len(calls) >= wrong


def test_shared_image_serves_the_reference_builds(monkeypatch):
    """The shared image, not a composition of the final omega, is what
    the reference map's builds check: each build's last comparison, of
    the omega before the last step with the final one, holds."""
    calls, shared = [], []
    identical_to = TailSeries.identical_to

    def recorded(self, other, n):
        calls.append(identical_to(self, other, n))
        return calls[-1]

    monkeypatch.setattr(TailSeries, "identical_to", recorded)
    for backend in ("exact", "capped"):
        f = mono(5, [3, F(1, 5)], backend)
        for M in (16, 64):
            calls.clear()
            _omega_series(f, M)
            shared.append(calls[-1])
    assert shared == [True] * 4


# -- escape tests --------------------------------------------------------------


def test_escape_good_reduction_decisive():
    f = mono(5, [3, 0])
    esc = escape_test(f, F(1, 5))
    assert esc.status == "escapes" and esc.iterations == 0 and esc.certified
    bnd = escape_test(f, F(2))
    assert bnd.status == "bounded" and bnd.certified


def test_escape_exact_cancellation():
    p = 5
    f = mono(p, [F(-1, p * p), 0])
    # orbit 1/p -> 0 -> -1/p^2 -> ...: nothing certified within one step
    r = escape_test(f, F(1, p), max_iter=1)
    assert r.status == "bounded-so-far"
    assert not r.certified
    # two more steps reach valuation -2 < v(C_f) = -1: certified escape
    r2 = escape_test(f, F(1, p), max_iter=3)
    assert r2.status == "escapes" and r2.iterations == 2


def test_escape_bad_reduction_immediate():
    f = mono(5, [F(1, 5), 0])
    r = escape_test(f, F(1, 25))
    assert r.status == "escapes" and r.iterations == 0


def test_escape_refuses_a_negative_iteration_budget():
    # refused before the good-reduction shortcut, which reads no budget
    for f in (mono(5, [3, 0]), mono(5, [F(1, 5), 0])):
        with pytest.raises(UsageError, match="max_iter"):
            escape_test(f, F(1, 25), max_iter=-1)
    assert escape_test(mono(5, [F(1, 5), 0]), F(1, 5),
                       max_iter=0).iterations == 0


# -- omega without its inverse -------------------------------------------------


@pytest.mark.parametrize("backend", ["exact", "capped"])
@pytest.mark.parametrize("p,coeffs,M", [
    (5, [3, F(1, 5)], 16),        # bad reduction, the order-scaling map
    (3, [1, 1], 12),
    (7, [F(2, 7), 0, 1], 10),     # cubic, bad reduction
    (5, [3, 0], 2),               # no fixed-point step
])
def test_conjugacy_is_the_build_without_its_inverse(backend, p, coeffs, M):
    f = mono(p, coeffs, backend)
    C, B = conjugacy(f, M), boettcher_series(f, M)
    assert type(C) is Conjugacy and isinstance(B, Conjugacy)
    assert not hasattr(C, "omega_inverse")
    assert C.omega.identical_to(B.omega, M)
    assert C.verified_order == B.verified_order == M
    assert (C.f, C.cf_valuation, C.good_reduction, C.domain) == (
        B.f, B.cf_valuation, B.good_reduction, B.domain)
    assert functional_equation_check(C) == M


# -- pointwise evaluation ------------------------------------------------------


def test_omega_at_rational_points():
    # an int or Fraction point is embedded, as point_identity_report does
    for backend in ("exact", "capped"):
        for coeffs, z in (([3, F(1, 5)], F(1, 25)), ([3, 0], F(2, 5))):
            f = mono(5, coeffs, backend)
            for B in (boettcher_series(f, 8), conjugacy(f, 8)):
                pv = omega_at(B, z)
                ref = omega_at(B, f.field.embed(z))
                assert pv.value == ref.value and pv.err == ref.err
                assert pv.value.field is f.field
                with pytest.raises(DomainError):
                    omega_at(B, 2)     # an int is never in the disk


def test_omega_at_power_map():
    f = mono(5, [0, 0])
    B = boettcher_series(f, 10)
    z = f.field.from_rational(F(1, 5))
    pv = omega_at(B, z)
    assert pv.value == 5
    assert pv.value.valuation() == 1


def test_omega_at_functional_identity_at_point():
    f = mono(5, [3, 0])
    B = boettcher_series(f, 16)
    P = f.field.from_rational(F(1, 5))
    ok, residual, bound = point_identity_report(B, P)
    assert ok
    assert residual >= bound
    pv = omega_at(B, P)
    assert pv.value.valuation() == 1


def test_omega_at_boundary_rejected():
    f = mono(5, [3, 0])
    B = boettcher_series(f, 8)
    with pytest.raises(DomainError):
        omega_at(B, f.field.from_rational(2))


def test_point_identity_sampled_random():
    rng = random.Random(4002)
    f = mono(3, [1, 1])
    B = boettcher_series(f, 24)
    for _ in range(10):
        P = f.field.from_rational(F(rng.choice([1, 2, 4, 5]),
                                    3 ** rng.randrange(1, 4)))
        ok, residual, bound = point_identity_report(B, P)
        assert ok, (P, residual, bound)


# -- coefficient-level invariants ---------------------------------------------


def test_good_reduction_integral_coefficients():
    for p, coeffs in [(5, [3, 0]), (3, [1, 1]), (7, [2, 1, 0])]:
        B = boettcher_series(mono(p, coeffs), 20)
        assert B.good_reduction
        assert all(c.valuation() >= 0 for c in B.omega.coeffs)
        assert all(c.valuation() >= 0 for c in B.omega_inverse.coeffs)
        assert rescaled_integrality_ok(B)


def test_bad_reduction_rescaled_integrality():
    for p, coeffs in [(5, [F(-1, 5), 0]), (3, [F(1, 9), F(1, 3)]),
                      (7, [F(2, 7), 0, 1])]:
        f = mono(p, coeffs)
        B = boettcher_series(f, 16)
        assert not B.good_reduction
        assert rescaled_integrality_ok(B)
        # some coefficient is genuinely non-integral, so the rescaling bites
        assert any(c.valuation() < 0 for c in B.omega.coeffs)


def test_rescaled_integrality_is_a_gauss_norm_bound():
    """The Gauss norm bound gives the coefficient rule
    v(c_k) >= (k - 1) v(C_f), exact and capped, with C_f moved both ways
    so that the rule fails as well as holds."""
    def coefficient_rule(B):
        return all(c.valuation() >= (S.ord + i - 1) * B.cf_valuation
                   for S in (B.omega, B.omega_inverse)
                   for i, c in enumerate(S.coeffs))

    outcomes = set()
    for backend, prec in (("exact", 20), ("capped", 20), ("capped", 3)):
        for p, coeffs in [(5, [3, 0]), (5, [F(-1, 5), 0]),
                          (3, [F(1, 9), F(1, 3)]), (7, [F(2, 7), 0, 1])]:
            B = boettcher_series(mono(p, coeffs, backend, prec), 12)
            for shift in (F(-1, 2), 0, F(1, 3), 1):
                cf = B.cf_valuation + shift
                moved = B._replace(cf_valuation=cf,
                                   domain=B.domain._replace(eps=-cf))
                outcomes.add(coefficient_rule(moved))
                assert rescaled_integrality_ok(moved) == \
                    coefficient_rule(moved), (backend, prec, p, coeffs, shift)
    assert outcomes == {True, False}


def test_coefficients_stay_in_base_field():
    # the computable shadow of Galois equivariance: construction never
    # leaves the base field
    B = boettcher_series(mono(5, [F(-1, 5), 0]), 12)
    from padicdyn.localfield import ExactElement
    assert all(isinstance(c, ExactElement) for c in B.omega.coeffs)


def test_functional_equation_randomized_both_backends():
    rng = random.Random(4003)
    cases = 0
    for p in (3, 5, 7):
        for d in (2, 3, 4, 5):
            if d % p == 0:
                continue
            backend = "exact" if (p + d) % 2 else "capped"
            coeffs = [F(rng.randrange(-9, 10),
                        rng.choice([1, 1, 1, p])) for _ in range(d)]
            f = mono(p, coeffs, backend=backend, prec=20)
            M = rng.choice([12, 16, 24])
            B = boettcher_series(f, M)
            assert B.verified_order == M
            cases += 1
    assert cases >= 9


def test_capped_backend_matches_exact_modulo_precision():
    prec = 16
    fe = mono(5, [3, 1], "exact")
    fc = mono(5, [3, 1], "capped", prec)
    Be = boettcher_series(fe, 20)
    Bc = boettcher_series(fc, 20)
    C = fc.field
    for k in range(1, 20):
        diff = Bc.omega.coefficient(k) - C.from_rational(
            Be.omega.coefficient(k).value)
        assert diff.is_zero()


def test_compose_through_poly_examples():
    K = ExactField(5)
    f = mono(5, [3, 0])
    w = TailSeries.w_power(K, 1, 8)
    # S = w, f = z^2 + c: w^2 - c w^4 + c^2 w^6 - ...
    out = compose_through_poly(w, f)
    assert out.coefficient(2) == 1
    assert out.coefficient(4) == -3
    assert out.coefficient(6) == 9
    fd = mono(5, [0, 0, 0])
    assert compose_through_poly(w, fd).coefficient(3) == 1
    # functional-equation oracle: omega(f(z)) equals omega^2 to full order
    B = boettcher_series(f, 12)
    lhs = compose_through_poly(B.omega, f)
    rhs = (B.omega ** 2).truncate(12)
    assert agreement_order(lhs, rhs) == 12


def test_series_order_budget_env(monkeypatch):
    monkeypatch.setenv("PADICDYN_MAX_ORDER", "8")
    with pytest.raises(BudgetError):
        boettcher_series(mono(5, [3, 0]), 16)
    monkeypatch.delenv("PADICDYN_MAX_ORDER")
    assert boettcher_series(mono(5, [3, 0]), 16).verified_order == 16


def test_omega_pair_mutually_inverse():
    # compositions by the element-loop oracle (test_series_kernel.Ref)
    f = mono(5, [F(-1, 5), 0])
    B = boettcher_series(f, 16)
    w = Ref(f.field, 1, [1], 16)
    omega, inverse = Ref.of(B.omega), Ref.of(B.omega_inverse)
    assert omega.compose(inverse).agreement(w) >= B.verified_order
    assert inverse.compose(omega).agreement(w) >= B.verified_order


# -- the inverse series from its own functional equation ----------------------


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_omega_inverse_matches_lagrange_invert(data):
    # bad reduction included: denominators carry p and p^2
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    d = data.draw(st.sampled_from([d for d in range(2, 6) if d % p]))
    coeffs = data.draw(st.lists(st.builds(
        F, st.integers(-30, 30), st.sampled_from([1, 2, p, p * p])),
        min_size=d, max_size=d))
    M = data.draw(st.integers(2, 24))
    cap = data.draw(st.integers(1, 12))
    for field in (ExactField(p), CappedField(p, cap)):
        f = MonicPoly(field, coeffs)
        try:
            omega = _omega_series(f, M)[0]
        except PrecisionError:
            continue        # the capped roots ran out of digits
        assert encoded(_omega_inverse, f, M) == encoded(lagrange_invert,
                                                        omega)


@pytest.mark.parametrize("backend", ["exact", "capped"])
@pytest.mark.parametrize("p, coeffs", [
    (5, [3, F(1, 5)]),                   # the reference map, bad reduction
    (5, [F(2, 5), 1, -1]),               # cubic
    (7, [1, 0, F(-3, 7), 2]),            # quartic
])
def test_inverse_residual_locates_corruption(backend, p, coeffs):
    """A wrong coefficient k >= 2 of omega^-1 first shows in G at
    k + d - 1 and in omega(omega^-1) - w at k: both checks catch every
    index below M."""
    M = 16
    f = mono(p, coeffs, backend)
    d = f.degree
    B = boettcher_series(f, M)
    G = _inverse_residual(B.omega_inverse, f)[0]
    none = TailSeries.zero(f.field, G.trunc)
    assert G.trunc == M + d - 1 and agreement_order(G, none) == G.trunc
    w, omega = Ref(f.field, 1, [1], M), Ref.of(B.omega)
    for k in range(2, M):
        # far below any digit the coefficients carry
        c = B.omega_inverse.coefficient(k) + F(1, p ** 100)
        bad = B.omega_inverse.replace_coefficient(k, c)
        assert agreement_order(_inverse_residual(bad, f)[0], none) \
            == k + d - 1
        # composed by the element-loop oracle (test_series_kernel.Ref)
        assert omega.compose(Ref.of(bad)).agreement(w) == k


@pytest.mark.parametrize("prec", [2, 3, 5, 20])
@pytest.mark.parametrize("p, coeffs, M", [
    (3, [-6, -6], 4),                    # z^2 - 6z - 6
    (3, [-2, -4], 4),                    # z^2 - 4z - 2
    (7, [-2, -4], 4),
    (3, [-2, -2], 6),                    # z^2 - 2z - 2
])
def test_omega_inverse_padding_never_stays_exact(p, coeffs, M, prec):
    """The last coefficient of omega^-1 is 0 for these maps.  The Newton
    step that fills it sees a residual G that is only indistinguishable
    from zero, and must still correct the zero-padded iterate, so the
    capped coefficient is an O(p^k) zero, not an exact one (README: a
    capped coefficient is an exact zero only when exact arithmetic made
    it one)."""
    assert _omega_inverse(mono(p, coeffs), M).coefficient(M - 1) == 0
    last = _omega_inverse(mono(p, coeffs, "capped", prec), M).coefficient(
        M - 1)
    assert last.is_zero() and not last.is_exact_zero
