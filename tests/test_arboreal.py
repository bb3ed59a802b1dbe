"""Tree automorphism model, degree chains, and transport checks."""

import os
import random
from fractions import Fraction as F
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicdyn import arboreal, boettcher, config
from padicdyn import (BudgetError, CappedField, DomainError, ExactField,
                      ExtensionField, KummerLevel, MonicPoly, UsageError,
                      boettcher_series, conjugacy,
                      build_polygon, certify_degree, degree_chain,
                      predicted_degree_step, subgroup_orbit_count,
                      total_ramification_certificate, transport_check,
                      transported_valuation)
from padicdyn.localfield import poly_mul


def mono(p, coeffs):
    return MonicPoly(ExactField(p), coeffs)


# -- group model ---------------------------------------------------------------


def test_act_identity_and_arithmetic():
    L = KummerLevel(2, 2)
    for k in range(4):
        assert L.act((0, 1), k) == k
    assert L.act((1, 3), 2) == (3 * 2 + 1) % 4


def test_translations_are_transitive():
    L = KummerLevel(3, 2)
    orbit = {0}
    k = 0
    for _ in range(L.modulus):
        k = L.act((1, 1), k)
        orbit.add(k)
    assert orbit == set(range(L.modulus))
    assert subgroup_orbit_count([(1, 1)], L) == 1


def test_restrict_examples():
    L = KummerLevel(2, 2)
    assert L.restrict((3, 3)) == (1, 1)
    assert L.restrict(L.identity()) == (0, 1)


def test_restrict_commutes_with_action_exhaustively():
    for d in (2, 3):
        for N in (2, 3):
            L = KummerLevel(d, N)
            L_down = KummerLevel(d, N - 1)
            m_down = d ** (N - 1)
            for g in L.elements():
                gd = L.restrict(g)
                for k in range(L.modulus):
                    assert (L.act(g, k) % m_down
                            == L_down.act(gd, k % m_down))


def test_group_axioms_small_levels():
    for d in (2, 3):
        for N in (1, 2):
            L = KummerLevel(d, N)
            els = list(L.elements())
            assert len(els) == L.order
            ident = L.identity()
            for g in els:
                assert L.compose(g, ident) == g
                assert L.compose(ident, g) == g
                assert L.compose(g, L.inverse(g)) == ident
            for g in els:
                for h in els:
                    gh = L.compose(g, h)
                    assert gh in set(els)
                    # the action is a homomorphism
                    for k in range(0, L.modulus, max(1, L.modulus // 3)):
                        assert (L.act(gh, k)
                                == L.act(g, L.act(h, k)))


def test_group_order_formula():
    for d, N in [(2, 1), (2, 3), (3, 2), (3, 3)]:
        L = KummerLevel(d, N)
        m = d ** N
        phi = sum(1 for j in range(1, m) if gcd(j, m) == 1)
        assert L.order == m * phi


def test_orbit_count_examples():
    L = KummerLevel(2, 3)
    assert subgroup_orbit_count([(0, 3)], L) == 5
    assert subgroup_orbit_count([], L) == 8
    assert subgroup_orbit_count(list(L.elements()), L) == 1


def test_non_invertible_generator_rejected():
    L = KummerLevel(2, 2)
    with pytest.raises(UsageError):
        L.act((1, 2), 1)


def test_kummer_level_checks_d_and_N():
    # _replace builds through the same check as the constructor
    for make in (lambda: KummerLevel(1, 2), lambda: KummerLevel(2, 0),
                 lambda: KummerLevel(2, 2)._replace(N=0)):
        with pytest.raises(UsageError, match="need d >= 2 and N >= 1"):
            make()


def test_restriction_tower_compatibility():
    L3 = KummerLevel(2, 3)
    L2 = KummerLevel(2, 2)
    for g in L3.elements():
        via_two = L2.restrict(L3.restrict(g))
        direct = (g[0] % 2, g[1] % 2)
        assert via_two == direct


# -- predicted degree steps ------------------------------------------------------


def test_predicted_step_unit_valuation():
    for d in (2, 3, 5):
        for n in range(5):
            assert predicted_degree_step(1, d, n) == d
            assert predicted_degree_step(-1, d, n) == d


def test_predicted_step_examples():
    assert [predicted_degree_step(2, 2, n) for n in range(4)] == [1, 2, 2, 2]
    assert [predicted_degree_step(6, 2, n) for n in range(4)] == [1, 2, 2, 2]
    assert [predicted_degree_step(12, 2, n) for n in range(4)] == [1, 1, 2, 2]


def test_predicted_step_rejects_units():
    with pytest.raises(DomainError):
        predicted_degree_step(0, 2, 1)


def test_predicted_step_telescoping():
    for v_q in range(-20, 21):
        if v_q == 0:
            continue
        for d in (2, 3, 4):
            product = 1
            stabilized = None
            for n in range(9):
                step = predicted_degree_step(v_q, d, n)
                assert step >= 1 and d % step == 0
                product *= step
                dm = d ** (n + 1)
                assert product == dm // gcd(dm, abs(v_q))
                if step == d and stabilized is None:
                    stabilized = n
            assert predicted_degree_step(v_q, d, 8) == d


# -- certified degrees -----------------------------------------------------------


def test_certify_power_map_chain():
    for p in (3, 5):
        f = mono(p, [0, 0])
        for n in range(1, 7):
            assert certify_degree(f, F(1, p), n) == 2 ** n


def test_certify_quadratic_chain_base_three():
    f = mono(3, [1, 0])
    for n, expected in [(1, 2), (2, 4), (3, 8)]:
        assert certify_degree(f, F(1, 3), n) == expected


def test_certify_uncertified_case():
    f = mono(5, [0, 0])
    assert certify_degree(f, F(25), 1) is None


def test_certify_needs_exact_backend():
    from padicdyn import CappedField
    f = MonicPoly(CappedField(5, 10), [0, 0])
    with pytest.raises(UsageError):
        certify_degree(f, F(1, 5), 1)


def test_degree_chain_consistency():
    f = mono(3, [1, 0])
    chain = degree_chain(f, F(1, 3), levels=3)
    assert chain.v_q == 1
    product = 1
    for rec in chain.levels:
        product *= rec["predicted_step"]
        if rec["certified_degree"] is not None:
            assert rec["certified_degree"] == product


def test_transported_valuation_good_reduction():
    f = mono(3, [1, 0])
    B = boettcher_series(f, 12)
    assert transported_valuation(B, F(1, 9)) == 2


def test_transported_valuation_bad_reduction_exact():
    f = mono(5, [F(-1, 5), 0])
    B = boettcher_series(f, 16)
    assert transported_valuation(B, F(1, 25)) == 2


# -- transport -------------------------------------------------------------------


def test_transport_power_map():
    p = 5
    f = mono(p, [0, 0])
    B = boettcher_series(f, 12)
    E = ExtensionField(ExactField(p), [-p, 0], "eisenstein")
    Q = E.generator().inverse()  # 1/pi with pi^2 = p
    report = transport_check(B, E, Q, F(1, p))
    assert report.passed
    for check in report.checks:
        assert check.passed
        assert check.residual >= check.bound


def test_transport_quadratic_preimage():
    f = mono(3, [1, 0])  # z^2 + 1 over Q_3
    B = boettcher_series(f, 20)
    E = ExtensionField(ExactField(3), [F(3, 2), 0], "eisenstein")
    Q = E.generator().inverse()  # Q^2 = -2/3, so f(Q) = 1/3
    report = transport_check(B, E, Q, F(1, 3))
    assert report.passed


def test_transport_detects_corruption():
    p = 5
    f = mono(p, [0, 0])
    B = boettcher_series(f, 12)
    bad_omega = B.omega.replace_coefficient(3, F(1, 1))
    corrupted = B._replace(omega=bad_omega)
    E = ExtensionField(ExactField(p), [-p, 0], "eisenstein")
    Q = E.generator().inverse()
    report = transport_check(corrupted, E, Q, F(1, p))
    assert not report.passed
    power = report.checks[0]
    assert not power.passed
    assert power.residual < power.bound
    # predictable residual: with omega ~ w + w^3 the power side picks up
    # 2 pi^4 (valuation 2) while the base side error sits at valuation 3
    assert power.residual == 2


@pytest.mark.parametrize("field", [ExactField(7), CappedField(7, 20)],
                         ids=["exact", "capped"])
def test_transport_pairs_each_conjugate_by_its_automorphism(field):
    """On the cyclic cubic stage t^3 - 7, Q = t^2/7 is a preimage of
    P = 1/7 + 2 under z^3 + 2.  Conjugates of omega(Q) taken under
    sigma^-1 in place of sigma (the nontrivial images reversed) still
    form the same multiset, but pairing each with the conjugate of Q
    under its own sigma shows omega(sigma Q) != sigma(omega(Q))."""
    B = conjugacy(MonicPoly(field, [2, 0, 0]), 12)
    E = ExtensionField(field, [-7, 0, 0], "eisenstein")
    Q = E.generator() ** 2 * E.embed(F(1, 7))
    P = F(1, 7) + 2
    report = transport_check(B, E, Q, P, precision=20)
    assert report.passed
    honest = report.checks[1]
    assert honest.residual >= honest.bound == 4

    real = arboreal.conjugates

    def inverted(E, a, precision=32):
        images = real(E, a, precision=precision)
        return images if a is Q else images[:1] + images[:0:-1]

    with mock.patch.object(arboreal, "conjugates", inverted):
        report = transport_check(B, E, Q, P, precision=20)
    power, pairs = report.checks
    assert power.passed and not report.passed
    assert pairs.name == "conjugate-multisets" and not pairs.passed
    # the worst residual over the sigma pairs, not the best over pairings
    assert pairs.residual == F(1, 3) and pairs.bound == 4


@pytest.mark.parametrize("cap", [12, 20])
def test_capped_transport_lifts_to_the_cap_at_the_default_precision(cap):
    """``transport_check`` asks for 32 digits by default, more than the
    cap: over t^3 - 7 the generator images are lifted to the cap, the
    digits a capped element holds, so the check runs instead of raising
    PrecisionError.  Q = t^2/7 is a preimage of P = 1/7 under z^3."""
    field = CappedField(7, cap)
    B = conjugacy(MonicPoly(field, [0, 0, 0]), 12)
    E = ExtensionField(field, [-7, 0, 0], "eisenstein")
    Q = E.generator() ** 2 * E.embed(F(1, 7))
    assert transport_check(B, E, Q, F(1, 7)).passed


def test_transport_rejects_wrong_preimage():
    p = 5
    f = mono(p, [0, 0])
    B = boettcher_series(f, 12)
    E = ExtensionField(ExactField(p), [-p, 0], "eisenstein")
    with pytest.raises(UsageError):
        transport_check(B, E, E.generator(), F(1, p))


def test_certify_degree_budget():
    from padicdyn import BudgetError
    f = mono(5, [0, 0])
    with pytest.raises(BudgetError):
        certify_degree(f, F(1, 5), 7)  # 2^7 = 128 > default budget 64


def test_tree_degree_budget_env(monkeypatch):
    from padicdyn import BudgetError
    monkeypatch.setenv("PADICDYN_MAX_DEGREE", "256")
    f = mono(5, [0, 0])
    assert certify_degree(f, F(1, 5), 7) == 128


def test_orbit_count_budget():
    from padicdyn import BudgetError
    with pytest.raises(BudgetError):
        subgroup_orbit_count([(1, 1)], KummerLevel(2, 13))


def test_orbit_count_checks_before_forming_the_modulus():
    """The unit condition and the budget need no d^N: at d = 7 and
    N = 20000000, with ``modulus`` patched to raise, a unit generator
    meets the budget and a non-unit one stays a usage error."""
    L = KummerLevel(7, 20000000)

    def unformed(self):
        raise AssertionError("d^N formed")

    with mock.patch.object(KummerLevel, "modulus", property(unformed)):
        with pytest.raises(BudgetError):
            subgroup_orbit_count([(0, 3)], L)
        with pytest.raises(UsageError):
            subgroup_orbit_count([(0, 7)], L)


# -- flat iterates and the degree chain -----------------------------------------


def iterate_by_elements(f, N):
    """f^N by substituting f into element coefficient lists with
    ``poly_mul`` (Horner), as rationals: the oracle for the flat chain."""
    current = f.full_coeffs()
    for _ in range(N - 1):
        acc = [current[-1]]
        for c in reversed(current[:-1]):
            acc = poly_mul(acc, f.full_coeffs())
            acc[0] = acc[0] + c
        current = acc
    return [c.value for c in current]


def random_exact_map(rng, p, d):
    """Coefficients over denominators p^k, prime to p, mixed, or 1."""
    dens = [1, p, p ** 2, p ** 3, 2 if p != 2 else 3, 7 * p, 11]
    return mono(p, [F(rng.randrange(-20, 21), rng.choice(dens))
                    for _ in range(d)])


def test_flat_iterates_match_element_horner():
    rng = random.Random(8)
    for trial in range(24):
        p = (2, 3, 5, 7)[trial % 4]
        d = 2 + trial % 4
        f = random_exact_map(rng, p, d)
        # levels asked in a scrambled order must come out of one chain
        for N in rng.sample([1, 2, 3], 3):
            got = [c.value for c in f.iterate(N).full_coeffs()]
            assert got == iterate_by_elements(f, N), (trial, N)
            assert all(type(q) is F for q in got)
        assert len(f._chain) == 3


def test_degree_chain_matches_level_by_level_recomputation():
    rng = random.Random(9)
    for trial in range(30):
        p = (3, 5, 7)[trial % 3]
        d = (2, 2, 3, 4)[trial % 4]
        if d % p == 0:
            d = 2
        f = random_exact_map(rng, p, d)
        P = F(rng.randrange(1, 4 * p), p ** rng.randrange(1, 4))
        levels = {2: 6, 3: 3, 4: 3}[d]
        try:
            v_q = transported_valuation(boettcher_series(f, 8), P)
        except DomainError:
            with pytest.raises(DomainError):
                degree_chain(f, P, levels, order=8)
            continue
        chain = degree_chain(f, P, levels, order=8)
        assert chain.v_q == v_q
        for n, rec in enumerate(chain.levels, 1):
            fresh = mono(p, f.coeffs)   # no chain carried over
            assert rec == {"n": n,
                           "predicted_step": predicted_degree_step(
                               v_q, d, n - 1),
                           "certified_degree": certify_degree(fresh, P, n)}


def test_degree_chain_builds_no_iterate_past_the_budget(monkeypatch):
    steps = []
    compose = boettcher._compose_flat

    def counted(f, g):
        steps.append(len(g[0]) - 1)   # degree of the level composed into
        return compose(f, g)

    monkeypatch.setattr(boettcher, "_compose_flat", counted)
    for budget, certified in ((None, 6), ("16", 4)):
        if budget is not None:
            monkeypatch.setenv("PADICDYN_MAX_DEGREE", budget)
        steps.clear()
        chain = degree_chain(mono(3, [0, 0]), F(1, 3), levels=8)
        assert [r["certified_degree"] for r in chain.levels] == (
            [2 ** n for n in range(1, certified + 1)]
            + [None] * (8 - certified))
        # each of f^2 .. f^certified composed once, nothing beyond
        assert steps == [2 ** n for n in range(1, certified)]


def test_low_coeff_bits_budget_leaves_the_same_levels_uncertified(
        monkeypatch):
    f = mono(3, [2, 2])          # z^2 + 2z + 2: iterates grow fast
    P = F(1, 3)
    for cap in (4, 12, 40, 200):
        monkeypatch.setenv("PADICDYN_MAX_COEFF_BITS", str(cap))
        expected = []
        for n in range(1, 7):
            coeffs = iterate_by_elements(f, n)
            coeffs[0] -= P
            wide = any(q.numerator.bit_length() > cap
                       or q.denominator.bit_length() > cap for q in coeffs)
            expected.append(None if wide else 2 ** n)
        assert [r["certified_degree"] for r in degree_chain(
            f, P, levels=6).levels] == expected, cap
        assert None in expected or cap == 200


def test_single_term_polygon_is_uncertified():
    # f(x) - P = x^2 and f^2(x) - P = (x^2 + 1/3)^2: the first has one
    # nonzero coefficient, so every root is 0 and nothing is certified
    f = mono(3, [F(1, 3), 0])
    assert certify_degree(f, F(1, 3), 1) is None
    assert certify_degree(mono(5, [0, 0]), 0, 2) is None


def certify_by_elements(f, P, n):
    """``certify_degree`` on elements: f^n - P as rationals, the budgets
    on each of them, and the polygon of their valuations."""
    if f.degree ** n > config.max_tree_degree():
        raise BudgetError("tree degree")
    coeffs = f.iterate(n).full_coeffs()
    coeffs[0] = coeffs[0] - f.field.embed(P)
    config.check_coeff_bits(c.value for c in coeffs)
    if all(c.is_zero() for c in coeffs[:-1]):
        return None
    cert = total_ramification_certificate(build_polygon(coeffs), coeffs)
    return None if cert is None else cert.degree


def outcome(fn, *args):
    try:
        return fn(*args)
    except BudgetError:
        return "budget"


@st.composite
def degree_cases(draw):
    """An exact map of degree 2-4 over p in {2, 3, 5, 7}, often with zero
    coefficients, and a point: a rational over a power of p, 0, or the
    constant term of an iterate, so that f^n - P has a_0 = 0."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(2, 4))
    dens = [1, p, p * p, 2 if p != 2 else 3]
    rational = st.builds(F, st.integers(-9, 9), st.sampled_from(dens))
    coeffs = draw(st.lists(st.one_of(st.just(0), st.integers(-9, 9),
                                     rational), min_size=d, max_size=d))
    f = MonicPoly(ExactField(p), coeffs)
    n = draw(st.integers(1, {2: 6, 3: 3, 4: 3}[d]))
    kind = draw(st.sampled_from(["rational", "rational", "zero",
                                 "iterate"]))
    if kind == "iterate":
        P = f.iterate(n).coeffs[0].value
    elif kind == "zero":
        P = F(0)
    else:
        P = draw(rational)
    return coeffs, p, P, n


@settings(max_examples=150, deadline=None)
@given(degree_cases(), st.sampled_from([None, None, "8", "40", "200"]),
       st.sampled_from([None, None, "4", "16"]))
# z^2 - 3/49 at P = 1/7: at level 2 only a denominator is over 8 bits
@example(([0, F(-3, 49)], 7, F(1, 7), 2), "8", None)
def test_integer_certificates_match_the_element_polygon(case, bits, degree):
    coeffs, p, P, n = case
    env = {"PADICDYN_MAX_COEFF_BITS": bits, "PADICDYN_MAX_DEGREE": degree}
    with mock.patch.dict(os.environ, {k: v for k, v in env.items() if v}):
        want = outcome(certify_by_elements, MonicPoly(ExactField(p), coeffs),
                       P, n)
        got = outcome(certify_degree, MonicPoly(ExactField(p), coeffs), P, n)
    assert got == want


def test_iterate_chain_shared_across_threads():
    import sys
    import threading

    f = mono(5, [F(3, 25), F(-2, 7), 1])
    want = {n: iterate_by_elements(f, n) for n in range(1, 4)}
    shared = mono(5, f.coeffs)
    wrong = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(30):
            n = rng.randrange(1, 4)
            if [c.value for c in shared.iterate(n).full_coeffs()] != want[n]:
                wrong.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    # a lost update only shortens the chain; no value may be wrong
    assert wrong == []
