"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are pinned here; the exact backend demands exact
coefficient equality, the capped backend equality modulo p^A.
"""

import random
import time
from fractions import Fraction as F
from math import gcd

import numpy as np
import sympy

from padicdyn import (CappedField, ExactField, ExtensionField, KummerLevel,
                      MonicPoly, boettcher_series, cauchy_rate_check,
                      certify_degree, cf_constant, cf_sup_check,
                      escape_test, functional_equation_check, good_reduction,
                      omega_at, point_identity_report, predicted_degree_step,
                      rescaled_integrality_ok, transport_check)
from padicdyn.series import PointValue, agreement_order


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_monic(rng, p, d, bad: bool, field):
    coeffs = []
    for i in range(d):
        q = F(rng.randrange(-9, 10))
        coeffs.append(q)
    if bad:
        i = rng.randrange(d)
        coeffs[i] = F(rng.randrange(1, 9) * rng.choice([1, -1]),
                      p ** rng.randrange(1, 3))
    return MonicPoly(field, coeffs)


# -- criterion 1: functional equation ------------------------------------------


def test_acceptance_1_functional_equation():
    rng = random.Random(20260809)
    started = time.monotonic()
    combos = [(p, d) for p in (3, 5, 7) for d in (2, 3, 4, 5) if d % p]
    failures = []
    for trial in range(50):
        p, d = combos[trial % len(combos)]
        bad = trial % 2 == 1
        backend = "capped" if trial % 5 else "exact"
        field = ExactField(p) if backend == "exact" else CappedField(p, 20)
        f = random_monic(rng, p, d, bad, field)
        B = boettcher_series(f, 32)
        order = functional_equation_check(B, 32)
        if order != 32:
            failures.append((p, d, backend, order))
    elapsed = time.monotonic() - started
    report(1, not failures and elapsed < 30.0,
           f"50 randomized f at M=32, zero tolerance, {elapsed:.1f}s "
           f"(target < 30s); failures: {failures}")


# -- criterion 2: closed-form oracle --------------------------------------------


def quadratic_oracle(c, order=6):
    """Independent symbolic route: normalized fourth root of the second
    iterate, series-expanded by sympy."""
    w = sympy.symbols("w")
    cs = sympy.Rational(c.numerator, c.denominator)
    z = 1 / w
    beta2 = sympy.expand(((z ** 2 + cs) ** 2 + cs) * w ** 4)
    xi2 = sympy.series(beta2 ** sympy.Rational(1, 4), w, 0, order).removeO()
    omega = sympy.Poly(sympy.expand(
        sympy.series(w / xi2, w, 0, order + 1).removeO()), w)
    return [F(str(omega.coeff_monomial(w ** k))) for k in range(order + 1)]


def test_acceptance_2_closed_form_oracle():
    cases = [(F(3), 5), (F(-1), 3), (F(5), 5), (F(1, 7), 7)]
    problems = []
    for c, p in cases:
        oracle = quadratic_oracle(c)
        expected = [F(0), F(1), F(0), -c / 2, F(0), 3 * c * c / 8 - c / 4]
        if oracle[:6] != expected:
            problems.append(("oracle-disagrees", c))
            continue
        B = boettcher_series(MonicPoly(ExactField(p), [c, 0]), 8)
        got = [B.omega.coefficient(k).value for k in range(6)]
        if got != expected:
            problems.append(("omega", c, got))
        inv_expected = [F(0), F(1), F(0), c / 2, F(0), 3 * c * c / 8 + c / 4]
        got_inv = [B.omega_inverse.coefficient(k).value for k in range(6)]
        if got_inv != inv_expected:
            problems.append(("omega-inverse", c, got_inv))
    report(2, not problems,
           f"z^2+c closed form through w^5, c in {{3, -1, 5, 1/7}}, exact "
           f"equality against the independent symbolic oracle; {problems}")


# -- criterion 3: Cauchy rate ----------------------------------------------------


def test_acceptance_3_cauchy_rate():
    problems = []
    generic = [(5, [1, 1]), (3, [2, -1]), (7, [1, 2, 3]), (5, [2, 1, 1, 1])]
    for p, coeffs in generic:
        f = MonicPoly(ExactField(p), coeffs)
        d = f.degree
        rates = cauchy_rate_check(f, 3)
        for N, rate in enumerate(rates, start=1):
            if rate < d ** N:
                problems.append(("lower-bound", p, coeffs, N, rate))
            if rate != d ** N:  # a_{d-1} is a unit in all these cases
                problems.append(("sharp-equality", p, coeffs, N, rate))
    special = [(5, [3, 0]), (7, [F(1, 7), 0]), (5, [0, 5, 0])]
    for p, coeffs in special:  # a_{d-1} = 0: bound must still hold
        f = MonicPoly(ExactField(p), coeffs)
        d = f.degree
        for N, rate in enumerate(cauchy_rate_check(f, 3), start=1):
            if rate < d ** N:
                problems.append(("lower-bound", p, coeffs, N, rate))
    report(3, not problems,
           f"agreement orders >= d^N for N <= 3, equality whenever "
           f"a_(d-1) is a unit; {problems}")


# -- criterion 4: escape radius ---------------------------------------------------


def test_acceptance_4_cf_equivalence():
    rng = random.Random(48104)
    bad_count = 0
    problems = []
    polys = []
    for trial in range(100):
        p = (3, 5, 7)[trial % 3]
        d = (2, 3, 4, 5)[trial % 4]
        bad = trial % 3 != 0
        f = random_monic(rng, p, d, bad, ExactField(p))
        polys.append(f)
        if cf_constant(f) < 0:
            bad_count += 1
        if not cf_sup_check(f):
            problems.append(("sup-check", trial))
    if bad_count < 20:
        problems.append(("too-few-bad-reduction", bad_count))
    for f in polys[::3]:
        base = cf_constant(f)
        for N in (2, 3):
            if not cf_constant(f.iterate(N)) >= base:
                problems.append(("iterate-monotonicity", f))
    report(4, not problems,
           f"cf_sup_check on 100 randomized polynomials ({bad_count} with "
           f"C_f > 1), iterate monotonicity for N <= 3; {problems}")


# -- criterion 5: integrality / convergence ---------------------------------------


def test_acceptance_5_integrality():
    problems = []
    good_cases = [(5, [3, 0]), (3, [-1, 0]), (5, [5, 0]), (7, [2, 1, 0]),
                  (3, [1, 1]), (7, [F(1, 7) * 7, 0, 1, 0])]
    for p, coeffs in good_cases:
        f = MonicPoly(ExactField(p), coeffs)
        B = boettcher_series(f, 24)
        if not B.good_reduction:
            problems.append(("expected-good", p, coeffs))
        for S in (B.omega, B.omega_inverse):
            if not all(c.valuation() >= 0 for c in S.coeffs):
                problems.append(("integrality", p, coeffs))
    bad_cases = [(5, [F(-1, 5), 0]), (3, [F(1, 9), F(1, 3)]),
                 (7, [F(2, 7), 0, 1]), (5, [F(3, 5), F(1, 5), 0, 0])]
    for p, coeffs in bad_cases:
        f = MonicPoly(ExactField(p), coeffs)
        B = boettcher_series(f, 24)
        if B.good_reduction:
            problems.append(("expected-bad", p, coeffs))
        if not rescaled_integrality_ok(B):
            problems.append(("rescaled-integrality", p, coeffs))
    report(5, not problems,
           "good reduction: stored coefficients integral; bad reduction: "
           f"alpha-rescaled series integral with v(alpha)=v(C_f); {problems}")


# -- criterion 6: point-level identity --------------------------------------------


def test_acceptance_6_point_identity():
    rng = random.Random(61001)
    problems = []
    cases = [(5, [3, 0]), (3, [-1, 0]), (5, [5, 0]),
             (5, [F(-1, 5), 0]), (3, [F(1, 3), 1])]
    for p, coeffs in cases:
        f = MonicPoly(ExactField(p), coeffs)
        B = boettcher_series(f, 24)
        shift = int(-B.cf_valuation)
        for _ in range(20):
            num = rng.randrange(1, p)
            k = rng.randrange(1, 4)
            P = F(num, p ** (shift + k))
            ok, residual, bound = point_identity_report(B, P)
            if not ok:
                problems.append((p, coeffs, P, str(residual), str(bound)))
            if B.good_reduction:
                pv = omega_at(B, f.field.embed(P))
                if pv.value.valuation() != (shift + k):
                    problems.append(("valuation", p, coeffs, P))
    report(6, not problems,
           "omega(f(P)) = omega(P)^d within reported bounds at 20 points "
           f"per map, v(omega(P)) = -v(P) under good reduction; {problems}")


# -- criterion 7: degree growth ----------------------------------------------------


def test_acceptance_7_degree_growth():
    started = time.monotonic()
    problems = []
    for p in (3, 5):
        f = MonicPoly(ExactField(p), [0, 0])
        product = 1
        for n in range(1, 7):
            product *= predicted_degree_step(1, 2, n - 1)
            got = certify_degree(f, F(1, p), n)
            if got != 2 ** n or product != 2 ** n:
                problems.append((p, n, got, product))
    f = MonicPoly(ExactField(3), [1, 0])
    product = 1
    for n, expected in [(1, 2), (2, 4), (3, 8)]:
        product *= predicted_degree_step(1, 2, n - 1)
        got = certify_degree(f, F(1, 3), n)
        if got != expected or product != expected:
            problems.append(("z2+1", n, got, product))
    elapsed = time.monotonic() - started
    report(7, not problems and elapsed < 10.0,
           f"certified 2^n chains for z^2 (p=3,5; n<=6) and z^2+1 over Q_3 "
           f"(n<=3), consistent with predicted steps, {elapsed:.1f}s "
           f"(target < 10s); {problems}")


# -- criterion 8: tree automorphism model -------------------------------------------


def exhaustive_group_check(d: int, N: int):
    L = KummerLevel(d, N)
    m = L.modulus
    els = list(L.elements())
    n = len(els)
    phi = sum(1 for j in range(1, m + 1) if gcd(j, m) == 1)
    if n != m * phi or n != L.order:
        return f"order mismatch at d={d} N={N}"
    I = np.array([g[0] for g in els])
    J = np.array([g[1] for g in els])
    lookup = np.full(m * m, -1, dtype=np.int64)
    for idx, (i, j) in enumerate(els):
        lookup[i * m + j] = idx
    T = np.empty((n, n), dtype=np.int64)
    for a, (i1, j1) in enumerate(els):
        T[a] = lookup[((i1 + j1 * I) % m) * m + (j1 * J) % m]
    if (T < 0).any():
        return "not closed under composition"
    e = int(lookup[0 * m + 1])
    ident = np.arange(n)
    if not ((T[e] == ident).all() and (T[:, e] == ident).all()):
        return "identity fails"
    if not ((np.sort(T, axis=1) == ident).all()
            and (np.sort(T, axis=0) == ident[:, None]).all()):
        return "inverses missing"
    for a in range(n):  # full associativity, row by row
        if not (T[T[a]] == T[a][T]).all():
            return f"associativity fails at element {a}"
    K = np.arange(m)
    A = (J[:, None] * K[None, :] + I[:, None]) % m
    for g in range(n):  # action is a group action on labels
        if not (A[T[g]] == A[g][A]).all():
            return f"action compatibility fails at element {g}"
    if N >= 2:
        L2 = KummerLevel(d, N - 1)
        m2 = d ** (N - 1)
        els2 = list(L2.elements())
        lookup2 = np.full(m2 * m2, -1, dtype=np.int64)
        for idx, (i, j) in enumerate(els2):
            lookup2[i * m2 + j] = idx
        R = lookup2[(I % m2) * m2 + (J % m2)]
        I2 = np.array([g[0] for g in els2])
        J2 = np.array([g[1] for g in els2])
        T2 = np.empty((len(els2), len(els2)), dtype=np.int64)
        for a, (i1, j1) in enumerate(els2):
            T2[a] = lookup2[((i1 + j1 * I2) % m2) * m2 + (j1 * J2) % m2]
        if not (R[T] == T2[R[:, None], R[None, :]]).all():
            return "restriction is not a homomorphism"
        A2 = (J2[:, None] * np.arange(m2)[None, :] + I2[:, None]) % m2
        if not (A % m2 == A2[R][:, K % m2]).all():
            return "restriction does not commute with the labelling"
    return None


def test_acceptance_8_kummer_model():
    problems = []
    for d in (2, 3):
        for N in (1, 2, 3):
            issue = exhaustive_group_check(d, N)
            if issue:
                problems.append((d, N, issue))
    report(8, not problems,
           "exhaustive group axioms, action, and restriction compatibility "
           f"for d in {{2,3}}, N <= 3, order = d^N phi(d^N); {problems}")


# -- criterion 9: transport ----------------------------------------------------------


def transport_scenarios(backend: str, prec: int = 20):
    if backend == "exact":
        base3, base5 = ExactField(3), ExactField(5)
    else:
        base3, base5 = CappedField(3, prec), CappedField(5, prec)
    out = []
    f1 = MonicPoly(base5, [0, 0])
    E1 = ExtensionField(base5, [-5, 0], "eisenstein")
    out.append((f1, E1, E1.generator().inverse(), F(1, 5)))
    f2 = MonicPoly(base3, [1, 0])
    E2 = ExtensionField(base3, [F(3, 2), 0], "eisenstein")
    out.append((f2, E2, E2.generator().inverse(), F(1, 3)))
    return out


def test_acceptance_9_transport():
    problems = []
    prec = 20
    for backend in ("exact", "capped"):
        for f, E, Q, P in transport_scenarios(backend, prec):
            # order 2A so the preimage point's tail bound (order/2 digits
            # at v(w0) = 1/2) does not cap residuals below the precision
            B = boettcher_series(f, 2 * prec)
            rep = transport_check(B, E, Q, P)
            if not rep.passed:
                problems.append((backend, f.field.p, "failed"))
            for check in rep.checks:
                if not check.residual >= check.bound:
                    problems.append((backend, f.field.p, check.name,
                                     str(check.residual)))
                if backend == "capped" and not check.residual >= prec - 2:
                    problems.append((backend, f.field.p, check.name,
                                     "below precision - 2"))
    report(9, not problems,
           "transport checks pass for z^2 and z^2+1 preimages in quadratic "
           f"extensions, residuals above bounds (capped: >= A-2); {problems}")


# -- criterion 10: negative controls ---------------------------------------------------


def test_acceptance_10_negative_controls():
    problems = []
    f = MonicPoly(ExactField(5), [3, 0])
    B = boettcher_series(f, 16)

    # agreement-order verifier: one corrupted comparand, exact index
    for k in (3, 7, 11):
        lhs = B.omega
        rhs = B.omega.replace_coefficient(k, B.omega.coefficient(k) + 1)
        if agreement_order(lhs, rhs) != k:
            problems.append(("agreement-order", k))

    # functional-equation verifier: corrupting omega at index k surfaces
    # at the first index where the two recomputed sides can differ
    for k in (4, 9):
        bad = B._replace(omega=B.omega.replace_coefficient(
            k, B.omega.coefficient(k) + 1))
        got = functional_equation_check(bad, 16)
        if got != min(2 * k, k + f.degree - 1):
            problems.append(("functional-equation", k, got))

    # escape-radius cross-check: corrupted constant is flagged
    if cf_sup_check(MonicPoly(ExactField(5), [F(-1, 5), 0]),
                    cf_valuation=F(-1, 3)):
        problems.append(("cf-sup",))

    # transport: corrupted series fails with the derived residual level
    fp = MonicPoly(ExactField(5), [0, 0])
    Bp = boettcher_series(fp, 12)
    E = ExtensionField(ExactField(5), [-5, 0], "eisenstein")
    Q = E.generator().inverse()
    bad = Bp._replace(omega=Bp.omega.replace_coefficient(3, F(1)))
    rep = transport_check(bad, E, Q, F(1, 5))
    if rep.passed or rep.checks[0].residual != 2:
        problems.append(("transport", str(rep.checks[0].residual)))

    # point identity: a corrupted value misses the bound
    P5 = F(1, 5)
    pv = omega_at(B, B.f.field.embed(P5))
    fake = PointValue(pv.value + F(1, 25), pv.err)
    ok, _, _ = fake.matches(omega_at(B, B.f.evaluate(B.f.field.embed(P5))))
    ok_power, _, _ = fake.power(2).matches(
        omega_at(B, B.f.evaluate(B.f.field.embed(P5))))
    if ok_power:
        problems.append(("point-identity",))
    report(10, not problems,
           f"each verifier flags a single injected corruption at the "
           f"predicted index or residual; {problems}")
