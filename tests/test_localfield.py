"""Field arithmetic, valuations, Hensel lifting, and conjugates."""

import itertools
import random
import time
from fractions import Fraction as F
from operator import add, mul, sub, truediv

import pytest

from padicdyn import (CappedField, DomainError, ExactField, ExtensionField,
                      PrecisionError, UsageError, Valuation, conjugates,
                      hensel_lift)
from padicdyn.errors import PadicDynError
from padicdyn.localfield import (ExtElement, PadicElement, ResidueField,
                                 _deflate, _fp_poly_irreducible,
                                 _generator_images, poly_eval)
from padicdyn.newton import build_polygon
from padicdyn.series import DiskSpec, TailSeries, gauss_norm


def test_capped_base_addition():
    K = CappedField(5, 4)
    s = K.from_rational(2) + K.from_rational(3)
    assert s == 5
    assert s.valuation() == 1


def test_eisenstein_generator_square():
    E = ExtensionField(ExactField(3), [-3, 0], "eisenstein")
    pi = E.generator()
    sq = pi * pi
    assert sq == E.embed(3)
    assert sq.valuation() == 1


def test_exact_inverse_pair():
    K = ExactField(3)
    prod = K.from_rational(F(1, 3)) * K.from_rational(3)
    assert prod == 1
    assert prod.valuation() == 0


def test_valuation_examples():
    assert ExactField(7).from_rational(7).valuation() == 1
    E = ExtensionField(ExactField(3), [-3, 0], "eisenstein")
    assert E.generator().valuation() == F(1, 2)
    assert ExactField(3).from_rational(F(5, 9)).valuation() == -2


def test_valuation_lower_bound_marker():
    K = CappedField(5, 4)
    x = K.from_rational(2)
    diff = x - x
    assert diff.is_zero()
    v = diff.valuation()
    assert not v.exact
    assert v >= 4
    with pytest.raises(PrecisionError):
        K.from_rational(1) / diff


def test_mixed_fields_rejected():
    with pytest.raises(UsageError):
        ExactField(5).from_rational(1) + ExactField(7).from_rational(1)
    with pytest.raises(UsageError):
        CappedField(5, 4).from_rational(1) * CappedField(5, 8).from_rational(1)


def test_precision_propagation_rules():
    K = CappedField(5, 6)
    a = K.from_rational(5)       # v=1, 6 digits
    b = K.from_rational(26)      # v=0
    # add: min of absolute precisions
    s = a + b
    assert s.v + s.rel == min(1 + 6, 0 + 6)
    # mul: valuations add, relative precision takes the min
    m = a * b
    assert m.v == 1
    assert m.rel == 6
    # cancellation drops to the known floor rather than guessing
    c = K.from_rational(1) + K.from_rational(24)  # 25: valuation 2
    assert c.valuation() == 2
    assert c.v + c.rel == 6


# -- Hensel lifting ----------------------------------------------------------


def lift_sqrt6(K):
    g = [K.from_rational(-6), K.from_rational(0), K.from_rational(1)]
    return hensel_lift(g, K.from_rational(1), 12)


def test_hensel_sqrt6_exact_backend():
    K = ExactField(5)
    x = lift_sqrt6(K)
    # oracle: square it and check the congruence directly
    assert (x * x - 6).valuation() >= 12
    assert (x - 1).valuation() >= 1


def test_hensel_sqrt6_capped_backend():
    K = CappedField(5, 14)
    x = lift_sqrt6(K)
    assert (x * x - 6).valuation() >= 12


def test_hensel_exact_root_is_fixed():
    K = ExactField(5)
    g = [K.from_rational(-1), K.from_rational(0), K.from_rational(1)]
    x = hensel_lift(g, K.from_rational(1), 30)
    assert x == 1


def test_hensel_no_simple_unit_root():
    K = ExactField(5)
    g = [K.from_rational(-5), K.from_rational(0), K.from_rational(1)]
    with pytest.raises(DomainError):
        hensel_lift(g, K.from_rational(1), 10)
    with pytest.raises(DomainError):
        hensel_lift(g, K.from_rational(2), 10)


def test_hensel_output_meets_target_precision():
    K = ExactField(7)
    g = [K.from_rational(-2), K.from_rational(0), K.from_rational(1)]
    x = hensel_lift(g, K.from_rational(3), 25)  # 3^2 = 9 = 2 mod 7
    assert poly_eval(g, x).valuation() >= 25


# -- conjugates --------------------------------------------------------------


def test_conjugates_quadratic_eisenstein():
    E = ExtensionField(ExactField(3), [-3, 0], "eisenstein")
    pi = E.generator()
    conj = conjugates(E, pi)
    assert len(conj) == 2
    assert any(c == pi for c in conj)
    assert any(c == -pi for c in conj)


def test_conjugates_fix_base_elements():
    E = ExtensionField(ExactField(3), [-3, 0], "eisenstein")
    a = E.embed(F(7, 2))
    assert all(c == a for c in conjugates(E, a))


def test_split_unramified_polynomial_rejected():
    # x^2 - 6 splits over Q_5: both residues +-1 lift by Hensel
    K = CappedField(5, 12)
    for r in (1, 4):
        g = [K.from_rational(-6), K.from_rational(0), K.from_rational(1)]
        root = hensel_lift(g, K.from_rational(r), 10)
        assert (root * root - 6).is_zero() or (root * root - 6).valuation() >= 10
    with pytest.raises(UsageError):
        ExtensionField(ExactField(5), [-6, 0], "unramified")


def test_unramified_quadratic_conjugates():
    # x^2 - 2 is irreducible mod 5; conjugation swaps the square roots
    E = ExtensionField(ExactField(5), [-2, 0], "unramified")
    u = E.generator()
    conj = conjugates(E, u)
    assert len(conj) == 2
    assert any(c == u for c in conj)
    assert any(c == -u for c in conj)
    assert u.valuation() == 0
    assert (u * u).valuation() == 0


def test_conjugates_totally_ramified_cubic():
    # Q_7 contains the cube roots of unity, so x^3 - 7 is normal over Q_7
    E = ExtensionField(ExactField(7), [-7, 0, 0], "eisenstein")
    pi = E.generator()
    conj = conjugates(E, pi, precision=30)
    assert len(conj) == 3
    for c in conj:
        assert c.valuation() == F(1, 3)
        assert (c ** 3 - 7).valuation() >= 29


def test_conjugates_multiset_closure_quadratic():
    E = ExtensionField(ExactField(3), [-3, 0], "eisenstein")
    x = E.from_vector([F(1, 2), 5])
    once = conjugates(E, x)
    twice = [conjugates(E, c) for c in once]
    flat = [c for group in twice for c in group]
    # applying conjugation twice returns each element with multiplicity 2
    for c in once:
        assert sum(1 for d in flat if d == c) == 2


def test_unramified_stage_over_eisenstein_tower():
    base = ExactField(3)
    E1 = ExtensionField(base, [-3, 0], "eisenstein")
    E2 = ExtensionField(E1, [-2, 0], "unramified")
    assert E2.e == 2 and E2.f_res == 2 and E2.tower_degree == 4
    x = E2.generator() * E2.embed(E1.generator())
    assert x.valuation() == F(1, 2)
    with pytest.raises(UsageError):
        ExtensionField(E2, [-7, 0], "unramified")  # nested unramified


# -- properties (seeded randomized cross-checks) ------------------------------


def random_rational(rng, p):
    num = rng.randrange(-400, 401)
    den = rng.choice([1, 1, 2, 3, p, p * p, p ** 3])
    if num == 0:
        num = 1
    return F(num, den)


def test_ultrametric_inequality_random():
    rng = random.Random(1001)
    K = ExactField(5)
    for _ in range(300):
        a = K.from_rational(random_rational(rng, 5))
        b = K.from_rational(random_rational(rng, 5))
        va, vb = a.valuation(), b.valuation()
        vs = (a + b).valuation()
        assert vs >= min(va, vb)
        if va != vb:
            assert vs == min(va, vb)


def test_multiplicativity_random():
    rng = random.Random(1002)
    K = ExactField(7)
    for _ in range(300):
        a = K.from_rational(random_rational(rng, 7))
        b = K.from_rational(random_rational(rng, 7))
        assert (a * b).valuation() == a.valuation() + b.valuation()


def test_backends_agree_modulo_precision():
    rng = random.Random(1003)
    prec = 9
    for p in (3, 5, 7):
        exact = ExactField(p)
        capped = CappedField(p, prec)
        for _ in range(120):
            qa = random_rational(rng, p)
            qb = random_rational(rng, p)
            for op in (add, sub, mul, truediv):
                ea = op(exact.from_rational(qa), exact.from_rational(qb))
                ca = op(capped.from_rational(qa), capped.from_rational(qb))
                diff = ca - capped.from_rational(ea.value)
                assert diff.is_zero(), (p, qa, qb, op)


def _random_capped(rng, K):
    """A capped element in one of its three states: the exact zero, an
    O(p^k) zero, or a unit times p^v with 1 to prec digits."""
    state = rng.randrange(3)
    if state == 0:
        return K.zero()
    if state == 1:
        return PadicElement._zero(K, rng.randint(-3, 5))
    rel = rng.randint(1, K.prec)
    unit = rng.randrange(1, K.p ** rel)
    while unit % K.p == 0:
        unit = rng.randrange(1, K.p ** rel)
    return PadicElement(K, rng.randint(-4, 4), unit, rel)


def _vp(x, p):
    """Valuation of a nonzero rational."""
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def _coset(x, A, p):
    """(v, unit, rel) of the coset x + O(p^A) of a rational x, A None for
    an exact value (x is then 0): an O(p^A) zero when x vanishes mod p^A."""
    if A is None:
        return (None, 0, 0)
    v = _vp(x, p) if x else A
    if v >= A:
        return (A, 0, 0)
    unit, rel = x / F(p) ** v, A - v
    return (v, unit.numerator * pow(unit.denominator, -1, p ** rel)
            % p ** rel, rel)


def _coset_rule(op, a, b):
    """The parts of op(a, b), or the error it raises, from the integer
    representatives p^v unit and the absolute precisions of a and b."""
    p = a.field.p
    (xa, Aa), (xb, Ab) = ((F(0), None) if x.is_exact_zero
                          else (F(p) ** x.v * x.unit, x.v + x.rel)
                          for x in (a, b))
    if op in (add, sub):
        A = min((A for A in (Aa, Ab) if A is not None), default=None)
        return _coset(op(xa, xb), A, p)
    if op is truediv and b.is_exact_zero:
        return "ZeroDivisionError"
    if op is truediv and b.unit == 0:
        return "PrecisionError"
    if a.is_exact_zero or b.is_exact_zero:
        return (None, 0, 0)
    v = a.v + b.v if op is mul else a.v - b.v
    return _coset(op(xa, xb), v + min(a.rel, b.rel), p)


def test_capped_arithmetic_follows_the_coset_rule():
    """+, -, * and / of capped elements in every state, O(p^k) zeros
    included, give the coset of the exact result of their integer
    representatives at the absolute precision the rule assigns: min(A_a,
    A_b) for + and -, v_a + v_b + min(rel) for *, v_a - v_b + min(rel)
    for /."""
    rng = random.Random(2207)
    for _ in range(3000):
        K = CappedField(rng.choice([2, 3, 5, 7]), rng.randint(1, 8))
        a, b = _random_capped(rng, K), _random_capped(rng, K)
        for op in (add, sub, mul, truediv):
            assert _power_or_error(op, a, b) == _coset_rule(op, a, b), (
                K, a, b, op)


def test_extension_valuation_matches_norm():
    # v(a) should equal v(N(a)) / degree; the norm is the resultant
    # of the defining polynomial with the coordinate polynomial.
    rng = random.Random(1004)
    E = ExtensionField(ExactField(3), [-3, 0], "eisenstein")

    def norm(vec):  # N(a + b pi) for pi^2 = 3: a^2 - 3 b^2
        a, b = vec
        return a * a - 3 * b * b

    for _ in range(200):
        a = random_rational(rng, 3)
        b = random_rational(rng, 3)
        x = E.from_vector([a, b])
        nrm = norm((a, b))
        if nrm == 0:
            continue
        vn = F(ExactField(3).from_rational(nrm).valuation().as_fraction(), 2)
        assert x.valuation() == vn


def test_extension_division_round_trip():
    rng = random.Random(1005)
    E = ExtensionField(ExactField(5), [-5, 0], "eisenstein")
    one = E.one()
    for _ in range(80):
        vec = [random_rational(rng, 5), random_rational(rng, 5)]
        x = E.from_vector(vec)
        assert (x / x) == one
        y = E.from_vector([random_rational(rng, 5), random_rational(rng, 5)])
        assert ((x * y) / y) == x


def test_valuation_ordering_and_infinity():
    assert Valuation.infinite() > 100
    assert Valuation(F(1, 2)) < 1
    assert Valuation(3) + Valuation(F(1, 2)) == F(7, 2)
    assert ExactField(5).from_rational(0).valuation().is_infinite


def test_valuation_arithmetic_keeps_fractions():
    # a value left as an int would turn a caller's / into float division
    for v in (Valuation(3), Valuation(F(1, 2)), Valuation(F(4, 2))):
        for out in (v + 2, 2 + v, v * 3, 3 * v, v + Valuation(1),
                    v + F(1, 3), v * F(2, 3)):
            assert type(out.value) is F
        assert (v + 2).value / 3 == F(v.value + 2, 3)
    assert type(Valuation(7).value) is F


def test_conjugates_non_normal_cubic_rejected():
    # Q_3 lacks the cube roots of unity, so x^3 - 3 is not normal
    E = ExtensionField(ExactField(3), [-3, 0, 0], "eisenstein")
    with pytest.raises(DomainError):
        conjugates(E, E.generator())


def test_conjugates_unramified_cubic():
    # x^3 + x + 1 is irreducible mod 5; an unramified stage is Galois,
    # so all three roots live in the extension
    E = ExtensionField(ExactField(5), [1, 1, 0], "unramified")
    roots = conjugates(E, E.generator(), precision=25)
    assert len(roots) == 3
    for r in roots:
        assert (r ** 3 + r + 1).valuation() >= 25


def test_conjugates_interface_limits():
    base = ExactField(3)
    E1 = ExtensionField(base, [-3, 0], "eisenstein")
    E2 = ExtensionField(E1, [-2, 0], "unramified")
    with pytest.raises(UsageError):
        conjugates(E2, E2.generator())  # multi-stage tower
    with pytest.raises(UsageError):
        big = ExtensionField(ExactField(7), [-7, 0, 0, 0, 0], "eisenstein")
        conjugates(big, big.generator())  # degree > 4


def random_coordinate(rng, K):
    """An exact zero, an O(p^k) zero (capped) or a random element of K,
    a base field or a stage over one."""
    if isinstance(K, ExtensionField):
        return K.from_vector([random_coordinate(rng, K.subfield)
                              for _ in range(K.degree)])
    kind = rng.choice(["exact-zero", "zero", "value", "value"])
    if kind == "exact-zero":
        return K.zero()
    if kind == "zero" and isinstance(K, CappedField):
        return PadicElement._zero(K, rng.randrange(-2, 5))
    return K.from_rational(random_rational(rng, K.p))


def test_extension_valuation_is_the_fraction_formula():
    """``ExtElement.valuation`` takes its minimum over integers; value and
    exactness are those of the least of v(c_i) + i/e (Eisenstein) or
    v(c_i) (unramified) as Fractions, on both backends, over a base field
    and over a stage, with exact zeros and O(p^k) zeros among the
    coordinates."""
    def fraction_formula(x):
        step = F(1, x.field.e) if x.field.kind == "eisenstein" else 0
        return Valuation.least([c.valuation() + i * step
                                for i, c in enumerate(x.vec)])

    rng = random.Random(2021)
    for K in (ExactField(3), CappedField(3, 6), ExactField(5),
              CappedField(5, 4), ExactField(7), CappedField(7, 3)):
        nonsquare = {3: 2, 5: 2, 7: 3}[K.p]
        eisenstein = ExtensionField(K, [-K.p, 0], "eisenstein")
        unramified = ExtensionField(K, [-nonsquare, 0], "unramified")
        stages = [eisenstein, unramified,
                  ExtensionField(K, [-K.p, 0, 0], "eisenstein"),
                  ExtensionField(eisenstein, [-nonsquare, 0], "unramified"),
                  ExtensionField(unramified, [-K.p, 0], "eisenstein")]
        for E in stages:
            for _ in range(60):
                x = random_coordinate(rng, E)
                got, want = x.valuation(), fraction_formula(x)
                assert (got.value, got.exact) == (want.value, want.exact), (
                    E, x)
                assert got.value is None or type(got.value) is F


def test_concurrent_extension_arithmetic():
    from concurrent.futures import ThreadPoolExecutor
    E = ExtensionField(ExactField(5), [-5, 0], "eisenstein")
    pi = E.generator()

    def work(k):
        return ((pi + k) * (pi - k)).valuation()

    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(work, range(1, 40)))
    assert got == [((pi + k) * (pi - k)).valuation() for k in range(1, 40)]


def test_valuation_minimum_with_lower_bounds():
    """Gauss norms and extension valuations take the minimum of exact
    valuations and O(p^k) lower bounds: exact unless a bound lies strictly
    below every exact value.  ``Valuation.__eq__`` ignores exactness, so
    ``.exact`` is asserted on its own."""
    K = CappedField(5, 3)

    def elem(spec):  # None: exact zero, ("v", k): 5^k, ("O", k): O(5^k)
        if spec is None:
            return K.zero()
        kind, k = spec
        x = K.from_rational(F(5) ** (k - 3 if kind == "O" else k))
        return x - x if kind == "O" else x

    disk = DiskSpec("zero", F(1, 2))          # coefficient k weighs k/2
    E = ExtensionField(K, [-5, 0], "eisenstein")  # entry i weighs i/2
    U = ExtensionField(K, [-2, 0], "unramified")  # entries weigh 0
    cases = [  # driver, entries, expected value (None: infinite), exact
        ("series", [("v", 2), ("O", 0)], F(1, 2), False),      # below
        ("series", [("v", 2), None, ("O", 1)], 2, True),        # equal
        ("series", [("v", 1), ("O", 1)], 1, True),              # above
        ("series", [("O", 2), ("O", 0)], F(1, 2), False),      # only
        ("series", [None, None], None, True),                   # zeros
        ("eisenstein", [("v", 1), ("O", 0)], F(1, 2), False),
        ("eisenstein", [("O", 2), ("v", 0)], F(1, 2), True),
        ("eisenstein", [("O", 2), ("O", 1)], F(3, 2), False),
        ("eisenstein", [None, None], None, True),
        ("unramified", [("v", 1), ("O", 0)], 0, False),
        ("unramified", [("v", 1), ("O", 1)], 1, True),
        ("unramified", [("O", 3), ("v", 1)], 1, True),
        ("unramified", [("O", 1), ("O", 2)], 1, False),
    ]
    for driver, entries, value, exact in cases:
        coeffs = [elem(spec) for spec in entries]
        if driver == "series":
            got = gauss_norm(TailSeries(K, 0, coeffs, len(coeffs)), disk)
        else:
            got = (E if driver == "eisenstein" else U).from_vector(
                coeffs).valuation()
        if value is None:
            assert got.is_infinite, (driver, entries)
        else:
            assert (got.value, got.exact) == (value, exact), (driver, entries)


# -- generator images, field equality, reflected division ---------------------


def test_conjugates_lift_the_generator_images_once_per_precision(
        monkeypatch):
    from padicdyn import localfield

    lifts = []

    def counted(*args):
        lifts.append(args[-1])
        return hensel_lift(*args)

    monkeypatch.setattr(localfield, "hensel_lift", counted)
    E = ExtensionField(ExactField(7), [-7, 0, 0], "eisenstein")
    pi = E.generator()
    x = E.from_vector([F(1, 2), 3, -1])
    first = conjugates(E, pi, precision=20)
    once = len(lifts)
    # one lift per root between the generator and the last root, which
    # is -work[0]; a lift in the subfield is still one call
    assert once == E.degree - 2
    second = conjugates(E, x, precision=20)
    assert len(lifts) == once
    third = conjugates(E, pi, precision=25)
    assert len(lifts) == 2 * once and lifts[-1] == 25
    assert conjugates(E, pi, precision=20) == first
    assert len(lifts) == 2 * once

    fresh = ExtensionField(ExactField(7), [-7, 0, 0], "eisenstein")
    assert fresh is not E and fresh == E
    assert conjugates(fresh, fresh.generator(), precision=20) == first
    assert conjugates(fresh, x, precision=20) == second
    assert conjugates(fresh, fresh.generator(), precision=25) == third


def test_conjugates_shared_across_threads():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    K = CappedField(5, 20)
    x = [F(1, 2), 3, -1]
    expected = {}
    for prec in (12, 16):
        fresh = ExtensionField(K, [1, 1, 0], "unramified")
        expected[prec] = conjugates(fresh, fresh.from_vector(x), prec)
    E = ExtensionField(K, [1, 1, 0], "unramified")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(conjugates, E, E.from_vector(x), prec)
                       for prec in (12, 16) * 6]
            got = [(prec, future.result(timeout=60))
                   for prec, future in zip((12, 16) * 6, futures)]
    finally:
        sys.setswitchinterval(old)
    assert all(roots == expected[prec] for prec, roots in got)


def test_extension_field_equality():
    for base in (ExactField(7), CappedField(7, 10)):
        E = ExtensionField(base, [-7, 0, 0], "eisenstein")
        assert E == E
        assert E == ExtensionField(base, [-7, 0, 0], "eisenstein")
        assert ExtensionField(base, [-7, 0, 0], "eisenstein") == E
        assert E != ExtensionField(base, [-7, 7, 0], "eisenstein")
        assert E != ExtensionField(base, [-14, 0, 0], "eisenstein")
        assert E != ExtensionField(base, [-7, 0, 0, 0], "eisenstein")
        assert E != base


@pytest.mark.parametrize("kind", ["exact", "capped", "extension"])
def test_reflected_division_by_an_unsupported_operand(kind):
    x = {"exact": lambda: ExactField(5).from_rational(2),
         "capped": lambda: CappedField(5, 6).from_rational(2),
         "extension": lambda: ExtensionField(
             ExactField(3), [-3, 0], "eisenstein").generator()}[kind]()
    for other in ("s", 2.5, None):
        with pytest.raises(TypeError):
            other / x
        with pytest.raises(TypeError):
            x / other
    assert (1 / x) * x == 1
    assert (F(3, 2) / x) * x == F(3, 2)


def _chain_power(x, n):
    """1 * y * ... * y with |n| factors, y = x, or 1 / x for n < 0."""
    one = x.field.one()
    y = one / x if n < 0 else x
    for _ in range(abs(n)):
        one = one * y
    return one


def _parts(x):
    """An element as its stored parts: (v, unit, rel) of a capped one, the
    value of an exact one, and those of each entry of an extension one."""
    if isinstance(x, ExtElement):
        return [_parts(c) for c in x.vec]
    if isinstance(x, PadicElement):
        return (x.v, x.unit, x.rel)
    return x.value


def _power_or_error(op, *args):
    try:
        return _parts(op(*args))
    except (PrecisionError, ZeroDivisionError) as exc:
        return type(exc).__name__


def test_element_powers_are_the_chain_of_products():
    """x ** n is 1 * x * ... * x (or of 1 / x), and x.inverse() is 1 / x,
    in every stored part, for capped elements of every precision, O(p^k)
    and exact zeros included, exact elements, and extension elements over
    both backends and over a stage."""
    rng = random.Random(1806)
    K, Q = CappedField(5, 8), ExactField(5)
    capped = [PadicElement._make(K, rng.randint(-3, 3),
                                 rng.choice([1, 2, 3, 4, 6, 7, 1251]),
                                 rng.randint(1, 8)) for _ in range(12)]
    capped += [PadicElement._zero(K, k) for k in (-2, 0, 3)]
    capped += [K.zero(), K.from_rational(F(-7, 25))]
    exact = [Q.from_rational(F(rng.randint(-60, 60), rng.choice([1, 5, 6])))
             for _ in range(8)] + [Q.zero()]
    ext = []
    for base in (Q, CappedField(5, 6)):
        for stage, kind in (([-5, 0], "eisenstein"), ([-2, 0], "unramified")):
            E = ExtensionField(base, stage, kind)
            ext += [E.from_vector([F(rng.randint(-30, 30), rng.choice([1, 5]))
                                   for _ in range(2)]) for _ in range(4)]
            ext += [E.generator(), E.zero(), E.from_vector([0, 3])]
    for E in _fast_path_fields():
        if isinstance(E.subfield, ExtensionField):
            ext += [_random_entry(rng, E) for _ in range(3)]
            ext += [E.generator(), E.zero()]
    for x in capped + exact + ext:
        assert _power_or_error(type(x).inverse, x) \
            == _power_or_error(truediv, x.field.one(), x), x
        for n in range(-3, 10):
            assert _power_or_error(pow, x, n) \
                == _power_or_error(_chain_power, x, n), (x, n)


def _brute_irreducible(g, p):
    """No monic factor of degree 1..n/2 divides g: long division by each."""
    n = len(g) - 1
    for k in range(1, n // 2 + 1):
        for low in itertools.product(range(p), repeat=k):
            r = list(g)
            for i in range(n, k - 1, -1):
                c = r[i] % p
                for j, h in enumerate(list(low) + [1]):
                    r[i - k + j] -= c * h
            if all(x % p == 0 for x in r[:k]):
                return False
    return n >= 1


def _necklace(p, n):
    """The number of monic irreducible polynomials of degree n over F_p:
    (1/n) sum over d | n of mu(d) p^(n/d)."""
    def mobius(m):
        factors = [q for q in range(2, m + 1) if m % q == 0
                   and all(q % r for r in range(2, q))]
        if any(m % (q * q) == 0 for q in factors):
            return 0
        return (-1) ** len(factors)
    return sum(mobius(d) * p ** (n // d)
               for d in range(1, n + 1) if n % d == 0) // n


def test_fp_irreducibility_matches_brute_force_and_counts():
    for p in (2, 3, 5):
        for n in range(1, 5):
            for low in itertools.product(range(p), repeat=n):
                g = list(low) + [1]
                assert _fp_poly_irreducible(g, p) == _brute_irreducible(g, p)
    for p, top in ((2, 8), (3, 6)):
        for n in range(1, top + 1):
            count = sum(_fp_poly_irreducible(list(low) + [1], p)
                        for low in itertools.product(range(p), repeat=n))
            assert count == _necklace(p, n), (p, n)


def test_unramified_stage_with_no_root_but_a_cubic_factor_is_rejected():
    # x^6 + ... + 1 = (x^3 + x + 1)(x^3 + x^2 + 1) over F_2: no linear or
    # quadratic factor
    assert not _fp_poly_irreducible([1] * 7, 2)
    with pytest.raises(UsageError):
        ExtensionField(ExactField(2), [1] * 6, "unramified")
    assert ExtensionField(ExactField(2), [1, 1, 0, 0, 0, 0],
                          "unramified").f_res == 6   # x^6 + x + 1


def test_unramified_stage_over_a_large_prime_validates_quickly():
    # -1 is not a square modulo p = 2^31 - 1 (p = 3 mod 4); the test's
    # cost grows with log p, where a search over residues took p steps
    p = 2 ** 31 - 1
    start = time.perf_counter()
    assert ExtensionField(ExactField(p), [1, 0], "unramified").f_res == 2
    assert not _fp_poly_irreducible([-1, 0, 1], p)
    assert _fp_poly_irreducible([3, 0, 0, 1], p) == (pow(3, (p - 1) // 3, p)
                                                      != 1)
    assert time.perf_counter() - start < 5


# -- extension arithmetic against the element loops it replaced -------------


def _oracle_mul(x, y):
    """x * y with every entry's product through the element loops: the
    schoolbook product over all pairs, each slot from an exact zero, and
    the reduction by every coefficient of the defining polynomial."""
    if not isinstance(x, ExtElement):
        return x * y
    E, n = x.field, x.field.degree
    conv = [E.subfield.zero()] * (2 * n - 1)
    for i, a in enumerate(x.vec):
        if not a.is_exact_zero:
            for j, b in enumerate(y.vec):
                conv[i + j] = conv[i + j] + _oracle_mul(a, b)
    for k in range(2 * n - 2, n - 1, -1):
        if not conv[k].is_exact_zero:
            for i, g in enumerate(E.stage_coeffs):
                conv[k - n + i] = conv[k - n + i] - _oracle_mul(conv[k], g)
    return ExtElement(E, tuple(conv[:n]))


def _oracle_embed(E, c):
    """c in E, a coefficient from below as (c, 0, ..., 0)."""
    if isinstance(c, ExtElement) and c.field == E:
        return c
    sub = E.subfield
    return ExtElement(E, (sub.embed(c),) + (sub.embed(0),) * (E.degree - 1))


def _oracle_eval(coeffs, x):
    """Horner at x with every coefficient embedded in x's field."""
    acc = _oracle_embed(x.field, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = _oracle_mul(acc, x) + _oracle_embed(x.field, c)
    return acc


def _fast_path_fields():
    """Single stages of degree 2-4 over both backends, Eisenstein and
    unramified, and two-stage towers, with the primes they are over."""
    out = []
    for base3, base5, base7 in ((ExactField(3), ExactField(5), ExactField(7)),
                                (CappedField(3, 24), CappedField(5, 24),
                                 CappedField(7, 24))):
        out += [ExtensionField(base3, [-3, 0], "eisenstein"),
                ExtensionField(base3, [-3, 3], "eisenstein"),
                ExtensionField(base7, [-7, 0, 0], "eisenstein"),
                ExtensionField(base5, [-5, 0, 0, 0], "eisenstein"),
                ExtensionField(base3, [1, 0], "unramified"),
                ExtensionField(base3, [1, -1, 0], "unramified"),
                ExtensionField(base3, [2, 1, 0, 0], "unramified")]
        E1 = ExtensionField(base3, [-3, 0], "eisenstein")
        out += [ExtensionField(E1, [-2, 0], "unramified"),
                ExtensionField(E1, [-E1.generator(), 0], "eisenstein")]
    return out


def _random_entry(rng, K):
    """An element of K: exact zeros, O(p^k) zeros and elements of every
    precision included."""
    if isinstance(K, ExtensionField):
        return K.from_vector([_random_entry(rng, K.subfield)
                              for _ in range(K.degree)])
    kind = rng.random()
    if kind < 0.2:
        return K.zero()
    x = K.from_rational(F(rng.randint(-300, 300) or 1, rng.choice(
        [1, 2, K.p, K.p ** 2])) * K.p ** rng.randint(0, 3))
    if isinstance(K, CappedField):
        if kind < 0.35:
            return x - x
        if kind < 0.5:
            return PadicElement._make(K, x.v, x.unit, rng.randint(1, x.rel))
    return x


def test_extension_fast_paths_match_the_element_loops():
    """Products and Horner at extension points skip exact zeros; each
    result is the element the full loops give, in every stored part."""
    rng = random.Random(1907)
    for E in _fast_path_fields():
        for _ in range(12):
            x, y = _random_entry(rng, E), _random_entry(rng, E)
            assert _parts(x * y) == _parts(_oracle_mul(x, y)), (E, x, y)
            sub = [_random_entry(rng, E.subfield) for _ in range(5)]
            base = [_random_entry(rng, E.base_field) for _ in range(5)]
            mixed = [rng.choice([a, b, c, 3, F(1, 2)])
                     for a, b, c in zip(sub, base, [x, y, x * y] * 2)]
            for coeffs in (sub, base, mixed, [x, y]):
                assert _parts(poly_eval(coeffs, y)) \
                    == _parts(_oracle_eval(coeffs, y)), (E, coeffs, y)
            assert _parts(x.apply_root_map(E.generator())) == _parts(x)


def test_exact_and_capped_stage_horner_match_the_element_loops():
    """Horner at a point of one stage, with coefficients from its base
    field, runs on integers over CappedField and in the element loops
    over ExactField.  It gives the element the element loops give, in
    every stored part: on stages whose
    coefficients have denominators to fold in or nonzero middle terms,
    on long lists, and over caps small enough that O(p^k) zeros appear
    partway through, at points with exact and O(p^k) zero coordinates."""
    rng = random.Random(2611)
    stages = [ExtensionField(ExactField(3), [F(-3, 2), 0], "eisenstein"),
              ExtensionField(ExactField(3), [F(-1, 2), 0], "unramified"),
              ExtensionField(ExactField(5), [F(5, 4), F(5, 3), 0],
                             "eisenstein"),
              ExtensionField(ExactField(7), [F(-7, 2), 0, 0, F(7, 3)],
                             "eisenstein")]
    for cap in (1, 2, 3, 24):
        stages += [ExtensionField(CappedField(5, cap), [5, 0, 0, 5],
                                  "eisenstein"),
                   ExtensionField(CappedField(7, cap), [F(-7, 2), 7, 0],
                                  "eisenstein"),
                   ExtensionField(CappedField(3, cap), [-1, 3, 1],
                                  "unramified")]
    stages += [E for E in _fast_path_fields()
               if not isinstance(E.subfield, ExtensionField)]
    for E in stages:
        K, n = E.subfield, E.degree
        points = [_random_entry(rng, E) for _ in range(6)]
        if isinstance(K, CappedField):
            # an exact zero and an O(p^k) zero beside units
            points.append(E.from_vector(
                [K.zero(), PadicElement._zero(K, 1)] + [F(1, K.p)] * (n - 2)))
            points.append(E.from_vector(
                [PadicElement._zero(K, 0)] + [3] * (n - 1)))
        for length in (1, 2, 5, 17):
            for x in points:
                coeffs = [_random_entry(rng, E.base_field)
                          for _ in range(length)]
                assert _parts(poly_eval(coeffs, x)) \
                    == _parts(_oracle_eval(coeffs, x)), (E, coeffs, x)


def test_first_conjugate_is_the_element_itself():
    """conjugates(E, a)[0] is a; the others are Horner at the generator's
    images with every coefficient embedded."""
    rng = random.Random(1908)
    for E in _fast_path_fields():
        if isinstance(E.subfield, ExtensionField):
            continue
        for _ in range(4):
            a = _random_entry(rng, E)
            conj = conjugates(E, a, precision=16)
            assert conj[0] is a
            for c, r in zip(conj[1:], E._images[16][1:]):
                assert _parts(c) == _parts(_oracle_eval(list(a.vec), r))


# -- generator images against the general polygon-and-scan route -------------


def _oracle_lift(g, x0, target):
    """``hensel_lift``'s Newton loop in the stage itself, every value by
    the element loops (``_oracle_eval``, the stage's own division): the
    stage route, also for the lifts hensel_lift takes in the subfield."""
    gp = [i * c for i, c in enumerate(g)][1:]
    fx = _oracle_eval(g, x0)
    vf, vfp = fx.valuation(), _oracle_eval(gp, x0).valuation()
    if vf.is_infinite:
        return x0
    if vfp.is_infinite or not vfp.exact or not vf > 2 * vfp.as_fraction():
        raise DomainError("not a simple root at this precision")
    x = x0
    for _ in range(64):
        if vf >= target:
            return x
        if not vf.exact:
            raise PrecisionError("target exceeds the working precision")
        x = x - fx / _oracle_eval(gp, x)
        fx = _oracle_eval(g, x)
        vf = fx.valuation()
    raise AssertionError("Newton iteration failed to converge")


def _reference_images(E, precision):
    """The generator's images by a general root finder: each deflated
    polynomial's Newton polygon, for each segment whose root valuation
    is a multiple of 1/e a scan of the whole residue field for a root of
    the normalized polynomial, and a Hensel lift of the first one."""
    gen = E.generator()
    uniformizer = gen if E.kind == "eisenstein" else E.embed(E.p)
    rf = ResidueField(E.p, E._reduced_modulus if E.kind == "unramified"
                      else [0, 1])
    roots = [gen]
    work = _deflate([E.embed(c) for c in E.stage_coeffs] + [E.one()], gen)
    while len(work) > 2:
        found = None
        for seg in build_polygon(work).segments:
            scaled = -seg.slope * E.e
            if scaled.denominator != 1:
                continue
            t = uniformizer ** int(scaled)
            h = [c * t ** i for i, c in enumerate(work)]
            m = Valuation.least([c.valuation() for c in h])
            if m.is_infinite or not m.exact:
                raise PrecisionError("cannot normalize root candidates")
            if (m.value * E.e).denominator != 1:
                raise DomainError("non-normal extension")
            scale = uniformizer ** int(m.value * E.e)
            h = [c / scale for c in h]
            hbar = [E.residue(c) for c in h]
            hbar_prime = [rf.scalar(i, c) for i, c in enumerate(hbar)][1:]
            for r in itertools.product(range(E.p), repeat=rf.f):
                if not any(r) or not rf.is_zero(rf.poly_eval(hbar, r)):
                    continue
                if rf.is_zero(rf.poly_eval(hbar_prime, r)):
                    raise DomainError("repeated residue root")
                y0 = E.from_vector(r + (0,) * (E.degree - len(r)))
                found = t * _oracle_lift(h, y0, precision)
                break
            if found is not None:
                break
        if found is None:
            raise DomainError("no root in the field")
        roots.append(found)
        work = _deflate(work, found)
    return roots + [-work[0] / work[1]]


def _oracle_stages(p, n):
    """Stages of degree n over Q_p: the Eisenstein x^n + pu and
    x^n + p(x^(n-1) + ... + x + u) for four u, and the first monic
    irreducible polynomial mod p in tuple order as an unramified stage,
    as it is and with p taken from each coefficient."""
    for u in (1, -1, 2, p + 1):
        yield [p * u] + [0] * (n - 1), "eisenstein"
        yield [p * u] + [p] * (n - 1), "eisenstein"
    irreducible = (list(low) for low in itertools.product(range(p), repeat=n)
                   if _fp_poly_irreducible(list(low) + [1], p))
    for low in itertools.islice(irreducible, 1):
        yield low, "unramified"
        yield [c - p for c in low], "unramified"


def _images_or_error(find, E, precision):
    try:
        return [_parts(r) for r in find(E, precision)]
    except PadicDynError as exc:
        return type(exc)


def test_generator_images_match_the_polygon_and_scan_route():
    """Every stage of the family that validates, exact and capped at 3
    and 12 digits: the same images, entry for entry and in precision,
    or the same error type."""
    seen = set()
    for p in (2, 3, 5, 7, 11, 13):
        for n in (2, 3, 4):
            for coeffs, kind in _oracle_stages(p, n):
                for K, precision in ((ExactField(p), 3),
                                     (CappedField(p, 3), 3),
                                     (CappedField(p, 12), 12)):
                    try:
                        E = ExtensionField(K, coeffs, kind)
                    except UsageError:
                        continue
                    want = _images_or_error(_reference_images, E, precision)
                    got = _images_or_error(_generator_images, E, precision)
                    assert got == want, (K, coeffs, kind)
                    seen.add((kind, want if isinstance(want, type)
                              else "images"))
    assert seen >= {("eisenstein", "images"), ("unramified", "images"),
                    ("eisenstein", DomainError),
                    ("eisenstein", PrecisionError),
                    ("unramified", PrecisionError)}, seen


def _in_subfield(x):
    return all(c.is_exact_zero for c in x.vec[1:])


def _recorded_lifts(monkeypatch, E, precision):
    """The (g, x0, precision) of every lift ``_generator_images`` asks
    for on E."""
    from padicdyn import localfield

    lifts = []

    def recorded(*args):
        lifts.append(args)
        return hensel_lift(*args)

    with monkeypatch.context() as patch:
        patch.setattr(localfield, "hensel_lift", recorded)
        _images_or_error(_generator_images, E, precision)
    return lifts


def test_subfield_lifts_are_the_stage_lifts(monkeypatch):
    """On pure stages x^e - a (e = 2 to 4, exact and capped) every
    polynomial with its start in the subfield lifts there: the root of
    x^e - b from each residue root, and on an Eisenstein stage each
    generator image's root.  hensel_lift gives the element, or the
    error, that the stage's own Newton loop gives, in every stored part;
    so it does where h or the start is not in the subfield: the images
    of pure unramified stages and of one stage with middle terms."""
    def outcome(lift, *args):
        try:
            return _parts(lift(*args))
        except PadicDynError as exc:
            return type(exc)

    inside, outside = [], []
    for p in (3, 5, 7, 13):
        for e in (2, 3, 4):
            units = [u for u in range(2, p)
                     if _fp_poly_irreducible([-u] + [0] * (e - 1) + [1], p)]
            for K, precision in ((ExactField(p), 4), (CappedField(p, 12), 12)):
                stages = [ExtensionField(K, [-p * u] + [0] * (e - 1),
                                         "eisenstein") for u in (1, -2)]
                stages += [ExtensionField(K, [-u] + [0] * (e - 1),
                                          "unramified") for u in units[:1]]
                for E in stages:
                    for b in range(1, p):
                        g = [E.embed(-b)] + [E.zero()] * (e - 1) + [E.one()]
                        inside += [(g, E.embed(r), precision)
                                   for r in range(1, p) if (r ** e - b) % p == 0]
                    lifts = _recorded_lifts(monkeypatch, E, precision)
                    (inside if E.kind == "eisenstein" else outside).extend(
                        lifts)
    coeffs, kind = next(stage for stage in _oracle_stages(3, 4)
                        if stage == ([-3, 3, 3, 3], "eisenstein"))
    for K, precision in ((ExactField(3), 4), (CappedField(3, 12), 12)):
        outside += _recorded_lifts(
            monkeypatch, ExtensionField(K, coeffs, kind), precision)
    assert all(_in_subfield(x) for g, x0, _ in inside for x in [x0, *g])
    assert all(not all(_in_subfield(x) for x in [x0, *g])
               for g, x0, _ in outside)
    assert len(inside) > 100 and len(outside) > 10
    for args in inside + outside:
        assert outcome(hensel_lift, *args) == outcome(_oracle_lift, *args), \
            args


def test_unramified_images_come_from_frobenius_not_a_scan():
    """x^3 - 3x + 1 is irreducible mod p = 10037, where a scan of
    F_(p^3) would take p^3 steps.  Its Galois group is cyclic, generated
    by r -> r^2 - 2, so the images are r, r^2 - 2 and (r^2 - 2)^2 - 2."""
    E = ExtensionField(CappedField(10037, 20), [1, -3, 0], "unramified")
    start = time.perf_counter()
    conj = conjugates(E, E.generator(), precision=20)
    assert time.perf_counter() - start < 5
    r = E.generator()
    orbit = [r, r * r - 2, (r * r - 2) ** 2 - 2]
    close = [[k for k, s in enumerate(orbit) if (c - s).valuation() >= 19]
             for c in conj]
    assert close[0] == [0] and sorted(close) == [[0], [1], [2]]


@pytest.mark.parametrize("p", [2 ** 31 - 1, 100000007])
def test_eisenstein_residues_come_from_roots_of_unity_not_a_scan(p):
    """Every root of x^3 - p is t y with y^3 = 1 modulo p, so its residue
    roots are read off the cube roots of unity of F_p, where a scan of F_p
    would take p steps: at p = 2^31 - 1 (p = 1 mod 3) the three roots, at
    p = 100000007 (p = 2 mod 3) a non-normal stage."""
    E = ExtensionField(CappedField(p, 8), [-p, 0, 0], "eisenstein")
    start = time.perf_counter()
    if p % 3 == 2:
        with pytest.raises(DomainError, match="no root in the field"):
            conjugates(E, E.generator(), precision=8)
        assert time.perf_counter() - start < 5
        return
    conj = conjugates(E, E.generator(), precision=8)
    assert time.perf_counter() - start < 5
    assert len(conj) == 3
    for i, c in enumerate(conj):
        assert (c ** 3 - p).valuation() >= 8
        assert all((c - other).valuation() == F(1, 3)
                   for other in conj[i + 1:])
