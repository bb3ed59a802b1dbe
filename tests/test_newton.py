"""Newton polygons: hulls, root valuations, ramification certificates."""

import random
from fractions import Fraction as F

import pytest

from padicdyn import (ExactField, PrecisionError, UsageError, build_polygon,
                      root_valuations, total_ramification_certificate)
from padicdyn.localfield import CappedField, Valuation


def poly(field, rationals):
    return [field.embed(q) for q in rationals]


K5 = ExactField(5)


def test_two_point_hull():
    g = poly(K5, [-5, 0, 1])  # x^2 - p
    P = build_polygon(g)
    assert P.hull == ((0, F(1)), (2, F(0)))
    assert len(P.segments) == 1
    assert P.segments[0].slope == F(-1, 2)
    assert P.segments[0].length == 2


def test_unit_polynomial_polygon():
    g = poly(K5, [-1, 0, 1])  # x^2 - 1
    P = build_polygon(g)
    assert [s.slope for s in P.segments] == [F(0)]
    assert root_valuations(P) == [0, 0]


def test_interior_point_above_hull():
    g = poly(K5, [5, 5, 0, 1])  # x^3 + p x + p
    P = build_polygon(g)
    assert P.hull == ((0, F(1)), (3, F(0)))
    assert [s.slope for s in P.segments] == [F(-1, 3)]
    assert root_valuations(P) == [F(1, 3)] * 3


def test_root_valuations_classic():
    assert root_valuations(build_polygon(poly(K5, [-5, 0, 1]))) == [F(1, 2)] * 2


def test_certificate_eisenstein():
    g = poly(K5, [-5, 0, 1])
    cert = total_ramification_certificate(build_polygon(g), g)
    assert cert is not None
    assert cert.degree == 2
    assert cert.ramification_index == 2
    assert cert.root_valuation == F(1, 2)


def test_certificate_inconclusive_on_squares():
    g = poly(K5, [-25, 0, 0, 0, 1])  # x^4 - p^2 = (x^2-p)(x^2+p)
    assert total_ramification_certificate(build_polygon(g), g) is None


def test_certificate_inconclusive_on_units():
    g = poly(K5, [-1, 0, 1])
    assert total_ramification_certificate(build_polygon(g), g) is None


def test_certificate_negative_constant_valuation():
    g = poly(K5, [F(-1, 5), 0, 1])  # x^2 - 1/5: roots of valuation -1/2
    cert = total_ramification_certificate(build_polygon(g), g)
    assert cert is not None
    assert cert.root_valuation == F(-1, 2)


def test_polygon_needs_two_nonzero_coefficients():
    with pytest.raises(UsageError):
        build_polygon(poly(K5, [0, 0, 1]))


def test_polygon_needs_exact_valuations():
    C = CappedField(5, 4)
    fuzzy = C.from_rational(2) - C.from_rational(2)
    with pytest.raises(PrecisionError):
        build_polygon([C.from_rational(1), fuzzy, C.from_rational(1)])


def random_poly(rng, field, degree):
    coeffs = []
    for _ in range(degree):
        coeffs.append(F(rng.choice([1, 2, 3, 4, 6]),
                        rng.choice([1, 1, 5, 25])) * rng.choice([1, -1])
                      * rng.choice([1, 5, 25]))
    return poly(field, coeffs + [1])


def test_endpoint_identity_random():
    # sum of root valuations = v(a_0) - v(a_deg) for nonzero constant term
    rng = random.Random(3001)
    for _ in range(100):
        g = random_poly(rng, K5, rng.randrange(2, 6))
        P = build_polygon(g)
        total = sum(root_valuations(P))
        assert total == g[0].valuation().as_fraction()


def test_product_polygon_is_multiset_union():
    rng = random.Random(3002)
    for _ in range(60):
        g = random_poly(rng, K5, rng.randrange(2, 4))
        h = random_poly(rng, K5, rng.randrange(2, 4))
        prod = [K5.embed(0)] * (len(g) + len(h) - 1)
        for i, a in enumerate(g):
            for j, b in enumerate(h):
                prod[i + j] = prod[i + j] + a * b
        union = sorted(root_valuations(build_polygon(g))
                       + root_valuations(build_polygon(h)))
        assert root_valuations(build_polygon(prod)) == union


def test_certified_polynomials_never_split_in_small_search():
    # degree-2 certified examples admit no monic linear splitting over a
    # small grid of candidate rational roots
    candidates = [F(n, d) * F(5) ** e
                  for n in range(-6, 7) if n
                  for d in (1, 2, 3)
                  for e in (-2, -1, 0, 1, 2)]
    for rationals in ([-5, 0, 1], [10, 5, 1], [F(-1, 5), 0, 1]):
        g = poly(K5, rationals)
        cert = total_ramification_certificate(build_polygon(g), g)
        assert cert is not None
        # g(x) = (x - r)(x - s) would force g(r) = 0 for some candidate r
        for r in candidates:
            value = (r * r + F(rationals[1]) * r + F(rationals[0]))
            assert value != 0


class Valued:
    """A coefficient that only reports a valuation."""

    def __init__(self, v):
        self.v = v

    def valuation(self):
        return Valuation(self.v)


def test_hull_with_fractional_valuations_matches_rational_chain():
    # the hull runs on valuations scaled to integers; it must pick the
    # vertices the chain on the rationals themselves picks
    rng = random.Random(3003)
    for _ in range(200):
        points = [(i, F(rng.randrange(-12, 13), rng.choice([1, 2, 3, 4, 6])))
                  for i in range(rng.randrange(2, 9))
                  if i in (0, 1) or rng.random() < 0.7]
        coeffs = [Valued(None)] * (points[-1][0] + 1)
        for i, v in points:
            coeffs[i] = Valued(v)
        hull = []
        for pt in points:
            while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0])
                                      * (pt[1] - hull[-2][1])
                                      <= (pt[0] - hull[-2][0])
                                      * (hull[-1][1] - hull[-2][1])):
                hull.pop()
            hull.append(pt)
        P = build_polygon(coeffs)
        assert P.points == tuple(points) and P.hull == tuple(hull)
        assert all(type(v) is F for _, v in P.points + P.hull)
        assert [s.slope for s in P.segments] == [
            F(y2 - y1, x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])]
