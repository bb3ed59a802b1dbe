"""Newton polygons over valued fields.

The polygon of a polynomial is the lower convex hull of the points
(i, v(a_i)) over its nonzero coefficients.  Segment slopes give root
valuations; a single segment whose slope has denominator equal to the
degree certifies irreducibility and total ramification.  Valuations must
be exactly known, so the exact-rational backend is the natural home.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import PrecisionError, UsageError

Segment = namedtuple("Segment", "slope length")

RamificationCertificate = namedtuple(
    "RamificationCertificate", "degree ramification_index root_valuation")
RamificationCertificate.__doc__ = """Witness that a polynomial is
irreducible and totally ramified.

Holds the degree (= ramification index) and the common valuation of the
roots.  Never issued unless the polygon is a single segment whose slope
has exact denominator equal to the degree.
"""

NewtonPolygon = namedtuple("NewtonPolygon", "points hull segments")
NewtonPolygon.__doc__ = """A Newton polygon: ``points`` are (index,
valuation) for the nonzero coefficients, ``hull`` the vertices of their
lower convex hull and ``segments`` its Segment records, slopes strictly
increasing."""


def build_polygon(coeffs) -> NewtonPolygon:
    """Lower convex hull of (i, v(a_i)) for a coefficient list (lowest first).

    Needs at least two nonzero coefficients and exactly known valuations:
    a valuation that is only a lower bound cannot place its point.
    """
    points = []
    for i, c in enumerate(coeffs):
        val = c.valuation()
        if val.is_infinite:
            continue
        if not val.exact:
            raise PrecisionError(
                "insufficient precision to place polygon point "
                f"at index {i}")
        points.append((i, val.as_fraction()))
    return polygon_of(points)


def polygon_of(points) -> NewtonPolygon:
    """The polygon through points (i, v) of increasing i, v a Fraction or
    an int: the lower convex hull and its segments.

    Needs at least two points.
    """
    if len(points) < 2:
        raise UsageError("polygon needs at least two nonzero coefficients")

    # the chain runs on integers: valuations times the lcm of their
    # denominators (1 over Q_p), which keeps every orientation test
    den = math.lcm(*[y.denominator for _, y in points])
    scaled = [(x, y.numerator * (den // y.denominator)) for x, y in points]
    chain = []   # indices of the hull vertices
    for k, (x, y) in enumerate(scaled):  # monotone chain, lower hull only
        while len(chain) >= 2:
            (x1, y1), (x2, y2) = scaled[chain[-2]], scaled[chain[-1]]
            if (x2 - x1) * (y - y1) <= (x - x1) * (y2 - y1):
                chain.pop()
            else:
                break
        chain.append(k)
    hull = [points[k] for k in chain]

    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        segments.append(Segment(Fraction(y2 - y1, x2 - x1), x2 - x1))
    return NewtonPolygon(tuple(points), tuple(hull), tuple(segments))


def root_valuations(polygon: NewtonPolygon) -> list:
    """Valuations of the roots in an algebraic closure, with multiplicity.

    A segment of slope s and horizontal length L contributes L roots of
    valuation -s.
    """
    out = []
    for seg in polygon.segments:
        out.extend([-seg.slope] * seg.length)
    return sorted(out)


def total_ramification_certificate(polygon: NewtonPolygon, coeffs):
    """Certificate that the polynomial is irreducible and totally ramified.

    Issued only when the polygon is a single segment spanning the full
    degree whose slope, in lowest terms, has denominator equal to the
    degree (so the root valuation has exact denominator n, forcing
    ramification index n and hence irreducibility).  Returns None when
    inconclusive; never a false certificate.  ``coeffs`` are the
    polynomial's coefficients, lowest first, as elements or as integer
    numerators over one denominator.
    """
    deg = len(coeffs) - 1
    while deg >= 0 and coeffs[deg] == 0:
        deg -= 1
    if deg < 1:
        return None
    for i, v in polygon.points:
        if v.denominator != 1:
            return None  # value group must be Z
    if len(polygon.segments) != 1:
        return None
    seg = polygon.segments[0]
    if seg.length != deg or polygon.hull[0][0] != 0:
        return None
    if seg.slope.denominator != deg:
        return None
    return RamificationCertificate(degree=deg, ramification_index=deg,
                                   root_valuation=-seg.slope)
