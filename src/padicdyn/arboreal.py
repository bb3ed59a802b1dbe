"""Tree automorphism groups, degree chains, and equivariance transport.

The expected image of Galois on the tree of iterated d-th roots acts at
level N as (Z/d^N) x| (Z/d^N)^* by (i, j).k = jk + i.  The conjugacy to
z -> z^d transports preimage trees to that model, and Newton-polygon
certificates turn predicted ramification growth into certified field
degrees d^n.  Degrees are certified only through totally-ramified
single-segment polygons; anything else is honestly "uncertified".
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from . import config
from .boettcher import (Conjugacy, MonicPoly, check_build, conjugacy,
                        good_reduction, omega_at)
from .errors import BudgetError, DomainError, UsageError
from .localfield import ExtensionField, _vp_int, conjugates
from .newton import polygon_of, total_ramification_certificate
from .series import PointValue


class KummerLevel(namedtuple("KummerLevel", "d N")):
    """The group (Z/d^N) x| (Z/d^N)^* with its action on labels Z/d^N."""

    __slots__ = ()

    def __new__(cls, d, N):
        if d < 2 or N < 1:
            raise UsageError("need d >= 2 and N >= 1")
        return super().__new__(cls, d, N)

    # _replace builds through _make: check its fields too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def modulus(self) -> int:
        return self.d ** self.N

    @property
    def order(self) -> int:
        """d^N phi(d^N) with phi(d^N) = d^(N-1) phi(d): no label scanned."""
        d, m = self.d, self.modulus
        return m * (m // d) * sum(1 for j in range(1, d) if gcd(j, d) == 1)

    def elements(self):
        m = self.modulus
        units = [j for j in range(1, m) if gcd(j, m) == 1] or [1]
        for i in range(m):
            for j in units:
                yield (i, j)

    def identity(self):
        return (0, 1)

    def _check(self, g):
        """g itself, unreduced, once j is a unit: gcd(j, d) = 1 is
        gcd(j, d^N) = 1 for N >= 1, and needs no d^N."""
        i, j = g
        if gcd(j, self.d) != 1:
            raise UsageError(f"second component {j} is not invertible "
                             f"mod {self.d}^{self.N}")
        return i, j

    def compose(self, g2, g1):
        """g2 after g1: (i2 + j2 i1, j2 j1)."""
        i2, j2 = self._check(g2)
        i1, j1 = self._check(g1)
        m = self.modulus
        return ((i2 + j2 * i1) % m, (j2 * j1) % m)

    def inverse(self, g):
        i, j = self._check(g)
        m = self.modulus
        jinv = pow(j, -1, m)
        return ((-jinv * i) % m, jinv)

    def act(self, g, k: int) -> int:
        i, j = self._check(g)
        return (j * k + i) % self.modulus

    def restrict(self, g):
        """Image at level N-1 under reduction mod d^(N-1)."""
        if self.N < 2:
            raise UsageError("no level below N = 1")
        i, j = self._check(g)
        m = self.d ** (self.N - 1)
        return (i % m, j % m)


def subgroup_orbit_count(generators, L: KummerLevel) -> int:
    """Orbits of the generated subgroup on the labels Z/d^N.

    Exact closure by label BFS (generators have finite order, so their
    forward action alone connects each orbit).  Units and the budget are
    checked before d^N is formed.
    """
    gens = [L._check(g) for g in generators]
    m, budget = 1, config.max_orbit_size()
    for _ in range(L.N):
        m *= L.d
        if m > budget:
            raise BudgetError(f"label set of size {L.d}^{L.N} "
                              "exceeds the budget")
    seen = [False] * m
    orbits = 0
    for start in range(m):
        if seen[start]:
            continue
        orbits += 1
        stack = [start]
        seen[start] = True
        while stack:
            k = stack.pop()
            for g in gens:
                nk = L.act(g, k)
                if not seen[nk]:
                    seen[nk] = True
                    stack.append(nk)
    return orbits


# ---------------------------------------------------------------------------
# degree chains
# ---------------------------------------------------------------------------


def predicted_degree_step(v_q: int, d: int, n: int) -> int:
    """Ramification lower bound e_{n+1}/e_n with e_m = d^m / gcd(d^m, v_q).

    This is the certified growth of the degree chain coming from d^m-th
    roots of an element of valuation v_q; it equals d once d^n absorbs
    the d-part of v_q.  That happens by n = L, the bit length of |v_q|:
    each prime r | d divides v_q fewer than L times and d^L at least L
    times, so gcd(d^m, v_q) = gcd(d^min(m, L), v_q), and the step
    d gcd(d^n, v_q) / gcd(d^(n+1), v_q) forms no power past d^L.
    """
    if v_q == 0:
        raise DomainError("not applicable: the transported point is a unit")
    if d < 2 or n < 0:
        raise UsageError("need d >= 2 and n >= 0")
    q = abs(v_q)
    L = q.bit_length()
    return d * gcd(d ** min(n, L), q) // gcd(d ** min(n + 1, L), q)


def certify_degree(f: MonicPoly, P, n: int):
    """Certified value of [K(P_n):K] from the polygon of f^n(x) - P.

    Needs the exact backend.  Returns d^n when the polygon issues a
    total-ramification certificate, else None ("uncertified").  The
    polygon is read from the integer numerators of f^n - P over one
    denominator (``MonicPoly.iterate_flat``), each point the valuation
    of a numerator less that of the denominator, and each coefficient
    in lowest terms is held to the coefficient budget.  A level over
    ``PADICDYN_MAX_DEGREE`` raises BudgetError; d^n is formed only for
    n at most the budget's bit length, since past it d^n >= 2^n exceeds
    the budget.

    Under good reduction with v(P) = -k < 0 the polygon is forced, and
    its certificate is read in closed form: f^n(x) - P has constant term
    of valuation -k, leading coefficient 1 and p-integral middle
    coefficients, so its polygon is the single segment from (0, -k) to
    (d^n, 0), of slope k / d^n, whose denominator is d^n exactly when
    gcd(k, d) = 1.  The closed form answers only where an a-priori bound
    proves that the polygon route would pass the coefficient budget.
    Write f = F / E over one denominator (F_d = E), H = sum |F_i| and
    s_n = (d^n - 1) / (d - 1).  Composing F / E into G / D gives
    sum F_i G^i D^(d - i) / (E D^d), so f^n = G_n / E^(s_n) with the
    l1 norm of G_n and E^(s_n) both at most H^(s_n), and the least
    common denominator only divides them.  So every numerator and
    denominator the budget reads for P = a / b is below
    2^(s_n bitlen(H) + bitlen(|a| + b)).  When that exponent is over
    the cap, the polygon route decides, as it does for bad reduction
    and for v(P) >= 0.
    """
    if f.field.backend != "exact":
        raise UsageError("degree certification needs the exact backend")
    if n < 1:
        raise UsageError("level must be >= 1")
    budget = config.max_tree_degree()
    d = f.degree
    if n > budget.bit_length() or d ** n > budget:
        raise BudgetError(f"tree degree {d}^{n} exceeds the budget")
    deg = d ** n
    q = f.field.embed(P).value
    a, b = q.numerator, q.denominator
    k = _vp_int(b, f.field.p)     # v(P) = -k when k > 0 (lowest terms)
    if k and good_reduction(f):
        height = sum(abs(x) for x in f.iterate_flat(1)[0])
        if ((deg - 1) // (d - 1) * height.bit_length()
                + (abs(a) + b).bit_length() <= config.max_coeff_bits()):
            return deg if gcd(k, d) == 1 else None
    nums, den = f.iterate_flat(n)
    # f^n - P over one denominator, P = a / b: coefficient 0 is
    # (b N_0 - a D) / (b D), and each coefficient i >= 1 is N_i / D
    low = b * nums[0] - a * den
    config.check_pair_bits([(low, b * den)] + [(x, den) for x in nums[1:]])
    if not low and not any(nums[1:-1]):
        return None   # f^n - P = x^(d^n): every root is 0, none ramifies
    p = f.field.p
    vd = _vp_int(den, p)
    points = [(0, _vp_int(low, p) - vd - _vp_int(b, p))] if low else []
    points += [(i, _vp_int(x, p) - vd)
               for i, x in enumerate(nums[1:], 1) if x]
    cert = total_ramification_certificate(polygon_of(points),
                                          [low, *nums[1:]])
    if cert is None:
        return None
    return cert.degree


DegreeChain = namedtuple("DegreeChain", "f P v_q levels")
DegreeChain.__doc__ = """Predicted and certified degree growth along a
preimage chain: ``levels`` holds one {"n", "predicted_step",
"certified_degree"} record for each level."""


def transported_valuation(B: Conjugacy, P) -> int:
    """v of the transported base point, exactly determined or refused.

    For good reduction with v(P) < 0 this is -v(P); otherwise it is read
    off a pointwise evaluation and must be certain at the reported error
    bound.
    """
    return _transported(B.f, P, B.good_reduction, lambda: B)


def _transported(f: MonicPoly, P, good: bool, series) -> int:
    """``transported_valuation``; ``series()`` is called for the
    conjugacy only when the valuation reads omega."""
    P = f.field.embed(P)
    vP = P.valuation()
    if good and vP.exact and vP < 0:
        v_q = -vP.as_fraction()
    else:
        pv = omega_at(series(), P)
        val = pv.value.valuation()
        if not val.exact or val.is_infinite or not (val < pv.err):
            raise DomainError(
                "transported valuation not exactly determined; chain refused")
        v_q = val.as_fraction()
    if v_q.denominator != 1:
        raise DomainError("transported valuation is not an integer")
    return int(v_q)


def degree_chain(f: MonicPoly, P, levels: int, order: int = 16) -> DegreeChain:
    """Assemble predictions and certificates for n = 1..levels.

    omega is built, without its inverse, only if the transported
    valuation reads it, but an order the build refuses is refused either
    way."""
    check_build(f, order)
    v_q = _transported(f, P, good_reduction(f),
                       lambda: conjugacy(f, order))
    records = []
    for n in range(1, levels + 1):
        step = predicted_degree_step(v_q, f.degree, n - 1)
        try:
            certified = certify_degree(f, P, n)
        except BudgetError:
            certified = None
        records.append({"n": n, "predicted_step": step,
                        "certified_degree": certified})
    return DegreeChain(f=f, P=f.field.embed(P), v_q=v_q,
                       levels=tuple(records))


# ---------------------------------------------------------------------------
# equivariance transport
# ---------------------------------------------------------------------------


# residual and bound are Valuations
TransportCheck = namedtuple("TransportCheck", "name passed residual bound")
TransportReport = namedtuple("TransportReport", "passed checks")


def transport_check(B: Conjugacy, E: ExtensionField, Q, P,
                    precision: int = 32) -> TransportReport:
    """Check the conjugacy respects powers and conjugation at a preimage.

    Given f(Q) = P with Q in a small normal extension E inside the
    certified disk, verifies (a) omega(Q)^d = omega(P) and (b)
    omega(sigma Q) = sigma(omega(Q)) for each automorphism sigma of E,
    all within reported error bounds.  ``conjugates`` lists images in one
    automorphism order, so its i-th conjugates of Q and omega(Q) are
    images under one sigma_i; (b), named "conjugate-multisets", reports
    the worst residual over those pairs and the least error bound.
    """
    Q = E.embed(Q)
    P = B.f.field.embed(P)
    fQ = B.f.evaluate(Q)
    if not (fQ - E.embed(P)).is_zero():
        raise UsageError("f(Q) does not equal P at working precision")

    checks = []
    omega_Q = omega_at(B, Q)
    omega_P = omega_at(B, P)
    lhs = omega_Q.power(B.f.degree)
    rhs = PointValue(E.embed(omega_P.value), omega_P.err)
    ok, residual, bound = lhs.matches(rhs)
    checks.append(TransportCheck("power-compatibility", ok, residual, bound))

    left = [omega_Q if qc is Q else omega_at(B, qc)
            for qc in conjugates(E, Q, precision=precision)]
    right = [PointValue(rv, omega_Q.err)
             for rv in conjugates(E, omega_Q.value, precision=precision)]
    pairs = [a.matches(b) for a, b in zip(left, right)]
    checks.append(TransportCheck(
        "conjugate-multisets", all(ok for ok, _, _ in pairs),
        min(residual for _, residual, _ in pairs),
        min(pv.err for pv in left + right)))
    return TransportReport(passed=all(c.passed for c in checks),
                           checks=tuple(checks))
