"""Conjugating a monic polynomial to z -> z^d near infinity.

For monic f of degree d with p not dividing d, there is a unique series
omega(w) = w + O(w^2) in w = 1/z with omega(1/f(z)) = omega(1/z)^d.  It
is the limit of the normalized d^N-th roots of f^N(z)/z^(d^N), and
successive approximants agree to order at least d^N
(``cauchy_rate_check``, one d^N-th root per level).  The build iterates
the equation instead of f: omega = w (omega(W) / w^d)^(1/d) with
W = 1/f(1/w), one composition through f and one d-th root per step,
each step taking the known order from t to about d t, and the last
composition is also the image the build's check of the equation needs,
which the last root's own check compares with omega^d.  No step redoes
the one before: the powers of W the compositions sum over are formed
once per build, and each root's Newton iteration resumes from the state
the step before reached at a power of two.  The inverse series needs no
reversion: the conjugacy read backwards says
that phi = omega^-1 solves phi(u^d) = phi(u)^d / P(phi(u)),
P(x) = 1 + a_{d-1} x + ... + a_0 x^d, and Newton iteration on that
equation takes products and one unit inverse per step, no composition.
``conjugacy`` builds omega alone, for everything that reads only omega;
``boettcher_series`` adds the inverse.
The escape-radius constant C_f bounds the convergence disk, and for good
reduction the series has integral coefficients and satisfies
v(omega(z)) = -v(z) on |z| > 1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import config, newton
from .errors import (BudgetError, DomainError, InternalError, PrecisionError,
                     UsageError)
from .localfield import ExactField, _over_common, _vp_int, poly_eval
from .series import (DiskSpec, PointValue, TailSeries, _as_point, _convolve,
                     agreement_order, evaluate, gauss_norm, weighted_sum)


class MonicPoly:
    """z^d + a_{d-1} z^{d-1} + ... + a_0 over a base field.

    Any degree >= 2 is accepted here; the conjugacy constructions refuse
    degrees divisible by the residue characteristic at call time.
    """

    __slots__ = ("field", "coeffs", "_chain")

    def __init__(self, field, coeffs):
        coeffs = [field.embed(c) for c in coeffs]
        if len(coeffs) < 2:
            raise UsageError("degree must be at least 2")
        self.field = field
        self.coeffs = tuple(coeffs)
        self._chain = ()

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def full_coeffs(self):
        return list(self.coeffs) + [self.field.embed(1)]

    def w_coeffs(self):
        """[1, a_{d-1}, ..., a_0]: f(z)/z^d as a polynomial in w = 1/z."""
        return self.full_coeffs()[::-1]

    def evaluate(self, x):
        return poly_eval(self.full_coeffs(), x)

    def iterate(self, N: int) -> "MonicPoly":
        """The N-fold composition f^N as a MonicPoly (see
        ``iterate_flat``)."""
        nums, den = self.iterate_flat(N)
        return MonicPoly(self.field, [Fraction(x, den) for x in nums[:-1]])

    def iterate_flat(self, N: int) -> tuple:
        """f^N as (numerators, denominator): integers, lowest first, over
        their least common denominator, the last numerator equal to it.

        Over ``ExactField`` f keeps the chain f, f^2, ... in this form,
        each level made once from the one before; it grows into a new
        tuple, never in place, so threads sharing f read a whole one.
        Other fields, extensions of Q_p included, are refused: no
        construction iterates over them (degree certificates need the
        exact backend).
        """
        if N < 1:
            raise UsageError("iterate needs N >= 1")
        if not isinstance(self.field, ExactField):
            raise UsageError("iterating f needs an ExactField")
        chain = self._chain or (
            _over_common([c.value for c in self.full_coeffs()]),)
        while len(chain) < N:
            chain += (_compose_flat(chain[0], chain[-1]),)
        self._chain = chain
        return chain[N - 1]

    def __repr__(self):
        return f"MonicPoly(d={self.degree}, p={self.field.p})"


def _compose_flat(f, g) -> tuple:
    """f o g from flat f = F / E and g = G / D (see ``_over_common``):
    sum_i F_i G^i D^(d - i) / (E D^d), by Horner in G, reduced by the gcd
    so that the denominator is the least common one."""
    (F, E), (G, D) = f, g
    acc, power = [F[-1]], 1
    for c in reversed(F[:-1]):
        n = len(acc) + len(G) - 1
        acc = _convolve(acc + [0] * (len(G) - 1),
                        list(G) + [0] * (len(acc) - 1), n)
        power *= D
        acc[0] += c * power
    common = math.gcd(E * power, *acc)
    return tuple(x // common for x in acc), E * power // common


Conjugacy = namedtuple("Conjugacy", "f cf_valuation good_reduction omega "
                       "verified_order domain")
Conjugacy.__doc__ = """The conjugacy omega for one polynomial, without its
inverse.

``omega`` is the series in w = 1/z with linear coefficient 1, verified
against omega(f(z)) = omega(z)^d to ``verified_order`` (see
``conjugacy``), on the disk ``domain``, a DiskSpec.  Everything that
reads omega alone, pointwise evaluation and the transport checks
included, takes this.
"""


class BoettcherData(namedtuple("BoettcherData",
                               Conjugacy._fields + ("omega_inverse",)),
                    Conjugacy):
    """The conjugacy and ``omega_inverse``, omega's compositional
    inverse, verified against its own functional equation (see
    ``boettcher_series``)."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# escape radius
# ---------------------------------------------------------------------------


def cf_constant(f: MonicPoly) -> Fraction:
    """v(C_f) = min(0, min_i v(a_i) / (d - i)); C_f = p^(-v)."""
    d = f.degree
    best = Fraction(0)
    for i, a in enumerate(f.coeffs):
        val = a.valuation()
        if val.is_infinite:
            continue
        if not val.exact:
            raise PrecisionError(
                f"coefficient {i} has unknown exact valuation")
        cand = val.as_fraction() / (d - i)
        if cand < best:
            best = cand
    return best


def cf_sup_check(f: MonicPoly, cf_valuation: Fraction | None = None) -> bool:
    """Cross-validate the escape radius against the polygon of f(z)/z^d.

    Viewed in w, the polygon slopes of 1 + a_{d-1} w + ... + a_0 w^d are
    the valuations of the roots of f, so min(0, min slope) must equal
    v(C_f).  Returns False on mismatch (a failed check, not an error).
    """
    if cf_valuation is None:
        cf_valuation = cf_constant(f)
    coeffs_w = f.w_coeffs()
    if all(c.is_zero() for c in coeffs_w[1:]):
        return cf_valuation == 0
    polygon = newton.build_polygon(coeffs_w)
    min_slope = min(seg.slope for seg in polygon.segments)
    return min(Fraction(0), min_slope) == cf_valuation


def good_reduction(f: MonicPoly) -> bool:
    """True iff every coefficient has non-negative valuation."""
    return all(a.valuation() >= 0 for a in f.coeffs)


def _scale(f: MonicPoly) -> int:
    """L = d^2 p^m q, the scale of the exact series a build makes from f
    (``TailSeries._rescaled``); 1 over ``CappedField``.

    m is the greatest ceil(v_p(den a_i) / (d - i)) and q the lcm of the
    denominators' prime-to-p parts, so every a_i L^(d - i) is an integer
    and P(L u) = 1 + a_{d-1} L u + ... + a_0 L^d u^d, with it 1/P and W,
    has integer coefficients in u = w / L; d^2 covers the denominators
    of the d-th roots.  So omega and its inverse are integer vectors at
    scale L.  A capped build needs no scale from f: each capped unit
    inverse, W's and those of omega^-1's Newton steps, runs on the
    steepest integer line under its valuations (``series._slope``).
    Any L gives the same coefficients; a wrong one costs speed only.
    """
    if not isinstance(f.field, ExactField):
        return 1
    d, p = f.degree, f.field.p
    dens = [a.value.denominator for a in f.coeffs]
    m = max(-(-_vp_int(den, p) // (d - i)) for i, den in enumerate(dens))
    return d * d * p ** m * math.lcm(*[den // p ** _vp_int(den, p)
                                       for den in dens])


# ---------------------------------------------------------------------------
# the conjugacy series
# ---------------------------------------------------------------------------


def _beta_series(f: MonicPoly, N: int, M: int) -> list:
    """beta_1..beta_N, beta_n = f^n(z)/z^(d^n) as a series in w, at
    truncation M.

    Substituting on the series level keeps O(M) terms per step:
    beta_(n+1) = sum_i a_i beta_n^i w^(d^n (d - i)), a_d = 1, one weighted
    sum over the powers of beta_n.
    """
    d = f.degree
    out = [TailSeries.from_polynomial(f.field, f.w_coeffs(), M)._rescaled(
        _scale(f))]
    while len(out) < N:
        shift = d ** len(out)
        out.append(weighted_sum(f.full_coeffs(), [
            x.shifted(shift * (d - i))
            for i, x in enumerate(_powers(out[-1], d))], M))
    return out


def _xi_series(f: MonicPoly, N: int, M: int) -> list:
    """The normalized root approximants xi_1..xi_N at truncation M.

    xi_n is the d^n-th root of beta_n with constant term 1, one root per
    approximant.  It claims no digit it does not have: d^n is a p-adic
    unit, as d is, so the root is defined; every Newton step of
    ``TailSeries.nth_root`` follows the precision rules of products,
    sums and unit inverses; and its final check, xi_n^(d^n) against
    beta_n to full order, binds the result.  The build does not use
    them (``_omega_series``); w / xi_N for the least N with d^N >= M is
    omega modulo w^M, which the tests hold the build to.
    """
    return [beta.nth_root(f.degree ** n)
            for n, beta in enumerate(_beta_series(f, N, M), 1)]


def _omega_series(f: MonicPoly, M: int) -> tuple:
    """(omega modulo w^M, an image of omega(W) modulo w^M, the order to
    which it agrees with omega^d), from omega's own functional equation.

    With omega = w u and W = 1/f(1/w) = w^d / P(w), omega(W) = omega^d
    reads omega = w (omega(W) / w^d)^(1/d).  Coefficient k of omega
    reaches omega(W) only at w^(d k) and above, so omega right modulo
    w^t makes omega(W) right modulo w^(d t): each step composes the
    zero-padded omega through f to T = min(d t, M + d - 1), takes the
    d-th root with constant term 1 of omega(W) / w^d and multiplies by w,
    which gives omega modulo w^(T - d + 1).  omega starts as w, at no
    scale: its first composition meets W's powers, which carry it.

    No step starts from nothing.  The powers 1, W, ..., W^m that the
    compositions sum over are formed once, to the last step's order
    M + d - 1 with its m, and each step reads the first m + 1 of them
    cut to its own T (``_compose_with``); a cut power is the same
    element, digits and precision alike, as one formed at T, since
    coefficient j of a product or a unit inverse reads only operand
    coefficients up to j.  The table lives for one build only.

    Each root is the one ``nth_root`` gives, digits and precision alike,
    without climbing from 1 modulo w every time: each step passes the
    Newton ladder of its root on to the next (``TailSeries._root_steps``
    says when a ladder is resumed).  For d = 2, T - d is a power of two
    until the last step, so each fixed-point step but the last is one
    Newton step.  Only the last root is checked against its image to
    full order (``TailSeries._root_from``): each earlier omega only
    starts the next step, and a wrong one cannot pass, since the last
    root's check and ``identical_to``, or the fresh composition, bind
    the build.

    Over a capped field the padding claims exact zeros that omega does
    not have, and no digit or precision comes from them: composing to
    order T reads only omega's first ceil(T / d) <= t coefficients
    (``compose_through_poly``), the ones already known.  So each digit
    of the image, and of its root, is claimed by the precision rules of
    those two operations alone, as if omega had been given to order t
    without padding, and the capped omega claims no digit it does not
    have.  Each root is the one a start from 1 gives, so it claims no
    more, and the last root's check, its d-th power against
    omega(W) / w^d to full order, binds the result.

    The image returned encloses omega(W) modulo w^M, for the build's
    check.  The last step's image is omega_prev(W) to order M + d - 1,
    where omega_prev is the omega it started from.  Cut to w^M it reads
    only the first ceil(M / d) coefficients, so when those of omega_prev
    and omega are the same elements (``TailSeries.identical_to``) it is
    omega(W) modulo w^M and is returned; otherwise, or when no step ran
    (M = 2), the final omega is composed with the same table.  Either way
    each digit is claimed by the rules of products and sums, but over a
    capped field the shared image was summed at order M + d - 1, whose
    blocks of m coefficients may be longer than those of a composition
    at M, so its precisions may differ from those of
    ``compose_through_poly``'s grouping.

    omega^d is formed only for a fresh composition.  The last root's
    full-order check already compared x^d with image / w^d to order
    M - 1, and omega^d is x^d shifted by w^d, the image zero below w^d:
    the shared image agrees with omega^d to order M, or that check
    would have raised.
    """
    d = f.degree
    last = M + d - 1
    powers = _powers(_reciprocal(f, last), _baby_steps(last, d), last)
    omega = TailSeries.w_power(f.field, 1, min(2, M))
    image = ladder = None
    while omega.trunc < M:
        T = min(d * omega.trunc, last)
        previous = omega
        image = _compose_with(omega._padded(T), powers, d)
        target = image.shifted(-d)
        if T == last:   # the last step's root is the one checked
            x = target._root_from(d, ladder)
        else:
            x, ladder = target._root_steps(d, ladder)
        omega = x.shifted(1)
    if image is not None and previous.identical_to(omega, -(-M // d)):
        return omega, image.truncate(M), M
    image = _compose_with(omega, powers, d)
    return omega, image, agreement_order(image, (omega ** d).truncate(M))


def check_build(f: MonicPoly, M: int) -> None:
    """Raise what a build to order M refuses before any work: p | d
    (DomainError), M < 2 (UsageError), M or the degree d over the order
    budget (BudgetError), since the build forms W = 1/f(1/w) to order
    M + d - 1."""
    if f.degree % f.field.p == 0:
        raise DomainError(
            "residue characteristic divides the degree; no conjugacy series")
    if M < 2:
        raise UsageError("truncation order must be at least 2")
    if M > config.max_series_order():
        raise BudgetError(f"truncation order {M} exceeds the budget")
    if f.degree > config.max_series_order():
        raise BudgetError(f"degree {f.degree} exceeds the order budget")


def conjugacy(f: MonicPoly, M: int) -> Conjugacy:
    """Construct omega to prescribed truncation order M, without its
    inverse.

    omega comes from its own functional equation (``_omega_series``)
    and is verified against omega(f(z)) = omega(z)^d to full order: the
    left side is the image the fixed point returns.  When that is the
    last step's image, the last root's own check was the comparison;
    only for a fresh composition is omega^d formed.
    """
    check_build(f, M)
    omega, _, verified = _omega_series(f, M)
    cf_val = cf_constant(f)
    if verified < M:
        raise InternalError(
            f"functional equation fails at index {verified}")
    return Conjugacy(
        f=f,
        cf_valuation=cf_val,
        good_reduction=good_reduction(f),
        omega=omega,
        verified_order=verified,
        domain=DiskSpec("inf", -cf_val),
    )


def boettcher_series(f: MonicPoly, M: int) -> BoettcherData:
    """Construct the conjugacy and its inverse to truncation order M.

    omega and its check are ``conjugacy``'s.  The inverse phi comes from
    f alone (``_omega_inverse``) and is verified against
    G(phi) = phi^d - phi(u^d) P(phi) = 0 modulo u^(M + d - 1).

    Why omega(phi) = w follows.  G = 0 to that order fixes phi modulo
    u^M: a change at u^k first moves G at u^(k + d - 1), by d times the
    change, and p does not divide d.  So phi, like omega, is the
    truncation of the exact series, and the exact phi satisfies
    phi(u^d) = 1 / f(1 / phi(u)).  Then h = omega(phi) has
    h(u^d) = omega(1 / f(1 / phi(u))) = omega(phi(u))^d = h(u)^d and
    h = u + O(u^2).  Were h - u = e u^m + ... with e != 0, m >= 2, the
    right side would differ from u^d by d e u^(m + d - 1), the left side
    by nothing below u^(d m), a higher power; so h = u, and
    omega(phi) = w modulo w^M.  The tests check that composition
    directly.
    """
    C = conjugacy(f, M)
    return BoettcherData(*C, _omega_inverse(f, M))


def _powers(x: TailSeries, m: int, T: int | None = None) -> list:
    """[1, x, x^2, ..., x^m]: m - 1 products, x and each product cut to
    T when it is given."""
    x = x if T is None else x.truncate(T)
    out = [TailSeries.one(x.field, x.trunc), x]
    while len(out) <= m:
        power = out[-1] * x
        out.append(power if T is None else power.truncate(T))
    return out


def _inverse_residual(phi: TailSeries, f: MonicPoly, powers=None):
    """(G, phi(u^d)) with G = phi^d - phi(u^d) P(phi), both to order
    phi.trunc + d - 1; P(x) = 1 + a_{d-1} x + ... + a_0 x^d.

    Coefficient k of G involves phi's coefficients up to k - d + 1 only,
    the last of them as d phi_(k-d+1), so for phi = u + O(u^2) known
    modulo u^t, G vanishes to order t + d - 1 exactly when phi solves
    the equation modulo u^t.  ``powers`` is ``_powers(phi, d)``.
    """
    d = f.degree
    if powers is None:
        powers = _powers(phi, d)
    spread = phi.spread(d).truncate(phi.trunc + d - 1)
    return weighted_sum((1, -1), (powers[d], (spread, weighted_sum(
        f.w_coeffs(), powers)))), spread


def _omega_inverse(f: MonicPoly, M: int) -> TailSeries:
    """omega^-1 modulo u^M from f alone, with no series composition.

    Read backwards at u = omega(w), omega(f(z)) = omega(z)^d says that
    phi = omega^-1 is the root of G(phi) = phi^d - phi(u^d) P(phi) with
    phi = u + O(u^2).  Newton iteration takes phi(u^d) as known: if phi
    is right modulo u^t, its spread is right modulo u^(d t), more than
    a step needs.  G' = d phi^(d-1) - phi(u^d) P'(phi) is u^(d-1) times
    a unit with constant term d, so a step costs d + 2 products and one
    unit inverse, P(phi) and P'(phi) being weighted sums of the powers,
    and takes phi from modulo u^t to modulo u^(2t - 1).
    """
    d = f.degree
    inv_d = Fraction(1, d)
    minus_inv_d = f.field.embed(-inv_d)
    # P'(x) / d as weights on 1, x, ..., x^(d-1)
    slopes = [a * ((d - i) * inv_d) for i, a in enumerate(f.coeffs)][::-1]
    phi = TailSeries.w_power(f.field, 1, min(2, M))._rescaled(_scale(f))
    t = phi.trunc
    while t < M:
        t = min(2 * t - 1, M)
        phi = phi._padded(t)
        powers = _powers(phi, d)
        G, spread = _inverse_residual(phi, f, powers)
        if not G.is_exact_zero:   # see TailSeries.nth_root
            slope = weighted_sum((1, -1), (powers[d - 1], (
                spread, weighted_sum(slopes, powers[:d]))))
            unit = slope.shifted(1 - d).truncate(t - 1)
            delta = G.shifted(1 - d) * unit.invert_unit()
            phi = weighted_sum((1, minus_inv_d), (phi, delta), t)
    if not _inverse_residual(phi, f)[0].is_zero():
        raise InternalError("omega^-1 fails its functional equation")
    return phi


def _reciprocal(f: MonicPoly, T: int) -> TailSeries:
    """W = 1/f(z) = w^d / (f(z)/z^d) as a series in w, to order T + d.

    The unit part is a polynomial in w, inverted to order T, so the
    substitution is exact up to the claimed truncation.
    """
    unit = TailSeries.from_polynomial(f.field, f.w_coeffs(), T)
    return unit._rescaled(_scale(f)).invert_unit().shifted(f.degree)


def _baby_steps(T: int, d: int) -> int:
    """m for a composition through f of degree d to order T: near the
    square root of the K = ceil(T / d) coefficients that reach w^T."""
    return max(1, math.isqrt(-(-T // d)))


def compose_through_poly(S: TailSeries, f: MonicPoly) -> TailSeries:
    """S(f(z)) expanded as a series in w = 1/z, truncated at S's order T.

    S(W), W = 1/f(z) of order d, by baby steps and giant steps (Brent and
    Kung): W^0 .. W^m are formed once (``_powers``), each block of m
    coefficients of S is one weighted sum of them, and Horner runs in W^m
    over the blocks (``_compose_with``).  Block b's partial sum is still
    to be multiplied by W^(m b), of order m b d, so it is kept to order
    T - m b d only.  Of S's coefficients only the first K = ceil(T / d)
    reach w^T, so with m near sqrt(K) this takes about m + K / m
    products, where Horner in W takes K.  Each call forms its own powers;
    the Böttcher fixed point forms them once per build and composes with
    them cut to each step's order.
    """
    if S.ord < 1:
        raise UsageError("composition through f needs series order >= 1")
    if S.field != f.field:
        raise UsageError("series and polynomial over different fields")
    T = S.trunc
    return _compose_with(S, _powers(_reciprocal(f, T),
                                    _baby_steps(T, f.degree), T), f.degree)


def _compose_with(S: TailSeries, powers: list, d: int) -> TailSeries:
    """S(W) to S's order T from a table of ``_powers`` of W to order T or
    more: its first m + 1 entries, m = ``_baby_steps(T, d)``, are read,
    so the table needs at least that many.  Each block, its giant-step
    term acc W^m included, is one ``weighted_sum`` to the block's order
    t, which reads the powers only below t, so they are taken uncut;
    only W^m is cut to T.  The giant step enters as the pair (acc, W^m)
    at the weight 1, its product summed before reduction, each
    coefficient reduced once, in the block's sum."""
    T = S.trunc
    K = -(-T // d)
    m = _baby_steps(T, d)
    baby, giant = powers[:m], powers[m].truncate(T)
    weights, terms = [], []     # the giant step, from the second block on
    for b in range(-(-K // m) - 1, -1, -1):
        block = [S.coefficient(k) for k in range(m * b, min(m * b + m, K))]
        acc = weighted_sum(block + weights, baby[:len(block)] + terms,
                           T - m * b * d)
        weights, terms = [1], [(acc, giant)]
    return acc


def functional_equation_check(B: Conjugacy, M: int | None = None) -> int:
    """Agreement order of omega(f(z)) with omega(z)^d, both recomputed
    from f and omega cut to M; M means verified."""
    omega = B.omega if M is None else B.omega.truncate(M)
    return agreement_order(compose_through_poly(omega, B.f),
                           (omega ** B.f.degree).truncate(omega.trunc))


def cauchy_rate_check(f: MonicPoly, N_max: int, trunc: int | None = None):
    """Agreement orders of successive root approximants, N = 1..N_max.

    Each entry is at least d^N; it equals d^N exactly when a_{d-1} is a
    unit, and only improves when low coefficients vanish.  The default
    truncation is the smallest that can certify both directions.
    """
    if trunc is None:
        trunc = f.degree ** N_max + 2
    check_build(f, trunc)
    xs = _xi_series(f, N_max + 1, trunc)
    return [agreement_order(xs[n], xs[n + 1]) for n in range(N_max)]


# ---------------------------------------------------------------------------
# escape testing
# ---------------------------------------------------------------------------


class EscapeResult(namedtuple("EscapeResult", "status iterations reason")):
    """Outcome of orbit iteration: 'escapes' and 'bounded' are certified;
    'bounded-so-far' is all finite precision can say under bad reduction."""

    __slots__ = ()

    @property
    def certified(self) -> bool:
        return self.status in ("escapes", "bounded")


def escape_test(f: MonicPoly, P, max_iter: int = 16) -> EscapeResult:
    """Iterate f on P until the orbit provably escapes, or give up.

    Once v(f^n(P)) < v(C_f) the modulus grows as |f^n(P)|^(d^k), so
    escape is certified.  Under good reduction the answer at n = 0 is
    decisive: negative valuation escapes, everything else stays integral
    forever.  Exact iterates must fit the coefficient-size budget.
    """
    if max_iter < 0:
        raise UsageError(f"max_iter must be at least 0, got {max_iter}")
    P = f.field.embed(P)
    vcf = cf_constant(f)
    if good_reduction(f):
        v = P.valuation()
        if v >= 0:
            return EscapeResult("bounded", 0,
                                "good reduction and the orbit stays integral")
        if v.exact:
            return EscapeResult("escapes", 0,
                                "good reduction and v(P) < 0")
        raise PrecisionError("point valuation too uncertain to classify")
    x = P
    for n in range(max_iter + 1):
        v = x.valuation()
        if v.exact and not v.is_infinite and v.as_fraction() < vcf:
            return EscapeResult("escapes", n,
                                f"v(f^{n}(P)) = {v} < v(C_f) = {vcf}")
        if n < max_iter:
            x = f.evaluate(x)
            if f.field.backend == "exact":
                config.check_coeff_bits([x.value])
    return EscapeResult("bounded-so-far", max_iter,
                        "no certified escape within the iteration budget")


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------


def omega_at(B: Conjugacy, z) -> PointValue:
    """Evaluate omega at a point strictly inside the certified disk; an
    int or Fraction point is embedded in the base field."""
    z = _as_point(B.omega, z)
    result = evaluate(B.omega, z, B.domain)
    if B.good_reduction:
        vz = z.valuation()
        vr = result.value.valuation()
        if vz.exact and vr.exact and vr.as_fraction() != -vz.as_fraction():
            raise InternalError(
                "good-reduction evaluation violates v(omega(z)) = -v(z)")
    return result


def point_identity_report(B: Conjugacy, P):
    """Check omega(f(P)) = omega(P)^d within reported error bounds."""
    P = B.f.field.embed(P)
    lhs = omega_at(B, B.f.evaluate(P))
    rhs = omega_at(B, P).power(B.f.degree)
    ok, residual, bound = lhs.matches(rhs)
    return ok, residual, bound


def rescaled_integrality_ok(B: BoettcherData) -> bool:
    """With v(alpha) = v(C_f), alpha * omega(alpha z) must be integral.

    In coefficients: v(c_k) >= (k - 1) v(C_f) for both omega and its
    inverse.  For good reduction this is plain integrality.  With
    eps = -v(C_f) that is v(c_k) + k eps >= eps for every k: a Gauss
    norm on the certified disk of at least eps.
    """
    return all(gauss_norm(S, B.domain) >= B.domain.eps
               for S in (B.omega, B.omega_inverse))
