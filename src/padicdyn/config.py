"""Resource budgets, overridable through environment variables."""

import math
import os

from .errors import BudgetError, UsageError


def _budget(name: str, default: int) -> int:
    raw = os.environ.get(name, str(default))
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {raw!r}") from None


def max_series_order() -> int:
    """Largest truncation order a series construction may request."""
    return _budget("PADICDYN_MAX_ORDER", 512)


def max_tree_degree() -> int:
    """Largest d^n for which exact preimage polynomials are built."""
    return _budget("PADICDYN_MAX_DEGREE", 64)


def max_orbit_size() -> int:
    """Largest label set d^N for subgroup orbit counting."""
    return _budget("PADICDYN_MAX_ORBIT", 4096)


def max_coeff_bits() -> int:
    """Cap on numerator/denominator bit size in exact computations."""
    return _budget("PADICDYN_MAX_COEFF_BITS", 200000)


def check_coeff_bits(values) -> None:
    """Raise BudgetError if a rational is wider than max_coeff_bits()."""
    check_pair_bits((q.numerator, q.denominator) for q in values)


def check_pair_bits(pairs) -> None:
    """``check_coeff_bits`` for rationals given as (numerator, denominator)
    pairs of integers, not always in lowest terms: a gcd is taken only for
    a pair wider than max_coeff_bits()."""
    cap = max_coeff_bits()
    for num, den in pairs:
        if num.bit_length() > cap or den.bit_length() > cap:
            g = math.gcd(num, den)
            if (num // g).bit_length() > cap or (den // g).bit_length() > cap:
                raise BudgetError("coefficient size exceeds the budget")
