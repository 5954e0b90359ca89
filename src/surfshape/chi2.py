"""The chi-square 0.95 quantile: the control model's component-space threshold.

Pure ``math``: the tail probabilities have closed forms for integer degrees of
freedom, and Newton's method inverts them.
"""
from __future__ import annotations

import math
import operator

_LN2 = math.log(2.0)


def _upper_tail(df: int, x: float) -> tuple[float, float]:
    """P(chi2_df > x) and the density at x, in closed form (Abramowitz & Stegun
    26.4.4-26.4.5): a Poisson sum for even ``df``, erfc plus a finite sum for odd."""
    half = 0.5 * x
    odd = df % 2
    # exp(-half) * 2**shift stays a normal float at large df; ldexp undoes the shift exactly
    shift = max(0, math.ceil((half - 700.0) / _LN2))
    term = math.exp(shift * _LN2 - half) * (math.sqrt(2.0 / (math.pi * x)) if odd else 1.0)
    tail = math.ldexp(math.erfc(math.sqrt(half)), shift) if odd else term
    for k in range(1, (df + 1) // 2):
        term *= x / (2 * k - odd)
        tail += term
        if term > 1e300:
            term, tail, shift = math.ldexp(term, -900), math.ldexp(tail, -900), shift - 900
    return math.ldexp(tail, -shift), math.ldexp(0.5 * term, -shift)


def chi_square_quantile(df: int) -> float:
    """The 0.95 quantile of the chi-square distribution with integer ``df``
    degrees of freedom.

    Newton's method on the closed-form upper tail, so the tail that sets the
    quantile is never formed by cancellation. For ``df`` 1-200 the result is
    within 1.3e-16 relative of the exact quantile (checked in 40-digit
    arithmetic).
    """
    try:
        df = operator.index(df)
    except TypeError:
        raise ValueError(f"df must be an integer, got {df!r}") from None
    if df < 1:
        raise ValueError("df must be at least 1")
    # start from Wilson-Hilferty with A&S 26.2.23's normal quantile at 0.95; the
    # exact 1.6448536... would change the last bit for 548 of df 1-5,001
    h = 2.0 / (9.0 * df)
    x = df * (1.0 - h + 1.645211440143815 * math.sqrt(h)) ** 3
    settled = False
    for _ in range(100):
        upper, density = _upper_tail(df, x)
        step = (upper - (1.0 - 0.95)) / density
        x = max(x + step, 0.125 * x)
        if settled:
            return x
        # convergence is quadratic: one more step after this size reaches the
        # rounding of the tail, and steps stop shrinking below that
        settled = abs(step) <= 1e-10 * x
    raise ArithmeticError(f"chi-square quantile did not converge for df = {df}")
