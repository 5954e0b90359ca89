"""Chi-square quantiles for the control model's component-space threshold."""
from __future__ import annotations


def chi_square_quantile(df: int, prob: float) -> float:
    """The ``prob`` quantile of the chi-square distribution with ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError("df must be at least 1")
    if not 0 < prob < 1:
        raise ValueError("prob must be strictly between 0 and 1")
    from scipy.special import gammaincinv

    return float(2.0 * gammaincinv(df / 2.0, prob))
