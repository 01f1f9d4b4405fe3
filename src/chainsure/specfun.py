"""Special functions.

The regularized incomplete Beta function drives the attack-probability
curve. The production integral is the midpoint grid in risk.survival_grid;
its verification oracle, adaptive Simpson, lives in chainsure.oracles.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError

_CF_EPS = 1e-15
_CF_TINY = 1e-300
_CF_MAX_ITER = 500
# the larger Beta parameter from which the prefactor uses _log_gamma_ratio:
# above the attack curve's u (under 10 at the shipped block counts); from
# there Stirling's first dropped term is below 1e-13, and below it the lgamma
# difference lost at most 2.6e-14 to cancellation at v = 1/2
_STIRLING_FROM = 100.0
# the u from which I_w(u, 1/2) below the symmetry switch is its large-u limit
_ERFC_FROM = 1e6
_SQRT_PI = math.sqrt(math.pi)


def _beta_contfrac(u: float, v: float, w: float) -> float:
    """Continued fraction for the incomplete Beta function (modified Lentz).

    Evaluates the standard even/odd continued fraction; callers must ensure
    w < (u + 1) / (u + v + 2) so the expansion converges quickly. Step m
    runs the Lentz update on its even, then its odd partial numerator.
    Callers pass Python floats: the same loop on numpy scalars gives the
    same results more than twice as slowly. The chained comparisons are the
    |d| < tiny tests without an abs() call, false for NaN as well.
    """
    qab = u + v
    qap = u + 1.0
    qam = u - 1.0
    c = 1.0
    d = 1.0 - qab * w / qap
    if -_CF_TINY < d < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (v - m) * w / ((qam + m2) * (u + m2)),
                   -(u + m) * (qab + m) * w / ((u + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if -_CF_TINY < d < _CF_TINY:
                d = _CF_TINY
            c = 1.0 + aa / c
            if -_CF_TINY < c < _CF_TINY:
                c = _CF_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if -_CF_EPS < delta - 1.0 < _CF_EPS:
            return h
    raise ConvergenceError(
        f"incomplete Beta continued fraction failed to converge for u={u}, v={v}, w={w}"
    )


def _log_gamma_ratio(big: float, small: float) -> float:
    """lgamma(big + small) - lgamma(big), for big >= _STIRLING_FROM, from
    Stirling's series to its 1/(360 x^3) term: the two lgammas, each near
    big * log(big), would cancel, to nothing once big nears 1e15. From
    big near 3e3 on, the 1/(360 x^3) term's difference is below the sum's
    rounding: it moved no bit of the series without it at any big
    measured there, from 3e3 to 1e16."""
    total = big + small
    inverse = 1.0 / (big * total)  # 0.0, not an overflow, for a huge big
    return ((big - 0.5) * math.log1p(small / big) + small * (math.log(total) - 1.0)
            - small / (12.0 * big * total)
            + small * inverse * inverse * (3.0 + small * small * inverse) / 360.0)


def reg_inc_beta(w: float, u: float, v: float) -> float:
    """Regularized incomplete Beta function I_w(u, v).

    Continued-fraction evaluation with the symmetry switch at
    w = (u + 1) / (u + v + 2), exact at the endpoints w = 0 and w = 1.
    From _STIRLING_FROM on, log 1 / B(u, v) takes the larger parameter's
    lgamma difference from _log_gamma_ratio (with both that large, the
    smaller one's lgamma still cancels); the lgamma difference itself,
    whose error grows like 1e-16 u ln u, would be off by 7.2e-13 at
    u = 1e3 and 1.6e-9 at 9e5 for v = 1/2. Below the switch the continued
    fraction cancels for w near 1, so its relative error grows like 1e-16 u
    (for any v): at v = 1/2 and seven w from just below the switch to the
    tail, the value is within 2e-16 u + 2e-13 of mpmath from u = 10 to 1e6,
    for example 5.9e-12 at u = 1e5 and 9.6e-11 just below the switch at
    u = 1e6. So from _ERFC_FROM on, v = 1/2 takes the large-u limit
    erfc(sqrt y), with T = u - 1/4 and y = T (-ln w) (Temme 1992), less
    its 1/T^2 term erfc(sqrt y) Gamma(5/2, y) / (48 T^2 Gamma(1/2, y)),
    whose ratio of upper incomplete gammas is exactly 3/4 +
    (3/2 + y) sqrt(y) e^-y / (sqrt(pi) erfc(sqrt y)): within 1.7e-13 of
    mpmath from u = 1e6 to 1e16 wherever the value is a normal float.
    Where the prefactor w^u (1 - w)^v / B(u, v) underflows to 0, as for
    a huge u or v, the branch's endpoint (0, or 1 in the complement
    branch) is returned without the continued fraction, which would give
    0 times it anyway and may not converge there.
    """
    if not (u > 0 and v > 0):
        raise ValueError(f"reg_inc_beta requires u, v > 0, got u={u}, v={v}")
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"reg_inc_beta requires 0 <= w <= 1, got {w}")
    if w == 0.0:
        return 0.0
    if w == 1.0:
        return 1.0
    below = w < (u + 1.0) / (u + v + 2.0)
    if below and v == 0.5 and u >= _ERFC_FROM:
        t = u - 0.25
        y = t * -math.log(w)
        root = math.sqrt(y)
        limit = math.erfc(root)
        if not limit:  # erfc(sqrt y) < e^-y: it underflows first, to +0.0
            return limit
        # limit times Gamma(5/2, y) / Gamma(1/2, y), the 1/T^2 term's ratio
        ratio = 0.75 * limit + (1.5 + y) * root * math.exp(-y) / _SQRT_PI
        return limit - ratio / (48.0 * t * t)
    # u, v > 0 is checked above, so lgamma needs no domain check of its own
    big, small = (u, v) if u >= v else (v, u)
    if big < _STIRLING_FROM:
        ln_inv_beta = math.lgamma(u + v) - math.lgamma(u) - math.lgamma(v)
    else:
        ln_inv_beta = _log_gamma_ratio(big, small) - math.lgamma(small)
    ln_front = ln_inv_beta + u * math.log(w) + v * math.log1p(-w)
    front = math.exp(ln_front)
    if below:
        return front * _beta_contfrac(u, v, w) / u if front else 0.0
    return 1.0 - front * _beta_contfrac(v, u, 1.0 - w) / v if front else 1.0

