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
# above the attack curve's u (under 10 at the shipped block counts) and the
# 1e5 the bit-identity tests reach; Stirling's first dropped term is < 1e-26
_STIRLING_FROM = 1e6
# the u from which I_w(u, 1/2) below the symmetry switch is its large-u limit
_ERFC_FROM = 1e7


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
    Stirling's series to its 1/(12 x) term: the two lgammas, each near
    big * log(big), would cancel, to nothing once big nears 1e15."""
    return ((big - 0.5) * math.log1p(small / big) + small * (math.log(big + small) - 1.0)
            - small / (12.0 * big * (big + small)))


def reg_inc_beta(w: float, u: float, v: float) -> float:
    """Regularized incomplete Beta function I_w(u, v).

    Continued-fraction evaluation with the symmetry switch at
    w = (u + 1) / (u + v + 2), exact at the endpoints w = 0 and w = 1.
    From _STIRLING_FROM on, log 1 / B(u, v) takes the larger parameter's
    lgamma difference from _log_gamma_ratio (with both that large, the
    smaller one's lgamma still cancels).
    Below the switch the continued fraction cancels for w near 1, so its
    relative error grows like 1e-16 u (for any v): just below the switch at
    v = 1/2, 9.6e-11 at u = 1e6 and about 3e-10 just below 1e7. From
    _ERFC_FROM on, v = 1/2 takes the large-u limit erfc(sqrt y),
    y = (u - 1/4)(-ln w) (Temme 1992), times the next term 1 - (ln w)^2/48:
    within 3.4e-13 of mpmath wherever the value is a normal float.
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
        log_w = math.log(w)
        limit = math.erfc(math.sqrt((u - 0.25) * -log_w))
        return limit - limit * log_w * log_w / 48.0  # +0.0 where erfc underflows
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

