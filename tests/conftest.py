"""Shared oracle helpers for the test suite.

Every nontrivial expected value in the tests is produced by one of these
independent routes: closed-form binomial tails for integer-parameter Beta
values, adaptive Simpson quadrature of raw integrands, dense eigensolvers,
and exhaustive enumeration. None of them share code with the paths they
verify beyond the adaptive integrator itself, which exists for exactly
this purpose.
"""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from chainsure import ExternalityGraph, harness
from chainsure.specfun import adaptive_simpson

# adaptive Simpson tolerances: the tight one, and a looser one for nested integrals
ADAPTIVE = 1e-10
ADAPTIVE_FAST = 1e-8


def beta_closed_form(w: float, u: int, v: int) -> float:
    """I_w(u, v) for integer parameters as a binomial tail:
    sum_{j=u}^{u+v-1} C(u+v-1, j) w^j (1-w)^(u+v-1-j)."""
    n = u + v - 1
    return sum(
        math.comb(n, j) * w**j * (1.0 - w) ** (n - j) for j in range(u, n + 1)
    )


def beta_quadrature(w: float, u: float, v: float, tol: float = 1e-11) -> float:
    """I_w(u, v) by adaptive quadrature of the raw Beta integrand.

    Only valid away from the w = 1 endpoint when v < 1 (integrable
    singularity there).
    """
    ln_norm = math.lgamma(u + v) - math.lgamma(u) - math.lgamma(v)

    def integrand(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(ln_norm + (u - 1.0) * math.log(t) + (v - 1.0) * math.log1p(-t))

    return adaptive_simpson(integrand, 0.0, w, tol)


def nested_adaptive_premium(p_fn, scale: float, gamma: float,
                            tolerance: float = ADAPTIVE_FAST) -> float:
    """scale * integral_{1/2}^1 [1 - integral_{1/2}^t p]^(1/gamma) dt,
    both levels adaptive; the independent route for the premium family."""

    def outer(t: float) -> float:
        inner = adaptive_simpson(p_fn, 0.5, t, tolerance)
        return max(1.0 - inner, 0.0) ** (1.0 / gamma)

    return scale * adaptive_simpson(outer, 0.5, 1.0, tolerance)


def random_weights(rng: np.random.Generator, n: int,
                   target_alpha_rho: float = 0.6,
                   g_high: float = 10.0) -> tuple[np.ndarray, float]:
    """Random nonnegative weights with a zero diagonal, and the alpha that
    puts alpha * rho(G) at the requested level (dense eigensolver, not the
    package path)."""
    weights = rng.uniform(0.0, g_high, size=(n, n))
    np.fill_diagonal(weights, 0.0)
    rho = float(np.max(np.abs(np.linalg.eigvals(weights)))) if n > 1 else 0.0
    return weights, (target_alpha_rho / rho if rho > 0.0 else 0.0)


def random_externality(rng: np.random.Generator, n: int,
                       target_alpha_rho: float = 0.6,
                       g_high: float = 10.0) -> ExternalityGraph:
    """The graph of random_weights."""
    return ExternalityGraph(*random_weights(rng, n, target_alpha_rho, g_high))


def numpy_scalar_element_sweep(matrix, diag, target, x, lo, hi):
    """One projected Gauss-Seidel sweep on K x = target over [lo, hi], row
    by row on numpy scalars: the oracle every faster sweep is checked
    against."""
    x = x.copy()
    for i in range(x.size):
        step = (target[i] - matrix[i] @ x) / diag[i]
        x[i] = min(hi, max(lo, x[i] + step))
    return x


def drawn_weights(config, n: int, alpha: float = 0.0) -> np.ndarray:
    """The weights harness.generate_instance draws for n users at alpha under
    config, taken as it passes them to ExternalityGraph, which keeps no copy."""
    drawn = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "ExternalityGraph", lambda weights, alpha: drawn.append(weights))
        harness.generate_instance(config, n, alpha)
    return drawn[0]


def central_difference(f, x: float, step: float) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def richardson_difference(f, x: float, step: float = 2e-5) -> float:
    """Fourth-order central difference (Richardson-extrapolated).

    Needed where a third derivative is huge (the 1/(1 - hbar) cost pole):
    plain central differences there are truncation-limited well above the
    comparison tolerances.
    """
    coarse = central_difference(f, x, step)
    fine = central_difference(f, x, 0.5 * step)
    return (4.0 * fine - coarse) / 3.0


def fd_provider_gradient(profit_fn, prices: np.ndarray, hbar: float,
                         step: float = 2e-5) -> np.ndarray:
    """Finite-difference gradient of a provider profit in (prices, hbar).

    Plain central differences for the price coordinates (the profit is
    exactly quadratic there) and the Richardson stencil for hbar.
    """
    n = len(prices)
    out = np.empty(n + 1)
    for k in range(n):
        def along_price(v, k=k):
            p = prices.copy()
            p[k] = v
            return profit_fn(p, hbar)

        out[k] = central_difference(along_price, prices[k], step)
    out[n] = richardson_difference(lambda v: profit_fn(prices, v), hbar, step)
    return out


@st.composite
def edge_arrays(draw, bounds=()):
    """Float arrays for comparing a check with the form it replaced: empty,
    1-D or 2-D, of NaN, +-inf, +-0.0, each bound and its float neighbours,
    or plain values."""
    specials = [0.0, -0.0, math.nan, math.inf, -math.inf]
    for bound in bounds:
        specials += [bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
    shape = draw(st.sampled_from([(0,), (1,), (2,), (5,), (2, 3), (0, 2)]))
    values = draw(st.lists(st.sampled_from(specials) | st.floats(-3.0, 3.0),
                           min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values, dtype=float).reshape(shape)


def outcome(fn, *args):
    """("ok", fn's result) or (the exception's type, its message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the type is what the comparison checks
        return type(exc), str(exc)
