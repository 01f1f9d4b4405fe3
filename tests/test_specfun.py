import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsure.errors import ConvergenceError
from chainsure.specfun import QuadratureSpec, Scheme, integrate, log_gamma, reg_inc_beta
from conftest import beta_closed_form, beta_quadrature


def abs_test_reg_inc_beta(w, u, v):
    """Reference: the incomplete Beta written with abs() tests and the
    checked log_gamma, as it was before the chained comparisons."""
    if not (u > 0 and v > 0):
        raise ValueError("u, v > 0")
    if not 0.0 <= w <= 1.0:
        raise ValueError("0 <= w <= 1")
    if w == 0.0:
        return 0.0
    if w == 1.0:
        return 1.0

    def contfrac(u, v, w):
        qab, qap, qam = u + v, u + 1.0, u - 1.0
        c = 1.0
        d = 1.0 - qab * w / qap
        if abs(d) < 1e-300:
            d = 1e-300
        d = 1.0 / d
        h = d
        for m in range(1, 501):
            m2 = 2 * m
            aa = m * (v - m) * w / ((qam + m2) * (u + m2))
            d = 1.0 + aa * d
            if abs(d) < 1e-300:
                d = 1e-300
            c = 1.0 + aa / c
            if abs(c) < 1e-300:
                c = 1e-300
            d = 1.0 / d
            h *= d * c
            aa = -(u + m) * (qab + m) * w / ((u + m2) * (qap + m2))
            d = 1.0 + aa * d
            if abs(d) < 1e-300:
                d = 1e-300
            c = 1.0 + aa / c
            if abs(c) < 1e-300:
                c = 1e-300
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < 1e-15:
                return h
        raise ConvergenceError("no convergence")

    ln_front = (log_gamma(u + v) - log_gamma(u) - log_gamma(v)
                + u * math.log(w) + v * math.log1p(-w))
    front = math.exp(ln_front)
    if w < (u + 1.0) / (u + v + 2.0):
        return front * contfrac(u, v, w) / u
    return 1.0 - front * contfrac(v, u, 1.0 - w) / v


class TestLogGamma:
    def test_known_points(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        # factorial oracle: Gamma(5) = 4!
        assert math.isclose(log_gamma(5.0), math.log(24.0), rel_tol=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-3.2)

    def test_against_mpmath_grid(self):
        mpmath = pytest.importorskip("mpmath")
        for x in np.linspace(0.5, 200.0, 400):
            exact = float(mpmath.loggamma(mpmath.mpf(float(x))).real)
            assert np.isclose(log_gamma(float(x)), exact, rtol=1e-12, atol=1e-13)


class TestRegIncBeta:
    def test_endpoints_exact(self):
        assert reg_inc_beta(0.0, 3.7, 0.5) == 0.0
        assert reg_inc_beta(1.0, 3.7, 0.5) == 1.0

    def test_uniform_density(self):
        assert math.isclose(reg_inc_beta(0.5, 1.0, 1.0), 0.5, abs_tol=1e-14)

    def test_integer_closed_form(self):
        # I_w(2, 2) = 3w^2 - 2w^3
        w = 0.25
        assert math.isclose(reg_inc_beta(w, 2.0, 2.0), 3 * w**2 - 2 * w**3, abs_tol=1e-14)
        assert math.isclose(reg_inc_beta(w, 2.0, 2.0), 0.15625, abs_tol=1e-12)

    @given(
        w=st.floats(0.01, 0.99),
        u=st.integers(1, 6),
        v=st.integers(1, 5),
    )
    @settings(max_examples=60)
    def test_matches_binomial_tail(self, w, u, v):
        assert math.isclose(
            reg_inc_beta(w, float(u), float(v)), beta_closed_form(w, u, v), abs_tol=1e-12
        )

    @given(
        w=st.floats(1e-6, 1.0 - 1e-6),
        u=st.floats(0.3, 30.0),
        v=st.floats(0.3, 30.0),
    )
    @settings(max_examples=100)
    def test_symmetry_identity(self, w, u, v):
        total = reg_inc_beta(w, u, v) + reg_inc_beta(1.0 - w, v, u)
        assert math.isclose(total, 1.0, abs_tol=1e-10)

    def test_monotone_in_w(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = rng.uniform(0.4, 25.0)
            v = rng.uniform(0.4, 25.0)
            grid = np.linspace(0.0, 1.0, 100)
            values = [reg_inc_beta(float(w), u, v) for w in grid]
            diffs = np.diff(values)
            assert np.all(diffs >= -1e-12)

    def test_against_quadrature_oracle(self):
        # away from the singular endpoint the raw integrand can be integrated
        for w, u, v in [(0.75, 7.5, 0.5), (0.4, 3.3, 2.1), (0.9, 1.7, 4.0)]:
            assert math.isclose(
                reg_inc_beta(w, u, v), beta_quadrature(w, u, v), abs_tol=1e-9
            )

    def test_against_scipy(self):
        from scipy.special import betainc

        rng = np.random.default_rng(11)
        for _ in range(200):
            w = rng.uniform(0.0, 1.0)
            u = rng.uniform(0.2, 40.0)
            v = rng.uniform(0.2, 40.0)
            assert math.isclose(
                reg_inc_beta(w, u, v), float(betainc(u, v, w)), abs_tol=1e-10
            )

    def test_bit_identical_to_abs_tests(self):
        # both sides of the symmetry switch w = (u + 1) / (u + v + 2), the
        # exact endpoints, and the attack curve's v = 1/2
        branches = set()
        for w in [0.0, 1e-12, 0.05, 0.3, 0.5, 0.75, 0.96, 1.0 - 1e-12, 1.0]:
            for u in [0.1, 0.5, 1.0, 3.7, 7.5, 37.3, 1e3, 1e5]:
                for v in [0.2, 0.5, 2.0, 11.0]:
                    branches.add(w < (u + 1.0) / (u + v + 2.0))
                    assert reg_inc_beta(w, u, v) == abs_test_reg_inc_beta(w, u, v)
        assert branches == {True, False}

    def test_nonconvergence_still_raises(self):
        with pytest.raises(ConvergenceError):
            abs_test_reg_inc_beta(0.75, 7.5e299, 0.5)
        with pytest.raises(ConvergenceError, match="failed to converge"):
            reg_inc_beta(0.75, 7.5e299, 0.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_inc_beta(-0.1, 2.0, 2.0)
        with pytest.raises(ValueError):
            reg_inc_beta(1.1, 2.0, 2.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0.0, 2.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 2.0, -1.0)


class TestIntegrate:
    def test_midpoint_constant(self):
        spec = QuadratureSpec.midpoint(100)
        assert math.isclose(integrate(lambda t: 1.0, 0.0, 1.0, spec), 1.0, abs_tol=1e-14)

    def test_midpoint_exact_for_linear(self):
        spec = QuadratureSpec.midpoint(100)
        assert math.isclose(integrate(lambda t: t, 0.0, 1.0, spec), 0.5, abs_tol=1e-14)

    def test_adaptive_against_antiderivative(self):
        spec = QuadratureSpec.adaptive(1e-10)
        assert math.isclose(integrate(lambda t: t * t, 0.0, 1.0, spec), 1.0 / 3.0, abs_tol=1e-10)
        value = integrate(math.sin, 0.0, 2.0, spec)
        assert math.isclose(value, 1.0 - math.cos(2.0), abs_tol=1e-10)

    def test_empty_interval(self):
        assert integrate(lambda t: t, 2.0, 2.0, QuadratureSpec.midpoint(10)) == 0.0

    def test_bounds_order(self):
        with pytest.raises(ValueError):
            integrate(lambda t: t, 1.0, 0.0, QuadratureSpec.midpoint(10))

    def test_midpoint_reproducible(self):
        spec = QuadratureSpec.midpoint(37)
        f = lambda t: math.exp(-t) * math.sin(3 * t)
        first = integrate(f, 0.2, 1.7, spec)
        assert all(integrate(f, 0.2, 1.7, spec) == first for _ in range(5))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(Scheme.RECTANGULAR_MIDPOINT, intervals=0)
        with pytest.raises(ValueError):
            QuadratureSpec(Scheme.ADAPTIVE, tolerance=0.0)
