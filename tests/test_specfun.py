import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsure.errors import ConvergenceError
from chainsure.risk import GRID_INTERVALS, _NODES, _WIDTH, survival_grid
from chainsure.oracles import adaptive_simpson
from chainsure.specfun import (
    _ERFC_FROM,
    _beta_contfrac,
    _log_gamma_ratio,
    reg_inc_beta,
)
from conftest import beta_closed_form, beta_quadrature


def abs_test_reg_inc_beta(w, u, v):
    """Reference: the incomplete Beta written with abs() tests, as it was
    before the chained comparisons."""
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

    ln_front = (math.lgamma(u + v) - math.lgamma(u) - math.lgamma(v)
                + u * math.log(w) + v * math.log1p(-w))
    front = math.exp(ln_front)
    if w < (u + 1.0) / (u + v + 2.0):
        return front * contfrac(u, v, w) / u
    return 1.0 - front * contfrac(v, u, 1.0 - w) / v


def unrolled_beta_contfrac(u, v, w, clamped):
    """_beta_contfrac as it was written before its Lentz step became a
    loop: the even and the odd update spelled out. Adds to clamped the name
    of each 1e-300 clamp that fires."""
    qab = u + v
    qap = u + 1.0
    qam = u - 1.0
    c = 1.0
    d = 1.0 - qab * w / qap
    if -1e-300 < d < 1e-300:
        d = 1e-300
        clamped.add("first d")
    d = 1.0 / d
    h = d
    for m in range(1, 501):
        m2 = 2 * m
        aa = m * (v - m) * w / ((qam + m2) * (u + m2))
        d = 1.0 + aa * d
        if -1e-300 < d < 1e-300:
            d = 1e-300
            clamped.add("even d")
        c = 1.0 + aa / c
        if -1e-300 < c < 1e-300:
            c = 1e-300
            clamped.add("even c")
        d = 1.0 / d
        h *= d * c
        aa = -(u + m) * (qab + m) * w / ((u + m2) * (qap + m2))
        d = 1.0 + aa * d
        if -1e-300 < d < 1e-300:
            d = 1e-300
            clamped.add("odd d")
        c = 1.0 + aa / c
        if -1e-300 < c < 1e-300:
            c = 1e-300
            clamped.add("odd c")
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -1e-15 < delta - 1.0 < 1e-15:
            return h
    raise ConvergenceError("no convergence")


def contfrac_outcome(fn, *args):
    try:
        return fn(*args)
    except ConvergenceError:
        return "no convergence"


class TestLentzLoopEqualsFrozenForm:
    """_beta_contfrac's one Lentz step, looped over the even and the odd
    partial numerator, gives the unrolled form's bits."""

    def test_on_a_grid(self):
        # quarter-integer parameters make 1 - qab w / qap and the Lentz
        # updates exactly 0 at some points, so the clamps fire; w runs on
        # both sides of reg_inc_beta's switch w = (u + 1) / (u + v + 2)
        params = [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0,
                  10.0, 12.0, 15.0, 20.0, 37.3, 1e3]
        ws = [1e-12, 0.0625, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 0.9375]
        clamped, branches = set(), set()
        for u, v, w in itertools.product(params, params, ws):
            branches.add(w < (u + 1.0) / (u + v + 2.0))
            assert (contfrac_outcome(_beta_contfrac, u, v, w)
                    == contfrac_outcome(unrolled_beta_contfrac, u, v, w, clamped))
        assert branches == {True, False}
        assert clamped == {"first d", "even d", "odd d", "odd c"}

    def test_on_random_cases_through_reg_inc_beta(self):
        rng = np.random.default_rng(28)
        cases = rng.uniform((0.0, 0.05, 0.05), (1.0, 200.0, 200.0), (5000, 3)).tolist()
        branches = set()
        for w, u, v in cases:
            # the branch reg_inc_beta takes, with its arguments
            below = w < (u + 1.0) / (u + v + 2.0)
            branches.add(below)
            args = (u, v, w) if below else (v, u, 1.0 - w)
            assert _beta_contfrac(*args) == unrolled_beta_contfrac(*args, set())
        assert branches == {True, False}


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

    def test_against_mpmath(self):
        # arbitrary precision: random parameters, and the attack curve's
        # I_{4(1-h)h}(b h, 1/2) over h in (1/2, 1) for several b
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(13)
        cases = [tuple(rng.uniform((0.0, 0.2, 0.2), (1.0, 40.0, 40.0))) for _ in range(100)]
        for b in (0.1, 10.0, 1e3):
            cases += [(4.0 * (1.0 - h) * h, b * h, 0.5) for h in np.linspace(0.5, 1.0, 21)[1:-1]]
        for w, u, v in cases:
            exact = float(mpmath.betainc(u, v, 0, w, regularized=True))
            assert math.isclose(reg_inc_beta(float(w), float(u), float(v)), exact, abs_tol=1e-12)

    @pytest.mark.parametrize("u", [1e12, 1e15, 1e16, 1e17])
    def test_large_u_prefactor_against_mpmath(self, u):
        # lgamma(u + v) and lgamma(u) are each near u log u, whose float
        # spacing nears 1 at u = 1e15, so their difference cancels; the
        # Stirling difference keeps every digit
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for v in (0.5, 3.0):
                exact = float(mpmath.loggamma(mpmath.mpf(u) + v) - mpmath.loggamma(u))
                assert math.isclose(_log_gamma_ratio(u, v), exact, rel_tol=4e-16)
            # from the symmetry switch up, the result is the prefactor times a
            # continued fraction in 1 - w; at u = 1e17 no float w < 1 is that high
            switch = (u + 1.0) / (u + 2.5)
            ws = sorted({w for w in (switch, 1.0 - 1.25 / u, 1.0 - 0.5 / u, 1.0 - 0.25 / u)
                         if switch <= w < 1.0})
            assert len(ws) >= (2 if u < 1e16 else 1 if u < 1e17 else 0)
            for w in ws:
                exact = float(mpmath.betainc(u, 0.5, 0, w, regularized=True))
                assert math.isclose(reg_inc_beta(w, u, 0.5), exact, rel_tol=1e-12)

    @pytest.mark.parametrize("u", [1e7, 3e7, 1e8, 1e10, 1e12, 1e15, 1e16])
    def test_large_u_below_switch_against_mpmath(self, u):
        # v = 1/2 below the symmetry switch, where the continued fraction
        # cancels: just below the switch, at 1 - w = 10/u and 30/u, and in
        # the tail down to y = (u - 1/4)(-ln w) = 700, whose value is still
        # a normal float
        mpmath = pytest.importorskip("mpmath")
        switch = (u + 1.0) / (u + 2.5)
        ws = [math.nextafter(switch, 0.0), 1.0 - 10.0 / u, 1.0 - 30.0 / u]
        ws += [math.exp(-y / (u - 0.25)) for y in (100.0, 300.0, 600.0, 700.0)]
        for w in ws:
            assert w < switch
            # the complement form converges at every u; about y / ln 10
            # digits cancel in 1 - I_{1-w}(1/2, u), so 50 more are carried
            with mpmath.workdps(50 + int(u * -math.log(w) / math.log(10.0))):
                exact = 1 - mpmath.betainc(0.5, u, 0, 1 - mpmath.mpf(w), regularized=True)
            assert exact > np.finfo(float).tiny
            assert math.isclose(reg_inc_beta(w, u, 0.5), float(exact), rel_tol=1e-12)

    def test_continued_fraction_error_below_erfc_from(self):
        # below _ERFC_FROM the continued fraction stays, with the error the
        # docstring states just below the switch
        mpmath = pytest.importorskip("mpmath")
        for u in (1e6, math.nextafter(_ERFC_FROM, 0.0)):
            w = math.nextafter((u + 1.0) / (u + 2.5), 0.0)
            with mpmath.workdps(50):
                exact = 1 - mpmath.betainc(0.5, u, 0, 1 - mpmath.mpf(w), regularized=True)
            assert math.isclose(reg_inc_beta(w, u, 0.5), float(exact), rel_tol=1e-16 * u)

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
        # u and v both large near the mean: a prefactor of order sqrt(u)
        # and more partial numerators than the iteration cap
        with pytest.raises(ConvergenceError):
            abs_test_reg_inc_beta(0.25, 1e6, 3e6)
        with pytest.raises(ConvergenceError, match="failed to converge"):
            reg_inc_beta(0.25, 1e6, 3e6)

    @pytest.mark.parametrize("u", [1e160, 1e200, 7.5e299])
    def test_underflowed_prefactor_gives_the_endpoint(self, u):
        # w^u underflows to 0, and the continued fraction, which does not
        # converge there, is skipped: 0 below the switch, 1 in the complement
        mpmath = pytest.importorskip("mpmath")
        exact = mpmath.betainc(u, 0.5, 0, 0.36, regularized=True)
        assert 0 < exact < 1e-300
        assert reg_inc_beta(0.36, u, 0.5) == 0.0
        assert reg_inc_beta(0.64, 0.5, u) == 1.0
        assert reg_inc_beta(0.75, u, 0.5) == 0.0

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
    """The package's two integrators: the midpoint grid behind every premium
    integral (risk.survival_grid) and the adaptive Simpson oracle."""

    def test_midpoint_constant(self):
        # the inner integral of a constant is exact on the grid
        survival = survival_grid(np.full(GRID_INTERVALS, 0.8))
        nodes = np.array(_NODES)
        np.testing.assert_allclose(survival, 1.0 - 0.8 * (nodes - 0.5), rtol=0.0, atol=1e-14)

    def test_midpoint_exact_for_linear(self):
        # B(t) = 1 - 0.8 (t - 1/2) is linear, so the outer sum is its exact integral
        survival = survival_grid(np.full(GRID_INTERVALS, 0.8))
        assert math.isclose(float(np.sum(survival) * _WIDTH), 0.5 - 0.8 / 8, abs_tol=1e-14)

    def test_adaptive_against_antiderivative(self):
        assert math.isclose(adaptive_simpson(lambda t: t * t, 0.0, 1.0, 1e-10), 1.0 / 3.0,
                            abs_tol=1e-10)
        value = adaptive_simpson(math.sin, 0.0, 2.0, 1e-10)
        assert math.isclose(value, 1.0 - math.cos(2.0), abs_tol=1e-10)

    def test_empty_interval(self):
        assert adaptive_simpson(lambda t: t, 2.0, 2.0, 1e-10) == 0.0

    def test_bounds_order(self):
        with pytest.raises(ValueError):
            adaptive_simpson(lambda t: t, 1.0, 0.0, 1e-10)

    def test_midpoint_reproducible(self):
        values = [math.exp(-t) * math.sin(3 * t) for t in _NODES]
        first = survival_grid(values)
        for _ in range(5):
            again = survival_grid(values)
            assert np.array_equal(first, again)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            adaptive_simpson(lambda t: t, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            adaptive_simpson(lambda t: t, 0.0, 1.0, math.nan)
