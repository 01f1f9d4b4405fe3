import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

import chainsure
from chainsure import demand
from chainsure.demand import (
    LCP_TOL,
    DemandProfile,
    ExternalityGraph,
    Segment,
    brute_force_lcp,
    closed_form_demand,
    gauss_seidel_state,
    gauss_seidel_sweep,
    lcp_demand,
    spectral_radius,
)
from chainsure.errors import ContractionViolation, ConvergenceError
from conftest import random_externality

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
ONE_NAN_IN_100 = np.ones((100, 100)) - np.eye(100)
ONE_NAN_IN_100[7, 3] = np.nan


def random_prices(rng, n):
    # wide enough to produce opt-out, interior, and saturated users
    return rng.uniform(0.05, 2.2, n)


class TestExternalityGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExternalityGraph(np.array([[1.0, 0.0], [0.0, 0.0]]), 0.1)  # diagonal
        with pytest.raises(ValueError):
            ExternalityGraph(np.array([[0.0, -1.0], [0.0, 0.0]]), 0.1)  # negative
        with pytest.raises(ValueError):
            ExternalityGraph(np.zeros((2, 3)), 0.1)  # not square
        with pytest.raises(ValueError):
            ExternalityGraph(SWAP, -0.1)

    @pytest.fixture
    def radius_calls(self, monkeypatch):
        """Counts the calls to demand.spectral_radius."""
        calls = []

        def counted(matrix):
            calls.append(matrix)
            return spectral_radius(matrix)

        monkeypatch.setattr(demand, "spectral_radius", counted)
        return calls

    @pytest.mark.parametrize("weights, alpha", [
        ([[0.0, np.nan], [1.0, 0.0]], 0.1),
        ([[0.0, np.inf], [1.0, 0.0]], 0.1),
        (ONE_NAN_IN_100, 1e-3),
        (SWAP, np.nan),
        (SWAP, np.inf),
    ], ids=["nan_weight", "inf_weight", "one_nan_in_100", "nan_alpha", "inf_alpha"])
    def test_non_finite_rejected_before_rho(self, radius_calls, weights, alpha):
        # power iteration on a NaN spins to its cap: it must not start
        with pytest.raises(ValueError, match="finite"):
            ExternalityGraph(np.array(weights), alpha)
        assert radius_calls == []

    def test_rho_computed_once(self, radius_calls):
        graph = ExternalityGraph(SWAP, 0.5)
        assert graph.alpha_rho == pytest.approx(0.5, abs=1e-9)
        assert graph.rho == pytest.approx(1.0, abs=1e-9)
        assert len(radius_calls) == 1

    @pytest.mark.parametrize("weights, alpha, alpha_rho", [
        (SWAP, 1.01, 1.01),
        (SWAP, 1.2, 1.2),
        (SWAP, 1.5, 1.5),
        ([[0.0, 2.0], [2.0, 0.0]], 0.6, 1.2),
    ], ids=["swap-1.01", "swap-1.2", "swap-1.5", "double_swap-0.6"])
    def test_contraction_violation(self, weights, alpha, alpha_rho):
        # no graph exists for a solver to reject: alpha * rho >= 1 fails construction
        with pytest.raises(ContractionViolation) as info:
            ExternalityGraph(np.array(weights), alpha)
        assert info.value.alpha_rho == pytest.approx(alpha_rho, abs=1e-9)

    def test_weights_read_only(self):
        graph = ExternalityGraph(SWAP, 0.1)
        with pytest.raises(ValueError):
            graph.weights[0, 1] = 5.0

    def test_solve_round_trip(self):
        rng = np.random.default_rng(3)
        graph = random_externality(rng, 6)
        rhs = rng.normal(size=6)
        x = graph.solve(rhs)
        np.testing.assert_allclose(graph.system_matrix @ x, rhs, atol=1e-12)
        xt = graph.solve(rhs, transpose=True)
        np.testing.assert_allclose(graph.system_matrix.T @ xt, rhs, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 30, 100])
    def test_solve_equals_scipy_lu_solve(self, n):
        rng = np.random.default_rng(n)
        graph = random_externality(rng, n)
        rhs = rng.normal(size=n)
        for trans in (0, 1):
            expected = lu_solve(lu_factor(graph.system_matrix), rhs, trans=trans)
            assert np.array_equal(graph.solve(rhs, transpose=bool(trans)), expected)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_solve_leaves_rhs(self, transpose):
        graph = random_externality(np.random.default_rng(6), 6)
        rhs = np.arange(1.0, 7.0)
        graph.solve(rhs, transpose=transpose)
        assert np.array_equal(rhs, np.arange(1.0, 7.0))

    def test_solve_rejects_non_finite_rhs(self):
        graph = ExternalityGraph(SWAP, 0.1)
        with pytest.raises(ValueError, match="infs or NaNs"):
            graph.solve(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="infs or NaNs"):
            graph.solve(np.array([np.inf, 1.0]), transpose=True)


class TestBoundRoutines:
    """demand binds scipy's compiled BLAS/LAPACK wrappers without scipy.linalg.

    scipy.linalg, imported here, is the oracle: every result must be
    bit-equal to the same call through its public modules.
    """

    def test_import_skips_scipy_linalg(self):
        src = str(Path(chainsure.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = ("import sys, chainsure.cli; "
                 "print('scipy.linalg' in sys.modules, 'numpy.random' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["False", "True"]

    def test_missing_module_names_its_directory(self):
        with pytest.raises(ImportError, match="no compiled module _absent in .*linalg"):
            demand._scipy_linalg_extension("_absent")

    @pytest.mark.parametrize("n", [1, 30, 100])
    def test_lu_factor_and_solve_equal_scipy(self, n):
        graph = random_externality(np.random.default_rng(n), n)
        a = graph.system_matrix
        factors = demand.lu_factor(a)
        expected = lu_factor(a)
        assert all(np.array_equal(mine, theirs) for mine, theirs in zip(factors, expected))
        rhs = np.random.default_rng(n + 1).normal(size=n)
        for trans in (0, 1):
            assert np.array_equal(demand.lu_solve(factors, rhs.copy(), trans=trans),
                                  lu_solve(expected, rhs, trans=trans))
        identity = np.eye(n, order="F")
        inverse = demand.lu_solve(factors, identity)
        assert inverse is identity  # solved in place, as symmetric_influence asks
        assert np.array_equal(inverse, lu_solve(expected, np.eye(n)))

    def test_lu_solve_leaves_read_only_rhs(self):
        graph = random_externality(np.random.default_rng(4), 6)
        factors = demand.lu_factor(graph.system_matrix)
        for rhs in (np.arange(1.0, 7.0), np.asfortranarray(np.eye(6))):
            before = rhs.copy()
            rhs.setflags(write=False)
            x = demand.lu_solve(factors, rhs)
            assert np.array_equal(rhs, before)
            assert np.array_equal(x, lu_solve(lu_factor(graph.system_matrix), before))

    def test_lu_factor_leaves_input(self):
        graph = random_externality(np.random.default_rng(5), 20)
        before = graph.system_matrix.copy()
        fortran = np.asfortranarray(before)  # getrf's own layout: no conversion copy
        demand.lu_factor(graph.system_matrix)
        demand.lu_factor(fortran)
        assert np.array_equal(graph.system_matrix, before)
        assert np.array_equal(fortran, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_as_by_scipy(self, bad):
        a = np.eye(3)
        a[1, 2] = bad
        with pytest.raises(ValueError) as expected:
            lu_factor(a)
        with pytest.raises(ValueError, match="infs or NaNs") as raised:
            demand.lu_factor(a)
        assert str(raised.value) == str(expected.value)
        factors = demand.lu_factor(np.eye(3))
        with pytest.raises(ValueError, match="infs or NaNs"):
            demand.lu_solve(factors, np.array([1.0, bad, 0.0]))

    def test_exactly_singular_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="diagonal number 2"):
            demand.lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_shared_with_scipy_linalg(self):
        # whichever is imported first, the other reuses its compiled modules
        assert demand.dtrmv is scipy.linalg.blas.dtrmv
        assert demand.dtrsv is scipy.linalg.blas.dtrsv
        assert demand.dgetrf is scipy.linalg.lapack.dgetrf
        assert demand.dgetrs is scipy.linalg.lapack.dgetrs


class TestSpectralRadius:
    def test_swap_matrix(self):
        assert spectral_radius(SWAP) == pytest.approx(1.0, abs=1e-9)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((4, 4))) == 0.0

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5, 10, 40):
            w = rng.uniform(0.0, 10.0, (n, n))
            np.fill_diagonal(w, 0.0)
            exact = float(np.max(np.abs(np.linalg.eigvals(w))))
            assert spectral_radius(w) == pytest.approx(exact, rel=1e-8)

    def test_bipartite_tie(self):
        # +/-rho eigenvalue pairs must not stall the iteration
        w = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 3.0], [1.5, 0.0, 0.0]])
        exact = float(np.max(np.abs(np.linalg.eigvals(w))))
        assert spectral_radius(w) == pytest.approx(exact, rel=1e-8)

    def test_iteration_cap_raises(self, monkeypatch):
        # two steps leave the estimate moving by far more than the tolerance
        monkeypatch.setattr(demand, "POWER_ITER_CAP", 2)
        w = np.random.default_rng(8).uniform(0.0, 10.0, (6, 6))
        np.fill_diagonal(w, 0.0)
        with pytest.raises(ConvergenceError, match="within 2 iterations") as info:
            spectral_radius(w)
        assert info.value.residual > demand.POWER_ITER_TOL


class TestCheckContraction:
    def test_swap_examples(self):
        assert ExternalityGraph(SWAP, 0.5).alpha_rho == pytest.approx(0.5, abs=1e-9)
        assert ExternalityGraph(SWAP, 0.99).alpha_rho == pytest.approx(0.99, abs=1e-9)

    def test_paper_scale_instance(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0.0, 10.0, (100, 100))
        np.fill_diagonal(w, 0.0)
        graph = ExternalityGraph(w, 7e-4)
        exact = 7e-4 * float(np.max(np.abs(np.linalg.eigvals(w))))
        assert graph.alpha_rho == pytest.approx(exact, rel=1e-8)


class TestClosedFormDemand:
    def test_decoupled(self):
        graph = ExternalityGraph(np.zeros((4, 4)), 0.0)
        prof = closed_form_demand(graph, 0.5, np.full(4, 0.9))
        np.testing.assert_allclose(prof.x, 0.6, atol=1e-14)
        assert np.all(prof.partition == Segment.INTERIOR)

    def test_two_user_hand_solve(self):
        graph = ExternalityGraph(SWAP, 0.1)
        prof = closed_form_demand(graph, 0.5, np.array([0.9, 0.9]))
        np.testing.assert_allclose(prof.x, 2.0 / 3.0, atol=1e-12)

    def test_reports_out_of_box(self):
        graph = ExternalityGraph(np.zeros((2, 2)), 0.0)
        prof = closed_form_demand(graph, 0.5, np.array([0.1, 2.5]))
        assert prof.out_of_box()
        assert prof.x[0] > 1.0 and prof.x[1] < 0.0
        assert np.all(prof.partition == Segment.INTERIOR)

    def test_matches_lcp_when_interior(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            graph = random_externality(rng, n, target_alpha_rho=rng.uniform(0.0, 0.8))
            hbar = rng.uniform(0.5, 0.99)
            # prices keeping every user strictly interior at alpha = 0 already
            p = rng.uniform(hbar + 0.05, hbar + 0.95, n)
            closed = closed_form_demand(graph, hbar, p)
            if closed.out_of_box(1e-12):
                continue
            clamped = lcp_demand(graph, hbar, p)
            np.testing.assert_allclose(closed.x, clamped.x, atol=1e-10)
            assert np.all(clamped.partition == Segment.INTERIOR)


# the row-by-row sweep, kept unpatched as the reference
row_by_row = demand._element_sweep


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the row-by-row sweeps gauss_seidel_sweep falls back to."""
    calls = []

    def counted(*args):
        calls.append(args)
        return row_by_row(*args)

    monkeypatch.setattr(demand, "_element_sweep", counted)
    return calls


# K = Q, symmetric with a non-unit diagonal, and K = I - alpha G with a
# nonsymmetric G. Each case runs one sweep over the box [0, 1] from x and
# names the branch it takes.
SYMMETRIC = np.array([[2.0, 0.5], [0.5, 1.0]])
NONSYMMETRIC = np.eye(2) - ExternalityGraph(np.array([[0.0, 0.2], [0.5, 0.0]]), 1.0).weights
SWEEP_CASES = {
    # every row's update stays inside the box: one forward substitution
    "q_free": (SYMMETRIC, [0.8, 0.5], [0.2, 0.3], 0),
    # row 0's Jacobi update is past the cap, so it is held there
    "q_clamped": (SYMMETRIC, [3.0, 0.8], [0.0, 0.5], 0),
    # both Jacobi updates lie inside, but row 1's Gauss-Seidel update,
    # which sees row 0's new value, falls below the floor
    "q_fallback": (SYMMETRIC, [1.3, 0.2], [0.0, 0.5], 1),
    "a_free": (NONSYMMETRIC, [0.3, 0.3], [0.2, 0.3], 0),
    "a_clamped": (NONSYMMETRIC, [2.0, 0.2], [0.0, 0.5], 0),
    # row 1's Gauss-Seidel update rises past the cap
    "a_fallback": (NONSYMMETRIC, [0.65, 0.8], [0.0, 0.5], 1),
}


def assert_sweep_state(matrix, target, x, upper, residual):
    np.testing.assert_allclose(upper, np.triu(matrix, 1) @ x,
                               rtol=0.0, atol=1e-12 * max(1.0, np.abs(target).max()))
    np.testing.assert_allclose(residual, target - matrix @ x,
                               rtol=0.0, atol=1e-12 * max(1.0, np.abs(target).max()))


class TestGaussSeidelSweep:
    """The shared sweep kernel against the row-by-row sweep and t - K x."""

    @pytest.mark.parametrize("case", SWEEP_CASES)
    def test_branches(self, case, fallbacks):
        matrix, target, x, expected_fallbacks = SWEEP_CASES[case]
        target, x = np.array(target), np.array(x)
        diag = np.diagonal(matrix).copy()
        upper, residual = gauss_seidel_state(matrix, target, x)
        assert_sweep_state(matrix, target, x, upper, residual)
        new, upper, residual = gauss_seidel_sweep(matrix, diag, target, x, upper, residual, 0.0, 1.0)
        assert len(fallbacks) == expected_fallbacks
        expected = row_by_row(matrix, diag, target, x, 0.0, 1.0)
        np.testing.assert_allclose(new, expected, rtol=0.0, atol=1e-14)
        assert_sweep_state(matrix, target, new, upper, residual)
        if case.endswith("clamped"):
            assert new[0] == 1.0 and 0.0 < new[1] < 1.0

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_trajectory(self, symmetric, fallbacks):
        # the unconstrained solution leaves the box on both sides, so the
        # sweeps clamp rows at both bounds
        rng = np.random.default_rng(41 if symmetric else 42)
        graph = random_externality(rng, 30, target_alpha_rho=0.8)
        matrix = graph.symmetric_influence if symmetric else graph.system_matrix
        diag = np.diagonal(matrix)
        target = matrix @ rng.uniform(-0.2, 1.2, 30)
        lo, hi = 0.1, 0.9
        x = rng.uniform(lo, hi, 30)
        upper, residual = gauss_seidel_state(matrix, target, x)
        for _ in range(40):
            expected = row_by_row(matrix, diag, target, x, lo, hi)
            x, upper, residual = gauss_seidel_sweep(matrix, diag, target, x, upper, residual, lo, hi)
            np.testing.assert_allclose(x, expected, rtol=0.0, atol=1e-13)
            assert_sweep_state(matrix, target, x, upper, residual)
        assert np.any(x == lo) and np.any(x == hi)
        assert 0 < len(fallbacks) < 20


class TestLcpDemand:
    def test_matches_brute_force_through_fallback(self, fallbacks):
        rng = np.random.default_rng(2)
        n = int(rng.integers(2, 9))
        graph = random_externality(rng, n, target_alpha_rho=0.9)
        p = rng.uniform(0.05, 2.2, n)
        solved = lcp_demand(graph, 0.8, p)
        assert fallbacks
        reference = brute_force_lcp(graph, 0.8, p)
        np.testing.assert_allclose(solved.x, reference.x, atol=1e-9)
        assert np.array_equal(solved.partition, reference.partition)

    def test_decoupled_opt_out(self):
        graph = ExternalityGraph(np.zeros((3, 3)), 0.0)
        prof = lcp_demand(graph, 0.5, np.full(3, 2.0))
        np.testing.assert_allclose(prof.x, 0.0, atol=1e-12)
        assert np.all(prof.partition == Segment.OPT_OUT)

    def test_decoupled_saturated(self):
        graph = ExternalityGraph(np.zeros((3, 3)), 0.0)
        prof = lcp_demand(graph, 0.5, np.full(3, 0.1))
        np.testing.assert_allclose(prof.x, 1.0, atol=1e-12)
        assert np.all(prof.partition == Segment.SATURATED)

    def test_fixed_point_property(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            graph = random_externality(rng, n, target_alpha_rho=rng.uniform(0.0, 0.9))
            hbar = rng.uniform(0.5, 0.999)
            p = random_prices(rng, n)
            prof = lcp_demand(graph, hbar, p)
            image = np.clip(
                (1.0 + hbar) - p + graph.alpha * (graph.weights @ prof.x), 0.0, 1.0
            )
            assert float(np.max(np.abs(prof.x - image))) < 1e-9
            r = (1.0 + hbar) - p - graph.system_matrix @ prof.x
            labels = np.where(r < -LCP_TOL, Segment.OPT_OUT,
                              np.where(r > LCP_TOL, Segment.SATURATED, Segment.INTERIOR))
            assert np.array_equal(prof.partition, labels)

    def test_monotone_in_externality_strength(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            base = random_externality(rng, n, target_alpha_rho=0.85)
            hbar = rng.uniform(0.5, 0.99)
            p = random_prices(rng, n)
            previous = None
            for factor in (0.0, 0.25, 0.5, 0.75, 1.0):
                graph = ExternalityGraph(base.weights, base.alpha * factor)
                x = lcp_demand(graph, hbar, p).x
                if previous is not None:
                    assert np.all(x >= previous - 1e-9)
                previous = x

    def test_iteration_cap_raises(self, monkeypatch):
        # a cap below the user count still allows one sweep, which cannot
        # reach the interior solution x = 0.3 (I - alpha G)^{-1} 1
        monkeypatch.setattr(demand, "LCP_ITER_CAP", 1)
        graph = random_externality(np.random.default_rng(41), 6, target_alpha_rho=0.5)
        with pytest.raises(ConvergenceError, match="iteration cap") as info:
            lcp_demand(graph, 0.5, np.full(6, 1.2))
        assert info.value.residual > demand.LCP_TOL
        assert info.value.last_iterate.shape == (6,)


class TestBruteForce:
    def test_single_user_clamp(self):
        graph = ExternalityGraph(np.zeros((1, 1)), 0.0)
        for price, expected in [(0.2, 1.0), (0.9, 0.6), (2.0, 0.0)]:
            prof = brute_force_lcp(graph, 0.5, np.array([price]))
            assert prof.x[0] == pytest.approx(expected, abs=1e-12)

    def test_two_user_decoupled_product(self):
        graph = ExternalityGraph(np.zeros((2, 2)), 0.0)
        prof = brute_force_lcp(graph, 0.5, np.array([0.1, 2.0]))
        np.testing.assert_allclose(prof.x, [1.0, 0.0], atol=1e-12)
        assert prof.partition[0] == Segment.SATURATED
        assert prof.partition[1] == Segment.OPT_OUT

    def test_size_guard(self):
        graph = ExternalityGraph(np.zeros((13, 13)), 0.0)
        with pytest.raises(ValueError):
            brute_force_lcp(graph, 0.5, np.full(13, 0.5))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_unique_and_matches_gauss_seidel(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        graph = random_externality(rng, n, target_alpha_rho=rng.uniform(0.0, 0.9))
        hbar = rng.uniform(0.5, 0.999)
        p = random_prices(rng, n)
        reference = brute_force_lcp(graph, hbar, p)  # raises if not unique
        solved = lcp_demand(graph, hbar, p)
        np.testing.assert_allclose(solved.x, reference.x, atol=1e-9)
        assert np.array_equal(solved.partition, reference.partition)


SOLVERS = [closed_form_demand, lcp_demand, brute_force_lcp]


class TestFollowerInputs:
    """What all three follower solvers share: the checked right-hand side
    (1 + hbar) 1 - p and read-only profiles."""

    GRAPH = ExternalityGraph(0.1 * (np.ones((3, 3)) - np.eye(3)), 1.0)
    PRICES = np.array([0.3, 1.2, 2.0])

    # numpy warnings are errors here, so the ValueError must come first;
    # inf - inf and 1e308 + 1e308 warn while b is formed
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("hbar, prices", [
        (np.nan, PRICES),
        (np.inf, PRICES),
        (-np.inf, PRICES),
        (0.5, np.array([0.3, np.nan, 2.0])),
        (0.5, np.array([0.3, 1.2])),
        (0.5, PRICES[:, None]),
        (np.inf, np.array([np.inf, 1.0, 1.0])),
        (1e308, np.array([-1e308, 1.0, 1.0])),
    ], ids=["nan_hbar", "inf_hbar", "minus_inf_hbar", "nan_price", "short_prices",
            "column_prices", "inf_minus_inf", "overflow"])
    def test_bad_input_raises_value_error(self, solver, hbar, prices):
        with pytest.raises(ValueError, match="price vector has shape|not finite"):
            solver(self.GRAPH, hbar, prices)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_profile_is_read_only(self, solver):
        prof = solver(self.GRAPH, 0.5, self.PRICES)
        assert not prof.x.flags.writeable
        assert not prof.partition.flags.writeable

    def test_profile_copies_callers_arrays(self):
        x = np.array([0.0, 0.5, 1.0])
        partition = np.array([0, 1, 2], dtype=np.int8)
        prof = DemandProfile(x, partition)
        assert x.flags.writeable and partition.flags.writeable
        x[0], partition[0] = 9.0, 2
        assert prof.x[0] == 0.0 and prof.partition[0] == Segment.OPT_OUT
