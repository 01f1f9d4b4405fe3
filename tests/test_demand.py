import math
import os
import subprocess
import sys
import time
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

import chainsure
from chainsure import demand
from chainsure.demand import (
    INFLUENCE_TILE,
    LCP_TOL,
    SWEEP_BLOCK,
    DemandProfile,
    ExternalityGraph,
    GaussSeidel,
    Segment,
    closed_form_demand,
    lcp_demand,
    spectral_radius,
)
from chainsure.equilibrium import solve_stackelberg
from chainsure.errors import ConfigurationError, ContractionViolation, ConvergenceError
from chainsure.market import PRICE_FLOOR, MarketParams, ProviderStrategy
from chainsure.oracles import brute_force_lcp
from chainsure.risk import RiskModel
from conftest import (
    edge_arrays,
    numpy_scalar_element_sweep,
    outcome,
    random_externality,
    random_weights,
)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
CHAIN_4 = np.triu(np.ones((4, 4)), 1)  # user i influenced by every later user: acyclic
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
        with pytest.raises(ValueError, match="nonempty"):
            ExternalityGraph(np.zeros((0, 0)), 0.1)
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

    def test_acyclic_chain(self):
        # rho = 0 exactly: power iteration converges only algebraically here
        start = time.perf_counter()
        graph = ExternalityGraph(CHAIN_4, 0.5)
        assert time.perf_counter() - start < 0.01
        assert graph.alpha_rho == 0.0

    def test_exactly_singular_boundary_raises(self):
        # alpha * rho = 1 exactly: A = I - SWAP has a zero pivot, so no solve
        # could run; power iteration may put rho a round-off below 1
        with pytest.raises(ContractionViolation):
            ExternalityGraph(SWAP, 1.0)
        with pytest.raises(ContractionViolation):
            ExternalityGraph(np.array([[0.0, 5.0], [5.0, 0.0]]), 0.2)

    def test_certificate_checks_its_residual(self, monkeypatch):
        # a positive x that does not solve A x = 1 certifies nothing: here
        # x = 1 gives A x = 1 - 1.5 < 0 on SWAP at alpha = 1.5
        monkeypatch.setattr(demand, "lu_solve", lambda lu_and_piv, b, trans=0: np.ones_like(b))
        with pytest.raises(ContractionViolation):
            ExternalityGraph(SWAP, 1.5)

    @staticmethod
    def _family_weights(family: str, n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 1.0, (n, n))
        if family == "sparse":
            w *= rng.uniform(size=(n, n)) < 0.2
        elif family != "dense":
            w = np.triu(w, 1) + (0.02 if family == "upper+0.02" else 0.0)
        np.fill_diagonal(w, 0.0)
        return w

    @given(family=st.sampled_from(["dense", "upper", "sparse", "upper+0.02"]),
           n=st.integers(1, 12), seed=st.integers(0, 2**32), target=st.floats(0.0, 2.0))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_gate_matches_eigenvalue_oracle(self, family, n, seed, target):
        # the certificate accepts exactly the graphs with alpha * rho(G) < 1
        w = self._family_weights(family, n, seed)
        rho = float(np.max(np.abs(np.linalg.eigvals(w))))
        alpha = target / rho if rho > 1e-12 else target
        assume(abs(alpha * rho - 1.0) >= 1e-6)
        try:
            ExternalityGraph(w, alpha)
            accepted = True
        except ContractionViolation:
            accepted = False
        assert accepted == (alpha * rho < 1.0)

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    @pytest.mark.parametrize("spread", [1e20, 1e50, 1e100, 1e160])
    def test_certificate_lost_to_round_off_names_itself(self, spread, alpha):
        # alpha * rho(G) = alpha < 1, but x = A^-1 1 has an entry near
        # spread, so A x misses 1 by far more than 1/2 in round-off; the
        # balanced certificate y = A^-1 d holds
        graph = ExternalityGraph(np.array([[0.0, spread], [1.0 / spread, 0.0]]), alpha)
        assert np.any(graph.system_matrix @ graph.ones_image <= 0.5)
        assert graph.alpha_rho == pytest.approx(alpha, rel=1e-9)

    def test_failed_certificate_names_itself(self, monkeypatch):
        # a solve whose x and y both fail, at alpha * rho(G) = 0.5 < 1
        monkeypatch.setattr(demand, "lu_solve", lambda lu_and_piv, b, trans=0: -np.ones_like(b))
        with pytest.raises(ConfigurationError) as info:
            ExternalityGraph(SWAP, 0.5)
        assert not isinstance(info.value, ContractionViolation)
        assert str(info.value) == ("the certificate from the LU of I - alpha G failed for "
                                   "alpha * rho(G) = 0.5 < 1")

    def test_rho_computed_once(self, radius_calls):
        graph = ExternalityGraph(SWAP, 0.5)
        assert radius_calls == []  # the gate reads the LU certificate, not rho
        for _ in range(2):
            assert graph.alpha_rho == pytest.approx(0.5, abs=1e-9)
        # once, on I - A with its diagonal set to 0: exactly fl(alpha G)
        assert len(radius_calls) == 1
        assert radius_calls[0].tobytes() == (0.5 * SWAP).tobytes()

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

    @pytest.mark.parametrize("n", [1, 5, 200])
    def test_symmetric_influence_leaves_cached_lu(self, n):
        rng = np.random.default_rng(n)
        graph = random_externality(rng, n)
        rhs = rng.normal(size=n)
        factors = [f.copy() for f in graph._lu]
        solved = [graph.solve(rhs, transpose=t) for t in (False, True)]
        graph.symmetric_influence
        assert all(f.tobytes() == g.tobytes() for f, g in zip(factors, graph._lu))
        assert all(s.tobytes() == graph.solve(rhs, transpose=t).tobytes()
                   for s, t in zip(solved, (False, True)))

    def test_system_matrix_read_only_and_detached(self):
        weights = SWAP.copy()
        graph = ExternalityGraph(weights, 0.1)
        held = [graph.system_matrix.copy(), graph.ones_image.copy()]
        with pytest.raises(ValueError):
            graph.system_matrix[0, 1] = 7.0
        # the graph keeps no view of the caller's array
        weights[0, 1] = 5.0
        assert graph.system_matrix.tobytes() == held[0].tobytes()
        assert graph.ones_image.tobytes() == held[1].tobytes()

    def test_system_matrix_c_ordered(self):
        # the sweeps read A through A.T as a Fortran-ordered view
        graph = ExternalityGraph(np.asfortranarray(CHAIN_4), 0.5)
        assert graph.system_matrix.flags.c_contiguous
        assert graph.system_matrix.tobytes() == (np.eye(4) - 0.5 * CHAIN_4).tobytes()

    def test_scaled_weights_past_float_range(self):
        # alpha * G would hold an infinity, from which no A can be built
        with pytest.raises(ConfigurationError, match="float range"):
            ExternalityGraph(np.array([[0.0, 1e300], [0.0, 0.0]]), 1e10)

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

    @staticmethod
    def run_fresh(probe: str) -> list[str]:
        """The words `probe` prints, run in a fresh interpreter that imports
        this checkout's chainsure."""
        src = str(Path(chainsure.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                              capture_output=True, text=True).stdout.split()

    def test_import_skips_scipy_linalg(self):
        probe = ("import sys, chainsure.cli; print('scipy' in sys.modules, "
                 "'scipy.linalg' in sys.modules, 'numpy.random' in sys.modules)")
        assert self.run_fresh(probe) == ["False", "False", "True"]

    def test_shared_when_scipy_linalg_comes_second(self):
        probe = ("import chainsure.demand as d, scipy.linalg as s; print(d.dtrmv is s.blas.dtrmv, "
                 "d.dtrsv is s.blas.dtrsv, d.dgetrf is s.lapack.dgetrf, d.dgetrs is s.lapack.dgetrs, "
                 "d.dgetri is s.lapack.dgetri, d.dgetri_lwork is s.lapack.dgetri_lwork, "
                 "d.dgebal is s.lapack.dgebal)")
        assert self.run_fresh(probe) == ["True"] * 7

    def test_failed_load_imports_scipy_and_retries(self):
        # the first load of _fblas raises, as where scipy's __init__ must first
        # set up the library path; the retry after `import scipy` succeeds
        probe = """if True:
            import sys
            from importlib.machinery import ExtensionFileLoader
            real, failed = ExtensionFileLoader.create_module, []
            def create_module(self, spec):
                if spec.name == "scipy.linalg._fblas" and not failed:
                    failed.append("scipy" in sys.modules)
                    raise ImportError("library path not set up")
                return real(self, spec)
            ExtensionFileLoader.create_module = create_module
            import chainsure.demand as d
            print(failed, "scipy" in sys.modules, "scipy.linalg" in sys.modules,
                  d.dtrmv(d.np.eye(2), d.np.ones(2)).tolist())
            """
        assert self.run_fresh(probe) == ["[False]", "True", "False", "[1.0,", "1.0]"]

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
        assert inverse is identity  # a writeable Fortran-ordered rhs is solved in place
        assert np.array_equal(inverse, lu_solve(expected, np.eye(n)))

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
    def test_lu_inverse_equals_numpy_inv(self, n):
        graph = random_externality(np.random.default_rng(n), n)
        a = graph.system_matrix
        inverse = demand.lu_inverse(demand.lu_factor(a))
        assert inverse.flags.f_contiguous and inverse.flags.writeable
        expected = np.linalg.inv(a)
        scale = np.linalg.norm(expected, np.inf)
        assert np.max(np.abs(inverse - expected)) <= 1e-13 * scale
        assert np.max(np.abs(a @ inverse - np.eye(n))) <= 1e-13

    @pytest.mark.parametrize("n", [1, 30, 300])
    def test_lu_inverse_takes_blocked_workspace(self, monkeypatch, n):
        # getri's own default workspace, 3 n, would run it unblocked
        calls = []

        def recorded(lu, piv, **options):
            calls.append(options)
            return scipy.linalg.lapack.dgetri(lu, piv, **options)

        monkeypatch.setattr(demand, "dgetri", recorded)
        graph = random_externality(np.random.default_rng(n), n)
        factors = demand.lu_factor(graph.system_matrix)
        before = [f.copy() for f in factors]
        inverse = demand.lu_inverse(factors)
        work, info = scipy.linalg.lapack.dgetri_lwork(n)
        assert info == 0 and calls == [{"lwork": int(work)}]
        if n >= 30:
            assert int(work) > 3 * n
        assert all(np.array_equal(f, b) for f, b in zip(factors, before))  # inverted a copy
        expected, _ = scipy.linalg.lapack.dgetri(*before, lwork=int(work))
        assert np.array_equal(inverse, expected)

    def test_lu_inverse_errors_raise(self):
        # factors whose U has an exact zero on its diagonal, as getrf would flag
        factors = (np.asfortranarray([[1.0, 0.0], [0.0, 0.0]]), np.array([0, 1], dtype=np.int32))
        with pytest.raises(np.linalg.LinAlgError, match="diagonal number 2"):
            demand.lu_inverse(factors)
        # getri_lwork refuses n = 0
        with pytest.raises(ValueError, match="illegal value in argument 3 of LAPACK getri_lwork"):
            demand.lu_inverse((np.zeros((0, 0)), np.zeros(0, dtype=np.int32)))

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
        # whichever is imported first, the other reuses its compiled modules;
        # test_shared_when_scipy_linalg_comes_second holds the other order
        assert demand.dtrmv is scipy.linalg.blas.dtrmv
        assert demand.dtrsv is scipy.linalg.blas.dtrsv
        assert demand.dgetrf is scipy.linalg.lapack.dgetrf
        assert demand.dgetrs is scipy.linalg.lapack.dgetrs
        assert demand.dgetri is scipy.linalg.lapack.dgetri
        assert demand.dgetri_lwork is scipy.linalg.lapack.dgetri_lwork
        assert demand.dgebal is scipy.linalg.lapack.dgebal


class TestSpectralRadius:
    @pytest.fixture(autouse=True)
    def under_two_seconds(self):
        start = time.perf_counter()
        yield
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("back_edge", [1e-12, 1e-8, 1e-4])
    def test_weak_back_edge(self, back_edge):
        # rho = sqrt(back_edge), far below the max row sum 1
        w = np.array([[0.0, 1.0], [back_edge, 0.0]])
        exact = float(np.max(np.abs(np.linalg.eigvals(w))))
        assert spectral_radius(w) == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("spread", [1e100, 1e160, 1e300])
    def test_weights_far_apart_give_rho_or_raise(self, spread):
        # rho = 1 for every spread, on a 2-cycle and a 3-cycle; scaling by the
        # largest weight alone pushes the smallest toward or past the bottom
        # of the float range, and balancing first keeps its digits
        two_cycle = np.array([[0.0, spread], [1.0 / spread, 0.0]])
        three_cycle = np.array([[0.0, spread, 0.0], [0.0, 0.0, 1.0], [1.0 / spread, 0.0, 0.0]])
        assert spectral_radius(two_cycle) == pytest.approx(1.0, rel=1e-9)
        assert spectral_radius(three_cycle) == pytest.approx(1.0, rel=1e-9)

    def test_cycles_no_similarity_brings_within_range_raise(self):
        # cycle products 1e400 and 1e-400, which a diagonal similarity keeps:
        # whatever it is, a weight of the small cycle lies a factor of 1e400
        # or more below the largest
        w = np.array([[0.0, 1e200, 1e-200], [1e200, 0.0, 0.0], [1e-200, 0.0, 0.0]])
        with pytest.raises(ConvergenceError, match="weights from 1e-200 to 1e.200 span"):
            spectral_radius(w)

    def test_cycle_not_reached_by_every_row(self):
        # rows 0 and 1 form a 2-cycle of root 1, rows 2 and 3 one of root 2.
        # Apart, rows 0 and 1 never reach the larger cycle, so their ratios
        # stay at 1; the edge 0 -> 2 lets them reach it
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 2.0
        apart = w.copy()
        w[0, 2] = 0.3
        assert spectral_radius(w) == pytest.approx(2.0, rel=1e-9)
        assert spectral_radius(apart) == pytest.approx(2.0, rel=1e-9)

    def test_swap_matrix(self):
        assert spectral_radius(SWAP) == pytest.approx(1.0, abs=1e-9)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((4, 4))) == 0.0

    def test_acyclic_is_exactly_zero(self):
        perm = np.random.default_rng(2).permutation(6)
        upper = np.triu(np.random.default_rng(3).uniform(0.5, 1.0, (6, 6)), 1)
        assert spectral_radius(CHAIN_4) == 0.0
        assert spectral_radius(upper[np.ix_(perm, perm)]) == 0.0
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0

    def test_peeled_rows_keep_the_cycle(self):
        # a 2-cycle of weight 3 feeding an acyclic tail: rho = 3
        w = np.zeros((5, 5))
        w[0, 1] = w[1, 0] = 3.0
        w[1, 2] = w[2, 3] = w[3, 4] = w[0, 4] = 1.0
        assert spectral_radius(w) == pytest.approx(3.0, rel=1e-9)

    @pytest.mark.parametrize("w", [
        [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 5.0]],  # row 2 has no off-diagonal weight
        [[5.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]],  # column 0 has none
    ], ids=["row", "column"])
    def test_isolated_self_loop_can_be_rho(self, w):
        # gebal sets the row or column aside with its self-loop, 5, above
        # the 2-cycle's root 1, so rho is that entry exactly, not a power
        # iteration's estimate within its tolerance
        assert spectral_radius(np.array(w)) == 5.0
        lower = np.array(w)
        lower[lower == 5.0] = 0.5
        assert spectral_radius(lower) == pytest.approx(1.0, rel=1e-9)

    def test_empty_and_non_finite_print_nothing(self, capfd):
        # LAPACK's gebal would print an illegal-argument message for either
        assert spectral_radius(np.zeros((0, 0))) == 0.0
        with pytest.raises(ValueError, match="infs or NaNs"):
            spectral_radius(np.full((3, 3), np.nan))
        with pytest.raises(ValueError, match="infs or NaNs"):
            spectral_radius(ONE_NAN_IN_100)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (0, 3), (3, 0), (2, 2, 2), ()])
    def test_not_square_raises(self, shape, capfd):
        # checked before the empty shortcut, so (0, 3) is no 0 x 0 matrix
        with pytest.raises(ValueError, match=r"square 2-D matrix, got shape \(.*\)"):
            spectral_radius(np.ones(shape))
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("negative", [-np.ones((2, 2)), SWAP - 1e-300 * np.eye(2)],
                             ids=["all", "tiny_diagonal"])
    def test_negative_entry_raises(self, negative, capfd):
        with pytest.raises(ValueError, match="nonnegative matrix, got a negative entry"):
            spectral_radius(negative)
        assert capfd.readouterr() == ("", "")

    def test_negative_zero_is_nonnegative(self):
        assert spectral_radius(np.where(SWAP == 0.0, -0.0, SWAP)) == pytest.approx(1.0, abs=1e-9)

    def test_row_sum_past_float_range(self):
        # row 0 sums to 2e308, which overflows, yet rho = sqrt(2) 1e308 is finite
        w = np.array([[0.0, 1e308, 1e308], [1e308, 0.0, 0.0], [1e308, 0.0, 0.0]])
        assert spectral_radius(w) == pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-8)

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5, 10, 40):
            w = rng.uniform(0.0, 10.0, (n, n))
            np.fill_diagonal(w, 0.0)
            exact = float(np.max(np.abs(np.linalg.eigvals(w))))
            assert spectral_radius(w) == pytest.approx(exact, rel=1e-9)

    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32),
           density=st.sampled_from([0.2, 0.4, 0.7]), diagonal=st.booleans(), isolated=st.booleans())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_matches_eigenvalue_oracle(self, n, seed, density, diagonal, isolated):
        # sparse draws leave rows and columns that gebal sets aside; `isolated`
        # forces one row and one column with no off-diagonal weight, and with
        # `diagonal` about half the users, those two possibly among them,
        # have a self-loop
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 10.0, (n, n)) * (rng.uniform(size=(n, n)) < density)
        np.fill_diagonal(w, 0.0)
        if diagonal:
            np.fill_diagonal(w, rng.uniform(0.0, 10.0, n) * (rng.uniform(size=n) < 0.5))
        if isolated:
            w[0, 1:] = 0.0
            w[:-1, -1] = 0.0
        exact = float(np.max(np.abs(np.linalg.eigvals(w))))
        assert spectral_radius(w) == pytest.approx(exact, rel=1e-8)

    def test_bipartite_tie(self):
        # +/-rho eigenvalue pairs must not stall the iteration
        w = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 3.0], [1.5, 0.0, 0.0]])
        exact = float(np.max(np.abs(np.linalg.eigvals(w))))
        assert spectral_radius(w) == pytest.approx(exact, rel=1e-9)

    def test_iteration_cap_raises(self, monkeypatch):
        # two steps leave the bracket far wider than the tolerance
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


@pytest.fixture
def solvers(monkeypatch):
    """Every GaussSeidel made while the test runs, so that a test can read
    their corrections whichever solver made them."""
    made = []
    init = GaussSeidel.__init__

    def registered(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(GaussSeidel, "__init__", registered)
    return made


class CountedGaussSeidel(GaussSeidel):
    """GaussSeidel that records each clamped block it settles as
    (first row, rows, correction passes)."""

    __slots__ = ("blocks",)

    def __init__(self, matrix, lo, hi):
        super().__init__(matrix, lo, hi)
        self.blocks = []

    def _clamped_block(self, rows, start, diag, rhs, guess):
        before = self.corrections
        out = super()._clamped_block(rows, start, diag, rhs, guess)
        self.blocks.append((start, diag.size, self.corrections - before))
        return out


# K = Q, symmetric with a non-unit diagonal, and K = I - alpha G with a
# nonsymmetric G. Each case runs one sweep over the box [0, 1] from x,
# names the branch it takes and counts its correction passes.
SYMMETRIC = np.array([[2.0, 0.5], [0.5, 1.0]])
NONSYMMETRIC = ExternalityGraph(np.array([[0.0, 0.2], [0.5, 0.0]]), 1.0).system_matrix
SWEEP_CASES = {
    # every row's update stays inside the box: one forward substitution
    "q_free": (SYMMETRIC, [0.8, 0.5], [0.2, 0.3], 0),
    # row 0's Jacobi update is past the cap, so it is held there
    "q_clamped": (SYMMETRIC, [3.0, 0.8], [0.0, 0.5], 0),
    # both Jacobi updates lie inside, but row 1's Gauss-Seidel update,
    # which sees row 0's new value, falls below the floor: the forward
    # substitution leaves the box, and one correction holds row 1 there
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


def sweep_problem(n, seed, symmetric):
    """A matrix of either kind the sweep runs on, a target whose
    unconstrained solution leaves the box [0.1, 0.9] on both sides, and a
    start inside the box."""
    rng = np.random.default_rng(seed)
    graph = random_externality(rng, n, target_alpha_rho=0.8)
    matrix = graph.symmetric_influence if symmetric else graph.system_matrix
    target = matrix @ rng.uniform(-0.2, 1.2, n)
    return matrix, target, rng.uniform(0.1, 0.9, n)


class TestGaussSeidelSweep:
    """The shared sweep kernel against the row-by-row sweep and t - K x."""

    @pytest.mark.parametrize("case", SWEEP_CASES)
    def test_branches(self, case):
        matrix, target, x, expected_corrections = SWEEP_CASES[case]
        target, x = np.array(target), np.array(x)
        diag = np.diagonal(matrix).copy()
        solver = GaussSeidel(matrix, 0.0, 1.0)
        upper, residual = solver.state(target, x)
        assert_sweep_state(matrix, target, x, upper, residual)
        new, upper, residual = solver.sweep(target, x, upper, residual)
        assert solver.corrections == expected_corrections
        expected = numpy_scalar_element_sweep(matrix, diag, target, x, 0.0, 1.0)
        np.testing.assert_allclose(new, expected, rtol=0.0, atol=1e-14)
        assert_sweep_state(matrix, target, new, upper, residual)
        if case.endswith("clamped"):
            assert new[0] == 1.0 and 0.0 < new[1] < 1.0

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_trajectory(self, symmetric):
        # the unconstrained solution leaves the box on both sides, so the
        # sweeps clamp rows at both bounds; above SWEEP_BLOCK rows the
        # clamped sweeps run in blocks, and a block whose prediction fails
        # corrects it in at most as many passes as it has rows
        for n in (30, SWEEP_BLOCK + 1, 300):
            matrix, target, x = sweep_problem(n, 41 if symmetric else 42, symmetric)
            diag = np.diagonal(matrix)
            lo, hi = 0.1, 0.9
            solver = CountedGaussSeidel(matrix, lo, hi)
            upper, residual = solver.state(target, x)
            for _ in range(40):
                expected = numpy_scalar_element_sweep(matrix, diag, target, x, lo, hi)
                x, upper, residual = solver.sweep(target, x, upper, residual)
                np.testing.assert_allclose(x, expected, rtol=0.0, atol=1e-13)
                assert_sweep_state(matrix, target, x, upper, residual)
            assert np.any(x == lo) and np.any(x == hi)
            assert solver.corrections > 0
            assert all(size <= SWEEP_BLOCK and passes <= size for _, size, passes in solver.blocks)

    def test_one_failed_block_runs_only_its_rows(self):
        # n = 300 is three blocks, rows 0-127, 128-255 and 256-299. Off the
        # identity only q_fallback's pair sits at rows 130 and 131, where
        # the Gauss-Seidel update of row 131 falls below the floor though
        # its Jacobi update does not; row 0 is held at the cap, so the
        # sweep takes the clamped branch, and only the middle block corrects
        n = 300
        matrix = np.eye(n)
        matrix[130:132, 130:132] = SYMMETRIC
        target, x = np.full(n, 0.5), np.full(n, 0.5)
        target[0], target[130:132], x[130:132] = 3.0, [1.3, 0.2], [0.0, 0.5]
        diag = np.diagonal(matrix)
        solver = CountedGaussSeidel(matrix, 0.0, 1.0)
        new, upper, residual = solver.sweep(target, x, *solver.state(target, x))
        assert solver.blocks == [(0, SWEEP_BLOCK, 0), (SWEEP_BLOCK, SWEEP_BLOCK, 1),
                                 (2 * SWEEP_BLOCK, n - 2 * SWEEP_BLOCK, 0)]
        expected = numpy_scalar_element_sweep(matrix, diag, target, x, 0.0, 1.0)
        np.testing.assert_allclose(new, expected, rtol=0.0, atol=1e-14)
        assert new[0] == 1.0 and new[131] == 0.0
        assert_sweep_state(matrix, target, new, upper, residual)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_blocks_gather_at_most_sweep_block_rows(self, symmetric):
        matrix, target, x = sweep_problem(300, 43, symmetric)
        carried = GaussSeidel(matrix, 0.1, 0.9)
        state = (x,) + carried.state(target, x)
        for _ in range(40):
            state = carried.sweep(target, *state)
            for start, (_, free, block) in carried.free_blocks.items():
                assert block.shape[0] <= SWEEP_BLOCK and block.shape == (free.sum(),) * 2
                rows = slice(start, start + SWEEP_BLOCK)
                np.testing.assert_array_equal(block, matrix[rows, rows][np.ix_(free, free)])
        assert len(carried.free_blocks) > 1


def frozen_clamped_solve_kept(at_lo, at_hi, solved, unclamped, lo, hi):
    """The clamped branch's acceptance test as three gathered tests."""
    free = ~(at_lo | at_hi)
    return bool(np.all((solved[free] >= lo) & (solved[free] <= hi))
                and np.all(unclamped[at_hi] >= hi) and np.all(unclamped[at_lo] <= lo))


def frozen_projected_norm(x, grad, lo, hi):
    """GaussSeidel.projected_norm as a copy with two masked writes."""
    if lo < x.min() and x.max() < hi:
        return float(np.abs(grad).max())
    pg = grad.copy()
    pg[(x <= lo) & (grad < 0)] = 0.0
    pg[(x >= hi) & (grad > 0)] = 0.0
    return float(np.abs(pg).max())


def frozen_fixed_point_residual(x, r):
    """The fixed-point residual lcp_demand stopped on before the projected
    residual, through np.clip."""
    return float(np.max(np.abs(x - np.clip(x + r, 0.0, 1.0))))


def frozen_gauss_seidel_sweep(matrix, diag, target, x, upper, residual, lo, hi):
    """GaussSeidel.sweep as it was before its clamped branch corrected a
    failed prediction: with the three gathered acceptance tests and the free
    block gathered on every clamped sweep. None where its prediction failed,
    where it ran the row-by-row sweep instead."""
    kt = matrix.T
    rhs = target - upper
    jacobi = x + residual / diag
    new = None
    if lo < jacobi.min() and jacobi.max() < hi:
        solved = demand.dtrsv(kt, rhs, trans=1)
        if lo <= solved.min() and solved.max() <= hi:
            new, lower = solved, rhs
    else:
        at_lo, at_hi = jacobi <= lo, jacobi >= hi
        free = ~(at_lo | at_hi)
        held = np.where(at_lo, lo, np.where(at_hi, hi, 0.0))
        solved = held.copy()
        if free.any():
            free_rhs = rhs - demand.dtrmv(kt, held, trans=1) + diag * held
            block = matrix[np.ix_(free, free)]
            solved[free] = demand.dtrsv(block.T, free_rhs[free], trans=1)
        lower = demand.dtrmv(kt, solved, trans=1)
        unclamped = (rhs - lower + diag * solved) / diag
        if frozen_clamped_solve_kept(at_lo, at_hi, solved, unclamped, lo, hi):
            new = solved
    if new is None:
        return None
    upper = demand.dtrmv(kt, new, lower=1, trans=1, diag=1) - new
    return new, upper, target - upper - lower


def assert_sweeps_equal_frozen_sweeps(matrix, target, x, lo, hi, sweeps=30):
    """Sweeps from x: bit for bit the frozen kernel's wherever the first
    prediction settles, else within 1e-13 of the row-by-row sweep.

    Each sweep is compared from the same state, so that a corrected sweep's
    round-off does not carry into the comparisons of later sweeps.
    """
    diag = np.diagonal(matrix)
    carried = GaussSeidel(matrix, lo, hi)
    state = (x,) + carried.state(target, x)
    for _ in range(sweeps):
        corrections = carried.corrections
        swept = carried.sweep(target, *state)
        frozen = frozen_gauss_seidel_sweep(matrix, diag, target, *state, lo, hi)
        if frozen is None:
            assert carried.corrections > corrections
            expected = numpy_scalar_element_sweep(matrix, diag, target, state[0], lo, hi)
            np.testing.assert_allclose(swept[0], expected, rtol=0.0, atol=1e-13)
            assert_sweep_state(matrix, target, *swept)
        else:
            assert carried.corrections == corrections
            for a, b in zip(swept, frozen):
                assert a.tobytes() == b.tobytes()
        state = swept


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


# the boxes the solvers sweep over: demand's, the provider's at the shipped
# price cap, and the trajectory tests'
BOXES = [(0.0, 1.0), (PRICE_FLOOR, 0.95), (0.1, 0.9)]


def edge_floats(lo, hi):
    """Each bound, its neighbours either side, signed zeros, NaN, or a plain
    value; the quotients have full mantissas, so sums of them round."""
    specials = [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
                np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf), 0.0, -0.0, math.nan]
    return (st.sampled_from([float(v) for v in specials]) | st.floats(-2.0, 3.0)
            | st.integers(-2 * 999_983, 3 * 999_983).map(lambda k: k / 999_983))


@st.composite
def box_vectors(draw, count):
    """A box and `count` vectors of one length drawn from edge_floats."""
    lo, hi = draw(st.sampled_from(BOXES))
    n = draw(st.integers(1, 12))
    vectors = [np.array(draw(st.lists(edge_floats(lo, hi), min_size=n, max_size=n)))
               for _ in range(count)]
    return lo, hi, vectors


# the (lower, trans, diag) forms demand calls the BLAS wrappers in, as the
# positional flags it passes and the keywords they stand for
BLAS_FORMS = {
    "dtrmv": {(0, 1, 1, 1, 1): {"lower": 1, "trans": 1, "diag": 1},  # offx, incx, flags
              (0, 1, 0, 1): {"trans": 1}},
    "dtrsv": {(1, 0, 0, 1): {"trans": 1}},  # incx, offx, lower, trans
}


class TestPositionalBlas:
    """demand passes the f2py wrappers' flags positionally, which skips
    their keyword parsing. The two wrappers order them differently:
    dtrmv(a, x, offx, incx, lower, trans, diag) and
    dtrsv(a, x, incx, offx, lower, trans, diag)."""

    @pytest.mark.parametrize("n", [1, 30, 128, 300])
    def test_positional_equals_keyword(self, n):
        rng = np.random.default_rng(n)
        matrix = rng.uniform(-1.0, 1.0, (n, n))
        matrix.flat[::n + 1] += n  # a diagonal that keeps the solve tame
        kt = matrix.T  # Fortran-ordered, as GaussSeidel reads K
        x = rng.uniform(-1.0, 1.0, n)
        before = x.tobytes()
        for name, forms in BLAS_FORMS.items():
            routine = getattr(demand, name)
            for flags, keywords in forms.items():
                assert routine(kt, x, *flags).tobytes() == routine(kt, x, **keywords).tobytes()
        assert x.tobytes() == before  # neither overwrites x

    def test_forms_are_the_ones_demand_calls(self, monkeypatch):
        # each branch of a sweep, and a blocked trajectory, calls only the
        # tested forms, and between them they call every one
        seen = {name: set() for name in BLAS_FORMS}
        for name in BLAS_FORMS:
            routine = getattr(demand, name)

            def recorded(a, x, *flags, name=name, routine=routine):
                seen[name].add(flags)
                return routine(a, x, *flags)

            monkeypatch.setattr(demand, name, recorded)
        for matrix, target, x, _ in SWEEP_CASES.values():
            solver = GaussSeidel(matrix, 0.0, 1.0)
            target, x = np.array(target), np.array(x)
            solver.sweep(target, x, *solver.state(target, x))
        assert all(seen[name] <= set(forms) for name, forms in BLAS_FORMS.items())
        matrix, target, x = sweep_problem(300, 43, symmetric=True)
        solver = GaussSeidel(matrix, 0.1, 0.9)
        state = (x,) + solver.state(target, x)
        for _ in range(40):
            state = solver.sweep(target, *state)
        assert seen == {name: set(forms) for name, forms in BLAS_FORMS.items()}


class CountingNumpy:
    """numpy as demand reads it, with np.minimum and np.maximum counting
    their reductions."""

    class Counted:
        def __init__(self, ufunc, owner):
            self.ufunc, self.owner = ufunc, owner

        def __call__(self, *args, **kwargs):
            return self.ufunc(*args, **kwargs)

        def reduce(self, *args, **kwargs):
            self.owner.reductions += 1
            return self.ufunc.reduce(*args, **kwargs)

    def __init__(self):
        self.reductions = 0
        self.minimum, self.maximum = self.Counted(np.minimum, self), self.Counted(np.maximum, self)

    def __getattr__(self, name):
        return getattr(np, name)


def norm_and_box_test(solver, x, residual):
    """solver.projected_norm(x, residual), and whether it ran the box test:
    the fast path makes one reduction, max |residual|, the box test more."""
    counting = CountingNumpy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(demand, "np", counting)
        norm = solver.projected_norm(x, residual)
    return norm, counting.reductions > 1


class TestInteriorFlag:
    """GaussSeidel.inside is the iterate itself exactly when a sweep kept its
    forward substitution and that iterate lies strictly inside the box, else
    None. projected_norm skips its box test for that array alone, and gives
    frozen_projected_norm's value bit for bit either way."""

    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32), symmetric=st.booleans(),
           box=st.sampled_from(BOXES))
    @example(n=300, seed=43, symmetric=True, box=(0.1, 0.9))
    @example(n=300, seed=42, symmetric=False, box=(PRICE_FLOOR, 0.95))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_after_every_sweep(self, n, seed, symmetric, box):
        lo, hi = box
        matrix, target, x = sweep_problem(n, seed, symmetric)
        solver = CountedGaussSeidel(matrix, lo, hi)
        state = (x,) + solver.state(target, x)
        assert solver.inside is None
        for _ in range(30):
            blocks = len(solver.blocks)
            state = solver.sweep(target, *state)
            new, _, grad = state
            # a clamped sweep records None even where its iterate ends inside
            kept = len(solver.blocks) == blocks
            strictly = kept and bool(lo < new.min() and new.max() < hi)
            assert solver.inside is (new if strictly else None)
            expected = frozen_projected_norm(new, grad, lo, hi)
            norm, box_test = norm_and_box_test(solver, new, grad)
            assert same_bits(norm, expected) and box_test is not strictly
            # the same values in another array, or before a fresh solver
            for other, values in ((solver, new.copy()), (GaussSeidel(matrix, lo, hi), new)):
                norm, box_test = norm_and_box_test(other, values, grad)
                assert same_bits(norm, expected) and box_test

    @pytest.mark.parametrize("coupling, last_target, bound", [(0.5, 0.25, 0.0), (-0.5, 0.75, 1.0)])
    def test_false_on_a_bound(self, coupling, last_target, bound):
        # K = [[1, 0], [c, 1]]: the Jacobi update lies inside [0, 1], and the
        # forward substitution, which the sweep keeps, lands exactly on a bound
        matrix = np.array([[1.0, 0.0], [coupling, 1.0]])
        target, x = np.array([0.5, last_target]), np.array([0.1, 0.5])
        solver = CountedGaussSeidel(matrix, 0.0, 1.0)
        new, _, grad = solver.sweep(target, x, *solver.state(target, x))
        assert solver.blocks == [] and new.tolist() == [0.5, bound]
        assert solver.inside is None
        norm, box_test = norm_and_box_test(solver, new, grad)
        assert same_bits(norm, frozen_projected_norm(new, grad, 0.0, 1.0)) and box_test

    def test_each_sweep_sets_it_afresh(self):
        # a fresh solver, then sweeps that alternate with an interior one:
        # clamped, corrected from a forward substitution, and NaN
        def case(name):
            return np.array(SWEEP_CASES[name][1]), np.array(SWEEP_CASES[name][2])

        free, clamped, fallback = case("q_free"), case("q_clamped"), case("q_fallback")
        nan = (np.array([math.nan, 0.5]), np.array([0.2, 0.3]))
        solver = GaussSeidel(SYMMETRIC, 0.0, 1.0)
        assert solver.inside is None
        for target, x in (free, clamped, free, fallback, free, nan, free):
            new, _, grad = solver.sweep(target, x, *solver.state(target, x))
            interior = target is free[0]
            assert solver.inside is (new if interior else None)
            assert interior or not (0.0 < new.min() and new.max() < 1.0)
            norm, box_test = norm_and_box_test(solver, new, grad)
            assert same_bits(norm, frozen_projected_norm(new, grad, 0.0, 1.0))
            assert box_test is not interior


class TestKernelsBitIdentical:
    """The kernels' faster forms give the bits of the forms they replace."""

    @given(box_vectors(2))
    @example((0.0, 1.0, [np.array([0.0, 1.0]), np.array([-0.0, 0.0])]))
    @example((0.0, 1.0, [np.array([0.0, 0.5, 1.0]), np.array([-0.0, math.nan, 0.0])]))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_projected_norm_equals_masked_writes(self, box):
        lo, hi, (x, grad) = box
        solver = GaussSeidel(np.eye(x.size), lo, hi)
        assert same_bits(solver.projected_norm(x, grad), frozen_projected_norm(x, grad, lo, hi))

    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32), symmetric=st.booleans(),
           box=st.sampled_from(BOXES))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_sweeps_equal_frozen_sweeps(self, n, seed, symmetric, box):
        # every branch, as the trajectory meets it, against the frozen kernel
        assert_sweeps_equal_frozen_sweeps(*sweep_problem(n, seed, symmetric), *box)

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("box", BOXES)
    def test_one_full_block_equals_frozen_sweep(self, symmetric, box):
        # n = SWEEP_BLOCK is the largest sweep that is one block
        assert_sweeps_equal_frozen_sweeps(*sweep_problem(SWEEP_BLOCK, 44, symmetric), *box)

    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32), symmetric=st.booleans(),
           box=st.sampled_from(BOXES))
    @example(n=300, seed=42, symmetric=False, box=(0.1, 0.9))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_corrected_blocks_match_row_by_row_sweep(self, n, seed, symmetric, box):
        # up to three blocks; a block settles in at most as many correction
        # passes as it has rows
        lo, hi = box
        matrix, target, x = sweep_problem(n, seed, symmetric)
        diag = np.diagonal(matrix)
        solver = CountedGaussSeidel(matrix, lo, hi)
        upper, residual = solver.state(target, x)
        for _ in range(15):
            expected = numpy_scalar_element_sweep(matrix, diag, target, x, lo, hi)
            x, upper, residual = solver.sweep(target, x, upper, residual)
            np.testing.assert_allclose(x, expected, rtol=0.0, atol=1e-13)
        assert all(passes <= size for _, size, passes in solver.blocks)

    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32), symmetric=st.booleans(),
           switch=st.integers(1, 15))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_carried_free_block_equals_regathering(self, n, seed, symmetric, switch):
        # after `switch` sweeps the target moves, and with it the free set
        matrix, target, x = sweep_problem(n, seed, symmetric)
        second = target[::-1].copy()
        lo, hi = 0.1, 0.9
        carried = GaussSeidel(matrix, lo, hi)
        with_carry = regathering = (x,) + carried.state(target, x)
        for k in range(30):
            t = target if k < switch else second
            if k == switch:
                with_carry = (with_carry[0],) + carried.state(t, with_carry[0])
                regathering = (regathering[0],) + carried.state(t, regathering[0])
            before, corrections = carried.free_blocks.get(0), carried.corrections
            with_carry = carried.sweep(t, *with_carry)
            regathering = GaussSeidel(matrix, lo, hi).sweep(t, *regathering)
            assert all(np.array_equal(a, b) for a, b in zip(with_carry, regathering))
            after = carried.free_blocks.get(0)
            if after is None:
                continue
            _, free, block = after
            np.testing.assert_array_equal(block, matrix[np.ix_(free, free)])
            if after is not before:
                # gathered in this sweep, so the mask is its last pass's,
                # whose held rows are at a bound
                new = with_carry[0]
                assert np.all((new[~free] == lo) | (new[~free] == hi))
            if (before is not None and carried.corrections == corrections
                    and np.array_equal(before[1], free)):
                assert block is before[2]  # gathered only when the free set moves

    def test_free_set_change_regathers(self):
        matrix, target, x = sweep_problem(30, 42, symmetric=False)
        carried = GaussSeidel(matrix, 0.1, 0.9)
        state = (x,) + carried.state(target, x)
        masks = []
        for _ in range(40):
            state = carried.sweep(target, *state)
            entry = carried.free_blocks.get(0)
            if entry is not None and (not masks or masks[-1] is not entry[1]):
                _, free, block = entry
                masks.append(free)
                np.testing.assert_array_equal(block, matrix[np.ix_(free, free)])
        assert 1 < len(masks) < 40

    @given(n=st.integers(1, 60), seed=st.integers(0, 2**32),
           scale=st.sampled_from([0.0, -0.0, 1e-3, 0.5, 0.99]),
           zeros=st.sampled_from(["none", "all", "signed", "some"]))
    @example(n=300, seed=6, scale=0.07, zeros="none")
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_system_matrix_equals_eye_form(self, n, seed, scale, zeros):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(weights, 0.0)
        if zeros == "all":
            weights[:] = 0.0
        elif zeros == "signed":  # -0.0 passes the nonnegative and zero-diagonal checks
            weights[:] = -0.0
        elif zeros == "some":
            weights *= rng.uniform(size=(n, n)) < 0.3
        # the row sums bound rho, so alpha * rho(G) < 1
        alpha = scale / max(n - 1, 1)
        built = ExternalityGraph(weights, alpha).system_matrix
        assert built.tobytes() == (np.eye(n) - alpha * weights).tobytes()
        assert built.flags.c_contiguous

    @given(n=st.integers(1, 2 * INFLUENCE_TILE + 2), seed=st.integers(0, 2**32))
    @example(n=INFLUENCE_TILE - 1, seed=1)
    @example(n=INFLUENCE_TILE, seed=2)
    @example(n=INFLUENCE_TILE + 1, seed=3)
    @example(n=2 * INFLUENCE_TILE + 1, seed=4)
    @example(n=1000, seed=5)
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_tiled_symmetric_influence_equals_add(self, n, seed):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(weights, 0.0)
        # the row sums bound rho, so alpha * rho(G) < 0.6
        graph = ExternalityGraph(weights, 0.6 / max(n - 1, 1))
        # M as symmetric_influence takes it: getri on the same factors, blocked
        lu, piv = lu_factor(graph.system_matrix)
        work, _ = scipy.linalg.lapack.dgetri_lwork(n)
        inverse, info = scipy.linalg.lapack.dgetri(lu, piv, lwork=int(work))
        assert info == 0
        quad = graph.symmetric_influence
        assert np.array_equal(quad, np.add(inverse, inverse.T, order="C"))
        assert quad.flags.c_contiguous and not quad.flags.writeable


def frozen_demand_rhs(graph, hbar, p):
    """demand._demand_rhs in its np.all form."""
    p = np.asarray(p, dtype=float)
    if p.shape != (graph.n_users,):
        raise ValueError(f"price vector has shape {p.shape}, expected ({graph.n_users},)")
    with np.errstate(over="ignore", invalid="ignore"):
        b = (1.0 + hbar) - p
    if not np.all(np.isfinite(b)):
        raise ValueError(f"demand right-hand side (1 + hbar) - p is not finite (hbar = {hbar})")
    return b


class TestChecksEqualFrozenForms:
    """The per-point checks and reductions, written as ufunc reductions,
    give what their np.all / np.any / np.sum forms did, with the same error."""

    @given(edge_arrays())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_graph_solve_finiteness(self, solved):
        graph = ExternalityGraph(SWAP, 0.5)

        def frozen_solve(rhs):
            if not np.all(np.isfinite(solved)):
                raise np.linalg.LinAlgError("demand system is numerically singular")
            return solved

        with pytest.MonkeyPatch.context() as patch:
            # the check reads what the LAPACK solve returns
            patch.setattr(demand, "lu_solve", lambda lu_and_piv, b, trans=0: solved)
            kind, value = outcome(graph.solve, np.ones(2))
        frozen_kind, frozen_value = outcome(frozen_solve, np.ones(2))
        assert kind == frozen_kind
        assert value is frozen_value if kind == "ok" else value == frozen_value

    @given(edge_arrays(bounds=(1.0, -1e308)),  # 1e308 - (-1e308) overflows
           st.sampled_from([0.5, 0.75, 1e308, -1e308, math.inf, -math.inf, math.nan]))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_demand_rhs(self, prices, hbar):
        n = prices.shape[0] if prices.ndim == 1 and prices.size else 3
        graph = ExternalityGraph(np.zeros((n, n)), 0.0)
        kind, value = outcome(demand._demand_rhs, graph, hbar, prices)
        frozen_kind, frozen_value = outcome(frozen_demand_rhs, graph, hbar, prices)
        assert kind == frozen_kind
        if kind == "ok":
            assert value.tobytes() == frozen_value.tobytes()
        else:
            assert value == frozen_value

    @given(edge_arrays(bounds=(-1e-9, 1.0 + 1e-9, -0.25, 1.25)),
           st.sampled_from([1e-9, 0.0, 0.25, math.nan]))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_profile_out_of_box_and_total(self, x, tol):
        profile = DemandProfile(x, np.zeros(x.shape, dtype=np.int8))
        assert profile.out_of_box(tol) == bool(np.any(x < -tol) or np.any(x > 1.0 + tol))
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, 1e308 + 1e308
            assert same_bits(profile.total, float(np.sum(x)))


class TestLcpDemand:
    def test_matches_brute_force_through_fallback(self, solvers):
        rng = np.random.default_rng(2)
        n = int(rng.integers(2, 9))
        graph = random_externality(rng, n, target_alpha_rho=0.9)
        p = rng.uniform(0.05, 2.2, n)
        solved = lcp_demand(graph, 0.8, p)
        assert sum(solver.corrections for solver in solvers) > 0
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
            weights, alpha = random_weights(rng, n, target_alpha_rho=rng.uniform(0.0, 0.9))
            graph = ExternalityGraph(weights, alpha)
            hbar = rng.uniform(0.5, 0.999)
            p = random_prices(rng, n)
            prof = lcp_demand(graph, hbar, p)
            image = np.clip((1.0 + hbar) - p + alpha * (weights @ prof.x), 0.0, 1.0)
            assert float(np.max(np.abs(prof.x - image))) < 1e-9
            r = (1.0 + hbar) - p - graph.system_matrix @ prof.x
            labels = np.where(r < -LCP_TOL, Segment.OPT_OUT,
                              np.where(r > LCP_TOL, Segment.SATURATED, Segment.INTERIOR))
            assert np.array_equal(prof.partition, labels)

    def test_stops_where_the_fixed_point_residual_stopped(self, monkeypatch):
        # the projected residual against the fixed-point residual it
        # replaced, on 500 problems whose margins at x = 1 run from -0.6 to
        # 0.3, one of them negative: the same bytes after the same sweeps
        sweep, swept = GaussSeidel.sweep, []

        def counted(self, *args):
            swept.append(self)
            return sweep(self, *args)

        monkeypatch.setattr(GaussSeidel, "sweep", counted)
        rng = np.random.default_rng(61)
        mixed = 0
        for _ in range(500):
            n = int(rng.integers(2, 61))
            graph = random_externality(rng, n, target_alpha_rho=float(rng.uniform(0.05, 0.95)))
            hbar = float(rng.uniform(0.5, 0.99))
            margins = rng.uniform(-0.6, 0.3, n)
            margins[rng.integers(n)] = -0.3
            p = (1.0 + hbar) - graph.row_sums - margins
            swept.clear()
            solved = lcp_demand(graph, hbar, p)
            b = (1.0 + hbar) - p
            solver = GaussSeidel(graph.system_matrix, 0.0, 1.0)
            x = np.clip(b, 0.0, 1.0)
            state = (x,) + solver.state(b, x)
            for sweeps in range(1, demand.LCP_ITER_CAP // n + 1):
                state = sweep(solver, b, *state)
                if frozen_fixed_point_residual(state[0], state[2]) < LCP_TOL:
                    break
            x, _, r = state
            labels = np.where(r < -LCP_TOL, Segment.OPT_OUT,
                              np.where(r > LCP_TOL, Segment.SATURATED, Segment.INTERIOR))
            assert len(swept) == sweeps
            assert solved.x.tobytes() == x.tobytes()
            assert solved.partition.tobytes() == labels.astype(np.int8).tobytes()
            interior = solved.partition == Segment.INTERIOR
            mixed += bool(interior.any() and not interior.all())
        assert mixed > 400

    def test_monotone_in_externality_strength(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            weights, alpha = random_weights(rng, n, target_alpha_rho=0.85)
            hbar = rng.uniform(0.5, 0.99)
            p = random_prices(rng, n)
            previous = None
            for factor in (0.0, 0.25, 0.5, 0.75, 1.0):
                graph = ExternalityGraph(weights, alpha * factor)
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


# dyadic weights and alpha, so that A 1 and the margins built on it are exact
DYADIC_WEIGHTS = np.array([[0.0, 1.0, 0.5], [0.25, 0.0, 1.0], [1.0, 0.5, 0.0]])
DYADIC_ALPHA = 0.25


class TestSaturationTest:
    """lcp_demand returns x = 1 without a sweep exactly when no margin
    b - A 1 is negative, and sweeps otherwise."""

    def solve_with_margins(self, margins, solvers):
        # hbar = 0.5 and p = 1.5 - A 1 - margins, so that b - A 1 = margins
        graph = ExternalityGraph(DYADIC_WEIGHTS, DYADIC_ALPHA)
        p = 1.5 - graph.row_sums - np.asarray(margins)
        solved = lcp_demand(graph, 0.5, p)
        reference = brute_force_lcp(graph, 0.5, p)
        np.testing.assert_allclose(solved.x, reference.x, rtol=0.0, atol=1e-9)
        assert np.array_equal(solved.partition, reference.partition)
        return graph, solved, len(solvers)

    def test_every_user_saturated(self, solvers):
        _, solved, swept = self.solve_with_margins([0.25, 0.5, 0.125], solvers)
        assert swept == 0
        assert np.all(solved.x == 1.0)
        assert np.all(solved.partition == Segment.SATURATED)

    def test_a_margin_of_zero_is_interior_at_one(self, solvers):
        graph, solved, swept = self.solve_with_margins([0.25, 0.0, 0.125], solvers)
        assert (1.5 - (1.5 - graph.row_sums[1])) - graph.row_sums[1] == 0.0  # exact
        assert swept == 0
        assert np.all(solved.x == 1.0)
        assert solved.partition.tolist() == [Segment.SATURATED, Segment.INTERIOR,
                                             Segment.SATURATED]

    def test_a_negative_margin_falls_through_to_sweeps(self, solvers):
        _, solved, swept = self.solve_with_margins([0.25, -1e-12, 0.125], solvers)
        assert swept == 1
        assert solved.x[1] < 1.0
        assert solved.partition[1] == Segment.INTERIOR

    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32), low=st.sampled_from([-0.05, 0.0]))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_near_saturated_markets_match_brute_force(self, n, seed, low):
        # margins from low to 0.3: all saturated at low = 0, else some swept
        rng = np.random.default_rng(seed)
        graph = random_externality(rng, n, target_alpha_rho=float(rng.uniform(0.0, 0.9)))
        hbar = float(rng.uniform(0.5, 0.99))
        p = (1.0 + hbar) - graph.row_sums - rng.uniform(low, 0.3, n)
        solved = lcp_demand(graph, hbar, p)
        reference = brute_force_lcp(graph, hbar, p)
        np.testing.assert_allclose(solved.x, reference.x, rtol=0.0, atol=1e-9)
        assert np.array_equal(solved.partition, reference.partition)

    def test_row_sums_computed_once_per_graph(self, monkeypatch):
        calls = []
        row_sums = ExternalityGraph.__dict__["row_sums"].func

        def counted(graph):
            calls.append(graph)
            return row_sums(graph)

        prop = cached_property(counted)
        prop.__set_name__(ExternalityGraph, "row_sums")
        monkeypatch.setattr(ExternalityGraph, "row_sums", prop)
        graphs = [ExternalityGraph(DYADIC_WEIGHTS, DYADIC_ALPHA) for _ in range(2)]
        for graph in graphs + graphs:
            for p in (np.full(3, 0.2), np.full(3, 1.2)):  # saturated, then swept
                lcp_demand(graph, 0.5, p)
        assert calls == graphs
        np.testing.assert_array_equal(graphs[0].row_sums, [0.625, 0.6875, 0.625])
        assert not graphs[0].row_sums.flags.writeable

    def test_memo_holds_only_the_first_price_block(self):
        # at the shipped grids' prices every user saturates, so the report's
        # demand comes from the saturation test, which keeps nothing in memo
        rng = np.random.default_rng(5)
        graph = random_externality(rng, 8, target_alpha_rho=0.35)
        params = MarketParams(risk=RiskModel(10.0, 100, 10.0, 10.0), attacker_resource=100.0,
                              beta=10.0, price_cap=1.0, gamma_cap=2.0)
        report = solve_stackelberg(params, graph, ProviderStrategy(np.full(8, 0.75), 0.75))
        assert np.all(report.demand.x == 1.0)
        assert list(graph.memo) == ["provider first price block"]
        assert "row_sums" in vars(graph)


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
