"""Follower subgame: user demand under social externality.

The users' purchase probabilities solve a box-bounded linear
complementarity system. Three solvers are provided: the closed form valid
when every user is interior, a projected Gauss-Seidel iteration for the
general clamped case, and an exhaustive partition enumeration used as the
verification oracle on small instances.

The projected Gauss-Seidel sweep itself (gauss_seidel_sweep) is shared:
the clamped demand runs it on I - alpha G, and the provider's best
response runs it on its price curvature M + M^T. A sweep is BLAS
triangular kernels that read the matrix once and return the new
iterate's residual with it.

The four Fortran routines used here (BLAS trmv and trsv, LAPACK getrf
and getrs) are bound from scipy's compiled f2py wrapper modules, loaded
by _scipy_linalg_extension without running scipy.linalg's package
import, which costs more than a whole paper sweep.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

from .errors import ContractionViolation, ConvergenceError, UniquenessViolation

POWER_ITER_TOL = 1e-10
POWER_ITER_CAP = 100_000
LCP_TOL = 1e-10
LCP_ITER_CAP = 10**6
BRUTE_FORCE_MAX_USERS = 12


def _scipy_linalg_extension(name: str):
    """scipy.linalg's compiled module `name`, without importing scipy.linalg.

    The plain `import scipy` above sets up the bundled BLAS/LAPACK library
    path where a platform needs it; the extension file itself is found
    next to scipy/linalg/__init__.py, which is not run. The module goes
    into sys.modules under its own name, so a later `import scipy.linalg`
    shares it, and one loaded already is reused.
    """
    qualified = f"scipy.linalg.{name}"
    module = sys.modules.get(qualified)
    if module is not None:
        return module
    directory = os.path.join(scipy.__path__[0], "linalg")
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(qualified)
    if spec is None:
        raise ImportError(f"no compiled module {name} in {directory}", name=qualified,
                          path=directory)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[qualified] = module
    return module


_fblas = _scipy_linalg_extension("_fblas")
_flapack = _scipy_linalg_extension("_flapack")
dtrmv, dtrsv = _fblas.dtrmv, _fblas.dtrsv
dgetrf, dgetrs = _flapack.dgetrf, _flapack.dgetrs


def lu_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factors of a square matrix with partial pivoting, as scipy's lu_factor.

    LAPACK getrf on a Fortran-ordered copy, so a is never overwritten.
    Where scipy only warns on an exactly zero pivot, this raises.
    """
    a = np.asarray_chkfinite(a)
    lu, piv, info = dgetrf(a)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK getrf")
    if info > 0:
        raise np.linalg.LinAlgError(f"diagonal number {info} of the LU factor is exactly zero")
    return lu, piv


def lu_solve(lu_and_piv: tuple[np.ndarray, np.ndarray], b: np.ndarray,
             trans: int = 0) -> np.ndarray:
    """Solve a x = b (trans=1: a^T x = b) from lu_factor(a), as scipy's
    lu_solve (LAPACK getrs).

    A writeable b may be overwritten: getrs solves in place when b is
    already a Fortran-contiguous float array. A read-only b is copied,
    since scipy's wrapper would write into it regardless of its flag.
    """
    lu, piv = lu_and_piv
    b = np.asarray_chkfinite(b)
    x, info = dgetrs(lu, piv, b, trans=trans, overwrite_b=b.flags.writeable)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK getrs")
    return x


class Segment(enum.IntEnum):
    """Which branch of the demand system a user sits on."""

    OPT_OUT = 0      # x = 0, strictly negative surplus margin
    INTERIOR = 1     # 0 <= x <= 1, zero margin
    SATURATED = 2    # x = 1, strictly positive margin


@dataclass(frozen=True, eq=False)
class ExternalityGraph:
    """Nonnegative influence weights between users, scaled by alpha.

    weights[i, j] is how strongly user j's purchase decision raises user i's
    utility; the diagonal must be zero. alpha scales the whole network.
    A graph exists only when alpha * rho(G) < 1, the condition for a unique
    demand equilibrium, so every solver may assume it.
    """

    weights: np.ndarray
    alpha: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be a square matrix, got shape {w.shape}")
        # checked before rho: power iteration on a NaN never converges
        if not np.all(np.isfinite(w)):
            raise ValueError("externality weights must be finite")
        if np.any(w < 0):
            raise ValueError("externality weights must be nonnegative")
        if np.any(np.diagonal(w) != 0):
            raise ValueError("externality weights must have a zero diagonal")
        # written so that NaN fails
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be nonnegative and finite, got {self.alpha}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if not self.alpha_rho < 1.0:
            raise ContractionViolation(self.alpha_rho)

    @property
    def n_users(self) -> int:
        return self.weights.shape[0]

    @cached_property
    def system_matrix(self) -> np.ndarray:
        """I - alpha * G; the demand system's coefficient matrix."""
        return np.eye(self.n_users) - self.alpha * self.weights

    @cached_property
    def _lu(self):
        return lu_factor(self.system_matrix)

    def solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Solve (I - alpha G) x = rhs (or its transpose) via the cached LU.

        rhs is copied first, since lu_solve may solve in place.
        """
        out = lu_solve(self._lu, np.array(rhs, dtype=float), trans=1 if transpose else 0)
        if not np.all(np.isfinite(out)):
            raise np.linalg.LinAlgError("demand system is numerically singular")
        return out

    @cached_property
    def ones_image(self) -> np.ndarray:
        """(I - alpha G)^{-1} 1, the amplification each user gets from the network."""
        out = self.solve(np.ones(self.n_users))
        out.setflags(write=False)
        return out

    @cached_property
    def rho(self) -> float:
        """rho(G), the Perron root of the unscaled weights."""
        return spectral_radius(self.weights)

    @property
    def alpha_rho(self) -> float:
        """alpha * rho(G), below 1 for every graph."""
        return self.alpha * self.rho

    @cached_property
    def total_amplification(self) -> float:
        """1^T (I - alpha G)^{-1} 1."""
        return float(np.sum(self.ones_image))

    @cached_property
    def symmetric_influence(self) -> np.ndarray:
        """M + M^T with M = (I - alpha G)^{-1}: minus the provider's price Hessian.

        Bitwise symmetric (a + b == b + a in floating point) and C-ordered,
        so its transpose is a Fortran-ordered view that BLAS reads without
        a copy. M itself is built in place of a local identity and dropped.
        """
        inverse = lu_solve(self._lu, np.eye(self.n_users, order="F"))
        out = np.add(inverse, inverse.T, order="C")
        out.setflags(write=False)
        return out


@dataclass(frozen=True, eq=False)
class DemandProfile:
    """Solved purchase probabilities with their Segment labels, as read-only copies."""

    x: np.ndarray
    partition: np.ndarray

    def __post_init__(self):
        for name in ("x", "partition"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def total(self) -> float:
        return float(np.sum(self.x))

    def out_of_box(self, tol: float = 1e-9) -> bool:
        """True when any component leaves [0, 1] by more than tol."""
        return bool(np.any(self.x < -tol) or np.any(self.x > 1.0 + tol))


def spectral_radius(matrix: np.ndarray) -> float:
    """Perron root of a nonnegative matrix by shifted power iteration.

    The shift (5% of the max row sum) breaks the +/-rho eigenvalue tie of
    bipartite-like matrices; for a nonnegative matrix the Perron root moves
    by exactly the shift, so it is subtracted back out. When the max row
    sum exceeds 1, each norm is taken of the iterate scaled by a power of
    two near its inverse, which is exact, so weights near the float limit
    do not overflow the squares.
    """
    g = np.asarray(matrix, dtype=float)
    n = g.shape[0]
    row_bound = float(g.sum(axis=1).max()) if n else 0.0
    if row_bound == 0.0:
        return 0.0
    scale = math.ldexp(1.0, -max(math.frexp(row_bound)[1], 0))
    shift = 0.05 * row_bound
    x = np.full(n, 1.0 / np.sqrt(n))
    estimate = 0.0
    for _ in range(POWER_ITER_CAP):
        y = g @ x + shift * x
        norm = float(np.linalg.norm(y * scale)) / scale
        if norm == 0.0:
            return 0.0
        x = y / norm
        new_estimate = float(x @ (g @ x)) + shift
        change = abs(new_estimate - estimate)
        if change <= POWER_ITER_TOL * max(abs(new_estimate), 1e-300):
            return new_estimate - shift
        estimate = new_estimate
    raise ConvergenceError(
        f"power iteration did not converge within {POWER_ITER_CAP} iterations",
        residual=change,
    )


def _demand_rhs(graph: ExternalityGraph, hbar: float, p: np.ndarray) -> np.ndarray:
    """b = (1 + hbar) 1 - p for every follower solver; ValueError on a bad shape or a NaN/inf."""
    p = np.asarray(p, dtype=float)
    if p.shape != (graph.n_users,):
        raise ValueError(f"price vector has shape {p.shape}, expected ({graph.n_users},)")
    with np.errstate(over="ignore", invalid="ignore"):
        b = (1.0 + hbar) - p
    if not np.all(np.isfinite(b)):
        raise ValueError(f"demand right-hand side (1 + hbar) - p is not finite (hbar = {hbar})")
    return b


def closed_form_demand(graph: ExternalityGraph, hbar: float, p: np.ndarray) -> DemandProfile:
    """Interior demand solution x = (I - alpha G)^{-1} [(1 + hbar) 1 - p].

    Every user is labelled interior, the branch it solves. No clamping:
    DemandProfile.out_of_box tells callers when that assumption fails.
    """
    x = graph.solve(_demand_rhs(graph, hbar, p))
    return DemandProfile(x, np.full(graph.n_users, Segment.INTERIOR, dtype=np.int8))


def _element_sweep(matrix: np.ndarray, diag: np.ndarray, target: np.ndarray,
                   x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """One projected Gauss-Seidel sweep, row by row, on a copy of x."""
    x = x.copy()
    for i in range(x.size):
        step = (target[i] - matrix[i] @ x) / diag[i]
        x[i] = min(hi, max(lo, x[i] + step))
    return x


def gauss_seidel_state(matrix: np.ndarray, target: np.ndarray,
                       x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U x, target - K x) at x, the state gauss_seidel_sweep carries.

    K = matrix, C-ordered, split as K = D + L + U (diagonal, strictly
    lower, strictly upper).
    """
    kt = matrix.T  # Fortran-ordered: BLAS reads K through trans=1
    upper = dtrmv(kt, x, lower=1, trans=1, diag=1) - x
    return upper, target - upper - dtrmv(kt, x, trans=1)


def gauss_seidel_sweep(matrix: np.ndarray, diag: np.ndarray, target: np.ndarray,
                       x: np.ndarray, upper: np.ndarray, residual: np.ndarray,
                       lo: float, hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One projected Gauss-Seidel sweep on K x = target over the box [lo, hi].

    K = matrix (C-ordered, positive diagonal diag) splits as D + L + U.
    upper = U x and residual = target - K x at the incoming x (see
    gauss_seidel_state). Returns the new iterate with its U x and residual.

    The sweep predicts which rows clamp from the Jacobi update
    x + residual / diag. With no clamped row it is one forward substitution
    (D + L) x' = target - U x; (D + L) x' is then that right-hand side, so
    the new residual needs only U x', which the next sweep needs anyway.
    Otherwise it holds the predicted rows at their bound
    and solves the free rows. Either result is kept only when every free
    row lands in the box and every held row's unclamped update lies past
    its bound: then it is the row-by-row sweep's result up to round-off.
    Failing that, this one sweep runs row by row. K is read through
    K.T, a Fortran-ordered view, so no n x n array is copied.
    """
    kt = matrix.T
    rhs = target - upper
    jacobi = x + residual / diag
    new = None
    if lo < jacobi.min() and jacobi.max() < hi:
        solved = dtrsv(kt, rhs, trans=1)
        if lo <= solved.min() and solved.max() <= hi:
            new, lower = solved, rhs  # (D + L) x' = rhs
    else:
        at_lo, at_hi = jacobi <= lo, jacobi >= hi
        free = ~(at_lo | at_hi)
        held = np.where(at_lo, lo, np.where(at_hi, hi, 0.0))
        solved = held.copy()
        if free.any():
            free_rhs = rhs - dtrmv(kt, held, trans=1) + diag * held  # rhs - L held
            block = matrix[np.ix_(free, free)]
            solved[free] = dtrsv(block.T, free_rhs[free], trans=1)
        lower = dtrmv(kt, solved, trans=1)
        unclamped = (rhs - lower + diag * solved) / diag
        if (np.all((solved[free] >= lo) & (solved[free] <= hi))
                and np.all(unclamped[at_hi] >= hi) and np.all(unclamped[at_lo] <= lo)):
            new = solved
    if new is None:
        new = _element_sweep(matrix, diag, target, x, lo, hi)
        lower = dtrmv(kt, new, trans=1)
    upper = dtrmv(kt, new, lower=1, trans=1, diag=1) - new
    return new, upper, target - upper - lower


def lcp_demand(graph: ExternalityGraph, hbar: float, p: np.ndarray) -> DemandProfile:
    """Unique clamped demand equilibrium via projected Gauss-Seidel.

    Each sweep (gauss_seidel_sweep on A = I - alpha G, whose diagonal is 1)
    updates x_i <- clamp(b_i + alpha (G x)_i, 0, 1) in user order, and the
    iteration stops when the fixed-point residual
    || x - clamp(b + alpha G x, 0, 1) ||_inf drops below LCP_TOL. The sweep
    returns r = b - A x, so that residual is || x - clamp(x + r, 0, 1) ||_inf
    and costs no further pass over A. The same r labels the users: below
    -LCP_TOL opt-out, above LCP_TOL saturated, interior between.
    """
    b = _demand_rhs(graph, hbar, p)
    a_mat = graph.system_matrix
    diag = np.diagonal(a_mat)
    x = np.clip(b, 0.0, 1.0)
    upper, r = gauss_seidel_state(a_mat, b, x)
    sweeps_cap = max(1, LCP_ITER_CAP // max(graph.n_users, 1))
    for _ in range(sweeps_cap):
        x, upper, r = gauss_seidel_sweep(a_mat, diag, b, x, upper, r, 0.0, 1.0)
        residual = float(np.max(np.abs(x - np.clip(x + r, 0.0, 1.0))))
        if residual < LCP_TOL:
            # Segment codes: OPT_OUT 0, INTERIOR 1, SATURATED 2
            return DemandProfile(x, (r >= -LCP_TOL).astype(np.int8) + (r > LCP_TOL))
    raise ConvergenceError(
        "projected Gauss-Seidel hit its iteration cap",
        last_iterate=x, residual=residual,
    )


def brute_force_lcp(graph: ExternalityGraph, hbar: float, p: np.ndarray) -> DemandProfile:
    """Demand equilibrium by exhaustive enumeration of user partitions.

    Tries all 3^n assignments of users to opt-out / interior / saturated,
    solves the linear subsystem on the interior set, and keeps assignments
    whose sign conditions all hold. Exactly one must survive; anything else
    is reported as a uniqueness violation. Assignments are grouped by their
    interior set: its block is factored once for the right-hand sides of
    every opt-out/saturated split of the other users, and the sign
    conditions are checked for all splits at once. Verification oracle
    only (n <= 12).
    """
    n = graph.n_users
    if n > BRUTE_FORCE_MAX_USERS:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_MAX_USERS} users, got {n}")
    b = _demand_rhs(graph, hbar, p)
    a_mat = graph.system_matrix
    consistent: list[tuple[np.ndarray, np.ndarray]] = []
    for free in itertools.product((False, True), repeat=n):
        free = np.array(free, dtype=bool)
        rest = np.flatnonzero(~free)
        # column k saturates the users of rest whose bit is set in k
        splits = np.arange(2**rest.size)
        ones = (splits[None, :] >> np.arange(rest.size)[:, None]) & 1 == 1
        x = np.zeros((n, splits.size))
        x[rest] = ones
        keep = np.ones(splits.size, dtype=bool)
        if free.any():
            sub = a_mat[np.ix_(free, free)]
            rhs = b[free, None] - a_mat[np.ix_(free, rest)] @ x[rest]
            try:
                x_free = np.linalg.solve(sub, rhs)
            except np.linalg.LinAlgError:
                continue
            # closed unit box, tiny slack for the solve's roundoff
            keep &= np.all(np.isfinite(x_free), axis=0)
            keep &= np.all((x_free >= -1e-12) & (x_free <= 1.0 + 1e-12), axis=0)
            x[free] = np.clip(x_free, 0.0, 1.0)
        residual = b[:, None] - a_mat @ x
        keep &= np.all(np.where(ones, residual[rest] > 0, residual[rest] < 0), axis=0)
        for k in np.flatnonzero(keep):
            partition = np.full(n, Segment.INTERIOR, dtype=np.int8)
            partition[rest] = np.where(ones[:, k], Segment.SATURATED, Segment.OPT_OUT)
            consistent.append((x[:, k], partition))
    if len(consistent) != 1:
        raise UniquenessViolation(
            f"expected exactly one consistent partition, found {len(consistent)}"
        )
    return DemandProfile(*consistent[0])  # copies x out of its batch
