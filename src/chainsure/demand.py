"""Follower subgame: user demand under social externality.

The users' purchase probabilities solve a box-bounded linear
complementarity system, whose solution is unique when alpha * rho(G) < 1;
ExternalityGraph certifies that from the LU factors of I - alpha G that
the solvers use, so no solve computes rho. Two solvers are provided:
the closed form valid when every user is interior, and a projected
Gauss-Seidel iteration for the general clamped case (after an O(n) test
for all users saturated). Their verification oracle, exhaustive
partition enumeration, lives in chainsure.oracles.

Projected Gauss-Seidel is shared: GaussSeidel, one object per matrix
and box, carries its clamped sweeps' free blocks and runs the one loop,
settle, with the one stopping rule, projected_norm. The clamped demand
makes one on I - alpha G over [0, 1], the provider's best response one
on its price curvature M + M^T over the price box. A sweep is BLAS
triangular kernels that read the matrix once and return the new
iterate's residual with it; a wrong clamp prediction is corrected from
its first wrong row on, never swept row by row.

The six Fortran routines used here (BLAS trmv and trsv, LAPACK getrf,
getrs, getri and gebal, with getri_lwork for getri's blocked workspace)
are bound from scipy's compiled f2py wrapper modules, loaded
by _scipy_linalg_extension from the file next to scipy.linalg's package
without running scipy's or scipy.linalg's package import, which cost
more than a whole paper sweep.
"""

from __future__ import annotations

import enum
import math
import os
import sys
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .errors import ConfigurationError, ContractionViolation, ConvergenceError

POWER_ITER_TOL = 1e-10
POWER_ITER_CAP = 100_000
LCP_TOL = 1e-10
LCP_ITER_CAP = 10**6
# side of the square tiles symmetric_influence adds M^T into M by
INFLUENCE_TILE = 128
# rows per diagonal block of GaussSeidel.sweep's clamped branch, so the
# largest block it gathers is SWEEP_BLOCK x SWEEP_BLOCK
SWEEP_BLOCK = 128


def _load_extension(directory: str, qualified: str):
    """The compiled module `qualified`, loaded from its file in `directory`."""
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(qualified)
    if spec is None:
        raise ImportError(f"no compiled module {qualified.rpartition('.')[2]} in {directory}",
                          name=qualified, path=directory)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _scipy_linalg_extension(name: str):
    """scipy.linalg's compiled module `name`, without importing scipy.

    find_spec locates the scipy package without running its __init__, and
    the extension file is loaded from next to scipy/linalg/__init__.py,
    which is not run either. Where the load raises ImportError, scipy's
    __init__ is run and the load tried once more: on some platforms, such
    as Windows wheels, that __init__ is what puts the bundled BLAS/LAPACK
    library on the search path. The module goes into sys.modules under its
    own name, so a later `import scipy.linalg` shares it, and one loaded
    already is reused.
    """
    qualified = f"scipy.linalg.{name}"
    module = sys.modules.get(qualified)
    if module is not None:
        return module
    scipy_spec = find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("scipy is not installed", name="scipy")
    directory = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    try:
        module = _load_extension(directory, qualified)
    except ImportError:
        import scipy  # run for its __init__, which sets up the library path
        module = _load_extension(directory, qualified)
    sys.modules[qualified] = module
    return module


_fblas = _scipy_linalg_extension("_fblas")
_flapack = _scipy_linalg_extension("_flapack")
dtrmv, dtrsv = _fblas.dtrmv, _fblas.dtrsv
dgetrf, dgetrs, dgebal = _flapack.dgetrf, _flapack.dgetrs, _flapack.dgebal
dgetri, dgetri_lwork = _flapack.dgetri, _flapack.dgetri_lwork


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


def lu_inverse(lu_and_piv: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """a^{-1} from lu_factor(a), Fortran-ordered, by LAPACK getri.

    getri inverts a copy of the factors, so they are never overwritten. It
    is given the workspace getri_lwork asks for, with which it runs
    blocked (4/3 n^3 flops, against 2 n^3 for getrs on the identity); the
    wrapper's default of 3 n would run it unblocked.
    """
    lu, piv = lu_and_piv
    lwork, info = dgetri_lwork(lu.shape[0])
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK getri_lwork")
    inverse, info = dgetri(lu, piv, lwork=int(lwork))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK getri")
    if info > 0:
        raise np.linalg.LinAlgError(f"diagonal number {info} of the LU factor is exactly zero")
    return inverse


class Segment(enum.IntEnum):
    """Which branch of the demand system a user sits on."""

    OPT_OUT = 0      # x = 0, strictly negative surplus margin
    INTERIOR = 1     # 0 <= x <= 1, zero margin
    SATURATED = 2    # x = 1, strictly positive margin


@dataclass(frozen=True, eq=False)
class ExternalityGraph:
    """The demand system A = I - alpha G of nonnegative influence weights G.

    weights[i, j] is how strongly user j's purchase decision raises user i's
    utility; the diagonal must be zero. alpha scales the whole network.
    weights is read once, to build A, and not kept: the graph holds A
    (system_matrix, read-only), its LU factors and what solvers derive
    from them, never a copy of G. I - A is exactly fl(alpha G) off the
    diagonal and 0 on it. A graph exists only when alpha * rho(G) < 1,
    the condition for a unique demand equilibrium, so every solver may
    assume it.

    The constructor decides that condition from the factorization every
    solver needs. No off-diagonal entry of A is positive, and for such a
    matrix alpha * rho(G) < 1 holds exactly when some x > 0 has A x > 0
    (Berman & Plemmons 1994, ch. 6). ones_image, x = A^{-1} 1, is that
    certificate: construction requires x > 0 and the product A x above
    1/2 (it is 1 up to round-off). Where x fails, as where the weights lie
    many orders of magnitude apart and A x misses 1 in round-off alone,
    the same test runs once on D^{-1} A D, D = diag(d) from LAPACK gebal's
    balancing of A, which is an M-matrix exactly when A is: y = A^{-1} d
    must be positive with A y above d / 2. Where both fail, construction
    raises ContractionViolation if alpha * rho(G) >= 1, else a
    ConfigurationError naming the failed certificate. alpha_rho is
    otherwise computed only when read, by `check` and library users.
    """

    weights: InitVar[np.ndarray]
    alpha: float
    system_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.size == 0:
            raise ValueError(f"weights must be a nonempty square matrix, got shape {w.shape}")
        # checked before the factorization, whose own check names no field;
        # min and max pass a NaN on, and make no n x n temporary
        low, high = float(w.min()), float(w.max())
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValueError("externality weights must be finite")
        if low < 0:
            raise ValueError("externality weights must be nonnegative")
        if np.any(np.diagonal(w) != 0):
            raise ValueError("externality weights must have a zero diagonal")
        # written so that NaN fails
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be nonnegative and finite, got {self.alpha}")
        # rounding is monotone, so no product alpha * w_ij exceeds this one
        if not math.isfinite(float(self.alpha) * high):
            raise ConfigurationError(f"alpha * G exceeds the float range (alpha = {self.alpha:g}, "
                                     f"largest weight {high:g})")
        # the bytes of np.eye(n) - alpha * w in one C-ordered n x n array:
        # 0.0 - y keeps +0.0 where alpha * w is +0.0, and the diagonal is +0.0 + 1
        a = np.multiply(self.alpha, w, order="C")
        np.subtract(0.0, a, out=a)
        a.flat[::a.shape[0] + 1] += 1.0
        a.setflags(write=False)
        object.__setattr__(self, "system_matrix", a)
        try:
            certified = self._certified()
        except (ValueError, ArithmeticError):
            # an exactly singular A is itself alpha * rho(G) >= 1, which
            # power iteration may estimate a round-off below 1
            if self.alpha_rho >= 1.0 - POWER_ITER_TOL:
                raise ContractionViolation(self.alpha_rho) from None
            raise
        if not certified:
            if self.alpha_rho >= 1.0 - POWER_ITER_TOL:
                raise ContractionViolation(self.alpha_rho)
            raise ConfigurationError(f"the certificate from the LU of I - alpha G failed for "
                                     f"alpha * rho(G) = {self.alpha_rho:.6g} < 1")

    def _certified(self) -> bool:
        """Whether x = A^{-1} 1 certifies A, or failing that y = A^{-1} d.

        The second test runs only where the first fails, so only such a
        graph runs gebal, whose copy of A is its one n x n array.
        """
        a = self.system_matrix
        x = self.ones_image
        if np.all(x > 0.0) and np.all(a @ x > 0.5):
            return True
        scale = dgebal(a, scale=1, permute=0)[3]
        y = self.solve(scale)
        return bool(np.all(y > 0.0) and np.all(a @ y > 0.5 * scale))

    @property
    def n_users(self) -> int:
        return self.system_matrix.shape[0]

    @cached_property
    def _lu(self):
        return lu_factor(self.system_matrix)

    def solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Solve (I - alpha G) x = rhs (or its transpose) via the cached LU.

        rhs is copied first, since lu_solve may solve in place.
        """
        out = lu_solve(self._lu, np.array(rhs, dtype=float), trans=1 if transpose else 0)
        if not np.logical_and.reduce(np.isfinite(out), axis=None):
            raise np.linalg.LinAlgError("demand system is numerically singular")
        return out

    @cached_property
    def ones_image(self) -> np.ndarray:
        """(I - alpha G)^{-1} 1, the amplification each user gets from the network."""
        out = self.solve(np.ones(self.n_users))
        out.setflags(write=False)
        return out

    @cached_property
    def row_sums(self) -> np.ndarray:
        """A 1 = (I - alpha G) 1: b - A 1 are the margins at x = 1."""
        out = np.add.reduce(self.system_matrix, axis=1)
        out.setflags(write=False)
        return out

    @cached_property
    def alpha_rho(self) -> float:
        """alpha * rho(G), below 1 for every graph: the Perron root of I - A
        with its diagonal set to 0, which is exactly fl(alpha G)."""
        scaled = np.subtract(0.0, self.system_matrix)
        np.fill_diagonal(scaled, 0.0)
        return spectral_radius(scaled)

    @cached_property
    def total_amplification(self) -> float:
        """1^T (I - alpha G)^{-1} 1."""
        return float(np.sum(self.ones_image))

    @cached_property
    def symmetric_influence(self) -> np.ndarray:
        """M + M^T with M = (I - alpha G)^{-1}: minus the provider's price Hessian.

        Bitwise symmetric (a + b == b + a in floating point) and C-ordered,
        so its transpose is a Fortran-ordered view that BLAS reads without
        a copy. M comes Fortran-ordered from LAPACK getri on a copy of the
        cached LU, with getri's blocked workspace (lu_inverse), and M + M^T
        overwrites it one pair of mirrored tiles at a time, both read
        before either is written, so no second n x n array is made.
        Being symmetric, the Fortran-ordered result's transpose is the
        C-ordered M + M^T.
        """
        n = self.n_users
        out = lu_inverse(self._lu)
        for i in range(0, n, INFLUENCE_TILE):
            rows = slice(i, i + INFLUENCE_TILE)
            for j in range(i, n, INFLUENCE_TILE):
                cols = slice(j, j + INFLUENCE_TILE)
                tile = out[rows, cols] + out[cols, rows].T
                out[rows, cols] = tile
                out[cols, rows] = tile.T
        out = out.T
        out.setflags(write=False)
        return out

    @cached_property
    def memo(self) -> dict:
        """Results that solvers derive from this graph, kept as long as it lives.

        Each solver keys its entries by every other input they depend on,
        so an entry is exactly what recomputing it would give.
        """
        return {}


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
        # np.sum's reduction, without its Python wrapper
        return float(np.add.reduce(self.x, axis=None))

    def out_of_box(self, tol: float = 1e-9) -> bool:
        """True when any component leaves [0, 1] by more than tol."""
        # np.any's reductions, without its Python wrapper
        return bool(np.logical_or.reduce(self.x < -tol, axis=None)
                    or np.logical_or.reduce(self.x > 1.0 + tol, axis=None))


# perfbench/tracer.py wraps this by module path, so it keeps its name and module
def spectral_radius(matrix: np.ndarray) -> float:
    """Perron root of a nonnegative matrix; exactly 0.0 when its digraph is acyclic.

    LAPACK gebal, given the transpose, permutes it to block triangular
    form: each row or column with no off-diagonal weight among those left,
    as at a sink or a source, is set aside, its diagonal entry an
    eigenvalue. It balances the rest, the core, by a diagonal similarity of
    powers of two (Parlett & Reinsch 1969), which keeps the spectrum exactly
    and brings weights that span more than the float range within it where
    any diagonal similarity can; the transpose of its result is a C-ordered
    D G D^-1. No diagonal entry exceeds rho, so rho is the larger of the
    largest one and the core's root: with no core of two rows or more, that
    entry, 0 for an acyclic digraph. A matrix that is not square and 2-D,
    or has a negative or non-finite entry, raises ValueError.

    The core is scaled once by its largest entry, so no iterate overflows;
    weights still so far apart that the scaling pushes one below the normal
    float range raise ConvergenceError.

    Shifted power iteration then stops on the Collatz-Wielandt bracket,
    min_i (g x)_i / x_i <= rho <= max_i (g x)_i / x_i for any x > 0, once
    it is narrower than POWER_ITER_TOL relative; at the iteration cap it
    raises ConvergenceError, so no value it returns is further from rho.
    Rows whose ratio lags the upper bound may reach only a cycle of
    smaller root and never rise to rho: the lower bound is taken on x
    with them set to 0, which is still a bound. The shift, half the upper
    bound, breaks the tie between rho and the other eigenvalues of modulus
    rho of a periodic matrix; tied to rho rather than to the row sums, it
    finds a small root as fast as a large one. This is a diagnostic: no
    graph computes it unless alpha_rho is read.
    """
    # checked here, since LAPACK gebal prints a message for either case
    weights = np.asarray_chkfinite(matrix, dtype=float)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ValueError(f"spectral_radius needs a square 2-D matrix, got shape {weights.shape}")
    if weights.size == 0:
        return 0.0
    # min makes no n x n temporary
    if weights.min() < 0.0:
        raise ValueError("spectral_radius needs a nonnegative matrix, got a negative entry")
    balanced, lo, hi, _, _ = dgebal(weights.T, scale=1, permute=1)
    top_diagonal = float(np.diagonal(balanced).max())
    if hi <= lo:
        return top_diagonal
    g = balanced[lo:hi + 1, lo:hi + 1].T  # gebal's own copy, scaled in place below
    scale = float(g.max())
    # division rounds monotonically, so the least positive weight falls lowest
    if np.min(g, where=g > 0.0, initial=np.inf) / scale < np.finfo(float).tiny:
        # a weight pushed below the normal range has lost its digits, so
        # the scaled matrix no longer has the Perron root asked for
        nonzero = weights[weights > 0.0]
        raise ConvergenceError(f"weights from {nonzero.min():.3g} to {nonzero.max():.3g} span "
                               "more than the float range")
    g /= scale
    x = np.ones(g.shape[0])
    for _ in range(POWER_ITER_CAP):
        y = g @ x
        ratios = y / x
        upper = float(ratios.max())
        lagging = ratios < (1.0 - POWER_ITER_TOL) * upper
        if lagging.any():
            kept = ~lagging
            ratios = (g @ np.where(lagging, 0.0, x))[kept] / x[kept]
        lower = float(ratios.min())
        width = (upper - lower) / upper
        if width <= POWER_ITER_TOL:
            return max(top_diagonal, scale * 0.5 * (lower + upper))
        x = y + 0.5 * upper * x
        x /= x.max()
    raise ConvergenceError(
        f"power iteration did not converge within {POWER_ITER_CAP} iterations",
        residual=width,
    )


def _demand_rhs(graph: ExternalityGraph, hbar: float, p: np.ndarray) -> np.ndarray:
    """b = (1 + hbar) 1 - p for every follower solver; ValueError on a bad shape or a NaN/inf."""
    p = np.asarray(p, dtype=float)
    if p.shape != (graph.n_users,):
        raise ValueError(f"price vector has shape {p.shape}, expected ({graph.n_users},)")
    with np.errstate(over="ignore", invalid="ignore"):
        b = (1.0 + hbar) - p
    if not np.logical_and.reduce(np.isfinite(b)):
        raise ValueError(f"demand right-hand side (1 + hbar) - p is not finite (hbar = {hbar})")
    return b


def closed_form_demand(graph: ExternalityGraph, hbar: float, p: np.ndarray) -> DemandProfile:
    """Interior demand solution x = (I - alpha G)^{-1} [(1 + hbar) 1 - p].

    Every user is labelled interior, the branch it solves. No clamping:
    DemandProfile.out_of_box tells callers when that assumption fails.
    """
    x = graph.solve(_demand_rhs(graph, hbar, p))
    return DemandProfile(x, np.full(graph.n_users, Segment.INTERIOR, dtype=np.int8))


class GaussSeidel:
    """Projected Gauss-Seidel on K x = target over the box [lo, hi], for one matrix K.

    K = matrix, C-ordered with a positive diagonal, splits as D + L + U
    (diagonal, strictly lower, strictly upper); BLAS reads it through kt,
    the Fortran-ordered view K.T, with trans=1. free_blocks maps a
    diagonal block's first row to (mask bytes, free mask, K[free, free]
    within that block) of its last clamped pass, gathered again only when a
    pass's free rows differ. corrections counts correction passes so far.
    inside is the last sweep's iterate where it is known to lie strictly
    inside the box, lo < min and max < hi, else None. BLAS flags are
    passed positionally, which skips f2py's keyword parsing.
    """

    __slots__ = ("matrix", "kt", "diag", "lo", "hi", "free_blocks", "corrections", "inside")

    def __init__(self, matrix: np.ndarray, lo: float, hi: float):
        self.matrix, self.kt, self.diag = matrix, matrix.T, np.diagonal(matrix)
        self.lo, self.hi = lo, hi
        self.free_blocks = {}
        self.corrections = 0
        self.inside = None

    def state(self, target: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(U x, target - K x) at x, the state sweep carries."""
        kt = self.kt
        upper = dtrmv(kt, x, 0, 1, 1, 1, 1) - x  # lower=1, trans=1, diag=1
        return upper, target - upper - dtrmv(kt, x, 0, 1, 0, 1)  # trans=1

    def _clamped_block(self, rows: np.ndarray, start: int, diag: np.ndarray,
                       rhs: np.ndarray, guess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The clamped branch on one diagonal block; returns its new rows
        and (D + L) times them within the block.

        rows is K's row slab from row start (K itself for a one-block
        sweep), diag and guess the block's diagonal and the update that
        predicts its clamps, rhs its t - U x minus the slab's product with
        the final rows before it. A pass holds the predicted rows at their
        bound and solves the free rows; a row is the row-by-row sweep's when
        clipping where(free, solved, unclamped) to the box gives it back.
        The first row that is not reads only final rows, so its clipped
        update is exact: it and the rows before it are settled, the rows
        after it are predicted again from where(free, solved, unclamped),
        and a correction pass runs. The search starts after the settled
        rows, so a block runs at most as many corrections as it has rows,
        even where round-off or a NaN flips a settled row.
        """
        lo, hi = self.lo, self.hi
        # BLAS reads it in place: a view when the block is all of K, else one
        # copy of at most SWEEP_BLOCK x SWEEP_BLOCK for every pass's kernels
        kt = np.asfortranarray(rows[:, start:start + diag.size].T)
        block = kt.T
        at_lo, at_hi = guess <= lo, guess >= hi
        settled = 0
        while True:
            free = ~(at_lo | at_hi)
            solved = np.where(at_lo, lo, np.where(at_hi, hi, 0.0))
            if np.logical_or.reduce(free):
                # rhs - L held, read before the free rows are written in
                free_rhs = rhs - dtrmv(kt, solved, 0, 1, 0, 1) + diag * solved  # trans=1
                key = free.tobytes()  # one byte per row, compared at C speed
                entry = self.free_blocks.get(start)
                if entry is None or entry[0] != key:
                    entry = self.free_blocks[start] = (
                        key, free, block.compress(free, 0).compress(free, 1))
                solved[free] = dtrsv(entry[2].T, free_rhs[free], 1, 0, 0, 1)  # trans=1
            lower = dtrmv(kt, solved, 0, 1, 0, 1)  # trans=1
            checked = np.where(free, solved, (rhs - lower + diag * solved) / diag)
            missed = np.minimum(np.maximum(checked[settled:], lo), hi) != solved[settled:]
            if not np.logical_or.reduce(missed):
                return solved, lower
            first = settled + int(missed.argmax())
            at_lo[first:], at_hi[first:] = checked[first:] <= lo, checked[first:] >= hi
            settled = first + 1
            self.corrections += 1

    def sweep(self, target: np.ndarray, x: np.ndarray, upper: np.ndarray,
              residual: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One sweep from x, whose upper = U x and residual = target - K x
        (see state); returns the new iterate with its U x and residual.

        The sweep predicts which rows clamp from the Jacobi update
        x + residual / diag. With none, it is one forward substitution
        (D + L) x' = target - U x, kept when x' is in the box; (D + L) x' is
        then that right-hand side, so the new residual needs only U x'.
        Otherwise, predicting from the Jacobi update or from the x' that left
        the box, it runs _clamped_block on diagonal blocks of at most
        SWEEP_BLOCK rows, each once the rows before it are final. The result
        is the row-by-row sweep's up to round-off. inside is a kept x' whose
        min and max lie strictly inside the box; every other path sets None.
        """
        matrix, kt, diag, lo, hi = self.matrix, self.kt, self.diag, self.lo, self.hi
        rhs = target - upper
        guess = x + residual / diag
        self.inside = None
        if lo < np.minimum.reduce(guess) and np.maximum.reduce(guess) < hi:
            solved = dtrsv(kt, rhs, 1, 0, 0, 1)  # trans=1
            low, high = np.minimum.reduce(solved), np.maximum.reduce(solved)
            if lo <= low and high <= hi:
                self.inside = solved if lo < low and high < hi else None
                upper = dtrmv(kt, solved, 0, 1, 1, 1, 1) - solved  # lower=1, trans=1, diag=1
                return solved, upper, target - upper - rhs  # (D + L) x' = rhs
            guess = solved  # correcting x' from its first row out of the box
            self.corrections += 1
        if x.size <= SWEEP_BLOCK:
            new, lower = self._clamped_block(matrix, 0, diag, rhs, guess)
        else:
            new, lower = np.empty_like(x), np.empty_like(x)
            for start in range(0, x.size, SWEEP_BLOCK):
                part = slice(start, start + SWEEP_BLOCK)
                # the slab left of the block, read as a strided view
                prior = matrix[part, :start] @ new[:start]
                new[part], within = self._clamped_block(matrix[part], start, diag[part],
                                                        rhs[part] - prior, guess[part])
                lower[part] = prior + within
        upper = dtrmv(kt, new, 0, 1, 1, 1, 1) - new  # lower=1, trans=1, diag=1
        return new, upper, target - upper - lower

    def projected_norm(self, x: np.ndarray, residual: np.ndarray) -> float:
        """Infinity norm of the residual t - K x with components pointing
        out of the box zeroed; zeroing one at a bound is clipping it to 0.
        The box test is skipped only when x is inside itself, the same bits.
        """
        lo, hi = self.lo, self.hi
        if x is self.inside or lo < np.minimum.reduce(x) and np.maximum.reduce(x) < hi:
            return float(np.maximum.reduce(np.abs(residual)))
        pg = np.where(x <= lo, np.maximum(residual, 0.0),
                      np.where(x >= hi, np.minimum(residual, 0.0), residual))
        return float(np.maximum.reduce(np.abs(pg)))

    def settle(self, target: np.ndarray, x: np.ndarray, upper: np.ndarray, residual: np.ndarray,
               tolerance: float, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Sweep from x, upper, residual (see state) until projected_norm is
        below tolerance, at most cap >= 1 times; returns the last sweep's
        (x, U x, residual) and that norm, without raising at the cap.
        """
        for _ in range(cap):
            x, upper, residual = self.sweep(target, x, upper, residual)
            norm = self.projected_norm(x, residual)
            if norm < tolerance:
                break
        return x, upper, residual, norm


def _segments(r: np.ndarray) -> np.ndarray:
    """Segment codes (OPT_OUT 0, INTERIOR 1, SATURATED 2) from the margins
    r = b - A x: opt-out below -LCP_TOL, saturated above LCP_TOL."""
    return (r >= -LCP_TOL).astype(np.int8) + (r > LCP_TOL)


def lcp_demand(graph: ExternalityGraph, hbar: float, p: np.ndarray) -> DemandProfile:
    """Unique clamped demand equilibrium via projected Gauss-Seidel.

    x = 1 is the unique solution exactly when no margin r = b - A 1 is
    negative, which is tested first, in O(n) from graph.row_sums. Otherwise
    GaussSeidel.settle on A = I - alpha G over [0, 1] sweeps
    x_i <- clamp(b_i + alpha (G x)_i, 0, 1) in user order until the
    projected residual of r = b - A x drops below LCP_TOL: 0 exactly at the
    solution, and componentwise no smaller than || x - clamp(x + r, 0, 1) ||.
    The sweep returns r, so the test makes no further pass over A. Either
    r labels the users (_segments).
    """
    b = _demand_rhs(graph, hbar, p)
    r = b - graph.row_sums
    if np.minimum.reduce(r) >= 0.0:
        return DemandProfile(np.ones(graph.n_users), _segments(r))
    solver = GaussSeidel(graph.system_matrix, 0.0, 1.0)
    x = np.clip(b, 0.0, 1.0)
    x, _, r, residual = solver.settle(b, x, *solver.state(b, x), LCP_TOL,
                                      max(1, LCP_ITER_CAP // graph.n_users))
    if not residual < LCP_TOL:  # written so that NaN raises
        raise ConvergenceError("projected Gauss-Seidel hit its iteration cap",
                               last_iterate=x, residual=residual)
    return DemandProfile(x, _segments(r))

