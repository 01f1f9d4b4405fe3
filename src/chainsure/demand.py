"""Follower subgame: user demand under social externality.

The users' purchase probabilities solve a box-bounded linear
complementarity system, whose solution is unique when alpha * rho(G) < 1;
ExternalityGraph certifies that from the LU factors of I - alpha G that
the solvers use, so no solve computes rho. Three solvers are provided:
the closed form valid when every user is interior, a projected
Gauss-Seidel iteration for the general clamped case, and an exhaustive
partition enumeration used as the verification oracle on small instances.

The projected Gauss-Seidel sweep itself (gauss_seidel_sweep) is shared:
the clamped demand runs it on I - alpha G, and the provider's best
response runs it on its price curvature M + M^T. A sweep is BLAS
triangular kernels that read the matrix once and return the new
iterate's residual with it.

The six Fortran routines used here (BLAS trmv and trsv, LAPACK getrf,
getrs, getri and gebal, with getri_lwork for getri's blocked workspace)
are bound from scipy's compiled f2py wrapper modules, loaded
by _scipy_linalg_extension from the file next to scipy.linalg's package
without running scipy's or scipy.linalg's package import, which cost
more than a whole paper sweep.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
import sys
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .errors import ConfigurationError, ContractionViolation, ConvergenceError, UniquenessViolation

POWER_ITER_TOL = 1e-10
POWER_ITER_CAP = 100_000
LCP_TOL = 1e-10
LCP_ITER_CAP = 10**6
BRUTE_FORCE_MAX_USERS = 12
# side of the square tiles symmetric_influence adds M^T into M by
INFLUENCE_TILE = 128
# rows per diagonal block of gauss_seidel_sweep's clamped branch, so the
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
    entry, 0 for an acyclic digraph. A non-finite matrix raises ValueError.

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
    if weights.size == 0:
        return 0.0
    balanced, lo, hi, _, _ = dgebal(weights.T, scale=1, permute=1)
    top_diagonal = float(np.diagonal(balanced).max())
    if hi <= lo:
        return top_diagonal
    core = balanced[lo:hi + 1, lo:hi + 1].T
    scale = float(core.max())
    g = core / scale
    if np.any((core > 0.0) & (g < np.finfo(float).tiny)):
        # a weight pushed below the normal range has lost its digits, so
        # the scaled matrix no longer has the Perron root asked for
        nonzero = weights[weights > 0.0]
        raise ConvergenceError(f"weights from {nonzero.min():.3g} to {nonzero.max():.3g} span "
                               "more than the float range")
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


def _element_sweep(matrix: np.ndarray, diag: np.ndarray, target: np.ndarray,
                   x: np.ndarray, lo: float, hi: float, start: int = 0) -> np.ndarray:
    """One projected Gauss-Seidel sweep, row by row, on a copy of x.

    matrix, diag and target hold rows start, start + 1, ... of K and of
    its diagonal and target; the rows of x before start are taken as
    already swept. Each row's dot product is the row view's .dot, the same
    BLAS ddot as matrix[i] @ x at less call overhead; the scalar steps
    around it run on Python floats, which round exactly as numpy's do.
    """
    out = x.copy()
    for i, (row, x_i, t_i, d_i) in enumerate(
            zip(matrix, x[start:start + len(diag)].tolist(), target.tolist(), diag.tolist()),
            start):
        step = (t_i - float(row.dot(out))) / d_i
        out[i] = min(hi, max(lo, x_i + step))
    return out


def gauss_seidel_state(matrix: np.ndarray, target: np.ndarray,
                       x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U x, target - K x) at x, the state gauss_seidel_sweep carries.

    K = matrix, C-ordered, split as K = D + L + U (diagonal, strictly
    lower, strictly upper).
    """
    kt = matrix.T  # Fortran-ordered: BLAS reads K through trans=1
    upper = dtrmv(kt, x, lower=1, trans=1, diag=1) - x
    return upper, target - upper - dtrmv(kt, x, trans=1)


class FreeBlock:
    """The clamped sweep's free blocks, one per diagonal block of at most
    SWEEP_BLOCK rows, carried between the sweeps of one matrix so that each
    is gathered again only when its block's predicted free rows change.

    entries maps a diagonal block's first row to (mask bytes, free mask,
    K[free, free] within that block), C-ordered.
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries = {}

    def of(self, start: int, block: np.ndarray, free: np.ndarray) -> np.ndarray:
        key = free.tobytes()  # one byte per row, compared at C speed
        entry = self.entries.get(start)
        if entry is None or entry[0] != key:
            entry = self.entries[start] = (key, free, block.compress(free, 0).compress(free, 1))
        return entry[2]


def _clamped_solve_kept(free: np.ndarray, solved: np.ndarray, unclamped: np.ndarray,
                        lo: float, hi: float) -> bool:
    """Whether the clamped branch's result is the row-by-row sweep's.

    solved holds every row outside free at the bound it is held at. A free
    row is kept when it lies in the box, a held row when its unclamped
    update lies past its bound. Both say that clipping to [lo, hi] gives
    solved back, so the test is one clip over every row.
    """
    checked = np.where(free, solved, unclamped)
    return bool(np.logical_and.reduce(np.minimum(np.maximum(checked, lo), hi) == solved))


def _clamped_block(rows: np.ndarray, start: int, diag: np.ndarray, target: np.ndarray,
                   x: np.ndarray, rhs: np.ndarray, jacobi: np.ndarray, lo: float, hi: float,
                   free_block: FreeBlock) -> tuple[np.ndarray, np.ndarray]:
    """The clamped branch on one diagonal block; returns its new rows
    and (D + L) times them within the block.

    rows is K's row slab from row start, diag, target and jacobi the
    block's entries, and rhs the block's t - U x minus the slab's product
    with the rows before it, which x already holds final. The rows
    predicted to clamp are held at their bound and the free rows solved.
    The result is kept when _clamped_solve_kept says it is the row-by-row
    sweep's; failing that, the block's rows run row by row.
    """
    block = rows[:, start:start + diag.size]
    # Fortran-ordered; the BLAS wrapper reads it in place when the block is
    # all of K and copies it otherwise, at most SWEEP_BLOCK x SWEEP_BLOCK
    kt = block.T
    at_lo, at_hi = jacobi <= lo, jacobi >= hi
    free = ~(at_lo | at_hi)
    solved = np.where(at_lo, lo, np.where(at_hi, hi, 0.0))
    if np.logical_or.reduce(free):
        # rhs - L held, read before the free rows are written in
        free_rhs = rhs - dtrmv(kt, solved, trans=1) + diag * solved
        sub = free_block.of(start, block, free)
        solved[free] = dtrsv(sub.T, free_rhs[free], trans=1)
    lower = dtrmv(kt, solved, trans=1)
    unclamped = (rhs - lower + diag * solved) / diag
    if not _clamped_solve_kept(free, solved, unclamped, lo, hi):
        solved = _element_sweep(rows, diag, target, x, lo, hi, start)[start:start + diag.size]
        lower = dtrmv(kt, solved, trans=1)
    return solved, lower


def gauss_seidel_sweep(matrix: np.ndarray, diag: np.ndarray, target: np.ndarray,
                       x: np.ndarray, upper: np.ndarray, residual: np.ndarray,
                       lo: float, hi: float, free_block: FreeBlock,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One projected Gauss-Seidel sweep on K x = target over the box [lo, hi].

    K = matrix (C-ordered, positive diagonal diag) splits as D + L + U.
    upper = U x and residual = target - K x at the incoming x (see
    gauss_seidel_state). Returns the new iterate with its U x and residual.
    free_block, one FreeBlock per matrix, carries the clamped branch's
    free blocks from this sweep to the next.

    The sweep predicts which rows clamp from the Jacobi update
    x + residual / diag. With no clamped row it is one forward
    substitution (D + L) x' = target - U x; (D + L) x' is then that
    right-hand side, so the new residual needs only U x', which the next
    sweep needs anyway. Otherwise it works through diagonal blocks of at
    most SWEEP_BLOCK rows (_clamped_block): each holds its predicted rows
    at their bound and solves its free rows, once the rows before it are
    final. A block's right-hand side is its rows of target - U x minus its
    row slab left of the block times those final rows. Either result is
    kept only when every free row lands in the box and every held row's
    unclamped update lies past its bound: then it is the row-by-row
    sweep's result up to round-off. Failing that, the forward substitution
    runs the whole sweep row by row, a clamped block only its own rows.
    K is read through K.T, a Fortran-ordered view, and no array larger
    than SWEEP_BLOCK x SWEEP_BLOCK is gathered.
    """
    kt = matrix.T
    rhs = target - upper
    jacobi = x + residual / diag
    new = None
    if lo < np.minimum.reduce(jacobi) and np.maximum.reduce(jacobi) < hi:
        solved = dtrsv(kt, rhs, trans=1)
        if lo <= np.minimum.reduce(solved) and np.maximum.reduce(solved) <= hi:
            new, lower = solved, rhs  # (D + L) x' = rhs
    elif x.size <= SWEEP_BLOCK:
        new, lower = _clamped_block(matrix, 0, diag, target, x, rhs, jacobi, lo, hi, free_block)
    else:
        new, lower = x.copy(), np.empty_like(x)
        for start in range(0, x.size, SWEEP_BLOCK):
            part = slice(start, start + SWEEP_BLOCK)
            # the slab left of the block, read as a strided view
            prior = matrix[part, :start] @ new[:start]
            new[part], within = _clamped_block(matrix[part], start, diag[part], target[part],
                                               new, rhs[part] - prior, jacobi[part], lo, hi,
                                               free_block)
            lower[part] = prior + within
    if new is None:
        new = _element_sweep(matrix, diag, target, x, lo, hi)
        lower = dtrmv(kt, new, trans=1)
    upper = dtrmv(kt, new, lower=1, trans=1, diag=1) - new
    return new, upper, target - upper - lower


def _fixed_point_residual(x: np.ndarray, r: np.ndarray) -> float:
    """|| x - clip(x + r, 0, 1) ||_inf, in ufuncs rather than np.clip's
    Python wrapper. Where the two clips differ, in the sign of a zero,
    the absolute value erases it."""
    return float(np.maximum.reduce(np.abs(x - np.minimum(np.maximum(x + r, 0.0), 1.0))))


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
    free_block = FreeBlock()
    sweeps_cap = max(1, LCP_ITER_CAP // max(graph.n_users, 1))
    for _ in range(sweeps_cap):
        x, upper, r = gauss_seidel_sweep(a_mat, diag, b, x, upper, r, 0.0, 1.0, free_block)
        residual = _fixed_point_residual(x, r)
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
