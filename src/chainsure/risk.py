"""Attack risk and insurance pricing.

Double-spending success probability as a function of the provider's share
of computing power, the induced loss distribution over that share, the
insurer's expected loss, and the power-transform (proportional hazard)
premium with its penalty for overpricing a well-defended chain.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .specfun import reg_inc_beta

# cells of the midpoint grid over [1/2, 1] behind every premium integral
GRID_INTERVALS = 100
_WIDTH = 0.5 / GRID_INTERVALS
# the grid's nodes as Python floats, the form the scalar kernels run fastest on
_NODES = tuple((0.5 + (np.arange(GRID_INTERVALS) + 0.5) * _WIDTH).tolist())
# distorted survival masses kept per block count (see _block_count)
DISTORTED_MASSES_KEPT = 1024


@dataclass(frozen=True)
class RiskModel:
    """Scalar constants of the attack / claim model.

    blocks_per_period is the expected number of blocks mined during one
    insured period (period length over mean block time); compensation_rate
    and mining_reward are per block.
    """

    blocks_per_period: float
    tx_per_block: int
    compensation_rate: float
    mining_reward: float

    def __post_init__(self):
        if not (np.isfinite(self.blocks_per_period) and self.blocks_per_period > 0):
            raise ValueError(f"blocks_per_period must be positive and finite, got {self.blocks_per_period}")
        if self.tx_per_block <= 0:
            raise ValueError(f"tx_per_block must be positive, got {self.tx_per_block}")
        # compensation_rate == 0 is allowed: it degenerates the insurer out of
        # the game, which some boundary checks rely on.
        if not (0 <= self.compensation_rate < np.inf and 0 <= self.mining_reward < np.inf):
            raise ValueError("compensation_rate and mining_reward must be nonnegative and finite")
        if not (np.isfinite(self.claim_scale) and np.isfinite(self.reward_scale)):
            raise ValueError("blocks_per_period * tx_per_block * compensation_rate (or mining_reward) "
                             "must be finite")

    @property
    def claim_scale(self) -> float:
        """Total claim value at full exposure: blocks/period * tx/block * rate."""
        return self.blocks_per_period * self.tx_per_block * self.compensation_rate

    @property
    def reward_scale(self) -> float:
        """Mining income at full investment: blocks/period * tx/block * reward."""
        return self.blocks_per_period * self.tx_per_block * self.mining_reward


def attack_probability(model: RiskModel, hbar: float) -> float:
    """Probability that a double-spending attack succeeds at investment ratio hbar.

    Certain (1.0) when the honest share is below one half; above that it is
    the regularized incomplete Beta I_w(b*hbar, 1/2) at w = 4(1-hbar)hbar,
    which decays to 0 as hbar approaches 1.
    """
    return _attack_curve(model.blocks_per_period, hbar)


def _attack_curve(blocks_per_period: float, hbar: float) -> float:
    # the model enters the attack probability only through its block count
    if not 0.0 <= hbar <= 1.0:
        raise ValueError(f"investment ratio must lie in [0, 1], got {hbar}")
    if hbar < 0.5:
        return 1.0
    w = 4.0 * (1.0 - hbar) * hbar
    return reg_inc_beta(w, blocks_per_period * hbar, 0.5)


def survival_grid(p_fn: Callable[[float], float]) -> np.ndarray:
    """Midpoint-grid table of B(t) = 1 - integral_{1/2}^{t} p(theta) dtheta.

    Returns B, read-only, at the nodes _NODES of the GRID_INTERVALS-cell
    midpoint grid over [1/2, 1], whose cells are _WIDTH wide. The inner
    integral reuses a prefix sum of the same p evaluations (O(n) instead of
    O(n^2) p calls): the prefix covers whole cells up to the node's left
    edge, plus half a cell at the node's own value. p_fn receives each node
    as a Python float, so a scalar kernel behind it runs on floats rather
    than numpy scalars.
    """
    values = np.array([p_fn(t) for t in _NODES])
    prefix = np.concatenate(([0.0], np.cumsum(values) * _WIDTH))
    survival = 1.0 - (prefix[:-1] + 0.5 * _WIDTH * values)
    survival.setflags(write=False)
    return survival


@functools.lru_cache(maxsize=64)
def _block_count(blocks_per_period: float) -> tuple[dict[float, float], OrderedDict[float, float]]:
    """The table every RiskModel with this block count shares: the attack
    probability at each grid node, keyed by the node, and premium_curve's
    distorted survival masses, keyed by gamma, at most
    DISTORTED_MASSES_KEPT of them, the oldest dropped first. An OrderedDict
    drops its oldest in O(1); a plain dict scans past every slot that
    earlier drops freed at its front.
    """
    return {t: _attack_curve(blocks_per_period, t) for t in _NODES}, OrderedDict()


# Keyed on the model, not its block count, although the table depends on
# blocks_per_period alone: perfbench/test_perfbench.py pins one
# survival_grid call per RiskModel on the paper grids.
@functools.lru_cache(maxsize=64)
def _model_survival(model: RiskModel) -> np.ndarray:
    return survival_grid(_block_count(model.blocks_per_period)[0].__getitem__)


def premium_curve(model: RiskModel) -> Callable[[float], float]:
    """The premium as a function of gamma for one model.

    Fetches the survival table, the claim scale and the distorted masses
    of the model's block count (_block_count) once, so a search that
    prices many gammas skips those lookups, and a gamma revisited on any
    model with the same block count is read back rather than recomputed.
    """
    survival = _model_survival(model)
    masses = _block_count(model.blocks_per_period)[1]
    claim_scale = model.claim_scale

    def curve(gamma: float) -> float:
        # written so that NaN fails
        if not 1.0 <= gamma < math.inf:
            raise ValueError(f"premium coefficient must be >= 1 and finite, got {gamma}")
        mass = masses.get(gamma)
        if mass is None:
            # ndarray.sum's pairwise sum, without its Python wrapper
            mass = float(np.add.reduce(survival ** (1.0 / gamma)) * _WIDTH)
            if len(masses) >= DISTORTED_MASSES_KEPT:
                masses.popitem(last=False)
            masses[gamma] = mass
        return claim_scale * mass

    return curve


def premium(model: RiskModel, gamma: float) -> float:
    """Risk-adjusted premium: claim scale times the power-distorted survival mass.

    gamma = 1 reproduces the expected loss exactly (same code path); larger
    gamma inflates the premium toward claim_scale / 2.
    """
    return premium_curve(model)(gamma)


def expected_loss(model: RiskModel) -> float:
    """Insurer's expected claim payout (the undistorted premium)."""
    return premium(model, 1.0)


def distorted_log_moments(model: RiskModel, gamma: float) -> tuple[float, float, float]:
    """The three survival integrals behind the premium's gamma derivatives.

    Returns (integral B^(1/g), integral B^(1/g) ln B, integral B^(1/g) ln^2 B)
    over [1/2, 1] on the shared midpoint grid.
    """
    # written so that NaN fails
    if not 1.0 <= gamma < math.inf:
        raise ValueError(f"premium coefficient must be >= 1 and finite, got {gamma}")
    # raises the table to 1/gamma itself, as premium_curve does: it needs
    # the powered array, and premium_curve keeps only its sum
    survival = _model_survival(model)
    powered = survival ** (1.0 / gamma)
    logs = np.log(survival)
    i0 = float(np.sum(powered) * _WIDTH)
    i1 = float(np.sum(powered * logs) * _WIDTH)
    i2 = float(np.sum(powered * logs * logs) * _WIDTH)
    return i0, i1, i2


def reputation_penalty(hbar: float, gamma: float, beta: float) -> float:
    """Penalty on the insurer for keeping the premium high while the chain
    is well defended: (hbar - 1/2)^3 * (gamma - 1) * gamma^beta.

    Zero at hbar = 1/2 and at gamma = 1; grows steeply in gamma (beta > 1).
    """
    if beta <= 1.0:
        raise ValueError(f"penalty exponent must exceed 1, got {beta}")
    if not 0.5 <= hbar <= 1.0:
        raise ValueError(f"investment ratio must lie in [1/2, 1], got {hbar}")
    # written so that NaN fails
    if not 1.0 <= gamma < math.inf:
        raise ValueError(f"premium coefficient must be >= 1 and finite, got {gamma}")
    return (hbar - 0.5) ** 3 * (gamma - 1.0) * gamma**beta
