"""Attack risk and insurance pricing.

Double-spending success probability as a function of the provider's share
of computing power, the induced loss distribution over that share, and the
power-transform (proportional hazard) premium, whose gamma = 1 is the
insurer's expected loss.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .specfun import reg_inc_beta

# cells of the midpoint grid over [1/2, 1] behind every premium integral
GRID_INTERVALS = 100
_WIDTH = 0.5 / GRID_INTERVALS
# the grid's nodes as Python floats, the form the scalar kernels run fastest on
_NODES = tuple((0.5 + (np.arange(GRID_INTERVALS) + 0.5) * _WIDTH).tolist())
# distorted survival masses held per block count before they are emptied
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


def survival_grid(values: np.ndarray) -> np.ndarray:
    """Midpoint-grid table of B(t) = 1 - integral_{1/2}^{t} p(theta) dtheta.

    values holds p at the nodes _NODES of the GRID_INTERVALS-cell midpoint
    grid over [1/2, 1], whose cells are _WIDTH wide; any other shape raises
    ValueError. Returns B, read-only, at those nodes. The inner integral is
    one prefix sum of the values: it covers whole cells up to the node's
    left edge, plus half a cell at the node's own value.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (GRID_INTERVALS,):
        raise ValueError(f"node values have shape {values.shape}, expected ({GRID_INTERVALS},)")
    prefix = np.concatenate(([0.0], np.cumsum(values) * _WIDTH))
    survival = 1.0 - (prefix[:-1] + 0.5 * _WIDTH * values)
    survival.setflags(write=False)
    return survival


@functools.lru_cache(maxsize=64)
def _block_count(blocks_per_period: float) -> tuple[np.ndarray, dict[float, float]]:
    """The table every RiskModel with this block count shares: the attack
    probability at each grid node, read-only, evaluated on the nodes as
    Python floats, on which the scalar incomplete Beta runs fastest; and
    premium_curve's distorted survival masses, keyed by gamma, emptied when
    DISTORTED_MASSES_KEPT of them are held.
    """
    values = np.array([_attack_curve(blocks_per_period, t) for t in _NODES])
    values.setflags(write=False)
    return values, {}


# Keyed on the model, not its block count, although the table depends on
# blocks_per_period alone: perfbench/test_perfbench.py pins one
# survival_grid call per RiskModel on the paper grids.
@functools.lru_cache(maxsize=64)
def _model_survival(model: RiskModel) -> np.ndarray:
    return survival_grid(_block_count(model.blocks_per_period)[0])


def premium_curve(model: RiskModel) -> Callable[[float], float]:
    """The premium as a function of gamma for one model.

    Fetches the survival table, the claim scale and the distorted masses
    of the model's block count (_block_count) once, so a search that
    prices many gammas skips those lookups, and a gamma revisited on any
    model with the same block count is read back rather than recomputed.
    The masses are emptied when DISTORTED_MASSES_KEPT are held; a read-back
    is the value once computed, so that policy changes no price.
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
                masses.clear()
            masses[gamma] = mass
        return claim_scale * mass

    return curve


# No solve calls premium or distorted_log_moments: the equilibrium prices
# through premium_curve. They stay here, not in chainsure.oracles, while
# the benchmark reads them: perfbench/tracer.py wraps risk.premium by
# module path, and perfbench/checks.py calls market.insurer_gradient and
# insurer_curvature, which take their integrals from distorted_log_moments.
def premium(model: RiskModel, gamma: float) -> float:
    """Risk-adjusted premium: claim scale times the power-distorted survival mass.

    gamma = 1 reproduces the expected loss exactly (same code path); larger
    gamma inflates the premium toward claim_scale / 2.
    """
    return premium_curve(model)(gamma)


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

