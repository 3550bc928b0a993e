"""Frame saliency ranking, its Gaussian-perturbed smoothing, and the
Monte Carlo score gradient that lets gradients flow through the
otherwise piecewise-constant sort.

The smoothed ranking matrix is the expectation of the hard permutation
matrix of ``s + sigma * z`` over standard-normal ``z``, estimated with
``n_samples`` common-random-number draws.  The same draws drive the
gradient estimate, so a loss value and its gradient always refer to the
same randomness.

Numeric note: scores and noise are combined and compared in float64
here (outputs stay float32).  Ranking is decided purely by comparisons,
and float32 additions near ties flip comparisons often enough to break
the exact shift-invariance guarantee; float64 pushes those rounding
events below any realistic sample count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import F32, RandomStream, ShapeError


@dataclass(frozen=True)
class PerturbConfig:
    """Smoothing parameters: noise scale, sample count, seed."""

    sigma: float = 0.05
    n_samples: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 < self.sigma < np.inf):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")


@dataclass(frozen=True)
class SortPermutation:
    """Hard descending sort: order[j] is the frame ranked j-th; matrix is
    the corresponding permutation matrix (column j one-hot at order[j])."""

    order: np.ndarray   # int64 [T]
    matrix: np.ndarray  # float32 [T, T]


@dataclass(frozen=True)
class SoftRankMatrix:
    """Monte Carlo estimate of the smoothed ranking matrix."""

    matrix: np.ndarray  # float32 [T, T], doubly stochastic up to MC accumulation


class TimeIndexMap(NamedTuple):
    """Original time index of each frame in the two parts of a split."""

    saliency: np.ndarray      # int64 [K]
    non_saliency: np.ndarray  # int64 [T - K]


def _check_scores(s) -> np.ndarray:
    s = np.asarray(s)
    if s.ndim != 1 or s.shape[0] < 1:
        raise ShapeError(f"scores must be a non-empty vector, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    return s.astype(np.float64)


def _orders(perturbed: np.ndarray) -> np.ndarray:
    # descending sort; stable kind breaks ties toward the smaller frame index
    return np.argsort(-perturbed, axis=-1, kind="stable")


def _matrix_from_order(order: np.ndarray) -> np.ndarray:
    t = order.shape[0]
    m = np.zeros((t, t), dtype=F32)
    m[order, np.arange(t)] = F32(1)
    return m


def hard_rank(s) -> SortPermutation:
    """Descending sort permutation of a score vector (ties: smaller index first)."""
    s = _check_scores(s)
    order = _orders(s)
    return SortPermutation(order=order, matrix=_matrix_from_order(order))


def topk_split(tokens: np.ndarray, perm: SortPermutation, k: int):
    """Split frames into the top-k saliency part and the rest, both in rank
    order, returning (saliency, non_saliency, TimeIndexMap)."""
    tokens = np.asarray(tokens)
    t = perm.order.shape[0]
    if tokens.shape[0] != t:
        raise ShapeError(f"{tokens.shape[0]} frames vs {t}-frame permutation")
    if not (1 <= k <= t):
        raise ShapeError(f"k must be in [1, {t}], got {k}")
    ordered = tokens[perm.order]
    times = TimeIndexMap(
        saliency=perm.order[:k].copy(),
        non_saliency=perm.order[k:].copy(),
    )
    return ordered[:k], ordered[k:], times


def _sample_orders(s64: np.ndarray, cfg: PerturbConfig) -> tuple[np.ndarray, np.ndarray]:
    """Common-random-number draws and the per-sample hard orders."""
    z = RandomStream(cfg.seed).gaussian64((cfg.n_samples, s64.shape[0]))
    orders = _orders(s64[None, :] + cfg.sigma * z)
    return orders, z


def _objective_samples(s, cfg: PerturbConfig,
                       grad_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Monte Carlo sampler behind every estimate of <G, smoothed
    rank(s)>: float64 per-sample Frobenius products <G, Y(s + sigma z_j)>
    [n] and the shared draws z [n, T]."""
    s64 = _check_scores(s)
    t = s64.shape[0]
    g = np.asarray(grad_matrix, dtype=np.float64)
    if g.shape != (t, t):
        raise ShapeError(f"gradient matrix must be {t}x{t}, got {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient matrix must be finite")
    orders, z = _sample_orders(s64, cfg)
    dots = g[orders, np.arange(t)[None, :]].sum(axis=1)
    return dots, z


def _score_gradient(dots: np.ndarray, z: np.ndarray, cfg: PerturbConfig) -> np.ndarray:
    """The one Monte Carlo score gradient of <G, smoothed rank(s)>, float64
    [T]: ds_i = (1 / (n * sigma)) * sum_j (dots_j - mean(dots)) * z_j[i].
    Training (via perturbed_objective) and both grad-check oracles call
    it.  Subtracting the sample mean is a control variate: the expectation
    is untouched up to O(1/n) while the variance no longer blows up once
    the ranking saturates (all samples equal -> rounding-level gradient)."""
    return (dots - dots.mean()) @ z / (cfg.n_samples * cfg.sigma)


def perturbed_rank(s, cfg: PerturbConfig) -> SoftRankMatrix:
    """Monte Carlo estimate of the noise-smoothed ranking matrix."""
    s64 = _check_scores(s)
    t = s64.shape[0]
    orders, _ = _sample_orders(s64, cfg)
    flat = orders * t + np.arange(t)[None, :]
    counts = np.bincount(flat.ravel(), minlength=t * t)
    m = (counts.astype(np.float64).reshape(t, t) / cfg.n_samples).astype(F32)
    return SoftRankMatrix(matrix=m)


def perturbed_objective(s, cfg: PerturbConfig, grad_matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """<G, smoothed-rank(s)> and its float32 score gradient from one set
    of draws; the value equals sum(G * perturbed_rank(s).matrix) up to
    float32 rounding of the matrix."""
    dots, z = _objective_samples(s, cfg, grad_matrix)
    return float(dots.mean()), _score_gradient(dots, z, cfg).astype(F32)
