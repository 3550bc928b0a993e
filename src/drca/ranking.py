"""Frame saliency ranking, its Gaussian-perturbed smoothing, and the
Monte Carlo score gradient that lets gradients flow through the
otherwise piecewise-constant sort.

The smoothed ranking matrix is the expectation of the hard permutation
matrix of ``s + sigma * z`` over standard-normal ``z``, estimated with
``n_samples`` common-random-number draws.  The same draws drive the
gradient estimate, so a loss value and its gradient always refer to the
same randomness.  The model's token path reads only the hard sort; the
smoothed ranking serves training (``perturbed_objective``) and the
command line, which computes it from the scores a forward returns.

One walk, ``_sample_blocks``, makes every sample: it draws the noise,
forms the perturbed scores and sorts them in blocks of ``_CHUNK // T``
draws (see numerics), and each estimate reduces a block as soon as it
is sorted.  ``perturbed_rank`` adds the block's exact integer counts,
so it holds nothing whose size grows with ``n_samples``.
``_objective_blocks`` is the one gather of each draw's
<G, Y>; ``_objective_samples`` keeps those [n] products and the draws
z [n, T] that the score gradient needs, and an estimate that needs no
gradient can keep the products alone.  No other [n, T] array outlives
its block.  Successive blocks continue one random stream, so every
output is bitwise what a single [n, T] draw would give.
``_check_objective`` validates the scores and G once, for one score
vector or, in ``perturbed_objective``, a stack of them, a vector being
a stack of one; each video makes its own walk with its own seed and
holds only its own draws.

Numeric note: scores and noise are combined and compared in float64
here (outputs stay float32).  Ranking is decided purely by comparisons,
and float32 additions near ties flip comparisons often enough to break
the exact shift-invariance guarantee; float64 pushes those rounding
events below any realistic sample count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .numerics import _CHUNK, F32, RandomStream, ShapeError


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
    """Hard descending sort: order[j] is the frame ranked j-th."""

    order: np.ndarray   # int64 [T]

    @property
    def matrix(self) -> np.ndarray:
        """The float32 [T, T] permutation matrix, column j one-hot at
        order[j], built on each access."""
        return _matrix_from_order(self.order)


class TimeIndexMap(NamedTuple):
    """Original time index of each frame in the two parts of a split."""

    saliency: np.ndarray      # int64 [K]
    non_saliency: np.ndarray  # int64 [T - K]


def _check_scores(s, stacked: bool = False) -> np.ndarray:
    s = np.asarray(s)
    if s.ndim not in ((1, 2) if stacked else (1,)) or s.shape[-1] < 1:
        want = "vector or a stack of vectors" if stacked else "vector"
        raise ShapeError(f"scores must be a non-empty {want}, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    return s.astype(np.float64)


def _matrix_from_order(order: np.ndarray) -> np.ndarray:
    t = order.shape[0]
    m = np.zeros((t, t), dtype=F32)
    m[order, np.arange(t)] = F32(1)
    return m


def hard_rank(s) -> SortPermutation:
    """Descending sort permutation of a score vector (ties: smaller index first)."""
    s = _check_scores(s)
    # stable kind breaks ties toward the smaller frame index
    return SortPermutation(order=np.argsort(-s, kind="stable"))


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


def _sample_blocks(s64: np.ndarray, cfg: PerturbConfig):
    """The one sampling walk behind every estimate.  For each block of at
    most ``_CHUNK // T`` draws it yields the block's rows of the full
    sample, the common-random-number draws z [rows, T], and the cells
    [rows, T] that the hard ranking of s + sigma * z fills:
    cells[j, c] = c * T + o for the frame o that draw j ranks c-th, the
    flat index of entry (o, c) in a T x T matrix stored transposed.
    Successive blocks continue one stream, so together they are the
    one-shot [n_samples, T] draw."""
    stream = RandomStream(cfg.seed)
    t = s64.shape[0]
    col_offsets = np.arange(t) * t
    # a block's noise, key, cells and gathered <G, Y> terms are one chunk
    # each; at T = 4, 16384 rows measured slower on grad-check, 4096 no faster
    block = max(_CHUNK // t, 1)
    for lo in range(0, cfg.n_samples, block):
        z = stream.gaussian64((min(block, cfg.n_samples - lo), t))
        # bitwise -(s + sigma * z): the stable ascending sort is descending
        # in s + sigma * z, ties toward the smaller frame index
        key = z * -cfg.sigma
        key -= s64
        cells = np.argsort(key, axis=1, kind="stable")
        cells += col_offsets
        yield slice(lo, lo + z.shape[0]), z, cells


def _check_objective(s, grad_matrix: np.ndarray, stacked: bool = False):
    """Scores s [(B,) T] and gradient matrices G [(B,) T, T] as float64,
    validated together: finite, and one T x T matrix per score vector."""
    s64 = _check_scores(s, stacked)
    t = s64.shape[-1]
    g = np.asarray(grad_matrix, dtype=np.float64)
    if g.shape != s64.shape + (t,):
        raise ShapeError(
            f"gradient matrix must be {'x'.join(map(str, s64.shape + (t,)))}, got {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient matrix must be finite")
    return s64, g


def _objective_blocks(s64: np.ndarray, cfg: PerturbConfig, g: np.ndarray):
    """An iterator over the sampling walk's blocks for one score vector
    and its G, as ``_check_objective`` returns them, that yields
    (rows, z, dots): the block's rows of the full sample, its draws
    z [rows, T] and its float64 Frobenius products
    <G, Y(s + sigma z_j)> [rows].  Each estimate keeps what it needs."""
    flat_gt = g.T.ravel()
    return ((rows, z, np.take(flat_gt, cells).sum(axis=1))
            for rows, z, cells in _sample_blocks(s64, cfg))


def _objective_samples(s64: np.ndarray, cfg: PerturbConfig,
                       g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-sample products <G, Y(s + sigma z_j)> [n] and the shared
    draws z [n, T] that the score gradient reduces, for one checked
    score vector and its G."""
    dots = np.empty(cfg.n_samples)
    zs = np.empty((cfg.n_samples, s64.shape[0]))
    for rows, z, block_dots in _objective_blocks(s64, cfg, g):
        zs[rows] = z
        dots[rows] = block_dots
    return dots, zs


def _score_gradient(dots: np.ndarray, z: np.ndarray, cfg: PerturbConfig) -> np.ndarray:
    """The one Monte Carlo score gradient of <G, smoothed rank(s)>, float64
    [T]: ds_i = (1 / (n * sigma)) * sum_j (dots_j - mean(dots)) * z_j[i].
    Training (via perturbed_objective) and both grad-check oracles call
    it.  Subtracting the sample mean is a control variate: the expectation
    is untouched up to O(1/n) while the variance no longer blows up once
    the ranking saturates (all samples equal -> rounding-level gradient)."""
    return (dots - dots.mean()) @ z / (cfg.n_samples * cfg.sigma)


def perturbed_rank(s, cfg: PerturbConfig) -> np.ndarray:
    """Monte Carlo estimate of the noise-smoothed ranking matrix, float32
    [T, T] and doubly stochastic up to float32 rounding."""
    s64 = _check_scores(s)
    t = s64.shape[0]
    counts = np.zeros(t * t, dtype=np.int64)  # transposed, as the cells index it
    for _, _, cells in _sample_blocks(s64, cfg):
        counts += np.bincount(cells.ravel(), minlength=t * t)
    freq = counts.reshape(t, t).T.astype(np.float64) / cfg.n_samples
    return freq.astype(F32, order="C")


def perturbed_objective(s, cfg: PerturbConfig, grad_matrix: np.ndarray):
    """<G, smoothed-rank(s)> and its float32 score gradient from one set
    of draws; the value equals sum(G * perturbed_rank(s)) up to
    float32 rounding of the matrix.

    Given a stack s [B, T] and G [B, T, T], returns the float64 values
    [B] and the float32 gradients [B, T]: video i draws with seed
    ``cfg.seed + i`` and holds only its own draws, so each row is
    bitwise the call ``perturbed_objective(s[i], replace(cfg, seed=
    cfg.seed + i), G[i])``.  The stack is validated once; a vector is
    the stack of one video."""
    s64, g = _check_objective(s, grad_matrix, stacked=True)
    t = s64.shape[-1]
    stack = s64.reshape(-1, t)
    values, grads = np.empty(stack.shape[0]), np.empty(stack.shape, F32)
    for i, (video, g_video) in enumerate(zip(stack, g.reshape(-1, t, t))):
        video_cfg = replace(cfg, seed=cfg.seed + i)
        dots, z = _objective_samples(video, video_cfg, g_video)
        values[i] = dots.mean()
        grads[i] = _score_gradient(dots, z, video_cfg)
    return (float(values[0]), grads[0]) if s64.ndim == 1 else (values, grads)
