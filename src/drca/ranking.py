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
forms the perturbed scores and ranks them in blocks of ``_CHUNK // T``
draws (see numerics), and each estimate reduces a block as soon as it
is ranked.  While the T! rankings are no more than a block's draws (up
to six frames), a draw's ranking is found by comparisons alone and
named by its index among all T! rankings, so the estimate's
per-ranking value (a <G, Y> product, or the ranking's cells) is formed
once per ranking and looked up per draw; with more frames each block is
sorted.  ``perturbed_rank`` adds the block's exact integer counts, so it
holds nothing whose size grows with ``n_samples``.
``_objective_blocks`` forms each product as one gather of a ranking's
cells and numpy's own sum over them, so it is bitwise a per-draw
``sum`` whichever way the ranking was found.
``_objective_samples`` keeps those [n] products and the draws z [n, T]
that the score gradient needs, drawn straight into that array, and an
estimate that needs no gradient keeps the products alone.  No other
[n, T] array outlives its block.  Successive blocks continue one random
stream, so every output is bitwise what a single [n, T] draw would give.
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

import itertools
import math
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


def _every_ranking(t: int) -> np.ndarray:
    """The order [T!, T] of every ranking of T frames, indexed by
    ``_ranking_codes``: row p is the ranking whose frame ranks, read as a
    permutation, come p-th in lexicographic order."""
    ranks = np.array(list(itertools.permutations(range(t))))
    return np.argsort(ranks, axis=1)


def _ranking_codes(key: np.ndarray) -> np.ndarray:
    """The row of ``_every_ranking`` that each row of ``key`` [rows, T]
    takes in a stable ascending sort, from T (T - 1) / 2 column
    comparisons: the Lehmer code sum_i c_i (T - 1 - i)!, where c_i counts
    the later frames whose key is below frame i's (an equal key stays
    behind frame i, so ties go to the smaller index), accumulated in
    Horner form."""
    t = key.shape[1]
    code = np.zeros(key.shape[0], dtype=np.intp)
    for i in range(t - 1):
        code *= t - i
        for k in range(i + 1, t):
            code += key[:, k] < key[:, i]
    return code


def _sample_blocks(s64: np.ndarray, cfg: PerturbConfig, per_ranking,
                   draws: np.ndarray | None = None):
    """The one sampling walk behind every estimate.  For each block of at
    most ``_CHUNK // T`` common-random-number draws z it yields the
    block's rows of the full sample and, for each draw, the value that
    ``per_ranking`` gives the hard ranking of s + sigma * z.
    ``per_ranking`` maps the cells of rankings [P, T] to one value per
    ranking, an array of first axis P: cells[p, c] = c * T + o for the
    frame o that ranking p puts c-th, the flat index of entry (o, c) in
    a T x T matrix stored transposed.

    While the T! rankings are no more than the first block's draws (up
    to six frames), ``per_ranking`` runs once, on every ranking, and a
    block only finds each draw's ranking by comparisons
    (``_ranking_codes``) and looks its value up.  Past that, where the
    table would outgrow a block and the T (T - 1) / 2 comparisons cost
    more than a sort, it runs on each block's sorted cells.  Either way a
    draw's value is what ``per_ranking`` makes of its own ranking.
    The draws go into ``draws`` [n_samples, T] if it is given, else into
    the block's sort key, which the next block overwrites.  Successive
    blocks continue one stream, so together they are the one-shot
    [n_samples, T] draw."""
    stream = RandomStream(cfg.seed)
    t = s64.shape[0]
    col_offsets = np.arange(t) * t
    # a block's noise, key, cells and gathered <G, Y> terms are one chunk
    # each; at T = 4, 16384 rows measured slower on grad-check, 4096 no faster
    block = max(_CHUNK // t, 1)
    by_code = None
    if math.factorial(t) <= min(block, cfg.n_samples):
        by_code = per_ranking(_every_ranking(t) + col_offsets)
    buffer = np.empty((min(block, cfg.n_samples), t))
    for lo in range(0, cfg.n_samples, block):
        rows = slice(lo, min(lo + block, cfg.n_samples))
        key = buffer[:rows.stop - lo]
        z = stream.gaussian64(out=key if draws is None else draws[rows])
        # bitwise -(s + sigma * z): the stable ascending ranking is
        # descending in s + sigma * z, ties toward the smaller frame index
        np.multiply(z, -cfg.sigma, out=key)
        key -= s64
        if by_code is None:
            cells = np.argsort(key, axis=1, kind="stable")
            cells += col_offsets
            yield rows, per_ranking(cells)
        else:
            yield rows, np.take(by_code, _ranking_codes(key), axis=0)


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


def _objective_blocks(s64: np.ndarray, cfg: PerturbConfig, g: np.ndarray,
                      draws: np.ndarray | None = None):
    """An iterator over the sampling walk's blocks for one score vector
    and its G, as ``_check_objective`` returns them, that yields
    (rows, dots): the block's rows of the full sample and its float64
    Frobenius products <G, Y(s + sigma z_j)> [rows].  The draws go into
    ``draws`` as in ``_sample_blocks``."""
    flat_gt = g.T.ravel()
    return _sample_blocks(s64, cfg, lambda cells: np.take(flat_gt, cells).sum(axis=1), draws)


def _objective_samples(s64: np.ndarray, cfg: PerturbConfig, g: np.ndarray,
                       draws: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The per-sample products <G, Y(s + sigma z_j)> [n] and the shared
    draws z [n, T] that the score gradient reduces, for one checked
    score vector and its G; the draws go into ``draws`` if it is given."""
    dots = np.empty(cfg.n_samples)
    zs = np.empty((cfg.n_samples, s64.shape[0])) if draws is None else draws
    for rows, block_dots in _objective_blocks(s64, cfg, g, zs):
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
    for _, cells in _sample_blocks(s64, cfg, lambda cells: cells):
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
