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
Every objective estimate is one streaming pass, ``_objective_sums``,
that holds a few blocks and O(T) sums: it adds up each block's products
and draws about the first block's mean product, which gives the mean,
the gradient's centred sum and the second moments that
``_standard_error`` turns into either standard error, and keeps no draw
or product.  Successive blocks
continue one random stream, so the draws, the products and the
smoothed ranking are bitwise those of a single [n, T] draw; the mean,
the gradient and the moments are too where n fits one block, and past
that differ from a one-shot reduction by rounding alone.
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
    order, returning (saliency, non_saliency, TimeIndexMap); the parts are
    two gathered arrays, so neither holds the other's frames."""
    tokens = np.asarray(tokens)
    t = perm.order.shape[0]
    if tokens.shape[0] != t:
        raise ShapeError(f"{tokens.shape[0]} frames vs {t}-frame permutation")
    if not (1 <= k <= t):
        raise ShapeError(f"k must be in [1, {t}], got {k}")
    times = TimeIndexMap(
        saliency=perm.order[:k].copy(),
        non_saliency=perm.order[k:].copy(),
    )
    return tokens[times.saliency], tokens[times.non_saliency], times


def _every_ranking(t: int) -> np.ndarray:
    """The order [T!, T] of every ranking of T frames, indexed by
    ``_ranking_codes``: row p is the ranking whose frame ranks, read as a
    permutation, come p-th in lexicographic order."""
    ranks = np.array(list(itertools.permutations(range(t))))
    return np.argsort(ranks, axis=1)


def _ranking_codes(columns: np.ndarray) -> np.ndarray:
    """The row of ``_every_ranking`` that each draw takes in a stable
    ascending sort of its keys, for keys given frame by frame: columns
    [T, rows] (T <= 8) holds frame i's keys in row i.  From T (T - 1) / 2
    comparisons of those rows: the Lehmer code sum_i c_i (T - 1 - i)!,
    where c_i counts the later frames whose key is below frame i's (an
    equal key stays behind frame i, so ties go to the smaller index),
    accumulated in Horner form, the comparisons' bools viewed as uint8,
    in the narrowest integer that holds T! codes: uint8 up to five
    frames, else uint16."""
    t = columns.shape[0]
    code = np.zeros(columns.shape[1], np.uint8 if t <= 5 else np.uint16)
    below = np.empty(columns.shape[1], bool)
    for i in range(t - 1):
        code *= t - i
        for k in range(i + 1, t):
            code += np.less(columns[k], columns[i], out=below).view(np.uint8)
    return code


def _sample_blocks(s64: np.ndarray, cfg: PerturbConfig, per_ranking):
    """The one sampling walk behind every estimate.  For each block of at
    most ``_CHUNK // T`` common-random-number draws z it yields the
    block's draws z [rows, T] and, for each draw, the value that
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
    The yielded draws are the walk's own buffer, which the next block
    overwrites.  Successive blocks continue one stream, so together they
    are the one-shot [n_samples, T] draw."""
    stream = RandomStream(cfg.seed)
    t = s64.shape[0]
    col_offsets = np.arange(t) * t
    # a block's noise, key, cells and gathered <G, Y> terms are one chunk
    # each; at T = 4, 16384 rows measured slower on grad-check, 4096 no faster
    block = max(_CHUNK // t, 1)
    width = min(block, cfg.n_samples)
    draws = np.empty((width, t))
    if math.factorial(t) <= width:
        by_code = per_ranking(_every_ranking(t) + col_offsets)
        # the keys frame by frame [T, rows], as the comparisons read them;
        # subtracting s a frame at a time runs along contiguous rows
        keys, s_frames = np.empty((t, width)), s64[:, None]
    else:
        by_code = None
        # the scores and column offsets as full [rows, T] operands, built
        # once: against a [T] vector numpy's add and subtract step row by row
        keys, s_rows = np.empty((width, t)), np.empty((width, t))
        s_rows[:] = s64
        offsets = np.empty((width, t), np.intp)
        offsets[:] = col_offsets
    for lo in range(0, cfg.n_samples, block):
        rows = min(block, cfg.n_samples - lo)
        z = stream.gaussian64(out=draws[:rows])
        # bitwise -(s + sigma * z): the stable ascending ranking is
        # descending in s + sigma * z, ties toward the smaller frame index
        if by_code is None:
            key = np.multiply(z, -cfg.sigma, out=keys[:rows])
            key -= s_rows[:rows]
            cells = np.argsort(key, axis=1, kind="stable")
            cells += offsets[:rows]
            yield z, per_ranking(cells)
        else:
            key = np.multiply(z.T, -cfg.sigma, out=keys[:, :rows])
            key -= s_frames
            yield z, np.take(by_code, _ranking_codes(key), axis=0)


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
    (z, dots): the block's draws [rows, T], as ``_sample_blocks`` yields
    them, and its float64 Frobenius products <G, Y(s + sigma z_j)>
    [rows], a fresh array the caller may overwrite."""
    flat_gt = g.T.ravel()
    return _sample_blocks(s64, cfg, lambda cells: np.take(flat_gt, cells).sum(axis=1))


class ObjectiveSums(NamedTuple):
    """One streamed estimate over d_j = <G, Y(s + sigma z_j)>."""

    mean: float                     # mean(d)
    value_moment: float             # sum_j (d_j - mean(d))^2
    centred: np.ndarray             # sum_j (d_j - mean(d)) z_j [T]
    grad_moment: np.ndarray | None  # sum_j (d_j - mean(d))^2 z_j^2 [T], if spread


def _objective_sums(s64: np.ndarray, cfg: PerturbConfig, g: np.ndarray,
                    spread: bool = False) -> ObjectiveSums:
    """The one Monte Carlo estimate: a streaming pass over the walk for one
    checked score vector and its G that holds its sampler blocks and O(T)
    sums, nothing of size n; the gradient's moment only if ``spread``.

    Each block adds its sums about m0, the first block's mean product:
    sum d, sum (d - m0)^2 and sum (d - m0) z, with sum (d - m0)^2 z^2 for
    the spread.  Where the walk has more blocks than one it also adds
    sum z (and sum (d - m0) z^2 and sum z^2), and with delta = mean(d) - m0

        sum (d - mean)^2 = sum (d - m0)^2 - n delta^2,
        sum (d - mean) z = sum (d - m0) z - delta sum z,
        sum (d - mean)^2 z^2 = sum (d - m0)^2 z^2
                               - 2 delta sum (d - m0) z^2 + delta^2 sum z^2.

    With one block m0 is the mean, so the centred sum is one gemv,
    bitwise (d - mean(d)) @ z over the whole sample; past that it differs
    from that one gemv by rounding alone.  Column sums are gemvs with a
    vector of ones: numpy's own sum over the rows of a [rows, T] block
    steps row by row, and took 14 to 34 times as long at T = 2 or 4."""
    sums = ones = None
    for z, dots in _objective_blocks(s64, cfg, g):
        total = dots.sum()
        if sums is None:
            m0 = total / dots.shape[0]
            if dots.shape[0] < cfg.n_samples:
                ones = np.ones(dots.shape[0])
        dots -= m0
        # not dots @ dots: OpenBLAS threads its ddot at this size, and from
        # grad-check's pool threads that nearly doubled run_fd_check's time
        squares = np.square(dots)
        # each sum is named by its terms; past "d" (sum d), d is d - m0
        block = {"d": total, "dd": squares.sum(), "dz": dots @ z}
        if spread:
            z2 = np.square(z)
            block["ddzz"] = squares @ z2
        if ones is not None:
            block["z"] = ones[:z.shape[0]] @ z
            if spread:
                block["dzz"], block["zz"] = dots @ z2, ones[:z.shape[0]] @ z2
        sums = block if sums is None else {k: sums[k] + v for k, v in block.items()}
    mean = sums["d"] / cfg.n_samples
    value_moment, centred, squares = sums["dd"], sums["dz"], sums.get("ddzz")
    if ones is not None:
        delta = mean - m0
        value_moment = value_moment - cfg.n_samples * delta * delta
        centred = centred - delta * sums["z"]
        if spread:
            squares = squares - 2 * delta * sums["dzz"] + delta * delta * sums["zz"]
    return ObjectiveSums(mean, value_moment, centred, squares)


def _standard_error(moment, cfg: PerturbConfig):
    """The standard error of a mean of ``cfg.n_samples`` terms whose
    squared spread about it is ``moment``: sqrt(moment / (n - 1)) / sqrt(n),
    a spread that rounding took below zero counting as zero."""
    n = cfg.n_samples
    if n < 2:
        raise ValueError(f"a standard error needs n_samples >= 2, got {n}")
    return np.sqrt(np.maximum(moment, 0.0) / (n - 1)) / np.sqrt(n)


def _score_gradient(centred: np.ndarray, cfg: PerturbConfig) -> np.ndarray:
    """The one Monte Carlo score gradient of <G, smoothed rank(s)>, float64
    [T], from the centred sum sum_j (dots_j - mean(dots)) z_j that
    ``_objective_sums`` returns: ds_i = (1 / (n * sigma)) * that sum.
    Training (via perturbed_objective) and both grad-check oracles call
    it.  Subtracting the sample mean is a control variate: the expectation
    is untouched up to O(1/n) while the variance no longer blows up once
    the ranking saturates (all samples equal -> rounding-level gradient)."""
    return centred / (cfg.n_samples * cfg.sigma)


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
        sums = _objective_sums(video, video_cfg, g_video)
        values[i], grads[i] = sums.mean, _score_gradient(sums.centred, video_cfg)
    return (float(values[0]), grads[0]) if s64.ndim == 1 else (values, grads)
