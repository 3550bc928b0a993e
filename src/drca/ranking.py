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

One walk, ``_sample_blocks``, makes every sample, for a stack of score
vectors at once, a vector being the stack of one.  Video i of a stack
draws from its own stream, seeded ``cfg.seed + i``.  The walk ranks the
perturbed scores in blocks of ``numerics._CHUNK // T`` draws, the chunk
read at each call: as many whole videos' samples as fit, or a run of
one video's draws where its sample does not fit one block.  Everything
but each video's draws, the keys, the ranking, the gather of its G
cells and the reductions, runs once per block over all its videos.  Up
to eight frames a draw's ranking is found by comparisons alone and
named by its index among all T! rankings; while those are no more than
a video's draws in a block (up to six frames), the estimate's
per-ranking value (a <G, Y> product, or the ranking's cells) is formed
once per ranking and looked up per draw, and past that the index gives
the ranking's cells from one shared table.  With more frames each block
is sorted.  ``perturbed_rank`` adds the block's exact integer counts,
so it holds nothing whose size grows with ``n_samples``.  The walk
takes each G as callers hold it and alone stores it transposed, so a
product is one gather of a ranking's cells and numpy's own sum over
them: bitwise a per-draw ``sum`` whichever way the ranking was found.

Every objective estimate is one streaming pass, ``_objective_sums``,
that holds a few blocks and O(T) sums per video, no draw or product,
and corrects each video's sums about its first block's mean by one
rule, which changes no bit where the sample is one block.  It gives the
mean, the gradient's centred sum and the second moments that
``_standard_error`` turns into either standard error.  Each video's
estimate is bitwise that of its own walk, whatever the stack around it.
A video's draws, products and smoothed ranking are bitwise those of a
single [n, T] draw; its mean, gradient and moments are too where n fits
one block, and past that differ from a one-shot reduction by rounding
alone.  ``_check_objective`` validates the scores and G once, for one
score vector or, in ``perturbed_objective``, a stack of them.

Numeric note: scores and noise are combined and compared in float64
here (outputs stay float32).  Ranking is decided purely by comparisons,
and float32 additions near ties flip comparisons often enough to break
the exact shift-invariance guarantee; float64 pushes those rounding
events below any realistic sample count.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics
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


# the most frames whose rankings the walk finds by comparisons: uint16
# codes index all 8! = 40320 rankings, and at eight frames a 4096-draw
# block's 28 comparisons and table lookup took 157 us against 488 us for
# its stable argsort
_COMPARED_FRAMES = 8


@functools.cache
def _ranking_cells(t: int) -> np.ndarray:
    """The cells [T!, T] of every ranking of T <= 8 frames, indexed by
    ``_ranking_codes``: row p holds c T + o for the frame o that ranking p
    puts c-th, ranking p being the one whose frame ranks, read as a
    permutation, come p-th in lexicographic order.  Built once per T and
    shared, read-only uint8 (322 KB at eight frames), by masked writes
    that hold no index array: at eight frames an int64 table and its
    argsort would take 5 MB, and fancy-indexed writes 1 MB more."""
    count = math.factorial(t)
    ranks = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(t))),
                        np.uint8, count=count * t).reshape(count, t)
    cells = np.empty_like(ranks)
    for frame in range(t):
        for rank in range(t):
            cells[ranks[:, frame] == rank, rank] = rank * t + frame
    cells.setflags(write=False)
    return cells


def _ranking_codes(columns: np.ndarray) -> np.ndarray:
    """The row of ``_ranking_cells`` that each draw takes in a stable
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


def _sample_blocks(s64: np.ndarray, cfg: PerturbConfig, g: np.ndarray | None = None):
    """The one sampling walk behind every estimate, over a stack of score
    vectors s [B, T], a vector [T] being the stack of one.  Video i takes
    ``cfg.n_samples`` common-random-number draws z from its own stream,
    seeded ``cfg.seed + i``, and each block holds at most
    ``numerics._CHUNK // T`` draws, the chunk read at the call: as many
    whole videos' samples as fit, or, where one video's sample does not
    fit, a run of that video's draws.  For each block it yields (videos,
    lo, z, values): the slice of the stack that the block's m videos are,
    the index in each video's sample of the block's first draw, the draws
    z [m, rows, T], and for each draw a value of the hard ranking of
    s_i + sigma * z.  Without ``g`` the values are the ranking's cells
    [m, rows, T]: cells[j, r, c] = c T + o for the frame o that the
    ranking puts c-th, the flat index of entry (o, c) of a T x T matrix
    stored transposed.  With ``g``, each video's float64 G [(B,) T, T] as
    callers hold it, they are the products <G_i, Y> [m, rows]: the walk
    stores each G transposed once, and each video gathers its cells from
    its own G, into one buffer, with numpy's own sum over each ranking's
    T terms.

    Up to eight frames (``_COMPARED_FRAMES``) a block finds each draw's
    ranking by T (T - 1) / 2 comparisons over all its draws at once
    (``_ranking_codes``), which name it by its index among the T!
    rankings.  While those are no more than a video's draws in a block
    (up to six frames), each video's value of every ranking is formed
    once per block of videos and a draw's value is looked up in its
    video's row of that [m, T!] table; past that, the codes index the one
    table of every ranking's cells (``_ranking_cells``).  Past eight
    frames each block's rankings are one stable sort of its keys.  Either
    way a draw's value is that of its own ranking.  The yielded draws,
    and the values a block looks up, are the walk's own buffers,
    allocated once and overwritten by the next block.  Successive blocks
    of a video continue its stream, so together they are its one-shot
    [n_samples, T] draw."""
    stack = s64.reshape(-1, s64.shape[-1])
    count, t = stack.shape
    n = cfg.n_samples
    # a block's noise, keys (which then take its gathered <G, Y> terms) and
    # cells are one chunk each; at T = 4, 16384 rows measured slower on
    # grad-check, 4096 no faster
    block = max(numerics._CHUNK // t, 1)
    width = min(block, n)
    group = max(min(block // n, count), 1)  # videos per block
    draws = np.empty((group, width, t))
    rankings = math.factorial(t)
    by_comparison = t <= _COMPARED_FRAMES  # each draw's ranking named by its code
    by_code = rankings <= width  # and its value looked up by that code
    if by_comparison:
        every = _ranking_cells(t)
        # the keys frame by frame [T, videos, rows], as the comparisons
        # read them; subtracting s a frame at a time runs along contiguous rows
        keys = np.empty((t, group, width))
    else:
        keys = np.empty((group, width, t))
    if by_code:
        code_offsets = np.arange(group)[:, None] * rankings
        index, values = np.empty((group, width), np.intp), None
    elif not by_comparison:
        # the column offsets as a full [rows, T] operand, built once:
        # against a [T] vector numpy's add steps row by row
        offsets = np.empty((width, t), np.intp)
        offsets[:] = np.arange(t) * t

    if g is not None:  # each G transposed, [B, T * T], as the cells index it
        gt = np.ascontiguousarray(np.swapaxes(g.reshape(-1, t, t), 1, 2)).reshape(-1, t * t)

    def ranking_values(videos, cells):
        # the values of the block's rankings, from their cells [m, P, T]
        if g is None:
            return cells
        # a block's keys are spent once it is ranked, and their buffer
        # takes its gathered terms
        gathered = keys.reshape(-1)[:cells.size].reshape(cells.shape)
        for video_gt, video_cells, terms in zip(gt[videos], cells, gathered):
            np.take(video_gt, video_cells, out=terms, mode="clip")
        return gathered.sum(axis=-1)

    for first in range(0, count, group):
        videos = slice(first, min(first + group, count))
        m = videos.stop - first
        s = stack[videos]
        streams = [RandomStream(cfg.seed + i) for i in range(first, videos.stop)]
        if by_code:
            table = ranking_values(videos, np.broadcast_to(every, (m,) + every.shape))
            table = table.reshape(m * rankings, *table.shape[2:])
            if values is None:
                values = np.empty((group, width) + table.shape[1:], table.dtype)
        for lo in range(0, n, block):
            rows = min(block, n - lo)
            z = draws[:m, :rows]
            for stream, video_z in zip(streams, z):
                stream.gaussian64(out=video_z)
            # bitwise -(s + sigma * z): the stable ascending ranking is
            # descending in s + sigma * z, ties toward the smaller frame index
            if by_comparison:
                key = np.multiply(z.transpose(2, 0, 1), -cfg.sigma, out=keys[:, :m, :rows])
                key -= s.T[:, :, None]
                codes = _ranking_codes(key.reshape(t, m * rows)).reshape(m, rows)
                if by_code:
                    # into the walk's own buffers; "clip" takes no
                    # defensive copy, and every index is in range
                    np.add(codes, code_offsets[:m], out=index[:m, :rows])
                    yield videos, lo, z, np.take(table, index[:m, :rows], axis=0,
                                                 out=values[:m, :rows], mode="clip")
                    continue
                cells = np.take(every, codes, axis=0)
            else:
                key = np.multiply(z, -cfg.sigma, out=keys[:m, :rows])
                key -= s[:, None, :]
                cells = np.argsort(key.reshape(-1, t), axis=1, kind="stable")
                cells = cells.reshape(m, rows, t)
                cells += offsets[:rows]  # a pass along each video's contiguous rows
            block_values = ranking_values(videos, cells)
            del cells  # the walk holds no cells while the caller reduces the block
            yield videos, lo, z, block_values


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


class ObjectiveSums(NamedTuple):
    """One streamed estimate over d_j = <G, Y(s + sigma z_j)> per video,
    each field with the scores' leading axes."""

    mean: np.ndarray                # mean(d)
    value_moment: np.ndarray        # sum_j (d_j - mean(d))^2
    centred: np.ndarray             # sum_j (d_j - mean(d)) z_j [T]
    grad_moment: np.ndarray | None  # sum_j (d_j - mean(d))^2 z_j^2 [T], if spread


def _objective_sums(s64: np.ndarray, cfg: PerturbConfig, g: np.ndarray,
                    spread: bool = False) -> ObjectiveSums:
    """The one Monte Carlo estimate: a streaming pass over the walk for
    checked scores [(B,) T] and their G that holds its sampler blocks and
    O(T) sums per video, nothing of size n; the gradient's moment only if
    ``spread``.  A block's videos are reduced together, each by its own
    row sums and its own entry of a stacked gemv, so each video's sums
    are bitwise those of its own walk.

    Each block adds a video's sums about m0, the mean product of its
    first block: sum d, sum (d - m0)^2, sum (d - m0) z and sum z, with
    sum (d - m0)^2 z^2, sum (d - m0) z^2 and sum z^2 for the spread.
    Every video's sums are then corrected by one rule, delta = mean - m0:

        sum (d - mean)^2 = sum (d - m0)^2 - n delta^2,
        sum (d - mean) z = sum (d - m0) z - delta sum z,
        sum (d - mean)^2 z^2 = sum (d - m0)^2 z^2
                               - 2 delta sum (d - m0) z^2 + delta^2 sum z^2.

    Where a video's sample is one block, m0 is its mean and delta is
    exactly 0.0, so the correction changes no bit: the moments are
    bitwise the one-shot sums of (d - mean)^2 and (d - mean)^2 z^2, and
    the centred sum the one gemv (d - mean) @ z; past one block they
    differ from those by rounding alone.  Column sums are gemvs with one
    vector of ones per pass: numpy's own sum over the rows of a [rows, T]
    block steps row by row, and took 14 to 34 times as long at T = 2 or
    4.  The squares and z^2 go into buffers the pass allocates once, which
    cut a grad-check op's minor page faults about threefold."""
    lead, t, n = s64.shape[:-1], s64.shape[-1], cfg.n_samples
    count = s64.size // t
    mean, value_moment, centred = np.empty(count), np.empty(count), np.empty((count, t))
    grad_moment = np.empty((count, t)) if spread else None
    squares_buf = None
    for videos, lo, z, dots in _sample_blocks(s64, cfg, g):
        m, rows = dots.shape
        if squares_buf is None:  # the walk's first block is its largest
            squares_buf, ones = np.empty(dots.shape), np.ones(rows)
            z2_buf = np.empty(z.shape) if spread else None
        total = dots.sum(axis=1)
        if lo == 0:
            m0, sums = total / rows, None
        dots -= m0[:, None]
        # not dots @ dots: OpenBLAS threads its ddot at this size, and from
        # grad-check's pool threads that nearly doubled run_fd_check's time
        squares = np.square(dots, out=squares_buf[:m, :rows])
        # each sum is named by its terms; past "d" (sum d), d is d - m0
        block = {"d": total, "dd": squares.sum(axis=1), "dz": (dots[:, None] @ z)[:, 0],
                 "z": ones[:rows] @ z}
        if spread:
            z2 = np.square(z, out=z2_buf[:m, :rows])
            block.update(ddzz=(squares[:, None] @ z2)[:, 0], dzz=(dots[:, None] @ z2)[:, 0],
                         zz=ones[:rows] @ z2)
        sums = block if sums is None else {k: sums[k] + v for k, v in block.items()}
        if n > lo + rows:
            continue  # the video's sample goes on in the next block
        mean[videos] = sums["d"] / n
        delta = mean[videos] - m0  # exactly 0.0 where the sample is one block
        value_moment[videos] = sums["dd"] - n * delta * delta
        delta = delta[:, None]
        centred[videos] = sums["dz"] - delta * sums["z"]
        if spread:
            grad_moment[videos] = (sums["ddzz"] - 2 * delta * sums["dzz"]
                                   + delta * delta * sums["zz"])
    return ObjectiveSums(mean.reshape(lead), value_moment.reshape(lead),
                         centred.reshape(lead + (t,)),
                         None if grad_moment is None else grad_moment.reshape(lead + (t,)))


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
    for *_, cells in _sample_blocks(s64, cfg):
        counts += np.bincount(cells.ravel(), minlength=t * t)
    freq = counts.reshape(t, t).T.astype(np.float64) / cfg.n_samples
    return freq.astype(F32, order="C")


def perturbed_objective(s, cfg: PerturbConfig, grad_matrix: np.ndarray):
    """<G, smoothed-rank(s)> and its float32 score gradient from one set
    of draws; the value equals sum(G * perturbed_rank(s)) up to
    float32 rounding of the matrix.

    Given a stack s [B, T] and G [B, T, T], returns the float64 values
    [B] and the float32 gradients [B, T] from one walk over the stack:
    video i draws with seed ``cfg.seed + i``, and a block holds whole
    videos' draws where they fit, so the stack holds a block's draws at
    a time, not its own.  Each row is bitwise the call
    ``perturbed_objective(s[i], replace(cfg, seed=cfg.seed + i), G[i])``.
    The stack is validated once; a vector is the stack of one video."""
    s64, g = _check_objective(s, grad_matrix, stacked=True)
    sums = _objective_sums(s64, cfg, g)
    grads = _score_gradient(sums.centred, cfg).astype(F32)
    return (float(sums.mean), grads) if s64.ndim == 1 else (sums.mean, grads)
