"""Context-aware frame compression.

A small score-net rates every frame's saliency, frames are split into a
top-K saliency part kept at native resolution and a non-saliency part,
and the non-saliency part is compressed to a coarser grid by
cross-attending to the saliency frames (queries from the non-saliency
tokens, keys/values from the saliency tokens, all three pooled to the
target grid) plus a pooled residual.  ``dccm_forward`` is this hard
token path alone.  Only the toy trainer reaches the score-net through
the smoothed ranking of the ranking module (``perturbed_objective``).

The score-net forward and backward also take a stack of videos with a
leading axis, and each video of a stack gets bitwise its own call's
scores and gradients.  The toy trainer uses this to run the training
and holdout splits in stacks of one ``numerics._CHUNK`` of token values
(at least one video), and passes each training stack's scores to one
``perturbed_objective`` call.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import numerics
from .numerics import F32, RandomStream, ShapeError
from .ranking import (
    PerturbConfig,
    TimeIndexMap,
    _check_scores,
    hard_rank,
    perturbed_objective,
    topk_split,
)


@dataclass(frozen=True)
class ScoreNetParams:
    """Saliency score-net: 3-D conv, global spatial mean, two linear maps."""

    conv_kernel: np.ndarray  # [kt, kh, kw, C, C_mid]
    w1: np.ndarray           # [C_mid, C_hidden]
    b1: np.ndarray           # [C_hidden]
    w2: np.ndarray           # [C_hidden, 1]
    b2: np.ndarray           # [1]

    @classmethod
    def init(cls, channels: int, mid: int, hidden: int, stream: RandomStream,
             scale: float = 0.02, zero_final: bool = False) -> "ScoreNetParams":
        w2 = np.zeros((hidden, 1), F32) if zero_final else stream.gaussian((hidden, 1), scale)
        return cls(
            conv_kernel=stream.gaussian((3, 3, 3, channels, mid), scale),
            w1=stream.gaussian((mid, hidden), scale),
            b1=np.zeros(hidden, F32),
            w2=w2,
            b2=np.zeros(1, F32),
        )


@dataclass(frozen=True)
class CompressorParams:
    """Projection weights for the saliency-reference cross-attention."""

    w_a: np.ndarray  # [C, C] queries, from non-saliency tokens
    w_b: np.ndarray  # [C, C] keys, from saliency tokens
    w_c: np.ndarray  # [C, C] values, from saliency tokens

    @classmethod
    def init(cls, channels: int, stream: RandomStream, scale: float = 0.02) -> "CompressorParams":
        return cls(
            w_a=stream.gaussian((channels, channels), scale),
            w_b=stream.gaussian((channels, channels), scale),
            w_c=stream.gaussian((channels, channels), scale),
        )


@dataclass(frozen=True)
class DccmParams:
    score: ScoreNetParams
    compressor: CompressorParams


@dataclass(frozen=True)
class MultiResSequence:
    """A video split into a full-resolution saliency part and a coarser
    non-saliency part, each in rank order, with the original time index of
    every frame.  The two parts always partition 0..T-1.  Both parts are
    C-contiguous: the transformer layers update them in place through
    reshaped views, which a strided part would turn into copies."""

    saliency: np.ndarray      # [K, M, N, C]
    non_saliency: np.ndarray  # [T-K, M/h, N/h, C]
    times: TimeIndexMap
    h: int

    def __post_init__(self) -> None:
        sal, non = self.saliency, self.non_saliency
        if sal.ndim != 4 or non.ndim != 4:
            raise ShapeError("sequence parts must be [frames, M, N, C]")
        if sal.shape[0] < 1:
            raise ShapeError("saliency part must hold at least one frame")
        if self.h < 1:
            raise ShapeError(f"alignment factor must be >= 1, got {self.h}")
        k, m, n, c = sal.shape
        r, ml, nl, cl = non.shape
        if cl != c:
            raise ShapeError(f"channel mismatch between parts: {c} vs {cl}")
        if ml * self.h != m or nl * self.h != n:
            raise ShapeError(
                f"non-saliency grid {ml}x{nl} times h={self.h} must equal saliency grid {m}x{n}"
            )
        if self.times.saliency.shape != (k,) or self.times.non_saliency.shape != (r,):
            raise ShapeError("time index map extents do not match the parts")
        all_times = np.concatenate([self.times.saliency, self.times.non_saliency])
        if not np.array_equal(np.sort(all_times), np.arange(k + r)):
            raise ShapeError("time indices must form a partition of 0..T-1")
        if not (sal.flags.c_contiguous and non.flags.c_contiguous):
            raise ShapeError("sequence parts must be C-contiguous")

    @property
    def frame_count(self) -> int:
        return self.saliency.shape[0] + self.non_saliency.shape[0]

    @property
    def channels(self) -> int:
        return self.saliency.shape[-1]

    @property
    def low_grid(self) -> tuple[int, int]:
        return self.saliency.shape[1] // self.h, self.saliency.shape[2] // self.h

    @property
    def token_count(self) -> int:
        return int(self.saliency[..., 0].size + self.non_saliency[..., 0].size)


def full_res_sequence(tokens: np.ndarray) -> MultiResSequence:
    """Wrap an unsplit video as an all-saliency sequence (h=1, K=T) that
    holds float32 `tokens` themselves, so the layers update them."""
    tokens = np.asarray(tokens, dtype=F32)
    if tokens.ndim != 4:
        raise ShapeError(f"tokens must be [T, M, N, C], got {tokens.shape}")
    t, m, n, c = tokens.shape
    return MultiResSequence(
        saliency=tokens,
        non_saliency=np.zeros((0, m, n, c), F32),
        times=TimeIndexMap(np.arange(t, dtype=np.int64), np.zeros(0, dtype=np.int64)),
        h=1,
    )


class ScoreNetPass(NamedTuple):
    """One score-net forward: the scores and what the backward reads.
    Every field carries the input's leading video axis, if it has one."""

    scores: np.ndarray  # [(B,) T]
    tokens: np.ndarray  # [(B,) T, M, N, C] float32 input
    pooled: np.ndarray  # [(B,) T, C_mid] spatial mean of the conv output
    hidden: np.ndarray  # [(B,) T, C_hidden] relu output


def score_net_forward(tokens: np.ndarray, p: ScoreNetParams) -> ScoreNetPass:
    """Per-frame saliency scores from a [T, M, N, C] token video, or
    [B, T] scores from a stack [B, T, M, N, C] of videos; each video of
    a stack scores bitwise as it does alone."""
    tokens = np.asarray(tokens, dtype=F32)
    if tokens.ndim not in (4, 5):
        raise ShapeError(
            f"score-net input must be [T, M, N, C] or [B, T, M, N, C], got {tokens.shape}")
    if p.w2.shape[1:] != (1,) or p.b2.shape != (1,):
        raise ShapeError(
            f"score head must have one output column, got w2 {p.w2.shape} "
            f"and b2 {p.b2.shape}"
        )
    conv_out = numerics.conv3d(tokens, p.conv_kernel)          # [(B,) T, M, N, C_mid]
    pooled = numerics.mean_pool(conv_out, axes=(-3, -2))       # [(B,) T, C_mid]
    hidden = numerics.relu(numerics.linear(pooled, p.w1, p.b1))
    scores = numerics.linear(hidden, p.w2, p.b2)              # [(B,) T, 1]
    return ScoreNetPass(scores[..., 0], tokens, pooled, hidden)


def score_net_backward(fwd: ScoreNetPass, p: ScoreNetParams,
                       upstream: np.ndarray) -> ScoreNetParams:
    """Reverse-mode parameter gradients of sum(upstream * scores), as a
    tree shaped like the parameters.

    Walks the chain backwards from the recorded forward ``fwd`` of the
    same parameters; the relu subgradient at exactly zero is zero.  For
    a forward over a stack of B videos, ``upstream`` is [B, T] and every
    field of the result carries the leading B axis: the per-video
    gradients, each bitwise its own video's, not their sum.
    """
    upstream = np.asarray(upstream, dtype=F32)
    m, n = fwd.tokens.shape[-3:-1]
    if upstream.shape != fwd.scores.shape:
        raise ShapeError(
            f"upstream gradient must be {list(fwd.scores.shape)}, got {upstream.shape}")

    d_scores = upstream[..., None]                     # [(B,) T, 1]
    d_w2 = np.swapaxes(fwd.hidden, -1, -2) @ d_scores
    d_b2 = d_scores.sum(axis=-2)
    d_hidden = d_scores @ p.w2.T
    d_pre = d_hidden * (fwd.hidden > 0)
    d_w1 = np.swapaxes(fwd.pooled, -1, -2) @ d_pre
    d_b1 = d_pre.sum(axis=-2)
    d_pooled = d_pre @ p.w1.T                          # [(B,) T, C_mid]
    # mean over M*N spatial positions spreads the gradient uniformly
    d_conv = np.broadcast_to(
        d_pooled[..., None, None, :] / F32(m * n),
        fwd.tokens.shape[:-1] + d_pooled.shape[-1:],
    ).astype(F32)
    d_kernel = numerics.conv3d_kernel_grad(fwd.tokens, d_conv, p.conv_kernel.shape)
    return ScoreNetParams(d_kernel, d_w1, d_b1, d_w2, d_b2)


def compress(saliency: np.ndarray, non_saliency: np.ndarray,
             p: CompressorParams, h: int) -> np.ndarray:
    """Compress non-saliency frames to the 1/h grid by cross-attending to
    the saliency frames, plus a pooled residual of the inputs.

    Queries come from the projected non-saliency tokens, keys and values
    from the projected saliency tokens; all three are mean-pooled to the
    target grid before a single-head attention with 1/sqrt(C) scaling.
    """
    saliency = np.asarray(saliency, dtype=F32)
    non_saliency = np.asarray(non_saliency, dtype=F32)
    if saliency.ndim != 4 or non_saliency.ndim != 4:
        raise ShapeError("compress expects [frames, M, N, C] parts")
    if saliency.shape[0] < 1:
        raise ShapeError("compressor needs at least one saliency reference frame")
    if saliency.shape[1:] != non_saliency.shape[1:]:
        raise ShapeError(
            f"part grids differ: {saliency.shape[1:]} vs {non_saliency.shape[1:]}"
        )
    if non_saliency.shape[0] == 0:  # no queries: run no kernel at all
        return np.empty((0, *numerics.pooled_grid(non_saliency.shape, h),
                         non_saliency.shape[-1]), F32)
    q = numerics.avgpool_downsample(numerics.linear(non_saliency, p.w_a), h)
    keys = numerics.avgpool_downsample(numerics.linear(saliency, p.w_b), h)
    vals = numerics.avgpool_downsample(numerics.linear(saliency, p.w_c), h)
    r, ml, nl, c = q.shape
    # each frame's queries attend to the pooled tokens of all K saliency frames
    mixed = numerics.attention(q.reshape(r, ml * nl, c), keys.reshape(-1, c),
                               vals.reshape(-1, c), heads=1)
    return mixed.reshape(q.shape) + numerics.avgpool_downsample(non_saliency, h)


class DccmResult(NamedTuple):
    sequence: MultiResSequence
    scores: np.ndarray               # float32 [T]


def dccm_forward(tokens: np.ndarray, params: DccmParams, k: int, h: int) -> DccmResult:
    """Score, rank, split and compress one token video.

    The token path is hard: the top-k frames by score stay at full
    resolution.  At h == 1 the two parts already share a grid and the
    compressor is skipped entirely, which keeps K=T/h=1 configurations
    bit-comparable to an unsplit pipeline.  A caller that hands over its
    only reference to the tokens has them freed at the split.
    """
    tokens = np.asarray(tokens, dtype=F32)
    if tokens.ndim != 4:
        raise ShapeError(f"tokens must be [T, M, N, C], got {tokens.shape}")

    scores = score_net_forward(tokens, params.score).scores
    sal, non, times = topk_split(tokens, hard_rank(scores), k)
    del tokens
    if h == 1:
        compressed = non
    else:
        compressed = compress(sal, non, params.compressor, h)
    seq = MultiResSequence(saliency=sal, non_saliency=compressed, times=times, h=h)
    return DccmResult(seq, scores)


# --- planted-saliency toy problem -------------------------------------

@dataclass(frozen=True)
class PlantedVideo:
    tokens: np.ndarray         # [T, M, N, C]
    salient_times: np.ndarray  # int64, sorted, the planted high-energy frames
    target_order: np.ndarray   # int64 [T], the planted frames first, then the rest


class TraceRow(NamedTuple):
    step: int
    loss: float
    accuracy: float


# planted videos' default grid side and width, and planted/background energy
_PLANTED_GRID, _PLANTED_CHANNELS, _PLANTED_ENERGY_RATIO = 2, 8, 3.0


def make_planted_dataset(count: int, frames: int = 8, salient_count: int = 2,
                         grid: int = _PLANTED_GRID, channels: int = _PLANTED_CHANNELS,
                         seed: int = 0) -> list[PlantedVideo]:
    """Random token videos where `salient_count` frames carry a fixed
    direction offset giving them `_PLANTED_ENERGY_RATIO` times the
    background per-token energy.  The target order lists the planted
    frames in time order, then the background frames in time order."""
    if not (1 <= salient_count < frames):
        raise ValueError(f"salient_count must be in [1, {frames}), got {salient_count}")
    stream = RandomStream(seed)
    direction = stream.gaussian(channels)
    direction = direction / np.sqrt(np.sum(direction * direction))
    amplitude = F32(np.sqrt((_PLANTED_ENERGY_RATIO - 1.0) * channels))

    videos = []
    for _ in range(count):
        tokens = stream.gaussian((frames, grid, grid, channels))
        salient = np.sort(stream.permutation(frames)[:salient_count]).astype(np.int64)
        tokens[salient] += amplitude * direction
        rest = np.ones(frames, bool)
        rest[salient] = False
        background = np.arange(frames, dtype=np.int64)[rest]
        videos.append(PlantedVideo(tokens, salient, np.concatenate([salient, background])))
    return videos


def toy_train_bytes(train: int, holdout: int, frames: int) -> int:
    """Bytes of float32 tokens that toy training on ``train`` plus
    ``holdout`` planted videos of ``frames`` frames, at the dataset's
    default grid and width, holds: every video's own, plus the training
    split that ``toy_train_scorenet`` stacks once."""
    return 4 * frames * _PLANTED_GRID ** 2 * _PLANTED_CHANNELS * (2 * train + holdout)


# the trainer refuses this many training videos or more (each video's
# seed is derived from its index, see toy_train_scorenet); drca toy-train
# checks it before building a dataset
MAX_TRAIN_VIDEOS = 100_000


def _check_top_k(videos: list[PlantedVideo], k: int) -> None:
    if not videos:
        raise ValueError("selection accuracy needs at least one video")
    t = videos[0].tokens.shape[0]
    if not 1 <= k <= t:
        raise ValueError(f"k must be in [1, T] = [1, {t}], got {k}")


def selection_accuracy(p: ScoreNetParams, videos: list[PlantedVideo], k: int) -> float:
    """Mean fraction of planted frames recovered by the hard top-k split.
    The videos share one shape and one planted count, and are scored and
    ranked in stacks of one ``numerics._CHUNK`` of token values (at least
    one video): each stack's rankings are one stable sort of its float64
    scores, row by row the order ``hard_rank`` gives each video, and each
    video's fraction is added in video order.  An empty list, or k outside
    [1, T], raises a ValueError."""
    _check_top_k(videos, k)
    hits = 0.0
    per = max(numerics._CHUNK // videos[0].tokens.size, 1)
    for lo in range(0, len(videos), per):
        block = videos[lo:lo + per]
        scores = score_net_forward(np.stack([v.tokens for v in block]), p).scores
        top = np.argsort(-_check_scores(scores, stacked=True), axis=1, kind="stable")[:, :k]
        salient = np.stack([v.salient_times for v in block])
        # the top-k frames are distinct, so each matches at most one planted frame
        counts = (top[:, :, None] == salient[:, None, :]).sum(axis=(1, 2))
        for count in counts.tolist():
            hits += count / k
    return hits / len(videos)


def _add_in_video_order(acc: ScoreNetParams | None, g: ScoreNetParams) -> ScoreNetParams:
    # acc + g[0] + g[1] + ..., left to right per field: a numpy sum over
    # the video axis would regroup the additions pairwise, and adding
    # per-block sums is not the in-order sum either
    if acc is None:
        return numerics.tree_map(lambda _, part: functools.reduce(operator.add, part),
                                 ScoreNetParams, g)
    return numerics.tree_map(lambda _, total, part: functools.reduce(operator.add, part, total),
                             ScoreNetParams, acc, g)


@np.errstate(over="ignore", invalid="ignore")
def toy_train_scorenet(train: list[PlantedVideo], holdout: list[PlantedVideo],
                       p: ScoreNetParams, k: int, steps: int, lr: float,
                       cfg: PerturbConfig) -> tuple[ScoreNetParams, list[TraceRow]]:
    """Full-batch gradient descent of the score-net against the planted
    permutations, through the smoothed ranking.

    The per-step loss is the mean over videos of -<G, smoothed ranking of
    the scores>, G the permutation matrix of the video's target order,
    built per block of videos.  Returns the final parameters and a trace
    with one row per step plus the initial row; accuracy is measured on
    the holdout split with the hard top-k.

    The training split is stacked once and run through the score-net in
    stacks of one ``numerics._CHUNK`` of token values (at least one
    video); the per-video gradients are summed in video order, so the
    result is bitwise the one-video-at-a-time loop's.  The smoothed
    ranking takes each stack's scores in one call, and video i draws with
    seed ``cfg.seed + i``: one frozen draw per video, shared by the loss
    and its gradient and reused across steps, so full-batch descent walks
    a fixed sampled objective and the loss trace stays free of resampling
    jitter.

    Empty splits and a k outside [1, T] raise a ValueError before the
    first step.  A run that diverges raises a ValueError naming the step
    whose training scores are not finite; the overflows on the way there
    raise no floating-point warnings."""
    if not train or not holdout:
        raise ValueError("toy training needs at least one training and one holdout video")
    _check_top_k(holdout, k)
    if len(train) >= MAX_TRAIN_VIDEOS:
        raise ValueError("training set too large for the seed derivation")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    tokens = np.stack([v.tokens for v in train])
    orders = np.stack([v.target_order for v in train])     # [videos, T]
    frames = np.arange(orders.shape[1])[:, None]
    per = max(numerics._CHUNK // tokens[0].size, 1)
    trace = []
    for step in range(steps + 1):
        loss_sum = 0.0
        grads_sum = None
        for lo in range(0, len(train), per):
            fwd = score_net_forward(tokens[lo:lo + per], p)
            if not np.isfinite(fwd.scores).all():
                raise ValueError(f"toy training diverged at step {step}: "
                                 "the score-net's scores are not finite")
            # minus each target permutation matrix: entry (o, c) is -1
            # where the video's target order ranks frame o c-th
            targets = -(orders[lo:lo + per, None, :] == frames).astype(F32)
            losses, d_scores = perturbed_objective(
                fwd.scores, replace(cfg, seed=cfg.seed + lo), targets)
            for loss_v in losses.tolist():
                loss_sum += loss_v
            if step == steps:
                continue  # the last pass only records the trace row
            grads_sum = _add_in_video_order(grads_sum, score_net_backward(fwd, p, d_scores))
        scale = F32(1.0 / len(train))
        loss = loss_sum / len(train)
        trace.append(TraceRow(step, loss, selection_accuracy(p, holdout, k)))
        if step == steps:
            break
        rate = F32(lr)
        p = numerics.tree_map(lambda _, w, grad: w - rate * scale * grad,
                              ScoreNetParams, p, grads_sum)
    return p, trace
