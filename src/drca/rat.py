"""Resolution-aligned transformer layer.

Each layer runs, in order: temporal attention on an h-aligned coarse
grid (saliency frames pooled down to the non-saliency resolution, all
frames merged back into time order), spatial self-attention per frame at
each part's native resolution, and a shared feed-forward sublayer.  All
three are pre-norm residual blocks; the temporal residual reaching the
saliency part is added to every cell of its h x h block.

Each sublayer streams: it runs its whole chain (norm, projections,
attention or MLP, out-projection, residual) over blocks of independent
groups -- grid rows for temporal attention, frames for spatial
attention, token rows for the feed-forward sublayer -- and writes each
block into one output allocated up front, so no transient is larger
than a block's (``_BLOCK_ROWS``).  Every kernel computes a token row,
and an attention group, on its own, and no block is a single row, so
the blocked output is bitwise that of one call on the whole.  Blocks
change neither the flops nor which kernels are called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .numerics import F32, RandomStream
from .dccm import MultiResSequence


@dataclass(frozen=True)
class AttentionParams:
    wq: np.ndarray       # [C, C]
    wk: np.ndarray       # [C, C]
    wv: np.ndarray       # [C, C]
    wo: np.ndarray       # [C, C]
    ln_gain: np.ndarray  # [C]
    ln_shift: np.ndarray # [C]

    @classmethod
    def init(cls, c: int, stream: RandomStream, scale: float = 0.02) -> "AttentionParams":
        return cls(
            wq=stream.gaussian((c, c), scale),
            wk=stream.gaussian((c, c), scale),
            wv=stream.gaussian((c, c), scale),
            wo=stream.gaussian((c, c), scale),
            ln_gain=np.ones(c, F32),
            ln_shift=np.zeros(c, F32),
        )


@dataclass(frozen=True)
class FeedForwardParams:
    w1: np.ndarray       # [C, 4C]
    b1: np.ndarray       # [4C]
    w2: np.ndarray       # [4C, C]
    b2: np.ndarray       # [C]
    ln_gain: np.ndarray  # [C]
    ln_shift: np.ndarray # [C]

    @classmethod
    def init(cls, c: int, stream: RandomStream, scale: float = 0.02) -> "FeedForwardParams":
        return cls(
            w1=stream.gaussian((c, 4 * c), scale),
            b1=np.zeros(4 * c, F32),
            w2=stream.gaussian((4 * c, c), scale),
            b2=np.zeros(c, F32),
            ln_gain=np.ones(c, F32),
            ln_shift=np.zeros(c, F32),
        )


@dataclass(frozen=True)
class RatLayerParams:
    temporal: AttentionParams
    spatial: AttentionParams
    ffn: FeedForwardParams

    @classmethod
    def init(cls, c: int, stream: RandomStream, scale: float = 0.02) -> "RatLayerParams":
        return cls(
            temporal=AttentionParams.init(c, stream, scale),
            spatial=AttentionParams.init(c, stream, scale),
            ffn=FeedForwardParams.init(c, stream, scale),
        )


# the most token rows in a block of a sublayer.  On DRCA-S-K4 (196-token
# frames, 1568 token rows at full resolution) it gives spatial blocks of
# two frames and feed-forward blocks of 392 rows, whose transients, a few
# MB, malloc keeps mapped from one block to the next.  Measured there:
# blocks of 784 rows ran 17% slower, re-faulting ~97k freed pages per
# forward, and one-frame spatial blocks 10% slower, their projections
# being narrow GEMMs
_BLOCK_ROWS = 512


def _block_count(groups: int, rows: int) -> int:
    """How many blocks a sublayer splits `groups` independent groups of
    `rows` token rows into: enough for each to hold at most
    ``_BLOCK_ROWS`` rows (at least one group), but never so many that a
    block is a single row, unless the whole is one row.  A single row
    takes numpy's matrix-vector path, whose last bits differ from the
    full call's."""
    most = groups // 2 if rows == 1 else groups
    return max(min(-(-groups // max(_BLOCK_ROWS // rows, 1)), most), 1)


def block_groups(groups: int, rows: int) -> int:
    """Groups in the largest block that a sublayer runs over `groups`
    groups of `rows` token rows; the flop model sizes arrays by it."""
    return -(-groups // _block_count(groups, rows))


def _blocks(groups: int, rows: int) -> list[slice]:
    """The blocks of `groups` groups of `rows` token rows, split as evenly
    as the groups allow."""
    count = _block_count(groups, rows)
    bounds = [groups * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _residual(x: np.ndarray, fn) -> np.ndarray:
    """x + fn(x) over blocks of the leading axis of `x`, an axis of
    independent groups of token rows [G, ..., C], into one output."""
    out = np.empty_like(x)
    for block in _blocks(len(x), math.prod(x.shape[1:-1])):
        np.add(x[block], fn(x[block]), out=out[block])
    return out


def _multihead(x: np.ndarray, p: AttentionParams, heads: int) -> np.ndarray:
    """Pre-norm multi-head self-attention over the second-to-last axis.

    x: [..., tokens, C]; returns the out-projected attention result
    (residual is added by the caller).
    """
    ln = numerics.layer_norm(x, p.ln_gain, p.ln_shift)
    q, k, v = (numerics.linear(ln, w) for w in (p.wq, p.wk, p.wv))
    return numerics.linear(numerics.attention(q, k, v, heads), p.wo)


def temporal_attention(seq: MultiResSequence, p: AttentionParams,
                       heads: int) -> MultiResSequence:
    """Attention along time on the aligned coarse grid.

    Saliency frames are mean-pooled to the non-saliency grid, every frame
    is placed at its original time index, and each grid location attends
    over all T frames.  The result is added back residually: to every
    cell of its h x h block for the saliency part, as-is for the
    non-saliency part.  Runs over blocks of grid rows."""
    sal, non, times, h = seq.saliency, seq.non_saliency, seq.times, seq.h
    k, r = sal.shape[0], non.shape[0]
    ml, nl = seq.low_grid
    c = seq.channels

    low_sal = numerics.avgpool_downsample(sal, h) if h > 1 else sal
    # location-major, time the attention axis: [ml, nl, T, C]
    merged = np.empty((ml, nl, k + r, c), F32)
    merged[:, :, times.saliency] = low_sal.transpose(1, 2, 0, 3)
    merged[:, :, times.non_saliency] = non.transpose(1, 2, 0, 3)

    new_sal, new_non = np.empty_like(sal), np.empty_like(non)
    # [K, ml, h, nl, h, C] views: one coarse cell's h x h block of cells
    sal6, new_sal6 = (a.reshape(k, ml, h, nl, h, c) for a in (sal, new_sal))
    for rows in _blocks(ml, nl * (k + r)):
        att = _multihead(merged[rows], p, heads)
        att_sal = att[:, :, times.saliency].transpose(2, 0, 1, 3)
        np.add(sal6[:, rows], att_sal[:, :, None, :, None], out=new_sal6[:, rows])
        att_non = att[:, :, times.non_saliency].transpose(2, 0, 1, 3)
        np.add(non[:, rows], att_non, out=new_non[:, rows])
    return MultiResSequence(new_sal, new_non, times, h)


def spatial_attention(seq: MultiResSequence, p: AttentionParams,
                      heads: int) -> MultiResSequence:
    """Per-frame self-attention, each part at its native resolution; runs
    over blocks of frames."""

    def attend(part: np.ndarray) -> np.ndarray:
        f, m, n, c = part.shape
        x = part.reshape(f, m * n, c)
        return _residual(x, lambda xb: _multihead(xb, p, heads)).reshape(part.shape)

    return MultiResSequence(attend(seq.saliency), attend(seq.non_saliency), seq.times, seq.h)


def feed_forward(seq: MultiResSequence, p: FeedForwardParams) -> MultiResSequence:
    """Token-wise two-layer GELU block applied to both parts; runs over
    blocks of token rows."""

    def mlp(x: np.ndarray) -> np.ndarray:
        ln = numerics.layer_norm(x, p.ln_gain, p.ln_shift)
        hidden = numerics.gelu(numerics.linear(ln, p.w1, p.b1))
        return numerics.linear(hidden, p.w2, p.b2)

    def run(part: np.ndarray) -> np.ndarray:
        return _residual(part.reshape(-1, part.shape[-1]), mlp).reshape(part.shape)

    return MultiResSequence(run(seq.saliency), run(seq.non_saliency), seq.times, seq.h)


def rat_layer_forward(seq: MultiResSequence, p: RatLayerParams,
                      heads: int) -> MultiResSequence:
    """One full layer with `heads` attention heads: temporal, then
    spatial, then feed-forward."""
    seq = temporal_attention(seq, p.temporal, heads)
    seq = spatial_attention(seq, p.spatial, heads)
    return feed_forward(seq, p.ffn)
