"""Resolution-aligned transformer layer.

Each layer runs, in order: temporal attention on an h-aligned coarse
grid (saliency frames pooled down to the non-saliency resolution, all
frames merged back into time order), spatial self-attention per frame at
each part's native resolution, and a shared feed-forward sublayer.  All
three are pre-norm residual blocks; the temporal residual reaching the
saliency part is added to every cell of its h x h block.

Each sublayer updates the sequence it is given in place and returns it,
so a forward updates one residual stream; a caller that needs its input
afterwards passes a copy.  Each sublayer streams: it runs its whole
chain (norm, projections, attention or MLP, out-projection, residual)
over blocks of independent groups -- grid rows for temporal attention,
frames for spatial attention, token rows for the feed-forward sublayer
-- so no transient is larger than a block's (``_BLOCK_ROWS``).  Inside
a block, attention runs over tiles of whole groups of at most half a
block's rows, and each tile's result overwrites the query rows it read,
so the projections see a whole block's rows while the quadratic scores
stay those of half a block.  A block reads only its own rows (temporal
attention copies its block's grid rows into time order first), then
adds its residual into them through views of the parts, which
``MultiResSequence`` keeps C-contiguous.  Every kernel computes a token
row, and an attention group, on its own, and no block is a single row,
so the blocked and tiled output is bitwise that of one call on the
whole.  Blocks and tiles change neither the flops nor which kernels are
called, and an empty part runs no block.  Within a block each temporary
is freed once its last reader has run, so the block's working set peaks
at its q, k, v and one tile's scores, or at its hidden activation.
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


# the most token rows in a block of a sublayer, and twice the most
# query rows in one attention call.  On DRCA-S-K4 (196-token frames,
# 1568 token rows at full resolution) it gives blocks of four frames or
# 784 rows, whose q, k, v, o and feed-forward products run near the
# GEMM peak of a 2-vCPU Xeon with OpenBLAS (392-row products ran at two
# thirds of it), and attention tiles of two frames, whose [2, 6, 196,
# 196] scores are those of 512-row blocks
_BLOCK_ROWS = 1024


def _block_count(groups: int, rows: int, most_rows: int | None = None) -> int:
    """How many blocks a sublayer splits `groups` independent groups of
    `rows` token rows into: enough for each to hold at most `most_rows`
    (by default ``_BLOCK_ROWS``) rows (at least one group), but never so
    many that a block is a single row, unless the whole is one row.  A
    single row takes numpy's matrix-vector path, whose last bits differ
    from the full call's."""
    most = groups // 2 if rows == 1 else groups
    per_block = max((most_rows or _BLOCK_ROWS) // rows, 1)
    return max(min(-(-groups // per_block), most), 1)


def block_groups(groups: int, rows: int, most_rows: int | None = None) -> int:
    """Groups in the largest block that a sublayer runs over `groups`
    groups of `rows` token rows (see ``_block_count``); the flop model
    sizes the feed-forward hidden activation by it."""
    return -(-groups // _block_count(groups, rows, most_rows))


def tile_groups(groups: int, tokens: int, per_group: int = 1) -> int:
    """Attention groups in the largest tile of an attention sublayer that
    runs over blocks of `groups` groups, each `per_group` attention
    groups of `tokens` token rows; the flop model sizes the attention
    scores by it.  Blocks differ by at most one group, and the smaller
    one can hold the larger tile, so both are sized."""
    count = _block_count(groups, per_group * tokens)
    return max(block_groups(per_group * size, tokens, _BLOCK_ROWS // 2)
               for size in (groups // count, -(-groups // count)))


def _blocks(groups: int, rows: int, most_rows: int | None = None) -> list[slice]:
    """The blocks of `groups` groups of `rows` token rows, split as evenly
    as the groups allow (see ``_block_count``)."""
    count = _block_count(groups, rows, most_rows)
    bounds = [groups * i // count for i in range(count + 1)]
    # no groups make no block
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _residual(x: np.ndarray, fn) -> None:
    """x += fn(x) over blocks of the leading axis of `x`, an axis of
    independent groups of token rows [G, ..., C]."""
    for block in _blocks(len(x), math.prod(x.shape[1:-1])):
        x[block] += fn(x[block])


def _multihead(x: np.ndarray, p: AttentionParams, heads: int) -> np.ndarray:
    """Pre-norm multi-head self-attention over the second-to-last axis.

    x: [..., tokens, C]; returns the out-projected attention result
    (residual is added by the caller).  A caller that hands over its only
    reference to x has it freed once it is normalised.  Attention runs
    over tiles of whole groups of at most ``_BLOCK_ROWS // 2`` query
    rows, each tile's result written over the query rows it read.
    """
    shape = x.shape
    # [groups, tokens, C] views of fresh, C-contiguous arrays
    ln = numerics.layer_norm(x, p.ln_gain, p.ln_shift).reshape(-1, *shape[-2:])
    del x
    q, k, v = (numerics.linear(ln, w) for w in (p.wq, p.wk, p.wv))
    del ln
    for tile in _blocks(len(q), shape[-2], _BLOCK_ROWS // 2):
        q[tile] = numerics.attention(q[tile], k[tile], v[tile], heads)
    del k, v
    return numerics.linear(q, p.wo).reshape(shape)


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

    def merged(rows: slice) -> np.ndarray:
        # the block's grid rows, location-major with time the attention
        # axis [rows, nl, T, C]: a copy, made before these rows are updated
        block = np.empty((rows.stop - rows.start, nl, k + r, c), F32)
        block[:, :, times.saliency] = low_sal[:, rows].transpose(1, 2, 0, 3)
        block[:, :, times.non_saliency] = non[:, rows].transpose(1, 2, 0, 3)
        return block

    # a [K, ml, h, nl, h, C] view: one coarse cell's h x h block of cells
    sal6 = sal.reshape(k, ml, h, nl, h, c)
    for rows in _blocks(ml, nl * (k + r)):
        # _multihead holds the merged block's only reference, and no
        # block's result outlives its residual adds
        att = _multihead(merged(rows), p, heads)
        sal6[:, rows] += att[:, :, times.saliency].transpose(2, 0, 1, 3)[:, :, None, :, None]
        non[:, rows] += att[:, :, times.non_saliency].transpose(2, 0, 1, 3)
        del att
    return seq


def spatial_attention(seq: MultiResSequence, p: AttentionParams,
                      heads: int) -> MultiResSequence:
    """Per-frame self-attention, each part at its native resolution; runs
    over blocks of frames."""
    for part in (seq.saliency, seq.non_saliency):
        f, m, n, c = part.shape
        _residual(part.reshape(f, m * n, c), lambda xb: _multihead(xb, p, heads))
    return seq


def feed_forward(seq: MultiResSequence, p: FeedForwardParams) -> MultiResSequence:
    """Token-wise two-layer GELU block applied to both parts; runs over
    blocks of token rows."""

    def mlp(x: np.ndarray) -> np.ndarray:
        # the norm output is freed once the hidden activation is made
        hidden = numerics.linear(numerics.layer_norm(x, p.ln_gain, p.ln_shift), p.w1, p.b1)
        return numerics.linear(numerics.gelu(hidden, out=hidden), p.w2, p.b2)

    for part in (seq.saliency, seq.non_saliency):
        _residual(part.reshape(-1, part.shape[-1]), mlp)
    return seq


def rat_layer_forward(seq: MultiResSequence, p: RatLayerParams,
                      heads: int) -> MultiResSequence:
    """One full layer with `heads` attention heads: temporal, then
    spatial, then feed-forward, each updating `seq` in place; returns
    `seq`."""
    temporal_attention(seq, p.temporal, heads)
    spatial_attention(seq, p.spatial, heads)
    return feed_forward(seq, p.ffn)
