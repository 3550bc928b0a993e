"""Resolution-aligned transformer layer.

Each layer runs, in order: temporal attention on an h-aligned coarse
grid (saliency frames pooled down to the non-saliency resolution, all
frames merged back into time order), spatial self-attention per frame at
each part's native resolution, and a shared feed-forward sublayer.  All
three are pre-norm residual blocks; the temporal residual reaching the
saliency part is nearest-upsampled back to full resolution.
"""

from __future__ import annotations

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
        s = F32(scale)
        return cls(
            wq=stream.gaussian((c, c)) * s,
            wk=stream.gaussian((c, c)) * s,
            wv=stream.gaussian((c, c)) * s,
            wo=stream.gaussian((c, c)) * s,
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
        s = F32(scale)
        return cls(
            w1=stream.gaussian((c, 4 * c)) * s,
            b1=np.zeros(4 * c, F32),
            w2=stream.gaussian((4 * c, c)) * s,
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
    over all T frames.  The result is added back residually: upsampled for
    the saliency part, as-is for the non-saliency part."""
    k, r = seq.saliency.shape[0], seq.non_saliency.shape[0]
    t = k + r
    ml, nl = seq.low_grid
    c = seq.channels

    if seq.h > 1:
        low_sal = numerics.avgpool_downsample(seq.saliency, seq.h)
    else:
        low_sal = seq.saliency
    merged = np.empty((t, ml, nl, c), F32)
    merged[seq.times.saliency] = low_sal
    merged[seq.times.non_saliency] = seq.non_saliency

    tokens = merged.reshape(t, ml * nl, c)
    # time is the attention axis: [location, T, C]
    att = _multihead(np.swapaxes(tokens, 0, 1), p, heads)
    att = np.swapaxes(att, 0, 1).reshape(t, ml, nl, c)

    sal_att = att[seq.times.saliency]
    if seq.h > 1:
        sal_att = numerics.nearest_upsample(sal_att, seq.h)
    new_sal = seq.saliency + sal_att
    new_non = seq.non_saliency + att[seq.times.non_saliency]
    return MultiResSequence(new_sal, new_non, seq.times, seq.h)


def spatial_attention(seq: MultiResSequence, p: AttentionParams,
                      heads: int) -> MultiResSequence:
    """Per-frame self-attention, each part at its native resolution."""

    def attend(part: np.ndarray) -> np.ndarray:
        f, m, n, c = part.shape
        x = part.reshape(f, m * n, c)
        return (x + _multihead(x, p, heads)).reshape(f, m, n, c)

    return MultiResSequence(attend(seq.saliency), attend(seq.non_saliency), seq.times, seq.h)


def feed_forward(seq: MultiResSequence, p: FeedForwardParams) -> MultiResSequence:
    """Token-wise two-layer GELU block applied to both parts."""

    def mlp(part: np.ndarray) -> np.ndarray:
        ln = numerics.layer_norm(part, p.ln_gain, p.ln_shift)
        hidden = numerics.gelu(numerics.linear(ln, p.w1, p.b1))
        return part + numerics.linear(hidden, p.w2, p.b2)

    return MultiResSequence(mlp(seq.saliency), mlp(seq.non_saliency), seq.times, seq.h)


def rat_layer_forward(seq: MultiResSequence, p: RatLayerParams,
                      heads: int) -> MultiResSequence:
    """One full layer with `heads` attention heads: temporal, then
    spatial, then feed-forward."""
    seq = temporal_attention(seq, p.temporal, heads)
    seq = spatial_attention(seq, p.spatial, heads)
    return feed_forward(seq, p.ffn)
