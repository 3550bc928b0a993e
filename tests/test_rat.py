"""Resolution-aligned attention layer.

The multi-head blocks are checked against a per-head float64 loop
reimplementation, and the routing (which tokens may influence which) is
checked bitwise by perturbing single frames or grid sites.
"""

import numpy as np
import pytest
from scipy.special import erf

from drca.dccm import MultiResSequence, full_res_sequence
from drca.numerics import F32, RandomStream, ShapeError
from drca.ranking import TimeIndexMap
from drca.rat import (
    AttentionParams,
    FeedForwardParams,
    RatLayerParams,
    feed_forward,
    rat_layer_forward,
    spatial_attention,
    temporal_attention,
)


def _sequence(seed: int, k=2, r=3, m=4, n=4, c=6, h=2) -> MultiResSequence:
    stream = RandomStream(seed)
    times = stream.permutation(k + r).astype(np.int64)
    return MultiResSequence(
        saliency=stream.gaussian((k, m, n, c)),
        non_saliency=stream.gaussian((r, m // h, n // h, c)),
        times=TimeIndexMap(times[:k], times[k:]),
        h=h,
    )


def _layer(c: int, seed: int) -> RatLayerParams:
    return RatLayerParams.init(c, RandomStream(seed), scale=0.3)


def _zero_layer(c: int) -> RatLayerParams:
    z = np.zeros((c, c), F32)
    att = AttentionParams(z, z, z, z, np.ones(c, F32), np.zeros(c, F32))
    ffn = FeedForwardParams(np.zeros((c, 4 * c), F32), np.zeros(4 * c, F32),
                            np.zeros((4 * c, c), F32), np.zeros(c, F32),
                            np.ones(c, F32), np.zeros(c, F32))
    return RatLayerParams(att, att, ffn)


def _mha_oracle(x: np.ndarray, p: AttentionParams, heads: int) -> np.ndarray:
    """Float64 loop restatement of the pre-norm multi-head block for one
    [tokens, C] matrix (residual not included)."""
    x64 = np.float64(x)
    c = x64.shape[-1]
    d = c // heads
    mu = x64.mean(-1, keepdims=True)
    var = ((x64 - mu) ** 2).mean(-1, keepdims=True)
    ln = (x64 - mu) / np.sqrt(var + 1e-6) * np.float64(p.ln_gain) + np.float64(p.ln_shift)
    q, k, v = ln @ np.float64(p.wq), ln @ np.float64(p.wk), ln @ np.float64(p.wv)
    parts = []
    for head in range(heads):
        cols = slice(head * d, (head + 1) * d)
        logits = q[:, cols] @ k[:, cols].T / np.sqrt(d)
        w = np.exp(logits - logits.max(-1, keepdims=True))
        w = w / w.sum(-1, keepdims=True)
        parts.append(w @ v[:, cols])
    return np.concatenate(parts, -1) @ np.float64(p.wo)


# --- structure ----------------------------------------------------------

def test_layer_preserves_structure():
    seq = _sequence(0)
    out = rat_layer_forward(seq, _layer(6, 1), heads=2)
    assert out.saliency.shape == seq.saliency.shape
    assert out.non_saliency.shape == seq.non_saliency.shape
    assert out.saliency.dtype == F32 and out.non_saliency.dtype == F32
    assert out.h == seq.h
    assert np.array_equal(out.times.saliency, seq.times.saliency)
    assert np.array_equal(out.times.non_saliency, seq.times.non_saliency)
    assert np.all(np.isfinite(out.saliency)) and np.all(np.isfinite(out.non_saliency))


def test_layer_is_deterministic():
    seq = _sequence(2)
    p = _layer(6, 3)
    a, b = rat_layer_forward(seq, p, heads=3), rat_layer_forward(seq, p, heads=3)
    assert np.array_equal(a.saliency, b.saliency)
    assert np.array_equal(a.non_saliency, b.non_saliency)


def test_head_count_validation():
    seq, layer = _sequence(0), _layer(6, 0)
    with pytest.raises(ShapeError, match="head count"):
        rat_layer_forward(seq, layer, heads=4)
    with pytest.raises(ShapeError, match="head count"):
        rat_layer_forward(seq, layer, heads=0)


def test_empty_non_saliency_part_is_preserved():
    seq = full_res_sequence(RandomStream(4).gaussian((3, 4, 4, 6)))
    out = rat_layer_forward(seq, _layer(6, 5), heads=2)
    assert out.non_saliency.shape == (0, 4, 4, 6)
    assert out.saliency.shape == (3, 4, 4, 6)
    assert np.all(np.isfinite(out.saliency))


# --- attention math vs float64 loops -------------------------------------

@pytest.mark.parametrize("heads", [1, 2, 3])
def test_spatial_attention_matches_per_head_loop(heads):
    seq = _sequence(6, k=2, r=2, m=4, n=4, c=6)
    p = AttentionParams.init(6, RandomStream(7), scale=0.3)
    out = spatial_attention(seq, p, heads)
    for part, ref in ((out.saliency, seq.saliency),
                      (out.non_saliency, seq.non_saliency)):
        for f in range(ref.shape[0]):
            g = ref.shape[1] * ref.shape[2]
            x = ref[f].reshape(g, 6)
            expected = np.float64(x) + _mha_oracle(x, p, heads)
            np.testing.assert_allclose(part[f].reshape(g, 6), expected, atol=1e-5)


def test_temporal_attention_matches_loop_oracle_h1():
    seq = _sequence(8, k=2, r=3, m=2, n=2, c=6, h=1)
    p = AttentionParams.init(6, RandomStream(9), scale=0.3)
    out = temporal_attention(seq, p, heads=2)

    merged = np.zeros((5, 2, 2, 6))
    merged[seq.times.saliency] = np.float64(seq.saliency)
    merged[seq.times.non_saliency] = np.float64(seq.non_saliency)
    att = np.zeros_like(merged)
    for i in range(2):
        for j in range(2):
            att[:, i, j] = _mha_oracle(merged[:, i, j], p, 2)
    np.testing.assert_allclose(
        out.saliency, np.float64(seq.saliency) + att[seq.times.saliency], atol=1e-5)
    np.testing.assert_allclose(
        out.non_saliency, np.float64(seq.non_saliency) + att[seq.times.non_saliency],
        atol=1e-5)


def test_temporal_attention_matches_loop_oracle_h2():
    seq = _sequence(10, k=2, r=3, m=4, n=4, c=6, h=2)
    p = AttentionParams.init(6, RandomStream(11), scale=0.3)
    out = temporal_attention(seq, p, heads=3)

    sal64 = np.float64(seq.saliency)
    low_sal = sal64.reshape(2, 2, 2, 2, 2, 6).mean(axis=(2, 4))
    merged = np.zeros((5, 2, 2, 6))
    merged[seq.times.saliency] = low_sal
    merged[seq.times.non_saliency] = np.float64(seq.non_saliency)
    att = np.zeros_like(merged)
    for i in range(2):
        for j in range(2):
            att[:, i, j] = _mha_oracle(merged[:, i, j], p, 3)
    up = np.repeat(np.repeat(att[seq.times.saliency], 2, axis=1), 2, axis=2)
    np.testing.assert_allclose(out.saliency, sal64 + up, atol=1e-5)
    np.testing.assert_allclose(
        out.non_saliency, np.float64(seq.non_saliency) + att[seq.times.non_saliency],
        atol=1e-5)


def test_feed_forward_matches_float64_oracle():
    seq = _sequence(12, m=2, n=2, h=1)
    p = FeedForwardParams.init(6, RandomStream(13), scale=0.3)
    out = feed_forward(seq, p)
    x64 = np.float64(seq.saliency)
    mu = x64.mean(-1, keepdims=True)
    var = ((x64 - mu) ** 2).mean(-1, keepdims=True)
    ln = (x64 - mu) / np.sqrt(var + 1e-6) * np.float64(p.ln_gain) + np.float64(p.ln_shift)
    pre = ln @ np.float64(p.w1) + np.float64(p.b1)
    hidden = 0.5 * pre * (1.0 + erf(pre / np.sqrt(2.0)))
    expected = x64 + hidden @ np.float64(p.w2) + np.float64(p.b2)
    np.testing.assert_allclose(out.saliency, expected, atol=1e-5)


# --- routing: who may influence whom -------------------------------------

def test_spatial_attention_is_frame_local():
    seq = _sequence(14)
    p = AttentionParams.init(6, RandomStream(15), scale=0.3)
    base = spatial_attention(seq, p, heads=2)

    bumped_non = seq.non_saliency.copy()
    bumped_non[1] += F32(1)
    bumped = spatial_attention(
        MultiResSequence(seq.saliency, bumped_non, seq.times, seq.h), p, heads=2)
    assert np.array_equal(bumped.saliency, base.saliency)
    assert np.array_equal(bumped.non_saliency[[0, 2]], base.non_saliency[[0, 2]])
    assert not np.array_equal(bumped.non_saliency[1], base.non_saliency[1])

    bumped_sal = seq.saliency.copy()
    bumped_sal[0] += F32(1)
    bumped = spatial_attention(
        MultiResSequence(bumped_sal, seq.non_saliency, seq.times, seq.h), p, heads=2)
    assert np.array_equal(bumped.non_saliency, base.non_saliency)
    assert np.array_equal(bumped.saliency[1], base.saliency[1])


def test_temporal_attention_is_site_local_at_h1():
    seq = _sequence(16, k=2, r=3, m=2, n=2, c=6, h=1)
    p = AttentionParams.init(6, RandomStream(17), scale=0.3)
    base = temporal_attention(seq, p, heads=2)

    bumped_non = seq.non_saliency.copy()
    bumped_non[0, 0, 1] += F32(1)
    bumped = temporal_attention(
        MultiResSequence(seq.saliency, bumped_non, seq.times, seq.h), p, heads=2)
    # every other grid site is untouched in every frame of both parts
    for i in range(2):
        for j in range(2):
            if (i, j) == (0, 1):
                continue
            assert np.array_equal(bumped.saliency[:, i, j], base.saliency[:, i, j])
            assert np.array_equal(bumped.non_saliency[:, i, j],
                                  base.non_saliency[:, i, j])
    assert not np.array_equal(bumped.non_saliency[:, 0, 1], base.non_saliency[:, 0, 1])
    assert not np.array_equal(bumped.saliency[:, 0, 1], base.saliency[:, 0, 1])


def test_feed_forward_is_token_local():
    seq = _sequence(18)
    p = FeedForwardParams.init(6, RandomStream(19), scale=0.3)
    base = feed_forward(seq, p)
    bumped_non = seq.non_saliency.copy()
    bumped_non[2, 1, 0] += F32(1)
    bumped = feed_forward(
        MultiResSequence(seq.saliency, bumped_non, seq.times, seq.h), p)
    assert np.array_equal(bumped.saliency, base.saliency)
    delta = (bumped.non_saliency != base.non_saliency).any(axis=-1)
    expected = np.zeros_like(delta)
    expected[2, 1, 0] = True
    assert np.array_equal(delta, expected)


def test_zero_parameter_layer_is_the_identity():
    # all projections zero makes every sublayer contribute a zero residual,
    # so the input tokens must come back bit for bit (h=1 and h=2 paths)
    for h in (1, 2):
        seq = _sequence(20 + h, h=h)
        out = rat_layer_forward(seq, _zero_layer(6), heads=2)
        assert np.array_equal(out.saliency, seq.saliency)
        assert np.array_equal(out.non_saliency, seq.non_saliency)
