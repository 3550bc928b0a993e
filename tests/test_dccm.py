"""Frame scoring, splitting and context-aware compression.

The score-net backward pass is checked entry by entry against central
finite differences of the forward pass, and the compressor against a
plain-loop float64 reimplementation.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drca import dccm, numerics
from drca.dccm import (
    CompressorParams,
    DccmParams,
    MultiResSequence,
    PlantedVideo,
    ScoreNetParams,
    compress,
    dccm_forward,
    full_res_sequence,
    make_planted_dataset,
    score_net_backward,
    score_net_forward,
    selection_accuracy,
    toy_train_scorenet,
)
from drca.numerics import F32, RandomStream, ShapeError
from drca.ranking import PerturbConfig, TimeIndexMap, hard_rank, perturbed_objective


def _score_params(seed: int) -> ScoreNetParams:
    # hand-built rather than .init() so the biases are nonzero and the
    # relu pre-activations sit safely away from the kink
    stream = RandomStream(seed)
    return ScoreNetParams(
        conv_kernel=stream.gaussian((3, 3, 3, 3, 2)) * F32(0.3),
        w1=stream.gaussian((2, 3)) * F32(0.5),
        b1=stream.gaussian(3) * F32(0.3),
        w2=stream.gaussian((3, 1)) * F32(0.5),
        b2=stream.gaussian(1) * F32(0.2),
    )


def _toy_params(channels: int, seed: int) -> DccmParams:
    return DccmParams(
        score=ScoreNetParams.init(channels, 2, 4, RandomStream(seed)),
        compressor=CompressorParams.init(channels, RandomStream(seed + 1)),
    )


# --- score net ---------------------------------------------------------

def test_score_net_shape_and_determinism():
    tokens = RandomStream(0).gaussian((5, 2, 2, 3))
    p = _score_params(1)
    scores = score_net_forward(tokens, p).scores
    assert scores.shape == (5,) and scores.dtype == F32
    assert np.array_equal(scores, score_net_forward(tokens, p).scores)


def test_score_net_input_validation():
    p = _score_params(1)
    with pytest.raises(ShapeError):
        score_net_forward(RandomStream(0).gaussian((2, 2, 3)), p)
    with pytest.raises(ShapeError):
        score_net_backward(score_net_forward(RandomStream(0).gaussian((5, 2, 2, 3)), p),
                           p, np.zeros(4, F32))


def test_score_net_needs_a_single_output_column():
    tokens = RandomStream(0).gaussian((5, 2, 2, 3))
    p = _score_params(1)
    hidden = p.w1.shape[1]
    wide = replace(p, w2=RandomStream(2).gaussian((hidden, 3)), b2=np.zeros(3, F32))
    with pytest.raises(ShapeError, match="one output column"):
        score_net_forward(tokens, wide)
    with pytest.raises(ShapeError, match="one output column"):
        score_net_forward(tokens, replace(p, b2=np.zeros(3, F32)))
    with pytest.raises(ShapeError, match="one output column"):
        score_net_forward(tokens, replace(p, w2=p.w2[:, 0]))


def _weighted_score_sum(tokens, p, upstream) -> float:
    scores = score_net_forward(tokens, p).scores
    return float(np.sum(np.float64(upstream) * np.float64(scores)))


@pytest.mark.parametrize("field", ["conv_kernel", "w1", "b1", "w2", "b2"])
def test_score_net_backward_matches_finite_differences(field):
    tokens = RandomStream(6).gaussian((3, 2, 2, 3))
    p = _score_params(5)
    upstream = RandomStream(5).gaussian(3)

    # guard: the relu inputs must be far from zero or central differences
    # would straddle the kink and measure nothing meaningful
    pooled = numerics.mean_pool(numerics.conv3d(tokens, p.conv_kernel), axes=(1, 2))
    assert np.min(np.abs(pooled @ p.w1 + p.b1)) > 0.02

    analytic = getattr(score_net_backward(score_net_forward(tokens, p), p, upstream), field)
    base = getattr(p, field)
    delta = 3e-3
    fd = np.zeros(base.shape, np.float64)
    for idx in np.ndindex(*base.shape):
        plus, minus = base.copy(), base.copy()
        plus[idx] += F32(delta)
        minus[idx] -= F32(delta)
        fd[idx] = (
            _weighted_score_sum(tokens, replace(p, **{field: plus}), upstream)
            - _weighted_score_sum(tokens, replace(p, **{field: minus}), upstream)
        ) / (2 * delta)
    np.testing.assert_allclose(analytic, fd, rtol=2e-2, atol=5e-4)


def test_score_net_backward_returns_a_parameter_shaped_tree():
    tokens = RandomStream(6).gaussian((4, 2, 2, 3))
    p = _score_params(8)
    grads = score_net_backward(score_net_forward(tokens, p), p, RandomStream(7).gaussian(4))
    assert type(grads) is ScoreNetParams
    for field in ("conv_kernel", "w1", "b1", "w2", "b2"):
        got, want = getattr(grads, field), getattr(p, field)
        assert (got.shape, got.dtype) == (want.shape, F32), field


def test_score_net_backward_final_bias_is_upstream_sum():
    tokens = RandomStream(6).gaussian((4, 2, 2, 3))
    upstream = RandomStream(7).gaussian(4)
    p = _score_params(8)
    grads = score_net_backward(score_net_forward(tokens, p), p, upstream)
    np.testing.assert_allclose(grads.b2, [upstream.sum()], rtol=1e-6)


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 5), t=st.integers(1, 5), m=st.integers(1, 4), n=st.integers(1, 4),
       c_in=st.integers(1, 3), mid=st.integers(1, 3), hidden=st.integers(1, 4),
       extents=st.tuples(*[st.sampled_from([1, 3, 5])] * 3), seed=st.integers(0, 2**16))
def test_a_stack_of_videos_is_bitwise_its_per_video_calls(b, t, m, n, c_in, mid, hidden,
                                                          extents, seed):
    s = RandomStream(seed)
    p = ScoreNetParams(conv_kernel=s.gaussian((*extents, c_in, mid)), w1=s.gaussian((mid, hidden)),
                       b1=s.gaussian(hidden), w2=s.gaussian((hidden, 1)), b2=s.gaussian(1))
    tokens = s.gaussian((b, t, m, n, c_in))
    d_out = s.gaussian((b, t, m, n, mid))
    upstream = s.gaussian((b, t))

    def per_video(fn):
        return np.stack([fn(i) for i in range(b)]).tobytes()

    assert numerics.conv3d(tokens, p.conv_kernel).tobytes() == per_video(
        lambda i: numerics.conv3d(tokens[i], p.conv_kernel))
    assert numerics.conv3d_kernel_grad(tokens, d_out, p.conv_kernel.shape).tobytes() == per_video(
        lambda i: numerics.conv3d_kernel_grad(tokens[i], d_out[i], p.conv_kernel.shape))
    fwd = score_net_forward(tokens, p)
    assert fwd.scores.shape == (b, t)
    assert fwd.scores.tobytes() == per_video(lambda i: score_net_forward(tokens[i], p).scores)
    grads = score_net_backward(fwd, p, upstream)
    for field in ("conv_kernel", "w1", "b1", "w2", "b2"):
        assert getattr(grads, field).tobytes() == per_video(lambda i: getattr(score_net_backward(
            score_net_forward(tokens[i], p), p, upstream[i]), field)), field


def test_stacked_score_net_counts_per_video_and_validates_shapes():
    p = _score_params(5)
    tokens = RandomStream(6).gaussian((2, 3, 2, 2, 3))
    with numerics.FlopCounter() as one:
        score_net_forward(tokens[0], p)
    with numerics.FlopCounter() as two:
        fwd = score_net_forward(tokens, p)
    assert two.total == 2 * one.total
    with pytest.raises(ShapeError, match="upstream"):
        score_net_backward(fwd, p, np.zeros(3, F32))
    with pytest.raises(ShapeError):
        score_net_forward(tokens[None], p)
    with pytest.raises(ShapeError):
        numerics.conv3d(tokens[None], p.conv_kernel)
    with pytest.raises(ShapeError, match="output gradient"):
        numerics.conv3d_kernel_grad(tokens, np.zeros((2, 3, 2, 2, 4), F32),
                                    p.conv_kernel.shape)


# --- compressor --------------------------------------------------------

def _compress_oracle(sal, non, p, h):
    """Loop-level float64 restatement of compress()."""
    k, m, n, c = sal.shape
    r = non.shape[0]
    ml, nl = m // h, n // h
    sal64, non64 = np.float64(sal), np.float64(non)

    def pool(x):
        out = np.zeros((x.shape[0], ml, nl, x.shape[-1]))
        for f in range(x.shape[0]):
            for i in range(ml):
                for j in range(nl):
                    block = x[f, i * h:(i + 1) * h, j * h:(j + 1) * h]
                    out[f, i, j] = block.reshape(-1, x.shape[-1]).mean(axis=0)
        return out

    q = pool(non64 @ np.float64(p.w_a)).reshape(r, ml * nl, c)
    keys = pool(sal64 @ np.float64(p.w_b)).reshape(k * ml * nl, c)
    vals = pool(sal64 @ np.float64(p.w_c)).reshape(k * ml * nl, c)

    out = np.zeros((r, ml * nl, c))
    for f in range(r):
        for g in range(ml * nl):
            logits = np.array([q[f, g] @ keys[j] for j in range(len(keys))])
            logits /= np.sqrt(c)
            w = np.exp(logits - logits.max())
            w /= w.sum()
            out[f, g] = sum(w[j] * vals[j] for j in range(len(vals)))
    return out.reshape(r, ml, nl, c) + pool(non64)


def test_compress_matches_explicit_loop_oracle():
    stream = RandomStream(10)
    sal = stream.gaussian((2, 4, 4, 5))
    non = stream.gaussian((3, 4, 4, 5))
    p = CompressorParams.init(5, RandomStream(11), scale=0.3)
    out = compress(sal, non, p, h=2)
    assert out.shape == (3, 2, 2, 5) and out.dtype == F32
    np.testing.assert_allclose(out, _compress_oracle(sal, non, p, 2), atol=1e-5)


def test_compress_constant_reference_passthrough():
    # identical reference tokens make every attention row average the same
    # value vector, so the output is that vector plus the pooled residual
    v = RandomStream(12).gaussian(6)
    sal = np.broadcast_to(v, (2, 4, 4, 6)).astype(F32)
    non = RandomStream(13).gaussian((3, 4, 4, 6))
    p = CompressorParams.init(6, RandomStream(14), scale=0.3)
    out = compress(sal, non, p, h=2)
    expected = numerics.linear(v[None], p.w_c)[0] + numerics.avgpool_downsample(non, 2)
    np.testing.assert_allclose(out, expected, atol=1e-5)


def test_compress_reference_frame_order_is_irrelevant():
    stream = RandomStream(15)
    sal = stream.gaussian((4, 4, 4, 5))
    non = stream.gaussian((2, 4, 4, 5))
    p = CompressorParams.init(5, RandomStream(16), scale=0.3)
    out = compress(sal, non, p, h=2)
    shuffled = compress(sal[[2, 0, 3, 1]], non, p, h=2)
    np.testing.assert_allclose(out, shuffled, atol=1e-6)


def test_compress_empty_non_saliency_part():
    sal = RandomStream(17).gaussian((3, 4, 4, 5))
    p = CompressorParams.init(5, RandomStream(18))
    out = compress(sal, np.zeros((0, 4, 4, 5), F32), p, h=2)
    assert out.shape == (0, 2, 2, 5) and out.dtype == F32
    # no frame is pooled, but the factor must still divide the grid
    for h, message in ((3, "does not divide"), (0, ">= 1")):
        with pytest.raises(ShapeError, match=message):
            compress(sal, np.zeros((0, 4, 4, 5), F32), p, h=h)


def test_compress_validation():
    p = CompressorParams.init(4, RandomStream(19))
    good = RandomStream(20).gaussian((2, 4, 4, 4))
    with pytest.raises(ShapeError, match="reference"):
        compress(np.zeros((0, 4, 4, 4), F32), good, p, h=2)
    with pytest.raises(ShapeError, match="grids"):
        compress(good, RandomStream(21).gaussian((2, 2, 2, 4)), p, h=2)
    with pytest.raises(ShapeError):
        compress(good[0], good, p, h=2)


# --- forward pipeline --------------------------------------------------

def test_dccm_forward_h1_is_a_plain_split():
    tokens = RandomStream(22).gaussian((6, 2, 2, 4))
    params = _toy_params(4, 23)
    res = dccm_forward(tokens, params, k=2, h=1)
    assert np.array_equal(res.scores, score_net_forward(tokens, params.score).scores)
    order = hard_rank(res.scores).order
    assert np.array_equal(res.sequence.times.saliency, order[:2])
    assert np.array_equal(res.sequence.times.non_saliency, order[2:])
    # h=1 must not touch the tokens at all
    assert np.array_equal(res.sequence.saliency, tokens[order[:2]])
    assert np.array_equal(res.sequence.non_saliency, tokens[order[2:]])


def test_dccm_forward_structure_at_h2():
    tokens = RandomStream(24).gaussian((6, 4, 4, 4))
    params = _toy_params(4, 25)
    res = dccm_forward(tokens, params, k=2, h=2)
    seq = res.sequence
    assert seq.saliency.shape == (2, 4, 4, 4)
    assert seq.non_saliency.shape == (4, 2, 2, 4)
    # saliency frames ride through untouched even when h > 1
    assert np.array_equal(seq.saliency, tokens[seq.times.saliency])
    joined = np.sort(np.concatenate([seq.times.saliency, seq.times.non_saliency]))
    assert np.array_equal(joined, np.arange(6))
    expected = compress(seq.saliency, tokens[seq.times.non_saliency],
                        params.compressor, h=2)
    assert np.array_equal(seq.non_saliency, expected)


def test_dccm_forward_mode_validation():
    tokens = RandomStream(28).gaussian((4, 2, 2, 4))
    params = _toy_params(4, 29)
    with pytest.raises(ShapeError):
        dccm_forward(tokens[0], params, k=1, h=1)


@settings(max_examples=25, deadline=None)
@given(frames=st.integers(2, 6), k=st.integers(1, 5), h=st.sampled_from([1, 2]))
def test_dccm_forward_partitions_time_indices(frames, k, h):
    if k >= frames:
        k = frames - 1
    tokens = RandomStream(frames * 31 + k).gaussian((frames, 2, 2, 4))
    res = dccm_forward(tokens, _toy_params(4, 30), k=k, h=h)
    seq = res.sequence
    assert seq.saliency.shape[0] == k
    assert seq.non_saliency.shape[0] == frames - k
    joined = np.concatenate([seq.times.saliency, seq.times.non_saliency])
    assert np.array_equal(np.sort(joined), np.arange(frames))


# --- sequence container ------------------------------------------------

def test_full_res_sequence_wraps_whole_video():
    tokens = RandomStream(32).gaussian((5, 4, 4, 3))
    seq = full_res_sequence(tokens)
    assert seq.h == 1
    assert np.array_equal(seq.saliency, tokens)
    assert seq.non_saliency.shape == (0, 4, 4, 3)
    assert np.array_equal(seq.times.saliency, np.arange(5))
    assert seq.frame_count == 5
    assert seq.channels == 3
    assert seq.saliency.shape[1:3] == (4, 4) and seq.low_grid == (4, 4)
    assert seq.token_count == 5 * 16


def test_multires_sequence_validation():
    sal = RandomStream(33).gaussian((2, 4, 4, 3))
    non = RandomStream(34).gaussian((3, 2, 2, 3))
    times = TimeIndexMap(np.array([0, 3]), np.array([1, 2, 4]))
    MultiResSequence(sal, non, times, h=2)  # well-formed

    with pytest.raises(ShapeError, match="channel"):
        MultiResSequence(sal, non[..., :2], times, h=2)
    with pytest.raises(ShapeError, match="grid"):
        MultiResSequence(sal, non, times, h=4)
    with pytest.raises(ShapeError, match="alignment"):
        MultiResSequence(sal, non, times, h=0)
    with pytest.raises(ShapeError, match="at least one"):
        MultiResSequence(sal[:0], non, TimeIndexMap(np.zeros(0, np.int64),
                                                    np.array([0, 1, 2])), h=2)
    with pytest.raises(ShapeError, match="extents"):
        MultiResSequence(sal, non, TimeIndexMap(np.array([0]), np.array([1, 2, 4])), h=2)
    with pytest.raises(ShapeError, match="partition"):
        MultiResSequence(sal, non, TimeIndexMap(np.array([0, 3]),
                                                np.array([1, 2, 3])), h=2)


# --- planted toy problem -----------------------------------------------

def test_planted_dataset_is_deterministic():
    a = make_planted_dataset(4, frames=6, salient_count=2, seed=7)
    b = make_planted_dataset(4, frames=6, salient_count=2, seed=7)
    c = make_planted_dataset(4, frames=6, salient_count=2, seed=8)
    for va, vb in zip(a, b):
        assert np.array_equal(va.tokens, vb.tokens)
        assert np.array_equal(va.salient_times, vb.salient_times)
    assert not np.array_equal(a[0].tokens, c[0].tokens)


def test_planted_dataset_marks_salient_frames():
    for v in make_planted_dataset(6, frames=8, salient_count=3, seed=9):
        assert v.salient_times.shape == (3,)
        assert np.array_equal(v.salient_times, np.sort(v.salient_times))
        assert v.salient_times.min() >= 0 and v.salient_times.max() < 8
        background = np.setdiff1d(np.arange(8), v.salient_times)
        order = np.concatenate([v.salient_times, background])
        assert v.target_order.dtype == np.int64
        assert np.array_equal(v.target_order, order)


def test_planted_dataset_energy_ratio():
    videos = make_planted_dataset(200, frames=8, salient_count=2, seed=10)
    sal_energy, bg_energy = [], []
    for v in videos:
        per_frame = np.mean(np.float64(v.tokens) ** 2, axis=(1, 2, 3))
        mask = np.zeros(8, bool)
        mask[v.salient_times] = True
        sal_energy.append(per_frame[mask].mean())
        bg_energy.append(per_frame[~mask].mean())
    ratio = np.mean(sal_energy) / np.mean(bg_energy)
    assert 2.7 < ratio < 3.3


def test_planted_dataset_validation():
    with pytest.raises(ValueError, match="salient_count"):
        make_planted_dataset(1, frames=4, salient_count=0)
    with pytest.raises(ValueError, match="salient_count"):
        make_planted_dataset(1, frames=4, salient_count=4)


def test_selection_accuracy_hand_case():
    # an all-zero net scores every frame equally, so the stable tie-break
    # always selects the first k frames; accuracy is then a counting fact
    p = ScoreNetParams(
        conv_kernel=np.zeros((3, 3, 3, 4, 2), F32),
        w1=np.zeros((2, 3), F32), b1=np.zeros(3, F32),
        w2=np.zeros((3, 1), F32), b2=np.zeros(1, F32),
    )
    stream = RandomStream(35)

    def video(salient):
        return PlantedVideo(stream.gaussian((6, 2, 2, 4)),
                            np.array(salient, np.int64), np.zeros((6, 6), F32))

    videos = [video([0, 1]), video([2, 3]), video([1, 5])]
    assert selection_accuracy(p, videos, k=2) == pytest.approx(0.5)


def test_toy_train_runs_and_is_deterministic():
    videos = make_planted_dataset(9, frames=4, salient_count=1,
                                  grid=2, channels=4, seed=11)
    train, holdout = videos[:6], videos[6:]
    p0 = ScoreNetParams.init(4, 2, 4, RandomStream(12), scale=0.1, zero_final=True)
    cfg = PerturbConfig(sigma=0.3, n_samples=50, seed=13)

    p1, trace1 = toy_train_scorenet(train, holdout, p0, k=1, steps=3, lr=0.05, cfg=cfg)
    assert [row.step for row in trace1] == [0, 1, 2, 3]
    assert all(np.isfinite(row.loss) for row in trace1)
    assert all(0.0 <= row.accuracy <= 1.0 for row in trace1)

    p2, trace2 = toy_train_scorenet(train, holdout, p0, k=1, steps=3, lr=0.05, cfg=cfg)
    assert trace1 == trace2
    assert np.array_equal(p1.w2, p2.w2)
    assert np.array_equal(p1.conv_kernel, p2.conv_kernel)


def _check_in_order_step():
    # one step by hand: per-video gradients summed in video order, then
    # w - lr * (1 / videos) * sum, all in float32
    videos = make_planted_dataset(5, frames=4, salient_count=1,
                                  grid=2, channels=4, seed=21)
    train, holdout = videos[:3], videos[3:]
    p0 = ScoreNetParams.init(4, 2, 4, RandomStream(22), scale=0.1)
    cfg = PerturbConfig(sigma=0.3, n_samples=40, seed=23)
    p1, _ = toy_train_scorenet(train, holdout, p0, k=1, steps=1, lr=0.05, cfg=cfg)

    fields = ("conv_kernel", "w1", "b1", "w2", "b2")
    total = None
    for vid, v in enumerate(train):
        fwd = score_net_forward(v.tokens, p0)
        target = np.zeros((4, 4), F32)
        target[v.target_order, np.arange(4)] = F32(1)
        _, d_scores = perturbed_objective(fwd.scores, replace(cfg, seed=cfg.seed + vid),
                                          -target)
        g = score_net_backward(fwd, p0, d_scores)
        parts = [getattr(g, f) for f in fields]
        total = parts if total is None else [a + b for a, b in zip(total, parts)]
    rate, scale = F32(0.05), F32(1.0 / 3)
    for field, g_sum in zip(fields, total):
        want = getattr(p0, field) - rate * scale * g_sum
        assert getattr(p1, field).tobytes() == want.tobytes(), field


def test_toy_train_step_is_the_in_order_gradient_sum():
    _check_in_order_step()


def test_toy_train_runs_one_score_net_forward_per_video_per_step(monkeypatch):
    # every step scores each training and holdout video once, in stacks of
    # at most _VIDEO_BLOCK videos; the backward reuses the training forward
    # and the last pass runs no backward
    videos = make_planted_dataset(7, frames=4, salient_count=1, grid=2, channels=4, seed=3)
    train, holdout = videos[:5], videos[5:]
    p0 = ScoreNetParams.init(4, 2, 4, RandomStream(4), scale=0.1)
    cfg = PerturbConfig(sigma=0.3, n_samples=20, seed=5)
    scored = {"conv3d": [], "backward": []}
    conv3d, backward = numerics.conv3d, dccm.score_net_backward

    def videos_in(x):
        return x.shape[0] if x.ndim == 5 else 1

    def counting_conv3d(x, kernel):
        scored["conv3d"].append(videos_in(x))
        return conv3d(x, kernel)

    def counting_backward(fwd, p, upstream):
        scored["backward"].append(videos_in(fwd.tokens))
        return backward(fwd, p, upstream)

    monkeypatch.setattr(numerics, "conv3d", counting_conv3d)
    monkeypatch.setattr(dccm, "score_net_backward", counting_backward)
    for block in (dccm._VIDEO_BLOCK, 2):
        monkeypatch.setattr(dccm, "_VIDEO_BLOCK", block)
        for steps in (0, 1, 3):
            scored.update(conv3d=[], backward=[])
            toy_train_scorenet(train, holdout, p0, k=1, steps=steps, lr=0.05, cfg=cfg)
            assert sum(scored["conv3d"]) == (steps + 1) * 7, (block, steps)
            assert sum(scored["backward"]) == steps * 5, (block, steps)
            assert max(scored["conv3d"] + scored["backward"]) <= block, (block, steps)


def _check_chunked_steps():
    # two 2-step calls, the second resuming from the first's parameters,
    # give bitwise the parameters and trace of one 4-step call
    videos = make_planted_dataset(12, frames=6, salient_count=2, seed=31)
    train, holdout = videos[:9], videos[9:]
    p0 = ScoreNetParams.init(8, 4, 8, RandomStream(32), scale=0.1, zero_final=True)
    cfg = PerturbConfig(sigma=0.2, n_samples=100, seed=33)
    p4, trace4 = toy_train_scorenet(train, holdout, p0, k=2, steps=4, lr=0.05, cfg=cfg)
    p2, first = toy_train_scorenet(train, holdout, p0, k=2, steps=2, lr=0.05, cfg=cfg)
    p22, second = toy_train_scorenet(train, holdout, p2, k=2, steps=2, lr=0.05, cfg=cfg)
    assert second[0][1:] == first[-1][1:]
    assert [r[1:] for r in first + second[1:]] == [r[1:] for r in trace4]
    for field in ("conv_kernel", "w1", "b1", "w2", "b2"):
        assert getattr(p22, field).tobytes() == getattr(p4, field).tobytes(), field


def test_chunked_steps_walk_the_contiguous_trajectory():
    _check_chunked_steps()


def test_video_blocks_keep_the_in_order_sum_and_the_trajectory(monkeypatch):
    # blocks of two split both training sets (3 and 9 videos) mid-way, so
    # the gradient sum and the trace cross block boundaries
    monkeypatch.setattr(dccm, "_VIDEO_BLOCK", 2)
    _check_in_order_step()
    _check_chunked_steps()


def test_toy_train_validation():
    videos = make_planted_dataset(3, frames=4, salient_count=1, grid=2, channels=4)
    p0 = ScoreNetParams.init(4, 2, 4, RandomStream(0))
    cfg = PerturbConfig(sigma=0.3, n_samples=10)
    with pytest.raises(ValueError, match="at least one"):
        toy_train_scorenet([], videos, p0, k=1, steps=1, lr=0.1, cfg=cfg)
    with pytest.raises(ValueError, match="at least one"):
        toy_train_scorenet(videos, [], p0, k=1, steps=1, lr=0.1, cfg=cfg)
    with pytest.raises(ValueError, match="steps"):
        toy_train_scorenet(videos, videos, p0, k=1, steps=-1, lr=0.1, cfg=cfg)
