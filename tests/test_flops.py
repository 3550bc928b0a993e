"""Analytic cost model.

The toy configuration is small enough to cost out by hand, so every
report entry is pinned to a literal derived from the counting convention
(2 flops per MAC, softmax 5 per element, norm 4, pooling 1 per input
element, nonlinearities 1; residual adds and data movement free).  The
instrumented kernels must agree with the closed form exactly on the toy
model, and the published-scale configurations must land in their bands.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drca import numerics
from drca.flops import (
    FlopsReport,
    compare,
    count_flops,
    instrument_check,
)
from drca.model import ModelConfig, baseline_forward, forward, init_params, named_params

# toy configuration: C=16, depth 4 (1 full-res layer, then 3 aligned
# layers), 4 heads, 8 frames, 64x64 at patch 16 -> 4x4 grid of 16 tokens,
# K=4 kept frames, h=2 -> coarse grid of 4 tokens
TOY_ENTRIES = {
    # 2*T*grid*(patch^2*3)*C + bias T*grid*C = 2*8*16*768*16 + 8*16*16
    ("patch_embed", "projection"): 3_147_776,
    # temporal block, 16 sites x 8 frames: ln 4*128*16 + qkv/out 8*128*16^2
    ("stage1.temporal", "projection"): 270_336,
    # QK^T 2*16*8*8*16 + softmax 5*16*4heads*8*8
    ("stage1.temporal", "attention-scores"): 53_248,
    ("stage1.temporal", "attention-apply"): 32_768,
    # spatial block, 8 frames x 16 tokens
    ("stage1.spatial.saliency", "projection"): 270_336,
    ("stage1.spatial.saliency", "attention-scores"): 106_496,
    ("stage1.spatial.saliency", "attention-apply"): 65_536,
    # 128 tokens, hidden 64: ln + two linears with bias + gelu
    ("stage1.ffn", "feed-forward"): 550_912,
    # dense 3x3x3 conv to 4 mid channels: 2*8*16*4*27*16
    ("dccm.score_net", "conv"): 442_368,
    ("dccm.score_net", "pooling"): 512,
    # per-frame mlp 4 -> 8 -> 1 on 8 frames, relu counted once per element
    ("dccm.score_net", "projection"): 776,
    # q from 4 non-saliency frames, k+v from 4 references: 2*4*16*16^2 + 4*4*16*16^2
    ("dccm.compressor", "projection"): 98_304,
    ("dccm.compressor", "pooling"): 4_096,
    # 4 frames x 4 queries against 16 pooled keys + softmax
    ("dccm.compressor", "attention-scores"): 9_472,
    ("dccm.compressor", "attention-apply"): 8_192,
    # 3 aligned layers, saliency pooled to the coarse grid: 3 * 4*16*16
    ("rat.temporal", "pooling"): 3_072,
    # 3 * (4 sites x 8 frames): ln + projections
    ("rat.temporal", "projection"): 202_752,
    ("rat.temporal", "attention-scores"): 39_936,
    ("rat.temporal", "attention-apply"): 24_576,
    # 3 * (4 frames x 16 tokens)
    ("rat.spatial.saliency", "projection"): 405_504,
    ("rat.spatial.saliency", "attention-scores"): 159_744,
    ("rat.spatial.saliency", "attention-apply"): 98_304,
    # 3 * (4 frames x 4 tokens)
    ("rat.spatial.non_saliency", "projection"): 101_376,
    ("rat.spatial.non_saliency", "attention-scores"): 9_984,
    ("rat.spatial.non_saliency", "attention-apply"): 6_144,
    # 3 * 80 tokens at hidden 64
    ("rat.ffn", "feed-forward"): 1_032_960,
    # 80 tokens x 16 channels into the mean, then a 16 -> 5 classifier
    ("head", "pooling"): 1_280,
    ("head", "head"): 165,
}
TOY_TOTAL = 7_146_925


def test_convention_is_pinned():
    assert numerics.MACS_TO_FLOPS == 2
    assert numerics.SOFTMAX_FLOPS_PER_ELEMENT == 5
    assert numerics.NORM_FLOPS_PER_ELEMENT == 4
    assert numerics.POOL_FLOPS_PER_ELEMENT == 1
    assert numerics.NONLINEARITY_FLOPS_PER_ELEMENT == 1


def test_toy_report_matches_hand_count():
    report = count_flops(ModelConfig.toy())
    actual = {(e.stage, e.op_class): e.count for e in report.entries}
    assert actual == TOY_ENTRIES
    assert report.total == TOY_TOTAL
    assert sum(TOY_ENTRIES.values()) == TOY_TOTAL


def test_report_totals_and_lookups():
    report = count_flops(ModelConfig.toy())
    assert report.total == sum(e.count for e in report.entries)
    assert report.total_macs == report.total // 2
    assert report.entry("head", "head") == 165
    assert report.entry("head", "conv") == 0
    assert sum(e.count for e in report.entries
               if e.stage.startswith("dccm")) == 442_368 + 512 + 776 + 98_304 + 4_096 + 9_472 + 8_192
    assert sum(e.count for e in report.entries
               if e.op_class == "feed-forward") == 550_912 + 1_032_960


def test_instrumented_kernels_agree_exactly_on_the_toy_model():
    result = instrument_check(ModelConfig.toy())
    assert result.analytic == TOY_TOTAL
    assert result.measured == result.analytic
    assert result.rel_gap == 0.0


def test_baseline_report_has_no_compression_entries():
    report = count_flops(ModelConfig.toy().baseline())
    stages = {e.stage for e in report.entries}
    assert not any(s.startswith("dccm.compressor") for s in stages)
    assert not any(s.endswith("non_saliency") for s in stages)
    # the score-net stays as a diagnostic even without a split
    assert report.entry("dccm.score_net", "conv") == 442_368


def test_retrieval_head_cost_includes_normalisation():
    report = count_flops(ModelConfig.toy(head_mode="retrieval"))
    # 2*16*16 matmul + 16 bias + 4*16 norm
    assert report.entry("head", "head") == 512 + 16 + 64


def test_compression_ratio_lands_in_band():
    for name in ("DRCA-S-K4", "DRCA-B-K4"):
        ratio = compare(ModelConfig.from_name(name)).ratio
        assert 0.58 < ratio < 0.74, (name, ratio)


def test_coarse_attention_scores_cost_drops_sixteenfold():
    # quartering each spatial side cuts token count 4x, so any per-frame
    # attention-scores term falls exactly 16x against the h=1 twin
    cfg = ModelConfig.from_name("DRCA-S-K4")
    twin = ModelConfig.from_name("DRCA-S-K4", compression_factor=1)
    low = count_flops(cfg).entry("rat.spatial.non_saliency", "attention-scores")
    full = count_flops(twin).entry("rat.spatial.non_saliency", "attention-scores")
    assert full == 16 * low


def test_compression_machinery_is_a_small_share_of_the_savings():
    for name in ("DRCA-S-K4", "DRCA-B-K4"):
        cmp = compare(ModelConfig.from_name(name))
        savings = cmp.baseline.total - cmp.report.total
        dccm = sum(e.count for e in cmp.report.entries if e.stage.startswith("dccm"))
        assert dccm / savings < 0.05


def test_cost_is_monotone_in_kept_frames_and_alignment():
    totals = [count_flops(ModelConfig.small(saliency_count=k)).total
              for k in (2, 4, 6, 8)]
    assert totals == sorted(totals) and len(set(totals)) == 4
    # grid is 14x14, so h in {1, 2, 7} all divide it
    by_h = [count_flops(ModelConfig.small(compression_factor=h)).total
            for h in (1, 2, 7)]
    assert by_h == sorted(by_h, reverse=True) and len(set(by_h)) == 3


def test_published_scale_totals_land_in_band():
    # +-25% against the figures the architecture is known by
    checks = [
        (ModelConfig.small().baseline(), 50.8),
        (ModelConfig.base().baseline(), 196.0),
        (ModelConfig.from_name("DRCA-S-K3"), 31.0),
    ]
    for cfg, published in checks:
        gmacs = count_flops(cfg).total_macs / 1e9
        assert 0.75 * published < gmacs < 1.25 * published, (cfg.name, gmacs)


def test_resolution_pair_ratio_lands_in_band():
    small_hi_k = count_flops(ModelConfig.small(saliency_count=6, height=128,
                                               width=128, frames=8))
    large_lo_k = count_flops(ModelConfig.small(saliency_count=5, height=160,
                                               width=160, frames=8))
    ratio = small_hi_k.total / large_lo_k.total
    assert abs(ratio - 0.676) < 0.10


def test_compare_accepts_an_explicit_reference():
    cfg = ModelConfig.toy()
    other = ModelConfig.toy(saliency_count=8, compression_factor=1)
    cmp = compare(cfg, other)
    assert cmp.baseline.total == count_flops(other).total
    assert cmp.ratio == cmp.report.total / cmp.baseline.total


def test_render_and_machine_lines():
    report = count_flops(ModelConfig.toy())
    text = report.render()
    assert text.startswith("flop report: DRCA-toy-K4")
    assert f"{TOY_TOTAL:,} flops" in text
    lines = report.machine_lines().splitlines()
    assert lines[-1] == f"total\tall\t{TOY_TOTAL}"
    assert len(lines) == len(report.entries) + 1
    parsed = sum(int(line.split("\t")[2]) for line in lines[:-1])
    assert parsed == TOY_TOTAL


def test_repeated_layers_cost_their_count_times_one_layer():
    # the walk prices one layer and multiplies, so a deep model costs
    # nothing more to report than a shallow one
    one, many = (count_flops(ModelConfig.toy(depth=1 + layers)) for layers in (1, 2_000_000))
    for e in one.entries:
        scale = 2_000_000 if e.stage.startswith("rat.") else 1
        assert many.entry(e.stage, e.op_class) == scale * e.count, e


def _assert_weight_total_is_exact(config: ModelConfig) -> None:
    named = named_params(init_params(config))
    assert count_flops(config).weight_bytes == sum(a.nbytes for a in named.values())
    # the uncompressed twin reads the same parameter set
    assert count_flops(config.baseline()).weight_bytes == count_flops(config).weight_bytes


@pytest.mark.parametrize("config", [
    ModelConfig.toy(), ModelConfig.small(),
    # B's 113M parameters would take 450 MiB here; two layers use its widths
    ModelConfig.base(depth=2, dccm_insert_after=1),
])
def test_weight_total_equals_the_parameter_set_on_the_presets(config):
    _assert_weight_total_is_exact(config)


@settings(max_examples=40, deadline=None)
@given(c=st.sampled_from([4, 8, 16, 24]), heads=st.sampled_from([1, 2, 4]),
       depth=st.integers(0, 3), after=st.integers(0, 3), p=st.sampled_from([4, 8, 16]),
       h=st.sampled_from([1, 2]), frames=st.integers(1, 6), k=st.integers(1, 6),
       retrieval=st.booleans(), out=st.integers(1, 9))
def test_weight_total_equals_the_parameter_set(c, heads, depth, after, p, h, frames, k,
                                               retrieval, out):
    _assert_weight_total_is_exact(ModelConfig.toy(
        embed_dim=c, head_count=heads, depth=depth, dccm_insert_after=min(after, depth),
        patch_size=p, height=2 * p, width=2 * p, compression_factor=h, frames=frames,
        saliency_count=min(k, frames), head_mode="retrieval" if retrieval else "classification",
        num_classes=None if retrieval else out))


# every public kernel that returns an array the forward pass makes
_KERNELS = ("matmul", "linear", "softmax_lastdim", "attention", "layer_norm",
            "avgpool_downsample", "mean_pool", "conv3d", "relu", "gelu",
            "l2_normalize")


def _recorded_arrays(monkeypatch) -> list:
    """Record (bytes, source, shape) of every kernel output, every seeded
    draw's largest array, and every conv tap window made from now on."""
    seen = []

    def recording(name, fn, nbytes=lambda out: out.nbytes):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.append((nbytes(out), name, out.shape))
            return out
        return call

    for name in _KERNELS:
        monkeypatch.setattr(numerics, name, recording(name, getattr(numerics, name)))
    # a float32 draw makes its output and a float64 chunk of the stream
    monkeypatch.setattr(numerics.RandomStream, "gaussian", recording(
        "gaussian", numerics.RandomStream.gaussian,
        lambda out: max(out.nbytes, 8 * min(out.size, numerics._CHUNK))))
    walk = numerics._tap_windows

    def windows(x, extents):
        for tap, window in walk(x, extents):
            seen.append((window.nbytes, "window", window.shape))
            yield tap, window

    monkeypatch.setattr(numerics, "_tap_windows", windows)
    return seen


@pytest.mark.parametrize("config", [
    # the presets at two layers, one per stage: the walk's arrays are
    # those of the full depth (asserted below)
    ModelConfig.small(depth=2, dccm_insert_after=1),
    ModelConfig.base(depth=2, dccm_insert_after=1),
    ModelConfig.toy(),
    ModelConfig.toy(patch_size=4),
    ModelConfig.toy(dccm_insert_after=0),
    ModelConfig.toy(saliency_count=8),
    ModelConfig.toy(compression_factor=1),
    ModelConfig.toy(compression_factor=4, saliency_count=1, dccm_insert_after=0),
    ModelConfig.toy(head_count=1),
    ModelConfig.toy(head_mode="retrieval"),
    # the largest array of these two is the score-net kernel draw
    ModelConfig.toy(embed_dim=128, patch_size=2, height=8, width=8, frames=10,
                    saliency_count=8, depth=0, dccm_insert_after=0),
    ModelConfig.toy(patch_size=1, height=2, width=2, frames=1, saliency_count=1,
                    depth=2, dccm_insert_after=2),
])
@pytest.mark.parametrize("twin", [False, True])
def test_walk_sizes_every_array_the_forward_pass_makes(monkeypatch, config, twin):
    if config.variant in ("S", "B"):
        full = replace(config, depth=12, dccm_insert_after=3)
        assert count_flops(config).arrays == count_flops(full).arrays
        assert count_flops(config.baseline()).arrays == count_flops(full.baseline()).arrays
    seen = _recorded_arrays(monkeypatch)
    params = init_params(config, seed=3)
    video = numerics.RandomStream(4).gaussian((config.frames, config.height, config.width, 3))
    if twin:
        baseline_forward(video, params, config)
        arrays = count_flops(config.baseline()).arrays
    else:
        forward(video, params, config)
        arrays = count_flops(config).arrays
    largest = max(size for _, size in arrays)
    assert all(nbytes <= largest for nbytes, _, _ in seen), (max(seen), arrays)


# the last three are large enough for their sublayers to run in blocks;
# the last has nine 128-token frames, run in blocks of 4 and 5 frames,
# and the block of 4 holds the largest attention tile (4 frames, where
# the block of 5 splits into 2 and 3)
_BLOCKED = [ModelConfig.toy(patch_size=4), ModelConfig.small(depth=2, dccm_insert_after=1),
            ModelConfig.toy(frames=9, saliency_count=9, height=128, width=256)]
_EXACT_SIZES = [
    ModelConfig.toy(dccm_insert_after=0),
    ModelConfig.toy(compression_factor=4, saliency_count=1, dccm_insert_after=0),
    *_BLOCKED,
]


def _walk_and_forward(monkeypatch, config):
    seen = _recorded_arrays(monkeypatch)
    video = numerics.RandomStream(4).gaussian((config.frames, config.height, config.width, 3))
    forward(video, init_params(config, seed=3), config)
    return dict(count_flops(config).arrays), seen


@pytest.mark.parametrize("config", _EXACT_SIZES)
def test_walk_sizes_the_feed_forward_hidden_activation_exactly(monkeypatch, config):
    # each part runs its own MLP over blocks of token rows: the largest
    # gelu output is the larger part's largest block
    arrays, seen = _walk_and_forward(monkeypatch, config)
    hidden = arrays["the feed-forward hidden activation"]
    assert hidden == max(nbytes for nbytes, name, _ in seen if name == "gelu")
    m, n = config.grid
    h = config.compression_factor
    stage1_rows = config.frames * m * n if config.dccm_insert_after else 0
    part_rows = max(stage1_rows, config.saliency_count * m * n,
                    (config.frames - config.saliency_count) * m * n // (h * h))
    assert (hidden < 4 * part_rows * 4 * config.embed_dim) == (config in _BLOCKED)


@pytest.mark.parametrize("config", _EXACT_SIZES)
def test_walk_sizes_the_conv_tap_window_exactly(monkeypatch, config):
    # the score-net's one window buffer, input-sized: no padded copy
    arrays, seen = _walk_and_forward(monkeypatch, config)
    window = arrays["the score-net's tap window"]
    assert window == max(nbytes for nbytes, name, _ in seen if name == "window")
    m, n = config.grid
    assert window == 4 * config.frames * m * n * config.embed_dim


@pytest.mark.parametrize("config", _EXACT_SIZES)
def test_walk_sizes_the_attention_scores_exactly(monkeypatch, config):
    # the largest softmax of the transformer blocks and the compressor
    arrays, seen = _walk_and_forward(monkeypatch, config)
    scores = arrays["an attention-score tensor"]
    assert scores == max(nbytes for nbytes, name, _ in seen if name == "softmax_lastdim")


@pytest.mark.parametrize("config", [
    ModelConfig.toy(),
    ModelConfig.toy(dccm_insert_after=0),
    ModelConfig.toy(saliency_count=8, compression_factor=1),
    ModelConfig.small(depth=2, dccm_insert_after=1),
    ModelConfig.toy(saliency_count=8),
])
@pytest.mark.parametrize("twin", [False, True])
def test_no_kernel_gets_a_zero_row_operand(monkeypatch, config, twin):
    # an all-saliency sequence's empty non-saliency part (stage 1, every
    # layer of the baseline pass, and K = T at h > 1, where the compressor
    # has no queries) runs no block, and the counted flops still match
    # the walk exactly
    empty = []

    def checking(name, fn):
        def call(*args, **kwargs):
            empty.extend(name for a in (*args, *kwargs.values())
                         if isinstance(a, np.ndarray) and a.size == 0)
            return fn(*args, **kwargs)
        return call

    for name in _KERNELS:
        monkeypatch.setattr(numerics, name, checking(name, getattr(numerics, name)))
    params = init_params(config, seed=3)
    video = numerics.RandomStream(4).gaussian((config.frames, config.height, config.width, 3))
    with numerics.FlopCounter() as counter:
        (baseline_forward if twin else forward)(video, params, config)
    assert empty == []
    assert counter.total == count_flops(config.baseline() if twin else config).total
