"""End-to-end model wiring: configuration naming, parameter flattening,
patch embedding, and the compressed vs uncompressed forward passes."""

import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest

from drca import model as model_module
from drca import dccm, rat
from drca.flops import count_flops
from drca.model import (
    ModelConfig,
    baseline_forward,
    forward,
    init_params,
    named_params,
    params_from_named,
    patch_embed,
)
from drca.numerics import F32, RandomStream, ShapeError
from drca.tensor_io import load_tensor_dir, save_tensor_dir


# the on-disk names of `forward --params` directories, in write order
TOY_PARAM_NAMES = [
    "patch.weight", "patch.bias",
    "pos.spatial", "pos.temporal",
    "stage1.0.temporal.wq", "stage1.0.temporal.wk", "stage1.0.temporal.wv", "stage1.0.temporal.wo",
    "stage1.0.temporal.ln_gain", "stage1.0.temporal.ln_shift",
    "stage1.0.spatial.wq", "stage1.0.spatial.wk", "stage1.0.spatial.wv", "stage1.0.spatial.wo",
    "stage1.0.spatial.ln_gain", "stage1.0.spatial.ln_shift",
    "stage1.0.ffn.w1", "stage1.0.ffn.b1", "stage1.0.ffn.w2", "stage1.0.ffn.b2",
    "stage1.0.ffn.ln_gain", "stage1.0.ffn.ln_shift",
    "score.conv_kernel", "score.w1", "score.b1", "score.w2", "score.b2",
    "compressor.w_a", "compressor.w_b", "compressor.w_c",
    "rat.0.temporal.wq", "rat.0.temporal.wk", "rat.0.temporal.wv", "rat.0.temporal.wo",
    "rat.0.temporal.ln_gain", "rat.0.temporal.ln_shift",
    "rat.0.spatial.wq", "rat.0.spatial.wk", "rat.0.spatial.wv", "rat.0.spatial.wo",
    "rat.0.spatial.ln_gain", "rat.0.spatial.ln_shift",
    "rat.0.ffn.w1", "rat.0.ffn.b1", "rat.0.ffn.w2", "rat.0.ffn.b2", "rat.0.ffn.ln_gain",
    "rat.0.ffn.ln_shift",
    "rat.1.temporal.wq", "rat.1.temporal.wk", "rat.1.temporal.wv", "rat.1.temporal.wo",
    "rat.1.temporal.ln_gain", "rat.1.temporal.ln_shift",
    "rat.1.spatial.wq", "rat.1.spatial.wk", "rat.1.spatial.wv", "rat.1.spatial.wo",
    "rat.1.spatial.ln_gain", "rat.1.spatial.ln_shift",
    "rat.1.ffn.w1", "rat.1.ffn.b1", "rat.1.ffn.w2", "rat.1.ffn.b2", "rat.1.ffn.ln_gain",
    "rat.1.ffn.ln_shift",
    "rat.2.temporal.wq", "rat.2.temporal.wk", "rat.2.temporal.wv", "rat.2.temporal.wo",
    "rat.2.temporal.ln_gain", "rat.2.temporal.ln_shift",
    "rat.2.spatial.wq", "rat.2.spatial.wk", "rat.2.spatial.wv", "rat.2.spatial.wo",
    "rat.2.spatial.ln_gain", "rat.2.spatial.ln_shift",
    "rat.2.ffn.w1", "rat.2.ffn.b1", "rat.2.ffn.w2", "rat.2.ffn.b2", "rat.2.ffn.ln_gain",
    "rat.2.ffn.ln_shift",
    "head.weight", "head.bias",
]


def _toy_video(seed: int, config: ModelConfig) -> np.ndarray:
    return RandomStream(seed).gaussian(
        (config.frames, config.height, config.width, 3))


# --- configuration -------------------------------------------------------

def test_from_name_parses_both_variants():
    s = ModelConfig.from_name("DRCA-S-K4")
    assert (s.variant, s.embed_dim, s.head_count, s.saliency_count) == ("S", 384, 6, 4)
    b = ModelConfig.from_name("DRCA-B-K6")
    assert (b.variant, b.embed_dim, b.head_count, b.saliency_count) == ("B", 768, 12, 6)
    assert s.name == "DRCA-S-K4" and b.name == "DRCA-B-K6"


def test_from_name_takes_the_preset_names():
    assert ModelConfig.from_name("S") == ModelConfig.small()
    assert ModelConfig.from_name("B") == ModelConfig.base()
    assert ModelConfig.from_name("toy") == ModelConfig.toy()
    assert ModelConfig.from_name("toy", depth=2) == ModelConfig.toy(depth=2)
    # an override beats the count a name carries, as the CLI's --set does
    assert ModelConfig.from_name("DRCA-S-K4", saliency_count=2) == ModelConfig.small(
        saliency_count=2)


@pytest.mark.parametrize("bad", ["DRCA-X-K4", "drca-s-k4", "DRCA-S-K", "DRCA-S", ""])
def test_from_name_rejects_garbage(bad):
    with pytest.raises(ValueError, match="parse"):
        ModelConfig.from_name(bad)


def test_baseline_config_disables_compression():
    cfg = ModelConfig.toy()
    base = cfg.baseline()
    assert base.saliency_count == base.frames == cfg.frames
    assert base.compression_factor == 1
    assert (base.embed_dim, base.depth) == (cfg.embed_dim, cfg.depth)


def test_config_validation():
    with pytest.raises(ShapeError, match="patch size"):
        ModelConfig.toy(height=60)
    with pytest.raises(ShapeError, match="compression factor"):
        ModelConfig.small(compression_factor=4)  # 224/16 = 14 columns
    with pytest.raises(ShapeError, match="saliency_count"):
        ModelConfig.toy(saliency_count=0)
    with pytest.raises(ShapeError, match="saliency_count"):
        ModelConfig.toy(saliency_count=9)
    with pytest.raises(ShapeError, match="dccm_insert_after"):
        ModelConfig.toy(dccm_insert_after=5)
    with pytest.raises(ShapeError, match="head count"):
        ModelConfig.toy(head_count=3)
    with pytest.raises(ShapeError, match="head mode"):
        ModelConfig.toy(head_mode="sorting")


@pytest.mark.parametrize("key", ["embed_dim", "head_count", "patch_size", "frames",
                                 "height", "width", "compression_factor", "num_classes"])
@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_non_positive_sizes(key, value):
    with pytest.raises(ShapeError, match=f"{key} must be positive"):
        ModelConfig.toy(**{key: value})


def test_retrieval_out_dim():
    assert ModelConfig.toy(head_mode="retrieval").out_dim == 16
    assert ModelConfig.toy().out_dim == 5


@pytest.mark.parametrize("preset,classes", [(ModelConfig.toy, 5), (ModelConfig.small, 400),
                                            (ModelConfig.base, 400)])
def test_class_count_is_read_only_by_the_classification_head(preset, classes):
    # every preset gives a classifier its class count and a retrieval head none
    assert preset().num_classes == classes
    assert preset(num_classes=9).num_classes == 9
    assert preset(head_mode="retrieval").num_classes is None
    with pytest.raises(ShapeError, match="num_classes has no effect under the retrieval head"):
        preset(head_mode="retrieval", num_classes=9)
    with pytest.raises(ShapeError, match="classification head needs num_classes"):
        preset(num_classes=None)
    with pytest.raises(ShapeError, match="classification head needs num_classes"):
        replace(preset(head_mode="retrieval"), head_mode="classification")
    with pytest.raises(ShapeError, match="no effect under the retrieval head"):
        replace(preset(), head_mode="retrieval")


# --- parameter tree ------------------------------------------------------

def test_init_params_is_deterministic():
    cfg = ModelConfig.toy()
    a = named_params(init_params(cfg, seed=3))
    b = named_params(init_params(cfg, seed=3))
    c = named_params(init_params(cfg, seed=4))
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key
    assert not np.array_equal(a["patch.weight"], c["patch.weight"])


def test_named_params_round_trip():
    cfg = ModelConfig.toy()
    params = init_params(cfg, seed=5)
    named = named_params(params)
    rebuilt = named_params(params_from_named(cfg, named))
    assert named.keys() == rebuilt.keys()
    for key in named:
        assert np.array_equal(named[key], rebuilt[key]), key


def test_named_params_pins_the_on_disk_names():
    assert list(named_params(init_params(ModelConfig.toy()))) == TOY_PARAM_NAMES
    named = named_params(init_params(ModelConfig.from_name("DRCA-S-K4")))
    assert len(named) == 230
    assert list(named)[:5] == ["patch.weight", "patch.bias", "pos.spatial",
                               "pos.temporal", "stage1.0.temporal.wq"]
    assert list(named)[-2:] == ["head.weight", "head.bias"]


def test_params_from_named_takes_structure_from_config_only(monkeypatch):
    cfg = ModelConfig.toy(depth=5, dccm_insert_after=2, head_count=2)
    params = init_params(cfg, seed=8)
    named = named_params(params)

    def no_draws(*_):
        raise AssertionError("rebuilding must not draw random numbers")

    monkeypatch.setattr(model_module, "RandomStream", no_draws)
    rebuilt = params_from_named(cfg, named)
    assert (len(rebuilt.stage1), len(rebuilt.rat)) == (2, 3)
    assert all(rebuilt_leaf is named[name]
               for name, rebuilt_leaf in named_params(rebuilt).items())


def test_named_params_round_trip_through_files(tmp_path):
    cfg = ModelConfig.toy()
    named = named_params(init_params(cfg, seed=6))
    save_tensor_dir(tmp_path / "weights", named)
    loaded = load_tensor_dir(tmp_path / "weights")
    assert loaded.keys() == named.keys()
    for key in named:
        assert np.array_equal(loaded[key], named[key]), key
    params_from_named(cfg, loaded)  # accepted as a complete set


@pytest.mark.parametrize("config", [
    ModelConfig.toy(),
    ModelConfig.toy(depth=0, dccm_insert_after=0),
    ModelConfig.toy(depth=5, dccm_insert_after=0, head_count=2),
    ModelConfig.toy(head_mode="retrieval", compression_factor=4),
    ModelConfig.toy(embed_dim=24, frames=5, saliency_count=5, compression_factor=1),
    # the presets at two layers, one per stage: every layer has one set of shapes
    ModelConfig.from_name("DRCA-S-K4", depth=2, dccm_insert_after=1),
    ModelConfig.from_name("DRCA-B-K2", depth=2, dccm_insert_after=1),
], ids=lambda c: f"{c.name}-d{c.depth}-a{c.dccm_insert_after}-c{c.embed_dim}-{c.head_mode}")
def test_init_params_save_and_load_unchanged(tmp_path, config):
    named = named_params(init_params(config, seed=3))
    save_tensor_dir(tmp_path / "weights", named)
    loaded = named_params(params_from_named(config, load_tensor_dir(tmp_path / "weights")))
    assert list(loaded) == list(named)
    for key in named:
        assert loaded[key].tobytes() == named[key].tobytes(), key


def test_params_from_named_rejects_missing_and_extra():
    cfg = ModelConfig.toy()
    named = named_params(init_params(cfg, seed=7))
    short = dict(named)
    del short["head.weight"]
    with pytest.raises(ValueError, match="missing"):
        params_from_named(cfg, short)
    extra = dict(named)
    extra["stray.tensor"] = np.zeros(3, F32)
    with pytest.raises(ValueError, match="unexpected"):
        params_from_named(cfg, extra)


# --- patch embedding -----------------------------------------------------

def test_patch_embed_matches_explicit_patches():
    cfg = ModelConfig.toy(height=32, width=48, compression_factor=1)
    params = init_params(cfg, seed=8)
    video = _toy_video(9, cfg)
    tokens = patch_embed(video, params, cfg)
    m, n = cfg.grid
    assert tokens.shape == (cfg.frames, m, n, cfg.embed_dim)
    p = cfg.patch_size
    for t, i, j in [(0, 0, 0), (3, 1, 2), (7, 0, 1)]:
        pixels = video[t, i * p:(i + 1) * p, j * p:(j + 1) * p, :].reshape(-1)
        expected = (pixels @ params.patch_w + params.patch_b
                    + params.pos_spatial[i * n + j] + params.pos_temporal[t])
        np.testing.assert_allclose(tokens[t, i, j], expected, atol=1e-4)


@pytest.mark.parametrize("config", [
    ModelConfig.small(depth=0, dccm_insert_after=0),   # four products of 392 rows
    ModelConfig.base(depth=0, dccm_insert_after=0),
    ModelConfig.toy(patch_size=4),                     # four of 512 rows
    ModelConfig.toy(),                                 # one of 128 rows
])
def test_patch_embed_blocks_are_bitwise_one_projection(monkeypatch, config):
    params = init_params(config, seed=8)
    video = RandomStream(9).gaussian((config.frames, config.height, config.width, 3))
    calls = []
    linear = model_module.numerics.linear
    monkeypatch.setattr(model_module.numerics, "linear",
                        lambda x, *rest: calls.append(x.shape[0]) or linear(x, *rest))
    blocked = patch_embed(video, params, config)
    m, n = config.grid
    assert max(calls) * m * n <= model_module._PATCH_BLOCK_ROWS and sum(calls) == config.frames
    monkeypatch.setattr(model_module, "_PATCH_BLOCK_ROWS", 1 << 40)
    assert blocked.tobytes() == patch_embed(video, params, config).tobytes()


def test_patch_embed_rejects_wrong_shape():
    cfg = ModelConfig.toy()
    params = init_params(cfg, seed=10)
    with pytest.raises(ShapeError, match="video shape"):
        patch_embed(np.zeros((4, 64, 64, 3), F32), params, cfg)


# --- forward passes ------------------------------------------------------

def test_forward_output_structure():
    cfg = ModelConfig.toy()
    params = init_params(cfg, seed=11)
    out = forward(_toy_video(12, cfg), params, cfg)
    assert out.output.shape == (5,) and out.output.dtype == F32
    assert np.all(np.isfinite(out.output))
    assert out.scores.shape == (8,)
    assert out.selected_times.shape == (4,)
    assert out.selected_times.dtype == np.int64
    assert len(np.unique(out.selected_times)) == 4
    assert out.selected_times.min() >= 0 and out.selected_times.max() < 8


def test_forward_is_deterministic():
    cfg = ModelConfig.toy()
    params = init_params(cfg, seed=13)
    video = _toy_video(14, cfg)
    a, b = forward(video, params, cfg), forward(video, params, cfg)
    assert np.array_equal(a.output, b.output)
    assert np.array_equal(a.scores, b.scores)


def test_retrieval_head_is_unit_norm():
    cfg = ModelConfig.toy(head_mode="retrieval")
    params = init_params(cfg, seed=17)
    out = forward(_toy_video(18, cfg), params, cfg)
    assert out.output.shape == (cfg.embed_dim,)
    assert np.linalg.norm(out.output) == pytest.approx(1.0, abs=1e-5)


def test_uncompressed_config_matches_baseline_pass():
    # with every frame kept and no grid reduction the split pipeline only
    # reorders frame storage, which the time-indexed attention undoes; the
    # pooled head sums the same values in a different order
    cfg = ModelConfig.toy(saliency_count=8, compression_factor=1)
    params = init_params(cfg, seed=19)
    for seed in (20, 21, 22):
        video = _toy_video(seed, cfg)
        split = forward(video, params, cfg)
        plain = baseline_forward(video, params, cfg)
        np.testing.assert_allclose(split.output, plain.output, atol=1e-6)
        assert np.array_equal(split.scores, plain.scores)
        assert np.array_equal(split.selected_times, plain.selected_times)


def test_compression_changes_the_output():
    cfg = ModelConfig.toy()
    params = init_params(cfg, seed=23)
    video = _toy_video(24, cfg)
    compressed = forward(video, params, cfg)
    plain = baseline_forward(video, params, cfg)
    assert not np.allclose(compressed.output, plain.output, atol=1e-9)
    assert np.array_equal(compressed.scores, plain.scores)


# --- block-streamed sublayers ------------------------------------------

def _both_passes(config, params, video) -> list[np.ndarray]:
    return [field for fwd in (forward, baseline_forward)
            for field in astuple(fwd(video, params, config))]


_SMALL_2 = ModelConfig.small(depth=2, dccm_insert_after=1)


@pytest.mark.parametrize("config,block_rows", [
    # every size from one-row groups (a block is never a single row) to
    # uneven splits: toy parts hold 128, 64 and 16 token rows
    *((ModelConfig.toy(), rows) for rows in (1, 2, 5, 17, 62)),
    # a 1x1 coarse grid: the non-saliency frames are one-row groups
    *((ModelConfig.toy(compression_factor=4, saliency_count=1, dccm_insert_after=0), rows)
      for rows in (1, 3)),
    # 1568 and 784 rows: fixed 261-row blocks would leave tails of 2 rows
    # and of 1 row; the split is even instead
    (_SMALL_2, 100), (_SMALL_2, 261),
    # a one-patch-wide grid: its [..., M, 1, C] token stacks take the
    # stacked matrix-vector product
    *((ModelConfig.toy(width=16, compression_factor=1), rows) for rows in (1, 3)),
])
def test_blocked_sublayers_are_bitwise_one_block(monkeypatch, config, block_rows):
    params = init_params(config, seed=3)
    video = RandomStream(4).gaussian((config.frames, config.height, config.width, 3))
    monkeypatch.setattr(rat, "_BLOCK_ROWS", 1 << 40)  # every sublayer in one call
    whole = _both_passes(config, params, video)
    monkeypatch.setattr(rat, "_BLOCK_ROWS", block_rows)
    blocked = _both_passes(config, params, video)
    for a, b in zip(whole, blocked):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("fwd", [forward, baseline_forward])
def test_sublayer_products_see_a_block_and_attention_half_a_block(monkeypatch, fwd):
    # DRCA-S runs its q, k, v, o and feed-forward products over blocks of
    # 784 token rows, and attention over tiles of two frames (392 rows)
    config = _SMALL_2
    params = init_params(config, seed=0)
    video = RandomStream(1).gaussian((config.frames, config.height, config.width, 3))
    linear_rows, query_rows, inside = [], [], []
    linear, attention = rat.numerics.linear, rat.numerics.attention

    def rows(x):
        return x.size // x.shape[-1]

    def counting_linear(x, *rest):
        if inside:
            linear_rows.append(rows(x))
        return linear(x, *rest)

    def counting_attention(q, *rest, **kwargs):
        query_rows.append(rows(q))
        return attention(q, *rest, **kwargs)

    def sublayer(fn):
        def run(*args):
            inside.append(fn)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return run

    monkeypatch.setattr(rat.numerics, "linear", counting_linear)
    monkeypatch.setattr(rat.numerics, "attention", counting_attention)
    for name in ("temporal_attention", "spatial_attention", "feed_forward"):
        monkeypatch.setattr(rat, name, sublayer(getattr(rat, name)))
    fwd(video, params, config)
    assert max(linear_rows) <= rat._BLOCK_ROWS and max(linear_rows) == 784
    assert max(query_rows) <= rat._BLOCK_ROWS // 2 and max(query_rows) == 392


def test_forward_holds_block_sized_activations():
    # above its inputs, a forward holds its stream, one more token tensor
    # and the transients of one block: the hidden activation of a block and
    # the scores of one attention tile.  A full [8, 6, 196, 196] score
    # tensor (7.4 MB), or the full [1568, 1536] hidden activation (9.6 MB),
    # would not fit
    config = _SMALL_2
    params = init_params(config, seed=0)
    video = RandomStream(1).gaussian((config.frames, config.height, config.width, 3))
    m, n = config.grid
    token_bytes = 4 * config.frames * m * n * config.embed_dim
    arrays = dict(count_flops(config).arrays)
    budget = (2 * token_bytes + arrays["the feed-forward hidden activation"]
              + arrays["an attention-score tensor"])
    tracemalloc.start()
    try:
        forward(video, params, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget, (peak, budget)


# --- one residual stream -------------------------------------------------

def _leaf_bytes(params) -> dict[str, bytes]:
    return {name: leaf.tobytes() for name, leaf in named_params(params).items()}


@pytest.mark.parametrize("config", [ModelConfig.toy(), ModelConfig.toy(dccm_insert_after=0),
                                    ModelConfig.toy(saliency_count=8, compression_factor=1)])
@pytest.mark.parametrize("fwd", [forward, baseline_forward])
def test_forward_leaves_the_video_and_params_unchanged(config, fwd):
    # the passes update their own residual stream in place, never an input
    params = init_params(config, seed=7)
    video = _toy_video(8, config)
    video_before, params_before = video.tobytes(), _leaf_bytes(params)
    fwd(video, params, config)
    assert video.tobytes() == video_before
    assert _leaf_bytes(params) == params_before


@pytest.mark.parametrize("fwd", [forward, baseline_forward])
def test_sublayers_hold_one_stream_and_one_blocks_transients(monkeypatch, fwd):
    # measured from the start of the pass, with the video and the weights
    # made before it: while a stage runs, what is traced is the residual
    # stream it reads or writes plus an allowance of transients.  Here a
    # block's [784, 1536] hidden activation is two token tensors, one
    # tile's [2, 6, 196, 196] attention scores about three quarters of
    # one, and the score-net's tap window one (asserted below), so any
    # video-sized temporary takes at least one more token tensor:
    # - a sublayer: the walk's hidden activation plus one tile's scores.
    #   Its peak is the hidden activation beside the norm output or the
    #   second product's output, or a block's q, k and v beside one tile's
    #   scores and output.  A second stream, a merged temporal grid built
    #   whole, or scores of a whole block take more; a stage-1 stream kept
    #   past the split adds one to the 5/8 of a token tensor the later
    #   sublayers update.
    # - patch_embed, whose stream is its output: one token tensor, for one
    #   block of frames' patches and their projection.  A copy of every
    #   patch is two.
    # - score_net_forward: one and a quarter, for its one tap window and
    #   its small conv output.  A zero-padded input is 1.6.
    # - compress, whose stream is its two parts: one and a half, for the
    #   projected parts.  A stage-1 stream kept past the split adds one.
    config = _SMALL_2
    params = init_params(config, seed=0)
    video = RandomStream(1).gaussian((config.frames, config.height, config.width, 3))
    m, n = config.grid
    token_bytes = 4 * config.frames * m * n * config.embed_dim
    arrays = dict(count_flops(config).arrays)
    hidden, scores = arrays["the feed-forward hidden activation"], arrays["an attention-score tensor"]
    assert hidden == 2 * token_bytes == 2 * arrays["the score-net's tap window"]
    assert scores == 4 * 2 * 6 * 196 * 196
    sublayer = hidden + scores
    peaks = []

    def traced(fn, allowance, stream_of):
        def run(*args, **kwargs):
            tracemalloc.reset_peak()
            out = fn(*args, **kwargs)
            budget = stream_of(args, out) + int(allowance)
            peaks.append((fn.__name__, tracemalloc.get_traced_memory()[1], budget))
            return out
        return run

    def seq_stream(args, _):
        return args[0].saliency.nbytes + args[0].non_saliency.nbytes

    for name in ("temporal_attention", "spatial_attention", "feed_forward"):
        monkeypatch.setattr(rat, name, traced(getattr(rat, name), sublayer, seq_stream))
    monkeypatch.setattr(model_module, "patch_embed", traced(
        model_module.patch_embed, token_bytes, lambda _, out: out.nbytes))
    score_net = traced(dccm.score_net_forward, 1.25 * token_bytes, lambda args, _: args[0].nbytes)
    monkeypatch.setattr(dccm, "score_net_forward", score_net)
    monkeypatch.setattr(model_module, "score_net_forward", score_net)
    monkeypatch.setattr(dccm, "compress", traced(
        dccm.compress, 1.5 * token_bytes, lambda args, _: args[0].nbytes + args[1].nbytes))
    tracemalloc.start()
    try:
        fwd(video, params, config)
    finally:
        tracemalloc.stop()
    names = [name for name, _, _ in peaks]
    assert names.count("patch_embed") == names.count("score_net_forward") == 1
    assert names.count("compress") == (fwd is forward)
    assert len(names) == 3 * config.depth + 2 + (fwd is forward)
    assert peaks[1][0] == "temporal_attention" and peaks[1][2] == token_bytes + sublayer
    assert all(peak <= budget for _, peak, budget in peaks), peaks
