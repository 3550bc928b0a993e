"""End-to-end model wiring: configuration naming, parameter flattening,
patch embedding, and the compressed vs uncompressed forward passes."""

import numpy as np
import pytest

from drca import model as model_module
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


def test_config_rejects_negative_embed_out():
    with pytest.raises(ShapeError, match="embed_out"):
        ModelConfig.toy(head_mode="retrieval", embed_out=-1)


def test_retrieval_out_dim():
    assert ModelConfig.toy(head_mode="retrieval").out_dim == 16
    assert ModelConfig.toy(head_mode="retrieval", embed_out=6).out_dim == 6
    assert ModelConfig.toy().out_dim == 5


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
    ModelConfig.toy(head_mode="retrieval", embed_out=6, compression_factor=4),
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
    cfg = ModelConfig.toy(head_mode="retrieval", embed_out=6)
    params = init_params(cfg, seed=17)
    out = forward(_toy_video(18, cfg), params, cfg)
    assert out.output.shape == (6,)
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
