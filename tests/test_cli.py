"""Command-line surface: exit codes, echoed configuration, output
formats, and byte-stable stdout."""

import ast
import inspect
import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drca import cli, numerics, ranking
from drca.cli import (
    _MODEL_KEYS,
    MAX_ARRAY_BYTES,
    MAX_TOTAL_BYTES,
    ConfigError,
    _check_sizes,
    EXIT_BAD_INPUT,
    EXIT_CHECK_FAILED,
    EXIT_INSUFFICIENT,
    EXIT_OK,
    main,
)
from drca.flops import compare, count_flops
from drca.model import ModelConfig, init_params, named_params
from drca.numerics import F32, RandomStream
from drca.tensor_io import read_tnsr, save_tensor_dir, write_tnsr


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("DRCA_SEED", raising=False)


# --- rank ----------------------------------------------------------------

def test_rank_orders_scores_and_writes_matrix(tmp_path, capsys):
    scores_path = tmp_path / "scores.tnsr"
    out_path = tmp_path / "soft.tnsr"
    write_tnsr(scores_path, np.array([3.0, 1.0, 2.0], F32))
    code = main(["rank", str(scores_path), str(out_path),
                 "--n-samples", "400", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "# resolved configuration" in out
    assert "sigma = 0.050000" in out and "seed = 5" in out
    assert "order: 0 2 1" in out
    assert f"wrote: {out_path}" in out
    soft = read_tnsr(out_path)
    assert soft.shape == (3, 3)
    np.testing.assert_allclose(soft.sum(axis=0), 1.0, atol=1e-5)
    np.testing.assert_allclose(soft.sum(axis=1), 1.0, atol=1e-5)


def test_rank_rejects_matrix_scores(tmp_path, capsys):
    scores_path = tmp_path / "scores.tnsr"
    write_tnsr(scores_path, np.zeros((2, 2), F32))
    code = main(["rank", str(scores_path), str(tmp_path / "out.tnsr")])
    assert code == EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err


def test_rank_missing_input_file(tmp_path, capsys):
    code = main(["rank", str(tmp_path / "absent.tnsr"), str(tmp_path / "out.tnsr")])
    assert code == EXIT_BAD_INPUT
    assert "not found" in capsys.readouterr().err


# --- grad-check ------------------------------------------------------------

def test_grad_check_passes_at_adequate_sampling(capsys):
    code = main(["grad-check", "--seed", "20260821", "--n-samples", "100000"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "closed-form (T=2): PASS" in out
    assert "finite differences (T=4): PASS" in out
    assert out.rstrip().endswith("grad-check: PASS")


def test_grad_check_refuses_underpowered_runs(capsys):
    code = main(["grad-check", "--n-samples", "500"])
    captured = capsys.readouterr()
    assert code == EXIT_INSUFFICIENT
    assert "insufficient statistical power" in captured.err
    assert "grad-check:" not in captured.out


# --- forward ---------------------------------------------------------------

def test_forward_toy_prints_and_writes(tmp_path, capsys):
    out_path = tmp_path / "logits.tnsr"
    code = main(["forward", "toy", "--seed", "3", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "variant = toy" in out and "seed = 3" in out and "mode = infer" in out
    scores_line = next(l for l in out.splitlines() if l.startswith("scores:"))
    assert len(scores_line.split()) == 1 + 8
    times_line = next(l for l in out.splitlines() if l.startswith("selected_times:"))
    assert len(times_line.split()) == 1 + 4
    assert "output_norm = " in out
    assert read_tnsr(out_path).shape == (5,)


def test_forward_explicit_video_matches_seeded_default(tmp_path, capsys):
    main(["forward", "toy", "--seed", "3"])
    auto = capsys.readouterr().out
    video_path = tmp_path / "video.tnsr"
    write_tnsr(video_path, RandomStream(4).gaussian((8, 64, 64, 3)))
    code = main(["forward", "toy", "--seed", "3", "--video", str(video_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == auto


def test_forward_stdout_is_deterministic(capsys):
    main(["forward", "toy", "--seed", "9"])
    first = capsys.readouterr().out
    main(["forward", "toy", "--seed", "9"])
    assert capsys.readouterr().out == first


def test_forward_baseline_flag(capsys):
    code = main(["forward", "toy", "--seed", "2", "--baseline"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "selected_times:" in out and "output_norm = " in out


def test_forward_train_mode_prints_soft_column(capsys):
    code = main(["forward", "toy", "--seed", "2", "--set", "mode=train",
                 "--set", "n_samples=100"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "mode = train" in out
    soft_line = next(l for l in out.splitlines() if l.startswith("soft_top_column:"))
    assert len(soft_line.split()) == 1 + 8


def test_forward_saved_params_reproduce_seeded_init(tmp_path, capsys):
    main(["forward", "toy", "--seed", "5"])
    seeded = capsys.readouterr().out
    params_dir = tmp_path / "weights"
    save_tensor_dir(params_dir, named_params(init_params(ModelConfig.toy(), seed=5)))
    code = main(["forward", "toy", "--seed", "5", "--params", str(params_dir)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == seeded


def test_forward_rejects_wrong_video_shape(tmp_path, capsys):
    video_path = tmp_path / "short.tnsr"
    write_tnsr(video_path, np.zeros((4, 64, 64, 3), F32))
    code = main(["forward", "toy", "--video", str(video_path)])
    assert code == EXIT_BAD_INPUT
    assert "video shape" in capsys.readouterr().err


def test_forward_rejects_a_multi_column_score_head(tmp_path, capsys):
    named = named_params(init_params(ModelConfig.toy(), seed=5))
    hidden = named["score.w2"].shape[0]
    named["score.w2"] = np.ones((hidden, 3), F32)
    named["score.b2"] = np.zeros(3, F32)
    save_tensor_dir(tmp_path / "weights", named)
    code = main(["forward", "toy", "--params", str(tmp_path / "weights")])
    assert code == EXIT_BAD_INPUT
    _one_line_error(capsys, "'score.w2'", f"({hidden}, 3)", f"({hidden}, 1)")


@pytest.mark.parametrize("name,shape,expected,also", [
    ("score.conv_kernel", (1, 1, 1, 16, 4), (3, 3, 3, 16, 4), {}),
    ("score.w1", (4, 3), (4, 8), {}),
    # a whole 9-class head on a 5-class config
    ("head.weight", (16, 9), (16, 5), {"head.bias": (9,)}),
    ("rat.2.ffn.w1", (16, 8), (16, 64), {}),
])
def test_forward_refuses_a_mis_shaped_parameter_before_drawing_a_video(
        tmp_path, monkeypatch, capsys, name, shape, expected, also):
    named = named_params(init_params(ModelConfig.toy(), seed=5))
    assert named[name].shape == expected
    for key, new_shape in {name: shape, **also}.items():
        named[key] = np.zeros(new_shape, F32)
    save_tensor_dir(tmp_path / "weights", named)
    monkeypatch.setattr(cli, "RandomStream", None)  # the video draw is never reached
    code = main(["forward", "toy", "--params", str(tmp_path / "weights")])
    assert code == EXIT_BAD_INPUT
    _one_line_error(capsys, repr(name), str(shape), str(expected))


# --- exit-code contract ----------------------------------------------------

def _one_line_error(capsys, *names: str) -> None:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert all(name in err[0] for name in names), err


@pytest.mark.parametrize("argv,names", [
    (["forward", "toy", "--set", "compression_factor=0"], ["compression_factor"]),
    (["forward", "toy", "--set", "patch_size=0"], ["patch_size"]),
    (["forward", "toy", "--set", "head_count=0"], ["head_count"]),
    (["forward", "toy", "--set", "height=0"], ["height"]),
    (["toy-train", "--videos", "0"], ["--videos"]),
    (["toy-train", "--holdout", "0"], ["--holdout"]),
    (["toy-train", "--steps", "-1"], ["--steps"]),
    (["toy-train", "--lr", "nan"], ["--lr"]),
    (["toy-train", "--init-scale", "inf"], ["--init-scale"]),
    (["grad-check", "--trials", "0"], ["--trials"]),
    (["grad-check", "--frames", "1"], ["--frames"]),
    (["grad-check", "--sigma", "0"], ["--sigma"]),
    (["grad-check", "--sigma", "inf"], ["--sigma"]),
    (["forward", "toy", "--set", "n_samples=0"], ["n_samples"]),
    (["forward", "toy", "--set", "sigma=nan"], ["sigma"]),
    (["forward", "toy", "--baseline", "--set", "mode=train"], ["mode=train", "--baseline"]),
    (["flops", "toy", "--set", "mode=train"], ["mode"]),
    (["flops", "toy", "--set", "sigma=0.3"], ["sigma"]),
    (["flops", "toy", "--set", "n_samples=4", "--instrument"], ["n_samples"]),
    (["flops", "toy", "--set", "seed=5"], ["seed"]),
    (["forward", "toy", "--set", "sigma=0.3", "--set", "n_samples=7"], ["sigma", "n_samples"]),
    (["forward", "toy", "--baseline", "--set", "sigma=0.3", "--set", "n_samples=7"],
     ["sigma", "n_samples"]),
    (["forward", "toy", "--set", "mode=train", "--set", "n_samples=0"], ["n_samples"]),
    (["forward", "toy", "--set", "mode=train", "--set", "sigma=nan"], ["sigma"]),
])
def test_bad_values_exit_2_with_one_line_error(capsys, argv, names):
    assert main(argv) == EXIT_BAD_INPUT
    _one_line_error(capsys, *names)


def test_writing_over_a_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "taken"
    target.mkdir()
    assert main(["forward", "toy", "--out", str(target)]) == EXIT_BAD_INPUT
    _one_line_error(capsys, str(target))


_INT_MODEL_KEYS = sorted(k for k, kind in _MODEL_KEYS.items() if kind is int)


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(_INT_MODEL_KEYS), value=st.integers(-2, 8))
def test_any_small_integer_override_exits_0_or_2(key, value):
    # patch size 2 is valid but gives 1024-token frames whose attention
    # matrices take hundreds of megabytes; it tests memory, not input
    # checking (patch size 1 is refused by the model size check)
    assume(not (key == "patch_size" and value == 2))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["forward", "toy", "--set", f"{key}={value}"])
    assert code in (EXIT_OK, EXIT_BAD_INPUT)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_BAD_INPUT:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")



@pytest.mark.parametrize("argv", [
    ["forward", "toy", "--set", "patch_size=1"],
    ["forward", "toy", "--set", "height=4096", "--set", "width=4096"],
    ["forward", "toy", "--set", "frames=20000"],
    ["flops", "toy", "--set", "patch_size=1", "--instrument"],
    ["forward", "S", "--set", "embed_dim=600000000"],
    ["forward", "toy", "--set", "num_classes=2000000000"],
    ["flops", "toy", "--set", "num_classes=2000000000", "--instrument"],
])
def test_oversized_model_exits_2_before_allocating(capsys, argv):
    # toy at patch size 1: 4 heads x 8 frames x 4096^2 float32 spatial scores;
    # S at width 6e8: a 3.35 TiB float64 patch projection draw; toy with
    # 2e9 classes: a 238 GiB float64 head draw
    assert main(argv) == EXIT_BAD_INPUT
    _one_line_error(capsys, "model too large", "bytes")


@pytest.mark.parametrize("argv", [
    ["rank", "{scores}", "{out}", "--n-samples", "1000000000000"],
    ["grad-check", "--n-samples", "1000000000000"],
    ["toy-train", "--n-samples", "1000000000000"],
    ["forward", "toy", "--set", "mode=train", "--set", "n_samples=1000000000000"],
])
def test_oversized_sample_count_exits_2_before_drawing(tmp_path, capsys, argv):
    # 10^12 float64 draws of 3 to 8 frames: tens of terabytes
    scores, out = tmp_path / "s.tnsr", tmp_path / "o.tnsr"
    write_tnsr(scores, np.array([3.0, 1.0, 2.0], F32))
    assert main([arg.format(scores=scores, out=out) for arg in argv]) == EXIT_BAD_INPUT
    _one_line_error(capsys, "n_samples too large", "bytes")
    assert not out.exists()


def test_sample_size_limit_is_inclusive():
    frames = 4
    most = MAX_ARRAY_BYTES // (8 * frames)
    _check_sizes(frames=frames, n_samples=most)
    with pytest.raises(ConfigError, match="n_samples too large"):
        _check_sizes(frames=frames, n_samples=most + 1)


def test_frame_count_limit_is_inclusive():
    # a float64 T x T matrix: T = 11585 fits in 1 GiB, 11586 does not
    _check_sizes(frames=11585, n_samples=1)
    with pytest.raises(ConfigError, match="too many frames: a 11586x11586"):
        _check_sizes(frames=11586, n_samples=1)


@pytest.mark.parametrize("argv", [
    ["rank", "{scores}", "{out}", "--n-samples", "2"],
    ["grad-check", "--frames", "12000", "--n-samples", "1000"],
])
def test_oversized_frame_count_exits_2_before_drawing(tmp_path, capsys, argv):
    # 12000 frames: each float64 12000 x 12000 matrix takes 1.07 GiB
    scores, out = tmp_path / "s.tnsr", tmp_path / "o.tnsr"
    write_tnsr(scores, RandomStream(3).gaussian(12000))
    assert main([arg.format(scores=scores, out=out) for arg in argv]) == EXIT_BAD_INPUT
    stdout, err = capsys.readouterr()
    # only the echoed configuration: no order, no check report, no file
    assert stdout.startswith("# resolved configuration") and "order:" not in stdout
    assert "closed-form" not in stdout and not out.exists()
    assert err.startswith("error: too many frames: a 12000x12000") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["DRCA-S-K4", "DRCA-B-K2", "toy"])
def test_model_size_limit_admits_the_presets(name):
    config = ModelConfig.from_name(name)
    for model in (config, config.baseline()):
        _check_sizes(model, model.frames, 500)


@pytest.mark.parametrize("over,what", [
    (dict(patch_size=1), "an attention-score tensor"),
    (dict(embed_dim=4096, frames=512, height=128, width=128),
     "the feed-forward hidden activation"),
    (dict(embed_dim=8192), "the feed-forward weight draw"),
    (dict(patch_size=2048, height=2048, width=2048, compression_factor=1),
     "the patch projection draw"),
    (dict(num_classes=2_000_000_000), "the head weight draw"),
    (dict(head_mode="retrieval", embed_out=2_000_000_000), "the head weight draw"),
    (dict(patch_size=64, head_count=1, compression_factor=1, frames=12000),
     "the input video draw"),
])
def test_model_size_limit_names_the_array_over_it(over, what):
    # each model is within the limit on every other bound
    with pytest.raises(ConfigError, match=f"model too large: {what} would take"):
        _check_sizes(ModelConfig.toy(**over))


@pytest.mark.parametrize("over,what", [
    # 2e6 toy layers: 34 GB of float32 weights, each array small
    (["depth=2000000"], "its float32 weights"),
    # compressor scores [500 frames, 1 head, 64 queries, 32000 pooled keys]
    (["head_count=1", "patch_size=4", "frames=1000", "saliency_count=500"],
     "an attention-score tensor"),
])
def test_oversized_model_exits_2_on_its_total_and_its_compressor(monkeypatch, capsys,
                                                                 over, what):
    monkeypatch.setattr(cli, "init_params", None)  # never reached
    argv = ["forward", "toy"] + [arg for item in over for arg in ("--set", item)]
    assert main(argv) == EXIT_BAD_INPUT
    _one_line_error(capsys, f"model too large: {what} would take", "bytes")


def test_weight_total_limit_is_inclusive():
    config = ModelConfig.toy()
    base = count_flops(config).weight_bytes
    per_layer = count_flops(ModelConfig.toy(depth=config.depth + 1)).weight_bytes - base
    fits = config.depth + (MAX_TOTAL_BYTES - base) // per_layer
    _check_sizes(ModelConfig.toy(depth=fits))
    with pytest.raises(ConfigError, match="model too large: its float32 weights"):
        _check_sizes(ModelConfig.toy(depth=fits + 1))


def test_forward_checks_the_model_it_runs(capsys):
    # no full-resolution layer: only the uncompressed twin attends in time
    # on the full 4x4 grid, [16 locations, 4 heads, 2100, 2100] scores
    over = dict(dccm_insert_after=0, frames=2100, saliency_count=1050)
    _check_sizes(ModelConfig.toy(**over))
    sets = [arg for key, value in over.items() for arg in ("--set", f"{key}={value}")]
    assert main(["forward", "toy", *sets, "--baseline"]) == EXIT_BAD_INPUT
    _one_line_error(capsys, "model too large: an attention-score tensor would take")


def test_flops_instrument_refuses_before_printing_a_report(capsys):
    assert main(["flops", "toy", "--set", "patch_size=1", "--instrument"]) == EXIT_BAD_INPUT
    assert capsys.readouterr().out == ""


def test_flops_reports_a_deep_model():
    # one layer is priced and multiplied, so this takes no longer than depth 4
    assert main(["flops", "toy", "--set", "depth=2000000", "--machine"]) == EXIT_OK


def test_check_sizes_reads_no_model_shape():
    # every model shape comes from the flop model's walk
    shape_names = {name for name in dir(ModelConfig) if not name.startswith("_")}
    shape_names |= set(vars(ModelConfig()))
    tree = ast.parse(inspect.getsource(_check_sizes))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not read & shape_names, read & shape_names


def test_toy_train_refuses_an_oversized_dataset_before_building_it(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the dataset was built")

    monkeypatch.setattr(cli, "make_planted_dataset", fail)
    assert main(["toy-train", "--holdout", "1000000000"]) == EXIT_BAD_INPUT
    _one_line_error(capsys, "dataset too large", "bytes")


def test_toy_train_refuses_too_many_videos_before_building_them(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the dataset was built")

    monkeypatch.setattr(cli, "make_planted_dataset", fail)
    assert main(["toy-train", "--videos", "100000"]) == EXIT_BAD_INPUT
    _one_line_error(capsys, "--videos", "100000")


def test_every_model_field_but_the_variant_is_a_config_key():
    assert set(_MODEL_KEYS) == set(vars(ModelConfig())) - {"variant"}
    assert all(_MODEL_KEYS[key] is type(value)
               for key, value in vars(ModelConfig()).items() if key != "variant")


# --- configuration resolution ----------------------------------------------

def test_config_file_with_comments_and_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "run.conf"
    cfg_path.write_text(
        "variant = toy\n"
        "mode = train\n"
        "\n"
        "sigma = 0.1  # smoothing level\n"
        "num_classes = 7\n"
    )
    out_path = tmp_path / "out.tnsr"
    code = main(["forward", str(cfg_path), "--seed", "1", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "sigma = 0.100000" in out and "num_classes = 7" in out
    assert read_tnsr(out_path).shape == (7,)


def test_set_overrides_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "run.conf"
    cfg_path.write_text("variant = toy\nnum_classes = 7\n")
    code = main(["forward", str(cfg_path), "--seed", "1",
                 "--set", "num_classes=9"])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "num_classes = 9" in out


@pytest.mark.parametrize("text,message", [
    ("variant = toy\nvariant = S\n", "duplicate key"),
    ("variant = toy\nwibble = 3\n", "unknown configuration keys"),
    ("variant = toy\nframes\n", "expected key = value"),
    ("variant = toy\nframes = eight\n", "needs a int"),
    ("variant = nosuch\n", "unknown variant"),
])
def test_config_file_errors(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "bad.conf"
    cfg_path.write_text(text)
    code = main(["forward", str(cfg_path)])
    assert code == EXIT_BAD_INPUT
    assert message in capsys.readouterr().err


def test_missing_config_file_is_an_error(tmp_path, capsys):
    code = main(["forward", str(tmp_path / "absent.conf")])
    assert code == EXIT_BAD_INPUT
    assert "does not exist" in capsys.readouterr().err


def test_env_seed_is_used_and_echoed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DRCA_SEED", "11")
    scores_path = tmp_path / "scores.tnsr"
    write_tnsr(scores_path, np.array([1.0, 2.0], F32))
    code = main(["rank", str(scores_path), str(tmp_path / "out.tnsr"),
                 "--n-samples", "50"])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "seed = 11" in out


def test_env_seed_must_be_an_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DRCA_SEED", "soon")
    scores_path = tmp_path / "scores.tnsr"
    write_tnsr(scores_path, np.array([1.0, 2.0], F32))
    code = main(["rank", str(scores_path), str(tmp_path / "out.tnsr")])
    assert code == EXIT_BAD_INPUT
    assert "DRCA_SEED" in capsys.readouterr().err


def test_explicit_seed_beats_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("DRCA_SEED", "11")
    main(["forward", "toy", "--seed", "3"])
    assert "seed = 3" in capsys.readouterr().out


# --- flops -------------------------------------------------------------------

def test_flops_report_render(capsys):
    code = main(["flops", "toy"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("flop report: DRCA-toy-K4")
    assert "7,146,925 flops" in out


def test_flops_machine_output_sums_to_total(capsys):
    code = main(["flops", "toy", "--machine"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == EXIT_OK
    assert lines[-1] == "total\tall\t7146925"
    body = [int(line.split("\t")[2]) for line in lines[:-1]]
    assert sum(body) == 7146925


def test_flops_against_builtin_baseline(capsys):
    code = main(["flops", "DRCA-S-K4", "baseline"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    ratio_line = next(l for l in out.splitlines() if l.startswith("ratio = "))
    expected = compare(ModelConfig.from_name("DRCA-S-K4")).ratio
    assert float(ratio_line.split(" = ")[1]) == pytest.approx(expected, abs=5e-5)


def test_flops_against_explicit_reference(capsys):
    code = main(["flops", "DRCA-S-K4", "DRCA-S-K8"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    a = count_flops(ModelConfig.from_name("DRCA-S-K4")).total
    b = count_flops(ModelConfig.from_name("DRCA-S-K8")).total
    ratio_line = next(l for l in out.splitlines() if l.startswith("ratio = "))
    assert float(ratio_line.split(" = ")[1]) == pytest.approx(a / b, abs=5e-5)


def test_flops_instrument_gap_is_zero(capsys):
    code = main(["flops", "toy", "--instrument"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "instrumented = 7146925 flops (analytic 7146925, gap 0.000%)" in out


def test_flops_reads_the_seed_only_for_the_counted_forward(tmp_path, capsys):
    assert main(["flops", "toy", "--instrument", "--set", "seed=5"]) == EXIT_OK
    assert "gap 0.000%" in capsys.readouterr().out
    reference = tmp_path / "ref.conf"
    reference.write_text("variant = DRCA-S-K8\nseed = 5\n")
    for argv in (["flops", "DRCA-S-K4", str(reference)],
                 ["flops", "DRCA-S-K4", str(reference), "--instrument"]):
        assert main(argv) == EXIT_BAD_INPUT
        _one_line_error(capsys, "seed")


# --- toy-train ----------------------------------------------------------------

def test_toy_train_writes_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code = main(["toy-train", "--videos", "4", "--holdout", "2", "--frames", "4",
                 "--salient", "1", "--steps", "2", "--n-samples", "30",
                 "--seed", "7", "--out", str(trace_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "lr = 0.010000" in out and "init_scale = 0.100000" in out
    assert "initial: loss=" in out and "final: loss=" in out
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "step,loss,accuracy"
    assert len(lines) == 1 + 3  # initial row plus one per step
    assert lines[1].startswith("0,")


# --- selftest -------------------------------------------------------------------

def test_selftest_passes(capsys):
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.rstrip().endswith("selftest: PASS")
    assert "suite numerics:" in out and "suite model+flops:" in out


def test_selftest_detects_injected_fault(capsys, monkeypatch):
    softmax = numerics.softmax_lastdim
    with monkeypatch.context() as patch:
        patch.setattr(numerics, "softmax_lastdim", lambda x: softmax(x) + F32(1e-3))
        code = main(["selftest"])
    captured = capsys.readouterr()
    assert code == EXIT_CHECK_FAILED
    assert captured.out.rstrip().endswith("selftest: FAIL")
    # the fault must not leak into later runs
    assert main(["selftest"]) == EXIT_OK


def test_selftest_checks_the_production_gradient(capsys, monkeypatch):
    grad = ranking._score_gradient
    with monkeypatch.context() as patch:
        patch.setattr(ranking, "_score_gradient", lambda dots, z, cfg: -grad(dots, z, cfg))
        code = main(["selftest"])
    captured = capsys.readouterr()
    assert code == EXIT_CHECK_FAILED
    assert captured.out.rstrip().endswith("selftest: FAIL")
    assert "suite ranking" in captured.err and "gradient" in captured.err
    assert ranking._score_gradient is grad
    assert main(["selftest"]) == EXIT_OK
