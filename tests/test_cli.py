"""Command-line surface: exit codes, echoed configuration, output
formats, and byte-stable stdout."""

import argparse
import ast
import inspect
import io
import os
import pathlib
import struct
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import drca
from drca import cli, numerics, ranking
from drca.cli import (
    _MODEL_KEYS,
    _RUN_KEYS,
    _SEED,
    _Ranged,
    _out_path,
    build_parser,
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


@pytest.mark.parametrize("payload", [[0.5, np.nan], [np.inf], []])
def test_rank_refuses_non_finite_or_empty_scores_naming_the_file(tmp_path, capsys, payload):
    scores_path = tmp_path / "scores.tnsr"
    values = np.array(payload, "<f4")
    scores_path.write_bytes(b"TNSR" + struct.pack("<2I", 1, values.size) + values.tobytes())
    code = main(["rank", str(scores_path), str(tmp_path / "out.tnsr")])
    assert code == EXIT_BAD_INPUT
    _one_line_error(capsys, str(scores_path), "non-finite" if payload else "non-empty")
    assert not (tmp_path / "out.tnsr").exists()


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


def test_forward_baseline_train_mode_prints_soft_column(capsys):
    # the uncompressed pipeline returns the same scores, so train mode
    # smooths them as it does the compressed pipeline's
    argv = ["forward", "toy", "--seed", "2", "--set", "mode=train", "--set", "n_samples=100"]
    assert main(argv) == EXIT_OK
    compressed = capsys.readouterr().out
    assert main(argv + ["--baseline"]) == EXIT_OK
    out = capsys.readouterr().out
    soft = [line for line in out.splitlines() if line.startswith("soft_top_column:")]
    assert len(soft) == 1 and len(soft[0].split()) == 1 + 8
    assert soft[0] in compressed.splitlines()


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


def _poison(path, index: int = 0) -> None:
    """Overwrite one float32 value of a tensor file with a NaN, which
    write_tnsr would refuse to write."""
    raw = bytearray(path.read_bytes())
    rank = struct.unpack_from("<I", raw, 4)[0]
    struct.pack_into("<f", raw, 8 + 4 * rank + 4 * index, np.nan)
    path.write_bytes(bytes(raw))


def test_forward_refuses_a_non_finite_video_or_parameter_naming_the_file(tmp_path, capsys):
    video_path = tmp_path / "video.tnsr"
    write_tnsr(video_path, RandomStream(4).gaussian((8, 64, 64, 3)))
    _poison(video_path, index=5)
    assert main(["forward", "toy", "--video", str(video_path)]) == EXIT_BAD_INPUT
    _one_line_error(capsys, str(video_path), "non-finite")

    params_dir = tmp_path / "weights"
    save_tensor_dir(params_dir, named_params(init_params(ModelConfig.toy(), seed=5)))
    _poison(params_dir / "rat.1.ffn.w2.tnsr")
    assert main(["forward", "toy", "--params", str(params_dir)]) == EXIT_BAD_INPUT
    _one_line_error(capsys, str(params_dir / "rat.1.ffn.w2.tnsr"), "non-finite")


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

def _one_line_error(capsys, *names: str) -> str:
    """Check stderr is one `error:` line naming `names`; return stdout."""
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert all(name in err[0] for name in names), err
    return captured.out


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
    (["forward", "toy", "--baseline", "--set", "mode=train", "--set", "sigma=0"], ["sigma"]),
    (["flops", "toy", "--set", "mode=train"], ["mode"]),
    (["flops", "toy", "--set", "sigma=0.3"], ["sigma"]),
    (["flops", "toy", "--set", "n_samples=4", "--instrument"], ["n_samples"]),
    (["flops", "toy", "--set", "seed=5"], ["seed"]),
    (["forward", "toy", "--set", "sigma=0.3", "--set", "n_samples=7"], ["sigma", "n_samples"]),
    (["forward", "toy", "--baseline", "--set", "sigma=0.3", "--set", "n_samples=7"],
     ["sigma", "n_samples"]),
    (["forward", "toy", "--set", "mode=train", "--set", "n_samples=0"], ["n_samples"]),
    (["forward", "toy", "--set", "mode=train", "--set", "sigma=nan"], ["sigma"]),
    # values that a float32 (or the smoothed ranking's float64 keys)
    # cannot hold are refused before anything runs
    (["toy-train", "--lr", "1e300"], ["--lr"]),
    (["toy-train", "--init-scale=-1e300"], ["--init-scale"]),
    (["toy-train", "--sigma", "1e-300"], ["--sigma"]),
    (["toy-train", "--sigma", "1e300"], ["--sigma"]),
    (["forward", "toy", "--set", "mode=train", "--set", "sigma=1e308"], ["sigma"]),
    # a representable run that diverges names its step
    (["toy-train", "--init-scale", "1e30", "--videos", "4", "--holdout", "2", "--steps", "2"],
     ["diverged at step 0"]),
    (["toy-train", "--lr", "1e38", "--init-scale", "1e12", "--videos", "4", "--holdout", "2",
      "--steps", "3"], ["diverged at step 1"]),
    # a config file that is not text names its path
    (["forward", "BINARY_CONF"], ["BINARY_CONF", "UTF-8"]),
    # a negative seed names the flag or key that gave it
    (["rank", "SCORES", "OUT", "--seed", "-1"], ["--seed", "-1"]),
    (["grad-check", "--seed", "-1"], ["--seed", "-1"]),
    (["toy-train", "--seed", "-3"], ["--seed", "-3"]),
    (["forward", "toy", "--seed", "-5"], ["--seed", "-5"]),
    (["forward", "toy", "--set", "seed=-1"], ["seed", "-1"]),
    (["flops", "toy", "--instrument", "--set", "seed=-1"], ["seed", "-1"]),
    # a bad value names the key or flag that gave it
    (["forward", "toy", "--set", "depth=-1"], ["depth"]),
    (["flops", "toy", "--set", "depth=-1"], ["depth"]),
    # a preset name that parses gives the model's own reason
    (["flops", "DRCA-S-K0"], ["saliency_count", "got 0"]),
    (["flops", "DRCA-S-K99"], ["saliency_count", "got 99"]),
    (["toy-train", "--salient", "8", "--frames", "8"], ["--salient"]),
    (["toy-train", "--n-samples", "0"], ["--n-samples"]),
    (["rank", "SCORES", "OUT", "--n-samples", "0"], ["--n-samples"]),
    # argparse's own refusals keep the same contract: no usage block
    (["grad-check", "--frames", "abc"], ["--frames", "abc"]),
    (["toy-train", "--lr", "fast"], ["--lr", "fast"]),
    (["toy-train", "--zzz"], ["--zzz"]),
    (["rank"], ["scores", "out"]),
    (["nosuch"], ["nosuch"]),
])
def test_bad_values_exit_2_with_one_line_error(tmp_path, capsys, argv, names):
    binary = tmp_path / "binary.conf"
    binary.write_bytes(b"\x80variant = toy\n")
    write_tnsr(tmp_path / "s.tnsr", np.array([0.3, -0.1, 0.2], F32))
    paths = {"BINARY_CONF": str(binary), "SCORES": str(tmp_path / "s.tnsr"),
             "OUT": str(tmp_path / "out.tnsr")}
    argv = [paths.get(arg, arg) for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_BAD_INPUT
    out = _one_line_error(capsys, *(name.replace("BINARY_CONF", str(binary)) for name in names))
    # a refused run prints nothing to stdout; a run that diverges has
    # echoed its flags before training
    assert (out == "") != any("diverged" in name for name in names), out


@pytest.mark.parametrize("argv", [
    # the finite-difference step and the score gaps round to 0 in float32
    ["grad-check", "--sigma", "1e-300"],
    # the float32 scores overflow
    ["grad-check", "--sigma", "1e300"],
    # sigma z overflows the float64 keys
    ["rank", "SCORES", "OUT", "--sigma", "1e308"],
])
def test_unrepresentable_sigma_exits_2_without_warnings(tmp_path, capsys, argv):
    write_tnsr(tmp_path / "s.tnsr", np.array([0.3, -0.1, 0.2], F32))
    paths = {"SCORES": str(tmp_path / "s.tnsr"), "OUT": str(tmp_path / "out.tnsr")}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([paths.get(arg, arg) for arg in argv])
    assert code == EXIT_BAD_INPUT
    _one_line_error(capsys, "--sigma")
    assert not (tmp_path / "out.tnsr").exists()


def _check_columns(capsys, sigma: str) -> list[str]:
    argv = ["grad-check", "--sigma", sigma, "--n-samples", "4000", "--trials", "3",
            "--frames", "3", "--seed", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return [code] + [line.split()[-2:] for line in captured.out.splitlines() if "_" in line
                     and line.startswith("  ")]


def test_grad_check_judges_alike_at_either_end_of_its_sigma_range(capsys):
    # every quantity scales with sigma, so the relative errors, standard
    # error units and verdicts at the ends of the range are those at 0.05
    f32 = np.finfo(F32)
    want = _check_columns(capsys, "0.05")
    assert len(want) == 1 + 3 + 5 * 3
    assert _check_columns(capsys, repr(float(10 * f32.tiny))) == want
    assert _check_columns(capsys, repr(float(f32.max / 32))) == want


def test_writing_over_a_directory_exits_2(tmp_path, capsys):
    # every output path is checked as it is parsed: a directory, a path that
    # names no file, or a file in a directory that does not exist or takes
    # no new file (procfs, even for root), is refused before the run
    write_tnsr(tmp_path / "s.tnsr", np.array([0.3, -0.1, 0.2], F32))
    taken = tmp_path / "taken"
    taken.mkdir()
    targets = [str(taken), str(tmp_path / "absent" / "out"), f"{tmp_path}/new/", ""]
    if os.path.isdir("/proc"):
        targets.append("/proc/x.tnsr")
    for target in targets:
        for argv in (["rank", str(tmp_path / "s.tnsr"), target],
                     ["forward", "toy", "--out", target],
                     ["toy-train", "--out", target]):
            assert main(argv) == EXIT_BAD_INPUT
            assert _one_line_error(capsys, target) == ""
    assert not (tmp_path / "absent").exists() and not (tmp_path / "new").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["toy-train", "--help"])
    assert raised.value.code == 0
    assert "usage: drca toy-train" in capsys.readouterr().out


# --- one rule per flag ---------------------------------------------------------

def _subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(action.choices for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def _arguments():
    """(command, name, action) for every argument of every subcommand."""
    return [(command, (action.option_strings or [action.dest])[-1], action)
            for command, parser in _subcommands().items() for action in parser._actions]


_RANGED = [(command, name, action) for command, name, action in _arguments()
           if isinstance(action.type, _Ranged)]


def test_every_numeric_flag_has_a_rule():
    # grad-check's --n-samples alone takes any integer: below 1000 the
    # check refuses to run with exit 3, not 2
    unchecked = [(command, name) for command, name, action in _arguments()
                 if action.type in (int, float)]
    assert unchecked == [("grad-check", "--n-samples")]
    for command, name, action in _RANGED:
        if action.default is not None:
            assert action.type(str(action.default)) == action.default, (command, name)


def test_help_states_each_range():
    for command, name, action in _RANGED:
        text = " ".join(_subcommands()[command].format_help().split())
        assert f"{action.type.bounds}: {action.type.why}" in action.help, (command, name)
        assert f"{name} {action.dest.upper()} {' '.join(action.help.split())}" in text


def _readme_flag_table() -> list[tuple[list[str], list[str], str]]:
    """(names, commands, range) for each row of README's flag table."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| flag or key | commands | range | reason |\n|---|---|---|---|\n")[1]
    rows = []
    for line in table.split("\n\n")[0].splitlines():
        names, commands, bounds, _ = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((names.replace("`", "").split(", "), commands.split(", "), bounds.strip("`")))
    return rows


def test_readme_flag_table_matches_the_rules():
    rows = _readme_flag_table()
    listed = {(name, command): bounds for names, commands, bounds in rows
              for name in names for command in commands}
    for command, name, action in _RANGED:
        assert listed.get((name, command)) == action.type.bounds, (command, name)
    keys = {key: rule for key, rule in _RUN_KEYS.items() if isinstance(rule, _Ranged)}
    assert set(keys) == {"sigma", "n_samples", "seed"}
    for key, rule in {**keys, "DRCA_SEED": _SEED}.items():
        assert listed.get((key, "forward")) == rule.bounds, key
    paths = {(name, command) for command, name, action in _arguments()
             if action.type is _out_path}
    assert paths == {("out", "rank"), ("--out", "forward"), ("--out", "toy-train")}
    assert paths <= set(listed)
    # and the table lists no flag that the parser leaves unchecked
    checked = paths | {(name, command) for command, name, _ in _RANGED}
    for names, commands, _ in rows:
        for name in names:
            assert name.isupper() or name in keys or any(
                (name, command) in checked for command in commands), name


def _refused_edges(rule: _Ranged) -> list[str]:
    """The refused values at and far past each bound of ``rule``: its outer
    neighbour, NaN, infinities, a negative and an integer past int64."""
    def outer(bound, way: int) -> str:
        if rule.kind is int:
            return str(bound + way)
        return repr(float(np.nextafter(bound, way * np.inf)))
    edges = [outer(rule.low, -1), "nan", "inf", "-inf", "-1e400"]
    if rule.low >= 0:
        edges.append("-1")
    if rule.high < np.inf:
        edges += [outer(rule.high, 1), str(max(2 ** 63, 2 * int(rule.high) + 1))]
    return edges


def _refused_values(rule: _Ranged):
    """Any value below ``rule``'s low bound or above its high one."""
    if rule.kind is int:
        below = st.integers(max_value=rule.low - 1)
        above = st.integers(min_value=rule.high + 1) if rule.high < np.inf else st.nothing()
    else:
        below = st.floats(max_value=float(np.nextafter(rule.low, -np.inf)))
        above = st.floats(min_value=float(np.nextafter(rule.high, np.inf)))
    return st.one_of(below, above).map(repr)


def _refusal_targets():
    """(id, argv with {} for the value, environment variable, name, rule)
    for every ranged flag, every ranged run key and DRCA_SEED."""
    positionals = {"rank": ["s.tnsr", "o.tnsr"], "forward": ["toy"]}
    targets = [(f"{command} {name}", [command, *positionals.get(command, []), name + "={}"],
                None, name, action.type) for command, name, action in _RANGED]
    targets += [(f"key {key}", ["forward", "toy", "--set", "mode=train", "--set", key + "={}"],
                 None, key, rule) for key, rule in _RUN_KEYS.items() if isinstance(rule, _Ranged)]
    return targets + [("DRCA_SEED", ["grad-check"], "DRCA_SEED", "DRCA_SEED", _SEED)]


@pytest.mark.parametrize("target", _refusal_targets(), ids=lambda target: target[0])
def test_refused_values_exit_2_naming_the_flag_or_key(target):
    _, argv, env, name, rule = target

    def refused(value: str) -> None:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                mock.patch.dict(os.environ, {env: value} if env else {}), \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([arg.format(value) for arg in argv])
        lines = err.getvalue().splitlines()
        assert code == EXIT_BAD_INPUT, (value, lines)
        assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0], lines
        assert out.getvalue() == "", value
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], value

    for value in _refused_edges(rule):
        refused(value)
    # every refusal happens as the value is parsed, so each example is cheap
    settings(max_examples=10, deadline=None)(given(_refused_values(rule))(refused))()


_INT_MODEL_KEYS = sorted(k for k, kind in _MODEL_KEYS.items() if kind is int)


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(_INT_MODEL_KEYS), value=st.integers(-2, 8))
def test_any_small_integer_override_exits_0_or_2(key, value):
    # patch sizes 1 and 2 are valid but give 4096- and 1024-token frames
    # whose attention matrices take hundreds of megabytes per frame; they
    # test memory, not input checking
    assume(not (key == "patch_size" and value in (1, 2)))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["forward", "toy", "--set", f"{key}={value}"])
    assert code in (EXIT_OK, EXIT_BAD_INPUT)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_BAD_INPUT:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")



@pytest.mark.parametrize("argv", [
    ["forward", "toy", "--set", "patch_size=1", "--set", "height=128", "--set", "width=128"],
    ["forward", "toy", "--set", "height=4096", "--set", "width=4096"],
    ["forward", "toy", "--set", "frames=20000"],
    ["flops", "toy", "--set", "patch_size=1", "--set", "height=128", "--set", "width=128",
     "--instrument"],
    ["forward", "S", "--set", "embed_dim=600000000"],
    ["forward", "toy", "--set", "num_classes=2000000000"],
    ["flops", "toy", "--set", "num_classes=2000000000", "--instrument"],
])
def test_oversized_model_exits_2_before_allocating(capsys, argv):
    # toy at patch size 1 on 128 x 128 pixels: 4 heads x 16384^2 float32
    # spatial scores for one frame; S at width 6e8: a 2.4 TB block of the
    # feed-forward hidden activation; toy with 2e9 classes: a 128 GB
    # float32 head draw
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
    # refused before any output: no echoed configuration, no order, no
    # check report, no file
    assert stdout == "" and not out.exists()
    assert err.startswith("error: too many frames: a 12000x12000") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["DRCA-S-K4", "DRCA-B-K2", "toy"])
def test_model_size_limit_admits_the_presets(name):
    config = ModelConfig.from_name(name)
    for model in (config, config.baseline()):
        _check_sizes(model, model.frames, 500)


@pytest.mark.parametrize("over,what", [
    (dict(patch_size=1, height=128, width=128), "an attention-score tensor"),
    # a 256-row block of the hidden activation passes 1 GiB only at widths
    # whose weights pass it too; the hidden activation is checked first
    (dict(embed_dim=300_000, patch_size=4), "the feed-forward hidden activation"),
    (dict(embed_dim=8200), "the feed-forward weight draw"),
    (dict(patch_size=3072, height=3072, width=3072, compression_factor=1),
     "the patch projection draw"),
    (dict(num_classes=2_000_000_000), "the head weight draw"),
    (dict(head_mode="retrieval", embed_out=2_000_000_000), "the head weight draw"),
    (dict(patch_size=128, height=128, width=128, head_count=1, compression_factor=1,
          frames=6000), "the input video draw"),
])
def test_model_size_limit_names_the_array_over_it(over, what):
    # the named array is the first of the walk's arrays over the limit
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
    # attention runs over tiles of at most 512 query rows, so only a head
    # count in the thousands makes one tile too large.  With one saliency
    # frame of 256 tokens the model's largest tile is one frame, [1, 3072,
    # 256, 256] scores (768 MiB), but its uncompressed twin, every frame
    # at full resolution, attends over tiles of two frames (1.5 GiB)
    over = dict(patch_size=4, embed_dim=3072, head_count=3072, saliency_count=1, depth=1,
                dccm_insert_after=0)
    _check_sizes(ModelConfig.toy(**over))
    with pytest.raises(ConfigError, match="attention-score"):
        _check_sizes(ModelConfig.toy(**over).baseline())
    sets = [arg for key, value in over.items() for arg in ("--set", f"{key}={value}")]
    assert main(["forward", "toy", *sets, "--baseline"]) == EXIT_BAD_INPUT
    _one_line_error(capsys, "model too large: an attention-score tensor would take")


def test_flops_instrument_refuses_before_printing_a_report(capsys):
    argv = ["flops", "toy", "--set", "patch_size=1", "--set", "height=128", "--set", "width=128",
            "--instrument"]
    assert main(argv) == EXIT_BAD_INPUT
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


def test_negative_env_seed_exits_2_before_any_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DRCA_SEED", "-2")
    scores_path = tmp_path / "scores.tnsr"
    write_tnsr(scores_path, np.array([1.0, 2.0], F32))
    code = main(["rank", str(scores_path), str(tmp_path / "out.tnsr")])
    assert code == EXIT_BAD_INPUT
    assert capsys.readouterr().out == ""  # no echo, no order line
    assert not (tmp_path / "out.tnsr").exists()
    assert main(["grad-check"]) == EXIT_BAD_INPUT
    _one_line_error(capsys, "DRCA_SEED", "-2")


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
        patch.setattr(ranking, "_score_gradient", lambda centred, cfg: -grad(centred, cfg))
        code = main(["selftest"])
    captured = capsys.readouterr()
    assert code == EXIT_CHECK_FAILED
    assert captured.out.rstrip().endswith("selftest: FAIL")
    assert "suite ranking" in captured.err and "gradient" in captured.err
    assert ranking._score_gradient is grad
    assert main(["selftest"]) == EXIT_OK


def test_toy_train_never_imports_numpy_ma():
    # np.unique, behind np.setdiff1d and np.intersect1d, imports numpy.ma
    # on its first call: about 1.4 MB resident and 14 ms for nothing
    code = ("import sys\nfrom drca.cli import main\n"
            "main(['toy-train', '--videos', '4', '--holdout', '2', '--steps', '1'])\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(drca.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "False"
