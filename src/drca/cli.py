"""Deterministic command-line surface.

Subcommands: ``rank`` (score file -> hard order + smoothed matrix),
``grad-check`` (closed-form and finite-difference verification of the
ranking gradient), ``forward`` (run the model on a video tensor),
``flops`` (analytic cost reports and ratios), ``toy-train`` (planted
saliency training curve), ``selftest`` (per-module sanity battery).

Every command echoes its resolved configuration and, given the same
inputs and seeds, produces byte-identical output; nothing time- or
path-dependent is ever printed.  Exit codes: 0 success, 1 a verification
check failed, 2 invalid input or configuration, 3 statistically
insufficient sampling for a requested check.

The only environment variable consulted is ``DRCA_SEED``, an optional
default seed, and its effect is always visible in the echoed
configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import typing
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import gradcheck, selftest as selftest_mod, tensor_io
from .dccm import (MAX_TRAIN_VIDEOS, make_planted_dataset, toy_train_bytes, toy_train_scorenet,
                   ScoreNetParams)
from .flops import compare, count_flops, instrument_check
from .model import ModelConfig, baseline_forward, forward, init_params, params_from_named
from .numerics import F32, RandomStream, ShapeError
from .ranking import PerturbConfig, hard_rank, perturbed_rank

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INSUFFICIENT = 3

MIN_SAMPLES_FOR_CHECKS = 1000

# refuse a run whose largest array, or whose weights or dataset in total,
# would exceed these (see _check_sizes); fixed, so the same command
# succeeds or fails the same way on every machine
MAX_ARRAY_BYTES = 1 << 30
MAX_TOTAL_BYTES = 1 << 32


class ConfigError(ValueError):
    pass


def _check_seed(seed: int, source: str) -> int:
    """Refuse a negative seed, naming its source: numpy seeds take none."""
    if seed < 0:
        raise ConfigError(f"{source} must be >= 0, got {seed}")
    return seed


def _default_seed(explicit: int | None) -> int:
    if explicit is not None:
        return _check_seed(explicit, "--seed")
    env = os.environ.get("DRCA_SEED", "0")
    try:
        seed = int(env)
    except ValueError:
        raise ConfigError(f"DRCA_SEED must be an integer, got {env!r}") from None
    return _check_seed(seed, "DRCA_SEED")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _echo(pairs: dict[str, object]) -> None:
    print("# resolved configuration")
    for key in sorted(pairs):
        print(f"{key} = {_fmt(pairs[key])}")


# --- run configuration files -------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    sigma: float = 0.05
    n_samples: int = 500
    seed: int = 0
    mode: str = "infer"
    # the smoothing train mode draws on the forward's scores; None in infer mode
    perturb: PerturbConfig | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_seed(self.seed, "seed")
        if self.mode not in ("infer", "train"):
            raise ConfigError(f"mode must be infer or train, got {self.mode!r}")
        object.__setattr__(self, "perturb", PerturbConfig(
            sigma=self.sigma, n_samples=self.n_samples, seed=self.seed)
            if self.mode == "train" else None)

    def echo_pairs(self) -> dict[str, object]:
        pairs: dict[str, object] = {
            f.name: getattr(self.model, f.name) for f in fields(ModelConfig)
        }
        pairs.update((key, getattr(self, key)) for key in _RUN_KEYS
                     if self.mode == "train" or key not in _TRAIN_ONLY_KEYS)
        return pairs


def _settable(kind: type, skip: str) -> dict[str, type]:
    hints = typing.get_type_hints(kind)
    return {f.name: hints[f.name] for f in fields(kind) if f.init and f.name != skip}


# keys a config file or --set may give; the variant picks the base model
_MODEL_KEYS = _settable(ModelConfig, "variant")
_RUN_KEYS = _settable(RunConfig, "model")
# the smoothing settings, read only by the train-mode forward
_TRAIN_ONLY_KEYS = ("sigma", "n_samples")


def _parse_config_text(text: str, source: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{source}:{line_no}: empty key or value")
        if key in raw:
            raise ConfigError(f"{source}:{line_no}: duplicate key {key!r}")
        raw[key] = value
    return raw


def load_run_config(token: str, sets: list[str] | None, seed_flag: int | None = None,
                    run_keys: typing.Collection[str] = tuple(_RUN_KEYS)) -> RunConfig:
    """Build a RunConfig from a config file path or a bare model name,
    then apply key=value overrides.  Unknown keys are rejected, and so
    are run keys outside ``run_keys``, the ones the command reads, and
    ``sigma`` and ``n_samples`` unless ``mode = train``."""
    if os.path.exists(token):
        try:
            with open(token, encoding="utf-8") as f:
                raw = _parse_config_text(f.read(), token)
        except UnicodeDecodeError as err:
            raise ConfigError(
                f"{token}: not a UTF-8 text file (byte {err.start}: {err.reason})") from None
    else:
        if "=" in token or token.endswith(".conf"):
            raise ConfigError(f"config file {token!r} does not exist")
        raw = {"variant": token}

    for item in sets or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        raw[key] = value

    def take(key: str, kind: type):
        value = raw.pop(key)
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(f"key {key!r} needs a {kind.__name__}, got {value!r}") from None

    unread = sorted(key for key in _RUN_KEYS if key in raw and (
        key not in run_keys or key in _TRAIN_ONLY_KEYS and raw.get("mode") != "train"))
    if unread:
        raise ConfigError(f"configuration keys {unread} have no effect on this command")
    run_values = {key: take(key, kind) for key, kind in _RUN_KEYS.items() if key in raw}
    variant = raw.pop("variant", "toy")
    try:
        model = ModelConfig.from_name(variant)
    except ShapeError:
        raise  # a name that parses but gives a bad model, such as K0
    except ValueError:
        raise ConfigError(
            f"unknown variant {variant!r} (want S, B, toy, or DRCA-<B|S>-K<n>)"
        ) from None

    overrides = {key: take(key, kind) for key, kind in _MODEL_KEYS.items() if key in raw}
    if raw:
        raise ConfigError(f"unknown configuration keys: {sorted(raw)}")
    if overrides:
        model = replace(model, **overrides)
    if "seed" not in run_values:
        run_values["seed"] = _default_seed(seed_flag)
    return RunConfig(model=model, **run_values)


def _check_sizes(model: ModelConfig | None = None, frames: int = 0,
                 n_samples: int = 0, dataset_bytes: int = 0) -> None:
    """Refuse, before anything is allocated, drawn or reported, a run
    whose largest array or whose total would exceed its fixed limit.  For
    a model: the largest array of each kind that the flop model's walk
    sizes (see ``flops.count_flops``), then its float32 weight total.
    For a ranking: its float64 [frames, frames] matrix and its
    [n_samples, frames] draws, which no command holds: every estimate
    holds a few sampler blocks at a time, so the bound caps the work,
    not the memory.  For toy training: the tokens of its planted videos
    (see ``dccm.toy_train_bytes``)."""
    checks = []
    if model is not None:
        walk = count_flops(model)
        checks += [(f"model too large: {what}", size, MAX_ARRAY_BYTES)
                   for what, size in walk.arrays]
        checks.append(("model too large: its float32 weights", walk.weight_bytes,
                       MAX_TOTAL_BYTES))
    if frames:
        checks += [
            (f"too many frames: a {frames}x{frames} float64 matrix", 8 * frames * frames,
             MAX_ARRAY_BYTES),
            (f"n_samples too large: {n_samples} draws of {frames} frames",
             8 * n_samples * frames, MAX_ARRAY_BYTES),
        ]
    checks.append(("dataset too large: the planted videos", dataset_bytes, MAX_TOTAL_BYTES))
    for what, size, limit in checks:
        if size > limit:
            raise ConfigError(f"{what} would take {size} bytes (limit {limit})")


# --- subcommands ---------------------------------------------------------

# path arguments are not configuration and stay out of the echo
_NOT_ECHOED = ("command", "func", "scores", "out")


def _echo_flags(args, seed: int) -> None:
    """Echo a command's flags, with the seed as resolved: once every check
    that needs no work has passed, so a refused run prints nothing."""
    pairs = {key: value for key, value in vars(args).items() if key not in _NOT_ECHOED}
    _echo({**pairs, "seed": seed})


def _require_counts(args, **minimums: int) -> None:
    for flag, low in minimums.items():
        value = getattr(args, flag)
        if value < low:
            raise ConfigError(f"--{flag.replace('_', '-')} must be >= {low}, got {value}")


def _check_sigma(sigma: float, low: float, high: float, name: str = "--sigma") -> None:
    """Refuse a sigma (flag or key ``name``) outside [low, high], the
    range in which the command's float32 scores, steps and float64
    perturbed keys neither round away nor overflow; NaN is outside every
    range."""
    low, high = float(low), float(high)  # not float32: sigma would round
    if not low <= sigma <= high:
        raise ConfigError(f"{name} must be in [{low:.6g}, {high:.6g}], got {sigma}")


# a smoothed ranking's sigma: its float64 keys s + sigma z stay finite
# for float32 scores
_RANK_SIGMA = (np.finfo(np.float64).smallest_subnormal, np.finfo(F32).max)


def cmd_rank(args) -> int:
    seed = _default_seed(args.seed)
    _check_sigma(args.sigma, *_RANK_SIGMA)
    _require_counts(args, n_samples=1)
    cfg = PerturbConfig(sigma=args.sigma, n_samples=args.n_samples, seed=seed)
    scores = tensor_io.read_tnsr(args.scores)
    if scores.ndim != 1 or not scores.size:
        raise ShapeError(f"{args.scores}: scores must be a non-empty vector, got {scores.shape}")
    _check_sizes(frames=scores.shape[0], n_samples=cfg.n_samples)
    _echo_flags(args, seed)
    perm = hard_rank(scores)
    print("order:", " ".join(str(i) for i in perm.order))
    soft = perturbed_rank(scores, cfg)
    tensor_io.write_tnsr(args.out, soft)
    print(f"soft matrix: {soft.shape[0]}x{soft.shape[1]}, {cfg.n_samples} samples")
    print(f"wrote: {args.out}")
    return EXIT_OK


def _print_check(report: gradcheck.CheckReport, unit: str) -> None:
    for row in report.rows:
        print(f"  {row.label}: analytic={row.analytic:.6f} "
              f"estimate={row.estimate:.6f} {unit}={row.error:.4f} "
              f"{'ok' if row.passed else 'FAIL'}")
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{report.name}: {verdict} (worst {unit} {report.worst:.4f})")


def cmd_grad_check(args) -> int:
    seed = _default_seed(args.seed)
    _require_counts(args, frames=2, trials=1)
    # the smallest score gap (sigma / 10) and the finite-difference step
    # (sigma / 5) stay normal float32s, and the float32 scores, within
    # (|z| + 3) sigma, stay finite for any |z| below 29
    f32 = np.finfo(F32)
    _check_sigma(args.sigma, 10 * f32.tiny, f32.max / 32)
    _check_sizes(frames=args.frames, n_samples=args.n_samples)
    if args.n_samples < MIN_SAMPLES_FOR_CHECKS:
        print(
            f"insufficient statistical power: n_samples={args.n_samples} < "
            f"{MIN_SAMPLES_FOR_CHECKS}; the Monte Carlo standard error would "
            "dominate the tolerance",
            file=sys.stderr,
        )
        return EXIT_INSUFFICIENT
    _echo_flags(args, seed)
    closed = gradcheck.run_t2_check(
        sigma=args.sigma, n_samples=args.n_samples, seed=seed, trials=args.trials
    )
    _print_check(closed, "rel_err")
    fd = gradcheck.run_fd_check(
        frames=args.frames, sigma=args.sigma, n_samples=args.n_samples, seed=seed
    )
    _print_check(fd, "se_units")
    ok = closed.passed and fd.passed
    print(f"grad-check: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_forward(args) -> int:
    run = load_run_config(args.config, args.set, args.seed)
    if run.perturb is not None:
        _check_sigma(run.sigma, *_RANK_SIGMA, name="sigma")
    config = run.model
    _check_sizes(config.baseline() if args.baseline else config, config.frames,
                 run.perturb.n_samples if run.perturb else 0)

    if args.params:
        params = params_from_named(config, tensor_io.load_tensor_dir(args.params))
    else:
        params = init_params(config, run.seed)

    if args.video:
        video = tensor_io.read_tnsr(args.video)
        expect = (config.frames, config.height, config.width, 3)
        if video.shape != expect:
            raise ShapeError(f"{args.video}: video shape {video.shape}, expected {expect}")
    else:
        video = RandomStream(run.seed + 1).gaussian(
            (config.frames, config.height, config.width, 3)
        )

    _echo(run.echo_pairs())
    if args.baseline:
        out = baseline_forward(video, params, config)
    else:
        out = forward(video, params, config)

    print("scores:", " ".join(f"{float(v):.6f}" for v in out.scores))
    print("selected_times:", " ".join(str(i) for i in out.selected_times))
    norm = float(np.sqrt(np.sum(out.output.astype(np.float64) ** 2)))
    print(f"output_norm = {norm:.6f}")
    if run.perturb is not None:
        col = perturbed_rank(out.scores, run.perturb)[:, 0]
        print("soft_top_column:", " ".join(f"{float(v):.6f}" for v in col))
    if args.out:
        tensor_io.write_tnsr(args.out, out.output)
        print(f"wrote: {args.out}")
    return EXIT_OK


def cmd_flops(args) -> int:
    # the flop model reads only the model; the counted forward also the seed
    run = load_run_config(args.config, args.set, None,
                          run_keys=("seed",) if args.instrument else ())
    if args.instrument:
        _check_sizes(run.model)
    if args.baseline:
        # the word 'baseline' names the uncompressed twin, compare's default
        reference = (None if args.baseline == "baseline" else
                     load_run_config(args.baseline, None, None, run_keys=()).model)
        comparison = compare(run.model, reference)
        reports = (comparison.report, comparison.baseline)
    else:
        comparison = None
        reports = (count_flops(run.model),)

    for report in reports:
        print(report.machine_lines() if args.machine else report.render())
    if comparison is not None:
        print(f"ratio = {comparison.ratio:.4f}")
    if args.instrument:
        result = instrument_check(run.model, seed=run.seed)
        print(f"instrumented = {result.measured} flops "
              f"(analytic {result.analytic}, gap {result.rel_gap * 100:.3f}%)")
    return EXIT_OK


def cmd_toy_train(args) -> int:
    seed = _default_seed(args.seed)
    _require_counts(args, videos=1, holdout=1, steps=0, frames=2, salient=1, n_samples=1)
    if args.salient >= args.frames:
        raise ConfigError(f"--salient must be < --frames ({args.frames}), got {args.salient}")
    f32 = np.finfo(F32)
    for flag in ("lr", "init_scale"):
        value = getattr(args, flag)
        if not abs(value) <= float(f32.max):  # so F32(value) is finite
            raise ConfigError(f"--{flag.replace('_', '-')} must be a finite float32 "
                              f"(|value| <= {float(f32.max):.6g}), got {value}")
    # sigma and the 1 / sigma of the float32 gradient stay normal float32s
    _check_sigma(args.sigma, f32.tiny, f32.max)
    if args.videos >= MAX_TRAIN_VIDEOS:
        raise ConfigError(f"--videos must be < {MAX_TRAIN_VIDEOS}, got {args.videos}")
    _check_sizes(frames=args.frames, n_samples=args.n_samples,
                 dataset_bytes=toy_train_bytes(args.videos, args.holdout, args.frames))
    _echo_flags(args, seed)
    videos = make_planted_dataset(
        args.videos + args.holdout, frames=args.frames,
        salient_count=args.salient, seed=seed,
    )
    train, holdout = videos[: args.videos], videos[args.videos:]
    params = ScoreNetParams.init(
        train[0].tokens.shape[-1], 4, 8, RandomStream(seed + 1),
        scale=args.init_scale, zero_final=True,
    )
    cfg = PerturbConfig(sigma=args.sigma, n_samples=args.n_samples, seed=seed + 2)
    params, trace = toy_train_scorenet(
        train, holdout, params, k=args.salient, steps=args.steps,
        lr=args.lr, cfg=cfg,
    )
    if args.out:
        with open(args.out, "w") as f:
            f.write("step,loss,accuracy\n")
            for row in trace:
                f.write(f"{row.step},{row.loss:.6f},{row.accuracy:.6f}\n")
        print(f"wrote: {args.out}")
    first, last = trace[0], trace[-1]
    print(f"initial: loss={first.loss:.6f} accuracy={first.accuracy:.6f}")
    print(f"final: loss={last.loss:.6f} accuracy={last.accuracy:.6f}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    try:
        with tempfile.TemporaryDirectory() as tmp:
            results = selftest_mod.run_all(tmp)
    except selftest_mod.SelftestError as err:
        print(str(err), file=sys.stderr)
        print("selftest: FAIL")
        return EXIT_CHECK_FAILED
    for name, count in results:
        print(f"suite {name}: {count} checks ok")
    print("selftest: PASS")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drca",
        description="saliency-compressed video transformer toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="rank a score vector and write its smoothed matrix")
    p.add_argument("scores", help="input score vector (.tnsr)")
    p.add_argument("out", help="output path for the smoothed matrix (.tnsr)")
    p.add_argument("--sigma", type=float, default=0.05)
    p.add_argument("--n-samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("grad-check", help="verify the ranking gradient estimator")
    p.add_argument("--frames", type=int, default=4, help="T for the finite-difference check")
    p.add_argument("--sigma", type=float, default=0.05)
    p.add_argument("--n-samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=10, help="score pairs for the T=2 check")
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("forward", help="run the model on a video tensor")
    p.add_argument("config", help="config file path, or a model name (S, B, toy, DRCA-S-K4)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a configuration key")
    p.add_argument("--video", help="input video .tnsr [T, H, W, 3]; omitted: seeded noise")
    p.add_argument("--params", help="parameter directory (see tensor_io); omitted: seeded init")
    p.add_argument("--out", help="write the output tensor here")
    p.add_argument("--baseline", action="store_true",
                   help="run the uncompressed pipeline instead")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("flops", help="analytic cost report, optionally vs a reference")
    p.add_argument("config", help="config file path or model name")
    p.add_argument("baseline", nargs="?", default=None,
                   help="reference config path/name, or the word 'baseline'")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--machine", action="store_true", help="tab-separated output")
    p.add_argument("--instrument", action="store_true",
                   help="also run a counted forward pass and print the gap")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("toy-train", help="train the score-net on planted saliency")
    p.add_argument("--videos", type=int, default=200)
    p.add_argument("--holdout", type=int, default=50)
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--salient", type=int, default=2)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--init-scale", type=float, default=0.1)
    p.add_argument("--n-samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="write the step,loss,accuracy trace CSV here")
    p.set_defaults(func=cmd_toy_train)

    p = sub.add_parser("selftest", help="run the per-module sanity battery")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ShapeError, tensor_io.TensorFileError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except FileNotFoundError as err:
        print(f"error: {err.filename or err} not found", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as err:
        print(f"error: {err.filename}: {err.strerror}" if err.filename else f"error: {err}",
              file=sys.stderr)
        return EXIT_BAD_INPUT


def entry() -> None:
    sys.exit(main())
