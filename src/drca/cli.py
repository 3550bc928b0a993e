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


class _Parser(argparse.ArgumentParser):
    """argparse, raising a bad command line as a ConfigError: exit 2, no usage block."""

    def error(self, message: str) -> typing.NoReturn:
        raise ConfigError(message)


@dataclass(frozen=True)
class _Ranged:
    """A value's rule, an argparse ``type=``: a ``kind`` in [low, high]; NaN fails it."""

    kind: type
    low: int | float
    high: int | float = np.inf
    why: str = field(kw_only=True)

    @property
    def bounds(self) -> str:
        low, high = (f"{bound:.6g}" for bound in (self.low, self.high))
        return f">= {low}" if self.high == np.inf else f"in [{low}, {high}]"

    def __call__(self, text: str):
        try:
            value = self.kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {self.kind.__name__}: {text!r}") from None
        if not self.low <= value <= self.high:
            raise argparse.ArgumentTypeError(f"must be {self.bounds}, got {value}")
        return value


def _out_path(path: str) -> str:
    """The rule of an output file: a file name, in a directory that exists
    and takes a new file (probed: os.access passes root where writes fail)."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.basename(path):
        raise argparse.ArgumentTypeError(f"{path!r} names a directory, not a file")
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"{path}: directory {parent} does not exist")
    try:
        tempfile.TemporaryFile(dir=parent).close()
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"{path}: cannot write in {parent}: {exc.strerror}")
    return path


# every single-value range of a flag, run key or DRCA_SEED, as one rule; float
# bounds are Python floats, so a value is compared as given, not as a float32
_F32 = np.finfo(F32)
_SEED = _Ranged(int, 0, why="numpy takes no negative seed")
_SAMPLES = _Ranged(int, 1, why="an estimate needs a sample")
_FRAMES = _Ranged(int, 2, why="one frame has nothing to rank")
_RANK_SIGMA = _Ranged(float, float(np.finfo(np.float64).smallest_subnormal), float(_F32.max),
                      why="the float64 perturbed scores stay finite")
# grad-check's smallest score gap (sigma / 10) and finite-difference step (sigma / 5)
# stay normal float32s, and its scores, within (|z| + 3) sigma, finite for |z| < 29
_CHECK_SIGMA = _Ranged(float, float(10 * _F32.tiny), float(_F32.max / 32),
                       why="score gaps and steps stay normal float32s, scores finite")
_TRIALS = _Ranged(int, 1, why="the T=2 check needs a score pair")
_VIDEOS = _Ranged(int, 1, MAX_TRAIN_VIDEOS - 1, why="video seeds derive from their index")
_HOLDOUT = _Ranged(int, 1, why="accuracy is measured on held-out videos")
_SALIENT = _Ranged(int, 1, why="the top-k split keeps at least one frame")
_STEPS = _Ranged(int, 0, why="0 steps reports the initial score-net")
_TRAIN_SIGMA = _Ranged(float, float(_F32.tiny), float(_F32.max),
                       why="sigma is a normal float32 and 1 / sigma finite")
_FINITE_F32 = _Ranged(float, float(-_F32.max), float(_F32.max), why="a float32 holds it")


def _default_seed(explicit: int | None) -> int:
    """--seed as parsed, else DRCA_SEED under the same rule, else 0."""
    if explicit is not None:
        return explicit
    try:
        return _SEED(os.environ.get("DRCA_SEED", "0"))
    except argparse.ArgumentTypeError as err:
        raise ConfigError(f"DRCA_SEED: {err}") from None


def _echo(pairs: dict[str, object]) -> None:
    print("# resolved configuration")
    for key, value in sorted(pairs.items()):
        print(f"{key} = {value:.6f}" if isinstance(value, float) else f"{key} = {value}")


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


# keys a config file or --set may give, each with its kind or rule; the
# variant picks the base model
_MODEL_KEYS = {key: kind for key, kind in typing.get_type_hints(ModelConfig).items()
               if key != "variant"}
_RUN_KEYS = {"sigma": _RANK_SIGMA, "n_samples": _SAMPLES, "seed": _SEED, "mode": str}
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
    then apply key=value overrides.  Unknown keys are rejected, and so are
    run keys outside ``run_keys``, the ones the command reads, ``sigma`` and
    ``n_samples`` unless ``mode = train``, and ``num_classes`` under retrieval."""
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
        except argparse.ArgumentTypeError as err:
            raise ConfigError(f"key {key!r}: {err}") from None

    unread = sorted(key for key in _RUN_KEYS if key in raw and (
        key not in run_keys or key in _TRAIN_ONLY_KEYS and raw.get("mode") != "train"))
    # no preset sets head_mode, so the raw value is the resolved one
    if raw.get("head_mode") == "retrieval" and "num_classes" in raw:
        unread.append("num_classes")
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


def cmd_rank(args) -> int:
    seed = _default_seed(args.seed)
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
    _check_sizes(frames=args.frames, n_samples=args.n_samples)
    if args.n_samples < MIN_SAMPLES_FOR_CHECKS:
        print(f"insufficient statistical power: n_samples={args.n_samples} < "
              f"{MIN_SAMPLES_FOR_CHECKS}; the Monte Carlo standard error would "
              "dominate the tolerance", file=sys.stderr)
        return EXIT_INSUFFICIENT
    _echo_flags(args, seed)
    closed = gradcheck.run_t2_check(sigma=args.sigma, n_samples=args.n_samples, seed=seed,
                                    trials=args.trials)
    _print_check(closed, "rel_err")
    fd = gradcheck.run_fd_check(frames=args.frames, sigma=args.sigma, n_samples=args.n_samples,
                                seed=seed)
    _print_check(fd, "se_units")
    ok = closed.passed and fd.passed
    print(f"grad-check: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_forward(args) -> int:
    run = load_run_config(args.config, args.set, args.seed)
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
    if args.salient >= args.frames:
        raise ConfigError(f"--salient must be < --frames ({args.frames}), got {args.salient}")
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
    parser = _Parser(prog="drca", description="saliency-compressed video transformer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def ranged(p, flag: str, rule: _Ranged, default, what: str = "") -> None:
        p.add_argument(flag, type=rule, default=default, help=f"{what}{rule.bounds}: {rule.why}")

    p = sub.add_parser("rank", help="rank a score vector and write its smoothed matrix")
    p.add_argument("scores", help="input score vector (.tnsr)")
    p.add_argument("out", type=_out_path, help="output path for the smoothed matrix (.tnsr)")
    ranged(p, "--sigma", _RANK_SIGMA, 0.05)
    ranged(p, "--n-samples", _SAMPLES, 500)
    ranged(p, "--seed", _SEED, None)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("grad-check", help="verify the ranking gradient estimator")
    ranged(p, "--frames", _FRAMES, 4, "T for the finite-difference check; ")
    ranged(p, "--sigma", _CHECK_SIGMA, 0.05)
    p.add_argument("--n-samples", type=int, default=100_000,
                   help=f"below {MIN_SAMPLES_FOR_CHECKS}: exit 3, too few samples to judge")
    ranged(p, "--seed", _SEED, None)
    ranged(p, "--trials", _TRIALS, 10, "score pairs for the T=2 check; ")
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("forward", help="run the model on a video tensor")
    p.add_argument("config", help="config file path, or a model name (S, B, toy, DRCA-S-K4)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a configuration key")
    p.add_argument("--video", help="input video .tnsr [T, H, W, 3]; omitted: seeded noise")
    p.add_argument("--params", help="parameter directory (see tensor_io); omitted: seeded init")
    p.add_argument("--out", type=_out_path, help="write the output tensor here")
    p.add_argument("--baseline", action="store_true",
                   help="run the uncompressed pipeline instead")
    ranged(p, "--seed", _SEED, None)
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
    ranged(p, "--videos", _VIDEOS, 200)
    ranged(p, "--holdout", _HOLDOUT, 50)
    ranged(p, "--frames", _FRAMES, 8)
    ranged(p, "--salient", _SALIENT, 2, "less than --frames; ")
    ranged(p, "--steps", _STEPS, 300)
    ranged(p, "--lr", _FINITE_F32, 0.01)
    ranged(p, "--sigma", _TRAIN_SIGMA, 0.2)
    ranged(p, "--init-scale", _FINITE_F32, 0.1)
    ranged(p, "--n-samples", _SAMPLES, 500)
    ranged(p, "--seed", _SEED, None)
    p.add_argument("--out", type=_out_path, help="write the step,loss,accuracy trace CSV here")
    p.set_defaults(func=cmd_toy_train)

    p = sub.add_parser("selftest", help="run the per-module sanity battery")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
