"""Closed-form flop accounting for every pipeline stage, plus an
instrumented cross-check that runs the real kernels under a counter.

The counting convention is pinned and shared with the executing kernels
(see the numerics module): a matmul of shape m x k x n costs 2*m*k*n,
softmax 5 per element, normalisation 4 per element, pooling 1 per input
element, elementwise nonlinearities 1 per element; residual additions,
scalar scalings, embedding adds, sorting and data movement are free on
both sides.  Reports render totals both as flops and as multiply-
accumulate counts (total / 2), since published efficiency tables are
commonly MAC-counted.

Op classes: "projection" (norms + linear maps feeding attention, the
score-net mlp and the patch embedding), "attention-scores" (QK^T plus
its softmax), "attention-apply" (attention times values), "feed-forward"
(mlp blocks with their norm and gelu), "conv", "pooling", "head".

``count_flops`` is the one walk over the model's shapes.  It prices a
run of identical layers once and counts it as many times as the run is
deep, so its cost does not grow with depth.  The same walk sizes the
arrays: each report also carries the bytes of the largest array of each
kind that a forward pass and its seeded set-up make (the attention
scores of every site, the compressor's included, from the same groups x
queries x keys x heads that price the site; the feed-forward hidden
activation of the larger part's tokens; the score-net's zero-padded input; the
float64 draws of the weights and of a seeded input video) and the exact
float32 weight total.  The command line refuses a model on these
figures before it allocates anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import (
    FlopCounter,
    MACS_TO_FLOPS,
    NONLINEARITY_FLOPS_PER_ELEMENT as NONLIN,
    NORM_FLOPS_PER_ELEMENT as NORM,
    POOL_FLOPS_PER_ELEMENT as POOL,
    SOFTMAX_FLOPS_PER_ELEMENT as SOFTMAX,
    RandomStream,
)
from .model import ModelConfig, forward, init_params


@dataclass(frozen=True)
class FlopsEntry:
    stage: str
    op_class: str
    count: int


@dataclass(frozen=True)
class FlopsReport:
    config_name: str
    entries: tuple[FlopsEntry, ...]
    # (kind, bytes) of the largest array of each kind the forward pass and
    # its seeded set-up make, and the exact float32 weight total
    arrays: tuple[tuple[str, int], ...]
    weight_bytes: int

    @property
    def total(self) -> int:
        return sum(e.count for e in self.entries)

    @property
    def total_macs(self) -> int:
        return self.total // MACS_TO_FLOPS

    def entry(self, stage: str, op_class: str) -> int:
        return sum(e.count for e in self.entries
                   if e.stage == stage and e.op_class == op_class)

    def stage_total(self, prefix: str) -> int:
        return sum(e.count for e in self.entries if e.stage.startswith(prefix))

    def class_total(self, op_class: str) -> int:
        return sum(e.count for e in self.entries if e.op_class == op_class)

    def render(self) -> str:
        lines = [f"flop report: {self.config_name}"]
        width = max(len(e.stage) for e in self.entries)
        for e in self.entries:
            lines.append(f"  {e.stage:<{width}}  {e.op_class:<16}  {e.count:>16,}")
        lines.append(f"  total: {self.total:,} flops = {self.total / 1e9:.1f} GF "
                     f"({self.total_macs / 1e9:.1f} GMACs)")
        return "\n".join(lines)

    def machine_lines(self) -> str:
        lines = [f"{e.stage}\t{e.op_class}\t{e.count}" for e in self.entries]
        lines.append(f"total\tall\t{self.total}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ComparisonResult:
    report: FlopsReport
    baseline: FlopsReport

    @property
    def ratio(self) -> float:
        return self.report.total / self.baseline.total


@dataclass(frozen=True)
class InstrumentResult:
    analytic: int
    measured: int

    @property
    def rel_gap(self) -> float:
        return abs(self.analytic - self.measured) / self.analytic


# bytes per element: activations and weights are float32, seeded draws
# float64 until they are cast
_F32_BYTES, _F64_BYTES = 4, 8

# the kinds of array the walk sizes, in the order it reports them
_SCORES = "an attention-score tensor"
_HIDDEN = "the feed-forward hidden activation"
_FF_DRAW = "the feed-forward weight draw"
_PATCH_DRAW = "the patch projection draw"
_HEAD_DRAW = "the head weight draw"
_VIDEO_DRAW = "the input video draw"
_CONV_INPUT = "the score-net's zero-padded input"
_CONV_DRAW = "the score-net kernel draw"
_KINDS = (_SCORES, _HIDDEN, _FF_DRAW, _PATCH_DRAW, _HEAD_DRAW, _VIDEO_DRAW, _CONV_INPUT,
          _CONV_DRAW)


class _Walk:
    """What one pass over the model's stages gathers: the flops of each
    (stage, op class) in first-seen order, the bytes of the largest array
    of each kind, and the float32 weight total."""

    def __init__(self) -> None:
        self.flops: dict[tuple[str, str], int] = {}
        self.largest = dict.fromkeys(_KINDS, 0)
        self.weight_bytes = 0

    def cost(self, stage: str, op_class: str, count: int) -> None:
        key = (stage, op_class)
        self.flops[key] = self.flops.get(key, 0) + count

    def array(self, kind: str, nbytes: int) -> None:
        self.largest[kind] = max(self.largest[kind], nbytes)

    def weight(self, *shape: int, times: int = 1, draw: str | None = None) -> None:
        """`times` float32 weights of `shape`; a seeded one is drawn in
        float64 first, an array of kind `draw`."""
        size = math.prod(shape)
        self.weight_bytes += times * _F32_BYTES * size
        if draw is not None:
            self.array(draw, _F64_BYTES * size)

    def attention(self, stage: str, groups: int, queries: int, keys: int, c: int,
                  heads: int, times: int = 1) -> None:
        """`times` calls of ``numerics.attention`` over `groups`
        independent groups, each of `queries` queries and `keys` keys of
        width c split into `heads` heads."""
        scores = groups * queries * keys
        self.cost(stage, "attention-scores", times * (2 * scores * c + SOFTMAX * heads * scores))
        self.cost(stage, "attention-apply", times * 2 * scores * c)
        self.array(_SCORES, _F32_BYTES * heads * scores)


def _ffn(tokens: int, c: int) -> int:
    hidden = 4 * c
    return (
        NORM * tokens * c
        + 2 * tokens * c * hidden + tokens * hidden   # linear 1 + bias
        + NONLIN * tokens * hidden                    # gelu
        + 2 * tokens * hidden * c + tokens * c        # linear 2 + bias
    )


def _layer_entries(walk: _Walk, stage: str, layers: int, k: int, r: int, grid: int,
                   low: int, c: int, heads: int, h: int) -> None:
    """`layers` identical resolution-aligned layers on k full-res frames
    (grid tokens) and r coarse frames (low tokens): one layer is priced
    and sized, and its flops and weights count `layers` times."""
    if not layers:
        return
    if h > 1:
        walk.cost(f"{stage}.temporal", "pooling", layers * POOL * k * grid * c)
    # temporal attention on the aligned coarse grid, then spatial attention
    # with each part at native resolution; each is a pre-norm block
    for part, frames, tokens in (("temporal", low, k + r), ("spatial.saliency", k, grid),
                                 ("spatial.non_saliency", r, low)):
        total = frames * tokens
        walk.cost(f"{stage}.{part}", "projection",
                  layers * (NORM * total * c + 2 * 4 * total * c * c))  # ln + qkv + out
        walk.attention(f"{stage}.{part}", frames, tokens, tokens, c, heads, layers)

    walk.cost(f"{stage}.ffn", "feed-forward", layers * _ffn(k * grid + r * low, c))
    # each part runs its own MLP, so the larger part sizes the hidden array
    walk.array(_HIDDEN, _F32_BYTES * max(k * grid, r * low) * 4 * c)
    # per layer: eight [C, C] attention projections, two feed-forward
    # matrices, and biases and norm parameters worth eleven [C] vectors
    walk.weight(c, c, times=8 * layers)
    walk.weight(c, 4 * c, times=2 * layers, draw=_FF_DRAW)
    walk.weight(c, times=11 * layers)


def count_flops(config: ModelConfig) -> FlopsReport:
    """Analytic cost of one inference forward pass, with the sizes of
    the arrays it makes and the weights it reads."""
    c = config.embed_dim
    t = config.frames
    m, n = config.grid
    grid = m * n
    h = config.compression_factor
    k = config.saliency_count
    r = t - k
    low = grid // (h * h)
    p = config.patch_size
    walk = _Walk()

    walk.array(_VIDEO_DRAW, _F64_BYTES * t * config.height * config.width * 3)
    walk.cost("patch_embed", "projection", 2 * t * grid * (p * p * 3) * c + t * grid * c)
    walk.weight(p * p * 3, c, draw=_PATCH_DRAW)
    walk.weight(c)
    walk.weight(grid + t, c)  # position embeddings

    # stage 1: every frame full resolution, no alignment pooling
    _layer_entries(walk, "stage1", config.dccm_insert_after, t, 0, grid, grid, c,
                   config.head_count, 1)

    # score-net runs on every configuration (the baseline keeps it as a
    # diagnostic), so it is counted unconditionally
    mid, hid = config.score_mid, config.score_hidden
    walk.cost("dccm.score_net", "conv", 2 * t * grid * mid * 27 * c)
    walk.cost("dccm.score_net", "pooling", POOL * t * grid * mid)
    walk.cost(
        "dccm.score_net", "projection",
        2 * t * mid * hid + t * hid          # linear 1 + bias
        + NONLIN * t * hid                   # relu
        + 2 * t * hid * 1 + t,               # linear 2 + bias
    )
    walk.array(_CONV_INPUT, _F32_BYTES * (t + 2) * (m + 2) * (n + 2) * c)
    walk.weight(27 * c, mid, draw=_CONV_DRAW)
    walk.weight(mid * hid + hid + hid + 1)
    walk.weight(c, c, times=3)  # compressor projections, drawn for every model

    if h > 1 and r > 0:
        walk.cost("dccm.compressor", "projection",
                  2 * r * grid * c * c + 2 * 2 * k * grid * c * c)
        walk.cost("dccm.compressor", "pooling",
                  POOL * (r + 2 * k) * grid * c + POOL * r * grid * c)
        walk.attention("dccm.compressor", r, low, k * low, c, 1)

    _layer_entries(walk, "rat", config.depth - config.dccm_insert_after, k, r, grid, low,
                   c, config.head_count, h)

    tokens_final = k * grid + r * low
    walk.cost("head", "pooling", POOL * tokens_final * c)
    head = 2 * c * config.out_dim + config.out_dim
    if config.head_mode == "retrieval":
        head += NORM * config.out_dim
    walk.cost("head", "head", head)
    walk.weight(c, config.out_dim, draw=_HEAD_DRAW)
    walk.weight(config.out_dim)

    return FlopsReport(
        config_name=config.name,
        entries=tuple(FlopsEntry(s, o, cnt) for (s, o), cnt in walk.flops.items() if cnt > 0),
        arrays=tuple(walk.largest.items()),
        weight_bytes=walk.weight_bytes,
    )


def compare(config: ModelConfig, baseline: ModelConfig | None = None) -> ComparisonResult:
    """Cost of a configuration against its uncompressed twin (or any
    explicit reference configuration)."""
    if baseline is None:
        baseline = config.baseline()
    return ComparisonResult(report=count_flops(config), baseline=count_flops(baseline))


def instrument_check(config: ModelConfig, seed: int = 0) -> InstrumentResult:
    """Run a real forward pass under the kernel flop counter and compare
    with the analytic total."""
    params = init_params(config, seed)
    stream = RandomStream(seed + 1)
    video = stream.gaussian((config.frames, config.height, config.width, 3))
    with FlopCounter() as counter:
        forward(video, params, config)
    return InstrumentResult(analytic=count_flops(config).total, measured=counter.total)
