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
"""

from __future__ import annotations

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


def _attention(groups: int, queries: int, keys: int, c: int, heads: int) -> dict[str, int]:
    """``numerics.attention`` over `groups` independent groups, each of
    `queries` queries and `keys` keys of width c split into `heads` heads."""
    scores = groups * queries * keys
    return {
        "attention-scores": 2 * scores * c + SOFTMAX * heads * scores,
        "attention-apply": 2 * scores * c,
    }


def _ffn(tokens: int, c: int) -> int:
    hidden = 4 * c
    return (
        NORM * tokens * c
        + 2 * tokens * c * hidden + tokens * hidden   # linear 1 + bias
        + NONLIN * tokens * hidden                    # gelu
        + 2 * tokens * hidden * c + tokens * c        # linear 2 + bias
    )


def _layer_entries(stage: str, k: int, r: int, grid: int, low: int, c: int,
                   heads: int, h: int) -> list[FlopsEntry]:
    """One resolution-aligned layer on k full-res frames (grid tokens) and
    r coarse frames (low tokens)."""
    entries: list[FlopsEntry] = []
    if h > 1:
        entries.append(FlopsEntry(f"{stage}.temporal", "pooling", POOL * k * grid * c))
    # temporal attention on the aligned coarse grid, then spatial attention
    # with each part at native resolution; each is a pre-norm block
    for part, frames, tokens in (("temporal", low, k + r), ("spatial.saliency", k, grid),
                                 ("spatial.non_saliency", r, low)):
        total = frames * tokens
        ops = {"projection": NORM * total * c + 2 * 4 * total * c * c,  # ln + qkv + out
               **_attention(frames, tokens, tokens, c, heads)}
        entries.extend(FlopsEntry(f"{stage}.{part}", op, count) for op, count in ops.items())

    entries.append(FlopsEntry(f"{stage}.ffn", "feed-forward",
                              _ffn(k * grid + r * low, c)))
    return entries


def count_flops(config: ModelConfig) -> FlopsReport:
    """Analytic cost of one inference forward pass."""
    c = config.embed_dim
    t = config.frames
    m, n = config.grid
    grid = m * n
    h = config.compression_factor
    k = config.saliency_count
    r = t - k
    low = grid // (h * h)
    p = config.patch_size

    entries: list[FlopsEntry] = [
        FlopsEntry("patch_embed", "projection",
                   2 * t * grid * (p * p * 3) * c + t * grid * c)
    ]

    # stage 1: every frame full resolution, no alignment pooling
    for _ in range(config.dccm_insert_after):
        entries.extend(_layer_entries("stage1", t, 0, grid, grid, c,
                                      config.head_count, 1))

    # score-net runs on every configuration (the baseline keeps it as a
    # diagnostic), so it is counted unconditionally
    mid, hid = config.score_mid, config.score_hidden
    entries.append(FlopsEntry("dccm.score_net", "conv",
                              2 * t * grid * mid * 27 * c))
    entries.append(FlopsEntry("dccm.score_net", "pooling", POOL * t * grid * mid))
    entries.append(FlopsEntry(
        "dccm.score_net", "projection",
        2 * t * mid * hid + t * hid          # linear 1 + bias
        + NONLIN * t * hid                   # relu
        + 2 * t * hid * 1 + t,               # linear 2 + bias
    ))

    if h > 1 and r > 0:
        entries.append(FlopsEntry("dccm.compressor", "projection",
                                  2 * r * grid * c * c + 2 * 2 * k * grid * c * c))
        entries.append(FlopsEntry("dccm.compressor", "pooling",
                                  POOL * (r + 2 * k) * grid * c + POOL * r * grid * c))
        entries.extend(FlopsEntry("dccm.compressor", op, count)
                       for op, count in _attention(r, low, k * low, c, 1).items())

    for _ in range(config.depth - config.dccm_insert_after):
        entries.extend(_layer_entries("rat", k, r, grid, low, c,
                                      config.head_count, h))

    tokens_final = k * grid + r * low
    entries.append(FlopsEntry("head", "pooling", POOL * tokens_final * c))
    head = 2 * c * config.out_dim + config.out_dim
    if config.head_mode == "retrieval":
        head += NORM * config.out_dim
    entries.append(FlopsEntry("head", "head", head))

    merged: dict[tuple[str, str], int] = {}
    for e in entries:
        key = (e.stage, e.op_class)
        merged[key] = merged.get(key, 0) + e.count
    final = tuple(FlopsEntry(s, o, cnt) for (s, o), cnt in merged.items() if cnt > 0)
    return FlopsReport(config_name=config.name, entries=final)


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
