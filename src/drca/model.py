"""End-to-end video model: patch embedding, a full-resolution stage, the
compression split, resolution-aligned layers, and a pooled head.

Configurations follow the DRCA-<variant>-K<saliency frames> naming, e.g.
DRCA-S-K4 is the small width with 4 saliency frames kept.

The forward passes read only the weights, the activations and the
configuration, which gives the head count.  A caller that needs the
smoothed ranking of the frame scores computes it from the scores they
return (see ``ranking.perturbed_rank``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .numerics import F32, RandomStream, ShapeError
from .ranking import hard_rank
from .dccm import (
    CompressorParams,
    DccmParams,
    ScoreNetParams,
    dccm_forward,
    full_res_sequence,
    score_net_forward,
)
from .rat import RatLayerParams, _blocks, rat_layer_forward

_NAME_RE = re.compile(r"^DRCA-([BS])-K(\d+)$")


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "S"
    embed_dim: int = 384
    depth: int = 12
    head_count: int = 6
    patch_size: int = 16
    frames: int = 8
    height: int = 224
    width: int = 224
    saliency_count: int = 4
    compression_factor: int = 2
    dccm_insert_after: int = 3
    head_mode: str = "classification"  # or "retrieval": a unit-norm embed_dim-wide embedding
    # the classification head's width, which it needs; retrieval takes none
    num_classes: int | None = None

    def __post_init__(self) -> None:
        for key in ("embed_dim", "head_count", "patch_size", "frames", "height",
                    "width", "compression_factor", "num_classes"):
            if getattr(self, key) is not None and getattr(self, key) < 1:
                raise ShapeError(f"{key} must be positive, got {getattr(self, key)}")
        if self.depth < 0:
            raise ShapeError(f"depth must be >= 0, got {self.depth}")
        if self.height % self.patch_size or self.width % self.patch_size:
            raise ShapeError(
                f"patch size {self.patch_size} must divide {self.height}x{self.width}"
            )
        m, n = self.grid
        if m % self.compression_factor or n % self.compression_factor:
            raise ShapeError(
                f"compression factor {self.compression_factor} must divide the "
                f"token grid {m}x{n}"
            )
        if not (1 <= self.saliency_count <= self.frames):
            raise ShapeError(
                f"saliency_count must be in [1, {self.frames}], got {self.saliency_count}"
            )
        if not (0 <= self.dccm_insert_after <= self.depth):
            raise ShapeError(
                f"dccm_insert_after must be in [0, {self.depth}], got {self.dccm_insert_after}"
            )
        if self.embed_dim % self.head_count:
            raise ShapeError(
                f"head count {self.head_count} must divide width {self.embed_dim}"
            )
        if self.head_mode not in ("classification", "retrieval"):
            raise ShapeError(f"unknown head mode {self.head_mode!r}")
        if self.head_mode == "classification" and self.num_classes is None:
            raise ShapeError("the classification head needs num_classes")
        if self.head_mode == "retrieval" and self.num_classes is not None:
            raise ShapeError("num_classes has no effect under the retrieval head, "
                             "which is embed_dim wide")

    @property
    def grid(self) -> tuple[int, int]:
        return self.height // self.patch_size, self.width // self.patch_size

    @property
    def out_dim(self) -> int:
        if self.head_mode == "retrieval":
            return self.embed_dim
        return self.num_classes

    # score-net widths: narrow enough that scoring every frame stays a
    # small fraction of what the compression saves
    @property
    def score_mid(self) -> int:
        return max(self.embed_dim // 24, 4)

    @property
    def score_hidden(self) -> int:
        return max(self.embed_dim // 2, 8)

    @property
    def name(self) -> str:
        return f"DRCA-{self.variant}-K{self.saliency_count}"

    def baseline(self) -> "ModelConfig":
        """The uncompressed twin: every frame kept, no grid reduction."""
        return replace(self, saliency_count=self.frames, compression_factor=1)

    @classmethod
    def small(cls, **over) -> "ModelConfig":
        return cls(**{"variant": "S", "embed_dim": 384, "head_count": 6,
                      **_with_classes(400, over)})

    @classmethod
    def base(cls, **over) -> "ModelConfig":
        return cls(**{"variant": "B", "embed_dim": 768, "head_count": 12,
                      **_with_classes(400, over)})

    @classmethod
    def toy(cls, **over) -> "ModelConfig":
        """A seconds-scale configuration for tests and demos."""
        defaults = dict(
            variant="toy", embed_dim=16, depth=4, head_count=4, patch_size=16,
            frames=8, height=64, width=64, saliency_count=4,
            compression_factor=2, dccm_insert_after=1,
        )
        return cls(**{**defaults, **_with_classes(5, over)})

    @classmethod
    def from_name(cls, name: str, **over) -> "ModelConfig":
        """A preset by name: S, B, toy, or DRCA-<B|S>-K<count>."""
        presets = {"S": cls.small, "B": cls.base, "toy": cls.toy}
        if name in presets:
            return presets[name](**over)
        m = _NAME_RE.match(name)
        if not m:
            raise ValueError(
                f"cannot parse model name {name!r} (want S, B, toy, or DRCA-<B|S>-K<n>)"
            )
        variant, k = m.group(1), int(m.group(2))
        maker = cls.base if variant == "B" else cls.small
        return maker(**{"saliency_count": k, **over})


def _with_classes(count: int, over: dict) -> dict:
    """A preset's overrides ``over`` with its class count ``count`` as the
    default, where the head they give is a classifier."""
    if over.get("head_mode", "classification") == "classification":
        return {"num_classes": count, **over}
    return over


@dataclass(frozen=True)
class DrcaParams:
    patch_w: np.ndarray        # [patch*patch*3, C]
    patch_b: np.ndarray        # [C]
    pos_spatial: np.ndarray    # [M*N, C]
    pos_temporal: np.ndarray   # [T, C]
    stage1: tuple[RatLayerParams, ...]
    dccm: DccmParams
    rat: tuple[RatLayerParams, ...]
    head_w: np.ndarray         # [C, out]
    head_b: np.ndarray         # [out]


@dataclass(frozen=True)
class ModelOutput:
    output: np.ndarray          # [num_classes] logits or [C] unit-norm embedding
    scores: np.ndarray          # [T] frame saliency scores
    selected_times: np.ndarray  # int64 [K], time indices kept at full resolution


def init_params(config: ModelConfig, seed: int = 0) -> DrcaParams:
    """All weights gaussian at scale 0.02 from one seeded stream; biases
    zero, norm gains one."""
    return _build_params(config, RandomStream(seed))


class _ZeroStream:
    """Stands in for a RandomStream where only the parameter shapes
    matter: every draw is zeros, so no random number is made."""

    @staticmethod
    def gaussian(shape, scale: float | None = None) -> np.ndarray:
        return np.zeros(shape, F32)


def _build_params(config: ModelConfig, stream) -> DrcaParams:
    c = config.embed_dim
    m, n = config.grid
    s = 0.02
    return DrcaParams(
        patch_w=stream.gaussian((config.patch_size * config.patch_size * 3, c), s),
        patch_b=np.zeros(c, F32),
        pos_spatial=stream.gaussian((m * n, c), s),
        pos_temporal=stream.gaussian((config.frames, c), s),
        stage1=tuple(RatLayerParams.init(c, stream) for _ in range(config.dccm_insert_after)),
        dccm=DccmParams(
            score=ScoreNetParams.init(c, config.score_mid, config.score_hidden, stream),
            compressor=CompressorParams.init(c, stream),
        ),
        rat=tuple(RatLayerParams.init(c, stream)
                  for _ in range(config.depth - config.dccm_insert_after)),
        head_w=stream.gaussian((c, config.out_dim), s),
        head_b=np.zeros(config.out_dim, F32),
    )


# on-disk names are the dotted field paths (tuple items by index), except
# for these fields; the dccm level adds no prefix
_NAME_ALIASES = {
    "patch_w": "patch.weight", "patch_b": "patch.bias",
    "pos_spatial": "pos.spatial", "pos_temporal": "pos.temporal",
    "dccm": "", "head_w": "head.weight", "head_b": "head.bias",
}


def named_params(params: DrcaParams) -> dict[str, np.ndarray]:
    """Flatten the parameter tree into name -> tensor, in field order."""
    named: dict[str, np.ndarray] = {}
    # setdefault records each leaf under its name and hands it back unchanged
    numerics.tree_map(named.setdefault, DrcaParams, params, aliases=_NAME_ALIASES)
    return named


# the layers of both stacks share one set of shapes, those of rat.0
_LAYER_RE = re.compile(r"^(stage1|rat)\.\d+\.")


def params_from_named(config: ModelConfig, named: dict[str, np.ndarray]) -> DrcaParams:
    """Rebuild the parameter tree for a configuration from named tensors,
    demanding an exact key match and the shapes ``init_params`` makes.
    The expected shapes come from building the configuration cut to at
    most one layer, every layer having the same shapes, from zeros."""
    cut = replace(config, depth=min(config.depth, 1), dccm_insert_after=0)
    shapes = {name: leaf.shape
              for name, leaf in named_params(_build_params(cut, _ZeroStream())).items()}

    def take(name: str) -> np.ndarray:
        if name not in named:
            raise ValueError(f"parameter set is missing tensor {name!r}")
        want = shapes[_LAYER_RE.sub("rat.0.", name)]
        if named[name].shape != want:
            raise ValueError(
                f"parameter tensor {name!r} has shape {named[name].shape}, expected {want}")
        return named[name]

    params = numerics.tree_map(take, DrcaParams, aliases=_NAME_ALIASES, given={
        "stage1": config.dccm_insert_after,
        "rat": config.depth - config.dccm_insert_after,
    })
    extra = set(named) - set(named_params(params))
    if extra:
        raise ValueError(f"parameter set has unexpected tensors: {sorted(extra)}")
    return params


# the most patch rows in one product of the patch projection: DRCA-S and
# DRCA-B project blocks of two frames (392 rows), the toy all 128 rows at
# once.  A smaller product can take another BLAS kernel and change the
# last bits (16-row slices of the toy's [128, 768] @ [768, 16] product
# do), so the projection keeps its own bound rather than the sublayers'
# rat._BLOCK_ROWS, which the block tests shrink to a row or two
_PATCH_BLOCK_ROWS = 512


def patch_embed(video: np.ndarray, params: DrcaParams, config: ModelConfig) -> np.ndarray:
    """Non-overlapping patch projection plus separable position embeddings,
    added in place into the projected tokens.

    video: [T, H, W, 3] -> tokens [T, M, N, C].  The projection runs
    over blocks of frames of at most ``_PATCH_BLOCK_ROWS`` patches, so
    only one block's patches are ever copied out of the video; the toy's
    frames are one block.
    """
    video = np.asarray(video, dtype=F32)
    expect = (config.frames, config.height, config.width, 3)
    if video.shape != expect:
        raise ShapeError(f"video shape {video.shape} does not match configured {expect}")
    t, hgt, wid, _ = video.shape
    p = config.patch_size
    m, n = config.grid
    c = config.embed_dim
    patches = video.reshape(t, m, p, n, p, 3).transpose(0, 1, 3, 2, 4, 5)
    tokens = np.empty((t, m, n, c), F32)
    for frames in _blocks(t, m * n, _PATCH_BLOCK_ROWS):
        # one block's patches are copied into rows at a time
        tokens[frames] = numerics.linear(
            patches[frames].reshape(-1, m, n, p * p * 3), params.patch_w, params.patch_b)
    tokens += params.pos_spatial.reshape(1, m, n, c)
    tokens += params.pos_temporal.reshape(t, 1, 1, c)
    return tokens


def _head(seq, params: DrcaParams, config: ModelConfig) -> np.ndarray:
    c = config.embed_dim
    all_tokens = np.concatenate(
        [seq.saliency.reshape(-1, c), seq.non_saliency.reshape(-1, c)], axis=0
    )
    pooled = numerics.mean_pool(all_tokens, axes=(0,))
    out = numerics.linear(pooled, params.head_w, params.head_b)
    if config.head_mode == "retrieval":
        out = numerics.l2_normalize(out)
    return out


def _stage1(video: np.ndarray, params: DrcaParams, config: ModelConfig):
    """The patch tokens after the full-resolution layers, as an
    all-saliency sequence updated in place by every layer."""
    seq = full_res_sequence(patch_embed(video, params, config))
    for layer in params.stage1:
        rat_layer_forward(seq, layer, config.head_count)
    return seq


def forward(video: np.ndarray, params: DrcaParams, config: ModelConfig) -> ModelOutput:
    """Full pipeline with the compression split after `dccm_insert_after`
    full-resolution layers.  Every layer updates one residual stream in
    place: the patch tokens up to the split, then the gathered and
    compressed sequence.  dccm gets the only reference to the stage-1
    stream, which is freed at the split, before compression runs."""
    # stage-1 times are the identity, so storage order is time order
    result = dccm_forward(_stage1(video, params, config).saliency, params.dccm,
                          config.saliency_count, config.compression_factor)
    seq = result.sequence
    for layer in params.rat:
        rat_layer_forward(seq, layer, config.head_count)
    return ModelOutput(
        output=_head(seq, params, config),
        scores=result.scores,
        selected_times=seq.times.saliency,
    )


def baseline_forward(video: np.ndarray, params: DrcaParams,
                     config: ModelConfig) -> ModelOutput:
    """The same parameters with no split: every layer runs full-resolution
    divided space-time attention, updating one residual stream in place.
    The score-net still runs, purely as a diagnostic."""
    seq = _stage1(video, params, config)
    scores = score_net_forward(seq.saliency, params.dccm.score).scores
    for layer in params.rat:
        rat_layer_forward(seq, layer, config.head_count)
    order = hard_rank(scores).order
    return ModelOutput(
        output=_head(seq, params, config),
        scores=scores,
        selected_times=order[: config.saliency_count].copy(),
    )
