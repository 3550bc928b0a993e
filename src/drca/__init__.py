"""Saliency-ranked frame compression for efficient video transformers.

The package provides, as plain numpy:

* differentiable frame ranking via Gaussian-perturbed sorting with a
  Monte Carlo score gradient (``ranking``, ``gradcheck``),
* a saliency score-net plus a reference-frame compressor that shrinks
  non-salient frames onto a coarser grid (``dccm``),
* transformer layers whose temporal attention runs on the aligned
  coarse grid while spatial attention stays at native per-part
  resolution (``rat``),
* the assembled video model (``model``) and an analytic flop cost model
  with an instrumented cross-check (``flops``),
* flat binary tensor I/O and a deterministic CLI (``tensor_io``,
  ``cli``).
"""

from .numerics import FlopCounter, RandomStream, ShapeError
from .ranking import (
    PerturbConfig,
    SoftRankMatrix,
    SortPermutation,
    TimeIndexMap,
    hard_rank,
    perturbed_objective,
    perturbed_rank,
    topk_split,
)
from .dccm import (
    CompressorParams,
    DccmParams,
    MultiResSequence,
    ScoreNetParams,
    ScoreNetPass,
    compress,
    dccm_forward,
    full_res_sequence,
    make_planted_dataset,
    score_net_backward,
    score_net_forward,
    selection_accuracy,
    toy_train_scorenet,
)
from .rat import (
    AttentionParams,
    FeedForwardParams,
    RatLayerParams,
    rat_layer_forward,
    spatial_attention,
    temporal_attention,
)
from .model import (
    DrcaParams,
    ModelConfig,
    ModelOutput,
    baseline_forward,
    forward,
    init_params,
    named_params,
    params_from_named,
)
from .flops import (
    FlopsEntry,
    FlopsReport,
    compare,
    count_flops,
    instrument_check,
)
from .tensor_io import TensorFileError, load_tensor_dir, read_tnsr, save_tensor_dir, write_tnsr

__version__ = "0.1.0"
