"""From scored frames to a two-resolution token sequence.

Builds a toy token video with two planted high-energy frames, scores it
with a randomly initialised score-net, splits it by ranking, compresses
the non-saliency part against the kept frames, and runs one
resolution-aligned attention layer on the result.  Prints the token
budget at every step so the saving is visible.

Run: python3 demos/compression_pipeline.py [--seed N] [--factor H]
"""

import argparse

import numpy as np

from drca.dccm import (
    CompressorParams,
    DccmParams,
    ScoreNetParams,
    dccm_forward,
    make_planted_dataset,
)
from drca.numerics import RandomStream
from drca.rat import RatLayerParams, rat_layer_forward


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--factor", type=int, default=2,
                        help="per-side compression factor h")
    args = parser.parse_args()

    video = make_planted_dataset(1, frames=8, salient_count=2, grid=4,
                                 channels=8, seed=args.seed)[0]
    tokens = video.tokens
    print(f"token video {tokens.shape} (T, M, N, C), "
          f"{tokens[..., 0].size} tokens total")
    print(f"planted salient frames: {video.salient_times}")
    print()

    params = DccmParams(
        score=ScoreNetParams.init(8, 4, 8, RandomStream(args.seed + 1), scale=0.5),
        compressor=CompressorParams.init(8, RandomStream(args.seed + 2)),
    )
    result = dccm_forward(tokens, params, k=2, h=args.factor)
    seq = result.sequence
    print("score-net frame scores:",
          " ".join(f"{v:+.4f}" for v in result.scores))
    print(f"kept at full resolution: frames {np.sort(seq.times.saliency)}")
    print("(an untrained score-net picks near-arbitrary frames; the training")
    print(" demo shows the planted ones being recovered)")
    print()

    k, m, n, c = seq.saliency.shape
    r, ml, nl, _ = seq.non_saliency.shape
    full = tokens[..., 0].size
    print(f"saliency part     {seq.saliency.shape}  = {k * m * n} tokens")
    print(f"non-saliency part {seq.non_saliency.shape}  = {r * ml * nl} tokens")
    print(f"token budget {full} -> {seq.token_count} "
          f"({seq.token_count / full:.2%} of full resolution)")
    print()

    layer = RatLayerParams.init(8, stream=RandomStream(args.seed + 3))
    out = rat_layer_forward(seq, layer, heads=2)
    print("one aligned layer (temporal, spatial, feed-forward) preserves")
    print(f"both shapes: {out.saliency.shape} and {out.non_saliency.shape}")
    print("temporal attention pools the saliency part to the coarse grid,")
    print("attends along time at every site, and upsamples the residual")


if __name__ == "__main__":
    main()
