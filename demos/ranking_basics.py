"""Hard and smoothed ranking of frame scores.

Walks through the two faces of the ranking module: the exact sort
permutation used on the token path, and its Gaussian-smoothed relaxation
whose expectation is differentiable.  Shows the smoothed matrix settling
onto the hard permutation as the noise level drops, and the top-k split
that hands frames to the compressor.

Run: python3 demos/ranking_basics.py [--seed N]
"""

import argparse

import numpy as np

from drca.numerics import RandomStream
from drca.ranking import PerturbConfig, hard_rank, perturbed_rank, topk_split


def show_matrix(label: str, matrix: np.ndarray) -> None:
    print(f"{label}:")
    for row in matrix:
        print("   " + " ".join(f"{v:5.2f}" for v in row))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    scores = RandomStream(args.seed).gaussian(5)
    print("frame scores:", " ".join(f"{v:+.3f}" for v in scores))

    perm = hard_rank(scores)
    print("hard rank order (best first):", perm.order)
    show_matrix("permutation matrix (column j marks the rank-j frame)", perm.matrix)
    print("scores in rank order:", " ".join(f"{v:+.3f}" for v in scores[perm.order]))
    print()

    print("smoothed ranking: average the permutation under additive noise")
    for sigma in (1.0, 0.3, 0.05, 0.001):
        cfg = PerturbConfig(sigma=sigma, n_samples=4096, seed=args.seed + 1)
        soft = perturbed_rank(scores, cfg)
        gap = np.max(np.abs(soft - perm.matrix))
        print(f"  sigma={sigma:<6} row sums {soft.sum(axis=1).round(4)}"
              f"  max gap to hard matrix {gap:.4f}")
    print("rows and columns always sum to 1; small sigma recovers the hard sort")
    print()

    tokens = RandomStream(args.seed + 2).gaussian((5, 2, 2, 3))
    saliency, rest, times = topk_split(tokens, perm, k=2)
    print(f"top-2 split of a [5, 2, 2, 3] token video:")
    print(f"  kept frames (time indices) {times.saliency} shape {saliency.shape}")
    print(f"  remaining frames           {times.non_saliency} shape {rest.shape}")


if __name__ == "__main__":
    main()
