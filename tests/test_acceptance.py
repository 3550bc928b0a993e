"""Acceptance criteria.

Seven end-to-end checks, one test per criterion, each printing a single
PASS/FAIL verdict line (collected again in the terminal summary).  Every
check runs against frozen seeds so a pass is reproducible bit for bit;
the runtime budget is part of each criterion.

1. gradient estimator correctness (closed form and finite differences)
2. ranking polytope conformance over 1,000 random score vectors
3. uncompressed configuration equals the plain divided space-time pass
4. flop ratios, the 16x coarse-attention drop, instrumented agreement
5. toy planted-saliency training reaches high selection accuracy
6. compressor contract (exact constant case, symmetry, loop oracle)
7. CLI determinism: byte-identical output across consecutive runs
"""

import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

import conftest
from drca.dccm import (
    CompressorParams,
    ScoreNetParams,
    compress,
    make_planted_dataset,
    toy_train_scorenet,
)
from drca.flops import compare, count_flops, instrument_check
from drca.gradcheck import run_fd_check, run_t2_check
from drca.model import ModelConfig, baseline_forward, forward, init_params
from drca.numerics import F32, RandomStream
from drca.ranking import PerturbConfig, hard_rank, perturbed_rank
from drca.tensor_io import write_tnsr


def _verdict(number: int, name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def test_criterion_1_gradient_estimator_correctness():
    start = time.perf_counter()
    closed = run_t2_check(sigma=0.05, n_samples=100_000, seed=20260821, trials=10)
    fd = run_fd_check(frames=4, sigma=0.05, n_samples=1_000_000,
                      seed=20260821, vectors=5)
    elapsed = time.perf_counter() - start
    ok = closed.passed and fd.passed and elapsed < 30
    line = _verdict(
        1, "gradient estimator", ok,
        f"T=2 worst rel err {closed.worst:.4f} vs 0.05, "
        f"T=4 FD worst {fd.worst:.2f} vs 3.00 combined SE, {elapsed:.1f}s / 30s",
    )
    assert ok, line


def test_criterion_2_ranking_polytope_conformance():
    start = time.perf_counter()
    shifts = (1.5, -0.25, 2.0, -8.0)
    hard_ok = True
    worst_soft_dev = 0.0
    crn_ok = True
    for i in range(1000):
        t = (i % 16) + 1
        # scores on a 1/64 grid: dyadic values make the CRN shift exact
        scores = (np.round(RandomStream(5000 + i).gaussian(t) * 64) / 64).astype(F32)

        perm = hard_rank(scores)
        mat = perm.matrix
        hard_ok &= bool(np.all(mat.sum(axis=0) == 1) and np.all(mat.sum(axis=1) == 1))
        hard_ok &= bool(np.all(np.diff(scores[perm.order]) <= 0))
        hard_ok &= bool(np.array_equal(mat.T @ scores, scores[perm.order]))

        cfg = PerturbConfig(sigma=0.1, n_samples=256, seed=9000 + i)
        soft = perturbed_rank(scores, cfg)
        dev = max(float(np.max(np.abs(soft.sum(axis=0) - 1))),
                  float(np.max(np.abs(soft.sum(axis=1) - 1))))
        worst_soft_dev = max(worst_soft_dev, dev)
        shifted = perturbed_rank(scores + F32(shifts[i % 4]), cfg)
        crn_ok &= bool(np.array_equal(soft, shifted))
    elapsed = time.perf_counter() - start
    ok = hard_ok and worst_soft_dev < 1e-5 and crn_ok and elapsed < 10
    line = _verdict(
        2, "ranking polytope", ok,
        f"1000 vectors T<=16: hard sums/order exact={hard_ok}, "
        f"soft dev {worst_soft_dev:.2e} vs 1e-5, CRN shift exact={crn_ok}, "
        f"{elapsed:.1f}s / 10s",
    )
    assert ok, line


def test_criterion_3_uncompressed_configuration_equivalence():
    start = time.perf_counter()
    cfg = ModelConfig.toy(saliency_count=8, compression_factor=1)
    params = init_params(cfg, seed=0)
    worst = 0.0
    for i in range(20):
        video = RandomStream(100 + i).gaussian(
            (cfg.frames, cfg.height, cfg.width, 3))
        split = forward(video, params, cfg)
        plain = baseline_forward(video, params, cfg)
        worst = max(worst, float(np.max(np.abs(split.output - plain.output))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 20
    line = _verdict(
        3, "uncompressed equivalence", ok,
        f"20 toy videos, worst logit gap {worst:.2e} vs 1e-4, "
        f"{elapsed:.1f}s / 20s",
    )
    assert ok, line


def test_criterion_4_flop_ratios_and_instrumented_agreement():
    start = time.perf_counter()
    ratio_s = compare(ModelConfig.from_name("DRCA-S-K4")).ratio
    ratio_b = compare(ModelConfig.from_name("DRCA-B-K4")).ratio
    in_band = 0.58 <= ratio_s <= 0.74 and 0.58 <= ratio_b <= 0.74

    cfg = ModelConfig.from_name("DRCA-S-K4")
    low = count_flops(cfg).entry("rat.spatial.non_saliency", "attention-scores")
    full = count_flops(replace(cfg, compression_factor=1)).entry(
        "rat.spatial.non_saliency", "attention-scores")
    sixteen = full == 16 * low

    gap = instrument_check(ModelConfig.toy()).rel_gap
    base_gmacs = count_flops(ModelConfig.small().baseline()).total_macs / 1e9
    band = 0.75 * 50.8 < base_gmacs < 1.25 * 50.8
    elapsed = time.perf_counter() - start
    ok = in_band and sixteen and gap < 0.02 and band and elapsed < 5
    line = _verdict(
        4, "flop accounting", ok,
        f"ratio S {ratio_s:.4f}, B {ratio_b:.4f} vs [0.58, 0.74], "
        f"coarse attention-scores 16x exact={sixteen}, instrument gap "
        f"{gap * 100:.3f}% vs 2%, baseline {base_gmacs:.1f} GMACs vs 50.8 +-25%, "
        f"{elapsed:.1f}s / 5s",
    )
    assert ok, line


def test_criterion_5_toy_training_reaches_selection_accuracy():
    start = time.perf_counter()
    videos = make_planted_dataset(250, frames=8, salient_count=2, seed=2026)
    train, holdout = videos[:200], videos[200:]
    params = ScoreNetParams.init(8, 4, 8, RandomStream(2027),
                                 scale=0.1, zero_final=True)
    cfg = PerturbConfig(sigma=0.2, n_samples=500, seed=2028)
    _, trace = toy_train_scorenet(train, holdout, params, k=2,
                                  steps=300, lr=0.01, cfg=cfg)
    elapsed = time.perf_counter() - start

    accuracy = [row.accuracy for row in trace]
    losses = np.array([row.loss for row in trace])
    moving = np.convolve(losses, np.ones(20) / 20, mode="valid")
    monotone = bool(np.all(np.diff(moving) < 0))
    ok = (accuracy[0] <= 0.6 and accuracy[-1] >= 0.9 and monotone
          and elapsed < 300)
    line = _verdict(
        5, "toy training", ok,
        f"200 videos T=8 K=2, holdout accuracy {accuracy[0]:.2f} -> "
        f"{accuracy[-1]:.2f} (need <=0.60 -> >=0.90), 20-step moving-average "
        f"loss strictly decreasing={monotone}, {elapsed:.0f}s / 300s",
    )
    assert ok, line


def _compress_loop_oracle(sal, non, p, h):
    k, m, n, c = sal.shape
    r = non.shape[0]
    ml, nl = m // h, n // h
    w_a, w_b, w_c = (np.float64(w) for w in (p.w_a, p.w_b, p.w_c))

    def pool(x):
        out = np.zeros((x.shape[0], ml, nl, c))
        for f in range(x.shape[0]):
            for i in range(ml):
                for j in range(nl):
                    block = x[f, i * h:(i + 1) * h, j * h:(j + 1) * h]
                    out[f, i, j] = block.reshape(-1, c).mean(axis=0)
        return out

    q = pool(np.float64(non) @ w_a).reshape(r, ml * nl, c)
    keys = pool(np.float64(sal) @ w_b).reshape(k * ml * nl, c)
    vals = pool(np.float64(sal) @ w_c).reshape(k * ml * nl, c)
    out = np.zeros((r, ml * nl, c))
    for f in range(r):
        for site in range(ml * nl):
            logits = np.array([q[f, site] @ key for key in keys]) / np.sqrt(c)
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            out[f, site] = sum(w * val for w, val in zip(weights, vals))
    return out.reshape(r, ml, nl, c) + pool(np.float64(non))


def test_criterion_6_compressor_contract():
    start = time.perf_counter()
    c = 8

    # exact constant case: identical reference tokens, identity value map,
    # 8 pooled keys (a power of two) and tokens on a 1/256 grid, so the
    # uniform attention average reproduces v without rounding
    stream = RandomStream(60)
    v = (np.round(stream.gaussian(c) * 64) / 256).astype(F32)
    sal = np.broadcast_to(v, (2, 4, 4, c)).astype(F32)
    non = (np.round(stream.gaussian((6, 4, 4, c)) * 64) / 256).astype(F32)
    params = CompressorParams(
        w_a=stream.gaussian((c, c)), w_b=stream.gaussian((c, c)),
        w_c=np.eye(c, dtype=F32),
    )
    out = compress(sal, non, params, h=2)
    pooled = np.float64(non).reshape(6, 2, 2, 2, 2, c).mean(axis=(2, 4))
    expected = (np.float64(v) + pooled).astype(F32)
    exact = bool(np.array_equal(out, expected))

    stream = RandomStream(61)
    sal = stream.gaussian((4, 4, 4, c))
    non = stream.gaussian((2, 4, 4, c))
    params = CompressorParams.init(c, RandomStream(62), scale=0.3)
    base = compress(sal, non, params, h=2)
    shuffled = compress(sal[[2, 0, 3, 1]], non, params, h=2)
    sym_gap = float(np.max(np.abs(base - shuffled)))

    oracle_gap = float(np.max(np.abs(
        base - _compress_loop_oracle(sal, non, params, 2))))
    elapsed = time.perf_counter() - start
    ok = exact and sym_gap < 1e-6 and oracle_gap < 1e-5 and elapsed < 5
    line = _verdict(
        6, "compressor contract", ok,
        f"constant case exact={exact}, reference permutation gap "
        f"{sym_gap:.2e} vs 1e-6, loop oracle gap {oracle_gap:.2e} vs 1e-5, "
        f"{elapsed:.1f}s / 5s",
    )
    assert ok, line


def test_criterion_7_cli_determinism(tmp_path):
    start = time.perf_counter()
    scores_path = tmp_path / "scores.tnsr"
    write_tnsr(scores_path, (np.arange(6, dtype=F32) * F32(0.25))[::-1].copy())
    commands = {
        "rank": (["rank", str(scores_path), str(tmp_path / "soft.tnsr"),
                  "--n-samples", "500", "--seed", "3"],
                 [tmp_path / "soft.tnsr"]),
        "grad-check": (["grad-check", "--seed", "20260821",
                        "--n-samples", "100000"], []),
        "forward": (["forward", "toy", "--seed", "3",
                     "--out", str(tmp_path / "logits.tnsr")],
                    [tmp_path / "logits.tnsr"]),
        "flops": (["flops", "DRCA-S-K4", "baseline", "--machine"], []),
        "toy-train": (["toy-train", "--videos", "20", "--holdout", "5",
                       "--steps", "5", "--n-samples", "50", "--seed", "7",
                       "--out", str(tmp_path / "trace.csv")],
                      [tmp_path / "trace.csv"]),
        "selftest": (["selftest"], []),
    }
    env = {k: v for k, v in os.environ.items() if k != "DRCA_SEED"}

    stable = []
    for name, (argv, artifacts) in commands.items():
        outputs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "drca", *argv],
                                  capture_output=True, env=env)
            assert proc.returncode == 0, (name, proc.stderr.decode())
            outputs.append((proc.stdout, [p.read_bytes() for p in artifacts]))
        stable.append(outputs[0] == outputs[1])
    elapsed = time.perf_counter() - start
    ok = all(stable) and elapsed < 120
    line = _verdict(
        7, "CLI determinism", ok,
        f"{sum(stable)}/{len(commands)} commands byte-identical across "
        f"consecutive runs (stdout and written files), {elapsed:.0f}s / 120s",
    )
    assert ok, line
