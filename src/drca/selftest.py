"""Fast per-module sanity battery behind ``drca selftest``.

Each suite re-derives a handful of contracts with fixed seeds and tiny
shapes; the whole battery runs in seconds.  The test suite checks that
a softmax fault patched into the numerics module makes the battery fail.
"""

from __future__ import annotations

import numpy as np

from . import dccm, flops, gradcheck, model, numerics, ranking, rat, tensor_io
from .numerics import F32


class SelftestError(AssertionError):
    pass


class _Suite:
    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0

    def check(self, label: str, ok: bool) -> None:
        if not ok:
            raise SelftestError(f"suite {self.name}: check failed: {label}")
        self.count += 1


def _numerics() -> int:
    s = _Suite("numerics")
    sm = numerics.softmax_lastdim(np.array([[1.0, 2.0, 3.0], [1000.0, 0.0, -5.0]], F32))
    s.check("softmax rows sum to one", bool(np.all(np.abs(sm.sum(axis=1) - 1) < 1e-6)))
    s.check("softmax saturates without overflow", abs(float(sm[1, 0]) - 1.0) < 1e-6)
    s.check("softmax keeps order", bool(np.all(np.diff(sm[0]) > 0)))

    x = numerics.RandomStream(7).gaussian((3, 5, 16))
    gain, shift = np.ones(16, F32), np.zeros(16, F32)
    ln = numerics.layer_norm(x, gain, shift)
    s.check("layer_norm centres tokens", float(np.abs(ln.mean(axis=-1)).max()) < 1e-5)
    s.check("layer_norm unit variance", float(np.abs(ln.var(axis=-1) - 1).max()) < 1e-3)

    a = numerics.RandomStream(8).gaussian((4, 4))
    b = numerics.RandomStream(9).gaussian((4, 4))
    c = numerics.RandomStream(10).gaussian((4, 4))
    left = numerics.matmul(numerics.matmul(a, b), c)
    right = numerics.matmul(a, numerics.matmul(b, c))
    s.check("matmul associativity", float(np.abs(left - right).max()) < 1e-4)

    t = numerics.RandomStream(11).gaussian((2, 4, 4, 3))
    down = numerics.avgpool_downsample(t, 2)
    s.check("avgpool preserves the global mean",
            abs(float(down.mean()) - float(t.mean())) < 1e-5)
    s.check("upsample restores extents",
            numerics.nearest_upsample(down, 2).shape == t.shape)

    with numerics.FlopCounter() as fc:
        numerics.matmul(a, b)
    s.check("matmul flops 2*m*k*n", fc.total == 2 * 4 * 4 * 4)
    return s.count


def _tensor_io(tmp: str) -> int:
    import os

    s = _Suite("tensor_io")
    x = numerics.RandomStream(3).gaussian((2, 3, 4))
    path = os.path.join(tmp, "t.tnsr")
    tensor_io.write_tnsr(path, x)
    y = tensor_io.read_tnsr(path)
    s.check("round trip is exact", bool(np.array_equal(x, y)))
    with open(path, "r+b") as f:
        f.write(b"XXXX")
    try:
        tensor_io.read_tnsr(path)
        s.check("corrupt magic rejected", False)
    except tensor_io.TensorFileError:
        s.check("corrupt magic rejected", True)
    return s.count


def _ranking() -> int:
    s = _Suite("ranking")
    # dyadic values: the +1.5 shift below is then exact in float32
    scores = np.array([0.25, 1.25, -0.5, 1.25], F32)
    perm = ranking.hard_rank(scores)
    s.check("descending order with index tie-break",
            perm.order.tolist() == [1, 3, 0, 2])
    s.check("permutation rows sum to one",
            bool(np.all(perm.matrix.sum(axis=0) == 1) and np.all(perm.matrix.sum(axis=1) == 1)))

    cfg = ranking.PerturbConfig(sigma=0.05, n_samples=400, seed=5)
    soft = ranking.perturbed_rank(scores, cfg)
    s.check("soft matrix doubly stochastic",
            float(np.abs(soft.sum(axis=0) - 1).max()) < 1e-5
            and float(np.abs(soft.sum(axis=1) - 1).max()) < 1e-5)
    shifted = ranking.perturbed_rank(scores + F32(1.5), cfg)
    s.check("shift invariance under shared draws", bool(np.array_equal(soft, shifted)))
    value, _ = ranking.perturbed_objective(scores, cfg, perm.matrix)
    s.check("objective matches the soft matrix",
            abs(value - float((perm.matrix * soft).sum())) < 1e-6)

    # T=2 at a score gap of sigma: the chance frame 0 ranks first has an
    # exact derivative; with 4000 samples the estimate was at most 10.3%
    # off it over seeds 0-199, so the 25% gate flags faults, not noise
    sigma = 0.05
    pair = np.array([sigma, 0.0], F32)
    first = np.array([[1.0, 0.0], [0.0, 0.0]])
    _, grad = ranking.perturbed_objective(pair, ranking.PerturbConfig(sigma, 4000, seed=3), first)
    exact = gradcheck.t2_top_prob_grad(float(pair[0]), float(pair[1]), sigma)
    s.check("gradient matches the T=2 closed form", abs(float(grad[0]) - exact) < 0.25 * exact)
    return s.count


def _dccm() -> int:
    s = _Suite("dccm")
    stream = numerics.RandomStream(21)
    c = 8
    sal = np.broadcast_to(np.arange(c, dtype=F32), (2, 4, 4, c)).copy()
    non = stream.gaussian((3, 4, 4, c))
    p = dccm.CompressorParams(
        w_a=stream.gaussian((c, c)) * F32(0.1),
        w_b=np.zeros((c, c), F32),
        w_c=np.eye(c, dtype=F32),
    )
    out = dccm.compress(sal, non, p, 2)
    expected = np.arange(c, dtype=F32) + numerics.avgpool_downsample(non, 2)
    s.check("constant references pass through attention",
            float(np.abs(out - expected).max()) < 1e-5)

    tokens = np.abs(stream.gaussian((4, 2, 2, c)))
    tokens[2] *= F32(50)
    sp = dccm.ScoreNetParams.init(c, 4, 8, numerics.RandomStream(1))
    kernel = np.zeros_like(sp.conv_kernel)
    kernel[1, 1, 1] = np.abs(sp.conv_kernel[1, 1, 1])
    sp = dccm.ScoreNetParams(kernel, np.abs(sp.w1), sp.b1, np.abs(sp.w2), sp.b2)
    result = dccm.dccm_forward(tokens, dccm.DccmParams(sp, p), k=1, h=2)
    s.check("energy-dominant frame is selected",
            result.sequence.times.saliency.tolist() == [2])
    s.check("parts partition the time axis", result.sequence.frame_count == 4)
    return s.count


def _rat() -> int:
    s = _Suite("rat")
    stream = numerics.RandomStream(31)
    layer = rat.RatLayerParams.init(16, stream)
    tokens = stream.gaussian((5, 4, 4, 16))
    seq = dccm.full_res_sequence(tokens)
    out = rat.rat_layer_forward(seq, layer, heads=4)
    s.check("full-res layer keeps extents", out.saliency.shape == tokens.shape)
    s.check("outputs stay finite", bool(np.all(np.isfinite(out.saliency))))

    perm = np.array([3, 0, 4, 1, 2])
    seq_p = dccm.MultiResSequence(
        saliency=tokens[perm],
        non_saliency=np.zeros((0, 4, 4, 16), F32),
        times=ranking.TimeIndexMap(perm.astype(np.int64), np.zeros(0, np.int64)),
        h=1,
    )
    out_p = rat.rat_layer_forward(seq_p, layer, heads=4)
    s.check("storage order does not change the math",
            bool(np.array_equal(out_p.saliency, out.saliency[perm])))
    return s.count


def _model_flops() -> int:
    s = _Suite("model+flops")
    cfg = model.ModelConfig.toy()
    params = model.init_params(cfg, seed=2)
    video = numerics.RandomStream(3).gaussian((cfg.frames, cfg.height, cfg.width, 3))
    out = model.forward(video, params, cfg)
    s.check("forward output extent", out.output.shape == (cfg.num_classes,))
    s.check("forward output finite", bool(np.all(np.isfinite(out.output))))
    s.check("selected times are k distinct frames",
            len(set(out.selected_times.tolist())) == cfg.saliency_count)

    check = flops.instrument_check(cfg, seed=2)
    s.check("instrumented count matches the cost model", check.rel_gap < 0.02)

    smaller = flops.count_flops(cfg).total
    s.check("compression reduces the analytic cost",
            smaller < flops.count_flops(cfg.baseline()).total)
    return s.count


def run_all(tmp_dir: str) -> list[tuple[str, int]]:
    """Run every suite; returns (name, check count) pairs or raises
    SelftestError on the first failure."""
    return [
        ("numerics", _numerics()),
        ("tensor_io", _tensor_io(tmp_dir)),
        ("ranking", _ranking()),
        ("dccm", _dccm()),
        ("rat", _rat()),
        ("model+flops", _model_flops()),
    ]
