"""Hard ranking against a comparison-sort oracle, the smoothed
ranking's polytope, invariance, and consistency properties, and the
blocked sampler against a one-shot reference."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from drca import numerics
from drca.numerics import F32, RandomStream, ShapeError
from drca.ranking import (
    PerturbConfig,
    _ranking_cells,
    _objective_sums,
    _ranking_codes,
    _sample_blocks,
    hard_rank,
    perturbed_objective,
    perturbed_rank,
    topk_split,
)


def _order_oracle(s):
    # descending, ties toward the smaller frame index
    return sorted(range(len(s)), key=lambda i: (-float(s[i]), i))


# --- hard ranking ------------------------------------------------------

def test_hard_rank_matches_comparison_sort():
    stream = RandomStream(0)
    for t in (1, 2, 5, 16):
        for _ in range(20):
            s = stream.gaussian(t)
            assert hard_rank(s).order.tolist() == _order_oracle(s)


def test_hard_rank_tie_break_prefers_earlier_frame():
    s = np.array([1.0, 3.0, 3.0, 0.5, 3.0], F32)
    assert hard_rank(s).order.tolist() == [1, 2, 4, 0, 3]
    assert hard_rank(np.zeros(6, F32)).order.tolist() == list(range(6))


def test_hard_rank_quantised_scores_against_oracle():
    # coarse quantisation produces many ties
    stream = RandomStream(1)
    for _ in range(50):
        s = np.round(stream.gaussian(9) * 2) / 2
        assert hard_rank(s).order.tolist() == _order_oracle(s)


def test_permutation_matrix_is_column_onehot_of_order():
    s = RandomStream(2).gaussian(7)
    perm = hard_rank(s)
    t = 7
    assert perm.matrix.shape == (t, t)
    assert np.array_equal(perm.matrix.sum(axis=0), np.ones(t, F32))
    assert np.array_equal(perm.matrix.sum(axis=1), np.ones(t, F32))
    for j in range(t):
        assert perm.matrix[perm.order[j], j] == 1
    # M^T x reorders x into rank order, the order topk_split uses
    np.testing.assert_allclose(perm.matrix.T @ s, s[perm.order], rtol=1e-6)


def test_topk_split_parts_and_times():
    stream = RandomStream(3)
    s = stream.gaussian(6)
    tokens = stream.gaussian((6, 2, 2, 3))
    perm = hard_rank(s)
    sal, non, times = topk_split(tokens, perm, 2)
    assert np.array_equal(sal, tokens[perm.order[:2]])
    assert np.array_equal(non, tokens[perm.order[2:]])
    assert np.array_equal(times.saliency, perm.order[:2])
    assert np.array_equal(times.non_saliency, perm.order[2:])
    assert np.array_equal(np.sort(np.concatenate(times)), np.arange(6))


def test_topk_split_parts_hold_only_their_own_frames():
    # the non-saliency part, once compressed away, frees its frames: it
    # is no view of a gathered copy that the saliency part keeps alive
    tokens = RandomStream(6).gaussian((8, 14, 14, 16))
    perm = hard_rank(RandomStream(7).gaussian(8))
    tracemalloc.start()
    try:
        sal, non, _ = topk_split(tokens, perm, 2)
        del non
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * sal.nbytes, (held, sal.nbytes)


def test_topk_split_rejects_bad_k():
    tokens = RandomStream(4).gaussian((5, 2, 2, 3))
    perm = hard_rank(RandomStream(5).gaussian(5))
    with pytest.raises(ShapeError):
        topk_split(tokens, perm, 0)
    with pytest.raises(ShapeError):
        topk_split(tokens, perm, 6)


def test_score_validation():
    with pytest.raises(ValueError):
        hard_rank(np.array([1.0, np.nan], F32))
    with pytest.raises(ShapeError):
        hard_rank(np.zeros((2, 2), F32))
    for sigma in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="sigma"):
            PerturbConfig(sigma=sigma)
    with pytest.raises(ValueError):
        PerturbConfig(n_samples=0)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-100, 100, width=32), min_size=1, max_size=16))
def test_hard_rank_oracle_property(values):
    s = np.array(values, F32)
    assert hard_rank(s).order.tolist() == _order_oracle(s)


# --- smoothed ranking --------------------------------------------------

def test_soft_matrix_is_doubly_stochastic():
    cfg = PerturbConfig(sigma=0.1, n_samples=400, seed=7)
    for t in (2, 5, 12):
        soft = perturbed_rank(RandomStream(t).gaussian(t), cfg)
        np.testing.assert_allclose(soft.sum(axis=0), 1.0, atol=1e-6)
        np.testing.assert_allclose(soft.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(soft >= 0)


def test_soft_matrix_deterministic_per_seed():
    s = RandomStream(8).gaussian(6)
    a = perturbed_rank(s, PerturbConfig(0.05, 300, seed=1))
    b = perturbed_rank(s, PerturbConfig(0.05, 300, seed=1))
    c = perturbed_rank(s, PerturbConfig(0.05, 300, seed=2))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_soft_matrix_concentrates_as_sigma_shrinks():
    s = np.array([0.5, -0.25, 1.25, 0.0], F32)
    cfg = PerturbConfig(sigma=1e-6, n_samples=100, seed=3)
    assert np.array_equal(perturbed_rank(s, cfg), hard_rank(s).matrix)


def test_shift_invariance_exact_under_common_random_numbers():
    # dyadic scores and shifts: score + shift is exact in float64, so the
    # perturbed comparisons are bit-identical between the two calls
    stream = RandomStream(9)
    cfg = PerturbConfig(sigma=0.05, n_samples=500, seed=11)
    for shift in (1.5, -0.25, 2.0, -8.0):
        s = np.round(stream.gaussian(10) * 64) / 64
        a = perturbed_rank(s, cfg)
        b = perturbed_rank(s + F32(shift), cfg)
        assert np.array_equal(a, b)


def test_t2_top_probability_matches_gaussian_cdf():
    # the T=2 smoothed ranking has a closed form: P(frame 0 first)
    # = Phi((a - b) / (sigma sqrt(2)))
    sigma, n = 0.1, 40_000
    for seed, (a, b) in enumerate([(0.03, -0.02), (0.0, 0.0), (-0.1, 0.05)]):
        soft = perturbed_rank(np.array([a, b], F32),
                              PerturbConfig(sigma, n, seed=20 + seed))
        want = ndtr((a - b) / (sigma * np.sqrt(2)))
        se = np.sqrt(want * (1 - want) / n) + 1e-9
        assert abs(soft[0, 0] - want) < 5 * se + 1e-4


def test_fused_objective_equals_separate_paths():
    stream = RandomStream(12)
    s = stream.gaussian(7)
    g = stream.gaussian64((7, 7))
    cfg = PerturbConfig(sigma=0.05, n_samples=800, seed=13)
    value, ds = perturbed_objective(s, cfg, g)
    np.testing.assert_allclose(value, float(np.sum(g * perturbed_rank(s, cfg))),
                               rtol=1e-5, atol=1e-6)
    assert ds.dtype == F32
    assert ds.shape == (7,)


def test_objective_gradient_vanishes_at_saturation():
    # gaps far beyond sigma: every sample sorts identically, so the control
    # variate cancels the estimate down to float rounding.  The uncentered
    # estimator would leave mean(z) * <G, Y> / sigma, around 1e-1 here.
    s = np.array([10.0, 5.0, 0.0, -5.0], F32)
    g = RandomStream(14).gaussian64((4, 4))
    _, ds = perturbed_objective(s, PerturbConfig(0.01, 200, seed=15), g)
    assert np.max(np.abs(ds)) < 1e-12


def test_objective_rejects_bad_gradient_matrix():
    s = np.zeros(3, F32)
    cfg = PerturbConfig(0.05, 10, seed=0)
    with pytest.raises(ShapeError):
        perturbed_objective(s, cfg, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        perturbed_objective(s, cfg, np.full((3, 3), np.nan))


def _block(t):
    # the sampler's rows per block at T = t
    return max(numerics._CHUNK // t, 1)


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 9), t=st.integers(1, 9), sigma=st.sampled_from([1e-3, 0.2, 2.0]),
       seed=st.integers(0, 2**31), quantise=st.booleans(), data=st.data())
def test_stacked_objective_is_bitwise_each_videos_own_call(b, t, sigma, seed, quantise, data):
    # video i draws with seed cfg.seed + i, whatever the stack around it:
    # n near a half and a third of T's block puts two or three whole
    # videos in a block and leaves the last block partial, n past the
    # block spreads each video over several; T from 1 to 9 takes every
    # ranking path (looked up, coded, sorted)
    block = _block(t)
    n = data.draw(st.one_of(st.integers(1, 64), st.integers(block // 3 - 2, block // 3 + 2),
                            st.integers(block // 2 - 2, block // 2 + 2),
                            st.integers(block - 2, block + 300)).filter(lambda n: n >= 1),
                  label="n")
    stream = RandomStream(seed)
    s = stream.gaussian((b, t))
    if quantise:
        s = np.round(s * 2) / 2  # tied scores
    g = stream.gaussian64((b, t, t))
    cfg = PerturbConfig(sigma=sigma, n_samples=n, seed=seed)
    values, grads = perturbed_objective(s, cfg, g)
    assert values.shape == (b,) and values.dtype == np.float64
    assert grads.shape == (b, t) and grads.dtype == F32
    for i in range(b):
        value, grad = perturbed_objective(s[i], replace(cfg, seed=seed + i), g[i])
        assert values[i] == value
        assert grads[i].tobytes() == grad.tobytes()


def test_an_empty_stack_gives_empty_estimates():
    values, grads = perturbed_objective(np.zeros((0, 4), F32), PerturbConfig(0.1, 50, seed=0),
                                        np.zeros((0, 4, 4)))
    assert values.shape == (0,) and values.dtype == np.float64
    assert grads.shape == (0, 4) and grads.dtype == F32


def test_stacked_objective_rejects_bad_scores_and_gradient_matrices():
    s = RandomStream(16).gaussian((3, 4))
    g = RandomStream(17).gaussian64((3, 4, 4))
    cfg = PerturbConfig(0.05, 10, seed=0)
    bad = s.copy()
    bad[1, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        perturbed_objective(bad, cfg, g)
    for wrong in (g[:2], g[:, :, :3], g[0], g[None]):
        with pytest.raises(ShapeError, match="gradient matrix"):
            perturbed_objective(s, cfg, wrong)
    with pytest.raises(ShapeError, match="scores"):
        perturbed_objective(s[None], cfg, g[None])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 16), st.integers(0, 10_000))
def test_doubly_stochastic_property(t, seed):
    s = RandomStream(seed).gaussian(t)
    soft = perturbed_rank(s, PerturbConfig(0.1, 64, seed=seed + 1))
    np.testing.assert_allclose(soft.sum(axis=0), 1.0, atol=1e-6)
    np.testing.assert_allclose(soft.sum(axis=1), 1.0, atol=1e-6)


# --- the blocked sampling walk -----------------------------------------

_BLOCK = _block(4)


def test_block_draws_continue_the_stream():
    # the sampler draws in row blocks and relies on them concatenating to
    # the one-shot draw; a numpy whose generator breaks this fails here
    t = 5
    block = _block(t)
    n = 2 * block + 11
    whole = RandomStream(3).gaussian64((n, t))
    stream = RandomStream(3)
    parts = [stream.gaussian64((rows, t)) for rows in (1, 7, block - 1, n - block - 7)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def _one_shot_reference(s, cfg, g):
    # one [n, T] draw, one sort, a 2-D gather and row sums, one bincount
    s64 = np.asarray(s, np.float64)
    t = s64.shape[0]
    z = RandomStream(cfg.seed).gaussian64((cfg.n_samples, t))
    orders = np.argsort(-(s64 + cfg.sigma * z), axis=-1, kind="stable")
    dots = g[orders, np.arange(t)].sum(axis=1)
    counts = np.bincount((orders * t + np.arange(t)).ravel(), minlength=t * t)
    matrix = (counts.astype(np.float64).reshape(t, t) / cfg.n_samples).astype(F32)
    return dots, z, matrix


_SAMPLER_DRAWS = dict(seed=st.integers(0, 2**31), sigma=st.sampled_from([1e-3, 0.05, 2.0]),
                      quantise=st.booleans())


@pytest.mark.parametrize("t", [1, 2, 4, 8, 9])
@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
@settings(max_examples=3, deadline=None)
@given(**_SAMPLER_DRAWS)
def test_sampler_is_bitwise_the_one_shot_reference(n, t, seed, sigma, quantise):
    # n at the block edges of T = 4; the test below takes every T's own
    _check_sampler_against_one_shot(n, t, seed, sigma, quantise)


@pytest.mark.parametrize("t", range(1, 10))
@pytest.mark.parametrize("edge", [-1, 0, 1])
@settings(max_examples=2, deadline=None)
@given(**_SAMPLER_DRAWS)
def test_sampler_is_bitwise_the_one_shot_reference_at_each_ts_block_edge(edge, t, seed, sigma,
                                                                        quantise):
    _check_sampler_against_one_shot(_block(t) + edge, t, seed, sigma, quantise)


def _walk(s, cfg, g):
    # the walk's products and draws over one video's whole sample; each
    # block's are copied, since the next block may overwrite them
    blocks = [(z[0].copy(), dots[0].copy())
              for *_, z, dots in _sample_blocks(np.asarray(s, np.float64), cfg, g)]
    return np.concatenate([dots for _, dots in blocks]), np.concatenate([z for z, _ in blocks])


# the streamed mean and centred sum against the one-shot ones where n
# spans several blocks: two float64 sums of the same terms in another
# order, so within this fraction of the sum of the terms' magnitudes
_STREAMED_RTOL = 1e-13


def _check_sampler_against_one_shot(n, t, seed, sigma, quantise):
    stream = RandomStream(seed)
    s = stream.gaussian(t)
    if quantise:
        s = np.round(s * 2) / 2  # tied scores
    g = stream.gaussian64((t, t))
    cfg = PerturbConfig(sigma=sigma, n_samples=n, seed=seed + 1)
    want_dots, want_z, want_matrix = _one_shot_reference(s, cfg, g)
    dots, z = _walk(s, cfg, g)
    assert dots.tobytes() == want_dots.tobytes()
    assert z.tobytes() == want_z.tobytes()
    assert perturbed_rank(s, cfg).tobytes() == want_matrix.tobytes()
    # the streamed estimate against the one-shot mean, moment and gemv
    mean = want_dots.mean()
    want_moment = np.square(want_dots - mean).sum()
    want_centred = (want_dots - mean) @ want_z
    value, moment, centred, _ = _objective_sums(s.astype(np.float64), cfg, g)
    if n <= _block(t):  # one block: bitwise
        assert value == mean
        assert moment == want_moment
        assert centred.tobytes() == want_centred.tobytes()
    else:
        assert abs(value - mean) <= _STREAMED_RTOL * np.abs(want_dots).mean()
        assert abs(moment - want_moment) <= _STREAMED_RTOL * np.square(want_dots).sum()
        assert np.all(np.abs(centred - want_centred)
                      <= _STREAMED_RTOL * (np.abs(want_dots) @ np.abs(want_z)))
    # perturbed_objective returns that estimate
    got_value, grad = perturbed_objective(s, cfg, g)
    assert got_value == value
    assert grad.tobytes() == (centred / (n * sigma)).astype(F32).tobytes()


def _single_block_cases():
    # (T, videos, n, saturated): a stack of one or of several videos whose
    # samples share one block, up to a whole block; saturated rankings put
    # far-apart scores against an integer G, so every centred term is 0
    cases = []
    for t in (2, 4, 8):
        block = _block(t)
        cases += [(t, 1, n, False) for n in (1, 2, 37, block)]
        cases += [(t, b, block // b, False) for b in (2, 3)] + [(t, 5, 37, False)]
        cases += [(t, 1, 1, True), (t, 1, block, True), (t, 4, block // 4, True)]
    return cases


@pytest.mark.parametrize("t,b,n,saturated", _single_block_cases())
def test_single_block_moments_are_bitwise_the_one_shot_formulas(t, b, n, saturated):
    # where a video's sample is one block, delta = mean(d) - m0 is exactly
    # 0.0 and the correction changes no bit, signed zeros included
    stream = RandomStream(90 + t + b + n)
    if saturated:
        s = np.arange(b * t, dtype=np.float64).reshape(b, t)[:, ::-1] * 100.0
        g = np.round(stream.gaussian64((b, t, t)) * 4)
    else:
        s = stream.gaussian64((b, t))
        g = stream.gaussian64((b, t, t))
    cfg = PerturbConfig(sigma=0.05 if saturated else 0.5, n_samples=n, seed=91 + n)
    assert b * n <= _block(t)
    sums = _objective_sums(s, cfg, g, spread=True)
    for i in range(b):
        d, z, _ = _one_shot_reference(s[i], replace(cfg, seed=cfg.seed + i), g[i])
        c = d - d.mean()
        if saturated:
            assert not c.any()
        assert sums.mean[i] == d.mean()
        assert sums.value_moment[i].tobytes() == np.square(c).sum().tobytes()
        assert sums.centred[i].tobytes() == (c @ z).tobytes()
        assert sums.grad_moment[i].tobytes() == (np.square(c) @ np.square(z)).tobytes()


def test_patching_numerics_chunk_moves_the_sampler_blocks(monkeypatch):
    # the walk reads numerics._CHUNK at the call, so the one patch that moves
    # every other chunked loop moves the sampler's block boundaries too
    s = RandomStream(92).gaussian64((3, 4))
    cfg = PerturbConfig(sigma=0.1, n_samples=10, seed=93)
    assert len(list(_sample_blocks(s[0], cfg))) == 1
    monkeypatch.setattr(numerics, "_CHUNK", 8)  # blocks of two draws at T = 4
    assert [lo for _, lo, *_ in _sample_blocks(s[0], cfg)] == [0, 2, 4, 6, 8]
    monkeypatch.setattr(numerics, "_CHUNK", 16)  # two 2-draw videos to a block
    blocks = _sample_blocks(s, replace(cfg, n_samples=2))
    assert [(videos.start, videos.stop) for videos, *_ in blocks] == [(0, 2), (2, 3)]


def _row_sum_products(s, cfg, g):
    # the products as numpy's per-row reduce forms them: one one-shot
    # sort, one [n, T] gather of the cells from G stored transposed
    s64 = np.asarray(s, np.float64)
    t = s64.shape[0]
    z = RandomStream(cfg.seed).gaussian64((cfg.n_samples, t))
    cells = np.argsort(-(s64 + cfg.sigma * z), axis=1, kind="stable") + np.arange(t) * t
    return np.take(g.T.ravel(), cells).sum(axis=1)


@pytest.mark.parametrize("t", list(range(1, 21)) + [127, 128, 129, 256, 257, 300])
@pytest.mark.parametrize("edge", [-1, 1])
def test_products_are_bitwise_numpys_row_sums(t, edge):
    # numpy's pairwise order differs below 8 terms, up to 128 and past it;
    # terms spanning e^-30..e^30 with both signs make any other order round
    # differently.  n on both sides of T's sampler block, and T on both
    # sides of the largest T whose rankings are looked up, not sorted
    stream = RandomStream(50 + t)
    s = stream.gaussian64(t)
    g = np.exp(stream.gaussian64((t, t)) * 10) * np.sign(stream.gaussian64((t, t)))
    cfg = PerturbConfig(sigma=0.5, n_samples=_block(t) + edge, seed=60 + t)
    got = np.concatenate([dots[0].copy() for *_, dots in _sample_blocks(s, cfg, g)])
    assert got.tobytes() == _row_sum_products(s, cfg, g).tobytes()


@pytest.mark.parametrize("t", [1, 2, 5, 8, 9])
def test_products_of_negative_zeros_are_positive_zero_like_numpys_row_sums(t):
    # numpy's sum starts from 0.0, so a row of -0.0 terms sums to 0.0
    s = RandomStream(70).gaussian64(t)
    g = np.full((t, t), -0.0)
    cfg = PerturbConfig(sigma=0.5, n_samples=20, seed=71)
    got = np.concatenate([dots[0].copy() for *_, dots in _sample_blocks(s, cfg, g)])
    assert got.tobytes() == _row_sum_products(s, cfg, g).tobytes() == np.zeros(20).tobytes()


def _tied_keys(t, seed):
    # keys drawn from three values tie often, besides continuous keys
    key = RandomStream(seed).permutation(3 * 2000 * t).reshape(-1, t) % 3 * 0.5
    return np.concatenate([key, RandomStream(81).gaussian64((2000, t))])


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6, 7, 8])
def test_ranking_codes_index_the_stable_sort(t):
    # every ranking of T frames has its own code, and its row of the
    # table holds the cells c T + o of the stable sort's order o
    key = _tied_keys(t, 80 + t)
    want = np.argsort(key, axis=1, kind="stable") + np.arange(t) * t
    cells = _ranking_cells(t)
    assert np.array_equal(cells[_ranking_codes(key.T)], want)
    # one shared table, which no caller can write to
    assert cells is _ranking_cells(t) and cells.dtype == np.uint8 and not cells.flags.writeable
    order = cells % t
    assert np.array_equal(cells // t, np.broadcast_to(np.arange(t), cells.shape))
    assert len(np.unique(order, axis=0)) == len(order) == math.factorial(t)
    assert np.array_equal(_ranking_codes(np.argsort(order, axis=1).T.astype(np.float64)),
                          np.arange(len(order)))


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6, 7, 8])
def test_ranking_codes_are_a_plain_loops_lehmer_codes(t):
    # the codes of a row-by-row loop in Python integers, from keys with
    # planted ties, frame by frame in contiguous or strided rows, in the
    # narrowest dtype that holds T!
    key = _tied_keys(t, 180 + t)
    key[::7, t // 2] = key[::7, 0]
    want = [sum(sum(row[k] < row[i] for k in range(i + 1, t)) * math.factorial(t - 1 - i)
                for i in range(t))
            for row in key.tolist()]
    got = _ranking_codes(key.T.copy())
    assert got.dtype == (np.uint8 if t <= 5 else np.uint16)
    assert got.tolist() == want
    assert _ranking_codes(key.T).tolist() == want


def test_exact_ties_rank_toward_the_smaller_frame():
    # 1e6 + 1e-12 z rounds back to 1e6: every draw is an exact three-way
    # tie, so every sample keeps frame order and the matrix is the identity
    s = np.array([1e6, 1e6, 1e6], F32)
    cfg = PerturbConfig(sigma=1e-12, n_samples=2 * _block(3) + 3, seed=4)
    g = RandomStream(5).gaussian64((3, 3))
    matrix = perturbed_rank(s, cfg)
    assert np.array_equal(matrix, np.eye(3, dtype=F32))
    want_dots, want_z, want_matrix = _one_shot_reference(s, cfg, g)
    dots, z = _walk(s, cfg, g)
    assert matrix.tobytes() == want_matrix.tobytes()
    assert dots.tobytes() == want_dots.tobytes()
    assert np.all(dots == np.trace(g))
    assert z.tobytes() == want_z.tobytes()


def test_sampler_memory_stays_within_a_few_blocks():
    # tracemalloc sees numpy's buffers; one [n, T] float64 array is 32 MB here
    n, t = 10**6, 4
    cfg = PerturbConfig(sigma=0.05, n_samples=n, seed=6)
    s = RandomStream(7).gaussian(t).astype(np.float64)
    g = RandomStream(8).gaussian64((t, t))
    bound = 5 * numerics._CHUNK * 8  # five of the walk's blocks
    assert bound < n * 8 / 5
    # 400 videos of 1000 draws, eight to a block: the stack's draws are 12.8 MB
    stack = PerturbConfig(sigma=0.05, n_samples=1000, seed=9)
    videos = RandomStream(10).gaussian((400, t))
    targets = RandomStream(11).gaussian64((400, t, t))
    assert bound < 400 * 1000 * t * 8 / 5
    tracemalloc.start()
    try:
        perturbed_rank(s, cfg)
        _, rank_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _objective_sums(s, cfg, g, spread=True)
        _, sums_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        perturbed_objective(videos, stack, targets)
        _, stack_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rank_peak < bound
    # the streamed value, gradient and moments hold nothing of size n
    assert sums_peak < bound
    # a stack holds a block's draws at a time, not its own
    assert stack_peak < bound
