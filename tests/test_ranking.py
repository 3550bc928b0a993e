"""Hard ranking against a comparison-sort oracle, the smoothed
ranking's polytope, invariance, and consistency properties, and the
blocked sampler against a one-shot reference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from drca import ranking
from drca.numerics import F32, RandomStream, ShapeError
from drca.ranking import (
    PerturbConfig,
    _objective_samples,
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


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 16), st.integers(0, 10_000))
def test_doubly_stochastic_property(t, seed):
    s = RandomStream(seed).gaussian(t)
    soft = perturbed_rank(s, PerturbConfig(0.1, 64, seed=seed + 1))
    np.testing.assert_allclose(soft.sum(axis=0), 1.0, atol=1e-6)
    np.testing.assert_allclose(soft.sum(axis=1), 1.0, atol=1e-6)


# --- the blocked sampling walk -----------------------------------------

_BLOCK = ranking._SAMPLE_BLOCK


def test_block_draws_continue_the_stream():
    # the sampler draws in row blocks and relies on them concatenating to
    # the one-shot draw; a numpy whose generator breaks this fails here
    n, t = 2 * _BLOCK + 11, 5
    whole = RandomStream(3).gaussian64((n, t))
    stream = RandomStream(3)
    parts = [stream.gaussian64((rows, t)) for rows in (1, 7, _BLOCK - 1, n - _BLOCK - 7)]
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


@pytest.mark.parametrize("t", [1, 2, 4, 8, 9])
@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**31), sigma=st.sampled_from([1e-3, 0.05, 2.0]),
       quantise=st.booleans())
def test_sampler_is_bitwise_the_one_shot_reference(n, t, seed, sigma, quantise):
    stream = RandomStream(seed)
    s = stream.gaussian(t)
    if quantise:
        s = np.round(s * 2) / 2  # tied scores
    g = stream.gaussian64((t, t))
    cfg = PerturbConfig(sigma=sigma, n_samples=n, seed=seed + 1)
    want_dots, want_z, want_matrix = _one_shot_reference(s, cfg, g)
    dots, z = _objective_samples(s, cfg, g)
    assert dots.tobytes() == want_dots.tobytes()
    assert z.tobytes() == want_z.tobytes()
    assert perturbed_rank(s, cfg).tobytes() == want_matrix.tobytes()


def test_exact_ties_rank_toward_the_smaller_frame():
    # 1e6 + 1e-12 z rounds back to 1e6: every draw is an exact three-way
    # tie, so every sample keeps frame order and the matrix is the identity
    s = np.array([1e6, 1e6, 1e6], F32)
    cfg = PerturbConfig(sigma=1e-12, n_samples=2 * _BLOCK + 3, seed=4)
    g = RandomStream(5).gaussian64((3, 3))
    matrix = perturbed_rank(s, cfg)
    assert np.array_equal(matrix, np.eye(3, dtype=F32))
    want_dots, want_z, want_matrix = _one_shot_reference(s, cfg, g)
    dots, z = _objective_samples(s, cfg, g)
    assert matrix.tobytes() == want_matrix.tobytes()
    assert dots.tobytes() == want_dots.tobytes()
    assert np.all(dots == np.trace(g))
    assert z.tobytes() == want_z.tobytes()


def test_sampler_memory_stays_within_a_few_blocks():
    # tracemalloc sees numpy's buffers; one [n, T] float64 array is 32 MB here
    n, t = 10**6, 4
    cfg = PerturbConfig(sigma=0.05, n_samples=n, seed=6)
    s = RandomStream(7).gaussian(t)
    g = RandomStream(8).gaussian64((t, t))
    bound = 8 * _BLOCK * t * 8
    assert bound < n * t * 8 / 10
    tracemalloc.start()
    try:
        perturbed_rank(s, cfg)
        _, rank_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        dots, z = _objective_samples(s, cfg, g)
        _, objective_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rank_peak < bound
    assert objective_peak <= dots.nbytes + z.nbytes + bound
