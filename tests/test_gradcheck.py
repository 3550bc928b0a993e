"""The gradient verification harness itself: closed forms, standard
errors, and the pass/fail plumbing."""

import math
import os
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

from drca import gradcheck, numerics, ranking
from drca.gradcheck import (
    CheckReport,
    CheckRow,
    objective_with_se,
    run_fd_check,
    run_t2_check,
    t2_top_prob,
    t2_top_prob_grad,
    vjp_with_se,
)
from drca.numerics import F32, RandomStream, ShapeError
from drca.ranking import PerturbConfig, perturbed_objective


def test_pass_thresholds_are_pinned():
    assert gradcheck.T2_REL_TOL == 0.05
    assert gradcheck.FD_SE_LIMIT == 3.0


def test_t2_closed_form_limits_and_symmetry():
    assert t2_top_prob(0.0, 0.0, 0.05) == pytest.approx(0.5)
    assert t2_top_prob(1.0, -1.0, 0.05) == pytest.approx(1.0, abs=1e-12)
    assert t2_top_prob(-1.0, 1.0, 0.05) == pytest.approx(0.0, abs=1e-12)
    for a, b in [(0.02, -0.01), (-0.3, 0.1)]:
        assert t2_top_prob(a, b, 0.1) + t2_top_prob(b, a, 0.1) == pytest.approx(1.0)


def test_t2_closed_form_matches_scipy_ndtr():
    # the closed form uses math.erfc so that importing drca needs no scipy
    for sigma in (0.01, 0.05, 0.2, 1.0):
        for u in np.linspace(-5.0, 5.0, 401):
            gap = u * sigma * np.sqrt(2.0)
            want = float(ndtr(gap / (sigma * np.sqrt(2.0))))
            assert t2_top_prob(gap / 2, -gap / 2, sigma) == pytest.approx(want, rel=1e-14)


def test_t2_gradient_matches_derivative_of_probability():
    # the closed-form gradient is d/da of the closed-form probability
    sigma, delta = 0.07, 1e-6
    for a, b in [(0.0, 0.0), (0.05, -0.02), (-0.1, 0.08)]:
        fd = (t2_top_prob(a + delta, b, sigma) - t2_top_prob(a - delta, b, sigma)) / (2 * delta)
        assert t2_top_prob_grad(a, b, sigma) == pytest.approx(fd, rel=1e-5)


def test_vjp_se_is_calibrated():
    # repeated independent estimates should scatter on the scale of the
    # reported standard error (chi-square-ish sanity band).  Score gaps sit
    # at the noise scale; far outside it rank flips become rare events and
    # no per-run standard error is meaningful.
    s = RandomStream(0).gaussian(3) * F32(0.1)
    g = RandomStream(1).gaussian64((3, 3))
    estimates, ses = [], []
    for k in range(30):
        grad, se = vjp_with_se(s, PerturbConfig(0.05, 4000, seed=100 + k), g)
        estimates.append(grad)
        ses.append(se)
    spread = np.std(np.stack(estimates), axis=0, ddof=1)
    claimed = np.mean(np.stack(ses), axis=0)
    ratio = spread / claimed
    assert np.all(ratio > 0.6) and np.all(ratio < 1.6)


def _se_oracle(s, cfg, g):
    # both standard errors by the two-pass textbook formula: a plain
    # float64 loop over the per-sample terms, first their mean, then their
    # squared deviations from it, over the estimators' draws made afresh:
    # one [n, T] draw, ranked by a stable sort
    s64, g64 = np.asarray(s, np.float64), np.asarray(g, np.float64)
    n, t = cfg.n_samples, s64.shape[0]
    z = RandomStream(cfg.seed).gaussian64((n, t))
    orders = np.argsort(-(s64 + cfg.sigma * z), axis=1, kind="stable").tolist()
    g64, z = g64.tolist(), z.tolist()
    dots = [sum(g64[order[c]][c] for c in range(t)) for order in orders]

    def se(terms):
        mean = sum(terms) / n
        return math.sqrt(sum((x - mean) ** 2 for x in terms) / (n - 1)) / math.sqrt(n)

    mean = sum(dots) / n
    grad_terms = [[(dots[j] - mean) * z[j][i] / cfg.sigma for j in range(n)]
                  for i in range(t)]
    return se(dots), np.array([se(terms) for terms in grad_terms])


@pytest.mark.parametrize("t", [2, 3, 4, 8])
@pytest.mark.parametrize("edge", [-1, 1])
def test_standard_errors_match_the_textbook_loop(t, edge):
    # n on both sides of T's sampler block
    n = max(numerics._CHUNK // t, 1) + edge
    stream = RandomStream(30 + t)
    s = stream.gaussian(t) * F32(0.05)
    g = stream.gaussian64((t, t))
    cfg = PerturbConfig(0.05, n, seed=40 + t)
    want_value_se, want_grad_se = _se_oracle(s, cfg, g)
    _, value_se = objective_with_se(s, cfg, g)
    _, grad_se = vjp_with_se(s, cfg, g)
    assert value_se > 0 and np.all(want_grad_se > 0)
    assert value_se == pytest.approx(want_value_se, rel=1e-12, abs=0)
    np.testing.assert_allclose(grad_se, want_grad_se, rtol=1e-12, atol=0)


@pytest.mark.parametrize("t", [2, 3, 4, 8])
def test_standard_errors_are_exactly_zero_when_every_sample_is_equal(t):
    # gaps far beyond sigma: every draw ranks the frames alike, and an
    # integer G makes every product, and so their mean, exact
    s = np.arange(t, 0, -1).astype(F32) * F32(10)
    g = np.arange(t * t, dtype=np.float64).reshape(t, t) - 3
    cfg = PerturbConfig(0.01, max(numerics._CHUNK // t, 1) + 1, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, value_se = objective_with_se(s, cfg, g)
        _, grad_se = vjp_with_se(s, cfg, g)
    assert value_se == 0.0
    assert np.array_equal(grad_se, np.zeros(t))
    want_value_se, want_grad_se = _se_oracle(s, cfg, g)
    assert want_value_se == 0.0 and np.array_equal(want_grad_se, np.zeros(t))


def test_vjp_matches_production_estimator():
    # one gradient formula: the oracles' float64 estimate is bitwise the
    # shared function's, and rounds to exactly what training receives;
    # at one block it is bitwise the centred products' gemv with the draws
    s = RandomStream(2).gaussian(5)
    g = RandomStream(3).gaussian64((5, 5))
    cfg = PerturbConfig(0.05, 600, seed=9)
    grad, _ = vjp_with_se(s, cfg, g)
    centred = ranking._objective_sums(s.astype(np.float64), cfg, g).centred
    assert grad.dtype == np.float64
    assert grad.tobytes() == ranking._score_gradient(centred, cfg).tobytes()
    _, ds = perturbed_objective(s, cfg, g)
    assert grad.astype(F32).tobytes() == ds.tobytes()
    (_, dots), = ranking._objective_blocks(s.astype(np.float64), cfg, g)  # one block
    z = RandomStream(cfg.seed).gaussian64((cfg.n_samples, 5))
    assert grad.tobytes() == ((dots - dots.mean()) @ z / (600 * 0.05)).tobytes()


# faults planted once in the shared gradient, each built from the real one
_PLANTED = {
    "sign flip": lambda grad: lambda centred, cfg: -grad(centred, cfg),
    "missing 1/sigma": lambda grad: lambda centred, cfg: grad(centred, cfg) * cfg.sigma,
    "sigma off by 10%": lambda grad: lambda centred, cfg: grad(
        centred, replace(cfg, sigma=cfg.sigma * 1.1)),
}


_PLANTED_AT = dict(sigma=0.05, n_samples=100_000, seed=0)  # the CLI defaults


def test_both_checks_pass_where_defects_are_planted():
    assert run_t2_check(**_PLANTED_AT).passed
    assert run_fd_check(**_PLANTED_AT).passed


@pytest.mark.parametrize("defect", sorted(_PLANTED))
def test_planted_gradient_defect_fails_both_checks(monkeypatch, defect):
    faulty = _PLANTED[defect](ranking._score_gradient)
    monkeypatch.setattr(ranking, "_score_gradient", faulty)
    # the fault reaches training ...
    s = RandomStream(6).gaussian(4)
    g = RandomStream(7).gaussian64((4, 4))
    cfg = PerturbConfig(0.05, 300, seed=8)
    centred = ranking._objective_sums(s.astype(np.float64), cfg, g).centred
    assert perturbed_objective(s, cfg, g)[1].tobytes() == faulty(centred, cfg).astype(F32).tobytes()
    # ... and both oracles catch it
    assert not run_t2_check(**_PLANTED_AT).passed
    assert not run_fd_check(**_PLANTED_AT).passed


def _serial_fd_rows(frames, sigma, n_samples, seed, vectors):
    # the finite-difference check as a plain loop, one estimate at a time
    delta = gradcheck.FD_DELTA_PER_SIGMA * sigma
    stream = RandomStream(seed)
    rows = []
    for v in range(vectors):
        s = (stream.gaussian64(frames) * 2 * sigma).astype(F32)
        g = stream.gaussian64((frames, frames))
        base = PerturbConfig(sigma, n_samples, seed + 1000 + 7919 * v)
        grad, grad_se = vjp_with_se(s, base, g)
        for i in range(frames):
            up = s.copy()
            up[i] += F32(delta)
            dn = s.copy()
            dn[i] -= F32(delta)
            f_up, se_up = objective_with_se(up, replace(base, seed=base.seed + 1 + 2 * i), g)
            f_dn, se_dn = objective_with_se(dn, replace(base, seed=base.seed + 2 + 2 * i), g)
            fd = (f_up - f_dn) / (2 * delta)
            fd_se = np.sqrt(se_up ** 2 + se_dn ** 2) / (2 * delta)
            err = abs(float(grad[i]) - fd) / float(np.sqrt(grad_se[i] ** 2 + fd_se ** 2))
            rows.append((fd, float(grad[i]), err, bool(err < gradcheck.FD_SE_LIMIT)))
    return rows


@pytest.mark.parametrize("workers", [1, 2, 5])
# n below and above the sampler's block of numerics._CHUNK // T rows at each T
@pytest.mark.parametrize("frames, n_samples, seed, vectors", [
    (2, 3000, 0, 1),
    (2, numerics._CHUNK // 2 + 1, 0, 1),
    (3, 8193, 11, 3),
    (3, numerics._CHUNK // 3 + 1, 11, 3),
    (5, numerics._CHUNK // 5 - 1, 7, 2),
    (5, 20_000, 7, 2),
])
def test_fd_check_is_bitwise_the_serial_loop(monkeypatch, workers, frames, n_samples,
                                             seed, vectors):
    monkeypatch.setattr(gradcheck, "_workers", lambda tasks: workers)
    report = run_fd_check(frames=frames, sigma=0.05, n_samples=n_samples, seed=seed,
                          vectors=vectors)
    got = [(r.analytic, r.estimate, r.error, r.passed) for r in report.rows]
    assert np.array(got).tobytes() == np.array(
        _serial_fd_rows(frames, 0.05, n_samples, seed, vectors)).tobytes()
    assert [r.label for r in report.rows] == [
        f"vector {v} coord {i}" for v in range(vectors) for i in range(frames)]


def _serial_t2_rows(sigma, n_samples, seed, trials):
    # the closed-form check as a plain loop, one estimate at a time
    stream = RandomStream(seed)
    g = np.zeros((2, 2))
    g[0, 0] = 1.0
    rows = []
    for trial in range(trials):
        a = float(stream.gaussian64(())) * sigma
        gap = sigma * (0.1 + 2.9 * trial / max(trials - 1, 1))
        b = a - gap if trial % 2 == 0 else a + gap
        exact = t2_top_prob_grad(a, b, sigma)
        cfg = PerturbConfig(sigma, n_samples, seed + 101 + trial)
        grad, _ = vjp_with_se(np.array([a, b], F32), cfg, g)
        rel = abs(grad[0] - exact) / abs(exact)
        rows.append((f"pair {trial}: gap={b - a:+.4f}", exact, float(grad[0]), float(rel),
                     bool(rel < gradcheck.T2_REL_TOL)))
    return rows


@pytest.mark.parametrize("workers", [1, 2, 5])
@pytest.mark.parametrize("trials", [1, 2, 10])
# n below and above the sampler's block of numerics._CHUNK // 2 rows at T = 2
@pytest.mark.parametrize("n_samples, seed", [
    (numerics._CHUNK // 2 - 1, 3),
    (numerics._CHUNK // 2 + 1, 4),
])
def test_t2_check_is_bitwise_the_serial_loop(monkeypatch, workers, trials, n_samples, seed):
    monkeypatch.setattr(gradcheck, "_workers", lambda tasks: workers)
    report = run_t2_check(sigma=0.05, n_samples=n_samples, seed=seed, trials=trials)
    got = [(r.label, r.analytic, r.estimate, r.error, r.passed) for r in report.rows]
    want = _serial_t2_rows(0.05, n_samples, seed, trials)
    assert [row[0] for row in got] == [row[0] for row in want]
    assert np.array([row[1:] for row in got]).tobytes() == np.array(
        [row[1:] for row in want]).tobytes()


def test_no_estimate_of_either_check_runs_on_the_calling_thread(monkeypatch):
    seen = {"objective_with_se": [], "vjp_with_se": []}

    def spy(name):
        real = getattr(gradcheck, name)

        def recorded(*args):
            seen[name].append(threading.current_thread())
            return real(*args)
        return recorded

    for name in seen:
        monkeypatch.setattr(gradcheck, name, spy(name))
    monkeypatch.setattr(gradcheck, "_workers", lambda tasks: 2)
    run_t2_check(sigma=0.05, n_samples=2000, seed=1, trials=3)
    assert len(seen["vjp_with_se"]) == 3 and not seen["objective_with_se"]
    run_fd_check(frames=3, sigma=0.05, n_samples=2000, seed=1, vectors=2)
    assert len(seen["vjp_with_se"]) == 3 + 2 and len(seen["objective_with_se"]) == 2 * 6
    assert threading.current_thread() not in seen["vjp_with_se"] + seen["objective_with_se"]


def test_pool_size_is_the_usable_cpus_capped_by_the_tasks(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    assert gradcheck._workers(1) == 1
    assert gradcheck._workers(1000) == cpus
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert gradcheck._workers(8) == 3
    assert gradcheck._workers(2) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert gradcheck._workers(8) == 1


def test_estimators_memory_stays_within_their_outputs_and_a_few_blocks():
    # tracemalloc sees numpy's buffers; one [n, T] float64 array is 32 MB here
    n, t = 10**6, 4
    cfg = PerturbConfig(sigma=0.05, n_samples=n, seed=6)
    s = RandomStream(7).gaussian(t)
    g = RandomStream(8).gaussian64((t, t))
    dots_bytes = n * 8
    blocks = 5 * numerics._CHUNK * 8
    assert blocks < dots_bytes / 5
    tracemalloc.start()
    try:
        objective_with_se(s, cfg, g)
        _, objective_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        vjp_with_se(s, cfg, g)
        _, vjp_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # both stream: neither the products nor the draws
    assert objective_peak <= blocks
    assert vjp_peak <= blocks


@pytest.mark.parametrize("t", [2, 4, 8])
def test_gradient_holds_a_few_blocks_and_no_draws(t):
    # at T = 2 and 4 the walk looks rankings up, at 8 it sorts; one [n]
    # float64 array is 8 MB and the [n, T] draws 16 to 64 MB here
    n = 10**6
    cfg = PerturbConfig(sigma=0.05, n_samples=n, seed=6)
    s = RandomStream(7).gaussian(t)
    g = RandomStream(8).gaussian64((t, t))
    tracemalloc.start()
    try:
        grad, _ = vjp_with_se(s, cfg, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * numerics._CHUNK * 8 < n * 8
    assert grad.tobytes() == ranking._score_gradient(
        ranking._objective_sums(s.astype(np.float64), cfg, g).centred, cfg).tobytes()


def test_objective_matches_production_estimator_exactly():
    # one estimate: bitwise within one block and, one draw either side of
    # T's sampler block, across two
    inputs = [(5, 600)] + [(t, numerics._CHUNK // t + edge) for t in (2, 4, 8) for edge in (-1, 1)]
    for t, n in inputs:
        s = RandomStream(2).gaussian(t)
        g = RandomStream(3).gaussian64((t, t))
        cfg = PerturbConfig(0.05, n, seed=9)
        value, _ = objective_with_se(s, cfg, g)
        assert value == perturbed_objective(s, cfg, g)[0], (t, n)


@pytest.mark.parametrize("estimator", [vjp_with_se, objective_with_se])
def test_estimators_validate_scores_and_gradient_matrix(estimator):
    cfg = PerturbConfig(0.05, 100, seed=1)
    s = np.array([0.1, -0.2, 0.3], F32)
    with pytest.raises(ShapeError, match="3x3"):
        estimator(s, cfg, np.ones((2, 2)))
    bad = np.ones((3, 3))
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        estimator(s, cfg, bad)
    with pytest.raises(ValueError, match="finite"):
        estimator(np.array([0.1, np.inf, 0.0], F32), cfg, np.ones((3, 3)))
    with pytest.raises(ShapeError, match="non-empty"):
        estimator(np.zeros(0, F32), cfg, np.ones((0, 0)))
    # one sample has no spread to take a standard error from
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="n_samples"):
            estimator(s, replace(cfg, n_samples=1), np.ones((3, 3)))


def test_checks_refuse_empty_reports():
    with pytest.raises(ValueError, match="trials"):
        run_t2_check(n_samples=100, trials=0)
    with pytest.raises(ValueError, match="frames"):
        run_fd_check(frames=1, n_samples=100)
    with pytest.raises(ValueError, match="vectors"):
        run_fd_check(n_samples=100, vectors=0)


def test_objective_se_tracks_sample_spread():
    s = RandomStream(4).gaussian(4)
    g = RandomStream(5).gaussian64((4, 4))
    vals = []
    for k in range(30):
        v, se = objective_with_se(s, PerturbConfig(0.1, 2000, seed=200 + k), g)
        vals.append(v)
    spread = np.std(vals, ddof=1)
    assert 0.5 * se < spread < 2.0 * se


def test_run_t2_check_passes_at_production_scale():
    report = run_t2_check(sigma=0.05, n_samples=100_000, seed=20260821, trials=10)
    assert report.passed
    assert report.worst < 0.05
    assert len(report.rows) == 10


def test_run_t2_check_fails_with_hopeless_statistics():
    # n=50 leaves the Monte Carlo error far above the 5% gate
    report = run_t2_check(sigma=0.05, n_samples=50, seed=0, trials=10)
    assert not report.passed


def test_run_fd_check_passes_at_production_scale():
    report = run_fd_check(frames=4, sigma=0.05, n_samples=1_000_000,
                          seed=20260821, vectors=3)
    assert report.passed
    assert len(report.rows) == 12


def test_report_aggregation():
    rows = (
        CheckRow("a", 1.0, 1.01, 0.01, True),
        CheckRow("b", 1.0, 1.30, 0.30, False),
    )
    report = CheckReport("demo", rows)
    assert not report.passed
    assert report.worst == 0.30
    assert CheckReport("ok", rows[:1]).passed
