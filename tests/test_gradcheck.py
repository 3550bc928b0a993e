"""The gradient verification harness itself: closed forms, standard
errors, and the pass/fail plumbing."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

from drca import gradcheck, ranking
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


def test_vjp_matches_production_estimator():
    # one gradient formula: the oracles' float64 estimate is bitwise the
    # shared function's, and rounds to exactly what training receives
    s = RandomStream(2).gaussian(5)
    g = RandomStream(3).gaussian64((5, 5))
    cfg = PerturbConfig(0.05, 600, seed=9)
    grad, _ = vjp_with_se(s, cfg, g)
    dots, z = ranking._objective_samples(s, cfg, g)
    assert grad.dtype == np.float64
    assert grad.tobytes() == ranking._score_gradient(dots, z, cfg).tobytes()
    _, ds = perturbed_objective(s, cfg, g)
    assert grad.astype(F32).tobytes() == ds.tobytes()


# faults planted once in the shared gradient, each built from the real one
_PLANTED = {
    "sign flip": lambda grad: lambda dots, z, cfg: -grad(dots, z, cfg),
    "missing 1/sigma": lambda grad: lambda dots, z, cfg: grad(dots, z, cfg) * cfg.sigma,
    "sigma off by 10%": lambda grad: lambda dots, z, cfg: grad(
        dots, z, replace(cfg, sigma=cfg.sigma * 1.1)),
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
    dots, z = ranking._objective_samples(s, cfg, g)
    assert perturbed_objective(s, cfg, g)[1].tobytes() == faulty(dots, z, cfg).astype(F32).tobytes()
    # ... and both oracles catch it
    assert not run_t2_check(**_PLANTED_AT).passed
    assert not run_fd_check(**_PLANTED_AT).passed


def test_objective_matches_production_estimator_exactly():
    s = RandomStream(2).gaussian(5)
    g = RandomStream(3).gaussian64((5, 5))
    cfg = PerturbConfig(0.05, 600, seed=9)
    value, _ = objective_with_se(s, cfg, g)
    assert value == perturbed_objective(s, cfg, g)[0]


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
