"""Statistical verification of the Monte Carlo ranking gradient.

Both oracles judge the production gradient itself: ``vjp_with_se``
takes its estimate from ``ranking._score_gradient``, the function that
``perturbed_objective`` and so the trainer call, looked up through the
``ranking`` module so that a fault there reaches every caller.  Two
independent routes check it:

* For two frames the smoothed ranking has a closed form: the chance that
  frame 0 outranks frame 1 is Phi((a - b) / (sigma * sqrt(2))), since the
  perturbed score gap is Gaussian with variance 2 sigma^2.  Its exact
  derivative is the matching Gaussian density.
* For larger T the estimator is compared against central finite
  differences of the smoothed objective <G, rank(s)>, each endpoint
  re-estimated with fresh draws, with agreement measured in combined
  standard errors rather than absolute tolerance.

No estimate of either check shares state with another, so each check
queues all of its estimates at once (``_on_pool``) on a thread pool of
``_workers`` threads, the CPUs the process may use, capped at the task
count, and the calling thread only collects the results in submission
order; numpy releases the GIL in the draws, the ranking and the gathers.
The finite-difference check queues each vector's gradient ahead of its
endpoints.  Each estimate keeps its own seed, so the rows are bitwise
those of a serial loop.  An estimate in flight holds a few sampler
blocks and O(T) sums: each is one pass of ``ranking._objective_sums``,
which streams the value's and, for a gradient, the gradient's centred
second moments and keeps no draw and no per-sample product.  Both
standard errors are one closed form (``ranking._standard_error``) over
those moments, so no estimate walks its samples twice or builds an
array whose size grows with ``n_samples``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import ranking
from .numerics import F32, RandomStream
from .ranking import PerturbConfig, _check_objective, _standard_error

# pass thresholds: relative error against the closed form, and the
# finite-difference disagreement in combined standard errors
T2_REL_TOL = 0.05
FD_SE_LIMIT = 3.0
# finite-difference step as a fraction of sigma (see run_fd_check)
FD_DELTA_PER_SIGMA = 0.2


@dataclass(frozen=True)
class CheckRow:
    label: str
    analytic: float
    estimate: float
    error: float      # relative error (closed form) or |diff| / se (fd)
    passed: bool


@dataclass(frozen=True)
class CheckReport:
    name: str
    rows: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def worst(self) -> float:
        return max(r.error for r in self.rows)


def t2_top_prob(a: float, b: float, sigma: float) -> float:
    """P(frame 0 ranked first) for scores (a, b) under the smoothing."""
    return 0.5 * math.erfc(-(a - b) / (2.0 * sigma))


def t2_top_prob_grad(a: float, b: float, sigma: float) -> float:
    """Exact d/da of t2_top_prob: the Gaussian density at the score gap."""
    u = (a - b) / (sigma * np.sqrt(2.0))
    return float(np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi) / (sigma * np.sqrt(2.0)))


def _workers(tasks: int) -> int:
    """Threads for ``tasks`` independent estimates: no more than the CPUs
    this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, tasks)


def _on_pool(calls: list[tuple]) -> list:
    """Run each call (fn, *args) as one task on a pool of ``_workers``
    threads, all queued at once so that the pool never idles between
    them, and return their results in call order.  A queued task holds
    only its inputs."""
    # imported here: the pool's modules add ~0.4 MB of resident memory to
    # every process that imports gradcheck, grad-check or not
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(_workers(len(calls)))
    try:
        futures = [pool.submit(*call) for call in calls]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def vjp_with_se(s, cfg: PerturbConfig, grad_matrix: np.ndarray):
    """The production MC gradient of <G, smoothed rank(s)>, kept in
    float64 (perturbed_objective rounds it to float32), and its
    per-coordinate standard error over the same centred samples.

    With d = dots - mean(dots), the per-sample gradients d_j z_j / sigma
    average to the gradient g, so their squared spread about it is
    sum_j d_j^2 z_ji^2 / sigma^2 - n g_i^2, from the second moments that
    the gradient's own streaming pass adds up."""
    s64, g = _check_objective(s, grad_matrix)
    sums = ranking._objective_sums(s64, cfg, g, spread=True)
    grad = ranking._score_gradient(sums.centred, cfg)
    moment = sums.grad_moment / cfg.sigma ** 2 - cfg.n_samples * grad * grad
    return grad, _standard_error(moment, cfg)


def objective_with_se(s, cfg: PerturbConfig, grad_matrix: np.ndarray):
    """MC value of <G, smoothed rank(s)> and its standard error, from the
    same streaming pass as the gradient's."""
    s64, g = _check_objective(s, grad_matrix)
    sums = ranking._objective_sums(s64, cfg, g)
    return float(sums.mean), float(_standard_error(sums.value_moment, cfg))


def run_t2_check(sigma: float = 0.05, n_samples: int = 100_000, seed: int = 0,
                 trials: int = 10) -> CheckReport:
    """Compare the MC top-probability gradient against the closed form over
    score pairs whose gap spans the smoothing scale (|a-b| <= 3 sigma)."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    stream = RandomStream(seed)
    g = np.zeros((2, 2))
    g[0, 0] = 1.0  # pick out P(frame 0 first)
    pairs = []
    for trial in range(trials):
        a = float(stream.gaussian64(())) * sigma
        # spread the gaps over (0, 3 sigma]: u cycles through fixed fractions
        gap = sigma * (0.1 + 2.9 * trial / max(trials - 1, 1))
        pairs.append((a, a - gap if trial % 2 == 0 else a + gap))
    estimates = _on_pool([
        (vjp_with_se, np.array([a, b], F32),
         PerturbConfig(sigma=sigma, n_samples=n_samples, seed=seed + 101 + trial), g)
        for trial, (a, b) in enumerate(pairs)])
    rows = []
    for trial, ((a, b), (grad, _)) in enumerate(zip(pairs, estimates)):
        exact = t2_top_prob_grad(a, b, sigma)
        rel = abs(grad[0] - exact) / abs(exact)
        rows.append(CheckRow(
            label=f"pair {trial}: gap={b - a:+.4f}",
            analytic=exact, estimate=float(grad[0]),
            error=float(rel), passed=bool(rel < T2_REL_TOL),
        ))
    return CheckReport("closed-form (T=2)", tuple(rows))


def _shifted(s: np.ndarray, delta: float):
    """The finite-difference endpoints of s: coordinate 0 up by delta,
    then down, then coordinate 1 up, and so on."""
    for i in range(s.shape[0]):
        for step in (delta, -delta):
            x = s.copy()
            x[i] += F32(step)
            yield x


def run_fd_check(frames: int = 4, sigma: float = 0.05, n_samples: int = 100_000,
                 seed: int = 0, vectors: int = 5) -> CheckReport:
    """Compare the MC gradient with central finite differences of the
    smoothed objective, each endpoint re-estimated with fresh seeds.

    Agreement is judged per coordinate as |mc - fd| in units of the
    combined standard error of the two estimates.  The step keeps the
    O(delta^2) curvature error of the central difference well under one
    standard error; widening it past ~0.4 sigma makes the check fail for
    reasons that have nothing to do with the estimator."""
    if frames < 2 or vectors < 1:
        raise ValueError(f"need frames >= 2 and vectors >= 1, got {frames} and {vectors}")
    delta = FD_DELTA_PER_SIGMA * sigma
    stream = RandomStream(seed)
    inputs = []
    for v in range(vectors):
        s = (stream.gaussian64(frames) * 2 * sigma).astype(F32)
        g = stream.gaussian64((frames, frames))
        inputs.append((s, g, PerturbConfig(sigma=sigma, n_samples=n_samples,
                                           seed=seed + 1000 + 7919 * v)))
    calls = []  # each vector's gradient, then its 2 * frames endpoints
    for s, g, base in inputs:
        calls.append((vjp_with_se, s, base, g))
        calls += [(objective_with_se, x, replace(base, seed=base.seed + k), g)
                  for k, x in enumerate(_shifted(s, delta), start=1)]
    estimates = _on_pool(calls)
    rows = []
    per_vector = 2 * frames + 1
    for v in range(vectors):
        (grad, grad_se), *ends = estimates[v * per_vector:(v + 1) * per_vector]
        for i in range(frames):
            (f_up, se_up), (f_dn, se_dn) = ends[2 * i], ends[2 * i + 1]
            fd = (f_up - f_dn) / (2 * delta)
            fd_se = np.sqrt(se_up ** 2 + se_dn ** 2) / (2 * delta)
            combined = float(np.sqrt(grad_se[i] ** 2 + fd_se ** 2))
            err = abs(float(grad[i]) - fd) / combined
            rows.append(CheckRow(
                label=f"vector {v} coord {i}",
                analytic=fd, estimate=float(grad[i]),
                error=err, passed=bool(err < FD_SE_LIMIT),
            ))
    return CheckReport(f"finite differences (T={frames})", tuple(rows))
