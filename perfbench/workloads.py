"""The benchmark's three workloads.

Each workload builds its state from the workload seed in ``__init__``
(the set-up that ``setup_s`` times), makes the input of op ``i`` from
the seed with ``make_input``, runs one op through the package's public
functions with ``op``, and checks the op's outputs with ``check``, which
returns a description of the first violated invariant or ``None``.
``record`` reduces an op's outputs to the JSON values kept in
``reference.json`` and ``compare`` checks them against the recorded ones.

All three are closed loops with one client: the runner starts op ``i+1``
when op ``i`` has finished.
"""

from __future__ import annotations

import math

import numpy as np

from drca import dccm, flops, gradcheck, model, ranking
from drca.numerics import RandomStream

DEFAULT_SEED = 0


def sub_seed(seed: int, *keys: int) -> int:
    """An independent 63-bit stream seed for (seed, *keys)."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(2, np.uint32)
    return (int(state[0]) << 31) | (int(state[1]) >> 1)


def _close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * max(abs(ref), 1e-30)


class ForwardSK4:
    """One ``model.forward`` in infer mode on DRCA-S-K4 per op, each on a
    fresh seeded clip; BLAS and elementwise bound, almost all in ``rat``."""

    name = "forward-s-k4"
    # logits within this share of the largest reference logit; selected
    # frames exact
    LOGIT_TOL = 1e-4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = model.ModelConfig.from_name("DRCA-S-K4")
        self.params = model.init_params(self.config, seed=sub_seed(seed, 0))
        self.flops_per_op = flops.count_flops(self.config).total

    def make_input(self, i: int) -> np.ndarray:
        c = self.config
        return RandomStream(sub_seed(self.seed, 1, i)).gaussian((c.frames, c.height, c.width, 3))

    def op(self, video: np.ndarray) -> model.ModelOutput:
        return model.forward(video, self.params, self.config)

    def check(self, out: model.ModelOutput):
        if not np.all(np.isfinite(out.output)):
            return "non-finite logits"
        if not np.all(np.isfinite(out.scores)):
            return "non-finite scores"
        expect = ranking.hard_rank(out.scores).order[: self.config.saliency_count]
        if not np.array_equal(out.selected_times, expect):
            return f"selected_times {out.selected_times} != top-K of scores {expect}"
        return None

    @staticmethod
    def record(out: model.ModelOutput) -> dict:
        return {"logits": out.output.tolist(),
                "selected_times": out.selected_times.tolist()}

    def compare(self, got: dict, ref: dict):
        if got["selected_times"] != ref["selected_times"]:
            return f"selected_times {got['selected_times']} != reference {ref['selected_times']}"
        logits, expect = np.array(got["logits"]), np.array(ref["logits"])
        gap = float(np.max(np.abs(logits - expect)))
        if gap > self.LOGIT_TOL * float(np.max(np.abs(expect))):
            return f"logits differ from reference by {gap:.3g}"
        return None


class ToyTrain:
    """One ``dccm.toy_train_scorenet`` call per op on the default
    planted-saliency recipe (200+50 videos, T=8, K=2, sigma 0.2, 500
    samples, lr 0.01), resuming from the previous call's parameters.
    Thousands of tiny kernel calls: dispatch overhead, not flops."""

    name = "toy-train"
    flops_per_op = None
    STEPS_PER_OP = 2
    # loss within this relative tolerance of the reference; accuracy exact
    LOSS_TOL = 1e-6

    def __init__(self, seed: int) -> None:
        videos = dccm.make_planted_dataset(250, frames=8, salient_count=2, seed=seed)
        self.train, self.holdout = videos[:200], videos[200:]
        self.params = dccm.ScoreNetParams.init(
            8, 4, 8, RandomStream(seed + 1), scale=0.1, zero_final=True)
        self.perturb = ranking.PerturbConfig(sigma=0.2, n_samples=500, seed=seed + 2)
        self.last_row = None

    def make_input(self, i: int) -> None:
        return None

    def op(self, _) -> list[dccm.TraceRow]:
        self.params, trace = dccm.toy_train_scorenet(
            self.train, self.holdout, self.params, k=2,
            steps=self.STEPS_PER_OP, lr=0.01, cfg=self.perturb)
        return trace

    def check(self, trace: list[dccm.TraceRow]):
        previous, self.last_row = self.last_row, trace[-1]
        if len(trace) != self.STEPS_PER_OP + 1:
            return f"{len(trace)} trace rows for {self.STEPS_PER_OP} steps"
        if not all(math.isfinite(r.loss) and 0.0 <= r.accuracy <= 1.0 for r in trace):
            return "non-finite loss or accuracy outside [0, 1]"
        # chunked and contiguous schedules must walk the same trajectory
        if previous is not None and trace[0][1:] != previous[1:]:
            return f"first row {tuple(trace[0])} != previous call's last row {tuple(previous)}"
        return None

    @staticmethod
    def record(trace: list[dccm.TraceRow]) -> dict:
        return {"loss": [r.loss for r in trace], "accuracy": [r.accuracy for r in trace]}

    def compare(self, got: dict, ref: dict):
        if got["accuracy"] != ref["accuracy"]:
            return f"accuracy {got['accuracy']} != reference {ref['accuracy']}"
        if not all(_close(a, b, self.LOSS_TOL) for a, b in zip(got["loss"], ref["loss"])):
            return f"loss {got['loss']} != reference {ref['loss']}"
        return None


class GradCheck:
    """One ``gradcheck.run_t2_check`` plus one ``gradcheck.run_fd_check``
    per op at the ``drca grad-check`` defaults, with the op seed derived
    from the workload seed: the ranking estimator at n = 100 000."""

    name = "grad-check"
    flops_per_op = None
    SIGMA, N_SAMPLES, FRAMES, TRIALS, VECTORS = 0.05, 100_000, 4, 10, 5
    # The program's own verdicts (5% relative error, 3 combined standard
    # errors) are false alarms at these defaults at about one op seed in
    # five (seeds 0-99: 13 fail the T=2 check, 7 the finite-difference
    # check), so a FAIL row is counted in gradcheck.rows_failed, not as a
    # failed op.  An op fails when a row misses its oracle by more than six
    # standard errors.  For T=2 each per-sample term is at most |z| / sigma,
    # so 1 / (sigma sqrt(n)) bounds the standard error from above.
    T2_MAX_ABS_ERROR = 6 / (SIGMA * math.sqrt(N_SAMPLES))
    FD_MAX_SE_UNITS = 6.0
    # analytic, estimate and error within this relative tolerance of the
    # reference; verdicts exact
    ROW_TOL = 1e-9

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def make_input(self, i: int) -> int:
        return sub_seed(self.seed, 2, i)

    def op(self, op_seed: int) -> tuple[gradcheck.CheckReport, gradcheck.CheckReport]:
        closed = gradcheck.run_t2_check(sigma=self.SIGMA, n_samples=self.N_SAMPLES,
                                        seed=op_seed, trials=self.TRIALS)
        fd = gradcheck.run_fd_check(frames=self.FRAMES, sigma=self.SIGMA,
                                    n_samples=self.N_SAMPLES, seed=op_seed,
                                    vectors=self.VECTORS)
        return closed, fd

    def check(self, reports):
        closed, fd = reports
        for report, rows in ((closed, self.TRIALS), (fd, self.FRAMES * self.VECTORS)):
            if len(report.rows) != rows:
                return f"{report.name}: {len(report.rows)} rows, expected {rows}"
        for r in closed.rows:
            if not abs(r.estimate - r.analytic) <= self.T2_MAX_ABS_ERROR:
                return f"{closed.name} {r.label}: estimate {r.estimate} vs exact {r.analytic}"
        for r in fd.rows:
            if not r.error <= self.FD_MAX_SE_UNITS:
                return f"{fd.name} {r.label}: {r.error:.2f} standard errors from the oracle"
        return None

    @staticmethod
    def rows_failed(reports) -> int:
        return sum(not r.passed for report in reports for r in report.rows)

    @staticmethod
    def record(reports) -> dict:
        return {"rows": [[r.analytic, r.estimate, r.error, r.passed]
                         for report in reports for r in report.rows]}

    def compare(self, got: dict, ref: dict):
        if len(got["rows"]) != len(ref["rows"]):
            return "row count differs from reference"
        for i, (row, expect) in enumerate(zip(got["rows"], ref["rows"])):
            if row[3] != expect[3] or not all(
                    _close(a, b, self.ROW_TOL) for a, b in zip(row[:3], expect[:3])):
                return f"check row {i} {row} != reference {expect}"
        return None


WORKLOADS = {w.name: w for w in (ForwardSK4, ToyTrain, GradCheck)}
