"""drca benchmark runner.

Runs one workload (or ``all`` of them, one after another in this process)
as a closed loop with one client, checks every op's outputs, and prints
the metrics by name with their units.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of an untraced run;
with ``--trace 1`` they are the per-layer ones of a traced run, which
also prints a per-stage and per-kernel table.  Each run writes its
environment, counts and failures to ``perfbench/out/<workload>-trace<0|1>.json``,
the traced run every span as well.

Run from the repository root:
    python3 perfbench/run.py --workload forward-s-k4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1

BLAS keeps its default thread count and the benchmark starts no worker
processes besides the sequential set-up probes.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
NAMES = ("forward-s-k4", "toy-train", "grad-check")
# set-ups per run, each in a fresh interpreter; setup_s is their median
SETUP_REPEATS = 5
# share of a traced run spent untraced, to measure the tracing overhead
UNTRACED_SHARE = 1 / 3

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def _per_layer_spec():
    from tracer import KERNELS, STAGES
    spec = []
    for k in KERNELS:
        spec += [(f"numerics.{k}.time_s", "s", "lower"),
                 (f"numerics.{k}.calls", "count", "lower"),
                 (f"numerics.{k}.gflops_per_s", "GF/s", "higher"),
                 (f"numerics.{k}.bytes", "B", "lower")]
    for s in STAGES:
        spec += [(f"{s}.time_s", "s", "lower"),
                 (f"{s}.gflops_per_s", "GF/s", "higher"),
                 (f"{s}.flop_gap", "flops", "lower")]
    spec += [
        ("model.forward.self_s", "s", "lower"),
        ("dccm.score_net_forward.time_s", "s", "lower"),
        ("dccm.score_net_forward.calls", "count", "lower"),
        ("dccm.score_net_backward.time_s", "s", "lower"),
        ("dccm.score_net_backward.calls", "count", "lower"),
        ("ranking.perturbed_objective.time_s", "s", "lower"),
        ("ranking.perturbed_objective.calls", "count", "lower"),
        ("dccm.selection_accuracy.time_s", "s", "lower"),
        ("dccm.toy_train_scorenet.self_s", "s", "lower"),
        ("gradcheck.run_t2_check.time_s", "s", "lower"),
        ("gradcheck.run_fd_check.time_s", "s", "lower"),
        ("gradcheck.vjp_with_se.time_s", "s", "lower"),
        ("gradcheck.vjp_with_se.calls", "count", "lower"),
        ("gradcheck.objective_with_se.time_s", "s", "lower"),
        ("gradcheck.objective_with_se.calls", "count", "lower"),
        ("numerics.RandomStream.gaussian64.time_s", "s", "lower"),
        ("ranking.samples_drawn", "count", "lower"),
        ("gradcheck.rows_failed", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return spec


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def setup_seconds(name: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


class Loop:
    """Closed loop over one workload: op i+1 starts when op i is done."""

    def __init__(self, workload, reference: list) -> None:
        self.workload = workload
        self.reference = reference
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rows_failed = 0

    def step(self, tracer=None) -> tuple[float, bool]:
        """Run, time and check one op; returns (latency, ok)."""
        wl, i = self.workload, self.next_op
        self.next_op += 1
        self.attempted += 1
        x = wl.make_input(i)
        start = time.perf_counter()
        try:
            if tracer is None:
                out = wl.op(x)
            else:
                with tracer.op(i):
                    out = wl.op(x)
            latency = time.perf_counter() - start
            problem = wl.check(out)
            if problem is None and i < len(self.reference):
                problem = wl.compare(wl.record(out), self.reference[i])
            if hasattr(wl, "rows_failed"):
                self.rows_failed += wl.rows_failed(out)
        except Exception:  # an op that raises is a failed op, not a crashed run
            latency = time.perf_counter() - start
            problem = traceback.format_exc(limit=-3).strip().replace("\n", " | ")
        if problem is not None:
            self.failed += 1
            self.problems.append(f"op {i}: {problem}")
        return latency, problem is None

    def run(self, seconds: float, tracer=None) -> tuple[list[float], int, float]:
        """Ops for `seconds`; returns (latencies, successful ops, wall)."""
        latencies, ok_ops = [], 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            latency, ok = self.step(tracer)
            latencies.append(latency)
            ok_ops += ok
        return latencies, ok_ops, time.perf_counter() - start


def _reference(name: str, seed: int) -> list:
    from workloads import DEFAULT_SEED
    if seed != DEFAULT_SEED:
        return []
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)[name]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(name: str, seed: int, seconds: float):
    """Returns (loop, result, None)."""
    from workloads import WORKLOADS
    setup = setup_seconds(name, seed)
    wl = WORKLOADS[name](seed)
    loop = Loop(wl, _reference(name, seed))
    loop.step()  # warm-up: caches filled and lazy set-up done before timing
    latencies, ok_ops, wall = loop.run(seconds)
    metrics = {
        "setup_s": _metric(setup, "s"),
        "op_p50_s": _metric(statistics.median(latencies), "s"),
        "ops_per_s": _metric(ok_ops / wall, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"ops_timed": len(latencies), "failed_frac": loop.failed / loop.attempted}
    if wl.flops_per_op is not None:
        extra["gflops_per_s"] = wl.flops_per_op * ok_ops / wall / 1e9
    for key, m in metrics.items():
        print(f"{name} {key} = {m['value']:.6g} {m['unit']}")
    if "gflops_per_s" in extra:
        print(f"{name} gflops_per_s = {extra['gflops_per_s']:.6g} GF/s")
    print(f"{name} failed_frac = {extra['failed_frac']:.6g} "
          f"({loop.failed} of {loop.attempted} ops, {len(latencies)} timed)")
    if hasattr(wl, "rows_failed"):
        extra["rows_failed"] = loop.rows_failed
        print(f"{name} rows with a FAIL verdict = {loop.rows_failed} over {loop.attempted} ops")
    return loop, {"metrics": metrics, **extra}, None


def run_traced(name: str, seed: int, seconds: float):
    """Returns (loop, result, tracer)."""
    from tracer import Tracer
    from workloads import WORKLOADS
    wl = WORKLOADS[name](seed)
    loop = Loop(wl, _reference(name, seed))
    loop.step()
    untraced, _, _ = loop.run(seconds * UNTRACED_SHARE)
    tracer = Tracer()
    rows_before = loop.rows_failed
    with tracer.installed():
        traced, _, _ = loop.run(seconds * (1 - UNTRACED_SHARE), tracer)
    p50_traced, p50_untraced = statistics.median(traced), statistics.median(untraced)
    totals, stages = tracer.totals(), tracer.stages()
    ops = len(traced)
    special = {
        "model.forward.self_s": stages["model.forward.self"]["time_s"] / ops,
        "ranking.samples_drawn":
            totals.get("numerics.RandomStream.gaussian64", {}).get("items", 0) / ops,
        "gradcheck.rows_failed": (loop.rows_failed - rows_before) / ops,
        "trace.overhead_s": p50_traced - p50_untraced,
    }
    metrics = {}
    for metric, unit, _ in _per_layer_spec():
        value = special.get(metric)
        if value is None:
            value = _layer_value(metric, totals, stages, ops)
        metrics[metric] = _metric(value, unit)
    print_table(name, totals, stages, ops)
    print(f"{name} trace overhead = {p50_traced - p50_untraced:.6g} s per op "
          f"(op p50 {p50_traced:.6g} s traced, {p50_untraced:.6g} s untraced)")
    return loop, {"metrics": metrics, "ops_traced": ops, "op_p50_untraced_s": p50_untraced,
                  "op_p50_traced_s": p50_traced}, tracer


def _layer_value(metric: str, totals: dict, stages: dict, ops: int) -> float:
    """`<stage>.{time_s,gflops_per_s,flop_gap}` from the forward stages
    (analytic flops), `<span>.{time_s,self_s,calls,bytes,gflops_per_s}`
    from the span totals (counted flops); all per op except the rates."""
    prefix, field = metric.rsplit(".", 1)
    if prefix in stages:
        row = stages[prefix]
        if field == "gflops_per_s":
            return _rate(row["analytic"], row["time_s"])
        if field == "flop_gap":
            return (row["counted"] - row["analytic"]) / ops
        return row[field] / ops
    row = totals.get(prefix)
    if row is None:
        return 0.0
    if field == "gflops_per_s":
        return _rate(row["flops"], row["time_s"])
    return row[field] / ops


def _rate(flops: float, seconds: float) -> float:
    return flops / seconds / 1e9 if seconds > 0 else 0.0


def print_table(name: str, totals: dict, stages: dict, ops: int) -> None:
    """Share of wall time against share of flops, with GF/s, per stage
    (analytic flops) and per traced function (counted flops)."""
    op_time, op_flops = totals["op"]["time_s"], totals["op"]["flops"]
    print(f"# {name}: {ops} traced ops, {op_time / ops:.4f} s and "
          f"{op_flops / ops / 1e9:.3f} counted GF per op")
    if totals.get("model.forward"):
        analytic = sum(row["analytic"] for row in stages.values())
        print(f"{'stage':<28}{'s/op':>10}{'time%':>8}{'flop%':>8}{'GF/s':>9}{'flop_gap':>10}")
        for stage, row in stages.items():
            gap = row["counted"] - row["analytic"]
            print(f"{stage:<28}{row['time_s'] / ops:>10.4f}{100 * row['time_s'] / op_time:>8.1f}"
                  f"{100 * row['analytic'] / analytic:>8.2f}"
                  f"{_rate(row['analytic'], row['time_s']):>9.1f}{gap:>10}")
    print(f"{'function':<36}{'calls/op':>10}{'s/op':>10}{'self s/op':>10}"
          f"{'time%':>8}{'flop%':>8}{'GF/s':>9}")
    for fn, row in sorted(totals.items(), key=lambda kv: -kv[1]["time_s"]):
        if fn == "op":
            continue
        print(f"{fn:<36}{row['calls'] / ops:>10.1f}{row['time_s'] / ops:>10.4f}"
              f"{row['self_s'] / ops:>10.4f}{100 * row['time_s'] / op_time:>8.1f}"
              f"{100 * row['flops'] / op_flops if op_flops else 0.0:>8.2f}"
              f"{_rate(row['flops'], row['time_s']):>9.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "drca", "__init__.py")):
        print(f"error: no drca sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    names = NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    run = run_traced if args.trace else run_untraced
    for name in names:
        loop, result, tracer = run(name, args.seed, args.seconds)
        attempted += loop.attempted
        failed += loop.failed
        for problem in loop.problems[:5]:
            print(f"{name} FAILED {problem}")
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in result["metrics"].items()})
        header = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "attempted": loop.attempted,
                  "failed": loop.failed, "problems": loop.problems, **result}
        path = os.path.join(OUT, f"{name}-trace{args.trace}.json")
        if tracer is None:
            with open(path, "w") as f:
                json.dump(header, f)
        else:
            tracer.write(path, header)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
