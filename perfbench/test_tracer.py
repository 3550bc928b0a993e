"""The tracer must be transparent: traced ops give bitwise the outputs of
untraced ones, every wrapped attribute is the original object again
afterwards, and the counted flops of every forward stage equal the
analytic model's.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import drca  # noqa: E402
from drca import dccm, model, numerics  # noqa: E402
from drca.numerics import RandomStream  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import STAGES, Tracer  # noqa: E402


def _traced(fn):
    tracer = Tracer()
    with tracer.installed(), tracer.op(0):
        out = fn()
    return tracer, out


@pytest.mark.parametrize("name", ["toy", "DRCA-S-K4"])
def test_forward_traced_bitwise_and_zero_flop_gap(name):
    config = model.ModelConfig.toy() if name == "toy" else model.ModelConfig.from_name(name)
    params = model.init_params(config, seed=0)
    video = RandomStream(1).gaussian((config.frames, config.height, config.width, 3))
    plain = model.forward(video, params, config)
    tracer, traced = _traced(lambda: model.forward(video, params, config))

    assert traced.output.tobytes() == plain.output.tobytes()
    assert traced.scores.tobytes() == plain.scores.tobytes()
    assert np.array_equal(traced.selected_times, plain.selected_times)
    stages = tracer.stages()
    assert set(stages) == set(STAGES) | {"model.forward.self"}
    for stage, row in stages.items():
        assert row["counted"] == row["analytic"], stage
    assert all(row["analytic"] > 0 for row in stages.values())
    assert tracer.totals()["model.forward"]["calls"] == 1


def test_toy_train_op_traced_bitwise():
    plain_wl, traced_wl = workloads.ToyTrain(0), workloads.ToyTrain(0)
    plain = plain_wl.op(None)
    _, traced = _traced(lambda: traced_wl.op(None))
    assert traced == plain
    for field in ("conv_kernel", "w1", "b1", "w2", "b2"):
        assert getattr(traced_wl.params, field).tobytes() == getattr(plain_wl.params, field).tobytes()


def test_originals_restored_even_after_an_error():
    before = {key: dict(vars(m)) for key, m in sys.modules.items()
              if key == "drca" or key.startswith("drca.")}
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            # names imported directly are wrapped where their callers look
            assert model.dccm_forward.__wrapped__ is before["drca.dccm"]["dccm_forward"]
            assert dccm.perturbed_objective.__wrapped__ is before["drca.ranking"]["perturbed_objective"]
            raise RuntimeError("abort mid-trace")
    patched = {(getattr(owner, "__name__", owner), attr) for owner, attr, _ in tracer.patches}
    assert {("drca.model", "dccm_forward"), ("drca.dccm", "perturbed_objective"),
            ("drca.numerics", "gelu"), ("RandomStream", "gaussian64")} <= patched
    for owner, attr, original in tracer.patches:
        assert getattr(owner, attr) is original
    after = {key: dict(vars(m)) for key, m in sys.modules.items() if key in before}
    for key, names in before.items():
        assert all(after[key][attr] is value for attr, value in names.items()), key
    assert drca.forward is model.forward


def test_calls_outside_an_op_are_not_recorded():
    tracer = Tracer()
    with tracer.installed():
        numerics.gelu(np.ones(4, np.float32))
        with tracer.op(0):
            numerics.gelu(np.ones(4, np.float32))
    assert [s[0] for s in tracer.spans] == ["op", "numerics.gelu"]


def test_benchmark_json_names_the_emitted_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run._per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
