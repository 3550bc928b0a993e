"""The benchmark tracer wraps package functions by name; a rename or a
deletion must fail here rather than break every traced benchmark run."""

import importlib.util
import pathlib

# the tracer resolves names through sys.modules, so import every module
from drca import dccm, gradcheck, model, numerics, ranking, rat  # noqa: F401

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.TRACED) > 0
    for name in tracer.TRACED:
        assert callable(tracer._resolve(name)), name
