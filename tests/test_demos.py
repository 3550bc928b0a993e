"""The quick demos run to completion as scripts."""

import os
import pathlib
import subprocess
import sys

import pytest

import drca

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"
QUICK = ("compression_pipeline", "flops_accounting", "gradient_through_ranking",
         "ranking_basics")
# trains for about half a minute, so it is run by hand
SLOW = ("toy_training",)


def test_every_demo_is_listed():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(QUICK + SLOW)


@pytest.mark.parametrize("name", QUICK)
def test_demo_exits_0(name):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(drca.__file__)))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
