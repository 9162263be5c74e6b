"""Every span target of the perfbench tracer names a function in hqcsim."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, *_ in tracing.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_trace_target_exists(module, attr):
    owner = importlib.import_module(f"hqcsim.{module}")
    for part in attr.split("."):
        assert hasattr(owner, part), f"hqcsim.{module} has no {attr}"
        owner = getattr(owner, part)
    assert callable(owner)
