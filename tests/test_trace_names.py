"""Every function the benchmark's tracer wraps must exist in the package.

The tracer registers a missing function as absent and reports zero calls
for it, so a renamed stage would otherwise vanish from traces silently.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_entries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module, owner, attr", traced_entries())
def test_traced_name_resolves(module, owner, attr):
    target = importlib.import_module(f"xcrossnet.{module}")
    if owner is not None:
        target = getattr(target, owner)
    assert callable(getattr(target, attr))
