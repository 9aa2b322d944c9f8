"""The benchmark's tracer binds program functions by name; keep them resolvable."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


@pytest.mark.parametrize("key,target", sorted(tracer_targets().items()))
def test_tracer_target_resolves(key, target):
    """Every (module, attribute) the tracer wraps exists, so a rename cannot
    silently drop a span from `perfbench/run.py --trace 1`."""
    module_name, attr = target
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{key}: {module_name}.{attr} is gone"
        owner = getattr(owner, part)
    assert callable(owner), key
