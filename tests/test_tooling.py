"""The benchmark's tracer binds program functions by name; keep them resolvable,
and keep the import cost of every CLI call small."""

import importlib
import importlib.util
import os
import subprocess
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


def test_no_scipy_import():
    """Importing kstretch and solving a threshold leave scipy unloaded: its
    import alone costs about half a second and tens of MB of resident memory
    in every CLI call."""
    code = (
        "import contextlib, io, sys\n"
        "import kstretch\n"
        "from kstretch.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        main(['threshold', '--n', '10', '--f', 'all'])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
