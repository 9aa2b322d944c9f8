"""The benchmark's tracer and workloads bind program functions by name; keep
them resolvable and callable, and keep the import cost of every CLI call small."""

import contextlib
import importlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kstretch import cli
from oracles import paper_bound_i, paper_bound_v

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    """Execute perfbench/<name>.py as a module, with perfbench/ importable for
    its sibling imports; sys.path and the perfbench entries of sys.modules
    are restored afterwards."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        for key in set(sys.modules) - saved_modules:
            if key == spec.name or str(PERFBENCH) in str(getattr(sys.modules[key], "__file__", "")):
                del sys.modules[key]
    return module


def tracer_targets() -> dict:
    return load_perfbench("tracer").TARGETS


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


def test_benchmark_workloads_call_bounds():
    """perfbench/workloads.py builds measurements and calls BoundInputs,
    bound_i and bound_v itself, so a change to that API breaks the benchmark;
    its bounds must import, run and equal the paper-form oracle."""
    workloads = load_perfbench("workloads")
    m = workloads.measurement(3, 1, 9)
    i_bd, v_bd = workloads.isotropic_bounds(m, 10, -7)
    assert type(i_bd) is float and type(v_bd) is float
    assert i_bd == pytest.approx(paper_bound_i(m, 10, -7), rel=1e-12, abs=0)
    scale = m.beta * (4 * 10 + 2 * workloads.max_sum_squares(10, -7))
    assert v_bd == pytest.approx(paper_bound_v(m, 10, -7), rel=0, abs=1e-12 * scale)


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


def test_tracer_counts_threshold_lhs_evaluations():
    """Every LHS evaluation of the threshold solver goes through
    `criterion_lhs_isotropic`, so the tracer's lhs_evals_per_threshold sees
    the solver's cost: nonzero, and at most 70 on the benchmark's sweep."""
    tracer = load_perfbench("tracer").Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            with pytest.raises(SystemExit) as exc:
                cli.main(["threshold", "--family", "ghz", "--d", "3", "--n", "10", "--n", "20",
                          "--n", "30", "--n", "40", "--n", "50", "--f", "all"])
    finally:
        tracer.uninstall()
    assert exc.value.code == 0
    metrics = tracer.take().metrics()
    assert 0 < metrics["criteria.lhs_evals_per_threshold"] <= 70, metrics
