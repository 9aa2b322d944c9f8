"""The benchmark's tracer and workloads bind program functions by name; keep
them resolvable and callable, keep the import cost of every CLI call small,
and keep src/ free of definitions that neither the tool nor the benchmark calls."""

import ast
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
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kstretch"
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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


def _attribute_root(node: ast.Attribute) -> ast.expr:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _reads(*trees: ast.AST) -> tuple[set, set]:
    """The names `trees` load, and the attributes they read except those of
    numpy (`np.kron` is no use of a `kron`)."""
    names, attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and getattr(_attribute_root(node), "id", None) not in ("np", "numpy")):
                attrs.add(node.attr)
    return names, attrs


def _is_click_command(node: ast.AST) -> bool:
    return any(isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute)
               and dec.func.attr in ("command", "group") for dec in node.decorator_list)


def _benchmark_names() -> tuple[set, set]:
    """The program names the benchmark binds: the tracer's TARGETS, and what
    perfbench/workloads.py imports from kstretch or reads as module.attr of a
    kstretch module; and the attributes it reads, the methods of TARGETS
    among them."""
    targets = [attr.split(".") for _, attr in tracer_targets().values()]
    names = {parts[0] for parts in targets}
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kstretch"):
            names |= {alias.name for alias in node.names}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            names.add(node.attr)
    return names, _reads(tree)[1] | {parts[-1] for parts in targets if len(parts) > 1}


def _units(module: str, tree: ast.Module):
    """(label, class or None, name, body reads) for each top-level def, each
    name a module-level assignment binds, and each non-dunder method or
    property of a top-level class; a class's own reads are its decorators,
    bases, class-level statements and dunders."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in ast.walk(ast.Tuple(elts=targets)):
                if isinstance(target, ast.Name):
                    yield f"{module}.{target.id}", None, target.id, _reads(node)
        elif isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", None, node.name, _reads(node)
        elif isinstance(node, ast.ClassDef):
            own = []
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield (f"{module}.{node.name}.{item.name}", node.name, item.name,
                           _reads(item))
                else:
                    own.append(item)
            yield (f"{module}.{node.name}", None, node.name,
                   _reads(*own, *node.decorator_list, *node.bases, *node.keywords))


def test_every_package_definition_has_a_caller():
    """Each top-level def and class in src/kstretch, and each name bound by
    a module-level assignment, is a click command, is bound by the
    benchmark, or is read by other module-level code or a live unit; each
    non-dunder method or property of a live class is read as an attribute
    by live code or by perfbench/workloads.py, and only a live unit's reads
    count.  Re-exports from __init__ do not count; oracles with no caller
    belong in tests/oracles.py."""
    names, attrs = _benchmark_names()
    units = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        units += _units(path.stem, tree)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                more_names, more_attrs = _reads(node)
                names |= more_names
                attrs |= more_attrs
            elif _is_click_command(node):
                names.add(node.name)
    live_labels, live_defs = set(), set()
    grew = True
    while grew:
        grew = False
        for label, owner, name, (body_names, body_attrs) in units:
            if label in live_labels:
                continue
            if (owner in live_defs and name in attrs
                    or owner is None and (name in names or name in attrs)):
                live_labels.add(label)
                if owner is None:
                    live_defs.add(name)
                names |= body_names
                attrs |= body_attrs
                grew = True
    callerless = sorted(label for label, *_ in units if label not in live_labels)
    assert not callerless, f"no caller in src/ or perfbench: {callerless}"


def test_only_linalg_reads_a_state_representation():
    """No module of src/kstretch but linalg reads a state's `.factor` or
    `.matrix`: past construction and `split`, a state built from entries and
    a factor state take one path."""
    readers = sorted(
        f"{path.stem}:{node.lineno}" for path in PACKAGE.glob("*.py") if path.stem != "linalg"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("factor", "matrix")
        and getattr(_attribute_root(node), "id", None) not in ("np", "numpy"))
    assert not readers, f"reads of a state representation outside linalg: {readers}"


def test_no_private_name_crosses_a_module():
    """No module of src/kstretch imports an underscore-prefixed name from
    another kstretch module: what one module keeps private, no other uses."""
    imports = sorted(
        f"{path.stem}:{node.lineno} {alias.name}" for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "kstretch")
        for alias in node.names if alias.name.startswith("_"))
    assert not imports, f"private names imported across modules: {imports}"


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


def test_failing_hypothesis_test_reports_a_failure(tmp_path):
    """Under the repository's pytest settings, which make warnings errors, a
    failing @given test is a plain failure with its falsifying example: the
    DeprecationWarning hypothesis's report hook raises must not become an
    INTERNALERROR that stops the run."""
    (tmp_path / "test_throwaway.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(max_examples=5, database=None, deadline=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x > 0\n")
    result = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q",
                             "-p", "no:cacheprovider", "test_throwaway.py"],
                            cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert result.returncode == 1 and "INTERNALERROR" not in output, output
    assert "Falsifying example" in output, output
