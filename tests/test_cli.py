"""CLI behavior: exit codes, output schema, config echo, determinism."""

import contextlib
import gc
import io
import json
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import random_pure
from kstretch import cli, criteria, linalg, povm
from kstretch.basis import gell_mann_basis
from kstretch.cli import CSV_HEADER, fmt, main
from kstretch.criteria import CriterionReport, evaluate, threshold_p
from kstretch.infoquant import QFI, VARIANCE, WYD_HALF, MonotoneFunctionSpec
from kstretch.povm import SymmetricMeasurement, build_stpovm
from kstretch.states import ghz_qudit, load_state_file, state_vector


@pytest.fixture
def runner():
    return CliRunner()


def test_povm_success(runner):
    result = runner.invoke(main, ["povm", "--d", "2", "--s", "1", "--t", "4"])
    assert result.exit_code == 0, result.output
    assert "r range:" in result.output
    assert "FAIL" not in result.output


def test_povm_incompatible_family(runner):
    result = runner.invoke(main, ["povm", "--d", "3", "--s", "2", "--t", "4"])
    assert result.exit_code == 1
    assert "error" in result.output


def test_povm_bad_r(runner):
    result = runner.invoke(main, ["povm", "--d", "2", "--s", "1", "--t", "4",
                                  "--r", "0.9"])
    assert result.exit_code == 1


R_COMMANDS = {
    "povm": ["povm", "--d", "3", "--s", "1", "--t", "9"],
    "criteria": ["criteria", "--n", "3", "--k", "0", "--p", "1"],
    "threshold": ["threshold", "--n", "5"],
    "partitions": ["partitions", "--n", "4", "--k", "0"],
}


@pytest.mark.parametrize("value", ["abc", "1e", ""])
@pytest.mark.parametrize("command", list(R_COMMANDS))
def test_malformed_r_is_usage_error(runner, command, value):
    """--r is "max" or a float: other text is a usage error naming --r."""
    result = runner.invoke(main, R_COMMANDS[command] + ["--r", value])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '--r': {value!r} is not a valid float" in result.output


@pytest.mark.parametrize("command", list(R_COMMANDS))
def test_r_out_of_range_reaches_the_measurement(runner, command):
    """A number outside the admissible range fails the measurement's own
    check: an error (a note from partitions), not a usage error."""
    result = runner.invoke(main, R_COMMANDS[command] + ["--r", "5"])
    assert result.exit_code == (0 if command == "partitions" else 1), result.output
    assert "r=5.0 outside admissible range" in result.output


def test_r_echoed_as_given(runner):
    result = runner.invoke(main, R_COMMANDS["threshold"] + ["--r", "1.0e-2"])
    assert result.exit_code == 0, result.output
    assert '"r": "1.0e-2"' in result.output.split("\n")[0]


def test_povm_output_file(runner, tmp_path):
    path = tmp_path / "m.json"
    result = runner.invoke(main, ["povm", "--d", "2", "--s", "3", "--t", "2",
                                  "--output", str(path)])
    assert result.exit_code == 0, result.output
    doc = json.loads(path.read_text())
    assert doc["config"]["d"] == 2
    assert list(doc)[-2:] == ["config", "certification"]
    m = SymmetricMeasurement.from_json_dict(doc)
    assert (m.d, m.s, m.t) == (2, 3, 2)
    assert doc["certification"] == m.residuals
    for key, value in doc["certification"].items():
        assert f"  {key:24s} {fmt(value):>18s}  pass" in result.output
    del doc["certification"]
    assert SymmetricMeasurement.from_json_dict(doc).residuals == m.residuals


def test_povm_file_round_trips_to_same_bytes(runner, tmp_path):
    """For every catalogue family, a loaded file written again with its own
    config and the re-certified residuals is the file, byte for byte."""
    families = [(d, (d * d - 1) // (t - 1), t) for d in range(2, 10)
                for t in range(2, d * d + 1) if (d * d - 1) % (t - 1) == 0]
    assert len(families) == 48
    for d, s, t in families:
        path = tmp_path / f"m_{d}_{s}_{t}.json"
        result = runner.invoke(main, ["povm", "--d", str(d), "--s", str(s), "--t", str(t),
                                      "--output", str(path)])
        assert result.exit_code == 0, result.output
        text = path.read_text()
        m = SymmetricMeasurement.from_json(text)
        config = json.loads(text)["config"]
        assert m.to_json(config=config, certification=m.residuals) == text, (d, s, t)


def _count_calls(monkeypatch, original):
    """Count calls of a povm function through every binding of it in kstretch."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    for module in (povm, cli):
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_povm_certifies_once(runner, tmp_path, monkeypatch):
    certified = _count_calls(monkeypatch, povm.certification_residuals)
    ranged = _count_calls(monkeypatch, povm.r_range)
    result = runner.invoke(main, ["povm", "--d", "3", "--s", "4", "--t", "3",
                                  "--output", str(tmp_path / "m.json")])
    assert result.exit_code == 0, result.output
    assert (len(certified), len(ranged)) == (1, 1)


def test_criteria_csv_schema(runner):
    result = runner.invoke(main, [
        "criteria", "--family", "ghz", "--d", "2", "--n", "2", "--k", "0",
        "--s", "1", "--t", "4", "--p", "0", "--p", "1"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().split("\n")
    assert lines[0].startswith("# config = ")
    json.loads(lines[0].removeprefix("# config = "))
    assert lines[1] == CSV_HEADER
    assert len(lines) == 2 + 2 * 3  # two p values x {qfi, wyd, variance}
    first = lines[2].split(",")
    assert first[:5] == ["2", "0", "2", "1", "4"]
    assert first[6] == "qfi"


def test_criteria_json_format(runner):
    result = runner.invoke(main, [
        "criteria", "--family", "ghz", "--d", "2", "--n", "2", "--k", "0",
        "--s", "1", "--t", "4", "--p", "1", "--f", "variance",
        "--format", "json"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["config"]["n"] == 2
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["f"] == "variance"
    assert doc["rows"][0]["verdict"] in ("k-nonstretchable", "inconclusive")


def test_criteria_p_range(runner):
    result = runner.invoke(main, [
        "criteria", "--family", "ghz", "--d", "2", "--n", "2", "--k", "0",
        "--s", "1", "--t", "4", "--p-range", "0:1:5", "--f", "qfi"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().split("\n")
    assert len(lines) == 2 + 5


def test_criteria_requires_p(runner):
    result = runner.invoke(main, [
        "criteria", "--family", "ghz", "--d", "2", "--n", "2", "--k", "0",
        "--s", "1", "--t", "4", "--f", "qfi"])
    assert result.exit_code != 0


def test_criteria_deterministic(runner):
    args = ["criteria", "--family", "ghz", "--d", "2", "--n", "3", "--k", "0",
            "--s", "1", "--t", "4", "--p", "0.5"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2


def _json_oracle(cfg, reports):
    """The criteria JSON writer before rows were written from a template."""
    return json.dumps({"config": cfg, "rows": [rep.to_json_dict() for rep in reports]},
                      indent=2) + "\n"


def _csv_oracle(cfg, reports):
    """The criteria CSV writer before rows were written from a template."""
    lines = [f"# config = {json.dumps(cfg)}", CSV_HEADER]
    for rep in reports:
        lines.append(",".join([
            fmt(rep.n), fmt(rep.k), fmt(rep.d), fmt(rep.s), fmt(rep.t),
            fmt(rep.r), rep.f_label, fmt(rep.p), fmt(rep.lhs_skew),
            fmt(rep.i_bound), fmt(rep.violated_skew), fmt(rep.lhs_var),
            fmt(rep.v_bound), fmt(rep.violated_var),
        ]))
    return "\n".join(lines) + "\n"


D2 = ["--family", "ghz", "--d", "2", "--n", "3", "--k", "0", "--s", "1", "--t", "4"]
WRITER_CASES = {
    "ghz-all": ["--family", "ghz", "--d", "3", "--n", "5", "--k", "-2", "--p-range", "0:1:11"],
    "antisym-all": ["--family", "antisym", "--n", "4", "--k", "-1", "--s", "1", "--t", "16",
                    "--p-range", "0:1:11"],
    "variance-null-skew": D2 + ["--f", "variance", "--p", "0.2", "--p", "0.9"],
    "wyd-0.3": D2 + ["--f", "wyd:0.3", "--p-range", "0:1:5"],
    "signed-zeros": D2 + ["--p", "-0.0", "--p", "0.0", "--p", "1"],
    "repeated-p": D2 + ["--p", "0.5", "--p", "0.5", "--p", "0.25"],
    "one-p": D2 + ["--p-range", "0:1:1"],
    "benchmark-size": ["--family", "ghz", "--d", "3", "--n", "8", "--k", "-5",
                       "--p-range", "0:1:101"],
    "state-file": ["--family", "file", "--state-file", "{state}", "--n", "3", "--k", "0",
                   "--s", "3", "--t", "2", "--p", "0.5", "--p", "1"],
}


def _writer_case_args(tmp_path, case):
    state = tmp_path / 'w "stäte".json'
    amps = [[0.0, 0.0], [3 ** -0.5, 0.0], [3 ** -0.5, 0.0], [0.0, 0.0],
            [3 ** -0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    state.write_text(json.dumps({"site_dims": [2, 2, 2], "amplitudes": amps}))
    return state, [str(state) if a == "{state}" else a for a in WRITER_CASES[case]]


@pytest.mark.parametrize("out_format", ["json", "csv"])
@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_criteria_writers_match_oracles(runner, monkeypatch, tmp_path, case, out_format):
    """The row writers give, byte for byte, the text of the per-field
    writers they replaced, on the same config and on the reports that
    `evaluate` gives for each (p, quantity) cell of the grid the CLI passed
    to `sweep_rows`, p-major."""
    state, args = _writer_case_args(tmp_path, case)
    sweeps, configs = [], []
    real_rows, real_echo = cli.sweep_rows, cli._config_echo
    monkeypatch.setattr(cli, "sweep_rows", lambda *a: sweeps.append(a) or real_rows(*a))
    monkeypatch.setattr(cli, "_config_echo",
                        lambda *a: configs.append(real_echo(*a)) or configs[-1])
    result = runner.invoke(main, ["criteria", *args, "--format", out_format])
    assert result.exit_code == 0, result.output
    [(fam, m, k, quantities, p_values)], [cfg] = sweeps, configs
    reports = [evaluate(fam, m, q, k, p) for p in p_values for q in quantities]
    oracle = _json_oracle if out_format == "json" else _csv_oracle
    assert result.output == oracle(cfg, reports)
    assert reports
    if case == "variance-null-skew":
        assert all(rep.lhs_skew is None for rep in reports)
    if case == "state-file":
        assert json.dumps(str(state)) in result.output


def test_criteria_csv_formats_shared_cells_once_per_p(runner, monkeypatch):
    """A CSV sweep formats each shared field once, and per p its p, lhs_var and
    violated_var once and the lhs_skew and violated_skew of each of its q rows:
    3 + 2q calls of fmt per p."""
    calls = []
    monkeypatch.setattr(cli, "fmt", lambda x, real=cli.fmt: calls.append(x) or real(x))
    result = runner.invoke(main, ["criteria", "--family", "ghz", "--d", "3", "--n", "5",
                                  "--k", "-2", "--f", "all", "--p-range", "0:1:11",
                                  "--format", "csv"])
    assert result.exit_code == 0, result.output
    n_shared, n_p, q = 8, 11, 3
    assert len(calls) == n_shared + n_p * (3 + 2 * q)


@pytest.mark.parametrize("out_format", ["json", "csv"])
def test_criteria_builds_no_reports(runner, monkeypatch, tmp_path, out_format):
    """The CLI writes the rows of `sweep_rows` as they are: it builds no
    CriterionReport, where `evaluate` under the same counter builds one
    per call."""
    built = []
    monkeypatch.setattr(criteria, "CriterionReport",
                        lambda *fields: built.append(fields) or CriterionReport(*fields))
    _, args = _writer_case_args(tmp_path, "ghz-all")
    result = runner.invoke(main, ["criteria", *args, "--format", out_format])
    assert result.exit_code == 0, result.output
    assert built == []
    m = build_stpovm(gell_mann_basis(3), 1, 9)
    evaluate(ghz_qudit(3, 5), m, QFI, -2, 0.5)
    evaluate(ghz_qudit(3, 5), m, VARIANCE, -2, 1.0)
    assert len(built) == 2


@pytest.mark.parametrize("p", ["1.5", "-0.1", "nan"])
def test_criteria_p_outside_unit_interval_fails_cleanly(runner, monkeypatch, p):
    """A p outside [0, 1] is an error line and exit 1, found before any
    measurement is built."""
    monkeypatch.setattr(cli, "_build_measurement", lambda *a: pytest.fail("measurement built"))
    result = runner.invoke(main, ["criteria", "--n", "4", "--k", "-1", "--p", "0.5", "--p", p])
    assert result.exit_code == 1
    assert result.output == f"error: p must lie in [0, 1], got {float(p)}\n"
    assert isinstance(result.exception, SystemExit)  # no traceback


STREAM_CALLS = {
    "criteria": (["criteria", "--family", "ghz", "--d", "2", "--n", "3", "--k", "0",
                  "--s", "1", "--t", "4", "--p", "0.5"], "# config"),
    "povm": (["povm", "--d", "2", "--s", "1", "--t", "4"], "(s,t)-POVM"),
    "partitions": (["partitions", "--n", "4", "--k", "0", "--diagrams"], "# config"),
    "povm-error": (["povm", "--d", "3", "--s", "2", "--t", "4"], "error: "),
    "threshold-error": (["threshold", "--family", "antisym", "--n", "4",
                         "--f", "variance"], "error: "),
}


@pytest.mark.parametrize("command", list(STREAM_CALLS))
def test_output_stream_not_retained(command):
    """An in-process call keeps no reference to the stdout or stderr it
    wrote to."""
    args, prefix = STREAM_CALLS[command]
    out = io.StringIO()
    redirect = (contextlib.redirect_stderr if command.endswith("-error")
                else contextlib.redirect_stdout)
    with redirect(out), pytest.raises(SystemExit):
        main(args, standalone_mode=False)
    assert out.getvalue().startswith(prefix)
    ref = weakref.ref(out)
    del out
    gc.collect()
    assert ref() is None


def test_threshold_antisym(runner):
    result = runner.invoke(main, [
        "threshold", "--family", "antisym", "--n", "3", "--k", "0",
        "--f", "variance", "--d", "7"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().split("\n")
    assert "d" not in json.loads(lines[0].split(" = ", 1)[1])  # antisym reads d = N, not --d
    assert lines[1] == "N,k,f,criterion,p_star"
    fields = lines[2].split(",")
    assert fields[:4] == ["3", "0", "variance", "variance"]
    assert float(fields[4]) == pytest.approx(0.75, abs=1e-5)


def test_threshold_antisym_names_admissible_families(runner):
    result = runner.invoke(main, [
        "threshold", "--family", "antisym", "--n", "4", "--f", "variance"])
    assert result.exit_code == 1
    assert "s(t-1) = 8 != d^2 - 1 = 15 for d=4" in result.output
    assert "admissible (s,t) for d=4: (15,2), (5,4), (3,6), (1,16)" in result.output


def test_threshold_antisym_rejects_several_n(runner, monkeypatch):
    """The antisymmetric family has d = N, and no (s,t) is complete for two
    dimensions: a sweep over two N is a usage error, before any build."""
    monkeypatch.setattr(cli, "_build_measurement", lambda *a: pytest.fail("measurement built"))
    result = runner.invoke(main, ["threshold", "--family", "antisym", "--n", "3", "--n", "4",
                                  "--s", "1", "--t", "9", "--f", "variance"])
    assert result.exit_code == 2
    assert "Invalid value for '--n'" in result.output
    assert "no (s,t) fits two dimensions" in result.output


def test_threshold_builds_one_measurement_per_dimension(runner, monkeypatch):
    built = _count_calls(monkeypatch, povm.build_stpovm)
    result = runner.invoke(main, ["threshold", "--family", "ghz", "--n", "10",
                                  "--n", "20", "--n", "30"])
    assert result.exit_code == 0, result.output
    assert len(built) == 1
    rows = result.output.strip().split("\n")[2:]
    expected = []
    for n in (10, 20, 30):  # a fresh measurement for every N
        m = build_stpovm(gell_mann_basis(3), 1, 9)
        for quantity, label, criterion in ((QFI, QFI.label, "skew"),
                                           (WYD_HALF, WYD_HALF.label, "skew"),
                                           (VARIANCE, VARIANCE, "variance")):
            p_star = threshold_p(ghz_qudit(3, n), m, quantity, 3 - n)
            expected.append(",".join([str(n), str(3 - n), label, criterion,
                                      fmt(p_star) if p_star is not None else "NONE"]))
    assert rows == expected


def test_threshold_none_row(runner):
    result = runner.invoke(main, [
        "threshold", "--family", "ghz", "--d", "3", "--n", "6",
        "--f", "variance"])
    assert result.exit_code == 0, result.output
    assert result.output.strip().split("\n")[2].endswith("NONE")


def test_threshold_default_k(runner):
    result = runner.invoke(main, [
        "threshold", "--family", "ghz", "--d", "3", "--n", "10",
        "--f", "qfi", "--r", "0.0129"])
    assert result.exit_code == 0, result.output
    fields = result.output.strip().split("\n")[2].split(",")
    assert fields[1] == "-7"  # k defaults to 3 - N
    assert 0 < float(fields[4]) < 1


def test_partitions_output(runner):
    result = runner.invoke(main, ["partitions", "--n", "5", "--k", "-2"])
    assert result.exit_code == 0, result.output
    assert "2 -2-stretchable partition(s) of 5" in result.output
    assert "max sum of squared block sizes: 7" in result.output
    assert "I bound:" in result.output and "V bound:" in result.output


@pytest.mark.parametrize("n", [-3, 0])
def test_partitions_rejects_n_below_one(runner, n):
    result = runner.invoke(main, ["partitions", "--n", str(n), "--k", "5"])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '--n': N = {n} must be >= 1" in result.output


def test_partitions_diagrams(runner):
    result = runner.invoke(main, ["partitions", "--n", "4", "--k", "0",
                                  "--diagrams"])
    assert result.exit_code == 0, result.output
    assert "■■\n■■" in result.output


def test_config_file_override(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t": 4, "s": 1}))
    result = runner.invoke(main, ["criteria", "--family", "ghz", "--d", "2",
                                  "--n", "2", "--k", "0", "--p", "1",
                                  "--f", "qfi", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    config_line = json.loads(
        result.output.split("\n")[0].removeprefix("# config = "))
    assert config_line["t"] == 4
    # explicit flags win over the config file
    cfg.write_text(json.dumps({"d": 5}))
    result = runner.invoke(main, ["criteria", "--family", "ghz", "--d", "2",
                                  "--n", "2", "--k", "0", "--p", "1",
                                  "--f", "qfi", "--s", "1", "--t", "4",
                                  "--config", str(cfg)])
    assert result.exit_code == 0, result.output


def test_config_unknown_key(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    result = runner.invoke(main, ["povm", "--d", "2", "--s", "1", "--t", "4",
                                  "--config", str(cfg)])
    assert result.exit_code != 0


@pytest.mark.parametrize("override,option", [
    ({"t": "abc"}, "'--t'"), ({"d": 2.5}, "'--d'"), ({"d": True}, "'--d'"),
    ({"f_choice": 3}, "unknown quantity '3'"), ({"p": [0.5, "x"]}, "'--p'")])
def test_config_value_of_wrong_type_is_usage_error(runner, tmp_path, override, option):
    """A config value goes through its option's own type, as its text would
    on the command line: a bad one is a usage error (exit 2), never a
    traceback, and a float is not truncated to an integer."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override))
    args = ["criteria", "--n", "3", "--k", "0", "--config", str(cfg)]
    result = runner.invoke(main, args + ([] if "p" in override else ["--p", "1"]))
    assert result.exit_code == 2, result.output
    assert "Error: Invalid value" in result.output and option in result.output
    assert not isinstance(result.exception, (TypeError, AttributeError))


@pytest.mark.parametrize("command,override", [
    (["criteria", "--n", "3", "--k", "0"], {"p": None}),
    (["criteria", "--n", "3", "--k", "0"], {"p": [None]}),
    (["criteria", "--n", "3", "--k", "0"], {"p": [0.5, None]}),
    (["criteria", "--n", "3", "--k", "0", "--p", "1"], {"d": None}),
    (["threshold"], {"n": None}),
    (["povm", "--s", "1", "--t", "4"], {"d": None})])
def test_config_null_is_usage_error(runner, tmp_path, command, override):
    """A JSON null stands for no flag: for a scalar or a `multiple` option it
    is a usage error (exit 2) naming the key, never a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override))
    result = runner.invoke(main, command + ["--config", str(cfg)])
    assert result.exit_code == 2, result.output
    key = next(iter(override))
    assert f"Error: Invalid value for '--config': config key '{key}' is null" in result.output


@pytest.mark.parametrize("p_range", ["0:1", "0:1:abc", "0:1:0", "0:1:-2", "a:1:3",
                                     "0:1:2:3", "0:1:2.5"])
def test_p_range_form_checked(runner, monkeypatch, p_range):
    """--p-range is START:STOP:COUNT with COUNT >= 1; any other form is a
    usage error (exit 2) naming it, found before any measurement is built."""
    monkeypatch.setattr(cli, "_build_measurement", lambda *a: pytest.fail("measurement built"))
    result = runner.invoke(main, ["criteria", "--n", "3", "--k", "0", "--p-range", p_range])
    assert result.exit_code == 2, result.output
    assert (f"Error: Invalid value for '--p-range': {p_range!r} is not START:STOP:COUNT "
            "with COUNT >= 1") in result.output


def test_criteria_without_p_is_usage_error(runner, monkeypatch):
    """A criteria sweep with neither --p nor --p-range is a usage error
    (exit 2) that names both options, found before any measurement is built."""
    monkeypatch.setattr(cli, "_build_measurement", lambda *a: pytest.fail("measurement built"))
    result = runner.invoke(main, ["criteria", "--n", "3", "--k", "0"])
    assert result.exit_code == 2, result.output
    assert ("Error: Invalid value for '--p' / '--p-range': provide --p or --p-range"
            in result.output)


def test_config_values_cast_like_flags(runner, tmp_path):
    """Config values equal the same flags given on the command line."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 2, "s": 1, "t": 4, "r": 0.05, "p": [1, 0.5]}))
    base = ["criteria", "--n", "2", "--k", "0", "--f", "qfi"]
    from_config = runner.invoke(main, base + ["--config", str(cfg)])
    from_flags = runner.invoke(main, base + ["--d", "2", "--s", "1", "--t", "4",
                                             "--r", "0.05", "--p", "1", "--p", "0.5"])
    assert from_config.exit_code == 0, from_config.output
    config_line, rows = from_config.output.split("\n", 1)
    assert rows == from_flags.output.split("\n", 1)[1]
    cfg_echo = json.loads(config_line.removeprefix("# config = "))
    assert (cfg_echo["d"], cfg_echo["r"], cfg_echo["p"]) == (2, "0.05", [1.0, 0.5])


@pytest.mark.parametrize("doc,message", [
    ({"site_dims": [2, 2], "amplitudes": [[float("nan"), 0.0]] + [[0.5, 0.0]] * 3},
     "norm is nan"),
    ({"amplitudes": [[1.0, 0.0], [0.0, 0.0]]}, "lacks 'site_dims'")])
@pytest.mark.parametrize("command", ["criteria", "threshold"])
def test_malformed_state_file_fails_cleanly(runner, tmp_path, doc, message, command):
    """A state file with a NaN amplitude or without "site_dims" gives an
    error line and exit 1, not NaN rows or a traceback."""
    state = tmp_path / "state.json"
    state.write_text(json.dumps(doc))
    args = [command, "--family", "file", "--state-file", str(state), "--d", "2",
            "--s", "1", "--t", "4", "--n", "2", "--k", "0"]
    result = runner.invoke(main, args + (["--p", "1"] if command == "criteria" else []))
    assert result.exit_code == 1, result.output
    assert result.output.startswith("error: ") and message in result.output


@pytest.mark.parametrize("command,n_flags", [
    ("criteria", ["--n", "9", "--k", "0", "--p", "1"]),
    ("threshold", ["--n", "4", "--n", "5", "--n", "6"])], ids=["criteria", "threshold"])
def test_state_file_n_must_match_its_sites(runner, tmp_path, command, n_flags):
    """A state file fixes N: an --n that differs from its site count is an
    error line and exit 1, never rows of the file's state under another N."""
    state = tmp_path / "w4.json"
    amps = [[0.5 if bin(i).count("1") == 1 else 0.0, 0.0] for i in range(16)]
    state.write_text(json.dumps({"site_dims": [2] * 4, "amplitudes": amps}))
    result = runner.invoke(main, [command, "--family", "file", "--state-file", str(state),
                                  "--d", "2", "--s", "1", "--t", "4", *n_flags])
    assert result.exit_code == 1
    bad_n = n_flags[1] if command == "criteria" else "5"
    assert result.output == f"error: --n {bad_n} differs from the 4 sites of {state}\n"
    assert isinstance(result.exception, SystemExit)  # no traceback


def _pure_state_file(path, d: int, n: int, vec) -> str:
    path.write_text(json.dumps({"site_dims": [d] * n,
                                "amplitudes": [[z.real, z.imag] for z in vec]}))
    return str(path)


@pytest.mark.parametrize("d,n", [(2, 3), (2, 6), (3, 3), (3, 5)])
def test_ghz_state_file_thresholds_match_family(runner, tmp_path, d, n):
    """A GHZ state file, which the dense path reads as a rank-1 factor state,
    gives the `threshold --f all` rows of --family ghz, whose closed-form
    moments take the isotropic path, byte for byte at every k."""
    state = _pure_state_file(tmp_path / "ghz.json", d, n, state_vector(ghz_qudit(d, n)))
    measurement = ["--n", str(n), "--s", "1", "--t", str(d * d)]
    for k in range(1 - n, n):
        rows = [runner.invoke(main, ["threshold", *family, *measurement, "--k", str(k)])
                for family in (["--family", "ghz", "--d", str(d)],
                               ["--family", "file", "--state-file", state])]
        assert [r.exit_code for r in rows] == [0, 0], [r.output for r in rows]
        closed_form, dense = (r.output.split("\n", 1)[1] for r in rows)
        assert dense == closed_form and closed_form.count("\n") == 4, k


@pytest.mark.parametrize("d,n", [(3, 8), (2, 14)])
def test_pure_state_file_past_entries_limit(runner, tmp_path, rng, d, n):
    """Pure files at D = 3^8 and 2^14, past the D <= 2500 of a state given by
    entries, run criteria and threshold."""
    state = _pure_state_file(tmp_path / "psi.json", d, n, random_pure(rng, d**n))
    base = ["--family", "file", "--state-file", state, "--n", str(n),
            "--s", "1", "--t", str(d * d)]
    for args, lines in ((["criteria", *base, "--k", str(3 - n), "--p-range", "0:1:3"], 11),
                        (["threshold", *base], 5)):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.output.count("\n") == lines, result.output


def test_file_threshold_makes_one_generator_pass(runner, tmp_path, rng, monkeypatch):
    """`threshold --family file --f all` on a rank-1 file at D = 3^6 applies the
    generator kernel for one pass of the state (one group of 8), not one per
    quantity, and its rows are the thresholds of one fresh load per quantity."""
    vec = state_vector(ghz_qudit(3, 6)) + 0.3 * random_pure(rng, 3**6)
    state = _pure_state_file(tmp_path / "psi.json", 3, 6, vec / np.linalg.norm(vec))
    m, quantities = build_stpovm(gell_mann_basis(3), 1, 9), (QFI, WYD_HALF, VARIANCE)
    p_stars = [threshold_p(load_state_file(state), m, q, -3) for q in quantities]
    calls = []
    real = linalg._apply_generators
    monkeypatch.setattr(linalg, "_apply_generators", lambda *args: calls.append(1) or real(*args))
    result = runner.invoke(main, ["threshold", "--family", "file", "--state-file", state,
                                  "--n", "6", "--s", "1", "--t", "9", "--f", "all"])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1
    assert result.output.splitlines()[2:] == [
        f"6,-3,{label},{criterion},{'NONE' if p is None else fmt(p)}" for label, criterion, p in
        zip(("qfi", "wyd:0.5", VARIANCE), ("skew", "skew", "variance"), p_stars)]
    assert p_stars[0] is not None  # the bisection itself is compared


def test_criteria_k_below_one_minus_n_fails_cleanly(runner):
    """k + N < 1 is an error line and exit 1 in criteria, as in threshold."""
    result = runner.invoke(main, ["criteria", "--n", "3", "--k", "-5", "--p", "1"])
    assert result.exit_code == 1
    assert result.output == "error: k + N = -2 must be >= 1\n"
    assert isinstance(result.exception, SystemExit)  # no traceback


def test_output_file(runner, tmp_path):
    path = tmp_path / "rows.csv"
    result = runner.invoke(main, [
        "criteria", "--family", "ghz", "--d", "2", "--n", "2", "--k", "0",
        "--s", "1", "--t", "4", "--p", "1", "--f", "qfi",
        "--output", str(path)])
    assert result.exit_code == 0, result.output
    assert path.read_text().split("\n")[1] == CSV_HEADER


@pytest.mark.parametrize("command", [["povm", "--d", "2", "--s", "1", "--t", "4"],
                                     ["criteria", "--n", "2", "--k", "0", "--p", "1"],
                                     ["threshold", "--n", "2"]],
                         ids=["povm", "criteria", "threshold"])
def test_bad_output_path_fails_cleanly(runner, tmp_path, command):
    """An --output that is a directory is a usage error (exit 2), and one in a
    missing directory an error line (exit 1), never a traceback."""
    result = runner.invoke(main, command + ["--output", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '--output': File {str(tmp_path)!r} is a directory" in result.output
    missing = tmp_path / "missing" / "out.json"
    result = runner.invoke(main, command + ["--output", str(missing)])
    assert result.exit_code == 1, result.output
    assert result.output == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    assert isinstance(result.exception, SystemExit)  # no traceback


@pytest.mark.parametrize("option", ["--config", "--state-file"])
@pytest.mark.parametrize("command", ["criteria", "threshold"])
def test_directory_as_input_file_is_usage_error(runner, tmp_path, command, option):
    """A directory given as --config or --state-file is a usage error (exit 2)."""
    args = [command, "--family", "file", "--n", "2", option, str(tmp_path)]
    result = runner.invoke(main, args + (["--k", "0", "--p", "1"] if command == "criteria" else []))
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}': File {str(tmp_path)!r} is a directory" in result.output


@pytest.mark.parametrize("command,override,flags", [
    (["threshold"], {"n": [5]}, ["--n", "5"]),
    (["threshold", "--f", "qfi"], {"n": 7, "k": -1}, ["--n", "7", "--k", "-1"]),
    (["criteria", "--n", "3", "--p", "1"], {"k": 0}, ["--k", "0"]),
    (["partitions", "--k", "-2"], {"n": 5, "diagrams": True}, ["--n", "5", "--diagrams"]),
    (["povm", "--output", "{out}"], {"d": 2, "s": 3, "t": 2}, ["--d", "2", "--s", "3", "--t", "2"]),
])
def test_config_supplies_required_options(runner, tmp_path, command, override, flags):
    """A config file supplies any option left off the command line, a
    required one too, and the output equals that of the same flags."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override))
    outputs = []
    for extra in (["--config", str(cfg)], flags):
        out = tmp_path / f"out{len(outputs)}.json"
        args = [str(out) if a == "{out}" else a for a in command]
        result = runner.invoke(main, args + extra)
        assert result.exit_code == 0, result.output
        outputs.append(result.output.replace(str(out), "OUT"))
        if out.exists():
            outputs.append(out.read_text().replace(str(out), "OUT"))
    assert outputs[:len(outputs) // 2] == outputs[len(outputs) // 2:]


@pytest.mark.parametrize("text,message", [
    ("[1]", "{path} must hold a JSON object"), ('{"d": ', "{path} is not JSON"),
    ("", "{path} is not JSON"), ('{"bogus": 1}', "unknown config key 'bogus'")])
def test_malformed_config_is_usage_error(runner, tmp_path, text, message):
    """A config file that is not JSON, not a JSON object, or names no option
    is a usage error (exit 2) about --config, never a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    result = runner.invoke(main, ["povm", "--d", "2", "--s", "1", "--t", "4",
                                  "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert ("Error: Invalid value for '--config': " + message.format(path=repr(str(cfg)))
            in result.output)


@pytest.mark.parametrize("value", ["wydzzz", "qfix", "variances", "WYD",
                                   "wyd:abc", "wyd:", "wyd:1", "wyd:2", "wyd:nan"])
@pytest.mark.parametrize("command", ["criteria", "threshold"])
def test_f_accepts_only_documented_values(runner, monkeypatch, command, value):
    """--f is qfi, wyd, wyd:<omega>, variance or all; anything else is a usage
    error naming --f, found before any measurement is built."""
    monkeypatch.setattr(cli, "_build_measurement", lambda *a: pytest.fail("measurement built"))
    args = [command, "--n", "5", "--f", value]
    result = runner.invoke(main, args + (["--k", "0", "--p", "1"] if command == "criteria" else []))
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '--f': unknown quantity {value!r}" in result.output


def test_parse_f_returns_new_lists_of_quantities():
    """Each --f value gives its quantities in order, in a list of its own."""
    expected = {"all": [MonotoneFunctionSpec("qfi"), MonotoneFunctionSpec("wyd", 0.5), VARIANCE],
                "qfi": [MonotoneFunctionSpec("qfi")], "wyd": [MonotoneFunctionSpec("wyd", 0.5)],
                "variance": [VARIANCE], "wyd:0.3": [MonotoneFunctionSpec("wyd", 0.3)]}
    for value, quantities in expected.items():
        got = cli.parse_f(value)
        assert got == quantities and got is not cli.parse_f(value), value
        got.clear()
        assert cli.parse_f(value) == quantities, value


# every param of every command, in order, as declared before the shared
# options were declared once: (name, opts, type, default, required, multiple, is_flag)
OPTION_TABLE = {
    "povm": [
        ("d", ("--d",), "Int", None, True, False, False),
        ("s", ("--s",), "Int", None, True, False, False),
        ("t", ("--t",), "Int", None, True, False, False),
        ("r", ("--r",), "String", "max", False, False, False),
        ("output", ("--output",), "Path", None, False, False, False),
        ("config", ("--config",), "Path", None, False, False, False),
    ],
    "criteria": [
        ("family", ("--family",), "Choice", "ghz", False, False, False),
        ("state_file", ("--state-file",), "Path", None, False, False, False),
        ("d", ("--d",), "Int", 3, False, False, False),
        ("n", ("--n", "--N"), "Int", None, True, False, False),
        ("k", ("--k",), "Int", None, True, False, False),
        ("s", ("--s",), "Int", 1, False, False, False),
        ("t", ("--t",), "Int", 9, False, False, False),
        ("r", ("--r",), "String", "max", False, False, False),
        ("p", ("--p",), "Float", None, False, True, False),
        ("p_range", ("--p-range",), "String", None, False, False, False),
        ("f_choice", ("--f",), "String", "all", False, False, False),
        ("out_format", ("--format",), "Choice", "csv", False, False, False),
        ("output", ("--output",), "Path", None, False, False, False),
        ("config", ("--config",), "Path", None, False, False, False),
    ],
    "threshold": [
        ("family", ("--family",), "Choice", "ghz", False, False, False),
        ("state_file", ("--state-file",), "Path", None, False, False, False),
        ("d", ("--d",), "Int", 3, False, False, False),
        ("n", ("--n", "--N"), "Int", None, True, True, False),
        ("k", ("--k",), "Int", None, False, False, False),
        ("s", ("--s",), "Int", 1, False, False, False),
        ("t", ("--t",), "Int", 9, False, False, False),
        ("r", ("--r",), "String", "max", False, False, False),
        ("f_choice", ("--f",), "String", "all", False, False, False),
        ("out_format", ("--format",), "Choice", "csv", False, False, False),
        ("output", ("--output",), "Path", None, False, False, False),
        ("config", ("--config",), "Path", None, False, False, False),
    ],
    "partitions": [
        ("n", ("--n", "--N"), "Int", None, True, False, False),
        ("k", ("--k",), "Int", None, True, False, False),
        ("d", ("--d",), "Int", 3, False, False, False),
        ("s", ("--s",), "Int", 1, False, False, False),
        ("t", ("--t",), "Int", 9, False, False, False),
        ("r", ("--r",), "String", "max", False, False, False),
        ("diagrams", ("--diagrams",), "Bool", False, False, False, True),
        ("config", ("--config",), "Path", None, False, False, False),
    ],
}


@pytest.mark.parametrize("command", list(OPTION_TABLE))
def test_option_table_unchanged(command):
    """Declaring the shared options once changed no option's name, flags,
    type, default, requiredness or order, and every command takes --config."""
    params = main.commands[command].params
    table = []
    for param in params:
        info = param.to_info_dict()
        table.append((param.name, tuple(param.opts), info["type"]["param_type"],
                      info["default"], param.required, param.multiple,
                      bool(getattr(param, "is_flag", False))))
    assert table == OPTION_TABLE[command]
    assert [param.opts for param in params].count(["--config"]) == 1
