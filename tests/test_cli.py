"""CLI behavior: exit codes, output schema, config echo, determinism."""

import contextlib
import gc
import io
import json
import weakref

import pytest
from click.testing import CliRunner

from kstretch.cli import CSV_HEADER, main
from kstretch.povm import SymmetricMeasurement


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


def test_povm_output_file(runner, tmp_path):
    path = tmp_path / "m.json"
    result = runner.invoke(main, ["povm", "--d", "2", "--s", "3", "--t", "2",
                                  "--output", str(path)])
    assert result.exit_code == 0, result.output
    doc = json.loads(path.read_text())
    assert doc["config"]["d"] == 2
    m = SymmetricMeasurement.from_json_dict(doc)
    assert (m.d, m.s, m.t) == (2, 3, 2)


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


STREAM_CALLS = {
    "criteria": (["criteria", "--family", "ghz", "--d", "2", "--n", "3", "--k", "0",
                  "--s", "1", "--t", "4", "--p", "0.5"], "# config"),
    "povm": (["povm", "--d", "2", "--s", "1", "--t", "4"], "(s,t)-POVM"),
    "partitions": (["partitions", "--n", "4", "--k", "0", "--diagrams"], "# config"),
}


@pytest.mark.parametrize("command", list(STREAM_CALLS))
def test_output_stream_not_retained(command):
    """An in-process call keeps no reference to the stdout it wrote to."""
    args, prefix = STREAM_CALLS[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        main(args, standalone_mode=False)
    assert out.getvalue().startswith(prefix)
    ref = weakref.ref(out)
    del out
    gc.collect()
    assert ref() is None


def test_threshold_antisym(runner):
    result = runner.invoke(main, [
        "threshold", "--family", "antisym", "--n", "3", "--k", "0",
        "--f", "variance"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().split("\n")
    assert lines[1] == "N,k,f,criterion,p_star"
    fields = lines[2].split(",")
    assert fields[:4] == ["3", "0", "variance", "variance"]
    assert float(fields[4]) == pytest.approx(0.75, abs=1e-5)


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
    assert "(enumeration): 7" in result.output
    assert "I bound:" in result.output and "V bound:" in result.output


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


def test_output_file(runner, tmp_path):
    path = tmp_path / "rows.csv"
    result = runner.invoke(main, [
        "criteria", "--family", "ghz", "--d", "2", "--n", "2", "--k", "0",
        "--s", "1", "--t", "4", "--p", "1", "--f", "qfi",
        "--output", str(path)])
    assert result.exit_code == 0, result.output
    assert path.read_text().split("\n")[1] == CSV_HEADER
