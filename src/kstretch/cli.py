"""Command-line interface: measurement construction, criterion sweeps,
noise thresholds, and partition bound tables.

Every output artifact carries the resolved configuration (a `# config =`
comment line in CSV, a "config" field in JSON), and numeric output uses
12 significant digits, so repeated runs diff cleanly.
"""

from __future__ import annotations

import functools
import json
import sys
from typing import NoReturn, Optional

import click
import numpy as np

from .basis import gell_mann_basis
from .criteria import ROW_KEYS, sweep_rows, threshold_p, verdict_of
from .infoquant import QFI, VARIANCE, WYD_HALF, MonotoneFunctionSpec, is_skew
from .partitions import (
    BoundInputs,
    bound_i,
    bound_v,
    count_kstretch,
    enumerate_kstretch,
    max_sum_squares,
    young_diagram,
)
from .povm import build_stpovm
from .states import antisymmetric_state, ghz_qudit, load_state_file

CSV_HEADER = ",".join(ROW_KEYS)


def fmt(x) -> str:
    """Fixed 12-significant-digit numeric formatting; empty for None."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def parse_f(value: str) -> list:
    """Parse --f into a new list of quantities (specs and/or VARIANCE)."""
    named = {"all": [QFI, WYD_HALF, VARIANCE], "qfi": [QFI], "wyd": [WYD_HALF],
             VARIANCE: [VARIANCE]}
    if value in named:
        return named[value]
    if value.startswith("wyd:"):
        try:  # an omega that is not a float in (0, 1) is a usage error
            return [MonotoneFunctionSpec("wyd", float(value[4:]))]
        except ValueError:
            pass
    raise click.BadParameter(f"unknown quantity {value!r}", param_hint="'--f'")


def _as_arg(name: str, value):
    """A JSON config value as the text it stands for on the command line."""
    if value is None:  # no flag stands for null
        raise click.BadParameter(f"config key {name!r} is null")
    return value if isinstance(value, str) else json.dumps(value)


def _load_config(ctx: click.Context, param: click.Parameter, path: Optional[str]) -> None:
    """The eager --config: the file's values become the defaults of the options
    not given on the command line, each as its text would be there, so click
    checks, casts and requires them as it does the flags."""
    if path is None:
        return
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise click.BadParameter(f"{path!r} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise click.BadParameter(f"{path!r} must hold a JSON object")
    params = {p.name: p for p in ctx.command.params}
    ctx.default_map = {}
    for name, value in doc.items():
        if name == "config":
            continue
        if name not in params:
            raise click.BadParameter(f"unknown config key {name!r}")
        if params[name].multiple and not isinstance(value, list):
            value = [value]
        ctx.default_map[name] = ([_as_arg(name, v) for v in value] if params[name].multiple
                                 else _as_arg(name, value))


def _check_r(ctx: click.Context, param: click.Parameter, r: str) -> str:
    """--r is "max" or a float, kept as its text for the echoed config."""
    if r != "max":
        click.FLOAT(r, param, ctx)  # a BadParameter naming --r
    return r


def _options(*decorators):
    """The option decorators as one, declaring the options in the order given."""
    return lambda f: functools.reduce(lambda g, option: option(g), reversed(decorators), f)


CONFIG = click.option("--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
                      expose_value=False, callback=_load_config)
R = click.option("--r", default="max", show_default=True, callback=_check_r)
D = click.option("--d", type=int, default=3, show_default=True)
N_AND_K = _options(click.option("--n", "--N", "n", type=int, required=True),
                   click.option("--k", type=int, required=True))
MEASUREMENT = _options(click.option("--s", type=int, default=1, show_default=True),
                       click.option("--t", type=int, default=9, show_default=True), R)
FAMILY = _options(click.option("--family", type=click.Choice(["ghz", "antisym", "file"]),
                               default="ghz", show_default=True),
                  click.option("--state-file", type=click.Path(exists=True, dir_okay=False)), D)
OUTPUT = _options(click.option("--f", "f_choice", default="all", show_default=True,
                               help="qfi | wyd[:omega] | variance | all"),
                  click.option("--format", "out_format", type=click.Choice(["csv", "json"]),
                               default="csv", show_default=True),
                  click.option("--output", type=click.Path(dir_okay=False), default=None))


def _config_echo(params: dict) -> dict:
    """The resolved options, less --d for the families that take d from N or a file."""
    unused = {"d"} if params.get("family") in ("antisym", "file") else set()
    return {k: (list(v) if isinstance(v, tuple) else v)
            for k, v in sorted(params.items()) if k not in unused}


def _build_measurement(d: int, s: int, t: int, r: str):
    return build_stpovm(gell_mann_basis(d), s, t, r if r == "max" else float(r))


def _family(name: str, d: int, n: int, state_file: Optional[str]):
    """(state, d): ghz takes --d, antisym d = N, and a file its own site dimension."""
    if name == "ghz":
        return ghz_qudit(d, n), d
    if name == "antisym":
        return antisymmetric_state(n), n
    if state_file is None:  # click.Choice leaves only "file"
        raise click.BadParameter("--state-file is required for --family file")
    state = load_state_file(state_file)
    if state.n_sites != n:
        raise ValueError(f"--n {n} differs from the {state.n_sites} sites of {state_file}")
    return state, state.site_dims[0]


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:  # a missing directory, a read-only file
            _fail(exc)
    else:  # file= bypasses click's stream cache, which keeps every stdout alive
        click.echo(text, nl=False, file=sys.stdout)


def _fail(message: object) -> NoReturn:
    click.echo(f"error: {message}", file=sys.stderr)  # as in _emit, for stderr
    sys.exit(1)


@click.group()
def main():
    """Symmetric-measurement construction and k-nonstretchability detection."""


@main.command("povm")
@click.option("--d", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--t", type=int, required=True)
@R
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="Write the measurement as JSON to this path.")
@CONFIG
@click.pass_context
def cmd_povm(ctx, d, s, t, r, output):
    """Build an informationally complete (s,t)-POVM and certify it."""
    try:
        m = _build_measurement(d, s, t, r)
    except ValueError as exc:
        _fail(exc)
    r_neg, r_pos = m.r_bounds
    lines = [f"(s,t)-POVM d={d} s={s} t={t} r={fmt(m.r)} chi={fmt(m.chi)}",
             f"r range: [{fmt(r_neg)}, {fmt(r_pos)}]", "certification:"]
    # a measurement that exists has passed certification, so every residual does
    lines += [f"  {key:24s} {fmt(val):>18s}  pass" for key, val in m.residuals.items()]
    if output:
        _emit(m.to_json(config=_config_echo(ctx.params), certification=m.residuals),
              output)
        lines.append(f"wrote {output}")
    _emit("\n".join(lines) + "\n", None)
    sys.exit(0)


def _p_values(p: tuple[float, ...], p_range: Optional[str]) -> list[float]:
    if p_range:
        try:
            start, stop, count = p_range.split(":")
            values = [float(x) for x in np.linspace(float(start), float(stop), int(count))]
        except ValueError:  # a wrong form, or a negative count
            values = []
        if not values:
            raise click.BadParameter(f"{p_range!r} is not START:STOP:COUNT with COUNT >= 1",
                                     param_hint="'--p-range'")
    elif p:
        values = sorted(float(x) for x in p)
    else:
        raise click.BadParameter("provide --p or --p-range", param_hint=["--p", "--p-range"])
    for p_val in values:
        if not 0.0 <= p_val <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p_val}")
    return values


def _criteria_json(cfg: dict, shared: dict, rows: list) -> str:
    """json.dumps({"config": cfg, "rows": [rep.to_json_dict() ...]}, indent=2) + "\\n" for
    the reports of these `sweep_rows`, with the shared fields encoded once into a row
    template and the rows by one call to the C encoder, which indent=2 never uses."""
    head = json.dumps({"config": cfg, "rows": []}, indent=2)
    template = "    {\n" + ",\n".join(
        f'      "{key}": ' + (json.dumps(shared[key]) if key in shared else "%s")
        for key in (*ROW_KEYS, "verdict")) + "\n    }"
    verdicts = {(vs, vv): json.dumps(verdict_of(vs, vv))
                for vs in (True, False, None) for vv in (True, False)}
    # no label, number, bool or null holds a "," or "],[", so the splits find the cells
    cells = json.dumps(rows, separators=(",", ":"))[2:-2].split("],[")
    body = ",\n".join(template % (*cell.split(","), verdicts[row[3], row[5]])
                      for cell, row in zip(cells, rows))
    return f"{head[:-4]}[\n{body}\n  ]\n}}\n"


def _criteria_csv(cfg: dict, shared: dict, rows: list) -> str:
    """CSV of these `sweep_rows`: each row fills a template holding the shared fields."""
    template = ",".join(fmt(shared[key]) if key in shared else "%s" for key in ROW_KEYS)
    return "\n".join([f"# config = {json.dumps(cfg)}", CSV_HEADER,
                      *(template % (f, *map(fmt, rest)) for f, *rest in rows)]) + "\n"


@main.command("criteria")
@FAMILY
@N_AND_K
@MEASUREMENT
@click.option("--p", type=float, multiple=True)
@click.option("--p-range", default=None, help="START:STOP:COUNT grid of p values.")
@OUTPUT
@CONFIG
@click.pass_context
def cmd_criteria(ctx, family, state_file, d, n, k, s, t, r, p, p_range, f_choice,
                 out_format, output):
    """Evaluate both detection inequalities over a sweep of noise values."""
    try:
        p_values = _p_values(p, p_range)
        quantities = parse_f(f_choice)
        state, state_d = _family(family, d, n, state_file)
        m = _build_measurement(state_d, s, t, r)
        shared, rows = sweep_rows(state, m, k, quantities, p_values)
    except ValueError as exc:
        _fail(exc)
    writer = _criteria_json if out_format == "json" else _criteria_csv
    _emit(writer(_config_echo(ctx.params), shared, rows), output)
    sys.exit(0)


@main.command("threshold")
@FAMILY
@click.option("--n", "--N", "n", type=int, multiple=True, required=True)
@click.option("--k", type=int, default=None,
              help="Stretchability parameter; defaults to 3-N per sweep entry.")
@MEASUREMENT
@OUTPUT
@CONFIG
@click.pass_context
def cmd_threshold(ctx, family, state_file, d, n, k, s, t, r, f_choice, out_format, output):
    """Solve for the smallest detectable noise weight per (N, criterion)."""
    if family == "antisym" and len(set(n)) > 1:
        raise click.BadParameter("the antisymmetric family has d = N, and no (s,t) "
                                 "fits two dimensions: give one N", param_hint="'--n'")
    rows = []
    try:
        quantities = parse_f(f_choice)
        states = [_family(family, d, n_val, state_file) for n_val in sorted(n)]
        m = _build_measurement(states[0][1], s, t, r)  # antisym has one N, so one d
        for n_val, (state, _) in zip(sorted(n), states):
            k_val = k if k is not None else 3 - n_val
            for quantity in quantities:
                label, criterion = ((quantity.label, "skew") if is_skew(quantity)
                                    else (VARIANCE, "variance"))
                p_star = threshold_p(state, m, quantity, k_val)
                rows.append((n_val, k_val, label, criterion, p_star))
    except ValueError as exc:
        _fail(exc)
    cfg = _config_echo(ctx.params)
    if out_format == "json":
        text = json.dumps({
            "config": cfg,
            "rows": [{"N": nv, "k": kv, "f": lb, "criterion": cr,
                      "p_star": ps} for nv, kv, lb, cr, ps in rows],
        }, indent=2) + "\n"
    else:
        lines = [f"# config = {json.dumps(cfg)}", "N,k,f,criterion,p_star"]
        for nv, kv, lb, cr, ps in rows:
            lines.append(",".join([fmt(nv), fmt(kv), lb, cr,
                                   fmt(ps) if ps is not None else "NONE"]))
        text = "\n".join(lines) + "\n"
    _emit(text, output)
    sys.exit(0)


@main.command("partitions")
@N_AND_K
@D
@MEASUREMENT
@click.option("--diagrams", is_flag=True, default=False)
@CONFIG
@click.pass_context
def cmd_partitions(ctx, n, k, d, s, t, r, diagrams):
    """Count k-stretchable partitions and print the detection bounds."""
    if n < 1:
        raise click.BadParameter(f"N = {n} must be >= 1", param_hint="'--n'")
    count = count_kstretch(n, k)
    lines = [f"# config = {json.dumps(_config_echo(ctx.params))}",
             f"{count} {k}-stretchable partition(s) of {n}"]
    if not count:
        _emit("\n".join(lines) + "\n", None)
        sys.exit(0)
    lines.append(f"max sum of squared block sizes: {max_sum_squares(n, k)}")
    try:
        m = _build_measurement(d, s, t, r)
        inputs = BoundInputs.from_measurement(m, n, min(k, n - 1))
        lines.append(f"I bound: {fmt(bound_i(inputs))}")
        lines.append(f"V bound: {fmt(bound_v(inputs))}")
    except ValueError as exc:
        lines.append(f"bounds unavailable: {exc}")
    if diagrams:
        for parts in enumerate_kstretch(n, k):
            lines += ["", young_diagram(parts)]
    _emit("\n".join(lines) + "\n", None)
    sys.exit(0)


if __name__ == "__main__":
    main()
