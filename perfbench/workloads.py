"""The four benchmark workloads: their seeded inputs, operations and checks.

Constructing a workload is its set-up: importing this module imports
kstretch, numpy and click, and `__init__` generates the inputs.  `prepare()`
computes the reference values once per run, outside every timed region,
and returns the errors of checks that belong to the run rather than to one
operation.  `operations()` lists one pass; each operation carries the check
of its own output.  Calls made in set-up or in a pass go through module
attributes (`criteria.evaluate`, `cli.main`) so that `tracer.py` sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

import checks
from kstretch import BoundInputs, DensityMatrix, bound_i, bound_v, ghz_qudit, max_sum_squares
from kstretch import basis, cli, criteria, povm, states
from kstretch.criteria import random_kstretchable_density
from kstretch.infoquant import MonotoneFunctionSpec


class Operation(NamedTuple):
    label: str
    run: Callable[[], object]                  # timed as one operation
    check: Callable[[object], list]            # errors in the output, untimed
    post: Optional[Callable[[object], object]] = None  # rest of the pass, timed in wall_s


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str


def run_cli(args: list[str]) -> CliResult:
    """`kstretch <args>` in this process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_errors(result: CliResult, label: str) -> list[str]:
    if result.code != 0:
        return [f"{label}: exit code {result.code}: {result.stderr.strip()[-300:]}"]
    return []


def measurement(d: int, s: int, t: int):
    return povm.build_stpovm(basis.gell_mann_basis(d), s, t, "max")


def isotropic_bounds(m, n: int, k: int) -> tuple[float, float]:
    inputs = BoundInputs.from_measurement(m, n, k)
    return float(bound_i(inputs)), float(bound_v(inputs))


class ThresholdGhz:
    """`kstretch threshold --family ghz --d 3 --n N --f all`, one call per N,
    k = 3-N and the default r."""

    name = "threshold-ghz"
    NS = (10, 20, 30, 40, 50)

    def __init__(self, seed: int, workdir: Path):
        self.ns = [int(n) for n in np.random.default_rng(seed).permutation(self.NS)]
        self.refs: dict = {}

    def prepare(self) -> list[str]:
        m = measurement(3, 1, 9)
        errors = checks.check_measurement(3, 1, 9, m.chi, m.effects)
        rho1, rho2 = checks.ghz_rdms(3)
        for n in self.NS:
            k = 3 - n
            errors += checks.check_m(n, k, max_sum_squares(n, k))
            ref = checks.IsotropicReference.from_rdms(list(m.iter_effects()), rho1, rho2, n)
            self.refs[n] = (k, ref, *isotropic_bounds(m, n, k))
        return errors

    def _check(self, n: int, result: CliResult) -> list[str]:
        errors = cli_errors(result, f"N={n}")
        if not errors:
            errors = checks.check_threshold_rows(
                checks.parse_threshold_csv(result.stdout), n, *self.refs[n])
        return errors

    def operations(self) -> list[Operation]:
        return [Operation(f"N={n}",
                          lambda n=n: run_cli(["threshold", "--family", "ghz", "--d", "3",
                                               "--n", str(n), "--f", "all"]),
                          lambda res, n=n: self._check(n, res))
                for n in self.ns]


class CriteriaIsotropic:
    """`kstretch criteria --f all --p-range 0:1:101 --format json` on the
    antisymmetric state, N = 3..6 with the (1,N^2)-POVM, and on GHZ d=3."""

    name = "criteria-isotropic"
    CASES = [("antisym", n, n, 1, n * n) for n in (3, 4, 5, 6)] + \
            [("ghz", n, 3, 1, 9) for n in (4, 8, 12)]
    P_RANGE = "0:1:101"

    def __init__(self, seed: int, workdir: Path):
        order = np.random.default_rng(seed).permutation(len(self.CASES))
        self.cases = [self.CASES[i] for i in order]
        self.p_grid = np.linspace(0.0, 1.0, 101)
        self.refs: dict = {}

    def prepare(self) -> list[str]:
        errors = []
        for family, n, d, s, t in self.CASES:
            m = measurement(d, s, t)
            effects = list(m.iter_effects())
            errors += checks.check_measurement(d, s, t, m.chi, m.effects)
            rdms = checks.antisym_rdms(d) if family == "antisym" else checks.ghz_rdms(d)
            ref = checks.IsotropicReference.from_rdms(effects, *rdms, n)
            if family == "antisym" and n == 3:
                errors += checks.check_same_moments(
                    ref, checks.IsotropicReference.antisym_dense(effects, n), "antisym N=3 dense vector")
            self.refs[family, n] = (3 - n, ref, *isotropic_bounds(m, n, 3 - n))
        return errors

    def _check(self, family: str, n: int, result: CliResult) -> list[str]:
        errors = cli_errors(result, f"{family} N={n}")
        if not errors:
            rows = json.loads(result.stdout)["rows"]
            errors = checks.check_criteria_rows(rows, n, *self.refs[family, n], self.p_grid)
        return errors

    def operations(self) -> list[Operation]:
        ops = []
        for family, n, d, s, t in self.cases:
            args = ["criteria", "--family", family, "--d", str(d), "--n", str(n),
                    "--k", str(3 - n), "--s", str(s), "--t", str(t), "--f", "all",
                    "--p-range", self.P_RANGE, "--format", "json"]
            ops.append(Operation(f"{family} N={n}", lambda args=args: run_cli(args),
                                 lambda res, f=family, n=n: self._check(f, n, res)))
        return ops


class DenseMixed:
    """Library `evaluate()` with QFI, WYD(1/2) and variance on dense states:
    seeded random k-stretchable mixtures, a noisy GHZ state and the
    maximally mixed state."""

    name = "dense-mixed"
    K = -1
    QUANTITIES = (MonotoneFunctionSpec("qfi"), MonotoneFunctionSpec("wyd", 0.5), None)
    RANDOM = ((2, 8), (3, 5), (3, 6))     # (d, N): D = 256, 243, 729
    GHZ = (3, 5)                           # D = 243
    MIXED = (2, 8)                         # D = 256

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.povms = {2: measurement(2, 3, 2), 3: measurement(3, 1, 9)}
        self.states = []  # (label, d, n, DensityMatrix, kind)
        for d, n in self.RANDOM:
            rho = random_kstretchable_density(rng, d, n, self.K)
            self.states.append((f"random d={d} N={n}", d, n, rho, "stretchable"))
        d, n = self.GHZ
        self.ghz_p = float(rng.uniform(0.3, 0.95))
        self.ghz = ghz_qudit(d, n)
        self.states.append((f"ghz d={d} N={n} p={self.ghz_p:.4f}", d, n,
                            states.materialize_dense(self.ghz, self.ghz_p), "ghz"))
        d, n = self.MIXED
        self.states.append((f"maximally mixed d={d} N={n}", d, n,
                            DensityMatrix((d,) * n, np.eye(d ** n) / d ** n), "mixed"))
        order = rng.permutation(len(self.states) * len(self.QUANTITIES))
        pairs = [(i, q) for i in range(len(self.states)) for q in self.QUANTITIES]
        self.pairs = [pairs[j] for j in order]
        self.refs: dict = {}

    def prepare(self) -> list[str]:
        errors = []
        for m in self.povms.values():
            errors += checks.check_measurement(m.d, m.s, m.t, m.chi, m.effects)
        for i, (label, d, n, rho, kind) in enumerate(self.states):
            m = self.povms[d]
            effects = list(m.iter_effects())
            lhs_var = checks.variance_sum_from_rdms(rho.entries, d, n, effects)
            if kind == "mixed":
                expected = checks.maximally_mixed_variance_sum(effects, d, n)
                if not checks.close(lhs_var, expected):
                    errors.append(f"{label}: reduced-state variance sum {lhs_var}, "
                                  f"closed form {expected}")
                lhs_var = expected
            isotropic = {}
            if kind == "ghz":
                isotropic = {q: criteria.evaluate(self.ghz, m, q, self.K, p=self.ghz_p).to_json_dict()
                             for q in self.QUANTITIES}
            self.refs[i] = (lhs_var, *isotropic_bounds(m, n, self.K), isotropic)
        return errors

    def _check(self, i: int, quantity, report) -> list[str]:
        label, _d, _n, _rho, kind = self.states[i]
        lhs_var, i_bd, v_bd, isotropic = self.refs[i]
        row = report.to_json_dict()
        where = f"{label} {row['f']}"
        errors = checks.check_dense_report(row, where, lhs_var=lhs_var, i_bound=i_bd,
                                           v_bound=v_bd, stretchable=kind == "stretchable",
                                           maximally_mixed=kind == "mixed")
        if kind == "ghz":
            errors += checks.check_same_report(row, isotropic[quantity], where)
        return errors

    def operations(self) -> list[Operation]:
        ops = []
        for i, quantity in self.pairs:
            label, d, _n, rho, _kind = self.states[i]
            m = self.povms[d]
            ops.append(Operation(
                f"{label} {quantity.label if quantity else 'variance'}",
                lambda rho=rho, m=m, q=quantity: criteria.evaluate(rho, m, q, self.K),
                lambda rep, i=i, q=quantity: self._check(i, q, rep)))
        return ops


class PovmCatalog:
    """`kstretch povm --output` for every informationally complete (s,t)
    family at d = 2..9, each file reloaded with `SymmetricMeasurement.from_json`."""

    name = "povm-catalog"
    FAMILIES = [(d, (d * d - 1) // (t - 1), t)
                for d in range(2, 10) for t in range(2, d * d + 1)
                if (d * d - 1) % (t - 1) == 0]

    def __init__(self, seed: int, workdir: Path):
        order = np.random.default_rng(seed).permutation(len(self.FAMILIES))
        self.families = [self.FAMILIES[i] for i in order]
        self.workdir = workdir

    def prepare(self) -> list[str]:
        return []

    def _reload(self, path: Path, result: CliResult):
        return result, povm.SymmetricMeasurement.from_json(path.read_text())

    def _check(self, d: int, s: int, t: int, outcome) -> list[str]:
        result, m = outcome
        errors = cli_errors(result, f"d={d} ({s},{t})")
        if errors:
            return errors
        if (m.d, m.s, m.t) != (d, s, t):
            return [f"d={d} ({s},{t}): file holds d={m.d} ({m.s},{m.t})"]
        return (checks.check_measurement(d, s, t, m.chi, m.effects)
                + checks.check_povm_output(checks.parse_povm_stdout(result.stdout),
                                           d, s, t, m.r, m.chi))

    def operations(self) -> list[Operation]:
        ops = []
        for d, s, t in self.families:
            path = self.workdir / f"povm_d{d}_s{s}_t{t}.json"
            args = ["povm", "--d", str(d), "--s", str(s), "--t", str(t),
                    "--output", str(path)]
            ops.append(Operation(f"d={d} ({s},{t})", lambda args=args: run_cli(args),
                                 lambda out, d=d, s=s, t=t: self._check(d, s, t, out),
                                 lambda res, path=path: self._reload(path, res)))
        return ops


WORKLOADS = {cls.name: cls for cls in (ThresholdGhz, CriteriaIsotropic, DenseMixed, PovmCatalog)}
