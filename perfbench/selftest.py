"""Self-test of the output checks: each must pass the program's real output
and reject a deliberately perturbed copy of it, so that none passes
vacuously.  Runs small versions of the four workloads (a few seconds)
through `python3 perfbench/run.py --self-test`; exits non-zero if any case
misbehaves.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import tempfile
import types
from pathlib import Path

import numpy as np

import checks
import workloads
from run import ROOT, run_pass


class SmallThreshold(workloads.ThresholdGhz):
    NS = (10, 20)


class SmallCriteria(workloads.CriteriaIsotropic):
    CASES = [("antisym", 3, 3, 1, 9), ("ghz", 4, 3, 1, 9)]


class SmallDense(workloads.DenseMixed):
    RANDOM = ((2, 5),)
    GHZ = (3, 3)
    MIXED = (2, 4)


class SmallPovm(workloads.PovmCatalog):
    FAMILIES = [(3, 1, 9), (2, 3, 2)]


def run_small(cls, workdir: Path):
    wl = cls(7, workdir)
    errors = wl.prepare()
    ops = wl.operations()
    _wall, _lat, outputs = run_pass(ops)
    results = {}
    for op, (out, err) in zip(ops, outputs):
        errors += [err] if err else op.check(out)
        results[op.label] = (op, out)
    return wl, errors, results


def with_stdout(result, text: str):
    return result._replace(stdout=text)


def threshold_csv(rows: list[dict]) -> str:
    lines = ["N,k,f,criterion,p_star"] + [
        f"{r['N']},{r['k']},{r['f']},{r['criterion']},"
        + ("NONE" if r["p_star"] is None else repr(r["p_star"])) for r in rows]
    return "\n".join(lines) + "\n"


def threshold_cases(results) -> list[tuple]:
    op, out = results["N=10"]
    rows = checks.parse_threshold_csv(out.stdout)

    def perturbed(index: int, value):
        changed = [dict(r) for r in rows]
        changed[index]["p_star"] = value
        return op.check(with_stdout(out, threshold_csv(changed)))

    qfi, wyd = rows[0]["p_star"], rows[1]["p_star"]
    m_program = workloads.max_sum_squares(10, -7)
    return [
        ("threshold: QFI p* shifted by 1e-4", perturbed(0, qfi + 1e-4), "exact root"),
        ("threshold: QFI NONE where a root exists", perturbed(0, None), "NONE"),
        ("threshold: WYD p* shifted by +1e-4", perturbed(1, wyd + 1e-4), "bracket"),
        ("threshold: WYD p* shifted by -1e-4", perturbed(1, wyd - 1e-4), "bracket"),
        ("threshold: variance NONE replaced by p*=0.5", perturbed(2, 0.5), "bracket"),
        ("threshold: M(N,k) off by one", checks.check_m(10, -7, m_program + 1), "block count"),
        ("threshold: row missing", op.check(with_stdout(out, threshold_csv(rows[:2]))), "rows"),
    ]


def criteria_cases(results) -> list[tuple]:
    op, out = results["ghz N=4"]
    doc = json.loads(out.stdout)
    mid = 50 * 3  # p = 0.5, QFI row

    def perturbed(index: int, **changes):
        rows = [dict(r) for r in doc["rows"]]
        rows[index].update(changes)
        return op.check(with_stdout(out, json.dumps({"rows": rows})))

    row, var_row = doc["rows"][mid], doc["rows"][mid + 2]
    return [
        ("criteria: lhs_skew scaled by 1+1e-6",
         perturbed(mid, lhs_skew=row["lhs_skew"] * (1 + 1e-6)), "lhs_skew"),
        ("criteria: lhs_var scaled by 1+1e-6",
         perturbed(mid + 2, lhs_var=var_row["lhs_var"] * (1 + 1e-6)), "lhs_var"),
        ("criteria: violated_skew flipped",
         perturbed(mid, violated_skew=not row["violated_skew"]), "violated_skew"),
        ("criteria: violated_var flipped",
         perturbed(mid + 2, violated_var=not var_row["violated_var"]), "violated_var"),
        ("criteria: verdict flipped",
         perturbed(mid, verdict="k-nonstretchable" if row["verdict"] == "inconclusive"
                   else "inconclusive"), "verdict"),
        ("criteria: lhs_skew 1e-13 at p=0", perturbed(0, lhs_skew=1e-13), "at p=0"),
        ("criteria: i_bound scaled by 1+1e-6",
         perturbed(mid, i_bound=row["i_bound"] * (1 + 1e-6)), "bounds"),
    ]


def antisym_dense_case() -> tuple:
    m = workloads.measurement(3, 1, 9)
    effects = list(m.iter_effects())
    ref = checks.IsotropicReference.from_rdms(effects, *checks.antisym_rdms(3), 3)
    dense = checks.IsotropicReference.antisym_dense(effects, 3)
    dense.second = dense.second.copy()
    dense.second[0] += 1e-8
    return ("criteria: antisym N=3 dense moment shifted by 1e-8",
            checks.check_same_moments(ref, dense, "antisym N=3"), "second")


def dense_cases(wl, results) -> list[tuple]:
    def find(kind: str, family: str):
        for label, (op, out) in results.items():
            state = next(s for s in wl.states if label.startswith(s[0]))
            if state[4] == kind and out.f_label == family:
                return op, out
        raise KeyError((kind, family))

    cases = []
    op, rep = find("stretchable", "qfi")
    unsound = dataclasses.replace(rep, lhs_skew=rep.i_bound + 1.0, lhs_var=rep.i_bound + 2.0,
                                  violated_skew=True)
    cases.append(("dense: k-stretchable state reported k-nonstretchable",
                  op.check(unsound), "UNSOUND"))
    cases.append(("dense: random-state lhs_var scaled by 1+1e-6",
                  op.check(dataclasses.replace(rep, lhs_var=rep.lhs_var * (1 + 1e-6))),
                  "lhs_var"))
    cases.append(("dense: lhs_skew above lhs_var",
                  op.check(dataclasses.replace(rep, lhs_skew=rep.lhs_var * 1.01)),
                  "outside"))
    op, rep = find("mixed", "qfi")
    cases.append(("dense: maximally mixed lhs_skew 1e-9",
                  op.check(dataclasses.replace(rep, lhs_skew=1e-9)), "maximally mixed"))
    cases.append(("dense: maximally mixed lhs_var scaled by 1+1e-6",
                  op.check(dataclasses.replace(rep, lhs_var=rep.lhs_var * (1 + 1e-6))),
                  "lhs_var"))
    op, rep = find("ghz", "wyd:0.5")
    cases.append(("dense: noisy GHZ lhs_skew scaled by 1+1e-8 against isotropic",
                  op.check(dataclasses.replace(rep, lhs_skew=rep.lhs_skew * (1 + 1e-8))),
                  "isotropic"))
    return cases


def povm_cases(results) -> list[tuple]:
    op, (cli_result, m) = results["d=3 (1,9)"]

    def fake(effects=None, chi=None):
        return types.SimpleNamespace(d=m.d, s=m.s, t=m.t, r=m.r,
                                     chi=m.chi if chi is None else chi,
                                     effects=m.effects if effects is None else effects)

    scaled = [list(row) for row in m.effects]
    scaled[0][3] = scaled[0][3] * (1 + 1e-8)
    shifted = [list(row) for row in m.effects]
    low = np.linalg.eigvalsh(shifted[0][0])[0]
    shifted[0][0] = shifted[0][0] - (low + 1e-6) * np.eye(m.d)
    text = cli_result.stdout
    bad_range = re.sub(r"(r range: \[[^,]+, )[^\]]+", r"\g<1>0.0135", text)
    failing = text.replace("pass", "FAIL", 1)
    return [
        ("povm: one effect scaled by 1+1e-8", op.check((cli_result, fake(scaled))), "residual"),
        ("povm: effect with a negative eigenvalue", op.check((cli_result, fake(shifted))),
         "not PSD"),
        ("povm: chi at the lower end d/t^2", op.check((cli_result, fake(chi=m.d / m.t ** 2))),
         "outside"),
        ("povm: r range off the paper's values",
         op.check((with_stdout(cli_result, bad_range), m)), "r range"),
        ("povm: a certification line fails",
         op.check((with_stdout(cli_result, failing), m)), "certification"),
    ]


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    ok = True
    try:
        cases = []
        small = {}
        for cls in (SmallThreshold, SmallCriteria, SmallDense, SmallPovm):
            wl, errors, results = run_small(cls, workdir)
            small[cls.name] = (wl, results)
            cases.append((f"{cls.name}: real output passes every check", errors, None))
        cases += threshold_cases(small["threshold-ghz"][1])
        cases += criteria_cases(small["criteria-isotropic"][1])
        cases.append(antisym_dense_case())
        cases += dense_cases(*small["dense-mixed"])
        cases += povm_cases(small["povm-catalog"][1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, errors, expect in cases:
        if expect is None:
            good = not errors
        else:
            good = any(expect in e for e in errors)
        ok &= good
        detail = "" if good else f"  {errors[:3]}"
        print(f"{'PASS' if good else 'FAIL'}  {name}{detail}")
    print(f"self-test: {'all checks behave' if ok else 'FAILED'} ({len(cases)} cases)")
    return 0 if ok else 1
