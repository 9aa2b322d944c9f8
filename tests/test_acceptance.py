"""Acceptance gate: one check per release criterion, one PASS/FAIL line each.

Run with `pytest -v`; capture is disabled project-wide so every line
prints.  Criteria 3-5 encode external reference values; see the test
bodies for the quantities actually compared.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_density, random_hermitian, random_pure
from kstretch.basis import gell_mann_basis, group_basis
from kstretch.criteria import (
    antisym_variance_threshold,
    block_operator_bounds,
    block_probability_bounds,
    evaluate,
    random_kstretchable_density,
    threshold_p,
)
from kstretch.infoquant import (
    QFI,
    VARIANCE,
    WYD_HALF,
    criterion_lhs_dense,
    criterion_lhs_isotropic,
    skew_information,
    variance,
)
from kstretch.linalg import DensityMatrix, kron
from kstretch.partitions import bracket_audit, max_sum_squares
from kstretch.povm import build_b_operators, build_stpovm, certification_residuals, \
    r_range
from kstretch.states import antisymmetric_state, effect_moments, ghz_qudit, \
    materialize_dense

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(flush=True)
    print(line, flush=True)
    assert ok, line


def test_01_povm_certification():
    start = time.monotonic()
    worst = 0.0
    for d in (2, 3, 4, 5):
        basis = gell_mann_basis(d)
        families = {(1, d * d), (d + 1, d), (d * d - 1, 2), (d - 1, d + 2)}
        for s, t in families:
            m = build_stpovm(basis, s, t)
            res = certification_residuals(m)
            worst = max(worst, -res.pop("min_effect_eigenvalue"), *res.values())
    elapsed = time.monotonic() - start
    report(1, "povm certification", worst < 1e-10 and elapsed < 10,
           f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_02_r_range_reproduction():
    start = time.monotonic()
    rows = build_b_operators(group_basis(gell_mann_basis(3), 1, 9))
    r_neg, r_pos = r_range(rows)
    elapsed = time.monotonic() - start
    ok = (abs(abs(r_neg) - 0.0121) < 5e-4 and abs(r_pos - 0.0129) < 5e-4
          and elapsed < 1)
    report(2, "r-range reproduction", ok,
           f"|r-|={abs(r_neg):.6f}, r+={r_pos:.6f}, {elapsed:.2f}s")


def test_03_ghz_reference_thresholds():
    reference = {10: 0.5156, 20: 0.2549, 30: 0.1692, 40: 0.1266, 50: 0.1011}
    m = build_stpovm(gell_mann_basis(3), 1, 9, 0.0129)
    start = time.monotonic()
    results = {}
    for spec in (QFI, WYD_HALF):
        results[spec.label] = {
            n: threshold_p(ghz_qudit(3, n), m, spec, k=3 - n)
            for n in reference
        }
    elapsed = time.monotonic() - start
    matches = {
        label: all(vals[n] is not None and abs(vals[n] - reference[n]) < 1e-3
                   for n in reference)
        for label, vals in results.items()
    }
    detail = "; ".join(
        f"{label}: " + ", ".join(f"N={n}:{vals[n]:.4f}" for n in sorted(vals))
        for label, vals in results.items()
    )
    matching = [label for label, ok in matches.items() if ok]
    report(3, "reference threshold digits", bool(matching) and elapsed < 30,
           f"matching f: {matching or 'none'}; computed {detail}; {elapsed:.1f}s")


def test_04_ghz_negative_claims():
    m = build_stpovm(gell_mann_basis(3), 1, 9, 0.0129)
    start = time.monotonic()
    variance_hits = [
        n for n in range(2, 51)
        if threshold_p(ghz_qudit(3, n), m, VARIANCE, k=3 - n) is not None
    ]
    skew_n5 = {
        spec.label: threshold_p(ghz_qudit(3, 5), m, spec, k=-2)
        for spec in (QFI, WYD_HALF)
    }
    elapsed = time.monotonic() - start
    ok = not variance_hits and all(v is None for v in skew_n5.values())
    report(4, "negative detection claims", ok and elapsed < 60,
           f"variance detections: {variance_hits or 'none'}; "
           f"skew thresholds at N=5: {skew_n5}; {elapsed:.1f}s")


def test_05_antisym_closed_formula():
    start = time.monotonic()
    rows = []
    dense_ok = True
    for n in (3, 4):
        k = 3 - n
        fam = antisymmetric_state(n)
        m = build_stpovm(gell_mann_basis(n), 1, n * n)
        p_star = threshold_p(fam, m, VARIANCE, k=k)
        formula = antisym_variance_threshold(n, m.r)
        # dense cross-check: the indicator flips at the solved threshold
        eps = 1e-4
        below = evaluate(materialize_dense(fam, p_star - eps), m, None, k=k)
        above = evaluate(materialize_dense(fam, p_star + eps), m, None, k=k)
        dense_ok &= (not below.violated_var) and above.violated_var
        rows.append((n, p_star, formula))
    elapsed = time.monotonic() - start
    formula_ok = all(abs(p_star - formula) < 1e-5 for _, p_star, formula in rows)
    detail = "; ".join(f"N={n}: solver {p_star:.6f} vs formula {formula:.6f}"
                       for n, p_star, formula in rows)
    report(5, "closed-formula thresholds", formula_ok and dense_ok and elapsed < 30,
           f"{detail}; dense flip check {'ok' if dense_ok else 'failed'}; "
           f"{elapsed:.1f}s")


def test_06_dense_fast_equivalence():
    m = build_stpovm(gell_mann_basis(3), 1, 9)
    start = time.monotonic()
    worst = 0.0
    for n in (3, 4, 5, 6):
        fam = ghz_qudit(3, n)
        moments = effect_moments(fam)
        for p in (0.0, 0.3, 0.7, 1.0):
            rho = materialize_dense(fam, p)
            for quantity in (QFI, WYD_HALF, VARIANCE):
                fast = criterion_lhs_isotropic(moments, m.beta, p, 3, n, quantity)
                dense = criterion_lhs_dense(rho, m, quantity)
                worst = max(worst, abs(fast - dense))
    elapsed = time.monotonic() - start
    report(6, "dense/fast-path equivalence", worst < 1e-9 and elapsed < 300,
           f"worst |fast-dense| {worst:.2e}, {elapsed:.1f}s")


def test_07_block_bound_properties():
    start = time.monotonic()
    all_ok = True
    equality_ok = True
    for d in (2, 3):
        m = build_stpovm(gell_mann_basis(d), 1, d * d)
        for n in (1, 2, 3):
            op = block_operator_bounds(m, n)
            all_ok &= op["ok"]
            if n == 1:
                equality_ok &= abs(op["lower"] - op["upper"]) < 1e-9
                e0 = np.zeros(d)
                e0[0] = 1.0
                psi = DensityMatrix((d,), np.outer(e0, e0))
            else:
                psi = materialize_dense(ghz_qudit(d, n), 1.0)
            all_ok &= block_probability_bounds(m, psi)["ok"]
    elapsed = time.monotonic() - start
    report(7, "block bound properties", all_ok and equality_ok and elapsed < 120,
           f"equality at n=1 {'ok' if equality_ok else 'failed'}, {elapsed:.1f}s")


def test_08_soundness_sweep():
    rng = np.random.default_rng(8451)
    configs = [(2, 3, 0), (2, 3, 1), (2, 4, 0), (2, 4, -1),
               (3, 3, 0), (3, 3, 1), (3, 4, -1), (2, 5, 0)]
    measurements = {d: build_stpovm(gell_mann_basis(d), 1, d * d)
                    for d in (2, 3)}
    start = time.monotonic()
    false_hits = []
    for i in range(200):
        d, n, k = configs[i % len(configs)]
        rho = random_kstretchable_density(rng, d, n, k)
        for quantity in (QFI, WYD_HALF, None):
            rep = evaluate(rho, measurements[d], quantity, k)
            if rep.verdict != "inconclusive":
                false_hits.append((i, d, n, k, rep.f_label))
    elapsed = time.monotonic() - start
    report(8, "soundness sweep", not false_hits and elapsed < 300,
           f"200 states, false violations: {false_hits or 'none'}, {elapsed:.1f}s")


def test_09_partition_oracle():
    start = time.monotonic()
    fig1_ok = max_sum_squares(5, -2) == 7
    rows = bracket_audit(14)
    regenerated = ["N,k,enumeration,closed_form,agree"] + [
        f"{r['n']},{r['k']},{r['enumeration']},{r['closed_form']},"
        f"{'true' if r['agree'] else 'false'}"
        for r in rows
    ]
    shipped = (REPO_ROOT / "partition_bracket_audit.csv").read_text().strip()
    stable = shipped == "\n".join(regenerated)
    n_disagree = sum(1 for r in rows if not r["agree"])
    elapsed = time.monotonic() - start
    report(9, "partition oracle", fig1_ok and stable and elapsed < 5,
           f"M(5,-2)={max_sum_squares(5, -2)}, audit rows {len(rows)}, "
           f"disagreements {n_disagree}, table stable: {stable}, {elapsed:.1f}s")


def test_10_information_properties():
    rng = np.random.default_rng(1041)
    start = time.monotonic()
    worst_convex = -np.inf
    worst_additive = 0.0
    for _ in range(100):
        # convexity of skew information, concavity of variance
        d = 3
        r1 = random_density(rng, d)
        r2 = random_density(rng, d)
        q = rng.uniform(0.1, 0.9)
        mix = DensityMatrix((d,), q * r1 + (1 - q) * r2)
        rho1, rho2 = DensityMatrix((d,), r1), DensityMatrix((d,), r2)
        x = random_hermitian(rng, d)
        for spec in (QFI, WYD_HALF):
            gap = (skew_information(mix, x, spec)
                   - q * skew_information(rho1, x, spec)
                   - (1 - q) * skew_information(rho2, x, spec))
            worst_convex = max(worst_convex, gap)
        gap = (q * variance(rho1, x) + (1 - q) * variance(rho2, x)
               - variance(mix, x))
        worst_convex = max(worst_convex, gap)
        # additivity on a product of pure states
        v1, v2 = random_pure(rng, 2), random_pure(rng, 3)
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 3)
        prod = DensityMatrix((2, 3), kron(np.outer(v1, v1.conj()),
                                          np.outer(v2, v2.conj())))
        collective = kron(a, np.eye(3)) + kron(np.eye(2), b)
        p1 = DensityMatrix((2,), np.outer(v1, v1.conj()))
        p2 = DensityMatrix((3,), np.outer(v2, v2.conj()))
        for spec in (QFI, WYD_HALF):
            total = skew_information(prod, collective, spec)
            parts = (skew_information(p1, a, spec)
                     + skew_information(p2, b, spec))
            worst_additive = max(worst_additive, abs(total - parts))
        worst_additive = max(worst_additive, abs(
            variance(prod, collective) - variance(p1, a) - variance(p2, b)))
    elapsed = time.monotonic() - start
    ok = worst_convex < 1e-10 and worst_additive < 1e-10 and elapsed < 60
    report(10, "convexity/additivity properties", ok,
           f"worst convexity gap {worst_convex:.2e}, "
           f"worst additivity gap {worst_additive:.2e}, {elapsed:.1f}s")
