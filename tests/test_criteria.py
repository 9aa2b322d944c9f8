"""Verdicts, thresholds, auxiliary bound checks, random state generation."""

import json
import math

import numpy as np
import pytest

from conftest import all_families, random_density
from oracles import (
    antisym_variance_threshold,
    block_operator_bounds,
    block_probability_bounds,
    dense_kstretchable_entries,
)
from kstretch import criteria, linalg, partitions
from kstretch.basis import gell_mann_basis
from kstretch.criteria import (
    VERDICT_MARGIN,
    CriterionReport,
    evaluate,
    random_kstretchable_density,
    threshold_p,
)
from kstretch.infoquant import (
    QFI,
    VARIANCE,
    WYD_HALF,
    MonotoneFunctionSpec,
    criterion_lhs_dense,
    criterion_lhs_isotropic,
)
from kstretch.linalg import DensityMatrix
from kstretch.partitions import BoundInputs, bound_i, bound_v, max_sum_squares
from kstretch.povm import build_stpovm
from kstretch.states import (
    antisymmetric_state,
    effect_moments,
    ghz_qudit,
    load_state_file,
    materialize_dense,
)

ORACLE_QUANTITIES = (QFI, MonotoneFunctionSpec("wyd", 0.1), WYD_HALF,
                     MonotoneFunctionSpec("wyd", 0.9), VARIANCE)
ORACLE_WIDTH = 1e-6
NON_MONOTONE = "non-monotone"


def _violated(family, m, quantity, k):
    """p -> whether criterion_lhs_isotropic violates the chosen bound at p."""
    moments = effect_moments(family)
    i_bd, v_bd = criteria._bounds(m, family.n, k)
    beta = m.beta

    def violated(p):
        lhs = criterion_lhs_isotropic(moments, beta, p, family.d, family.n, quantity)
        if quantity == VARIANCE:
            return lhs < v_bd - VERDICT_MARGIN
        return lhs > i_bd + VERDICT_MARGIN
    return violated


def grid_bisection_threshold(family, m, quantity, k):
    """Oracle: the violation indicator on a 101-point grid, then bisection of
    the bracketing cell to width 1e-6.  NON_MONOTONE when the grid flips more
    than once or ends unviolated after a flip."""
    violated = _violated(family, m, quantity, k)
    grid = [(p, violated(p)) for p in np.linspace(0.0, 1.0, 101)]
    flags = [flag for _, flag in grid]
    flips = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
    if flips > 1 or (flips == 1 and not flags[-1]):
        return NON_MONOTONE
    if not flags[-1]:
        return None
    lo = max((p for p, flag in grid if not flag), default=0.0)
    hi = min(p for p, flag in grid if flag)
    while hi - lo > ORACLE_WIDTH:
        mid = 0.5 * (lo + hi)
        if violated(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def oracle_cases(family_kind):
    """(family, measurement, k) over the cases the oracle test covers."""
    if family_kind == "antisym":
        for n in range(3, 9):
            m = build_stpovm(gell_mann_basis(n), 1, n * n)
            for k in range(1 - n, 2):
                yield antisymmetric_state(n), m, k
        return
    d, s, t, r = family_kind
    m = build_stpovm(gell_mann_basis(d), s, t, r)
    for n in range(3, 51):
        yield ghz_qudit(d, n), m, 3 - n


ORACLE_FAMILIES = [(2, 3, 2, "max"), (2, 3, 2, 0.0129), (3, 1, 9, "max"),
                   (3, 1, 9, 0.0129), "antisym"]


def test_verdict_logic():
    base = dict(n=3, k=0, d=3, s=1, t=9, r=0.01, f_label="qfi",
                lhs_skew=1.0, lhs_var=1.0, i_bound=2.0, v_bound=0.5)
    assert CriterionReport(**base, violated_skew=False,
                           violated_var=False).verdict == "inconclusive"
    assert CriterionReport(**base, violated_skew=True,
                           violated_var=False).verdict == "k-nonstretchable"
    assert CriterionReport(**base, violated_skew=None,
                           violated_var=True).verdict == "k-nonstretchable"


def test_evaluate_fast_and_dense_agree(m19):
    fam = ghz_qudit(3, 4)
    fast = evaluate(fam, m19, QFI, k=-1, p=0.9)
    dense = evaluate(materialize_dense(fam, 0.9), m19, QFI, k=-1)
    assert fast.lhs_skew == pytest.approx(dense.lhs_skew, abs=1e-9)
    assert fast.lhs_var == pytest.approx(dense.lhs_var, abs=1e-9)
    assert fast.i_bound == dense.i_bound and fast.v_bound == dense.v_bound
    assert fast.verdict == dense.verdict


def _mixed(rho, p):
    """p rho + (1-p) 1/D built explicitly, in the representation rho has."""
    e = (1 - p) / rho.dim
    if rho.factor is None:
        return DensityMatrix(rho.site_dims, p * rho.entries + e * np.eye(rho.dim))
    return DensityMatrix.from_factor(rho.site_dims, rho.factor, [p] * rho.factor.shape[1],
                                     p * rho.noise + e)


def test_evaluate_mixes_white_noise_into_any_state(m14, m19):
    """evaluate(rho, m, q, k, p) is evaluate of the state p rho + (1-p) 1/D,
    built explicitly, within 1e-12 and with the same verdicts: factor states
    of rank 1 to 3 with and without noise, and states given by entries (full
    rank, GHZ, maximally mixed)."""
    rng = np.random.default_rng(30)
    states = [random_kstretchable_density(rng, 3, 4, -1), random_kstretchable_density(rng, 2, 5, 0),
              materialize_dense(ghz_qudit(3, 4), 0.8),
              DensityMatrix((3,) * 3, random_density(rng, 27)),
              DensityMatrix((2,) * 4, materialize_dense(ghz_qudit(2, 4), 1.0).entries),
              DensityMatrix((2,) * 3, np.eye(8) / 8)]
    quantities = (QFI, WYD_HALF, MonotoneFunctionSpec("wyd", 0.2), VARIANCE)
    for rho in states:
        m, k = (m14 if rho.site_dims[0] == 2 else m19), 3 - rho.n_sites
        for p in (0.0, 0.25, 0.6, 0.95):
            mixed = _mixed(rho, p)
            for quantity in quantities:
                got, want = evaluate(rho, m, quantity, k, p), evaluate(mixed, m, quantity, k)
                for lhs in ("lhs_skew", "lhs_var"):
                    a, b = getattr(got, lhs), getattr(want, lhs)
                    assert (a is None and b is None) or abs(a - b) <= 1e-12 * max(1.0, abs(b)), \
                        (rho.site_dims, p, getattr(quantity, "label", quantity), lhs)
                assert (got.violated_skew, got.violated_var) == (want.violated_skew,
                                                                 want.violated_var)
                assert got.p == p and want.p is None


def test_p_none_is_the_state_itself(m19):
    """p = None and p = 1.0 give bit-identical LHS on an isotropic family and
    on a dense state, and each report keeps its p as given."""
    fam = ghz_qudit(3, 4)
    for state in (fam, materialize_dense(fam, 0.7),
                  DensityMatrix((3,) * 4, materialize_dense(fam, 0.7).entries)):
        for quantity in (QFI, WYD_HALF, VARIANCE):
            none, one = evaluate(state, m19, quantity, -1), evaluate(state, m19, quantity, -1, 1.0)
            assert repr((none.lhs_skew, none.lhs_var)) == repr((one.lhs_skew, one.lhs_var))
            assert none.verdict == one.verdict and none.p is None and one.p == 1.0


def test_dense_lhs_rejects_p_outside_unit_interval(m19):
    """The dense LHS checks p as the isotropic one does."""
    rho = materialize_dense(ghz_qudit(3, 3), 1.0)
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            criterion_lhs_dense(rho, m19, QFI, p=p)
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            evaluate(rho, m19, VARIANCE, 0, p)


def test_evaluate_dimension_mismatch(m19):
    """The measurement dimension is checked before any work."""
    with pytest.raises(ValueError, match="state dimension 2 != measurement dimension 3"):
        evaluate(ghz_qudit(2, 3), m19, QFI, k=0, p=0.5)


def _report_cells(report):
    """The fields of a report in the layout of a `sweep_rows` row."""
    return (report.f_label, report.p, report.lhs_skew, report.violated_skew,
            report.lhs_var, report.violated_var)


def test_sweep_rows_computes_moments_once(m19, monkeypatch):
    """A sweep computes the state's moments once and matches evaluate row by row."""
    fam = ghz_qudit(3, 4)
    quantities, p_values = (QFI, WYD_HALF, VARIANCE), (0.0, 0.45, 1.0)
    expected = [_report_cells(evaluate(fam, m19, q, -1, p=p)) for p in p_values for q in quantities]
    calls = []
    real = criteria.effect_moments
    monkeypatch.setattr(criteria, "effect_moments",
                        lambda family: calls.append(1) or real(family))
    _, rows = criteria.sweep_rows(fam, m19, -1, quantities, p_values)
    assert len(calls) == 1
    assert rows == expected


def test_sweep_rows_one_lhs_call_per_cell(m19, monkeypatch):
    """A sweep over P values and F skew quantities makes |P| (1 + F) direct
    LHS calls, one variance LHS per p and one per skew cell of its |P| (1 + F)
    rows, and every row has the bits that evaluate gives, at p = -0.0 too."""
    fam = ghz_qudit(3, 4)
    p_values, skews = [0.0, 0.3, 0.45, 1.0], (QFI, WYD_HALF, MonotoneFunctionSpec("wyd", 0.3))
    quantities = [*skews, VARIANCE]
    calls = []
    real = criteria.criterion_lhs_isotropic
    monkeypatch.setattr(criteria, "criterion_lhs_isotropic",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    criteria.sweep_rows(fam, m19, -1, quantities, p_values)
    assert len(calls) == len(p_values) * (1 + len(skews)) == 16
    p_values.append(-0.0)
    _, rows = criteria.sweep_rows(fam, m19, -1, quantities, p_values)
    assert [repr(row) for row in rows] == [
        repr(_report_cells(evaluate(fam, m19, q, -1, p=p))) for p in p_values for q in quantities]


def test_evaluate_reports_are_the_rows(m19):
    """Each `evaluate` report holds, bit for bit, the shared fields and the
    row that `sweep_rows` gives for its cell: a p of -0.0 keeps its sign,
    and a VARIANCE cell has a null skew LHS and verdict."""
    fam = ghz_qudit(3, 4)
    quantities, p_values = [QFI, VARIANCE, MonotoneFunctionSpec("wyd", 0.3)], [-0.0, 0.45]
    shared, rows = criteria.sweep_rows(fam, m19, -1, quantities, p_values)
    reports = [evaluate(fam, m19, q, -1, p) for p in p_values for q in quantities]
    assert len(reports) == len(rows) == len(quantities) * len(p_values)
    for rep, row in zip(reports, rows):
        fields = rep.to_json_dict()
        assert repr([fields[key] for key in shared]) == repr(list(shared.values()))
        assert repr(_report_cells(rep)) == repr(row)  # repr keeps -0.0
    assert [row[0] for row in rows] == ["qfi", VARIANCE, "wyd:0.3"] * 2
    assert [math.copysign(1.0, rep.p) for rep in reports[:3]] == [-1.0] * 3
    assert rows[1][2:4] == rows[4][2:4] == (None, None)
    assert all(type(flag) is bool for row in rows for flag in (row[3], row[5]) if flag is not None)
    assert list(reports[0].to_json_dict()) == [*criteria.ROW_KEYS, "verdict"]


def _count_kernel(monkeypatch) -> list:
    """The list each call of the generator kernel, one generator group, appends to."""
    calls = []
    real = linalg._apply_generators
    monkeypatch.setattr(linalg, "_apply_generators", lambda *args: calls.append(1) or real(*args))
    return calls


def test_dense_sweep_makes_one_generator_pass(m19, monkeypatch):
    """A dense sweep over QFI, WYD 1/2 and the variance on a fresh state makes
    one generator pass (one group of 8 at D = 81, rank 1), and its rows equal,
    bit for bit, the reports of one `evaluate` per quantity, each on a fresh state."""
    quantities = [QFI, WYD_HALF, VARIANCE]
    expected = [repr(_report_cells(evaluate(materialize_dense(ghz_qudit(3, 4), 0.7), m19, q, -1)))
                for q in quantities]
    calls = _count_kernel(monkeypatch)
    shared, rows = criteria.sweep_rows(materialize_dense(ghz_qudit(3, 4), 0.7), m19, -1,
                                       quantities, [None])
    assert len(calls) == 1
    assert [repr(row) for row in rows] == expected
    assert shared["N"] == 4 and [row[1] for row in rows] == [None] * 3


def test_evaluate_takes_variance_for_the_variance_criterion(m19):
    """VARIANCE, like None, asks for the variance criterion alone, on both
    state kinds: the report is the one None gives, with a null skew LHS and
    verdict; a string that names no quantity is a ValueError."""
    fam = ghz_qudit(3, 4)
    for state, p in ((fam, 0.9), (materialize_dense(fam, 0.9), None)):
        report = evaluate(state, m19, VARIANCE, -1, p)
        assert repr(report) == repr(evaluate(state, m19, None, -1, p))
        assert report.f_label == VARIANCE and report.lhs_skew is report.violated_skew is None
        with pytest.raises(ValueError, match="unknown quantity"):
            evaluate(state, m19, "qfi", -1, p)


def _within_ulps(a, b, ulps):
    return (a is None and b is None) or (a is not None and b is not None
                                         and abs(a - b) <= ulps * math.ulp(max(a, b)))


def test_dense_threshold_matches_isotropic(m14, m19):
    """threshold_p takes a dense state: rank-1 GHZ factors (d = 2, 3, N <= 6)
    and the antisymmetric N = 3 state, at noise 0, have the thresholds of
    their isotropic families within 8 ulps, with the same None pattern, at
    every k in [1-N, N-1] for QFI, WYD 1/2, WYD 0.2 and the variance."""
    quantities = (QFI, WYD_HALF, MonotoneFunctionSpec("wyd", 0.2), VARIANCE)
    families = [ghz_qudit(d, n) for d in (2, 3) for n in range(2, 7)] + [antisymmetric_state(3)]
    found = 0
    for family in families:
        m, rho = (m14 if family.d == 2 else m19), materialize_dense(family, 1.0)
        for k in range(1 - family.n, family.n):
            for quantity in quantities:
                dense, iso = threshold_p(rho, m, quantity, k), threshold_p(family, m, quantity, k)
                assert _within_ulps(dense, iso, 8), (family.kind, family.d, family.n, k, quantity,
                                                     dense, iso)
                found += dense is not None
    assert found  # some p* is a float, so the bisection itself is compared


def test_dense_thresholds_of_kstretchable_states_are_none():
    """The 200 k-stretchable states of the acceptance soundness sweep (same
    seed and configurations) have no threshold: no p in [0, 1] makes
    p rho + (1-p)/D violate a QFI, WYD 1/2 or variance bound."""
    rng = np.random.default_rng(8451)
    configs = [(2, 3, 0), (2, 3, 1), (2, 4, 0), (2, 4, -1),
               (3, 3, 0), (3, 3, 1), (3, 4, -1), (2, 5, 0)]
    measurements = {d: build_stpovm(gell_mann_basis(d), 1, d * d) for d in (2, 3)}
    hits = []
    for i in range(200):
        d, n, k = configs[i % len(configs)]
        rho = random_kstretchable_density(rng, d, n, k)
        for quantity in (QFI, WYD_HALF, VARIANCE):
            if threshold_p(rho, measurements[d], quantity, k) is not None:
                hits.append((i, quantity))
    assert not hits


def test_dense_evaluate_decomposes_once(m19, monkeypatch):
    """QFI, WYD and variance on one state built from entries share one
    eigendecomposition."""
    calls = []
    real = linalg.hermitian_eig
    monkeypatch.setattr(linalg, "hermitian_eig", lambda h: calls.append(1) or real(h))
    rho = DensityMatrix((3,) * 3, materialize_dense(ghz_qudit(3, 3), 0.6).entries)
    for f_spec in (QFI, WYD_HALF, None):
        evaluate(rho, m19, f_spec, k=-1)
    assert len(calls) == 1


def _rank3_factor(rng):
    """A rank-3 factor state at d=3, N=6 (D=729)."""
    x = rng.normal(size=(729, 3)) + 1j * rng.normal(size=(729, 3))
    return DensityMatrix.from_factor((3,) * 6, x / np.linalg.norm(x, axis=0), [0.5, 0.3, 0.2])


def test_factor_evaluate_decomposes_r_by_r_once(m19, monkeypatch):
    """A rank-3 factor state at D = 729 is checked without a Cholesky
    factorisation, and QFI, WYD and variance share one 3 x 3
    decomposition: no D x D one, and no D x D entries."""
    calls = []
    real = linalg.hermitian_eig
    monkeypatch.setattr(linalg, "hermitian_eig", lambda h: calls.append(len(h)) or real(h))
    monkeypatch.setattr(np.linalg, "cholesky", None)
    rho = _rank3_factor(np.random.default_rng(2))
    for f_spec in (QFI, WYD_HALF, None):
        evaluate(rho, m19, f_spec, k=-1)
    assert calls == [3] and rho.matrix is None


@pytest.mark.parametrize("state,groups", [
    (_rank3_factor, 1),
    (lambda rng: DensityMatrix((3,) * 4, random_density(rng, 81)), 8),
])
def test_dense_evaluate_one_generator_pass(m19, monkeypatch, state, groups):
    """A dense evaluate on a fresh state applies the generators once for both
    criteria: one group of 8 at rank 3 and D = 729, one generator per group at
    full rank and D = 81; both LHS equal those of separate calls, each on a
    fresh state."""
    calls = _count_kernel(monkeypatch)
    rep = evaluate(state(np.random.default_rng(9)), m19, WYD_HALF, k=-1)
    assert len(calls) == groups
    for lhs, quantity in ((rep.lhs_skew, WYD_HALF), (rep.lhs_var, VARIANCE)):
        fresh = state(np.random.default_rng(9))
        assert abs(lhs - criterion_lhs_dense(fresh, m19, quantity)) <= 1e-12 * abs(lhs)


@pytest.mark.parametrize("state", [
    lambda rng: DensityMatrix((3,) * 3, materialize_dense(ghz_qudit(3, 3), 0.6).entries),
    _rank3_factor,
])
def test_dense_state_caches_one_generator_pass(m14, m19, monkeypatch, state):
    """QFI, WYD 1/2 and variance `evaluate`, `sweep_rows` and `threshold_p`
    calls on one state, built from entries (D = 27) or a rank-3 factor
    (D = 729), make one generator pass, one group of 8 for each, kept
    read-only; each result equals, bit for bit, the same call on a fresh copy
    of the state; and a measurement of another d is still refused once the
    pass is cached."""
    quantities = (QFI, WYD_HALF, VARIANCE)
    calls = [lambda rho, q=q, p=p: evaluate(rho, m19, q, -1, p)
             for q in quantities for p in (None, 0.0, 0.55)]
    calls += [lambda rho, q=q: threshold_p(rho, m19, q, -1) for q in quantities]
    calls.append(lambda rho: criteria.sweep_rows(rho, m19, 0, quantities, [0.3, None]))
    expected = [repr(call(state(np.random.default_rng(9)))) for call in calls]
    kernel = _count_kernel(monkeypatch)
    rho = state(np.random.default_rng(9))
    assert [repr(call(rho)) for call in calls] == expected
    assert len(kernel) == 1 and not any(terms.flags.writeable for terms in rho.generator_terms)
    for call in (lambda: evaluate(rho, m14, QFI, -1), lambda: threshold_p(rho, m14, VARIANCE, -1),
                 lambda: criterion_lhs_dense(rho, m14, WYD_HALF)):
        with pytest.raises(ValueError, match=r"site dimensions \(3, 3, 3.*incompatible with d=2"):
            call()
    assert len(kernel) == 1


def test_bounds_compute_m_once(m19, monkeypatch):
    """bound_i and bound_v read one M(N, k) from their BoundInputs."""
    calls = []
    monkeypatch.setattr(partitions, "max_sum_squares",
                        lambda n, k: calls.append((n, k)) or max_sum_squares(n, k))
    i_bd, v_bd = criteria._bounds(m19, 40, 3 - 40)
    assert calls == [(40, -37)]
    inputs = BoundInputs.from_measurement(m19, 40, -37)
    assert (i_bd, v_bd) == (bound_i(inputs), bound_v(inputs))


def test_skew_none_skips_criterion(m19):
    rep = evaluate(ghz_qudit(3, 3), m19, None, k=0, p=0.5)
    assert rep.lhs_skew is None and rep.violated_skew is None
    assert rep.f_label == VARIANCE


def test_ghz_pure_state_detected(m19):
    """The pure GHZ state violates the skew criterion at k = 3 - N."""
    rep = evaluate(ghz_qudit(3, 10), m19, QFI, k=-7, p=1.0)
    assert rep.violated_skew
    assert rep.verdict == "k-nonstretchable"


def test_threshold_monotone_and_detecting(m19):
    fam = ghz_qudit(3, 10)
    p_star = threshold_p(fam, m19, QFI, k=-7)
    assert p_star is not None and 0 < p_star < 1
    # below threshold: no violation; above: violation
    below = evaluate(fam, m19, QFI, k=-7, p=p_star - 1e-4)
    above = evaluate(fam, m19, QFI, k=-7, p=p_star + 1e-4)
    assert not below.violated_skew and above.violated_skew


def test_threshold_none_when_undetectable(m19):
    """Variance on isotropic GHZ never triggers at admissible r."""
    assert threshold_p(ghz_qudit(3, 6), m19, VARIANCE, k=-3) is None


def test_threshold_decreases_with_n(m19):
    values = [threshold_p(ghz_qudit(3, n), m19, QFI, k=3 - n)
              for n in (10, 14, 18)]
    assert all(v is not None for v in values)
    assert values[0] > values[1] > values[2]


def test_antisym_variance_threshold_value(m19):
    """Detection threshold is (N+3)/(N^2-1), independent of r."""
    fam = antisymmetric_state(3)
    for r in ("max", 0.005):
        m = build_stpovm(gell_mann_basis(3), 1, 9, r)
        p_star = threshold_p(fam, m, VARIANCE, k=0)
        assert p_star == pytest.approx(0.75, abs=2e-6)


@pytest.mark.parametrize("n,k,expected", [
    (3, 0, 3 / 4), (4, -1, 7 / 15), (4, 0, 11 / 15), (5, 0, 2 / 3)])
def test_antisym_threshold_exact_values(n, k, expected):
    """p* = (2M - N - 1)/(N^2 - 1) with M = max sum of squared block sizes.

    Because the collective-effect variance vanishes on the antisymmetric
    state, the variance LHS is linear in p and the threshold is exactly
    rational and r-independent.
    """
    from kstretch.partitions import max_sum_squares
    assert expected == (2 * max_sum_squares(n, k) - n - 1) / (n**2 - 1)
    fam = antisymmetric_state(n)
    m = build_stpovm(gell_mann_basis(n), 1, n * n)
    p_star = threshold_p(fam, m, VARIANCE, k=k)
    assert p_star == pytest.approx(expected, abs=2e-6)


def test_antisym_skew_lhs_vanishes(m19):
    rep = evaluate(antisymmetric_state(3), m19, QFI, k=0, p=1.0)
    assert rep.lhs_skew == pytest.approx(0.0, abs=1e-12)
    assert not rep.violated_skew


def test_antisym_closed_formula_shape():
    """The closed formula approaches (N+3)/(N^2-1) as r grows."""
    for n in (3, 4, 5):
        exact = (n + 3) / (n**2 - 1)
        assert antisym_variance_threshold(n, 1e3) == pytest.approx(exact, rel=1e-4)
        assert antisym_variance_threshold(n, 0.0) == pytest.approx(
            (n + 1) / (n - 1), abs=1e-12)


@pytest.mark.parametrize("family_kind", ORACLE_FAMILIES, ids=str)
def test_threshold_matches_grid_bisection_oracle(family_kind):
    """The exact roots agree with the grid-plus-bisection solver within its
    1e-6 width, with the same None pattern.  No verdict holds at p = 0, where
    every state is 1/D, and the grid never flips back: threshold_p bisects
    once on [0, 1] because of it."""
    for family, m, k in oracle_cases(family_kind):
        for quantity in ORACLE_QUANTITIES:
            expected = grid_bisection_threshold(family, m, quantity, k)
            where = (family.kind, family.n, k, quantity)
            assert not _violated(family, m, quantity, k)(0.0), where
            assert expected != NON_MONOTONE, where
            p_star = threshold_p(family, m, quantity, k)
            if expected is None:
                assert p_star is None, where
            else:
                assert p_star == pytest.approx(expected, abs=ORACLE_WIDTH), where


def test_no_verdict_at_p0_large_n_small_r():
    """No verdict at p = 0 for GHZ at N up to 10^6 and r down to r_max 1e-6,
    and the variance LHS of 1/D, beta (d^2-1) N/d, exceeds bound_v by at
    least beta N (1 - 1/d), with equality at k = 1-N (M = N).  N = 10^6 runs
    the two smallest k only, whose M is cheap."""
    cases = [(build_stpovm(gell_mann_basis(d), s, t), scale)
             for d, s, t in ((2, 3, 2), (2, 1, 4), (3, 8, 2), (3, 1, 9))
             for scale in (1.0, 1e-3, 1e-6)]
    for m_max, scale in cases:
        d = m_max.d
        m = build_stpovm(gell_mann_basis(d), m_max.s, m_max.t, m_max.r * scale)
        for n in (2, 10, 1000, 10**6):
            for k in sorted({1 - n, 3 - n} | ({0, n - 1} if n <= 1000 else set())):
                where = (d, m.s, m.t, scale, n, k)
                for quantity in (QFI, WYD_HALF, VARIANCE):
                    assert not _violated(ghz_qudit(d, n), m, quantity, k)(0.0), (where, quantity)
                mixed = m.beta * (d * d - 1) * n / d
                gap = mixed - bound_v(BoundInputs.from_measurement(m, n, k))
                assert gap >= m.beta * n * (1 - 1 / d) - 1e-12 * mixed, where


@pytest.mark.parametrize("family_kind", ORACLE_FAMILIES, ids=str)
def test_threshold_float_neighbours_straddle_bound(family_kind):
    """p*(1 - 4 eps) satisfies the inequality and p*(1 + 4 eps) violates it."""
    eps = np.finfo(float).eps
    for family, m, k in oracle_cases(family_kind):
        for quantity in ORACLE_QUANTITIES:
            p_star = threshold_p(family, m, quantity, k)
            if p_star is None or not 0.0 < p_star < 1.0:
                continue
            violated = _violated(family, m, quantity, k)
            where = (family.kind, family.n, k, quantity, p_star)
            assert not violated(p_star * (1 - 4 * eps)), where
            assert violated(min(p_star * (1 + 4 * eps), 1.0)), where


@pytest.mark.parametrize("n", range(3, 9))
def test_antisym_variance_threshold_exact(n):
    """p* = (2M - N - 1)/(N^2 - 1) to 1e-12 for every k with 0 < p* < 1, once
    the verdict margin's shift is added: the variance sum is
    beta (N^2 - 1)(1 - p), so the margin moves the root by
    VERDICT_MARGIN / (beta (N^2 - 1)), about 1e-8 here."""
    m = build_stpovm(gell_mann_basis(n), 1, n * n)
    shift = VERDICT_MARGIN / (m.beta * (n * n - 1))
    for k in range(1 - n, 2):
        expected = (2 * max_sum_squares(n, k) - n - 1) / (n**2 - 1)
        if 0.0 < expected < 1.0:
            p_star = threshold_p(antisymmetric_state(n), m, VARIANCE, k)
            assert p_star == pytest.approx(expected + shift, abs=1e-12), k


@pytest.mark.parametrize("n", range(3, 7))
def test_variance_threshold_independent_of_povm(n):
    """Both sides of the variance inequality scale with beta, so p* is the
    same for every (s,t) family and every r, up to the 1e-9 verdict margin,
    which does not scale with beta: antisym at d = N, r = r_max and r_max/3."""
    basis = gell_mann_basis(n)
    measurements = []
    for s, t in all_families(n):
        m = build_stpovm(basis, s, t)
        measurements += [m, build_stpovm(basis, s, t, m.r / 3)]
    family = antisymmetric_state(n)
    checked = 0
    for k in range(1 - n, n):
        p_stars = [threshold_p(family, m, VARIANCE, k) for m in measurements]
        if p_stars[0] is not None and 0.0 < p_stars[0] < 1.0:
            assert max(p_stars) - min(p_stars) <= 1e-6, (k, p_stars)
            checked += 1
        else:  # no violation at all, or at every p, for every measurement
            assert len(set(p_stars)) == 1, (k, p_stars)
    assert checked >= 1


def test_threshold_returns_builtin_float(m19):
    for quantity in (QFI, WYD_HALF):
        p_star = threshold_p(ghz_qudit(3, 5), m19, quantity, k=-2)
        assert type(p_star) is float
    assert type(threshold_p(antisymmetric_state(3), m19, VARIANCE, k=0)) is float


def _first_at(holds, p):
    """`holds` is true at p and false at the float below it."""
    return holds(p) and not holds(math.nextafter(p, 0.0))


def contract_cases(case):
    """The oracle cases, plus GHZ on the d=2 (3,2)-POVM at r_max over
    N in {5, 10, 50} and k in {-3, 0, 2}."""
    if case != "ghz-232-k":
        yield from oracle_cases(case)
        return
    m = build_stpovm(gell_mann_basis(2), 3, 2)
    for n in (5, 10, 50):
        for k in (-3, 0, 2):
            yield ghz_qudit(2, n), m, k


@pytest.mark.parametrize("case", ORACLE_FAMILIES + ["ghz-232-k"], ids=str)
def test_threshold_is_least_violated_float(case):
    """The verdict holds at p* and not at math.nextafter(p*, 0), for every
    oracle case and quantity; at (d,s,t) = (2,3,2), GHZ N=5, k=-3 the QFI
    threshold once sat 2 ulps below the first violated float."""
    for family, m, k in contract_cases(case):
        for quantity in ORACLE_QUANTITIES:
            p_star = threshold_p(family, m, quantity, k)
            if p_star is not None and 0.0 < p_star < 1.0:
                violated = _violated(family, m, quantity, k)
                assert _first_at(violated, p_star), (family.kind, family.n, k, quantity, p_star)


def test_threshold_computes_moments_once_per_family(m19, monkeypatch):
    """GHZ states its moments: three thresholds apply no generator."""
    calls = _count_kernel(monkeypatch)
    family = ghz_qudit(3, 10)
    for quantity in (QFI, WYD_HALF, VARIANCE):
        threshold_p(family, m19, quantity, 3 - family.n)
    assert calls == []


def test_custom_amplitudes_are_a_frozen_copy(tmp_path):
    """The split a loaded state caches cannot go stale: its factor is a
    read-only array of the file's amplitudes."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"site_dims": [2, 2, 2],
                                "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 7}))
    rho = load_state_file(path)
    assert np.array_equal(rho.factor[:, 0], np.eye(8)[0])
    with pytest.raises(ValueError):
        rho.factor[0, 0] = 0.0


@pytest.mark.parametrize("d,s,t", [(2, 1, 4), (3, 1, 9)])
def test_operator_bounds(d, s, t):
    m = build_stpovm(gell_mann_basis(d), s, t)
    for n in (1, 2, 3):
        res = block_operator_bounds(m, n)
        assert res["ok"], res
        if n == 1:
            assert res["lower"] == pytest.approx(res["upper"], abs=1e-12)


def test_probability_bounds(m19):
    psi = materialize_dense(ghz_qudit(3, 2), 1.0)
    res = block_probability_bounds(m19, psi)
    assert res["ok"], res
    mixed = materialize_dense(ghz_qudit(3, 2), 0.5)
    with pytest.raises(ValueError):
        block_probability_bounds(m19, mixed)


def test_random_kstretchable_density(rng):
    rho = random_kstretchable_density(rng, d=2, n=4, k=0)
    assert rho.site_dims == (2, 2, 2, 2)
    assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-10)
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError):
            random_kstretchable_density(rng, d=2, n=2, k=-5)


def test_random_kstretchable_is_reproducible():
    a = random_kstretchable_density(np.random.default_rng(7), 2, 3, 0)
    b = random_kstretchable_density(np.random.default_rng(7), 2, 3, 0)
    assert np.max(np.abs(a.entries - b.entries)) < 1e-15


@pytest.mark.parametrize("seed", range(5))
def test_random_kstretchable_matches_dense_builder(seed):
    """The factor state makes the draws of the dense builder in the same
    order: each seed gives the same state."""
    for d, n, k in ((2, 3, 0), (3, 5, -1), (3, 6, -1)):
        rho = random_kstretchable_density(np.random.default_rng(seed), d, n, k)
        dense = dense_kstretchable_entries(np.random.default_rng(seed), d, n, k)
        assert rho.matrix is None
        assert np.max(np.abs(rho.entries - dense)) <= 1e-15, (d, n, k)


def test_n_and_k_must_be_integers(m19):
    """M(N, k) is defined on integers: a float N or k is a ValueError in
    max_sum_squares, and so in the bounds, evaluate and threshold_p rather
    than a verdict from M(6, 0.5) = 15.5; numpy integers still count."""
    for n, k in ((6, 0.5), (6.0, 0), (6, np.float64(0.0))):
        with pytest.raises(ValueError, match="must be integers"):
            max_sum_squares(n, k)
    family = ghz_qudit(3, 6)
    for call in (lambda: bound_v(BoundInputs.from_measurement(m19, 6, 0.5)),
                 lambda: evaluate(family, m19, QFI, 0.5, 1.0),
                 lambda: threshold_p(family, m19, QFI, 0.5)):
        with pytest.raises(ValueError, match="must be integers"):
            call()
    assert max_sum_squares(np.int64(6), np.int32(0)) == max_sum_squares(6, 0) == 14
