"""Verdicts, thresholds, auxiliary bound checks, random state generation."""

import numpy as np
import pytest

from kstretch import criteria, linalg
from kstretch.basis import gell_mann_basis
from kstretch.criteria import (
    CriterionReport,
    antisym_variance_threshold,
    block_operator_bounds,
    block_probability_bounds,
    evaluate,
    evaluate_sweep,
    random_kstretchable_density,
    threshold_p,
)
from kstretch.infoquant import QFI, VARIANCE, WYD_HALF
from kstretch.povm import build_stpovm
from kstretch.states import antisymmetric_state, ghz_qudit, materialize_dense


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


def test_evaluate_requires_p_for_family(m19):
    with pytest.raises(ValueError):
        evaluate(ghz_qudit(3, 3), m19, QFI, k=0)


def test_evaluate_dimension_mismatch(m19):
    """The measurement dimension is checked before any work."""
    with pytest.raises(ValueError, match="state dimension 2 != measurement dimension 3"):
        evaluate(ghz_qudit(2, 3), m19, QFI, k=0, p=0.5)


def test_evaluate_sweep_computes_moments_once(m19, monkeypatch):
    """A sweep computes the state's moments once and matches evaluate row by row."""
    fam = ghz_qudit(3, 4)
    cases = [(f_spec, p) for p in (0.0, 0.45, 1.0) for f_spec in (QFI, WYD_HALF, None)]
    expected = [evaluate(fam, m19, f_spec, -1, p=p).to_json_dict() for f_spec, p in cases]
    calls = []
    real = criteria.effect_moments
    monkeypatch.setattr(criteria, "effect_moments",
                        lambda family: calls.append(1) or real(family))
    reports = evaluate_sweep(fam, m19, -1, cases)
    assert len(calls) == 1
    assert [rep.to_json_dict() for rep in reports] == expected


def test_dense_evaluate_decomposes_once(m19, monkeypatch):
    """QFI, WYD and variance on one dense state share one eigendecomposition."""
    calls = []
    real = linalg.hermitian_eig
    monkeypatch.setattr(linalg, "hermitian_eig", lambda h: calls.append(1) or real(h))
    rho = materialize_dense(ghz_qudit(3, 3), 0.6)
    for f_spec in (QFI, WYD_HALF, None):
        evaluate(rho, m19, f_spec, k=-1)
    assert len(calls) == 1


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
