"""Measurement construction, certification identities, serialization."""

import numpy as np
import pytest

from conftest import random_density, random_pure
from kstretch.basis import gell_mann_basis, group_basis
from kstretch.povm import (
    PositivityError,
    SymmetricMeasurement,
    build_b_operators,
    build_stpovm,
    certification_residuals,
    chi_of_r,
    probability_square_sum,
    probability_square_sum_formula,
    probability_square_sum_pure,
    r_range,
    square_sum_scalar,
    verify_square_sum,
)


def all_families(d):
    """Every informationally complete (s,t) family for local dimension d."""
    return [((d * d - 1) // (t - 1), t) for t in range(2, d * d + 1)
            if (d * d - 1) % (t - 1) == 0]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_all_families_certify(d):
    basis = gell_mann_basis(d)
    for s, t in all_families(d):
        m = build_stpovm(basis, s, t)
        res = certification_residuals(m)
        assert res["min_effect_eigenvalue"] > -1e-10
        for key in ("completeness", "trace", "purity", "cross_outcome",
                    "cross_measurement", "conical_design", "chi_consistency"):
            assert res[key] < 1e-10, (s, t, key, res[key])


def test_b_operators_traceless_and_orthogonal():
    grouped = group_basis(gell_mann_basis(3), 1, 9)
    rows = build_b_operators(grouped)
    assert len(rows) == 1 and len(rows[0]) == 9
    for b in rows[0]:
        assert abs(np.trace(b)) < 1e-10
    # rows sum to zero so the effects resolve the identity
    assert np.max(np.abs(sum(rows[0]))) < 1e-10


def test_r_range_frozen_example():
    rows = build_b_operators(group_basis(gell_mann_basis(3), 1, 9))
    r_neg, r_pos = r_range(rows)
    assert r_neg < 0 < r_pos
    assert abs(r_neg) == pytest.approx(0.0121, abs=5e-4)
    assert r_pos == pytest.approx(0.0129, abs=5e-4)


def test_r_outside_range_raises():
    basis = gell_mann_basis(3)
    with pytest.raises(PositivityError):
        build_stpovm(basis, 1, 9, 0.5)
    with pytest.raises(PositivityError):
        build_stpovm(basis, 1, 9, 0.0)


def test_endpoint_measurement_is_psd(m19):
    min_eig = min(np.linalg.eigvalsh(a)[0] for a in m19.iter_effects())
    assert min_eig > -1e-10


def test_chi_formula(m19):
    assert m19.chi == pytest.approx(chi_of_r(3, 9, m19.r), abs=1e-14)
    lo, hi = 3 / 81, 3 / 9
    assert lo < m19.chi <= hi


def test_square_sum_identity(m19, m14):
    assert verify_square_sum(m19) < 1e-10
    assert verify_square_sum(m14) < 1e-10
    c = square_sum_scalar(3, 1, 9, m19.r)
    total = sum(a @ a for a in m19.iter_effects())
    assert np.max(np.abs(total - c * np.eye(3))) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_conical_design_residual_matches_kron_sum(d):
    """The certified residual equals the explicit deviation of
    sum_uv A (x) A from alpha 1 + beta SWAP, and both vanish."""
    basis = gell_mann_basis(d)
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    for s, t in all_families(d):
        m = build_stpovm(basis, s, t)
        alpha = s / t - m.beta / d
        total = sum(np.kron(a, a) for a in m.iter_effects())
        explicit = np.max(np.abs(total - alpha * np.eye(d * d) - m.beta * swap))
        residual = certification_residuals(m)["conical_design"]
        assert explicit < 1e-12 and residual < 1e-12, (s, t)
        assert residual == pytest.approx(explicit, abs=1e-14), (s, t)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_square_sum_scalar_is_alpha_plus_beta_d(d):
    basis = gell_mann_basis(d)
    for s, t in all_families(d):
        m = build_stpovm(basis, s, t)
        alpha = s / t - m.beta / d
        assert square_sum_scalar(d, s, t, m.r) == pytest.approx(alpha + m.beta * d, rel=1e-13)


def test_probability_square_sum_matches_formula(m19, rng):
    rho = random_density(rng, 3)
    purity = np.trace(rho @ rho).real
    direct = probability_square_sum(m19, rho)
    assert direct == pytest.approx(
        probability_square_sum_formula(m19, purity), abs=1e-10)
    vec = random_pure(rng, 3)
    proj = np.outer(vec, vec.conj())
    assert probability_square_sum(m19, proj) == pytest.approx(
        probability_square_sum_pure(m19), abs=1e-10)


def test_json_roundtrip(m14):
    rebuilt = SymmetricMeasurement.from_json(m14.to_json())
    assert rebuilt.d == m14.d and rebuilt.s == m14.s and rebuilt.t == m14.t
    assert rebuilt.r == pytest.approx(m14.r)
    for a, b in zip(m14.iter_effects(), rebuilt.iter_effects()):
        assert np.max(np.abs(a - b)) < 1e-12


def test_tampered_effects_rejected(m14):
    doc = m14.to_json_dict()
    doc["effects"][0][0][0][0] += 0.05
    with pytest.raises(ValueError):
        SymmetricMeasurement.from_json_dict(doc)
