"""Benchmark families: closed-form reduced states vs the partial-trace oracle."""

import json
import warnings

import numpy as np
import pytest

from conftest import random_pure
from kstretch.infoquant import DenseSizeError
from kstretch.linalg import DensityMatrix, partial_trace
from kstretch.states import (
    antisymmetric_state,
    custom_state,
    effect_moments,
    ghz_qudit,
    load_state_file,
    materialize_dense,
    state_vector,
)


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 3)])
def test_ghz_rdms_match_partial_trace(d, n):
    fam = ghz_qudit(d, n)
    rho = materialize_dense(fam, 1.0)
    assert np.max(np.abs(fam.rdm1.entries
                         - partial_trace(rho, {0}).entries)) < 1e-12
    assert np.max(np.abs(fam.rdm2.entries
                         - partial_trace(rho, {0, 1}).entries)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_antisym_rdms_match_partial_trace(n):
    fam = antisymmetric_state(n)
    rho = materialize_dense(fam, 1.0)
    assert np.max(np.abs(fam.rdm1.entries
                         - partial_trace(rho, {0}).entries)) < 1e-12
    assert np.max(np.abs(fam.rdm2.entries
                         - partial_trace(rho, {0, 1}).entries)) < 1e-12


def test_state_vectors_normalized():
    for fam in (ghz_qudit(3, 4), antisymmetric_state(3)):
        vec = state_vector(fam)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_antisym_vector_is_antisymmetric():
    fam = antisymmetric_state(3)
    tensor = state_vector(fam).reshape(3, 3, 3)
    swapped = np.transpose(tensor, (1, 0, 2))
    assert np.max(np.abs(tensor + swapped)) < 1e-12


def test_ghz_vector():
    vec = state_vector(ghz_qudit(2, 3))
    expected = np.zeros(8)
    expected[0] = expected[7] = 1 / np.sqrt(2)
    assert np.max(np.abs(vec - expected)) < 1e-12


def test_family_validation():
    with pytest.raises(ValueError):
        ghz_qudit(1, 3)
    with pytest.raises(ValueError):
        ghz_qudit(3, 1)
    with pytest.raises(ValueError):
        antisymmetric_state(1)


def test_materialize_dense_bounds():
    fam = ghz_qudit(2, 2)
    with pytest.raises(ValueError):
        materialize_dense(fam, 1.5)
    rho = materialize_dense(fam, 0.0)
    assert np.max(np.abs(rho.entries - np.eye(4) / 4)) < 1e-12


def test_dense_infeasible_guard():
    fam = ghz_qudit(3, 10)
    assert not fam.dense_feasible
    with pytest.raises(DenseSizeError):
        state_vector(fam)


def test_custom_state_roundtrip(tmp_path, rng):
    vec = random_pure(rng, 4)
    doc = {"site_dims": [2, 2],
           "amplitudes": [[z.real, z.imag] for z in vec]}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    fam = load_state_file(path)
    assert fam.kind == "custom" and fam.d == 2 and fam.n == 2
    assert np.max(np.abs(state_vector(fam) - vec)) < 1e-12
    rho = DensityMatrix((2, 2), np.outer(vec, vec.conj()))
    assert np.max(np.abs(fam.rdm1.entries
                         - partial_trace(rho, {0}).entries)) < 1e-12


def test_custom_state_validation(rng):
    with pytest.raises(ValueError):
        custom_state([2, 3], np.ones(6) / np.sqrt(6))  # non-uniform dims
    with pytest.raises(ValueError):
        custom_state([2, 2], np.ones(4))  # not normalized


def test_effect_moments_fast_vs_dense(m19, rng):
    """Closed-form and site-local family moments agree with explicit
    expectation values of the dense collective operator."""
    from kstretch.infoquant import collective_operator
    custom = custom_state([3, 3, 3], random_pure(rng, 27))
    for fam in (ghz_qudit(3, 3), antisymmetric_state(3), custom):
        vec = state_vector(fam)
        for a in m19.iter_effects():
            big = collective_operator(a, fam.n)
            mom = effect_moments(fam, a)
            assert mom.mean == pytest.approx(
                np.real(vec.conj() @ big @ vec), abs=1e-10)
            assert mom.second_moment == pytest.approx(
                np.real(vec.conj() @ big @ big @ vec), abs=1e-10)
            dim = fam.total_dim
            assert mom.trace_op * dim == pytest.approx(
                np.trace(big).real, abs=1e-8)
            assert mom.trace_op_sq * dim == pytest.approx(
                np.trace(big @ big).real, abs=1e-8)


def test_antisym_collective_variance_vanishes(m19):
    """Every collective effect has zero variance on the antisymmetric state."""
    fam = antisymmetric_state(3)
    for a in m19.iter_effects():
        assert effect_moments(fam, a).pure_variance == pytest.approx(0.0, abs=1e-10)


def test_effect_moments_finite_at_large_n(m19):
    """Normalized trace moments stay finite where 3**N overflows a float."""
    from kstretch.infoquant import QFI, VARIANCE, criterion_lhs_isotropic
    fam = ghz_qudit(3, 700)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moments = [effect_moments(fam, a) for a in m19.iter_effects()]
        lhs = [criterion_lhs_isotropic(moments, 0.5, 3, 700, q)
               for q in (QFI, VARIANCE)]
    for mom in moments:
        assert np.all(np.isfinite([mom.mean, mom.second_moment,
                                   mom.trace_op, mom.trace_op_sq]))
    assert np.all(np.isfinite(lhs))
