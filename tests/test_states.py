"""Benchmark families: closed-form generator moments vs the partial-trace oracle."""

import json
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_pure
from oracles import family_reduced_states, partial_trace
from kstretch.basis import gell_mann_basis
from kstretch.infoquant import CollectiveMoments, DenseSizeError, collective_moments_from_rdms
from kstretch.linalg import DensityMatrix
from kstretch.states import (
    antisymmetric_state,
    effect_moments,
    ghz_qudit,
    load_state_file,
    materialize_dense,
    state_vector,
)


def _factor_moments(vec: np.ndarray, d: int, n: int) -> CollectiveMoments:
    """(s1, s2) of |vec> from one generator pass over it as a rank-1 factor
    state: s1 = sum_a rows^2 and s2 = sum_k n_k."""
    norms, rows, _ = DensityMatrix.from_factor((d,) * n, vec[:, None], [1.0]).generator_terms
    return CollectiveMoments(float(np.sum(rows**2)), float(np.sum(norms)))


def _check_against_partial_trace(fam):
    """The oracle's hand-built reduced states are the partial traces of the
    dense state, and the closed-form (s1, s2) equal both the moments of
    those partial traces and those of the state vector's generator pass."""
    rho = materialize_dense(fam, 1.0)
    rho1, rho2 = partial_trace(rho, {0}), partial_trace(rho, {0, 1})
    for built, traced in zip(family_reduced_states(fam), (rho1, rho2)):
        assert np.max(np.abs(built.entries - traced.entries)) < 1e-12
    for oracle in (collective_moments_from_rdms(rho1, rho2, fam.n),
                   _factor_moments(state_vector(fam), fam.d, fam.n)):
        assert abs(fam.moments.s1 - oracle.s1) <= 1e-12
        assert abs(fam.moments.s2 - oracle.s2) <= 1e-12


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 3)])
def test_ghz_rdms_match_partial_trace(d, n):
    _check_against_partial_trace(ghz_qudit(d, n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_antisym_rdms_match_partial_trace(n):
    _check_against_partial_trace(antisymmetric_state(n))


@pytest.mark.parametrize("d", range(2, 10))
def test_ghz_s2_is_correctly_rounded(d):
    """s2 = N(d - 1/d) + N(N-1)(1 - 1/d) to the nearest float, up to N = 10^6."""
    for n in (2, 3, 7, 10, 99, 1000, 12345, 10**5, 999_983, 10**6):
        exact = n * (d - Fraction(1, d)) + n * (n - 1) * (1 - Fraction(1, d))
        assert ghz_qudit(d, n).moments.s2 == float(exact), n


def test_antisymmetric_state_builds_no_matrix():
    """The antisymmetric family at N = 30 holds two numbers, not a
    900 x 900 reduced state."""
    tracemalloc.start()
    try:
        antisymmetric_state(30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
    """A state vector past DENSE_DIM_LIMIT^2 = 6.25e6 entries (GHZ d=3 at
    N=15, 1.4e7) is refused before it is allocated; GHZ d=3 at N=8
    (D = 6561, past the entries limit) is built."""
    tracemalloc.start()
    try:
        with pytest.raises(DenseSizeError, match="14348907 entries"):
            state_vector(ghz_qudit(3, 15))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    rho = materialize_dense(ghz_qudit(3, 8), 0.5)
    assert rho.dim == 6561 and rho.split[0] == pytest.approx([0.5 + 0.5 / 6561])


def _write_state(tmp_path, site_dims, vec) -> str:
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"site_dims": site_dims,
                                "amplitudes": [[z.real, z.imag] for z in np.ravel(vec)]}))
    return path


def test_custom_state_roundtrip(tmp_path, rng):
    """A state file loads as the rank-1 factor state |psi><psi| of its
    amplitudes."""
    vec = random_pure(rng, 4)
    rho = load_state_file(_write_state(tmp_path, [2, 2], vec))
    assert isinstance(rho, DensityMatrix) and rho.site_dims == (2, 2)
    assert np.max(np.abs(rho.entries - np.outer(vec, vec.conj()))) < 1e-12
    assert len(rho.split[0]) == 1


@pytest.mark.parametrize("doc,message", [
    ({"site_dims": [2], "amplitudes": [[float("nan"), 0.0], [0.0, 0.0]]}, "norm is nan"),
    ({"site_dims": [2], "amplitudes": [[1.0, 0.0], [float("inf"), 0.0]]}, "norm is inf"),
    ({"site_dims": [2], "amplitudes": [[True, 0.0], [0.0, 0.0]]}, "JSON numbers, not bool"),
    ({"site_dims": [2], "amplitudes": [["1", 0.0], [0.0, 0.0]]}, "JSON numbers, not str"),
    ({"site_dims": [2], "amplitudes": [[1.0], [0.0, 0.0]]}, "pairs"),
    ({"site_dims": [2.0], "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}, "JSON integers"),
    ({"site_dims": [True], "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}, "JSON integers"),
    ({"amplitudes": [[1.0, 0.0], [0.0, 0.0]]}, "lacks 'site_dims'"),
    ({}, "lacks 'site_dims', 'amplitudes'"),
    ([2], "JSON object"),
])
def test_state_file_rejects_malformed_input(tmp_path, doc, message):
    """A non-finite, non-number or misshapen amplitude, a non-integer site
    dimension, or a missing key is a ValueError that names it."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_state_file(path)


def test_custom_state_validation(tmp_path):
    """Site dimensions that differ, an unnormalized vector and a NaN
    amplitude are each a ValueError that names it."""
    for dims, vec, message in (([2, 3], np.ones(6) / np.sqrt(6), "must be uniform"),
                               ([2, 2], np.ones(4), "norm is 2.0, expected 1"),
                               ([2], np.array([np.nan, 1.0]), "norm is nan")):
        with pytest.raises(ValueError, match=message):
            load_state_file(_write_state(tmp_path, dims, vec))


@pytest.mark.parametrize("norm", [1 + 9e-11, 1 - 9e-11])
def test_state_file_accepts_norm_within_tolerance(tmp_path, rng, norm):
    """A vector whose norm is within 1e-10 of 1 loads, though its squared
    norm is outside the 1e-10 trace tolerance, as the state it stands for:
    the weight 1/||psi||^2 gives it unit trace."""
    vec = random_pure(rng, 8)
    rho = load_state_file(_write_state(tmp_path, [2, 2, 2], norm * vec))
    assert abs(np.trace(rho.entries).real - 1.0) < 1e-15
    assert np.max(np.abs(rho.entries - np.outer(vec, vec.conj()))) < 1e-15
    with pytest.raises(ValueError, match="norm is"):
        load_state_file(_write_state(tmp_path, [2, 2, 2], (1 + 2 * (norm - 1)) * vec))


def test_state_file_total_dimension_is_exact(tmp_path):
    """41 sites of d = 3 make D = 3^41, which overflows an int64 product."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"site_dims": [3] * 41, "amplitudes": [[1.0, 0.0]]}))
    with pytest.raises(ValueError, match="1 amplitudes for total dimension 36472996377170786403$"):
        load_state_file(path)


def test_effect_moments_fast_vs_dense(rng):
    """Closed-form and site-local generator moments agree with explicit
    expectation values of the dense collective generators."""
    from kstretch.infoquant import collective_operator
    bigs = [collective_operator(g, 3) for g in gell_mann_basis(3)]
    psi = random_pure(rng, 27)
    cases = [(state_vector(fam), effect_moments(fam))
             for fam in (ghz_qudit(3, 3), antisymmetric_state(3))]
    for vec, mom in cases + [(psi, _factor_moments(psi, 3, 3))]:
        assert mom.s1 == pytest.approx(
            sum(np.vdot(vec, big @ vec).real ** 2 for big in bigs), abs=1e-10)
        assert mom.s2 == pytest.approx(
            sum(np.vdot(big @ vec, big @ vec).real for big in bigs), abs=1e-10)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (3, 3), (3, 50), (4, 7), (3, 10**4),
                                 (5, 10**4)])
def test_ghz_generator_variance_closed_form(d, n):
    """F_psi = (1 - 1/d) N^2 + (d - 1) N for GHZ, up to N = 10^4."""
    expected = (1 - 1 / d) * n**2 + (d - 1) * n
    assert effect_moments(ghz_qudit(d, n)).pure_variance == pytest.approx(expected, rel=1e-13)


def test_antisym_collective_variance_vanishes():
    """Every collective generator has zero mean and zero variance on the
    antisymmetric state: F_psi = s1 = 0."""
    for n in (2, 3, 4, 6, 8, 20):
        mom = effect_moments(antisymmetric_state(n))
        assert mom.s1 == 0.0
        assert mom.pure_variance == 0.0, n


def test_effect_moments_finite_at_large_n(m19):
    """The isotropic LHS stays finite where 3**N overflows a float."""
    from kstretch.infoquant import QFI, VARIANCE, criterion_lhs_isotropic
    fam = ghz_qudit(3, 700)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moments = effect_moments(fam)
        lhs = [criterion_lhs_isotropic(moments, m19.beta, 0.5, 3, 700, q)
               for q in (QFI, VARIANCE)]
    assert np.all(np.isfinite([moments.s1, moments.s2]))
    assert np.all(np.isfinite(lhs))
