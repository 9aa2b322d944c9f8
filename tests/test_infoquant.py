"""Monotone functions, skew information, variance, collective moments."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_density, random_hermitian, random_pure
from kstretch.infoquant import (
    QFI,
    VARIANCE,
    WYD_HALF,
    CollectiveMoments,
    DenseSizeError,
    MonotoneFunctionSpec,
    collective_moments_from_rdms,
    collective_operator,
    criterion_lhs_dense,
    criterion_lhs_isotropic,
    f_eval,
    f_zero,
    skew_information,
    variance,
)
from kstretch.linalg import DensityMatrix, kron, partial_trace

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_spec_validation():
    with pytest.raises(ValueError):
        MonotoneFunctionSpec("bures")
    with pytest.raises(ValueError):
        MonotoneFunctionSpec("wyd", 1.0)
    assert QFI.label == "qfi"
    assert WYD_HALF.label == "wyd:0.5"


@pytest.mark.parametrize("spec", [QFI, WYD_HALF, MonotoneFunctionSpec("wyd", 0.3)])
def test_monotone_function_properties(spec):
    assert f_eval(spec, 1.0) == pytest.approx(1.0)
    assert f_zero(spec) > 0
    for x in (0.2, 0.7, 1.8, 5.0):
        # the symmetry x f(1/x) = f(x)
        assert x * f_eval(spec, 1 / x) == pytest.approx(f_eval(spec, x), rel=1e-10)
    with pytest.raises(ValueError):
        f_eval(spec, -0.1)


def test_qubit_frozen_values():
    rho = DensityMatrix((2,), np.diag([0.75, 0.25]))
    assert skew_information(rho, SX, QFI) == pytest.approx(0.25, abs=1e-12)
    wyd = 1.0 - 2.0 * np.sqrt(0.75 * 0.25)  # (sqrt a - sqrt b)^2
    assert skew_information(rho, SX, WYD_HALF) == pytest.approx(wyd, abs=1e-12)
    assert variance(rho, SX) == pytest.approx(1.0, abs=1e-12)


def test_pure_state_skew_equals_variance(rng):
    vec = random_pure(rng, 4)
    rho = DensityMatrix((4,), np.outer(vec, vec.conj()))
    x = random_hermitian(rng, 4)
    v = variance(rho, x)
    for spec in (QFI, WYD_HALF, MonotoneFunctionSpec("wyd", 0.25)):
        assert skew_information(rho, x, spec) == pytest.approx(v, abs=1e-9)


def test_skew_bounded_by_variance(rng):
    rho = DensityMatrix((3,), random_density(rng, 3))
    x = random_hermitian(rng, 3)
    v = variance(rho, x)
    for spec in (QFI, WYD_HALF):
        i_f = skew_information(rho, x, spec)
        assert 0 <= i_f <= v + 1e-12


def test_skew_vanishes_when_commuting():
    rho = DensityMatrix((2,), np.diag([0.6, 0.4]))
    sz = np.diag([1.0, -1.0])
    assert skew_information(rho, sz, QFI) == pytest.approx(0.0, abs=1e-12)


def test_collective_operator_and_limit(rng):
    a = random_hermitian(rng, 2)
    big = collective_operator(a, 3)
    expected = (kron(kron(a, np.eye(2)), np.eye(2))
                + kron(kron(np.eye(2), a), np.eye(2))
                + kron(kron(np.eye(2), np.eye(2)), a))
    assert np.max(np.abs(big - expected)) < 1e-12
    with pytest.raises(DenseSizeError):
        collective_operator(random_hermitian(rng, 3), 8)


def test_moments_from_rdms_match_dense(rng):
    d, n = 2, 3
    from itertools import permutations
    vec = random_pure(rng, d**n)
    # permutation-symmetrize so single-pair reduced states represent all pairs
    tensor = vec.reshape((d,) * n)
    tensor = sum(np.transpose(tensor, perm)
                 for perm in permutations(range(n))) / 6
    vec_sym = tensor.ravel()
    vec_sym = vec_sym / np.linalg.norm(vec_sym)
    rho = DensityMatrix((d,) * n, np.outer(vec_sym, vec_sym.conj()))
    rdm1 = partial_trace(rho, {0})
    rdm2 = partial_trace(rho, {0, 1})
    a = random_hermitian(rng, d)
    mom = collective_moments_from_rdms(rdm1, rdm2, a, n)
    big = collective_operator(a, n)
    assert mom.mean == pytest.approx(
        np.real(vec_sym.conj() @ big @ vec_sym), abs=1e-10)
    assert mom.second_moment == pytest.approx(
        np.real(vec_sym.conj() @ big @ big @ vec_sym), abs=1e-10)
    dim = d**n
    assert mom.trace_op * dim == pytest.approx(np.trace(big).real, abs=1e-10)
    assert mom.trace_op_sq * dim == pytest.approx(
        np.trace(big @ big).real, abs=1e-10)


def test_pure_variance_property():
    mom = CollectiveMoments(mean=1.5, second_moment=4.0,
                            trace_op=0.0, trace_op_sq=0.0)
    assert mom.pure_variance == pytest.approx(4.0 - 2.25)


def test_isotropic_path_matches_dense(m14):
    """Spot-check of the exact fast path against a dense evaluation."""
    d, n = 2, 2
    dim = d**n
    vec = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    moments = []
    for a in m14.iter_effects():
        big = collective_operator(a, n)
        moments.append(CollectiveMoments(
            float(np.real(vec.conj() @ big @ vec)),
            float(np.real(vec.conj() @ big @ big @ vec)),
            float(np.trace(big).real) / dim,
            float(np.trace(big @ big).real) / dim))
    for p in (0.0, 0.4, 1.0):
        rho = DensityMatrix((d,) * n,
                            p * np.outer(vec, vec.conj()) + (1 - p) / dim * np.eye(dim))
        for quantity in (QFI, WYD_HALF, VARIANCE):
            fast = criterion_lhs_isotropic(moments, p, d, n, quantity)
            dense = criterion_lhs_dense(rho, m14, quantity)
            assert fast == pytest.approx(dense, abs=1e-10), (p, quantity)


def test_isotropic_path_rejects_bad_p(m14):
    with pytest.raises(ValueError):
        criterion_lhs_isotropic([], 1.2, 2, 2, VARIANCE)


def test_dimension_mismatch(m14, rng):
    rho = DensityMatrix((3,), np.eye(3) / 3)
    with pytest.raises(ValueError):
        criterion_lhs_dense(rho, m14, VARIANCE)
    with pytest.raises(ValueError):
        skew_information(rho, random_hermitian(rng, 2), QFI)


def _random_state(kind: str, dim: int, rng) -> np.ndarray:
    """Pure, rank-r, noisy-isotropic, maximally mixed or full-rank entries."""
    if kind == "mixed":
        return np.eye(dim) / dim
    if kind == "full":
        return random_density(rng, dim)
    vecs = [random_pure(rng, dim) for _ in range(int(rng.integers(2, min(4, dim) + 1)))]
    pure = np.outer(vecs[0], vecs[0].conj())
    if kind == "pure":
        return pure
    if kind == "isotropic":
        p = rng.uniform()
        return p * pure + (1 - p) / dim * np.eye(dim)
    weights = rng.dirichlet(np.ones(len(vecs)))
    return sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3]), n=st.integers(1, 4),
       kind=st.sampled_from(["pure", "rank", "isotropic", "mixed", "full"]),
       omega=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2**32 - 1))
def test_dense_lhs_matches_operator_oracle(m14, m19, d, n, kind, omega, seed):
    """The site-local dense LHS equals the per-effect sum of skew
    information and variance of the dense collective operators."""
    m = m14 if d == 2 else m19
    rho = DensityMatrix((d,) * n, _random_state(kind, d**n, np.random.default_rng(seed)))
    bigs = [collective_operator(a, n) for a in m.iter_effects()]
    for spec in (QFI, MonotoneFunctionSpec("wyd", omega)):
        oracle = sum(skew_information(rho, big, spec) for big in bigs)
        assert abs(criterion_lhs_dense(rho, m, spec) - oracle) <= 1e-10, spec
    oracle = sum(variance(rho, big) for big in bigs)
    assert abs(criterion_lhs_dense(rho, m, VARIANCE) - oracle) <= 1e-10
