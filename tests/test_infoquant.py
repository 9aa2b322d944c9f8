"""Monotone functions, skew information, variance, collective moments."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy import kron

from conftest import random_density, random_hermitian, random_pure
from kstretch import infoquant, linalg
from kstretch.basis import gell_mann_basis
from kstretch.criteria import evaluate, random_kstretchable_density, sweep_rows, threshold_p
from kstretch.infoquant import (
    DENSE_DIM_LIMIT,
    QFI,
    VARIANCE,
    WYD_HALF,
    CollectiveMoments,
    DenseSizeError,
    MonotoneFunctionSpec,
    _apply_generators,
    collective_moments_from_rdms,
    collective_operator,
    criterion_lhs_dense,
    criterion_lhs_isotropic,
)
from kstretch.linalg import DensityMatrix, Spectrum, _spectral_split
from kstretch.povm import build_stpovm
from kstretch.states import antisymmetric_state, effect_moments, ghz_qudit, materialize_dense, \
    state_vector
from oracles import (
    batched_apply_generators,
    family_reduced_states,
    full_basis_lhs_dense,
    partial_trace,
    skew_information,
    variance,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_spec_validation():
    with pytest.raises(ValueError):
        MonotoneFunctionSpec("bures")
    with pytest.raises(ValueError):
        MonotoneFunctionSpec("wyd", 1.0)
    assert QFI.label == "qfi"
    assert WYD_HALF.label == "wyd:0.5"


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


def generator_moments(vec: np.ndarray, d: int, n: int) -> tuple[float, float]:
    """(sum_a <G_a>^2, sum_a <G_a^2>) from the dense collective generators."""
    bigs = [collective_operator(g, n) for g in gell_mann_basis(d)]
    return (sum(np.vdot(vec, big @ vec).real ** 2 for big in bigs),
            sum(np.vdot(big @ vec, big @ vec).real for big in bigs))


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
    mom = collective_moments_from_rdms(partial_trace(rho, {0}),
                                       partial_trace(rho, {0, 1}), n)
    s1, s2 = generator_moments(vec_sym, d, n)
    assert mom.s1 == pytest.approx(s1, abs=1e-10)
    assert mom.s2 == pytest.approx(s2, abs=1e-10)


def test_pure_variance_property():
    assert CollectiveMoments(s1=1.5, s2=4.0).pure_variance == pytest.approx(2.5)


def test_isotropic_path_matches_dense(m14):
    """Spot-check of the exact fast path against a dense evaluation."""
    d, n = 2, 2
    dim = d**n
    vec = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    moments = CollectiveMoments(*generator_moments(vec, d, n))
    for p in (0.0, 0.4, 1.0):
        rho = DensityMatrix((d,) * n,
                            p * np.outer(vec, vec.conj()) + (1 - p) / dim * np.eye(dim))
        for quantity in (QFI, WYD_HALF, VARIANCE):
            fast = criterion_lhs_isotropic(moments, m14.beta, p, d, n, quantity)
            dense = criterion_lhs_dense(rho, m14, quantity)
            assert fast == pytest.approx(dense, abs=1e-10), (p, quantity)


def test_isotropic_path_rejects_bad_p(m14):
    with pytest.raises(ValueError):
        criterion_lhs_isotropic(CollectiveMoments(0.0, 0.0), m14.beta, 1.2, 2, 2, VARIANCE)


def test_quantity_kind_needs_no_spec_equality(m14, monkeypatch):
    """Both LHS paths, the sweep and the threshold tell a spec from VARIANCE
    by type, never through the spec's dataclass __eq__; a string other than
    VARIANCE is a ValueError, not a variance LHS or an AttributeError."""
    monkeypatch.setattr(MonotoneFunctionSpec, "__eq__",
                        lambda *args: pytest.fail("spec __eq__ called"))
    fam, moments = ghz_qudit(2, 3), CollectiveMoments(0.5, 4.0)
    assert sweep_rows(fam, m14, 0, [QFI, WYD_HALF, VARIANCE], [0.9, 0.5, 0.2])[1]
    threshold_p(fam, m14, QFI, 0)
    assert evaluate(materialize_dense(fam, 0.9), m14, WYD_HALF, 0).lhs_skew > 0
    for quantity in ("qfi", "Variance", None):
        with pytest.raises(ValueError, match="unknown quantity"):
            criterion_lhs_isotropic(moments, m14.beta, 0.5, 2, 3, quantity)
        with pytest.raises(ValueError, match="unknown quantity"):
            criterion_lhs_dense(materialize_dense(fam, 0.5), m14, quantity)
        with pytest.raises(ValueError, match="unknown quantity"):
            threshold_p(fam, m14, quantity, 0)


def per_effect_variances(m, fam, p: float) -> tuple[float, float]:
    """Sums over the effects of Var_psi(A) and Var_rho(p)(A), with the
    collective moments of each A = A_1 + ... + A_n from kron(a, a) @ rho2,
    on the family's hand-built reduced states."""
    d, n = fam.d, fam.n
    rho1, rho2 = (rdm.entries for rdm in family_reduced_states(fam))
    pure = mixed = 0.0
    for a in m.iter_effects():
        mean = n * np.trace(a @ rho1).real
        second = (n * np.trace(a @ a @ rho1).real
                  + n * (n - 1) * np.trace(kron(a, a) @ rho2).real)
        tr_a, tr_a2 = np.trace(a).real / d, np.trace(a @ a).real / d  # Tr a^j / d
        pure += second - mean**2
        mixed += (p * second + (1 - p) * (n * tr_a2 + n * (n - 1) * tr_a**2)
                  - (p * mean + (1 - p) * n * tr_a) ** 2)
    return pure, mixed


@pytest.mark.parametrize("fam,s,t", [(ghz_qudit(3, 50), 1, 9),
                                     (antisymmetric_state(8), 1, 64)])
def test_beta_path_matches_per_effect_sum(fam, s, t):
    """beta times the generator functionals equals the sums over the s t
    effects: beta F_psi for the pure variance (which the skew LHS scales),
    and the variance LHS at each p."""
    m = build_stpovm(gell_mann_basis(fam.d), s, t)
    moments = effect_moments(fam)
    pure, scale = per_effect_variances(m, fam, 0.0)
    assert abs(m.beta * moments.pure_variance - pure) <= 1e-12 * max(abs(pure), scale)
    for p in (0.0, 0.3, 0.8, 1.0):
        mixed = per_effect_variances(m, fam, p)[1]
        got = criterion_lhs_isotropic(moments, m.beta, p, fam.d, fam.n, VARIANCE)
        assert abs(got - mixed) <= 1e-12 * max(abs(mixed), scale), p


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


LHS_QUANTITIES = (QFI, MonotoneFunctionSpec("wyd", 0.2), WYD_HALF, VARIANCE)


def _rank3_kstretchable(rng):
    """A rank-3 k-stretchable mixture at d=3, N=6 (D=729)."""
    while True:
        rho = random_kstretchable_density(rng, 3, 6, -1)
        if np.sum(rho.spectrum.eigenvalues > 1e-12) == 3:
            return rho


def _equal_rank2(rng, d, n):
    """(|a><a| + |b><b|)/2, a and b orthonormal: a degenerate non-flat level."""
    dim = d**n
    basis = np.linalg.qr(rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2)))[0]
    return DensityMatrix((d,) * n, basis @ basis.conj().T / 2)


LHS_STATES = {
    "rank-3 d=3 N=6": (3, _rank3_kstretchable),
    "noisy GHZ d=3 N=4": (3, lambda rng: materialize_dense(ghz_qudit(3, 4), 0.7)),
    "equal-weight rank-2 d=2 N=6": (2, lambda rng: _equal_rank2(rng, 2, 6)),
    "maximally mixed d=2 N=4": (2, lambda rng: DensityMatrix((2,) * 4, np.eye(16) / 16)),
    "full rank d=3 N=4": (3, lambda rng: DensityMatrix((3,) * 4, random_density(rng, 81))),
}


@functools.cache
def lhs_state(name: str) -> DensityMatrix:
    return LHS_STATES[name][1](np.random.default_rng(20261019))


@pytest.mark.parametrize("name", LHS_STATES)
def test_dense_lhs_matches_full_basis_oracle(m14, m19, name):
    """The LHS from the non-flat eigenvectors equals the full-eigenbasis sum,
    whose pairs (not flat, flat) read every flat eigenvector."""
    m = m14 if LHS_STATES[name][0] == 2 else m19
    rho = lhs_state(name)
    for quantity in LHS_QUANTITIES:
        oracle = full_basis_lhs_dense(rho, m, quantity)
        got = criterion_lhs_dense(rho, m, quantity)
        assert abs(got - oracle) <= 1e-12 * abs(oracle), quantity


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3]), n=st.integers(2, 4), rank=st.integers(1, 3),
       noise=st.sampled_from([0.0, 0.5]) | st.floats(0.01, 0.99),
       weights=st.sampled_from(["random", "equal", "tiny"]),
       seed=st.integers(0, 2**32 - 1))
def test_factor_lhs_matches_entries(m14, m19, d, n, rank, noise, weights, seed):
    """A factor state's LHS, from a thin QR and an r x r decomposition, equals
    the LHS of the same state built from its entries: ranks 1-3, noise 0 or
    not, equal weights on orthonormal vectors (a degenerate non-flat level),
    and a weight of 1e-14 (a mu below EIG_ZERO_TOL).  A nonzero noise level
    stays >= 0.01 / D: just above EIG_ZERO_TOL, the ~1e-16 spread that the
    entries' eigendecomposition gives the flat level moves the WYD weights
    b^omega by more than 1e-12 (8e-10 at omega = 0.2, level 1.25e-10)."""
    rng = np.random.default_rng(seed)
    sites = n + (d == 2)  # D >= 8
    dim = d**sites
    x = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    w = rng.dirichlet(np.ones(rank))
    if weights == "equal":
        x, w = np.linalg.qr(x)[0], np.full(rank, 1 / rank)
    elif weights == "tiny" and rank > 1:
        w[-1], w[:-1] = 1e-14, w[:-1] / w[:-1].sum() * (1 - 1e-14)
    x /= np.linalg.norm(x, axis=0)
    rho = DensityMatrix.from_factor((d,) * sites, x, (1 - noise) * w, noise / dim)
    ref = DensityMatrix(rho.site_dims, rho.entries)
    m = m14 if d == 2 else m19
    for quantity in (QFI, MonotoneFunctionSpec("wyd", 0.2), WYD_HALF, VARIANCE):
        got, want = criterion_lhs_dense(rho, m, quantity), criterion_lhs_dense(ref, m, quantity)
        assert abs(got - want) <= 1e-12 * abs(want), (quantity, got, want)
    assert "spectrum" not in rho.__dict__


def test_factor_split_from_factor_when_2r_reaches_d(m14):
    """With 2r >= D the factor still gives the split, though the noise level
    is not the widest flat window: three orthonormal vectors of weight 0.3
    at D = 4 are three non-flat vectors over the flat levels c = b = 0.025
    exactly, and no LHS builds or decomposes the D x D entries."""
    x = np.linalg.qr(np.random.default_rng(4).normal(size=(4, 3)))[0]
    rho = DensityMatrix.from_factor((2, 2), x, np.full(3, 0.3), 0.1 / 4)
    _, c, b, vectors = rho.split
    assert vectors.shape == (4, 3) and c == b == 0.025
    ref = DensityMatrix((2, 2), 0.025 * np.eye(4) + 0.3 * x @ x.conj().T)
    for quantity in LHS_QUANTITIES:
        want = criterion_lhs_dense(ref, m14, quantity)
        assert criterion_lhs_dense(rho, m14, quantity) == pytest.approx(want, rel=1e-12)
        assert "spectrum" not in rho.__dict__ and rho.matrix is None, quantity


def test_factor_split_decomposes_no_d_by_d_matrix(m19, monkeypatch):
    """A rank-150 factor state at D = 243 (2r >= D) splits from its factor:
    no eigendecomposition of size 243, and every LHS equals that of the
    same state given by entries, its noise level kept >= 1e-9."""
    rng = np.random.default_rng(25)
    dim, rank, noise = 243, 150, 0.05
    x = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    x /= np.linalg.norm(x, axis=0)
    w = (1 - noise) * rng.dirichlet(np.ones(rank))
    ref = DensityMatrix((3,) * 5, noise / dim * np.eye(dim) + (x * w) @ x.conj().T)
    assert noise / dim >= 1e-9
    sizes = []
    eig = linalg.hermitian_eig
    monkeypatch.setattr(linalg, "hermitian_eig", lambda h: sizes.append(len(h)) or eig(h))
    rho = DensityMatrix.from_factor((3,) * 5, x, w, noise / dim)
    for quantity in LHS_QUANTITIES:
        got, want = criterion_lhs_dense(rho, m19, quantity), criterion_lhs_dense(ref, m19, quantity)
        assert abs(got - want) <= 1e-12 * abs(want), (quantity, got, want)
    assert sizes and dim not in sizes, sizes
    assert rho.matrix is None and "spectrum" not in rho.__dict__


def test_factor_of_rank_zero_is_maximally_mixed(m14):
    """A factor with no vectors is noise 1 = 1/D: its split has no non-flat
    eigenvector, every LHS equals that of the entries 1/D, and it builds and
    decomposes no D x D matrix."""
    rho = DensityMatrix.from_factor((2,) * 3, np.zeros((8, 0)), [], 1 / 8)
    ref = DensityMatrix((2,) * 3, np.eye(8) / 8)
    assert rho.split[3].shape == (8, 0)
    for quantity in LHS_QUANTITIES:
        want = criterion_lhs_dense(ref, m14, quantity)
        assert criterion_lhs_dense(rho, m14, quantity) == pytest.approx(want, rel=1e-12, abs=0)
    assert rho.matrix is None and "spectrum" not in rho.__dict__


def test_dense_lhs_never_reads_flat_eigenvectors(m19):
    """Flat eigenvectors set to NaN in the cached spectrum change nothing."""
    rho = _equal_rank2(np.random.default_rng(3), 3, 4)
    evals, evecs = rho.spectrum
    flat = _spectral_split(evals)[2]
    assert 0 < np.sum(~flat) < flat.size
    poisoned = DensityMatrix(rho.site_dims, rho.entries)
    nan_evecs = evecs.copy()
    nan_evecs[:, flat] = np.nan
    poisoned.__dict__["spectrum"] = Spectrum(evals, nan_evecs)
    for quantity in LHS_QUANTITIES:
        got = criterion_lhs_dense(poisoned, m19, quantity)
        assert np.isfinite(got) and got == criterion_lhs_dense(rho, m19, quantity), quantity


def test_dense_lhs_memory_at_full_rank(m19):
    """At full rank one call holds at most 6 complex D x D matrices at once."""
    rho = DensityMatrix((3,) * 5, random_density(np.random.default_rng(5), 243))
    rho.spectrum  # the cached decomposition is not part of the call
    unit = 243 * 243 * np.dtype(complex).itemsize
    for quantity in (QFI, WYD_HALF, VARIANCE):
        tracemalloc.start()
        try:
            criterion_lhs_dense(rho, m19, quantity)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * unit, (quantity, peak / unit)


def test_dense_lhs_memory_at_rank_3(m19):
    """A rank-3 factor state at d=3, N=10 (D = 59049): the generators go five
    to a group, whose image holds 5 V_R, so one call holds two images and
    one more copy of V_R (11 V_R) and stays within 12 times V_R's bytes."""
    rng = np.random.default_rng(10)
    x = rng.normal(size=(3**10, 3)) + 1j * rng.normal(size=(3**10, 3))
    rho = DensityMatrix.from_factor((3,) * 10, x / np.linalg.norm(x, axis=0), [0.5, 0.3, 0.2])
    unit = rho.split[-1].nbytes  # the cached split is not part of the call
    for quantity in (QFI, WYD_HALF, VARIANCE):
        tracemalloc.start()
        try:
            criterion_lhs_dense(rho, m19, quantity)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * unit, (quantity, peak / unit)


def test_apply_generators_matches_batched_oracle():
    """One GEMM per site gives the batched kernel's image bit for bit: all
    generators and a slice of them, d = 2 and 3, N up to 6, 0, 1 or 3 columns."""
    rng = np.random.default_rng(28)
    for d in (2, 3):
        gens = gell_mann_basis(d)
        for n in range(1, 7):
            for r in (0, 1, 3):
                v = rng.normal(size=(d**n, r)) + 1j * rng.normal(size=(d**n, r))
                for group in (gens, gens[1:3]):
                    got = _apply_generators(group, n, v)
                    assert got.shape == (len(group), d**n, r)
                    assert np.array_equal(got, batched_apply_generators(group, n, v)), (d, n, r)


@pytest.mark.parametrize("d,n", [(3, 8), (2, 12)])
def test_factor_past_entries_limit_matches_isotropic(m14, m19, d, n):
    """GHZ under white noise as a rank-1 factor past DENSE_DIM_LIMIT (D = 6561
    and 4096): the dense evaluate equals the isotropic one within 1e-12 and
    gives the same verdicts, at p = 0.3, 0.7 and 1."""
    m, dim, k = (m14 if d == 2 else m19), d**n, 3 - n
    assert dim > DENSE_DIM_LIMIT
    family = ghz_qudit(d, n)
    vec = state_vector(family)[:, None]
    for p in (0.3, 0.7, 1.0):
        rho = DensityMatrix.from_factor((d,) * n, vec, [p], (1 - p) / dim)
        for quantity in (QFI, WYD_HALF, MonotoneFunctionSpec("wyd", 0.2), VARIANCE):
            got, want = evaluate(rho, m, quantity, k), evaluate(family, m, quantity, k, p=p)
            for lhs in ("lhs_skew", "lhs_var"):
                a, b = getattr(got, lhs), getattr(want, lhs)
                assert (a is None and b is None) or abs(a - b) <= 1e-12 * abs(b), (p, quantity, lhs)
            assert (got.violated_skew, got.violated_var) == (want.violated_skew, want.violated_var)


def test_entries_state_past_limit_raises_before_generators(m19, monkeypatch):
    """With the limit lowered to 80, an entries state at D = 81 is refused at
    construction, before its eigendecomposition and any generator, by an
    error that names the factor form, while the same state as a factor
    evaluates; the constant and the error still resolve in infoquant."""
    eigs, gens = [], []
    real_eig, real_apply = linalg.hermitian_eig, infoquant._apply_generators
    monkeypatch.setattr(linalg, "hermitian_eig", lambda h: eigs.append(1) or real_eig(h))
    monkeypatch.setattr(infoquant, "_apply_generators",
                        lambda *args: gens.append(1) or real_apply(*args))
    monkeypatch.setattr(linalg, "DENSE_DIM_LIMIT", 80)
    vec = state_vector(ghz_qudit(3, 4))[:, None]
    rho = DensityMatrix.from_factor((3,) * 4, vec, [0.6], 0.4 / 81)
    with pytest.raises(DenseSizeError, match=r"DensityMatrix\.from_factor"):
        DensityMatrix(rho.site_dims, rho.entries)
    assert eigs == [] and gens == []
    assert evaluate(rho, m19, QFI, -1).lhs_skew > 0 and gens
    assert infoquant.DenseSizeError is linalg.DenseSizeError
    assert infoquant.DENSE_DIM_LIMIT == DENSE_DIM_LIMIT == 2500
