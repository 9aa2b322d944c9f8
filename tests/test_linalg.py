"""Hermitian algebra, density-matrix validation, partial trace, embedding."""

import numpy as np
import pytest
from numpy import kron

from conftest import random_density, random_hermitian, random_pure
from kstretch import linalg
from kstretch.linalg import (
    DensityMatrix,
    _spectral_split,
    check_hermitian,
    embed_site,
    hermitian_eig,
)
from oracles import partial_trace


def test_check_hermitian_accepts_and_rejects():
    check_hermitian(np.array([[1.0, 2 + 1j], [2 - 1j, 0.5]]))
    with pytest.raises(ValueError):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        check_hermitian(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        check_hermitian(np.zeros(4))


def test_check_hermitian_takes_a_stack(rng):
    """A stack passes when every slice is Hermitian and fails on one that
    is not; its last two axes must be square."""
    stack = np.array([[random_hermitian(rng, 3) for _ in range(4)] for _ in range(2)])
    assert check_hermitian(stack).shape == (2, 4, 3, 3)
    stack[1, 2, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        check_hermitian(stack)
    with pytest.raises(ValueError, match="square"):
        check_hermitian(np.zeros((4, 2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_non_finite_entries_rejected(bad, where):
    """A NaN or inf entry, on the diagonal or off it (mirrored, so the
    matrix looks Hermitian), fails the Hermiticity gate instead of passing
    it with a NaN deviation; a density matrix holding one is rejected."""
    a = np.eye(2, dtype=complex) / 2
    a[where] = bad
    a[where[::-1]] = np.conj(bad)
    with pytest.raises(ValueError, match="not Hermitian"):
        check_hermitian(a)
    with pytest.raises(ValueError):
        DensityMatrix((2,), a)


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix((2,), np.eye(2))
    with pytest.raises(ValueError, match="positive"):
        DensityMatrix((2,), np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="shape"):
        DensityMatrix((2, 2), np.eye(2) / 2)
    rho = DensityMatrix((2, 3), np.eye(6) / 6)
    assert rho.dim == 6 and rho.n_sites == 2


def test_psd_validation_boundary(rng, monkeypatch):
    """The one eigendecomposition keeps the rule, min eigenvalue >= -1e-9
    passes, with no Cholesky or eigvalsh, and an accepted state keeps it as
    its spectrum."""
    u = np.linalg.qr(random_hermitian(rng, 4) + 1j * np.eye(4))[0]
    vecs = [random_pure(rng, 729) for _ in range(3)]
    monkeypatch.setattr(np.linalg, "cholesky", None)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    for min_eig, ok in ((-0.5e-9, True), (-2e-9, False)):
        entries = u @ np.diag([min_eig, 0.2, 0.3, 0.5 - min_eig]) @ u.conj().T
        if ok:
            assert "spectrum" in DensityMatrix((2, 2), entries).__dict__
        else:
            with pytest.raises(ValueError, match=r"positive semidefinite "
                               r"\(min eigenvalue -2\.000e-09\)"):
                DensityMatrix((2, 2), entries)
    # a rank-3 state at D=729: 726 zero eigenvalues, accepted
    rank3 = DensityMatrix((3,) * 6, sum(w * np.outer(v, v.conj())
                                        for w, v in zip((0.5, 0.3, 0.2), vecs)))
    assert rank3.dim == 729 and "spectrum" in rank3.__dict__


def test_entries_read_only_and_spectrum_cached(rng):
    source = random_density(rng, 4)
    rho = DensityMatrix((2, 2), source)
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 1.0
    assert source.flags.writeable  # the caller's array is left alone
    assert rho.spectrum is rho.spectrum
    evals, evecs = rho.spectrum
    assert np.max(np.abs(evecs @ np.diag(evals) @ evecs.conj().T - source)) < 1e-12


def test_entries_checked_hermitian_once(rng, monkeypatch):
    """A state given by entries is checked Hermitian once, by the
    eigendecomposition that also checks it PSD."""
    calls = []
    check = linalg.check_hermitian
    monkeypatch.setattr(linalg, "check_hermitian", lambda a: calls.append(a) or check(a))
    DensityMatrix((2, 2), random_density(rng, 4))
    assert len(calls) == 1


@pytest.mark.parametrize("entries", [
    np.eye(8) / 8,
    np.diag([0.5, 0.5, 0, 0, 0, 0, 0, 0]),
    random_density(np.random.default_rng(7), 8),
])
def test_entries_split_slices_spectral_split(entries):
    """A state given by entries splits into the `_spectral_split` slices of
    its spectrum: non-flat eigenvalues, the level c, the clipped flat mean
    and the non-flat eigenvectors."""
    rho = DensityMatrix((2,) * 3, entries)
    evals, evecs = rho.spectrum
    lam, c, flat = _spectral_split(evals)
    lam_r, c_split, b, vectors = rho.split
    assert np.array_equal(lam_r, lam[~flat]) and c_split == c
    assert b == np.mean(lam[flat]) and np.array_equal(vectors, evecs[:, ~flat])


def test_factor_entries_read_only_and_built_on_first_read(rng):
    """A factor state never holds a D x D matrix: its first read of the
    entries, like every later one, builds noise 1 + Y Y^dag, read-only, from
    its own copy, and keeps none."""
    x = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    x /= np.linalg.norm(x, axis=0)
    w, c = np.array([0.3, 0.5]), 0.2 / 8
    expected = c * np.eye(8) + (x * w) @ x.conj().T
    rho = DensityMatrix.from_factor((2, 2, 2), x, w, c)
    x[0, 0] = w[0] = np.nan  # the caller's arrays are not kept
    assert rho.matrix is None
    assert np.max(np.abs(rho.entries - expected)) < 1e-15
    assert rho.matrix is None
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 1.0
    with pytest.raises(ValueError):
        rho.factor[0, 0] = 1.0


E2 = np.eye(8)[:, :2]


@pytest.mark.parametrize("vectors,weights,noise,match", [
    (E2, [1.2, -0.2], 0.0, r"weights >= 0 .* got \[ 1.2 -0.2\]"),
    (E2, [0.5, np.nan], 0.0, r"weights >= 0 .* got \[0.5 nan\]"),
    (E2, [0.55, 0.55], -0.1 / 8, "noise -0.0125 finite and >= 0"),
    (E2, [0.5, 0.5], np.nan, "noise nan finite and >= 0"),
    (np.where(E2 == 1, np.nan, 0), [0.5, 0.5], 0.0, "factor must be finite"),
    (np.where(E2 == 1, np.inf, 0), [0.5, 0.5], 0.0, "factor must be finite"),
    (E2, [0.25, 0.25], 0.0, "trace is 0.5,"),
    (E2[:, 0], [1.0], 0.0, r"got \[1.\] for \(8,\)"),
    (E2, [0.4, 0.3, 0.3], 0.0, r"got \[0.4 0.3 0.3\] for \(8, 2\)"),
    (np.eye(4)[:, :2], [0.5, 0.5], 0.0, r"factor shape \(4, 2\) does not match"),
])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf times sqrt(w)
def test_factor_rejects_bad_input(vectors, weights, noise, match):
    with pytest.raises(ValueError, match=match):
        DensityMatrix.from_factor((2, 2, 2), vectors, weights, noise)


def test_total_dimension_is_exact():
    """D is an exact integer: 64 qubit sites make 2^64, not a wrapped 0 that
    an empty factor or 0 x 0 entries would match."""
    with pytest.raises(ValueError, match=r"factor shape \(0, 1\) does not match site dims"):
        DensityMatrix.from_factor((2,) * 64, np.zeros((0, 1)), [1.0])
    with pytest.raises(ValueError, match=r"entries shape \(0, 0\) does not match site dims"):
        DensityMatrix((2,) * 64, np.zeros((0, 0)))


def test_hermitian_eig_of_empty_matrix():
    evals, evecs = hermitian_eig(np.zeros((0, 0)))
    assert evals.shape == (0,) and evecs.shape == (0, 0)


def test_hermitian_eig_ascending(rng):
    h = random_hermitian(rng, 5)
    evals, evecs = hermitian_eig(h)
    assert np.all(np.diff(evals) >= 0)
    assert np.max(np.abs(evecs @ np.diag(evals) @ evecs.conj().T - h)) < 1e-12


def test_partial_trace_product_state(rng):
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    rho = DensityMatrix((2, 3), kron(a, b))
    assert np.max(np.abs(partial_trace(rho, {0}).entries - a)) < 1e-12
    assert np.max(np.abs(partial_trace(rho, {1}).entries - b)) < 1e-12


def test_partial_trace_three_sites(rng):
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    c = random_density(rng, 3)
    rho = DensityMatrix((2, 2, 3), kron(kron(a, b), c))
    r02 = partial_trace(rho, {0, 2})
    assert r02.site_dims == (2, 3)
    assert np.max(np.abs(r02.entries - kron(a, c))) < 1e-12
    with pytest.raises(ValueError):
        partial_trace(rho, set())
    with pytest.raises(ValueError):
        partial_trace(rho, {3})


def test_embed_site_matches_kron(rng):
    x = random_hermitian(rng, 3)
    dims = [2, 3, 2]
    expected = kron(kron(np.eye(2), x), np.eye(2))
    assert np.max(np.abs(embed_site(x, 1, dims) - expected)) < 1e-12
    with pytest.raises(ValueError):
        embed_site(x, 0, dims)
