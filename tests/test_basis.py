"""Generalized Gell-Mann basis: orthonormality, ordering, grouping."""

import numpy as np
import pytest

from kstretch.basis import (
    InformationalCompletenessError,
    gell_mann_basis,
    group_basis,
)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_orthonormal_traceless(d):
    basis = gell_mann_basis(d)
    ops = basis.ops
    assert len(ops) == d * d - 1
    for a in ops:
        assert abs(np.trace(a)) < 1e-12
        assert np.max(np.abs(a - a.conj().T)) < 1e-12
    gram = np.array([[np.trace(a @ b).real for b in ops] for a in ops])
    assert np.max(np.abs(gram - np.eye(len(ops)))) < 1e-12


def test_qubit_is_scaled_paulis():
    ops = gell_mann_basis(2).ops
    sx = np.array([[0, 1], [1, 0]]) / np.sqrt(2)
    sy = np.array([[0, -1j], [1j, 0]]) / np.sqrt(2)
    sz = np.array([[1, 0], [0, -1]]) / np.sqrt(2)
    for got, want in zip(ops, (sx, sy, sz)):
        assert np.max(np.abs(got - want)) < 1e-12


def test_invalid_dimension():
    with pytest.raises(ValueError):
        gell_mann_basis(1)


@pytest.mark.parametrize("d,s,t", [(2, 1, 4), (2, 3, 2), (3, 1, 9), (3, 4, 3),
                                   (3, 8, 2), (3, 2, 5), (4, 5, 4), (5, 6, 5)])
def test_grouping_valid_families(d, s, t):
    """C^(uv) is the basis element at flat index (u-1)(t-1) + (v-1)."""
    basis = gell_mann_basis(d)
    grid = group_basis(basis, s, t)
    assert grid.shape == (s, t - 1, d, d)
    for u in range(1, s + 1):
        for v in range(1, t):
            assert np.array_equal(grid[u - 1, v - 1], basis.ops[(u - 1) * (t - 1) + (v - 1)])


def test_grouping_rejects_incomplete():
    basis = gell_mann_basis(3)
    with pytest.raises(InformationalCompletenessError):
        group_basis(basis, 2, 4)
    with pytest.raises(InformationalCompletenessError):
        group_basis(basis, 8, 1)
