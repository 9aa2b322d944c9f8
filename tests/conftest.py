"""Shared fixtures: canonical measurements and a seeded generator."""

import numpy as np
import pytest

from kstretch.basis import gell_mann_basis
from kstretch.povm import build_stpovm


@pytest.fixture(scope="session")
def m19():
    """The d=3 (1,9)-POVM at the chi-maximizing endpoint."""
    return build_stpovm(gell_mann_basis(3), 1, 9)


@pytest.fixture(scope="session")
def m19_r0129():
    """The d=3 (1,9)-POVM at r = 0.0129."""
    return build_stpovm(gell_mann_basis(3), 1, 9, 0.0129)


@pytest.fixture(scope="session")
def m14():
    """The d=2 (1,4)-POVM (qubit GSIC) at the endpoint."""
    return build_stpovm(gell_mann_basis(2), 1, 4)


def all_families(d):
    """Every informationally complete (s,t) family for local dimension d."""
    return [((d * d - 1) // (t - 1), t) for t in range(2, d * d + 1)
            if (d * d - 1) % (t - 1) == 0]


@pytest.fixture(scope="session")
def catalogue():
    """The chi-maximizing measurement of all 48 families at d = 2..9."""
    return [build_stpovm(gell_mann_basis(d), s, t)
            for d in range(2, 10) for s, t in all_families(d)]


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_density(rng, dim):
    """Full-rank Wishart-style random density matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)
