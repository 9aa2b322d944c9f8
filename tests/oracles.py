"""Test oracles: the detection bounds as the paper writes them, in
(r, chi, s, t), the single-site effect-square identities, the dense
LHS in the full eigenbasis, and random k-stretchable states summed as
D x D matrices.  The program computes the bounds from (beta, s/t), the
dense LHS from the non-flat eigenvectors only and random states as
factors; these independent forms check it."""

import numpy as np

from kstretch.basis import gell_mann_basis
from kstretch.infoquant import VARIANCE, _spectral_split, _weight_matrix
from kstretch.linalg import check_hermitian
from kstretch.partitions import enumerate_kstretch, max_sum_squares


def paper_bound_i(m, n: int, k: int) -> float:
    """The skew-information bound in the paper's (r, chi, s, t) form."""
    d, s, t, r, chi = m.d, m.s, m.t, m.r, m.chi
    big_t = t * (np.sqrt(t) + 1) ** 2
    if n + k == 1:
        return n * (
            s / t + r**2 * big_t * (d - 1 / d)
            - (d - 1) * (d**2 + t**2 * chi) / (d * t * (t - 1))
        )
    m_val = max_sum_squares(n, k)
    return (
        n * (r**2 * big_t * (d - 1) - (d**2 - 1) / (t * (t - 1)))
        + (s / t + r**2 * big_t * (1 - 1 / d)) * m_val
    )


def paper_bound_v(m, n: int, k: int) -> float:
    """The variance bound in the paper's (r, chi, s, t) form."""
    d, s, t, r, chi = m.d, m.s, m.t, m.r, m.chi
    big_t = t * (np.sqrt(t) + 1) ** 2
    m_val = max_sum_squares(n, k)
    return (
        r**2 * big_t * (d + 1) * n
        + (
            s / t
            - r**2 * big_t * (1 + 1 / d)
            - (d - 1) * (d**2 + t**2 * chi) / (d * t * (t - 1))
        )
        * m_val
    )


def square_sum_scalar(d: int, s: int, t: int, r: float) -> float:
    """Scalar c with sum over (u,v) of A^2 = c * identity (the
    conical-design residual implies it, with c = alpha + beta d)."""
    return s / t + r**2 * t * (np.sqrt(t) + 1) ** 2 * (d - 1 / d)


def verify_square_sum(m) -> float:
    """Max entrywise deviation of the effect square sum from its scalar."""
    total = sum(a @ a for a in m.iter_effects())
    target = square_sum_scalar(m.d, m.s, m.t, m.r) * np.eye(m.d)
    return float(np.max(np.abs(total - target)))


def probability_square_sum(m, rho: np.ndarray) -> float:
    """Sum over (u,v) of [Tr(A^(uv) rho)]^2 by direct summation."""
    rho = check_hermitian(rho)
    if rho.shape != (m.d, m.d):
        raise ValueError(f"state dimension {rho.shape[0]} != {m.d}")
    return float(sum(np.trace(a @ rho).real ** 2 for a in m.iter_effects()))


def probability_square_sum_formula(m, purity: float) -> float:
    """Closed form of the probability square sum as a function of purity."""
    d, t, chi = m.d, m.t, m.chi
    return (d * (t**2 * chi - d) * purity + d**3 - t**2 * chi) / (d * t * (t - 1))


def probability_square_sum_pure(m) -> float:
    """The pure-state value (d-1)(d^2 + t^2 chi) / (d t (t-1))."""
    d, t, chi = m.d, m.t, m.chi
    return (d - 1) * (d**2 + t**2 * chi) / (d * t * (t - 1))


def _apply_collective(a: np.ndarray, n: int, vecs: np.ndarray) -> np.ndarray:
    """(A_1 + ... + A_n) @ vecs (a vector or columns), one broadcast matmul
    per site."""
    d = a.shape[0]
    return sum((a @ vecs.reshape(d**i, d, vecs.size // d ** (i + 1))).reshape(vecs.shape)
               for i in range(n))


def full_basis_lhs_dense(rho, m, quantity) -> float:
    """The dense LHS in the full eigenbasis: each generator's rows
    (G V_R)^dagger V against every eigenvector, flat ones included, with
    the pairs (not flat, flat) counted twice."""
    n = rho.n_sites
    evals, evecs = rho.spectrum
    lam, c, flat = _spectral_split(evals)
    v_rest = np.ascontiguousarray(evecs[:, ~flat])
    generators = gell_mann_basis(m.d).ops
    total = 0.0
    if quantity == VARIANCE:
        shift = evals[~flat] - c
        for g in generators:
            gv = _apply_collective(g, n, v_rest)
            mean = shift @ np.sum(v_rest.conj() * gv, axis=0).real
            second = c * rho.dim * n / m.d + shift @ np.sum(np.abs(gv) ** 2, axis=0)
            total += float(second - mean**2)
        return m.beta * total
    weights = _weight_matrix(lam[~flat], lam, quantity)
    weights[:, flat] *= 2.0
    for g in generators:
        x_rest = _apply_collective(g, n, v_rest).conj().T @ evecs
        total += float(np.sum(weights * np.abs(x_rest) ** 2))
    return m.beta * total


def dense_kstretchable_entries(rng, d: int, n: int, k: int,
                               max_mixture: int = 3) -> np.ndarray:
    """The entries of `random_kstretchable_density` for the same generator
    state, summed as w |v><v| matrices: the same draws in the same order."""
    admissible = enumerate_kstretch(n, k)
    n_pure = int(rng.integers(1, max_mixture + 1))
    weights = rng.dirichlet(np.ones(n_pure))
    rho = np.zeros((d**n, d**n), dtype=complex)
    for w in weights:
        parts = admissible[rng.integers(len(admissible))]
        vec = np.ones(1, dtype=complex)
        for size in parts:
            block = rng.normal(size=d**size) + 1j * rng.normal(size=d**size)
            block /= np.linalg.norm(block)
            vec = np.kron(vec, block)
        rho += w * np.outer(vec, vec.conj())
    return rho
