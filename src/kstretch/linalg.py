"""Dense complex Hermitian matrix algebra used throughout the package.

Conventions: site 0 is the slowest-varying tensor index (standard
Kronecker ordering, left factor slow).  All operators are plain complex
numpy arrays; density matrices carry their per-site dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_SLACK = 1e-9
# eigenvalues below this are treated as exactly zero in spectral formulas
EIG_ZERO_TOL = 1e-12


def check_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate that `a` is a square Hermitian matrix; return it as complex."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN deviation fails the gate
        dev = np.max(np.abs(a - a.conj().T))
    if not dev <= tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return a


def hs_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt inner product Tr(a b) of two Hermitian matrices."""
    return float(np.real(np.trace(a @ b)))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, left factor slow."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace PSD Hermitian operator on a tensor-product space; the
    entries are stored read-only, so the cached `spectrum` cannot go stale."""

    site_dims: tuple[int, ...]
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.site_dims)
        object.__setattr__(self, "site_dims", dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid site dimensions {dims}")
        entries = check_hermitian(self.entries)
        dim = int(np.prod(dims))
        if entries.shape != (dim, dim):
            raise ValueError(
                f"entries shape {entries.shape} does not match site dims {dims}"
            )
        tr = np.trace(entries).real
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace is {tr}, expected 1")
        try:  # rho >= -PSD_SLACK iff rho + PSD_SLACK has a Cholesky factor
            np.linalg.cholesky(entries + PSD_SLACK * np.eye(dim))
        except np.linalg.LinAlgError:
            min_eig = np.linalg.eigvalsh(entries).min()
            if min_eig < -PSD_SLACK:
                raise ValueError(f"not positive semidefinite (min eigenvalue {min_eig:.3e})")
        entries = entries.view()
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @cached_property
    def spectrum(self) -> Spectrum:
        """Eigendecomposition of the entries, computed on first use only."""
        return hermitian_eig(self.entries)

    @property
    def dim(self) -> int:
        return int(np.prod(self.site_dims))

    @property
    def n_sites(self) -> int:
        return len(self.site_dims)

    def purity(self) -> float:
        return hs_inner(self.entries, self.entries)


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns


def hermitian_eig(h: np.ndarray) -> Spectrum:
    """Eigendecomposition of a complex Hermitian matrix (ascending order)."""
    h = check_hermitian(h)
    evals, evecs = np.linalg.eigh(h)
    return Spectrum(evals, evecs)


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out all sites not in `keep`; kept sites stay in original order."""
    keep_set = set(int(i) for i in keep)
    n = rho.n_sites
    if not keep_set:
        raise ValueError("keep set must be nonempty")
    if not keep_set <= set(range(n)):
        raise ValueError(f"keep set {sorted(keep_set)} out of range for {n} sites")
    keep_sorted = sorted(keep_set)
    dims = rho.site_dims
    tensor = rho.entries.reshape(dims + dims)
    # contract row/column indices of every traced site
    for site in sorted(set(range(n)) - keep_set, reverse=True):
        cur = tensor.ndim // 2
        tensor = np.trace(tensor, axis1=site, axis2=cur + site)
    kept_dims = tuple(dims[i] for i in keep_sorted)
    d_out = int(np.prod(kept_dims))
    return DensityMatrix(kept_dims, tensor.reshape(d_out, d_out))


def embed_site(x: np.ndarray, site: int, site_dims: Sequence[int]) -> np.ndarray:
    """Embed a single-site operator as 1 x ... x X_site x ... x 1."""
    dims = [int(d) for d in site_dims]
    if not 0 <= site < len(dims):
        raise ValueError(f"site {site} out of range")
    x = np.asarray(x, dtype=complex)
    if x.shape != (dims[site], dims[site]):
        raise ValueError(
            f"operator shape {x.shape} does not match site dimension {dims[site]}"
        )
    out = np.eye(int(np.prod(dims[:site])), dtype=complex)
    out = np.kron(out, x)
    out = np.kron(out, np.eye(int(np.prod(dims[site + 1:])), dtype=complex))
    return out
