"""Dense complex Hermitian matrix algebra used throughout the package.

Conventions: site 0 is the slowest-varying tensor index (standard
Kronecker ordering, left factor slow).  All operators are plain complex
numpy arrays; density matrices carry their per-site dimensions, and cache
the one generator pass (`generator_terms`) that every criterion LHS reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .basis import gell_mann_basis

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_SLACK = 1e-9
# eigenvalues below this are treated as exactly zero in spectral formulas
EIG_ZERO_TOL = 1e-12
DENSE_DIM_LIMIT = 2500  # D of a state given by entries, and of the dense test oracles
GROUP_ENTRIES = 2**20  # complex entries of one generator group's image: 16 MB


class DenseSizeError(ValueError):
    """Raised when a dense matrix would exceed the size limit."""


def check_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate that `a` is a square Hermitian matrix, or a stack of them over
    its leading axes; return it as complex."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN deviation fails the gate
        dev = np.max(np.abs(a - a.conj().swapaxes(-1, -2)), initial=0.0)
    if not dev <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return a


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace PSD Hermitian operator on a tensor-product space: entries (D at most
    DENSE_DIM_LIMIT), checked Hermitian and PSD by the one eigendecomposition kept as `spectrum`,
    or (`from_factor`) noise 1 + Y Y^dag, both read-only, so `spectrum`, `split` and
    `generator_terms` cannot go stale.  Past `split`, nothing asks which of the two a state is."""

    site_dims: tuple[int, ...]
    matrix: Optional[np.ndarray] = field(default=None, repr=False)
    factor: Optional[np.ndarray] = field(default=None, repr=False)  # Y, D x r
    noise: float = 0.0

    @classmethod
    def from_factor(cls, site_dims, vectors, weights, noise: float = 0.0) -> "DensityMatrix":
        """noise 1 + sum_i w_i |x_i><x_i|, x_i the columns of `vectors`: Y = X diag(sqrt w)."""
        x, w = np.asarray(vectors, dtype=complex), np.asarray(weights, dtype=float)
        if x.ndim != 2 or w.shape != x.shape[1:] or not (w >= 0).all():
            raise ValueError(f"need r weights >= 0 for D x r vectors, got {w} for {x.shape}")
        y = x * np.sqrt(w)
        y.flags.writeable = False
        return cls(site_dims, None, y, noise)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.site_dims)
        object.__setattr__(self, "site_dims", dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid site dimensions {dims}")
        dim = math.prod(dims)
        if self.factor is None:
            entries = np.asarray(self.matrix, dtype=complex)
            if entries.size > DENSE_DIM_LIMIT**2:  # before the O(D^3) decomposition
                raise DenseSizeError(f"entries {entries.shape} exceed D = {DENSE_DIM_LIMIT}"
                                     "; use DensityMatrix.from_factor for larger states")
            spectrum = hermitian_eig(entries)  # checks square and Hermitian
            if entries.shape != (dim, dim):
                raise ValueError(f"entries shape {entries.shape} does not match site dims {dims}")
            tr = np.trace(entries).real
        else:  # O(D r): Y Y^dag + noise 1 is Hermitian, and PSD for noise >= 0
            y, c = self.factor, self.noise
            if y.ndim != 2 or len(y) != dim:
                raise ValueError(f"factor shape {y.shape} does not match site dims {dims}")
            if not (np.isfinite(y).all() and 0.0 <= c < np.inf):
                raise ValueError(f"factor must be finite and noise {c} finite and >= 0")
            tr = c * dim + np.vdot(y, y).real
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace is {tr}, expected 1")
        if self.factor is not None:
            return
        entries = entries.view()
        entries.flags.writeable = False
        if spectrum.eigenvalues[0] < -PSD_SLACK:
            raise ValueError("not positive semidefinite "
                             f"(min eigenvalue {spectrum.eigenvalues[0]:.3e})")
        object.__setattr__(self, "matrix", entries)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def entries(self) -> np.ndarray:
        """The read-only D x D entries; a factor state builds them on each read and keeps none."""
        if self.matrix is not None:
            return self.matrix
        entries = self.factor @ self.factor.conj().T
        entries[np.diag_indices(len(entries))] += self.noise
        entries.flags.writeable = False
        return entries

    @cached_property
    def spectrum(self) -> Spectrum:
        """Eigendecomposition of the entries; `split` never reads it for a factor state."""
        return hermitian_eig(self.entries)

    @cached_property
    def split(self) -> tuple[np.ndarray, float, float, np.ndarray]:
        """(lam_R, c, b, V_R) of rho = c 1 + sum_R (lam_k - c) |v_k><v_k|: non-flat
        eigenvalues as the weights see them, the flat level of the variance and
        of the weights, the non-flat eigenvectors.  Entries slice `_spectral_split`
        of `spectrum`; a factor at every rank takes c = b = noise, lam_R = noise + mu
        and V_R = QU from Y = QR, R R^dag = U mu U^dag (< EIG_ZERO_TOL read as 0)."""
        if self.factor is None:
            evals, evecs = self.spectrum
            lam, c, flat = _spectral_split(evals)
            return lam[~flat], c, float(np.mean(lam[flat])), np.ascontiguousarray(evecs[:, ~flat])
        q, r = np.linalg.qr(self.factor)
        mu, u = hermitian_eig(r @ r.conj().T)
        lam = np.append(self.noise + np.clip(mu, 0.0, None), self.noise)
        lam[lam < EIG_ZERO_TOL] = 0.0
        return lam[:-1], self.noise, float(lam[-1]), q @ u

    @cached_property
    def generator_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (n, rows, B) of one pass of the d^2 - 1 generators (sites of one d) over
        the non-flat v_k of `split`: n_k = sum_a ||G_a v_k||^2, rows <v_k|G_a|v_k>, the r x r
        B = sum_a |V_R^dag G_a V_R|^2; a group's image holds <= min(D^2, GROUP_ENTRIES) entries."""
        (d,), v = set(self.site_dims), self.split[-1]
        gens, r = gell_mann_basis(d), v.shape[1]
        size = max(1, min(self.dim**2, GROUP_ENTRIES) // max(v.size, 1))
        norms, rows, block = np.zeros(r), np.zeros((len(gens), r)), np.zeros((r, r))
        for start in range(0, len(gens), size):
            gv = _apply_generators(gens[start:start + size], self.n_sites, v)
            re_im = gv.view(float).reshape(*gv.shape, 2)
            norms += np.einsum("gikc,gikc->k", re_im, re_im)
            vgv = np.matmul(v.conj().T, gv)  # <v_j|G_a|v_k>, one BLAS product per generator
            rows[start:start + size] = np.diagonal(vgv, axis1=1, axis2=2).real
            block += np.sum(np.abs(vgv) ** 2, axis=0)
            del gv, re_im, vgv  # freed before the next group's image is built
        for terms in (norms, rows, block):
            terms.flags.writeable = False  # every later read shares them
        return norms, rows, block

    @property
    def dim(self) -> int:
        return math.prod(self.site_dims)

    @property
    def n_sites(self) -> int:
        return len(self.site_dims)


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns


def _spectral_split(evals: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """(lam, c, flat): ascending eigenvalues as the weights see them, and the
    largest window `flat` (a mask) of spread below EIG_ZERO_TOL, mean level c:
    rho = c 1 + sum_{k not flat} (lam_k - c) |v_k><v_k|, flat pairs weigh 0."""
    lam = np.clip(evals, 0.0, None)
    lam[lam < EIG_ZERO_TOL] = 0.0
    sizes = np.searchsorted(lam, lam + EIG_ZERO_TOL) - np.arange(lam.size)
    start = int(np.argmax(sizes))
    flat = np.zeros(lam.size, dtype=bool)
    flat[start:start + sizes[start]] = True
    return lam, float(np.mean(evals[flat])), flat


def _apply_generators(gens: np.ndarray, n: int, v: np.ndarray) -> np.ndarray:
    """(g_a^(1) + ... + g_a^(n)) v for stacked generators gens (g, d, d) on the
    columns of v (D, cols): a (g, D, cols) array, one GEMM per site with its axis in
    front, added as a transposed view into the contiguous image (a strided target is slower)."""
    g, d = gens.shape[:2]
    rows = gens.reshape(g * d, d)
    out = (rows @ v.reshape(d, v.size // d)).reshape((g,) + v.shape)  # site 0
    for i in range(1, n):
        rest = v.size // d ** (i + 1)
        front = v.reshape(d**i, d, rest).transpose(1, 0, 2).reshape(d, d**i * rest)
        site = out.reshape(g, d**i, d, rest)
        site += (rows @ front).reshape(g, d, d**i, rest).transpose(0, 2, 1, 3)
    return out


def hermitian_eig(h: np.ndarray) -> Spectrum:
    """Eigendecomposition of a complex Hermitian matrix (ascending order)."""
    h = check_hermitian(h)
    evals, evecs = np.linalg.eigh(h)
    return Spectrum(evals, evecs)


def embed_site(x: np.ndarray, site: int, site_dims: Sequence[int]) -> np.ndarray:
    """Embed a single-site operator as 1 x ... x X_site x ... x 1 (for the
    dense oracle `collective_operator`; the benchmark tracer names it)."""
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
