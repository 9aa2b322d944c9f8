"""Operator monotone functions, skew information, variance, and the
collective-observable left-hand sides of the detection inequalities.

Two evaluation paths exist for the criteria: a dense path that applies
each effect site by site to the eigenvectors of one cached
eigendecomposition (feasible up to total dimension ~2500; the dense
collective operators remain only as test oracles), and an exact fast path
for isotropic mixtures p |psi><psi| + (1-p)/D, whose two-level spectrum
reduces the spectral sum to pure-state moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    EIG_ZERO_TOL,
    check_hermitian,
    embed_site,
    kron,
)

DENSE_DIM_LIMIT = 2500
VARIANCE = "variance"


class DenseSizeError(ValueError):
    """Raised when a dense collective operator would exceed the size limit."""


@dataclass(frozen=True)
class MonotoneFunctionSpec:
    """An operator monotone function: 'qfi' is (1+x)/2, 'wyd' the
    omega-parameterized Wigner-Yanase-Dyson family."""

    family: str = "qfi"
    omega: float = 0.5

    def __post_init__(self):
        if self.family not in ("qfi", "wyd"):
            raise ValueError(f"unknown monotone function family {self.family!r}")
        if self.family == "wyd" and not 0 < self.omega < 1:
            raise ValueError(f"omega must be in (0,1), got {self.omega}")

    @property
    def label(self) -> str:
        if self.family == "qfi":
            return "qfi"
        return f"wyd:{self.omega:g}"


QFI = MonotoneFunctionSpec("qfi")
WYD_HALF = MonotoneFunctionSpec("wyd", 0.5)


def f_eval(spec: MonotoneFunctionSpec, x: float) -> float:
    """Evaluate the monotone function at x >= 0 (limit value at x=1)."""
    if x < 0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if spec.family == "qfi":
        return (1.0 + x) / 2.0
    w = spec.omega
    if abs(x - 1.0) < 1e-9:
        return 1.0
    if x == 0.0:
        return w * (1 - w)
    return w * (1 - w) * (x - 1) ** 2 / ((x**w - 1) * (x ** (1 - w) - 1))


def f_zero(spec: MonotoneFunctionSpec) -> float:
    return f_eval(spec, 0.0)


def _weight_matrix(rows: np.ndarray, cols: np.ndarray,
                   spec: MonotoneFunctionSpec) -> np.ndarray:
    """Skew weights f(0)/2 (a-b)^2 / (b f(a/b)) for every pair of nonnegative
    eigenvalues a in `rows`, b in `cols`, with the analytic limit at b=0.

    Both families reduce to closed forms regular at b=0: QFI gives
    (a-b)^2/(2(a+b)) and WYD gives (a^w - b^w)(a^(1-w) - b^(1-w)) / 2 (both
    with limit a/2); f(0) = w(1-w) cancels, so no omega in (0,1) overflows.
    """
    a = rows[:, None]
    b = cols[None, :]
    if spec.family == "qfi":
        denom = a + b
        with np.errstate(divide="ignore", invalid="ignore"):
            weights = np.where(denom > EIG_ZERO_TOL,
                               0.5 * (a - b) ** 2 / denom, 0.0)
    else:
        w = spec.omega
        weights = 0.5 * (a**w - b**w) * (a ** (1 - w) - b ** (1 - w))
    # degenerate pairs contribute nothing analytically
    weights[np.abs(a - b) < EIG_ZERO_TOL] = 0.0
    return weights


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


def _skew_weights(lam: np.ndarray, flat: np.ndarray,
                  spec: MonotoneFunctionSpec) -> np.ndarray:
    """W with skew information sum(W * |X[~flat, :]|^2), X in the eigenbasis.
    Weights and |X_ij|^2 are symmetric, so pairs (not flat, flat) count twice."""
    weights = _weight_matrix(lam[~flat], lam, spec)
    weights[:, flat] *= 2.0
    return weights


def skew_information(rho: DensityMatrix, x: np.ndarray,
                     spec: MonotoneFunctionSpec) -> float:
    """Metric-adjusted skew information of observable x in state rho."""
    x = check_hermitian(x)
    if x.shape[0] != rho.dim:
        raise ValueError(f"observable dimension {x.shape[0]} != {rho.dim}")
    evals, evecs = rho.spectrum
    weights = _skew_weights(_spectral_split(evals)[0], np.zeros(rho.dim, bool), spec)
    return float(np.sum(weights * np.abs(evecs.conj().T @ x @ evecs) ** 2))


def variance(rho: DensityMatrix, x: np.ndarray) -> float:
    """Tr(rho x^2) - [Tr(rho x)]^2."""
    x = check_hermitian(x)
    if x.shape[0] != rho.dim:
        raise ValueError(f"observable dimension {x.shape[0]} != {rho.dim}")
    mean = np.trace(rho.entries @ x).real
    second = np.trace(rho.entries @ x @ x).real
    return float(second - mean**2)


@dataclass(frozen=True)
class CollectiveMoments:
    """Pure-state and trace moments of a collective observable
    A_1 + ... + A_n built from one single-site effect."""

    mean: float           # <psi| A |psi>
    second_moment: float  # <psi| A^2 |psi>
    trace_op: float       # Tr A / D, normalized so large n cannot overflow
    trace_op_sq: float    # Tr A^2 / D

    @property
    def pure_variance(self) -> float:
        return self.second_moment - self.mean**2


def collective_moments_from_rdms(rho1: DensityMatrix, rho2: DensityMatrix,
                                 a: np.ndarray, n: int) -> CollectiveMoments:
    """Moments of the collective operator from 1- and 2-party reduced states.

    Valid for states whose 1- and 2-party reduced density matrices are
    site-independent (permutation invariance up to sign).
    """
    a = check_hermitian(a)
    d = a.shape[0]
    if rho1.dim != d:
        raise ValueError("1-party reduced state dimension mismatch")
    if n > 1 and rho2.dim != d * d:
        raise ValueError("2-party reduced state dimension mismatch")
    mean = n * np.trace(a @ rho1.entries).real
    second = n * np.trace(a @ a @ rho1.entries).real
    if n > 1:
        second += n * (n - 1) * np.trace(kron(a, a) @ rho2.entries).real
    return CollectiveMoments(float(mean), float(second), *_collective_traces(a, n))


def _collective_traces(a: np.ndarray, n: int) -> tuple[float, float]:
    """Tr A / D and Tr A^2 / D of A = A_1 + ... + A_n from single-site
    traces over d: the D-normalized moments need no d**n."""
    d = a.shape[0]
    tr_a = np.trace(a).real / d
    tr_a2 = np.trace(a @ a).real / d
    return float(n * tr_a), float(n * tr_a2 + n * (n - 1) * tr_a**2)


def _apply_collective(a: np.ndarray, n: int, vecs: np.ndarray) -> np.ndarray:
    """(A_1 + ... + A_n) @ vecs (a vector or columns), one broadcast matmul
    per site: O(n d D cols) work and no D x D operator."""
    d = a.shape[0]
    return sum((a @ vecs.reshape(d**i, d, vecs.size // d ** (i + 1))).reshape(vecs.shape)
               for i in range(n))


def collective_operator(a: np.ndarray, n: int) -> np.ndarray:
    """Dense A_1 + ... + A_n on n identical sites."""
    a = check_hermitian(a)
    d = a.shape[0]
    if d**n > DENSE_DIM_LIMIT:
        raise DenseSizeError(
            f"dense dimension {d**n} exceeds limit {DENSE_DIM_LIMIT}; "
            "use the isotropic fast path"
        )
    dims = [d] * n
    return sum(embed_site(a, i, dims) for i in range(n))


def criterion_lhs_dense(rho: DensityMatrix, m, quantity) -> float:
    """Sum over all effects of the chosen quantity (a MonotoneFunctionSpec
    or VARIANCE) for the collective operators A = A_1 + ... + A_n.  With the
    state's cached rho = c 1 + sum_R (lam_k - c) |v_k><v_k| (_spectral_split),
    A acts site by site on v_k, k in R, only: the skew sum takes the rows
    (A V_R)^dagger V, the variance Tr rho A^j = c Tr A^j + sum_R (lam_k - c)
    <v_k|A^j|v_k>, j = 1, 2."""
    dims = set(rho.site_dims)
    if dims != {m.d}:
        raise ValueError(f"site dimensions {rho.site_dims} incompatible with d={m.d}")
    n = rho.n_sites
    if rho.dim > DENSE_DIM_LIMIT:
        raise DenseSizeError(
            f"dense dimension {rho.dim} exceeds limit {DENSE_DIM_LIMIT}"
        )
    evals, evecs = rho.spectrum
    lam, c, flat = _spectral_split(evals)
    v_rest = np.ascontiguousarray(evecs[:, ~flat])
    total = 0.0
    if quantity == VARIANCE:
        shift = evals[~flat] - c
        for a in m.iter_effects():
            av = _apply_collective(a, n, v_rest)
            tr_a, tr_a2 = _collective_traces(a, n)
            mean = c * rho.dim * tr_a + shift @ np.sum(v_rest.conj() * av, axis=0).real
            second = c * rho.dim * tr_a2 + shift @ np.sum(np.abs(av) ** 2, axis=0)
            total += float(second - mean**2)
        return total
    weights = _skew_weights(lam, flat, quantity)
    for a in m.iter_effects():
        x_rest = _apply_collective(a, n, v_rest).conj().T @ evecs
        total += float(np.sum(weights * np.abs(x_rest) ** 2))
    return total


def criterion_lhs_isotropic(moments: list[CollectiveMoments], p: float,
                            d: int, n: int, quantity) -> float:
    """Exact LHS for rho(p) = p |psi><psi| + (1-p)/D using the two-level
    spectrum {p + (1-p)/D, (1-p)/D (x D-1)}."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if quantity == VARIANCE:
        total = 0.0
        for mom in moments:
            second = p * mom.second_moment + (1 - p) * mom.trace_op_sq
            mean = p * mom.mean + (1 - p) * mom.trace_op
            total += second - mean**2
        return total
    levels = np.array([p, 0.0]) + (1 - p) * float(d) ** -n
    weights = _weight_matrix(levels, levels, quantity)
    factor = weights[0, 1] + weights[1, 0]
    return factor * sum(mom.pure_variance for mom in moments)
