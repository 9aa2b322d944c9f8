"""Operator monotone functions, skew information, variance, and the
collective-observable left-hand sides of the detection inequalities.

Two evaluation paths exist for the criteria: a dense path that
materializes the collective operators (feasible up to total dimension
~2500) and an exact fast path for isotropic mixtures
p |psi><psi| + (1-p)/D, whose two-level spectrum reduces the spectral
sum to pure-state moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    EIG_ZERO_TOL,
    check_hermitian,
    embed_site,
    hermitian_eig,
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


def _weight_matrix(lam: np.ndarray, spec: MonotoneFunctionSpec) -> np.ndarray:
    """Spectral weights (a-b)^2 / (b f(a/b)) for every pair of the
    nonnegative eigenvalues `lam`, with the analytic limit at b=0.

    Both families reduce to closed forms regular at b=0: QFI gives
    2(a-b)^2/(a+b) (limit 2a) and WYD gives
    (a^w - b^w)(a^(1-w) - b^(1-w)) / (w(1-w)) (limit a/(w(1-w))).
    """
    a = lam[:, None]
    b = lam[None, :]
    if spec.family == "qfi":
        denom = a + b
        with np.errstate(divide="ignore", invalid="ignore"):
            weights = np.where(denom > EIG_ZERO_TOL,
                               2.0 * (a - b) ** 2 / denom, 0.0)
    else:
        w = spec.omega
        weights = (a**w - b**w) * (a ** (1 - w) - b ** (1 - w)) / (w * (1 - w))
    # degenerate pairs contribute nothing analytically
    weights[np.abs(a - b) < EIG_ZERO_TOL] = 0.0
    return weights


def _skew_from_spectrum(evals: np.ndarray, x_eig: np.ndarray,
                        spec: MonotoneFunctionSpec) -> float:
    """Skew information from eigenvalues and X in the eigenbasis."""
    lam = np.clip(evals, 0.0, None)
    lam[lam < EIG_ZERO_TOL] = 0.0
    weights = _weight_matrix(lam, spec)
    total = float(np.sum(weights * np.abs(x_eig) ** 2))
    return 0.5 * f_zero(spec) * total


def skew_information(rho: DensityMatrix, x: np.ndarray,
                     spec: MonotoneFunctionSpec) -> float:
    """Metric-adjusted skew information of observable x in state rho."""
    x = check_hermitian(x)
    if x.shape[0] != rho.dim:
        raise ValueError(f"observable dimension {x.shape[0]} != {rho.dim}")
    evals, evecs = hermitian_eig(rho.entries)
    x_eig = evecs.conj().T @ x @ evecs
    return _skew_from_spectrum(evals, x_eig, spec)


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
    # single-site traces over d: the D-normalized moments need no d**n
    tr_a = np.trace(a).real / d
    tr_a2 = np.trace(a @ a).real / d
    trace_op = n * tr_a
    trace_op_sq = n * tr_a2 + n * (n - 1) * tr_a**2
    return CollectiveMoments(float(mean), float(second),
                             float(trace_op), float(trace_op_sq))


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
    """Sum over all effects of the chosen quantity on dense collective
    operators.  `quantity` is a MonotoneFunctionSpec or VARIANCE."""
    dims = set(rho.site_dims)
    if dims != {m.d}:
        raise ValueError(f"site dimensions {rho.site_dims} incompatible with d={m.d}")
    n = rho.n_sites
    if rho.dim > DENSE_DIM_LIMIT:
        raise DenseSizeError(
            f"dense dimension {rho.dim} exceeds limit {DENSE_DIM_LIMIT}"
        )
    if quantity == VARIANCE:
        total = 0.0
        for a in m.iter_effects():
            total += variance(rho, collective_operator(a, n))
        return total
    evals, evecs = hermitian_eig(rho.entries)
    total = 0.0
    for a in m.iter_effects():
        big = collective_operator(a, n)
        x_eig = evecs.conj().T @ big @ evecs
        total += _skew_from_spectrum(evals, x_eig, quantity)
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
    lam0 = (1 - p) * float(d) ** -n
    weights = _weight_matrix(np.array([p + lam0, lam0]), quantity)
    factor = 0.5 * f_zero(quantity) * (weights[0, 1] + weights[1, 0])
    return factor * sum(mom.pure_variance for mom in moments)
