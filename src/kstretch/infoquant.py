"""Operator monotone functions and the collective-observable left-hand
sides of the detection inequalities.

Every (s,t)-POVM is a conical 2-design, sum_uv A (x) A = alpha 1 + beta SWAP,
so each left-hand side is beta times the same sum over the d^2 - 1
collective Gell-Mann generators G_a.  Both paths read a state under white
noise, p rho + (1-p)/D: a dense path that reweights the one generator pass
a state caches (`DensityMatrix.generator_terms`: all G_a applied site by
site to the non-flat eigenvectors of its split, the flat level read only
through their norms; the dense collective operators are test oracles), and an
exact isotropic path for p |psi><psi| + (1-p)/D that needs only the
generator moments of |psi>.  The skew information and variance of
a single observable, the dense forms these sums check against, are test
oracles."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import DENSE_DIM_LIMIT, EIG_ZERO_TOL, DenseSizeError, DensityMatrix, \
    check_hermitian, embed_site

VARIANCE = "variance"


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

    @cached_property  # in the instance __dict__, which eq, hash and repr never read
    def label(self) -> str:
        if self.family == "qfi":
            return "qfi"
        return f"wyd:{self.omega:g}"


QFI = MonotoneFunctionSpec("qfi")
WYD_HALF = MonotoneFunctionSpec("wyd", 0.5)


def is_skew(quantity) -> bool:
    """True for a MonotoneFunctionSpec, False for VARIANCE, by a type test:
    `spec == VARIANCE` would run the dataclass __eq__ and then str's."""
    if isinstance(quantity, MonotoneFunctionSpec):
        return True
    if quantity != VARIANCE:
        raise ValueError(f"unknown quantity {quantity!r}")
    return False


def _pair_weight(a, b, spec: MonotoneFunctionSpec):
    """Skew weight f(0)/2 (a-b)^2 / (b f(a/b)) of nonnegative eigenvalues a, b,
    elementwise on floats or broadcasting arrays; `_null_pair` marks the
    pairs that weigh 0 instead.

    Both families reduce to closed forms regular at b=0: QFI gives
    (a-b)^2/(2(a+b)) and WYD gives (a^w - b^w)(a^(1-w) - b^(1-w)) / 2 (both
    with limit a/2); f(0) = w(1-w) cancels, so no omega in (0,1) overflows.
    """
    if spec.family == "qfi":
        return 0.5 * (a - b) ** 2 / (a + b)
    w = spec.omega
    return 0.5 * (a**w - b**w) * (a ** (1 - w) - b ** (1 - w))


def _null_pair(a, b, spec: MonotoneFunctionSpec):
    """True where a pair weighs 0: degenerate pairs analytically, and QFI
    pairs whose denominator a + b vanishes."""
    return (abs(a - b) < EIG_ZERO_TOL) | ((spec.family == "qfi") & (a + b <= EIG_ZERO_TOL))


def _weight_matrix(rows: np.ndarray, cols: np.ndarray,
                   spec: MonotoneFunctionSpec) -> np.ndarray:
    """`_pair_weight` for every pair of eigenvalues a in `rows`, b in `cols`."""
    a = rows[:, None]
    b = cols[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = _pair_weight(a, b, spec)
    weights[_null_pair(a, b, spec)] = 0.0
    return weights


@dataclass(frozen=True)
class CollectiveMoments:
    """Moments of the collective generators G_a = g_a^(1) + ... + g_a^(n),
    g_a the d^2 - 1 orthonormal Gell-Mann operators, on a pure state |psi>."""

    s1: float  # sum_a <psi| G_a |psi>^2
    s2: float  # sum_a <psi| G_a^2 |psi>

    @property
    def pure_variance(self) -> float:
        """F_psi = sum_a Var_psi(G_a)."""
        return self.s2 - self.s1


def collective_moments_from_rdms(rho1: DensityMatrix, rho2: DensityMatrix,
                                 n: int) -> CollectiveMoments:
    """Generator moments from 1- and 2-party reduced states, through
    sum_a g_a (x) g_a = SWAP - 1/d:  s1 = n^2 (Tr rho1^2 - 1/d) and
    s2 = n (d - 1/d) + n (n-1) (Tr rho2 SWAP - 1/d).

    Valid for states whose 1- and 2-party reduced density matrices are
    site-independent (permutation invariance up to sign).  No family calls
    it: it is the partial-trace oracle for the closed-form moments of
    `kstretch.states`, kept here for the tests and the benchmark tracer.
    """
    d = rho1.dim
    # Tr rho1^2 - 1/d as ||rho1 - 1/d||^2: never negative, exactly 0 at 1/d
    s1 = n * n * float(np.sum(np.abs(rho1.entries - np.eye(d) / d) ** 2))
    s2 = n * (d - 1 / d)
    if n > 1:
        if rho2.dim != d * d:
            raise ValueError("2-party reduced state dimension mismatch")
        swap_mean = np.einsum("ijji->", rho2.entries.reshape(d, d, d, d)).real
        s2 += n * (n - 1) * (swap_mean - 1 / d)
    return CollectiveMoments(s1, float(s2))


def collective_operator(a: np.ndarray, n: int) -> np.ndarray:
    """Dense A_1 + ... + A_n on n identical sites: a test oracle, kept here
    because the benchmark tracer names it."""
    a = check_hermitian(a)
    d = a.shape[0]
    if d**n > DENSE_DIM_LIMIT:
        raise DenseSizeError(
            f"dense dimension {d**n} exceeds limit {DENSE_DIM_LIMIT}; "
            "use the isotropic fast path"
        )
    dims = [d] * n
    return sum(embed_site(a, i, dims) for i in range(n))


def criterion_lhs_dense(rho: DensityMatrix, m, quantity, p: float = 1.0) -> float:
    """Sum over all effects of the chosen quantity (a MonotoneFunctionSpec
    or VARIANCE) for the collective effects on p rho + (1-p)/D, as beta times
    the sum over the collective generators G_a (the alpha part of the design
    meets only equal eigenvalues, which weigh 0).  Of the cached split rho = c 1
    + sum_R (lam_k - c) |v_k><v_k| only the r non-flat v_k are read, through the cached
    `rho.generator_terms` that every quantity, p and m of its d share: the noise maps
    each level x to p x + (1-p)/D.  The flat part of each norm is n_k - sum_j B_jk,
    so the skew sum is sum W_RR o B + 2 sum_k w(lam_k, b) (n_k - sum_j B_jk), b the
    flat level of the weights; the variance uses Tr rho G^j = c Tr G^j +
    sum_R (lam_k - c) <v_k|G^j|v_k>, Tr G = 0, Tr G^2 = n D / d."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if set(rho.site_dims) != {m.d}:
        raise ValueError(f"site dimensions {rho.site_dims} incompatible with d={m.d}")
    skew = is_skew(quantity)
    norms, rows, block = rho.generator_terms
    lam_r, c, b, _ = rho.split
    e = (1 - p) / rho.dim
    lam_r, c, b = p * lam_r + e, p * c + e, p * b + e
    if not skew:
        shift = lam_r - c
        second = len(rows) * c * rho.dim * rho.n_sites / m.d + shift @ norms
        return m.beta * float(second - np.sum((rows @ shift) ** 2))
    w = _weight_matrix(lam_r, np.append(lam_r, b), quantity)  # W_RR, then the flat column
    return m.beta * float(np.sum(w[:, :-1] * block) + 2 * w[:, -1] @ (norms - block.sum(axis=0)))


def two_level_factor(p: float, d: int, n: int, spec: MonotoneFunctionSpec) -> float:
    """Skew weight, both orderings, of the two-level spectrum of
    p |psi><psi| + (1-p)/D, D = d^n: levels a = p + b and b = (1-p)/D, in
    plain floats.  It increases strictly with p (a rises, b falls) from 0 at
    p = 0 to 1 at p = 1; for QFI it is p^2 / (p + 2(1-p)/D)."""
    b = (1 - p) * float(d) ** -n
    a = p + b
    return 0.0 if _null_pair(a, b, spec) else 2 * _pair_weight(a, b, spec)


def variance_sum(moments: CollectiveMoments, p: float, d: int, n: int) -> float:
    """sum_a Var(G_a) on p |psi><psi| + (1-p)/D: p s2 + (1-p)(d^2-1) n/d - p^2 s1,
    a concave quadratic in p (linear when s1 = 0)."""
    return p * moments.s2 + (1 - p) * (d * d - 1) * n / d - p * p * moments.s1


def criterion_lhs_isotropic(moments: CollectiveMoments, beta: float, p: float,
                            d: int, n: int, quantity) -> float:
    """Exact LHS for rho(p) = p |psi><psi| + (1-p)/D: beta times the
    variance sum of the generators, or beta F_psi times the two-level
    skew factor."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if is_skew(quantity):
        return two_level_factor(p, d, n, quantity) * beta * moments.pure_variance
    return beta * variance_sum(moments, p, d, n)
