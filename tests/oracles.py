"""Test and audit oracles: the detection bounds as the paper writes them,
in (r, chi, s, t), and the paper's piecewise bracket for M with its audit
against enumeration; the single-site effect-square identities and the
pure-state block bounds; the paper's closed-form antisymmetric variance
threshold; the skew information and variance of one observable, and the
partial trace; the dense LHS in the full eigenbasis; random k-stretchable
states summed as D x D matrices; the 1- and 2-site reduced states of the
built-in families; and a measurement file's value table by `np.unique`,
and its certification residuals from dense masks.  The program computes
the bounds from (beta, s/t) with the exact M, the dense LHS from the
non-flat eigenvectors only, random states as factors, the families'
generator moments in closed form, the value table by a lexsort and the
residuals from views; these independent forms check it, and none of them
runs in the tool.  The batched generator kernel, one d^i-batch matmul per
site, is the bit-exact oracle of the tool's one GEMM per site."""

from typing import Sequence

import numpy as np

from kstretch.basis import gell_mann_basis
from kstretch.infoquant import (
    VARIANCE,
    MonotoneFunctionSpec,
    _weight_matrix,
    collective_operator,
)
from kstretch.linalg import DensityMatrix, _spectral_split, check_hermitian
from kstretch.partitions import enumerate_kstretch, max_sum_squares
from kstretch.povm import SymmetricMeasurement, chi_of_r


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


def closed_form_m(n: int, k: int) -> int | None:
    """Piecewise bracket value for M; None when n+k = 1 (that case is a
    standalone bound formula, not a bracket)."""
    if k + n < 1:
        raise ValueError(f"k + N = {k + n} < 1 has no admissible partition")
    w = n + k
    if w == 1:
        return None
    if w % 2 == 1:
        return (w * w - 1) // 4 + n
    if w == 10 and n >= 8:
        return 34 - k
    if w == 16 and n >= 12:
        return 76 - k
    return w * w // 4 + w // 2 + 2


def bracket_audit(max_n: int = 14) -> list[dict]:
    """Compare the closed-form bracket against enumeration for every
    (N, k) with N <= max_n, N + k >= 2.  Returns one row per pair."""
    rows = []
    for n in range(2, max_n + 1):
        for k in range(2 - n, n):
            enum = max(sum(p * p for p in parts)
                       for parts in enumerate_kstretch(n, k))
            closed = closed_form_m(n, k)
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "enumeration": enum,
                    "closed_form": closed,
                    "agree": enum == closed,
                }
            )
    return rows


def square_sum_scalar(d: int, s: int, t: int, r: float) -> float:
    """Scalar c with sum over (u,v) of A^2 = c * identity (the
    conical-design residual implies it, with c = alpha + beta d)."""
    return s / t + r**2 * t * (np.sqrt(t) + 1) ** 2 * (d - 1 / d)


def verify_square_sum(m) -> float:
    """Max entrywise deviation of the effect square sum from its scalar."""
    total = sum(a @ a for a in m.iter_effects())
    target = square_sum_scalar(m.d, m.s, m.t, m.r) * np.eye(m.d)
    return float(np.max(np.abs(total - target)))


def unique_entries(m) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of m's effects as (n, 2) [re, im] rows, sorted
    by `np.unique` over their 16-byte patterns, and each entry's index into
    them: -0.0 and 0.0 apart, as the value table of a measurement file."""
    keys, index = np.unique(m.effects.view("V16").ravel(), return_inverse=True)
    return keys.view(float).reshape(-1, 2), index.ravel()


def mask_certification_residuals(m) -> dict[str, float]:
    """`certification_residuals` with the (u, v) groups and the design's
    1 (x) 1 and SWAP spelled out as dense (st)^2 and d^2 x d^2 arrays."""
    d, s, t, chi = m.d, m.s, m.t, m.chi
    effects = np.asarray(m.effects, dtype=complex).reshape(s * t, d, d)
    res: dict[str, float] = {}
    res["min_effect_eigenvalue"] = float(np.linalg.eigvalsh(effects)[:, 0].min())
    eye = np.eye(d)
    res["completeness"] = float(np.max(np.abs(
        effects.reshape(s, t, d, d).sum(axis=1) - eye)))
    res["trace"] = float(np.max(np.abs(
        np.trace(effects, axis1=1, axis2=2).real - d / t)))
    # Tr(A B) = <vec A, vec B> for Hermitian effects, ordered (u, v) row-major
    flat = effects.reshape(s * t, d * d)
    gram = (flat.conj() @ flat.T).real
    res["purity"] = float(np.max(np.abs(np.diag(gram) - chi)))
    group = np.repeat(np.arange(s), t)
    same_u = group[:, None] == group[None, :]
    off_diag = ~np.eye(s * t, dtype=bool)
    within = (d - t * chi) / (t * (t - 1))
    res["cross_outcome"] = float(np.max(np.abs(gram - within),
                                        where=same_u & off_diag, initial=0.0))
    res["cross_measurement"] = float(np.max(np.abs(gram - d / t**2),
                                            where=~same_u, initial=0.0))
    # flat.T @ flat holds sum_uv A_ik A_jl: the design sum indexed (ik),(jl),
    # where 1 (x) 1 is vec(1) vec(1)^T and SWAP is the same index swap
    alpha = s / t - m.beta / d
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    res["conical_design"] = float(np.max(np.abs(
        flat.T @ flat - alpha * np.outer(eye, eye) - m.beta * swap)))
    res["chi_consistency"] = float(abs(chi - chi_of_r(d, t, m.r)))
    return res


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


def antisym_variance_threshold(n: int, r: float) -> float:
    """Closed-form variance-criterion threshold for the antisymmetric
    family with the (1, n^2)-POVM at construction parameter r."""
    num = n**3 * (n + 1) * (n + 3) * r**2 + n + 1
    den = n**3 * (n + 1) ** 2 * (n - 1) * r**2 + n - 1
    return num / den


def block_operator_bounds(m: SymmetricMeasurement, n: int) -> dict:
    """Spectral check of the block operator inequality: every eigenvalue
    of the effect-square sum on n sites lies between the two scalar
    bounds (equal at n=1)."""
    d, beta, s_over_t = m.d, m.beta, m.s / m.t
    lower = beta * (d + 1) * n + (s_over_t - beta * (1 + 1 / d)) * n**2
    upper = beta * (d - 1) * n + (s_over_t + beta * (1 - 1 / d)) * n**2
    total = sum(
        (lambda b: b @ b)(collective_operator(a, n)) for a in m.iter_effects()
    )
    evals = np.linalg.eigvalsh(total)
    return {
        "n": n,
        "lower": float(lower),
        "upper": float(upper),
        "min_eigenvalue": float(evals[0]),
        "max_eigenvalue": float(evals[-1]),
        "ok": bool(evals[0] >= lower - 1e-9 and evals[-1] <= upper + 1e-9),
        "equality": bool(n == 1),
    }


def block_probability_bounds(m: SymmetricMeasurement,
                             psi: DensityMatrix) -> dict:
    """Check the pure-state probability square-sum bounds on an n-site block."""
    purity = np.sum(np.abs(psi.entries) ** 2)
    if purity < 1 - 1e-10:
        raise ValueError(f"state is not pure (purity {purity})")
    d, s_over_t = m.d, m.s / m.t
    n = psi.n_sites
    if set(psi.site_dims) != {d}:
        raise ValueError("site dimensions do not match the measurement")
    value = sum(
        float(np.trace(collective_operator(a, n) @ psi.entries).real) ** 2
        for a in m.iter_effects()
    )
    # (d^2-1)/(t(t-1)) = s/t, and the paper's chi term is s/t + beta (1-1/d)
    lower = s_over_t * n
    upper = (s_over_t + m.beta * (1 - 1 / d)) * n**2
    return {
        "n": n,
        "value": float(value),
        "lower": float(lower),
        "upper": float(upper),
        "ok": bool(lower - 1e-9 <= value <= upper + 1e-9),
    }


def skew_information(rho: DensityMatrix, x: np.ndarray,
                     spec: MonotoneFunctionSpec) -> float:
    """Metric-adjusted skew information of observable x in state rho."""
    x = check_hermitian(x)
    if x.shape[0] != rho.dim:
        raise ValueError(f"observable dimension {x.shape[0]} != {rho.dim}")
    evals, evecs = rho.spectrum
    lam = _spectral_split(evals)[0]
    return float(np.sum(_weight_matrix(lam, lam, spec)
                        * np.abs(evecs.conj().T @ x @ evecs) ** 2))


def variance(rho: DensityMatrix, x: np.ndarray) -> float:
    """Tr(rho x^2) - [Tr(rho x)]^2."""
    x = check_hermitian(x)
    if x.shape[0] != rho.dim:
        raise ValueError(f"observable dimension {x.shape[0]} != {rho.dim}")
    mean = np.trace(rho.entries @ x).real
    second = np.trace(rho.entries @ x @ x).real
    return float(second - mean**2)


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


def _apply_collective(a: np.ndarray, n: int, vecs: np.ndarray) -> np.ndarray:
    """(A_1 + ... + A_n) @ vecs (a vector or columns), one broadcast matmul
    per site."""
    d = a.shape[0]
    return sum((a @ vecs.reshape(d**i, d, vecs.size // d ** (i + 1))).reshape(vecs.shape)
               for i in range(n))


def batched_apply_generators(gens: np.ndarray, n: int, v: np.ndarray) -> np.ndarray:
    """(g_a^(1) + ... + g_a^(n)) v for stacked generators gens (g, d, d) on the
    columns of v (D, cols): a (g, D, cols) array, one matmul per site,
    batched over the d^i leading indices."""
    g, d = gens.shape[:2]
    rows = gens.reshape(g * d, d)
    out = np.zeros((g,) + v.shape, dtype=complex)
    for i in range(n):
        rest = v.size // d ** (i + 1)
        site = out.reshape(g, d**i, d, rest)
        site += (rows @ v.reshape(d**i, d, rest)).reshape(d**i, g, d, rest).swapaxes(0, 1)
    return out


def full_basis_lhs_dense(rho, m, quantity) -> float:
    """The dense LHS in the full eigenbasis: each generator's rows
    (G V_R)^dagger V against every eigenvector, flat ones included, with
    the pairs (not flat, flat) counted twice."""
    n = rho.n_sites
    evals, evecs = rho.spectrum
    lam, c, flat = _spectral_split(evals)
    v_rest = np.ascontiguousarray(evecs[:, ~flat])
    generators = gell_mann_basis(m.d)
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


def dense_kstretchable_entries(rng, d: int, n: int, k: int) -> np.ndarray:
    """The entries of `random_kstretchable_density` for the same generator
    state, summed as w |v><v| matrices: the same draws in the same order."""
    admissible = enumerate_kstretch(n, k)
    n_pure = int(rng.integers(1, 4))
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


def ghz_reduced_states(d: int, n: int) -> tuple[DensityMatrix, DensityMatrix]:
    """The 1- and 2-site reduced states of the d-level GHZ state on n sites."""
    rdm1 = DensityMatrix((d,), np.eye(d) / d)
    rdm2_entries = np.zeros((d * d, d * d), dtype=complex)
    if n == 2:
        # the state itself: coherences survive
        for i in range(d):
            for j in range(d):
                rdm2_entries[i * d + i, j * d + j] = 1 / d
    else:
        # tracing >= 1 site kills the cross-branch coherences
        for i in range(d):
            rdm2_entries[i * d + i, i * d + i] = 1 / d
    return rdm1, DensityMatrix((d, d), rdm2_entries)


def antisym_reduced_states(n: int) -> tuple[DensityMatrix, DensityMatrix]:
    """The 1- and 2-site reduced states of the antisymmetric state, d = n."""
    d = n
    rdm1 = DensityMatrix((d,), np.eye(d) / d)
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    p_antisym = (np.eye(d * d) - swap) / 2
    return rdm1, DensityMatrix((d, d), 2 / (d * (d - 1)) * p_antisym)


def family_reduced_states(family) -> tuple[DensityMatrix, DensityMatrix]:
    """The reduced states of a built-in GHZ or antisymmetric family."""
    if family.kind == "ghz":
        return ghz_reduced_states(family.d, family.n)
    return antisym_reduced_states(family.n)
