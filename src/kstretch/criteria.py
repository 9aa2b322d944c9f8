"""Detection verdicts, noise thresholds, and the operator-bound checks
underlying the two k-nonstretchability inequalities.

A state is reported k-nonstretchable when the skew-information sum
exceeds its upper bound or the variance sum falls below its lower bound
(strict 1e-9 margin, so rounding noise never produces a verdict).
Satisfying both inequalities is always "inconclusive".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .infoquant import (
    VARIANCE,
    CollectiveMoments,
    MonotoneFunctionSpec,
    collective_operator,
    criterion_lhs_dense,
    criterion_lhs_isotropic,
)
from .linalg import DensityMatrix
from .partitions import BoundInputs, bound_i, bound_v, enumerate_kstretch
from .povm import SymmetricMeasurement
from .states import IsotropicFamily, effect_moments

VERDICT_MARGIN = 1e-9

Quantity = Union[MonotoneFunctionSpec, str]


class NonMonotoneIndicatorError(RuntimeError):
    """Raised when the set of violating p in [0,1] is not one interval [p*, 1]."""

    def __init__(self, intervals: list[tuple[float, float]]):
        self.intervals = intervals
        spans = ", ".join(f"[{lo:.12g}, {hi:.12g}]" for lo, hi in intervals)
        super().__init__(f"the inequality is violated for p in {spans}, "
                         "not on one interval ending at p = 1")


@dataclass(frozen=True)
class CriterionReport:
    """Both inequalities evaluated on one state."""

    n: int
    k: int
    d: int
    s: int
    t: int
    r: float
    f_label: str
    lhs_skew: Optional[float]
    lhs_var: float
    i_bound: float
    v_bound: float
    violated_skew: Optional[bool]
    violated_var: bool
    p: Optional[float] = None

    @property
    def verdict(self) -> str:
        if self.violated_skew or self.violated_var:
            return "k-nonstretchable"
        return "inconclusive"

    def to_json_dict(self) -> dict:
        return {
            "N": self.n, "k": self.k, "d": self.d, "s": self.s, "t": self.t,
            "r": self.r, "f": self.f_label, "p": self.p,
            "lhs_skew": self.lhs_skew, "i_bound": self.i_bound,
            "violated_skew": self.violated_skew,
            "lhs_var": self.lhs_var, "v_bound": self.v_bound,
            "violated_var": self.violated_var, "verdict": self.verdict,
        }


def _bounds(m: SymmetricMeasurement, n: int, k: int) -> tuple[float, float]:
    inputs = BoundInputs.from_measurement(m, n, k)
    return bound_i(inputs), bound_v(inputs)


def _moments(family: IsotropicFamily, m: SymmetricMeasurement) -> CollectiveMoments:
    if family.d != m.d:
        raise ValueError(f"state dimension {family.d} != measurement dimension {m.d}")
    return effect_moments(family)


def _violates(quantity: Quantity, lhs: float, i_bd: float, v_bd: float) -> bool:
    """The verdict: the skew LHS above the skew bound, or the variance LHS
    below the variance bound, by more than VERDICT_MARGIN."""
    if quantity == VARIANCE:
        return bool(lhs < v_bd - VERDICT_MARGIN)
    return bool(lhs > i_bd + VERDICT_MARGIN)


def _reports(m: SymmetricMeasurement, n: int, k: int, cases,
             lhs: Callable[[Quantity, Optional[float]], float]) -> list[CriterionReport]:
    """One report per (f_spec, p) in `cases`; lhs(quantity, p) is the LHS."""
    i_bd, v_bd = (float(b) for b in _bounds(m, n, k))
    reports = []
    for f_spec, p in cases:
        lhs_var = lhs(VARIANCE, p)
        lhs_skew = lhs(f_spec, p) if f_spec is not None else None
        reports.append(CriterionReport(
            n=n, k=k, d=m.d, s=m.s, t=m.t, r=m.r,
            f_label=f_spec.label if f_spec is not None else VARIANCE,
            lhs_skew=lhs_skew, lhs_var=lhs_var, i_bound=i_bd, v_bound=v_bd,
            violated_skew=(_violates(f_spec, lhs_skew, i_bd, v_bd)
                           if lhs_skew is not None else None),
            violated_var=_violates(VARIANCE, lhs_var, i_bd, v_bd), p=p))
    return reports


def evaluate(state: Union[DensityMatrix, IsotropicFamily],
             m: SymmetricMeasurement,
             f_spec: Optional[MonotoneFunctionSpec],
             k: int,
             p: Optional[float] = None) -> CriterionReport:
    """Evaluate both inequalities; f_spec=None skips the skew criterion.

    `state` is a dense DensityMatrix, which takes no p, or an
    IsotropicFamily together with a mixing weight p (the exact fast path).
    """
    if isinstance(state, IsotropicFamily):
        if p is None:
            raise ValueError("isotropic evaluation requires a mixing weight p")
        return evaluate_sweep(state, m, k, [(f_spec, p)])[0]
    if p is not None:
        raise ValueError("a dense state takes no mixing weight p; mix it into the state")
    return _reports(m, state.n_sites, k, [(f_spec, p)],
                    lambda quantity, _: criterion_lhs_dense(state, m, quantity))[0]


def evaluate_sweep(family: IsotropicFamily, m: SymmetricMeasurement, k: int,
                   cases: Sequence[tuple[Optional[MonotoneFunctionSpec], float]]
                   ) -> list[CriterionReport]:
    """Both inequalities on p |psi><psi| + (1-p)/D for each (f_spec, p) in
    `cases`, in order; generator moments and bounds are computed once, and
    the variance LHS, which does not depend on f, once per distinct p."""
    n, d, beta = family.n, family.d, m.beta
    moments = _moments(family, m)
    # 0.0 and -0.0 share a cache entry; at p = +-0 each LHS is the same float
    return _reports(m, n, k, cases, functools.cache(
        lambda quantity, p: criterion_lhs_isotropic(moments, beta, p, d, n, quantity)))


def threshold_p(family: IsotropicFamily, m: SymmetricMeasurement,
                quantity: Quantity, k: int) -> Optional[float]:
    """The noise threshold: the least float p in [0,1] at which `evaluate`
    reports the chosen inequality violated, found by bisecting that verdict.

    quantity selects the criterion: a MonotoneFunctionSpec runs the
    skew-information inequality, VARIANCE the variance inequality.
    Returns None when no p in [0,1] is violated, and 0.0 when every p is.
    Raises NonMonotoneIndicatorError, with the violation intervals (each
    inner endpoint the first float past the switch), when the violating p do
    not form one interval [p*, 1].
    """
    n, d = family.n, family.d
    moments = _moments(family, m)
    i_bd, v_bd = (float(b) for b in _bounds(m, n, k))
    beta = float(m.beta)

    def violated(p: float) -> bool:
        lhs = criterion_lhs_isotropic(moments, beta, p, d, n, quantity)
        return _violates(quantity, lhs, i_bd, v_bd)

    if quantity != VARIANCE:  # the skew LHS rises with p
        if not violated(1.0):
            return None
        return 0.0 if violated(0.0) else _first(violated, 0.0, 1.0)
    # the variance LHS is concave in p: it rises to its peak at top, then falls
    slope = moments.s2 - (d * d - 1) * n / d
    top = (min(max(slope / (2.0 * moments.s1), 0.0), 1.0) if moments.s1
           else float(slope > 0.0))
    if violated(top):
        return 0.0
    r1 = _first(lambda p: not violated(p), 0.0, top) if violated(0.0) else None
    r2 = _first(violated, top, 1.0) if violated(1.0) else None
    if r1 is not None:
        raise NonMonotoneIndicatorError(
            [(0.0, r1)] + ([(r2, 1.0)] if r2 is not None else []))
    return r2


def _first(holds: Callable[[float], bool], lo: float, hi: float) -> float:
    """The least float in (lo, hi] at which `holds` is true, for a `holds`
    false at lo, true at hi and switching once: bisect in floats until the
    midpoint is an endpoint."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


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
    if psi.purity() < 1 - 1e-10:
        raise ValueError(f"state is not pure (purity {psi.purity()})")
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


def random_kstretchable_density(rng: np.random.Generator, d: int, n: int,
                                k: int, max_mixture: int = 3) -> DensityMatrix:
    """Random k-stretchable state: a convex mixture of pure states, each a
    product of Haar-random block states over a random admissible partition."""
    admissible = enumerate_kstretch(n, k)
    if not admissible:
        raise ValueError(f"no {k}-stretchable partition of {n} exists")
    n_pure = int(rng.integers(1, max_mixture + 1))
    weights = rng.dirichlet(np.ones(n_pure))
    dim_total = d**n
    rho = np.zeros((dim_total, dim_total), dtype=complex)
    for w in weights:
        parts = admissible[rng.integers(len(admissible))]
        vec = np.ones(1, dtype=complex)
        for size in parts:
            block = rng.normal(size=d**size) + 1j * rng.normal(size=d**size)
            block /= np.linalg.norm(block)
            vec = np.kron(vec, block)
        rho += w * np.outer(vec, vec.conj())
    return DensityMatrix((d,) * n, rho)
