"""Detection verdicts and noise thresholds of the two k-nonstretchability
inequalities, and the random k-stretchable states of the soundness checks.

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
    criterion_lhs_dense,
    criterion_lhs_isotropic,
    generator_terms,
)
from .linalg import DensityMatrix
from .partitions import BoundInputs, bound_i, bound_v, enumerate_kstretch
from .povm import SymmetricMeasurement
from .states import IsotropicFamily, effect_moments

VERDICT_MARGIN = 1e-9

Quantity = Union[MonotoneFunctionSpec, str]


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
    terms = generator_terms(state, m, skew=f_spec is not None)
    return _reports(m, state.n_sites, k, [(f_spec, p)],
                    lambda quantity, _: criterion_lhs_dense(state, m, quantity, terms))[0]


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
    reports the chosen inequality violated, or None if p = 1 is not; quantity
    is a MonotoneFunctionSpec (skew inequality) or VARIANCE.

    One bisection on [0, 1] finds it.  At p = 0 the state is 1/D, which no
    verdict calls k-nonstretchable: its skew LHS is 0 < bound_i, and its
    variance LHS beta (d^2-1) N/d exceeds bound_v = beta[(d+1)N - 2M], at most
    beta (d-1) N, by beta N (1-1/d) or more.  The skew LHS rises with p and the
    variance LHS is concave, so the violating p are one interval [p*, 1].
    """
    n, d = family.n, family.d
    moments = _moments(family, m)
    i_bd, v_bd = (float(b) for b in _bounds(m, n, k))
    beta = float(m.beta)

    def violated(p: float) -> bool:
        lhs = criterion_lhs_isotropic(moments, beta, p, d, n, quantity)
        return _violates(quantity, lhs, i_bd, v_bd)

    return _first(violated) if violated(1.0) else None


def _first(holds: Callable[[float], bool]) -> float:
    """The least float in (0, 1] at which `holds` is true, for a `holds`
    false at 0 and true from one switch point up to 1: bisect in floats
    until the midpoint is an endpoint."""
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def random_kstretchable_density(rng: np.random.Generator, d: int, n: int,
                                k: int) -> DensityMatrix:
    """Random k-stretchable state: a convex mixture of one to three pure
    states, each a product of Haar-random block states over a random
    admissible partition.  The tool does not call it: the benchmark's
    `dense-mixed` workload imports it."""
    admissible = enumerate_kstretch(n, k)
    if not admissible:
        raise ValueError(f"no {k}-stretchable partition of {n} exists")
    n_pure = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(n_pure))
    vectors = []
    for _ in weights:
        parts = admissible[rng.integers(len(admissible))]
        vec = np.ones(1, dtype=complex)
        for size in parts:
            block = rng.normal(size=d**size) + 1j * rng.normal(size=d**size)
            block /= np.linalg.norm(block)
            vec = np.kron(vec, block)
        vectors.append(vec)
    return DensityMatrix.from_factor((d,) * n, np.stack(vectors, axis=1), weights)
