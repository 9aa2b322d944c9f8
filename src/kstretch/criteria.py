"""Detection verdicts and noise thresholds of the two k-nonstretchability
inequalities, and the random k-stretchable states of the soundness checks.

A state is reported k-nonstretchable when the skew-information sum
exceeds its upper bound or the variance sum falls below its lower bound
(strict 1e-9 margin, so rounding noise never produces a verdict).
Satisfying both inequalities is always "inconclusive".
"""

from __future__ import annotations

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
    is_skew,
)
from .linalg import DensityMatrix
from .partitions import BoundInputs, bound_i, bound_v, enumerate_kstretch
from .povm import SymmetricMeasurement
from .states import IsotropicFamily, effect_moments

VERDICT_MARGIN = 1e-9

Quantity = Union[MonotoneFunctionSpec, str]
Cases = Sequence[tuple[Optional[MonotoneFunctionSpec], Optional[float]]]  # (f_spec, p) pairs


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
        return verdict_of(self.violated_skew, self.violated_var)

    def to_json_dict(self) -> dict:
        return {
            "N": self.n, "k": self.k, "d": self.d, "s": self.s, "t": self.t,
            "r": self.r, "f": self.f_label, "p": self.p,
            "lhs_skew": self.lhs_skew, "i_bound": self.i_bound,
            "violated_skew": self.violated_skew,
            "lhs_var": self.lhs_var, "v_bound": self.v_bound,
            "violated_var": self.violated_var, "verdict": self.verdict,
        }


def verdict_of(violated_skew: Optional[bool], violated_var: bool) -> str:
    return "k-nonstretchable" if violated_skew or violated_var else "inconclusive"


def _bounds(m: SymmetricMeasurement, n: int, k: int) -> tuple[float, float]:
    inputs = BoundInputs.from_measurement(m, n, k)
    return float(bound_i(inputs)), float(bound_v(inputs))


def _moments(family: IsotropicFamily, m: SymmetricMeasurement) -> CollectiveMoments:
    if family.d != m.d:
        raise ValueError(f"state dimension {family.d} != measurement dimension {m.d}")
    return effect_moments(family)


def _violations(i_bd: float, v_bd: float) -> tuple[Callable[[float], bool], ...]:
    """The verdicts on a skew LHS, above i_bd, and a variance LHS, below v_bd, past VERDICT_MARGIN."""
    return (lambda lhs, cut=i_bd + VERDICT_MARGIN: bool(lhs > cut),
            lambda lhs, cut=v_bd - VERDICT_MARGIN: bool(lhs < cut))


def _rows(m: SymmetricMeasurement, n: int, k: int, cases: Cases,
          lhs: Callable[[Quantity, Optional[float]], float]) -> tuple[dict, list[tuple]]:
    """`sweep_rows` for the LHS lhs(quantity, p) of an n-site state."""
    i_bd, v_bd = _bounds(m, n, k)
    shared = dict(N=n, k=k, d=m.d, s=m.s, t=m.t, r=m.r, i_bound=i_bd, v_bound=v_bd)
    skew_violated, var_violated = _violations(i_bd, v_bd)
    rows = []
    for f_spec, p in cases:
        lhs_var = lhs(VARIANCE, p)
        if f_spec is None:
            rows.append((VARIANCE, p, None, None, lhs_var, var_violated(lhs_var)))
        else:
            lhs_skew = lhs(f_spec, p)
            rows.append((f_spec.label, p, lhs_skew, skew_violated(lhs_skew),
                         lhs_var, var_violated(lhs_var)))
    return shared, rows


def _reports(shared: dict, rows: list[tuple]) -> list[CriterionReport]:
    n, k, d, s, t, r, i_bd, v_bd = shared.values()
    return [CriterionReport(n, k, d, s, t, r, f, skew, var, i_bd, v_bd, vs, vv, p)
            for f, p, skew, vs, var, vv in rows]


def evaluate(state: Union[DensityMatrix, IsotropicFamily], m: SymmetricMeasurement,
             f_spec: Optional[MonotoneFunctionSpec], k: int,
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
    return _reports(*_rows(m, state.n_sites, k, [(f_spec, p)],
                           lambda quantity, _: criterion_lhs_dense(state, m, quantity, terms)))[0]


def sweep_rows(family: IsotropicFamily, m: SymmetricMeasurement, k: int,
               cases: Cases) -> tuple[dict, list[tuple]]:
    """Both inequalities on p |psi><psi| + (1-p)/D for each (f_spec, p) in `cases`:
    the fields all cases share, keyed as in `to_json_dict`, and per case, in order,
    the row (f label, p, lhs_skew, violated_skew, lhs_var, violated_var)."""
    n, d, beta = family.n, family.d, m.beta
    moments = _moments(family, m)
    return _rows(m, n, k, cases,
                 lambda quantity, p: criterion_lhs_isotropic(moments, beta, p, d, n, quantity))


def evaluate_sweep(family: IsotropicFamily, m: SymmetricMeasurement, k: int,
                   cases: Cases) -> list[CriterionReport]:
    """The rows of `sweep_rows` as reports, one per case; moments and bounds are computed once."""
    return _reports(*sweep_rows(family, m, k, cases))


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
    n, d, beta = family.n, family.d, float(m.beta)
    moments = _moments(family, m)
    violates = _violations(*_bounds(m, n, k))[0 if is_skew(quantity) else 1]

    def violated(p: float) -> bool:
        return violates(criterion_lhs_isotropic(moments, beta, p, d, n, quantity))

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
