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
    MonotoneFunctionSpec,
    criterion_lhs_dense,
    criterion_lhs_isotropic,
    is_skew,
)
from .linalg import DensityMatrix
from .partitions import BoundInputs, bound_i, bound_v, enumerate_kstretch
from .povm import SymmetricMeasurement
from .states import IsotropicFamily, effect_moments

VERDICT_MARGIN = 1e-9

Quantity = Union[MonotoneFunctionSpec, str]
State = Union[DensityMatrix, IsotropicFamily]

# the fields of a criteria row in output order: a sweep's shared fields
# (N, k, d, s, t, r and both bounds) and, in between, the cells of each row
ROW_KEYS = ("N", "k", "d", "s", "t", "r", "f", "p", "lhs_skew", "i_bound", "violated_skew",
            "lhs_var", "v_bound", "violated_var")
_ATTRIBUTE = {"N": "n", "f": "f_label"}  # the CriterionReport field of a row key


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
        fields = {key: getattr(self, _ATTRIBUTE.get(key, key)) for key in ROW_KEYS}
        return {**fields, "verdict": self.verdict}


def verdict_of(violated_skew: Optional[bool], violated_var: bool) -> str:
    return "k-nonstretchable" if violated_skew or violated_var else "inconclusive"


def _bounds(m: SymmetricMeasurement, n: int, k: int) -> tuple[float, float]:
    inputs = BoundInputs.from_measurement(m, n, k)
    return float(bound_i(inputs)), float(bound_v(inputs))


def _violations(i_bd: float, v_bd: float) -> tuple[Callable[[float], bool], ...]:
    """The verdicts on a skew LHS, above i_bd, and a variance LHS, below v_bd, past VERDICT_MARGIN."""
    return (lambda lhs, cut=i_bd + VERDICT_MARGIN: bool(lhs > cut),
            lambda lhs, cut=v_bd - VERDICT_MARGIN: bool(lhs < cut))


def _state_lhs(state: State, m: SymmetricMeasurement) -> tuple[int, Callable]:
    """(n, lhs): the site count of `state` and lhs(quantity)(p), the LHS of
    p state + (1-p) 1/D.  An IsotropicFamily reads its moments once, a
    DensityMatrix its cached generator pass, after `criterion_lhs_dense` checks m.d."""
    if isinstance(state, IsotropicFamily):
        if state.d != m.d:
            raise ValueError(f"state dimension {state.d} != measurement dimension {m.d}")
        moments, beta, d, n = effect_moments(state), m.beta, state.d, state.n
        return n, lambda q: lambda p: criterion_lhs_isotropic(moments, beta, p, d, n, q)
    return state.n_sites, lambda q: lambda p: criterion_lhs_dense(state, m, q, p)


def sweep_rows(state: State, m: SymmetricMeasurement, k: int, quantities: Sequence[Quantity],
               p_values: Sequence[Optional[float]]) -> tuple[dict, list[tuple]]:
    """Both inequalities on p state + (1-p) 1/D at each p of `p_values` (None: p = 1) for
    each quantity (a MonotoneFunctionSpec or VARIANCE): the fields all rows share, keyed as
    in ROW_KEYS, and per (p, quantity), p-major, the row (f label, p as given, lhs_skew,
    violated_skew, lhs_var, violated_var), one variance LHS per p; VARIANCE has no skew cells."""
    skews = [is_skew(quantity) for quantity in quantities]
    n, lhs = _state_lhs(state, m)
    i_bd, v_bd = _bounds(m, n, k)
    shared = dict(N=n, k=k, d=m.d, s=m.s, t=m.t, r=m.r, i_bound=i_bd, v_bound=v_bd)
    skew_violated, var_violated = _violations(i_bd, v_bd)
    columns = [(quantity.label, lhs(quantity)) if skew else (VARIANCE, None)
               for quantity, skew in zip(quantities, skews)]
    lhs_var_at = lhs(VARIANCE)
    rows = []
    for p in p_values:
        at = 1.0 if p is None else p
        lhs_var = lhs_var_at(at)
        var_cells = (lhs_var, var_violated(lhs_var))
        for label, lhs_skew_at in columns:
            if lhs_skew_at is None:
                rows.append((label, p, None, None, *var_cells))
            else:
                lhs_skew = lhs_skew_at(at)
                rows.append((label, p, lhs_skew, skew_violated(lhs_skew), *var_cells))
    return shared, rows


def evaluate(state: State, m: SymmetricMeasurement, f_spec: Optional[Quantity], k: int,
             p: Optional[float] = None) -> CriterionReport:
    """Evaluate both inequalities on p state + (1-p) 1/D, p = None the state itself;
    f_spec = None or VARIANCE skips the skew criterion."""
    quantity = VARIANCE if f_spec is None else f_spec
    shared, [(f, p, skew, vs, var, vv)] = sweep_rows(state, m, k, [quantity], [p])
    n, k, d, s, t, r, i_bd, v_bd = shared.values()
    return CriterionReport(n, k, d, s, t, r, f, skew, var, i_bd, v_bd, vs, vv, p)


def threshold_p(family: State, m: SymmetricMeasurement,
                quantity: Quantity, k: int) -> Optional[float]:
    """The noise threshold of a state read as p rho + (1-p)/D: the least float p in
    [0,1] at which `evaluate` reports the chosen inequality violated, or None if
    p = 1 is not; quantity is a MonotoneFunctionSpec (skew inequality) or VARIANCE.

    One bisection on [0, 1] finds it, for any rho.  At p = 0 the state is 1/D,
    which no verdict calls k-nonstretchable: its skew LHS is 0 < bound_i, and
    its variance LHS beta (d^2-1) N/d exceeds bound_v = beta[(d+1)N - 2M], at
    most beta (d-1) N, by beta N (1-1/d) or more.  The skew sum S is convex in
    the state and 0 at p = 0, so S(p) <= (p/p') S(p') for p < p': it never falls.
    Each Tr rho(p) G_a is affine in p, so the variance sum is a concave quadratic.
    Either way the violating p are one interval [p*, 1]."""
    skew = is_skew(quantity)
    n, lhs = _state_lhs(family, m)
    violates, lhs_at = _violations(*_bounds(m, n, k))[0 if skew else 1], lhs(quantity)

    def violated(p: float) -> bool:
        return violates(lhs_at(p))

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
