"""Benchmark state families, and pure states read from a file.

Each family is a pure state |psi> given by its two generator moments
(s1, s2), which is all the criteria need of it under white noise,
rho(p) = p |psi><psi| + (1-p)/D.  The built-in ones are closed forms,
certified against the partial-trace oracle in the test suite: a symmetric
state has Tr(rho2 SWAP) = 1, so GHZ has s1 = 0 and s2 = N(d - 1/d) +
N(N-1)(1 - 1/d), and the antisymmetric state has s1 = s2 = 0.  A state
file holds any other pure state; it loads as a rank-1 factor state, which
the dense path evaluates at any D.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .infoquant import CollectiveMoments
from .linalg import DENSE_DIM_LIMIT, DenseSizeError, DensityMatrix
from .povm import json_floats


@dataclass(frozen=True)
class IsotropicFamily:
    """A closed-form pure state given by its generator moments."""

    kind: str  # "ghz" | "antisym"
    d: int
    n: int
    moments: CollectiveMoments


def ghz_qudit(d: int, n: int) -> IsotropicFamily:
    """(|0...0> + ... + |d-1...d-1>) / sqrt(d) on n sites."""
    if d < 2 or n < 2:
        raise ValueError(f"need d >= 2 and n >= 2, got d={d}, n={n}")
    # s2 in integers with one true division: correctly rounded at any n
    s2 = (n * (d * d - 1) + n * (n - 1) * (d - 1)) / d
    return IsotropicFamily("ghz", d, n, CollectiveMoments(0.0, s2))


def antisymmetric_state(n: int) -> IsotropicFamily:
    """The totally antisymmetric n-qudit state with local dimension d = n."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return IsotropicFamily("antisym", n, n, CollectiveMoments(0.0, 0.0))


def load_state_file(path) -> DensityMatrix:
    """Load a pure state from the JSON file format {"site_dims": [...],
    "amplitudes": [[re, im], ...]} (row-major) as a rank-1 factor state:
    JSON integers, one site dimension, JSON numbers and a unit norm, else
    ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("a state file must hold a JSON object")
    missing = [key for key in ("site_dims", "amplitudes") if key not in doc]
    if missing:
        raise ValueError(f"state file lacks {', '.join(map(repr, missing))}")
    dims = doc["site_dims"]
    if not isinstance(dims, list) or any(type(x) is not int for x in dims):
        raise ValueError(f"'site_dims' must be a list of JSON integers, not {dims!r}")
    if len(set(dims)) != 1:
        raise ValueError(f"site dimensions must be uniform, got {tuple(dims)}")
    vec = json_floats(doc["amplitudes"], "amplitudes").view(complex).ravel()
    if vec.size != math.prod(dims):
        raise ValueError(f"{vec.size} amplitudes for total dimension {math.prod(dims)}")
    norm = np.linalg.norm(vec)
    if not abs(norm - 1.0) <= 1e-10:
        raise ValueError(f"state vector norm is {norm}, expected 1")
    # weight 1/||psi||^2: unit trace for every norm within 1e-10 of 1
    return DensityMatrix.from_factor(dims, vec[:, None], [norm**-2])


def state_vector(family: IsotropicFamily) -> np.ndarray:
    """Dense state vector of at most DENSE_DIM_LIMIT^2 entries, the entry
    budget of a state given by entries; refused before it is allocated."""
    d, n = family.d, family.n
    if d**n > DENSE_DIM_LIMIT**2:
        raise DenseSizeError(f"state vector of {d**n} entries exceeds {DENSE_DIM_LIMIT**2}")
    if family.kind == "ghz":
        vec = np.zeros(d**n, dtype=complex)
        vec[::(d**n - 1) // (d - 1)] = 1 / np.sqrt(d)  # |i...i> at i (d^n - 1)/(d - 1)
        return vec
    # antisymmetric: sum over permutations with parity signs
    vec = np.zeros(d**n, dtype=complex)
    for perm in permutations(range(n)):
        sign = (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        vec[np.ravel_multi_index(perm, (d,) * n)] = sign / np.sqrt(math.factorial(n))
    return vec


def materialize_dense(family: IsotropicFamily, p: float) -> DensityMatrix:
    """rho(p) = p |psi><psi| + (1-p)/D as a rank-1 factor state.  The tool
    does not call it: the dense tests and the benchmark's `dense-mixed` use it."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    vec = state_vector(family)
    return DensityMatrix.from_factor((family.d,) * family.n, vec[:, None], [p],
                                     (1 - p) / vec.size)


def effect_moments(family: IsotropicFamily) -> CollectiveMoments:
    """Generator moments (s1, s2) of this family's |psi>."""
    return family.moments
