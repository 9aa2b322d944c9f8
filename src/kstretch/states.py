"""Benchmark state families and their collective generator moments.

Each family describes a pure state |psi> to be mixed with white noise,
rho(p) = p |psi><psi| + (1-p)/D.  The criteria need of |psi> only the two
generator moments (s1, s2), which each family holds (`moments`).  The
built-in ones are closed forms, certified against the partial-trace oracle
at dense-feasible sizes in the test suite: a symmetric state has
Tr(rho2 SWAP) = 1, so GHZ has s1 = 0 and s2 = N(d - 1/d) + N(N-1)(1 - 1/d),
and the antisymmetric state has s1 = s2 = 0.  Custom states apply the
generators to the state vector once, at construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import permutations
from typing import Optional

import numpy as np

from .basis import gell_mann_basis
from .infoquant import DENSE_DIM_LIMIT, CollectiveMoments, DenseSizeError, \
    _apply_generators
from .linalg import DensityMatrix
from .povm import json_floats


@dataclass(frozen=True)
class IsotropicFamily:
    """A pure state given by its generator moments, plus the amplitudes of
    a custom one."""

    kind: str  # "ghz" | "antisym" | "custom"
    d: int
    n: int
    moments: CollectiveMoments
    amplitudes: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def total_dim(self) -> int:
        return self.d**self.n

    @property
    def dense_feasible(self) -> bool:
        return self.total_dim <= DENSE_DIM_LIMIT


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


def custom_state(site_dims: list[int], amplitudes: np.ndarray) -> IsotropicFamily:
    """A user-supplied pure state; its moments come from the state vector,
    so the family is restricted to dense-feasible uniform-dimension systems."""
    if any(isinstance(x, bool) or not isinstance(x, (int, np.integer)) for x in site_dims):
        raise ValueError(f"site dimensions must be integers, got {site_dims!r}")
    dims = tuple(int(x) for x in site_dims)
    if len(set(dims)) != 1:
        raise ValueError(f"site dimensions must be uniform, got {dims}")
    d, n = dims[0], len(dims)
    vec = np.array(amplitudes, dtype=complex).ravel()
    if vec.size != int(np.prod(dims)):
        raise ValueError(
            f"{vec.size} amplitudes for total dimension {int(np.prod(dims))}"
        )
    if vec.size > DENSE_DIM_LIMIT:
        raise DenseSizeError("custom states are limited to dense-feasible sizes")
    norm = np.linalg.norm(vec)
    if not abs(norm - 1.0) <= 1e-10:
        raise ValueError(f"state vector norm is {norm}, expected 1")
    vec.flags.writeable = False  # a private copy: it stays the state the moments describe
    g_vec = _apply_generators(gell_mann_basis(d), n, vec[:, None])[..., 0]
    s1 = np.sum((g_vec @ vec.conj()).real ** 2)
    moments = CollectiveMoments(float(s1), float(np.vdot(g_vec, g_vec).real))
    return IsotropicFamily("custom", d, n, moments, amplitudes=vec)


def load_state_file(path) -> IsotropicFamily:
    """Load a pure-state vector from the JSON file format
    {"site_dims": [...], "amplitudes": [[re, im], ...]} (row-major): JSON
    integers and JSON numbers, else ValueError."""
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
    amplitudes = json_floats(doc["amplitudes"], "amplitudes").view(complex).ravel()
    return custom_state(dims, amplitudes)


def state_vector(family: IsotropicFamily) -> np.ndarray:
    """Dense state vector; requires a dense-feasible size."""
    d, n = family.d, family.n
    if not family.dense_feasible:
        raise DenseSizeError(f"dense dimension {family.total_dim} exceeds limit")
    if family.kind == "custom":
        return family.amplitudes.copy()
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
    return DensityMatrix.from_factor((family.d,) * family.n, state_vector(family)[:, None],
                                     [p], (1 - p) / family.total_dim)


def effect_moments(family: IsotropicFamily) -> CollectiveMoments:
    """Generator moments (s1, s2) of this family's |psi>."""
    return family.moments
