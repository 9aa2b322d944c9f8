"""Benchmark state families and their collective generator moments.

Each family describes a pure state |psi> to be mixed with white noise,
rho(p) = p |psi><psi| + (1-p)/D.  The criteria need of |psi> only the two
generator moments (s1, s2), which each family computes once (`moments`).
For the built-in families they follow from the 1- and 2-party reduced
states, known in closed form and certified against the partial-trace
oracle at dense-feasible sizes in the test suite; custom states apply the
generators to the state vector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
from typing import Optional

import numpy as np

from .infoquant import DENSE_DIM_LIMIT, CollectiveMoments, DenseSizeError, \
    _apply_generators, _generators, collective_moments_from_rdms
from .linalg import DensityMatrix
from .povm import json_floats


@dataclass(frozen=True)
class IsotropicFamily:
    """A pure state plus the data its generator moments come from: the
    reduced states of a built-in family, or the amplitudes of a custom one."""

    kind: str  # "ghz" | "antisym" | "custom"
    d: int
    n: int
    rdm1: Optional[DensityMatrix]
    rdm2: Optional[DensityMatrix]
    amplitudes: Optional[np.ndarray] = field(default=None, repr=False)

    @cached_property
    def moments(self) -> CollectiveMoments:
        """Generator moments (s1, s2) of |psi>, computed on first use only."""
        if self.kind != "custom":
            return collective_moments_from_rdms(self.rdm1, self.rdm2, self.n)
        g_vec = _apply_generators(_generators(self.d), self.n, self.amplitudes[:, None])[..., 0]
        s1 = np.sum((g_vec @ self.amplitudes.conj()).real ** 2)
        return CollectiveMoments(float(s1), float(np.vdot(g_vec, g_vec).real))

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
    rdm2 = DensityMatrix((d, d), rdm2_entries)
    return IsotropicFamily("ghz", d, n, rdm1, rdm2)


def antisymmetric_state(n: int) -> IsotropicFamily:
    """The totally antisymmetric n-qudit state with local dimension d = n."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    d = n
    rdm1 = DensityMatrix((d,), np.eye(d) / d)
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    p_antisym = (np.eye(d * d) - swap) / 2
    rdm2 = DensityMatrix((d, d), 2 / (d * (d - 1)) * p_antisym)
    return IsotropicFamily("antisym", d, n, rdm1, rdm2)


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
    vec.flags.writeable = False  # a private copy, so the cached moments cannot go stale
    return IsotropicFamily("custom", d, n, None, None, amplitudes=vec)


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
        for i in range(d):
            idx = sum(i * d**site for site in range(n))
            vec[idx] = 1 / np.sqrt(d)
        return vec
    # antisymmetric: sum over permutations with parity signs
    vec = np.zeros(d**n, dtype=complex)
    for perm in permutations(range(n)):
        sign = (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        idx = 0
        for level in perm:
            idx = idx * d + level
        vec[idx] = sign / np.sqrt(math.factorial(n))
    return vec


def materialize_dense(family: IsotropicFamily, p: float) -> DensityMatrix:
    """rho(p) = p |psi><psi| + (1-p)/D as a rank-1 factor state."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return DensityMatrix.from_factor((family.d,) * family.n, state_vector(family)[:, None],
                                     [p], (1 - p) / family.total_dim)


def effect_moments(family: IsotropicFamily) -> CollectiveMoments:
    """Generator moments (s1, s2) of this family's |psi>."""
    return family.moments
