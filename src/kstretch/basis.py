"""Generalized Gell-Mann operator basis and its (u, v) grouping.

The traceless basis elements are ordered symmetric pairs first
(lexicographic (j, k)), then antisymmetric pairs, then diagonal
operators, all normalized to unit Hilbert-Schmidt norm.  Grouping into
the s x (t-1) grid is lexicographic by flat index, which fixes the
constructed measurements deterministically.
"""

from __future__ import annotations

from functools import cache

import numpy as np


class InformationalCompletenessError(ValueError):
    """Raised when s(t-1) != d^2 - 1."""


@cache
def gell_mann_basis(d: int) -> np.ndarray:
    """The d^2 - 1 generalized Gell-Mann operators at unit HS norm, in the
    order above, as one read-only (d^2 - 1, d, d) array built once per d."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    ops = np.zeros((d * d - 1, d, d), dtype=complex)
    for i, (j, k) in enumerate(pairs):
        ops[i, j, k] = ops[i, k, j] = 1 / np.sqrt(2)
        ops[len(pairs) + i, j, k] = -1j / np.sqrt(2)
        ops[len(pairs) + i, k, j] = 1j / np.sqrt(2)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        ops[2 * len(pairs) + l - 1] = np.diag(diag / np.sqrt(l * (l + 1)))
    ops.flags.writeable = False
    return ops


def check_family(d: int, s: int, t: int) -> None:
    """Raise InformationalCompletenessError, naming the admissible (s,t),
    unless d >= 2, s >= 1, t >= 2 and s(t-1) equals d^2 - 1."""
    if d < 2 or s < 1 or t < 2:
        raise InformationalCompletenessError(f"invalid family (d={d}, s={s}, t={t})")
    if s * (t - 1) != d * d - 1:
        admissible = ", ".join(f"({(d * d - 1) // (k - 1)},{k})"
                               for k in range(2, d * d + 1) if (d * d - 1) % (k - 1) == 0)
        raise InformationalCompletenessError(
            f"s(t-1) = {s * (t - 1)} != d^2 - 1 = {d * d - 1} for d={d}; "
            f"admissible (s,t) for d={d}: {admissible}"
        )


def group_basis(basis: np.ndarray, s: int, t: int) -> np.ndarray:
    """The traceless operators as the s x (t-1) grid of C^(uv), an
    (s, t-1, d, d) array: C^(uv) is basis[(u-1)(t-1) + (v-1)], a row-major
    reshape of the flat order."""
    d = basis.shape[-1]
    check_family(d, s, t)
    return basis.reshape(s, t - 1, d, d)
