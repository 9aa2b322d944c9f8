"""Generalized Gell-Mann operator basis and its (u, v) grouping.

The traceless basis elements are ordered symmetric pairs first
(lexicographic (j, k)), then antisymmetric pairs, then diagonal
operators, all normalized to unit Hilbert-Schmidt norm.  Grouping into
the s x (t-1) grid is lexicographic by flat index, which fixes the
constructed measurements deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InformationalCompletenessError(ValueError):
    """Raised when s(t-1) != d^2 - 1."""


@dataclass(frozen=True)
class OperatorBasis:
    """Orthonormal traceless Hermitian operators on a d-dimensional space,
    in the order above; `group_basis` lays them out as the (u, v) grid."""

    d: int
    ops: tuple[np.ndarray, ...]


def gell_mann_basis(d: int) -> OperatorBasis:
    """The d^2 - 1 generalized Gell-Mann operators at unit HS norm."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    ops: list[np.ndarray] = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1 / np.sqrt(2)
            ops.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / np.sqrt(2)
            m[k, j] = 1j / np.sqrt(2)
            ops.append(m)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        ops.append(np.diag(diag / np.sqrt(l * (l + 1))).astype(complex))
    return OperatorBasis(d, tuple(ops))


def group_basis(basis: OperatorBasis, s: int, t: int) -> np.ndarray:
    """The traceless operators as the s x (t-1) grid of C^(uv), an
    (s, t-1, d, d) array: C^(uv) is ops[(u-1)(t-1) + (v-1)], a row-major
    reshape of the flat order."""
    d = basis.d
    if s < 1 or t < 2:
        raise InformationalCompletenessError(f"invalid family (s={s}, t={t})")
    if s * (t - 1) != d * d - 1:
        admissible = ", ".join(f"({(d * d - 1) // (k - 1)},{k})"
                               for k in range(2, d * d + 1) if (d * d - 1) % (k - 1) == 0)
        raise InformationalCompletenessError(
            f"s(t-1) = {s * (t - 1)} != d^2 - 1 = {d * d - 1} for d={d}; "
            f"admissible (s,t) for d={d}: {admissible}"
        )
    return np.array(basis.ops).reshape(s, t - 1, d, d)
