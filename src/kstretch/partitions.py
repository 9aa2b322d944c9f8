"""k-stretchable partition combinatorics and the detection bounds.

Only block-size multisets matter here: both the stretchability condition
max(parts) - len(parts) <= k and the quantity sum(parts^2) depend on
sizes alone.  The bounds use the exact maximum M(N,k), computed in O(N)
by block count, and `count_kstretch` counts the admissible partitions
from partition numbers.  Enumeration serves the `--diagrams` listing and
the random k-stretchable states; the paper's piecewise bracket for M,
which falls below the true M for some k < 0 and overshoots it for some
small N, and its audit against enumeration live with the test oracles.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator


def stretchability(parts: tuple[int, ...]) -> int:
    """max block size minus block count."""
    return max(parts) - len(parts)


def _int_partitions_desc(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _int_partitions_desc(n - first, first):
            yield (first,) + rest


def enumerate_kstretch(n: int, k: int) -> list[tuple[int, ...]]:
    """All block-size partitions of n with stretchability <= k,
    descending-lexicographic order.  Empty (with a warning) if k < 1-n."""
    if k < 1 - n:
        warnings.warn(f"no partition of {n} is {k}-stretchable", stacklevel=2)
        return []
    k_eff = min(k, n - 1)
    return [
        parts
        for parts in _int_partitions_desc(n, n)
        if stretchability(parts) <= k_eff
    ]


def _partition_numbers(n: int) -> list[int]:
    """p(0), ..., p(n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for i in range(1, n + 1):
        j, total = 1, 0
        while (pent := j * (3 * j - 1) // 2) <= i:
            sign = 1 if j % 2 else -1
            total += sign * p[i - pent]
            if pent + j <= i:
                total += sign * p[i - pent - j]
            j += 1
        p[i] = total
    return p


def count_kstretch(n: int, k: int) -> int:
    """Number of k-stretchable partitions of n, without enumerating them.

    Stretchability is Dyson's rank, so the count is the sum over ranks
    m <= k of N(m, n) = sum_{j>=1} (-1)^(j-1) [p(n - j(3j-1)/2 - j|m|)
    - p(n - j(3j+1)/2 - j|m|)], p the partition numbers: O(n^1.5) steps.
    """
    if k < 1 - n:
        return 0
    p = _partition_numbers(n)
    total = 0
    for rank in range(1 - n, min(k, n - 1) + 1):
        j = 1
        while (rest := n - j * (3 * j - 1) // 2 - j * abs(rank)) >= 0:
            total += (-1) ** (j - 1) * (p[rest] - (p[rest - j] if rest >= j else 0))
            j += 1
    return total


def max_sum_squares(n: int, k: int) -> int:
    """Exact max of sum(parts^2) over k-stretchable partitions of n.

    With L blocks the largest block holds at most b = min(L+k, n-L+1)
    sites.  Sum of squares is convex, so the best filling of L blocks is
    q = (n-L)//(b-1) blocks of size b, one block of size 1 + remainder,
    and ones elsewhere.  M is the maximum of that over L: O(n) steps.
    """
    if not (isinstance(n, numbers.Integral) and isinstance(k, numbers.Integral)):
        raise ValueError(f"N = {n!r} and k = {k!r} must be integers")
    if k < 1 - n:
        warnings.warn(f"no partition of {n} is {k}-stretchable", stacklevel=2)
        raise ValueError(f"no {k}-stretchable partition of {n} exists")
    best = n  # n singletons are always admissible here
    for blocks in range(1, n):
        cap = min(blocks + k, n - blocks + 1)
        if cap < 2:
            continue
        full, rem = divmod(n - blocks, cap - 1)
        if full + (rem > 0) > blocks:
            continue  # blocks of at most `cap` sites cannot cover n
        # the last two terms cancel when all blocks are full (rem = 0)
        best = max(best, full * cap * cap + (1 + rem) ** 2 + blocks - full - 1)
    return best


def young_diagram(parts: tuple[int, ...]) -> str:
    """ASCII Young diagram, one row of boxes per block, descending."""
    return "\n".join("■" * p for p in sorted(parts, reverse=True))


@dataclass(frozen=True)
class BoundInputs:
    """Scalar inputs of the detection bounds.  A measurement enters only
    through beta, the SWAP weight of its conical 2-design, and s/t: the
    paper's chi term equals s/t + beta (1 - 1/d) on every (s,t)-POVM."""

    n: int
    k: int
    d: int
    beta: float
    s_over_t: float

    def __post_init__(self):
        if self.k + self.n < 1:
            raise ValueError(f"k + N = {self.k + self.n} must be >= 1")
        if not (0.0 < self.beta < math.inf and 0.0 < self.s_over_t < math.inf):
            raise ValueError(f"beta = {self.beta} and s/t = {self.s_over_t} "
                             "must be finite and > 0")

    @classmethod
    def from_measurement(cls, m, n: int, k: int) -> "BoundInputs":
        return cls(n=n, k=k, d=m.d, beta=m.beta, s_over_t=m.s / m.t)

    @cached_property
    def max_squares(self) -> int:
        """M(N, k), computed on first use only."""
        return max_sum_squares(self.n, self.k)


def bound_i(inputs: BoundInputs) -> float:
    """Upper bound on the skew-information sum for k-stretchable states:
    beta [(d-1) N + (1-1/d) M] + (s/t)(M - N), and beta (d-1) N when N+k = 1."""
    n, d, beta = inputs.n, inputs.d, inputs.beta
    if n + inputs.k == 1:
        return beta * (d - 1) * n
    m_val = inputs.max_squares
    return beta * ((d - 1) * n + (1 - 1 / d) * m_val) + inputs.s_over_t * (m_val - n)


def bound_v(inputs: BoundInputs) -> float:
    """Lower bound on the variance sum for k-stretchable states:
    beta [(d+1) N - 2M], which does not depend on s/t."""
    n = inputs.n
    return inputs.beta * ((inputs.d + 1) * n - 2 * inputs.max_squares)
