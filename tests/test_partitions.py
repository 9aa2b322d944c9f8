"""Partition enumeration, the closed-form bracket, and the bound formulas."""

import functools
import math
import re
import warnings

import numpy as np
import pytest

import oracles
from kstretch import partitions
from kstretch.partitions import (
    BoundInputs,
    bound_i,
    bound_v,
    count_kstretch,
    enumerate_kstretch,
    max_sum_squares,
    stretchability,
    young_diagram,
)
from oracles import bracket_audit, closed_form_m, paper_bound_i, paper_bound_v


def test_count_matches_enumeration():
    """The rank-generating-function count equals the enumeration for every
    N <= 20 and every k, including k < 1 - N (no partition)."""
    for n in range(1, 21):
        for k in range(-n - 1, n + 2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                expected = len(enumerate_kstretch(n, k))
            assert count_kstretch(n, k) == expected, (n, k)


def test_count_large_n():
    """p(55) = 451276 in total; counting needs no enumeration."""
    assert count_kstretch(55, 54) == 451276
    assert count_kstretch(55, 0) == 235669


def test_stretchability():
    assert stretchability((5,)) == 4
    assert stretchability((2, 1, 1, 1)) == -2
    assert stretchability((3, 3)) == 1


def test_enumerate_n4_k0():
    got = enumerate_kstretch(4, 0)
    assert got == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert max_sum_squares(4, 0) == 8


def test_enumerate_n5_km2():
    got = enumerate_kstretch(5, -2)
    assert got == [(2, 1, 1, 1), (1, 1, 1, 1, 1)]
    assert max_sum_squares(5, -2) == 7


def test_full_separability_limit():
    assert enumerate_kstretch(4, 1 - 4) == [(1, 1, 1, 1)]
    assert max_sum_squares(4, -3) == 4


def test_block_count_matches_enumeration():
    for n in range(1, 21):
        for k in range(1 - n, n + 2):
            oracle = max(sum(p * p for p in parts)
                         for parts in enumerate_kstretch(n, k))
            assert max_sum_squares(n, k) == oracle, (n, k)


def test_block_count_large_n():
    assert max_sum_squares(10**4, 1 - 10**4) == 10**4  # singletons only
    assert max_sum_squares(10**4, 10**4) == 10**8      # one block


def test_large_k_includes_everything():
    got = enumerate_kstretch(5, 10)
    assert (5,) in got and len(got) == 7  # all partitions of 5
    assert max_sum_squares(5, 10) == 25


def test_empty_below_range():
    with pytest.warns(UserWarning):
        assert enumerate_kstretch(3, -3) == []
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError):
            max_sum_squares(3, -3)


@pytest.mark.parametrize("func", [count_kstretch, enumerate_kstretch, max_sum_squares])
def test_partition_functions_reject_non_integers(func):
    """A float N or k is the same ValueError, naming both, in every function
    that takes them: count_kstretch(6, 0.5) raised a TypeError from range(),
    and enumerate_kstretch(6, 0.5) returned the partitions of k = 0.  Numpy
    integers still count."""
    for n, k in ((6, 0.5), (6.0, 0), (6, np.float64(0.0))):
        with pytest.raises(ValueError, match=re.escape(f"N = {n!r} and k = {k!r} must be integers")):
            func(n, k)
    assert func(np.int64(6), np.int32(0)) == func(6, 0)


@pytest.mark.parametrize("n,k,expected", [
    (10, 0, 34),   # the n+k=10, n>=8 exception row
    (9, 1, 33),
    (6, 1, 18),    # odd n+k branch: (49-1)/4 + 6
    (16, 0, 76),   # the n+k=16, n>=12 exception row
    (4, 0, 8),     # even generic branch: 16/4 + 2 + 2
])
def test_closed_form_values(n, k, expected):
    assert closed_form_m(n, k) == expected


def test_closed_form_edge_cases():
    assert closed_form_m(1, 0) is None  # n+k = 1 is a standalone bound
    with pytest.raises(ValueError):
        closed_form_m(2, -2)


def test_bracket_is_upper_bound_for_nonnegative_k():
    # for k < 0 the piecewise forms can undershoot (e.g. N=5, k=-3),
    # which is why the bounds use the exact block-count M
    for row in bracket_audit(12):
        if row["k"] >= 0:
            assert row["closed_form"] >= row["enumeration"], row


def test_known_disagreements():
    rows = {(r["n"], r["k"]): r["agree"] for r in bracket_audit(10)}
    assert rows[(4, 0)] is True
    assert rows[(3, 1)] is False  # enumeration 5, bracket 8
    assert rows[(10, 0)] is True


def test_young_diagram():
    assert young_diagram((1, 3, 2)) == "■■■\n■■\n■"


def test_bound_inputs_validation(m19):
    """N + k < 1 and a beta or s/t that is not finite and positive each fail
    with a ValueError; informational completeness is the measurement's check."""
    good = {"n": 3, "k": 0, "d": 3, "beta": m19.beta, "s_over_t": 1 / 9}
    assert BoundInputs(**good) == BoundInputs.from_measurement(m19, 3, 0)
    with pytest.raises(ValueError, match="k \\+ N = 0"):
        BoundInputs(**{**good, "n": 2, "k": -2})
    for field in ("beta", "s_over_t"):
        for value in (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0):
            with pytest.raises(ValueError, match="finite and > 0"):
                BoundInputs(**{**good, field: value})


def test_bounds_match_paper_forms(catalogue, monkeypatch):
    """The (beta, s/t) forms equal the paper's (r, chi, s, t) forms on all 48
    families at d = 2..9: every k for N <= 50, sampled k for N = 100, 1000
    and 10^4.  bound_i agrees to 1e-12 relative; bound_v to 1e-12 beta
    ((d+1)N + 2M) absolute, since the paper's form leaves cancellation
    residue where the bound is 0."""
    m_of = functools.cache(max_sum_squares)  # M(N, k) once, not once per family
    monkeypatch.setattr(partitions, "max_sum_squares", m_of)
    monkeypatch.setattr(oracles, "max_sum_squares", m_of)
    cases = [(n, k) for n in range(1, 51) for k in range(1 - n, n)] + [
        (n, k) for n in (100, 1000, 10**4)
        for k in (1 - n, 2 - n, 3 - n, -n // 2, -1, 0, 1, n // 2, n - 1)]
    for m in catalogue:
        for n, k in cases:
            inputs = BoundInputs.from_measurement(m, n, k)
            new_i, old_i = bound_i(inputs), paper_bound_i(m, n, k)
            assert abs(new_i - old_i) <= 1e-12 * abs(old_i), (m.d, m.s, m.t, n, k)
            scale = m.beta * ((m.d + 1) * n + 2 * m_of(n, k))
            assert abs(bound_v(inputs) - paper_bound_v(m, n, k)) <= 1e-12 * scale, \
                (m.d, m.s, m.t, n, k)


def test_bounds_match_independent_arithmetic(m19):
    """Recompute both bounds from scratch for N=4, k=0 (M=8)."""
    d, s, t, r, chi = 3, 1, 9, m19.r, m19.chi
    big_t = t * (np.sqrt(t) + 1) ** 2
    m_val = 8
    i_expect = (4 * (r**2 * big_t * (d - 1) - (d**2 - 1) / (t * (t - 1)))
                + (s / t + r**2 * big_t * (1 - 1 / d)) * m_val)
    v_expect = (r**2 * big_t * (d + 1) * 4
                + (s / t - r**2 * big_t * (1 + 1 / d)
                   - (d - 1) * (d**2 + t**2 * chi) / (d * t * (t - 1))) * m_val)
    inputs = BoundInputs.from_measurement(m19, 4, 0)
    assert bound_i(inputs) == pytest.approx(i_expect, abs=1e-12)
    assert bound_v(inputs) == pytest.approx(v_expect, abs=1e-12)


def test_bound_i_special_branch(m19):
    """n+k = 1 uses the standalone formula, not the bracket."""
    d, s, t, r, chi = 3, 1, 9, m19.r, m19.chi
    big_t = t * (np.sqrt(t) + 1) ** 2
    n = 5
    expected = n * (s / t + r**2 * big_t * (d - 1 / d)
                    - (d - 1) * (d**2 + t**2 * chi) / (d * t * (t - 1)))
    inputs = BoundInputs.from_measurement(m19, n, 1 - n)
    assert bound_i(inputs) == pytest.approx(expected, abs=1e-12)
