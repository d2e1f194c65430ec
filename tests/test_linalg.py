"""Exact linear algebra: the multi-target solver against one-target solves
and against an independent rank oracle."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from minrep.linalg import solve_combination

small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def rank(vectors) -> int:
    """Rank of a list of equal-length vectors, by plain row reduction."""
    rows = [list(v) for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def combination(coeffs, columns, n):
    return tuple(sum((x * col[i] for x, col in zip(coeffs, columns)), Q(0))
                 for i in range(n))


@st.composite
def systems(draw):
    """Columns (dependent ones included) and targets in and out of their span."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, 4))
    vector = st.lists(small, min_size=n, max_size=n).map(tuple)
    columns = draw(st.lists(vector, min_size=k, max_size=k))
    if k >= 2 and draw(st.booleans()):
        coeffs = draw(st.lists(small, min_size=k - 1, max_size=k - 1))
        columns[-1] = combination(coeffs, columns[:-1], n)
    targets = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            coeffs = draw(st.lists(small, min_size=k, max_size=k))
            targets.append(combination(coeffs, columns, n))
        else:
            targets.append(draw(vector))
    return columns, targets


@given(systems())
@settings(max_examples=100, deadline=None)
def test_multi_target_solve_agrees_with_one_target_solves(case):
    columns, targets = case
    if rank(columns) < len(columns):
        with pytest.raises(ValueError, match="dependent"):
            solve_combination(columns, targets)
        for t in targets:
            with pytest.raises(ValueError, match="dependent"):
                solve_combination(columns, [t])
        return
    batch = solve_combination(columns, targets)
    assert batch == [solve_combination(columns, [t])[0] for t in targets]
    for t, xs in zip(targets, batch):
        if xs is None:
            assert rank(columns + [t]) > len(columns)
        else:
            assert combination(xs, columns, len(t)) == t


def test_solve_examples():
    cols = [(Q(1), Q(1), Q(0)), (Q(1), Q(-1), Q(0))]
    assert solve_combination(cols, [(Q(2), Q(0), Q(0)), (Q(0), Q(0), Q(1)),
                                    (Q(1), Q(0), Q(0))]) == [
        (Q(1), Q(1)), None, (Q(1, 2), Q(1, 2))]
    assert solve_combination(cols, []) == []
    assert solve_combination([], [(Q(0), Q(0)), (Q(1), Q(0))]) == [(), None]
    with pytest.raises(ValueError, match="dependent"):
        solve_combination(cols + [(Q(2), Q(0), Q(0))], [(Q(1), Q(0), Q(0))])
