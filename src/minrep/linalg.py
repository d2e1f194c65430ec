"""Small exact linear algebra on integers: integer images of Fraction
vectors, one multi-target solver that answers in integers, and the integer
matrix product that composes Weyl elements (which are compared, never
applied)."""

from __future__ import annotations

from math import gcd, lcm

Matrix = tuple[tuple[int, ...], ...]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b, strict=True))
    return tuple(tuple([sum([x * y for x, y in zip(row, col, strict=True)]) for col in cols])
                 for row in a)


def integer_images(vectors) -> tuple[int, list[tuple[int, ...]]]:
    """(m, [m*v for v in vectors]) with m the lcm of every denominator: an
    exact scaling onto integer vectors, injective and compatible with sums."""
    m = lcm(*(c.denominator for v in vectors for c in v))
    return m, [tuple(c.numerator * (m // c.denominator) for c in v) for v in vectors]


def solve_combination(columns, targets) -> list[tuple[int, tuple[int, ...]] | None]:
    """Solve sum_k x_k * columns[k] = t exactly for every target t: (d, xs)
    with x_k = xs_k / d and d > 0 the lcm of their denominators (as in
    integer_images), or None when t is outside the span of the columns.

    One fraction-free Gauss-Jordan elimination on integer-scaled rows serves
    all targets: they ride along as extra augmented columns.  Columns must
    be linearly independent (ValueError otherwise).
    """
    if not columns:
        return [(1, ()) if not any(t) else None for t in targets]
    nrows = len(columns[0])
    ncols = len(columns)
    # augmented rows [col_0[i], ..., col_{k-1}[i] | t_0[i], t_1[i], ...], all
    # scaled by one integer, which leaves every solution as it is
    _, rows = integer_images([[col[i] for col in columns] + [t[i] for t in targets]
                              for i in range(nrows)])
    for c in range(ncols):
        pr = next((i for i in range(c, nrows) if rows[i][c] != 0), None)
        if pr is None:
            raise ValueError("columns are linearly dependent")
        rows[c], rows[pr] = rows[pr], rows[c]
        pivot_row = rows[c]
        pv = pivot_row[c]
        for i in range(nrows):
            f = rows[i][c]
            if i != c and f != 0:
                row = [pv * x - f * y for x, y in zip(rows[i], pivot_row)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
    # row c now reads p_c x_c = t-entry for each pivot column c
    pivots = [rows[c][c] for c in range(ncols)]
    big = lcm(*pivots)
    out = []
    for j in range(ncols, ncols + len(targets)):
        if any(rows[i][j] != 0 for i in range(ncols, nrows)):
            out.append(None)
            continue
        xs = [rows[c][j] * (big // p) for c, p in enumerate(pivots)]
        g = gcd(big, *xs)
        out.append((big // g, tuple([x // g for x in xs])))
    return out
