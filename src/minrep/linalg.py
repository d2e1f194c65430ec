"""Small exact linear algebra over Fraction vectors and matrices."""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm

Vector = tuple[Q, ...]
Matrix = tuple[tuple[Q, ...], ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n))


def matvec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum((a * b for a, b in zip(row, v, strict=True)), Q(0)) for row in m)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b, strict=True))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col, strict=True)), Q(0)) for col in cols)
        for row in a
    )


def integer_images(vectors) -> tuple[int, list[tuple[int, ...]]]:
    """(m, [m*v for v in vectors]) with m the lcm of every denominator: an
    exact scaling onto integer vectors, injective and compatible with sums."""
    m = lcm(*(c.denominator for v in vectors for c in v))
    return m, [tuple(c.numerator * (m // c.denominator) for c in v) for v in vectors]


def solve_combination(columns: list[Vector],
                      targets: list[Vector]) -> list[tuple[Q, ...] | None]:
    """Solve sum_k x_k * columns[k] = t exactly for every target t.

    One fraction-free Gauss-Jordan elimination on integer-scaled rows serves
    all targets: they ride along as extra augmented columns.  Columns must be
    linearly independent (ValueError otherwise).  The entry for a target
    outside their span is None.
    """
    if not columns:
        return [() if all(c == 0 for c in t) else None for t in targets]
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
    # row c now reads d_c x_c = t-entry for each pivot column c
    out = []
    for j in range(ncols, ncols + len(targets)):
        if any(rows[i][j] != 0 for i in range(ncols, nrows)):
            out.append(None)
        else:
            out.append(tuple(Q(rows[c][j], rows[c][c]) for c in range(ncols)))
    return out
