"""Small exact linear algebra on integers: integer images of Fraction
vectors and the integer matrix product that composes Weyl elements (which
are compared, never applied).  Nothing here eliminates: rootsys reads the
fundamental weights off root supports."""

from __future__ import annotations

from math import lcm

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
