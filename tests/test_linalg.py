"""Exact linear algebra: integer images of Fraction vectors."""

from itertools import count

from hypothesis import given, settings, strategies as st

from minrep.linalg import integer_images

small = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@given(st.lists(st.lists(small, min_size=3, max_size=3), max_size=4))
@settings(max_examples=100, deadline=None)
def test_integer_images_use_the_least_integral_scale(vectors):
    m, ints = integer_images(vectors)
    assert m == next(k for k in count(1)
                     if all((k * c).denominator == 1 for v in vectors for c in v))
    assert ints == [tuple(m * c for c in v) for v in vectors]
    assert all(type(c) is int for v in ints for c in v)
