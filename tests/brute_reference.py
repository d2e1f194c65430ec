"""A reference for the brute line-preserver search, element by element.

Each factor's group is walked whole, one element per point of the regular
orbit of 2 rho, by kernel_reference's plain reverse search, which tracks
the labels of w(beta) and w(xi0) on the simple coroots.  An element is
kept when it meets the definition on Fraction vectors: w(beta) is beta or
-beta, and every positive root orthogonal to beta pairs nonnegatively with
w(xi0).  Both vectors are rebuilt from their labels and the part off the
root span, which W fixes, but only where the labels of w(beta) are those of
+-beta, which w(beta) = +-beta requires.  The package walks each factor's
group as the orbit of beta times its stabilizer instead; tests compare the
two."""

from fractions import Fraction as Q
from itertools import product

from minrep.rootsys import coroot_labels, dot, vadd, vscale, vsub

from fraction_reference import identity, matmul, positive_roots
from kernel_reference import reference_survivors


def _from_labels(rs, d, labels, off):
    """The vector with labels / d on the simple coroots and part `off` off
    the root span."""
    for c, omega in zip(labels, rs.fundamental):
        off = vadd(off, vscale(Q(c, d), omega))
    return off


def off_span_part(rs, v):
    """The part of v off the root span, which W fixes."""
    return _split(rs, v)[2]


def _split(rs, v):
    """(d, labels, part of v off the root span)."""
    d, labels = coroot_labels(rs, v)
    return d, labels, vsub(v, _from_labels(rs, d, labels, (Q(0),) * rs.ambient))


def factor_survivors(rs, beta, xi0):
    """The words (mirror letters, printed order) of W(rs) that send beta
    to beta and to -beta, each with xi0 kept dominant for the positive
    roots orthogonal to beta."""
    rank = rs.rank
    db, lb, beta_off = _split(rs, beta)
    dx, lx, xi_off = _split(rs, xi0)
    perp = [a for a in positive_roots(rs) if dot(a, beta) == 0]

    def keeps(sign):
        target = tuple(sign * c for c in lb)

        def test(state):
            if state[rank:2 * rank] != target:
                return False
            if _from_labels(rs, db, state[rank:2 * rank], beta_off) != vscale(sign, beta):
                return False
            w_xi = _from_labels(rs, dx, state[2 * rank:], xi_off)
            return all(dot(a, w_xi) >= 0 for a in perp)
        return test

    plus, minus = reference_survivors(rs, (lb, lx), [keeps(1), keeps(-1)])
    return plus, minus


def word_matrix(n, letters):
    """The Fraction matrix of a mirror word: the reflection matrices of its
    letters multiplied in printed order."""
    m = identity(n)
    for s, ss in letters:
        m = matmul(m, tuple(tuple((i == j) - Q(2 * s[i] * s[j], ss) for j in range(n))
                            for i in range(n)))
    return m


def reference_brute(space, beta, xi0):
    """The line preservers as a set of Fraction block tuples, one matrix
    per factor: each branch (beta to beta, beta to -beta) takes one
    surviving word from every factor."""
    pools = [factor_survivors(rs, b, x)
             for rs, b, x in zip(space.factors, beta.factors, xi0.factors)]
    out = set()
    for branch in (0, 1):
        words = [[word_matrix(rs.ambient, w) for w in pool[branch]]
                 for rs, pool in zip(space.factors, pools)]
        out.update(product(*words))
    return out
