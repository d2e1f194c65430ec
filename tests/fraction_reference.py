"""The Fraction reference for the Weyl layer: reflections in exact
rational coordinates, letter by letter, as the textbook formula writes
them.  The package reflects integer lattice images instead; tests compare
it against these."""

from minrep.rootsys import Weight, pair_coroot, vscale, vsub


def reflect(v, alpha):
    """Reflection of v in the hyperplane orthogonal to alpha."""
    return vsub(v, vscale(pair_coroot(v, alpha), alpha))


def apply_word(w, lam: Weight) -> Weight:
    """w(lam) for a WeylWord: each letter reflects its factor's block,
    rightmost letter first."""
    blocks = list(lam.factors)
    for f, v in reversed(w.letters):
        blocks[f] = reflect(blocks[f], v)
    return Weight(tuple(blocks), lam.center)
