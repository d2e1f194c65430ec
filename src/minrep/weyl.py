"""Weyl-group machinery: reflection words, longest elements, orthogonal
subsystems, exhaustive enumeration, and the line-preserver search.

Conventions.  A word s(v1)s(v2)...s(vk) denotes the composition that applies
s(vk) first; its matrix is the product of the letter matrices in printed
order (column-vector convention).  Group elements are exact orthogonal
matrices, one block per factor of the ambient space, each held as the
integer matrix S M for S the factor's lattice scale; the center is always
fixed pointwise.

Every enumeration runs through one kernel, _survivors.  It walks the orbit
of a dominant point, held as simple-coroot labels: a simple reflection
changes only its own label and those of its Dynkin neighbours.  A reverse
search (Avis and Fukuda, 1996) walks, depth first, the tree in which each
point's parent is its reflection in its first descent, so it visits every
point exactly once with neither a visited set nor a list of states:
besides the survivors it keeps, its memory is bounded by the rank and the
longest word, not by the orbit.  A point's first descent is the letter
that made it, read off its path, and only the Dynkin neighbours after it
need a test to be a child.  On the orbit of the regular vector 2*rho the
map w -> w(2*rho) is a bijection, so that walk visits every group element.
Tracked vectors (beta, xi0) ride along as their integer labels too.

A state is one int (see _Orbit).  Label j of block t (the start block,
then each tracked one) is a k-bit field at position j*blocks + t, biased
by 2^(k-1), so the labels j of all blocks are adjacent and s_i on every
block is one multiply by Cartan row i spread over those positions.  The
width k comes from a proved bound: label j of w(v) is <v, gamma^vee> for
the coroot gamma^vee = w^-1 alpha_j^vee, whose coefficients on the simple
coroots are at most 6 in absolute value (Bourbaki, Lie Groups and Lie
Algebras, ch. VI, plates I-IX: the highest coroot of E8 has the largest),
so every label of the orbit is at most 6 sum_i |l_i| for l the labels of
v.  A test is a check on the packed state, or None for every state; each
survivor's word is its path from the root read backwards.  The
stabilizer Q of xi0 in W_beta of the default "chamber" line-preserver
strategy (of rank 0, one empty word, on the whole catalog) and the beta
stabilizer W_beta of "brute" walk 2*rho.  Both strategies return words,
and line_preservers checks each against the definition before it makes
the elements.  "brute" covers W as the words x of the orbit of beta times
W_beta, the group of the roots orthogonal to beta (Chevalley's lemma,
Humphreys, Reflection Groups and Coxeter Groups, 1.12): x v sends beta to
+-beta exactly when x does, so one compare with the packed state of -beta
on the orbit walk, confirmed on x's lattice image of beta, finds the -beta
coset.  Each candidate x is one check of the definition on the W_beta
walk: x^-1 maps J, the roots of W_beta, onto itself, so each pairing is
linear in v xi0's labels on J's simple coroots (see _nonnegative).

The layer is fraction-free inside.  A letter is an integer mirror (see
rootsys.mirror) from where it is made, the kernel or a descent; a public
WeylWord's letters are converted each time it acts.  Words act, and element
matrices are only compared.  A word acts on a vector, or on the rows of
the scaled identity to give its matrix, one way: on integer lattice images
(see _tracked_image), letter by letter; only apply divides its image back
into Fractions.  Elements stay integral: their rows are those lattice
images, and compose divides each product exactly by the scale.  What
depends only on a root system is a cached property of its RootSystem.

A longest element (w_l and w_beta,l of w0_formula, the w_l coset of
"chamber") is the word of the reflections in Kostant's
cascade (RootSystem.cascade): at most rank mutually orthogonal roots, so
at most rank letters where a reduced word has one per positive root (120
on E8).  The RootSystem certifies the cascade where it makes it: its
product sends 2 rho to -2 rho, which, 2 rho being regular, only w_l does.
Only longest_element, the reduced word `minrep weyl longest` prints,
reads RootSystem.longest_word.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction as Q
from itertools import product
from math import gcd, prod
from operator import mul

from .linalg import Matrix, integer_images, matmul
from .rootsys import (
    KSpace,
    Mirror,
    RootSystem,
    Vector,
    Weight,
    conform,
    coroot_labels,
    from_simple,
    is_zero,
    mirror,
    space_dominance,
)

# Largest group order any enumeration may visit, unless a caller (`minrep
# verify --budget`) passes another.
DEFAULT_BUDGET = 10 ** 7


class BudgetExceededError(RuntimeError):
    def __init__(self, message: str, order: int):
        super().__init__(message)
        self.order = order


# ---------------------------------------------------------------------------
# words and elements


class WeylWord(namedtuple("WeylWord", ["letters"])):
    """Reflection letters (factor index, vector) in printed order."""
    __slots__ = ()


class WeylElement(namedtuple("WeylElement", ["blocks", "scales"])):
    """One orthogonal matrix M per factor, center fixed; never applied.
    Block k is the integer matrix S M for S = scales[k], the lattice scale
    of factor k (see RootSystem.lattice_scale): its rows are the lattice
    images of the e_i.  Equality and hashing read these integers."""
    __slots__ = ()


def word(space: KSpace, letters: Iterable[tuple[int, Iterable]]) -> WeylWord:
    """Reflections only see the line, so any nonzero multiple of a root is
    a letter: s(e1-e2) is accepted on a factor whose root is (2,-2)."""
    out = []
    for factor, raw in letters:
        v = tuple(Q(c) for c in raw)
        if not 0 <= factor < len(space.factors):
            raise ValueError(f"letter factor {factor} out of range")
        if is_zero(v) or mirror(v)[0] not in space.factors[factor].lines:
            raise ValueError(f"letter vector ({','.join(map(str, v))}) is not on a root "
                             f"line of factor {factor}")
        out.append((factor, v))
    return WeylWord(tuple(out))


def as_element(space: KSpace, w: WeylWord) -> WeylElement:
    return _element(space, _by_factor(space, w))


def compose(a: WeylElement, b: WeylElement) -> WeylElement:
    """Element of 'a after b' (matrix product ab): (S A)(S B) divided by S,
    exactly, since S AB is integral too."""
    if a.scales != b.scales:
        raise ValueError(f"elements held at scales {a.scales} and {b.scales}")
    return WeylElement(tuple(_divided(matmul(x, y), s)
                             for x, y, s in zip(a.blocks, b.blocks, a.scales, strict=True)),
                       a.scales)


def apply(space: KSpace, w: WeylWord, lam: Weight) -> Weight:
    if not isinstance(w, WeylWord):
        raise TypeError(f"cannot apply {type(w).__name__}; only a WeylWord acts")
    conform(space, lam)
    blocks = []
    for rs, letters, v in zip(space.factors, _by_factor(space, w), lam.factors):
        # v's lattice image, reflected rightmost letter first, divided back once
        d, u = _tracked_image(rs, v)
        (u,) = _reflected(reversed(letters), [u])
        blocks.append(tuple([Q(c, d) for c in u]))
    return Weight(tuple(blocks), lam.center)


# ---------------------------------------------------------------------------
# acting on integers


def _reflected(letters: Iterable[Mirror],
               images: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Lattice images (see _tracked_image) reflected by each letter in turn,
    in the order given."""
    for s, ss in letters:
        images = [_reflect_int(u, s, ss) for u in images]
    return images


def _divided(m: Matrix, scale: int) -> Matrix:
    if any(c % scale for row in m for c in row):
        raise AssertionError("product left the tracked lattice")
    return tuple(tuple([c // scale for c in row]) for row in m)


def _element(space: KSpace, words: Iterable[Iterable[Mirror]]) -> WeylElement:
    """The element of one mirror word per factor."""
    return WeylElement(tuple(_matrix(rs, w) for rs, w in zip(space.factors, words, strict=True)),
                       _scales(space.factors))


def _scales(factors: Iterable[RootSystem]) -> tuple[int, ...]:
    return tuple(rs.lattice_scale for rs in factors)


def _matrix(rs: RootSystem, letters: Iterable[Mirror]) -> Matrix:
    """S times the matrix of a word over rs (letters on root lines, printed
    order), for S the lattice scale.  Row i of m s(v) is row i of m
    reflected by s(v), so the lattice images of the e_i, rows of the scaled
    identity, are reflected by each letter in turn."""
    scale = rs.lattice_scale
    n = rs.ambient
    rows = [(0,) * i + (scale,) + (0,) * (n - 1 - i) for i in range(n)]
    return tuple(_reflected(letters, rows))


# ---------------------------------------------------------------------------
# integer orbit enumeration


def _tracked_image(rs: RootSystem, v: Vector) -> tuple[int, tuple[int, ...]]:
    """(d, d v): v's integer image times the lattice scale, integral along
    its whole reflection orbit (see RootSystem.lattice_scale)."""
    scale = rs.lattice_scale
    m, (u,) = integer_images([v])
    return m * scale, tuple([c * scale for c in u])


def _reflect_int(u: tuple[int, ...], s: tuple[int, ...], ss: int) -> tuple[int, ...]:
    c, rem = divmod(2 * sum(map(mul, u, s)), ss)
    if rem:
        raise AssertionError("orbit left the tracked lattice")
    if not c:
        return u
    return tuple([a - c * b for a, b in zip(u, s)])


def _label_bound(blocks: Iterable[tuple[int, ...]]) -> int:
    """6 sum_i |l_i| over the worst block l: no label of any point of the
    block's orbit exceeds it in absolute value (see the module docstring),
    0 when there are no labels."""
    return 6 * max((sum(map(abs, b)) for b in blocks), default=0)


class _Orbit(namedtuple("_Orbit", ["rs", "rank", "blocks", "width", "root"])):
    """An orbit walk of _survivors and the layout of its packed states
    (see there): block 0 is the start, then one block per tracked vector.
    A field never leaves [1, 2^width - 1]."""
    __slots__ = ()

    def labels(self, state: int, block: int) -> tuple[int, ...]:
        k, nb = self.width, self.blocks
        field, bias = (1 << k) - 1, 1 << k - 1
        return tuple([(state >> k * (j * nb + block) & field) - bias
                      for j in range(self.rank)])


def _orbit(rs: RootSystem, tracked: tuple[tuple[int, ...], ...] = (),
           start: tuple[int, ...] | None = None) -> _Orbit:
    """The walk of the dominant point with labels `start` under W(rs),
    carrying the tracked blocks (labels on the same coroots, see
    coroot_labels); by default the regular 2*rho, one point per element."""
    if start is None:
        start = (2,) * rs.rank
    blocks = (start, *tracked)
    width = _label_bound(blocks).bit_length() + 1
    bias = 1 << width - 1
    root = sum((c + bias) << width * (j * len(blocks) + t)
               for t, b in enumerate(blocks) for j, c in enumerate(b))
    return _Orbit(rs, rs.rank, len(blocks), width, root)


def _survivors(orbit: _Orbit, tests) -> list[list[list[Mirror]]]:
    """Mirror letters (printed order) of one w per point of the orbit whose
    state passes a test, one list per test.  A test is a callable on the
    packed state (see _Orbit), or None, which every state passes.

    Label j of block t is the width-bit field at bit width * (j * blocks +
    t), biased by 2^(width - 1).  The width is _label_bound's bit length
    plus one: label j of w(v) is <v, gamma^vee> for a coroot gamma^vee,
    whose simple-coroot coefficients are at most 6 in absolute value
    (Bourbaki, Lie Groups and Lie Algebras, ch. VI, plates), so no label
    leaves its field.  s_i on all blocks at once: with step = width *
    blocks, the fields of label i of every block, shifted down by i * step
    and unbiased, are the integer g = sum_t l_(i,t) 2^(width t), and state
    - g R_i, for R_i = sum_j a_ij 2^(step j) over Cartan row i, takes
    l_(i,t) a_ij off label j of each block t.  The result is exact as an
    integer and every field stays in range, so it is the packed state of
    s_i u.

    The search is a reverse search rooted at the start: the parent of a
    point is its reflection in its first descent (the first negative label
    of block 0), so s_i u is a child of u exactly when u's label i is
    positive and no label of s_i u before i is negative.  These parents
    form one tree and each point is visited once, depth first, with no
    visited set.  A node's word is its path from the root, read backwards:
    the letters of the walk back along first descents.

    The first descent of the child s_i u is i: the reflection makes label i
    negative and the child rule keeps every earlier one nonnegative.  So a
    node reads its first descent off the head of its path (rank at the root)
    and never scans its labels.  Below it no label is negative, and
    reflecting by such an i only raises the labels of its neighbours, so
    every i there with a nonzero label (all, on a regular orbit) gives a
    child with no further test.  Past it, s_i must turn the negative label
    f nonnegative, so i is a Dynkin neighbour of f with label i positive
    (one compare of its field); only those are tried, and s_i u is kept
    when its labels f to i - 1 are nonnegative, one masked compare.
    """
    rs, rank, nb, k, root = orbit
    mirrors = rs.simple_mirrors
    step = k * nb
    bias = 1 << k - 1
    gmask = (1 << step) - 1
    gbias = sum(bias << k * t for t in range(nb))
    rows = [sum(a << step * j for j, a in row) for row in rs.cartan_rows]
    # letter i: the field of label i in block 0, that field at label 0, the
    # shift to label i's fields, and R_i
    letter = [(i, (1 << k) - 1 << step * i, bias << step * i, step * i, rows[i])
              for i in range(rank)]
    # per first descent f: the letters below f; and f's Dynkin neighbours i
    # after it, with the top bits of labels f to i - 1 (none at the root,
    # f = rank)
    free = [letter[:f] for f in range(rank + 1)]
    tested = [[letter[i] + (sum(bias << step * j for j in range(f, i)),)
               for i, _ in row if f < i]
              for f, row in enumerate(rs.cartan_rows)] + [[]]
    found: list[list[list[Mirror]]] = [[] for _ in tests]
    checked = list(zip(tests, found))
    # a path is (letter index, parent path), None at the root
    stack = [(root, None)]
    push, pop = stack.append, stack.pop
    while stack:
        state, path = pop()
        letters = None
        for check, out in checked:
            if not (check is None or check(state)):
                continue
            if letters is None:
                letters, p = [], path
                while p is not None:
                    i, p = p
                    letters.append(mirrors[i])
            out.append(letters)
        first = rank if path is None else path[0]
        for i, field, zero, shift, row in free[first]:
            if state & field != zero:
                push((state - ((state >> shift & gmask) - gbias) * row, (i, path)))
        for i, field, zero, shift, row, span in tested[first]:
            if state & field <= zero:
                continue
            child = state - ((state >> shift & gmask) - gbias) * row
            if child & span == span:
                push((child, (i, path)))
    return found


def _elements(factors: tuple[RootSystem, ...], branches) -> frozenset[WeylElement]:
    """The elements of every branch: a branch holds one list of words
    (mirror letters, printed order) per factor, and each choice of one
    word per factor is an element."""
    scales = _scales(factors)
    out: set[WeylElement] = set()
    for branch in branches:
        pools = [[_matrix(rs, w) for w in words]
                 for rs, words in zip(factors, branch, strict=True)]
        out.update(WeylElement(blocks, scales) for blocks in product(*pools))
    return frozenset(out)


def _require_within(order: int, budget: int, what: str) -> None:
    if order > budget:
        raise BudgetExceededError(
            f"Weyl group of {what} has order {order}, above the enumeration budget {budget}",
            order)


# ---------------------------------------------------------------------------
# group orders and longest elements


def type_label(rs: RootSystem) -> str:
    """The component types joined by "x", e.g. "A3xA3"; "empty" at rank 0."""
    return "x".join(rs.components) or "empty"


def space_group_order(space: KSpace) -> int:
    return prod(rs.order for rs in space.factors)


def longest_element(rs: RootSystem, factor: int = 0) -> WeylWord:
    """Reduced word for the longest element (maps rho to -rho)."""
    return WeylWord(tuple((factor, rs.simple[i]) for i in rs.longest_word))


# ---------------------------------------------------------------------------
# orthogonal subsystems


def orthogonal_subsystem(rs: RootSystem, v: Vector) -> RootSystem:
    """The roots of rs orthogonal to v (Fractions or integers), of rank 0
    when there are none; one system serves every nonzero multiple of v.

    The greedy descent (RootSystem.descend) carries v to a dominant point
    by some w, and the roots orthogonal to it are the parabolic subsystem
    of the simple roots a_j at which its label is 0 (Chevalley's lemma,
    Humphreys, Reflection Groups and Coxeter Groups, 1.12).  A descent step
    s_i is taken at a point u with <u, a_i^vee> < 0; of the positive roots
    it negates only a_i, which is not orthogonal to u.  So w keeps every
    positive root orthogonal to v positive and maps them onto the
    parabolic's positive roots, and the simple roots of the system
    orthogonal to v are the w^-1 a_j, the a_j reflected back through the
    descent letters, rightmost first."""
    v = tuple(v)
    if len(v) != rs.ambient:
        # coordinates as rootsys.conform prints them
        raise ValueError(f"vector ({','.join(map(str, v))}) has wrong length for {rs.label}")
    # one key per line: the primitive vector on it of the larger sign, or 0
    _, (u,) = integer_images([v])
    g = gcd(*u) or 1
    u = max(tuple([c // g for c in u]), tuple([-c // g for c in u]))
    sub = rs.perp.get(u)
    if sub is None:
        letters, labels = rs.descend(coroot_labels(rs, v)[1])
        simple = _reflected([rs.simple_mirrors[i] for i in reversed(letters)],
                            [a for a, lj in zip(rs.simple_images, labels) if not lj])
        sub = rs.perp[u] = from_simple(f"{rs.label}-perp", "sub", rs.ambient, rs.scale,
                                       sorted(simple))
    return sub


def space_beta_subsystems(space: KSpace, beta: Weight) -> tuple[RootSystem, ...]:
    return tuple(orthogonal_subsystem(rs, v)
                 for rs, v in zip(space.factors, beta.factors))


def longest_product(space: KSpace, subs: Iterable[RootSystem]) -> WeylElement:
    """The element w_l w_subs,l: the longest element of W after the longest
    element of each factor's subsystem group, each the element of its
    cascade word (see _longest_words)."""
    return compose(_element(space, _longest_words(space.factors)),
                   _element(space, _longest_words(subs)))


# ---------------------------------------------------------------------------
# line preservers


def _nonnegative(rs: RootSystem, ys: Iterable[tuple[int, ...]], orbit: _Orbit, block: int):
    """State check: every integer vector y of rs's root span pairs
    nonnegatively with the point p whose labels l (see coroot_labels) one
    block of the packed state holds.  On the root span (y, p) = sum_j
    (y, omega_j) <p, alpha_j^vee>, so c . l for c_j = y . m omega_j
    (RootSystem.fundamental_images) is (y, p) times one positive constant.
    Compiled once: a form keeps (shift of field j, c_j) for c_j nonzero,
    read off the biased fields l_j + bias, the bias folded into the
    constant -bias sum_j c_j."""
    k, nb = orbit.width, orbit.blocks
    field, bias = (1 << k) - 1, 1 << k - 1
    forms = [[sum(map(mul, y, w)) for w in rs.fundamental_images[1]] for y in ys]
    compiled = [([(k * (j * nb + block), cj) for j, cj in enumerate(c) if cj], -bias * sum(c))
                for c in forms]

    def check(state: int) -> bool:
        for terms, const in compiled:
            for shift, cj in terms:
                const += cj * (state >> shift & field)
            if const < 0:
                return False
        return True
    return check


def _by_factor(space: KSpace, w: WeylWord) -> list[list[Mirror]]:
    """The letters of w on each factor as mirrors, in printed order, each
    converted as it is read."""
    out: list[list[Mirror]] = [[] for _ in space.factors]
    for f, a in w.letters:
        out[f].append(mirror(a))
    return out


def _longest_words(systems: Iterable[RootSystem]) -> list[list[Mirror]]:
    """The longest element of each system's group, as a mirror word: the
    reflections in its Kostant cascade (RootSystem.cascade), at most rank
    commuting letters, which that property certifies to send 2 rho to
    -2 rho.  A reduced word has one letter per positive root; the callers
    need only the element."""
    return [list(rs.cascade) for rs in systems]


def _flipping_longest(space: KSpace, beta: Weight) -> list[list[Mirror]] | None:
    """The longest element w_l of W, one mirror word per factor, when it
    sends beta to -beta; None when it does not."""
    wl = _longest_words(space.factors)
    for rs, w, v in zip(space.factors, wl, beta.factors):
        _, u = _tracked_image(rs, v)
        if _reflected(reversed(w), [u]) != [tuple([-c for c in u])]:
            return None
    return wl


class SelfCheckError(RuntimeError):
    """A strategy's survivor word failed the line-preserver definition."""


def line_preservers(space: KSpace, beta: Weight, xi0: Weight,
                    strategy: str = "chamber",
                    budget: int = DEFAULT_BUDGET) -> frozenset[WeylElement]:
    """All w with w(beta) on the beta line (either sign) such that every
    positive root orthogonal to w(beta) pairs nonnegatively with w(xi0).

    A strategy returns survivor words only, as branches (see _elements):
    those fixing beta, then those negating it.  "chamber" writes them in
    closed form; "brute" (the orbit of beta, one word per coset of the
    stabilizer W_beta, times one walk of W_beta) enumerates them.  Each
    word is checked against this definition before it becomes an element.
    """
    conform(space, beta)
    conform(space, xi0)
    if all(is_zero(v) for v in beta.factors):
        raise ValueError("beta must be nonzero on the factors")
    dom = space_dominance(space, beta)
    if not (dom.dominant and dom.integral):
        raise ValueError("beta must be dominant integral")
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of "
                         + ", ".join(repr(s) for s in STRATEGIES))
    branches = _STRATEGIES[strategy](space, beta, xi0, budget)
    _self_checked(space, beta, xi0, branches, strategy)
    return _elements(space.factors, branches)


def _line_preservers_chamber(space, beta, xi0, budget):
    # The candidates are W_beta and, when w_l beta = -beta, the coset
    # w_l W_beta.  By Chevalley's lemma (Humphreys, Reflection Groups and
    # Coxeter Groups, 1.12) the stabilizer of the dominant beta is W_beta,
    # generated by the reflections in Delta_beta, the roots orthogonal to
    # beta.  If w(beta) = -beta, then w_l w(beta) = -w_l beta is dominant
    # and in the orbit of beta, whose only dominant point is beta: so
    # w_l beta = -beta and w_l w is in W_beta.  A u in W_beta survives when
    # u(xi0) is dominant for Delta_beta+.  Greedy descent gives one such u0
    # with xi_dom = u0(xi0); any other satisfies u(xi0) = xi_dom, so the
    # survivors are u0 Q with Q = Stab(xi0), which by the same lemma is
    # generated by the reflections in the roots of Delta_beta orthogonal to
    # xi0 (orthogonal_subsystem; of rank 0, with one empty word, when none is).
    # In the coset w_l u, u(xi0) must be antidominant for Delta_beta+, which
    # the longest element w_beta,l of W_beta turns into the plus condition:
    # the survivors are w_l w_beta,l u0 Q.
    subs = space_beta_subsystems(space, beta)
    stabilizers = [orthogonal_subsystem(sub, xi_f) for sub, xi_f in zip(subs, xi0.factors)]
    _require_within(prod(q.order for q in stabilizers), budget,
                    "the stabilizer of xi0 in W_beta")
    plus = []
    for sub, q, xi_f in zip(subs, stabilizers, xi0.factors):
        descent, _ = sub.descend(coroot_labels(sub, xi_f)[1])
        u0 = [sub.simple_mirrors[i] for i in reversed(descent)]
        plus.append([u0 + w for w in _survivors(_orbit(q), [None])[0]])
    wl = _flipping_longest(space, beta)
    if wl is None:
        return [plus]
    return [plus, [[prefix + wbl + w for w in words]
                   for prefix, wbl, words in zip(wl, _longest_words(subs), plus)]]


def _self_checked(space, beta, xi0, branches, strategy):
    """Check each factor's word of every branch on lattice images: a word
    of branch k sends the beta block to (-1)^k times itself, and the xi0
    block to a point that pairs nonnegatively with the positive roots
    orthogonal to beta.  SelfCheckError names the strategy whose survivor
    fails."""
    for sign, branch in zip((1, -1), branches):
        for rs, words, v, xi in zip(space.factors, branch, beta.factors, xi0.factors):
            # lattice images: signs of dot products survive any positive scale
            _, b = _tracked_image(rs, v)
            _, x = _tracked_image(rs, xi)
            target = tuple([sign * c for c in b])
            perp = [a for a in rs.positive_images if not sum(map(mul, a, b))]
            for w in words:
                wb, wx = _reflected(reversed(w), [b, x])
                if wb != target:
                    raise SelfCheckError(f"{strategy} survivor does not send beta to +-beta")
                if any(sum(map(mul, a, wx)) < 0 for a in perp):
                    raise SelfCheckError(f"{strategy} survivor does not keep xi0 "
                                         "dominant for the beta stabilizer")


def _flips(rs: RootSystem, v: Vector) -> list[list[Mirror]]:
    """The words x of the orbit walk of the dominant v with x(v) = -v: the
    one whose point has the labels of -v, kept when its lattice image is
    that of -v, which fails exactly when v has a part off the root span
    (W fixes that part)."""
    _, u = _tracked_image(rs, v)
    labels = coroot_labels(rs, v)[1]
    # -v's labels have the same bound, so its packed state has the same
    # width and layout
    target = _orbit(rs, (), [-c for c in labels]).root
    (found,) = _survivors(_orbit(rs, (), labels), [lambda state: state == target])
    minus = [tuple([-c for c in u])]
    return [x for x in found if _reflected(reversed(x), [u]) == minus]


def _line_preservers_brute(space, beta, xi0, budget):
    """Every w = x v of W_K: per factor, x from the orbit walk of beta, one
    word per coset x W_beta, and v from one walk of W_beta, the group of J,
    the roots orthogonal to the dominant beta (Chevalley's lemma, Humphreys,
    Reflection Groups and Coxeter Groups, 1.12).  x v (beta) = x(beta), so
    the candidates are x = 1 and the -beta coset (see _flips).  The W_beta
    walk tracks xi0 on J's simple coroots, and each candidate is one check
    of the definition: (x^-1 alpha, v xi0) = (alpha, x v xi0) >= 0 for
    every positive root alpha orthogonal to beta, where x^-1 alpha is a
    root of J, so the pairing is linear in those labels (see _nonnegative).
    A survivor's word is x's word, then v's."""
    _require_within(space_group_order(space), budget,
                    "x".join(rs.label for rs in space.factors))
    plus, minus = [], []
    for rs, beta_f, xi_f in zip(space.factors, beta.factors, xi0.factors):
        flips = _flips(rs, beta_f)
        sub = orthogonal_subsystem(rs, beta_f)
        walk = _orbit(sub, (coroot_labels(sub, xi_f)[1],))
        # the letters in printed order, first applied first, act as x^-1,
        # which maps J onto itself: (x^-1 alpha, beta) = (alpha, x beta) = 0
        tests = [_nonnegative(sub, _reflected(x, sub.positive_images), walk, 1)
                 for x in [[], *flips]]
        kept, *flipped = _survivors(walk, tests)
        plus.append(kept)
        minus.append([x + v for x, found in zip(flips, flipped) for v in found])
    return plus, minus


_STRATEGIES = {"chamber": _line_preservers_chamber, "brute": _line_preservers_brute}
STRATEGIES = tuple(_STRATEGIES)
