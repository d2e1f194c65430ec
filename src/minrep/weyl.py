"""Weyl-group machinery: reflection words, longest elements, orthogonal
subsystems, exhaustive enumeration, and the line-preserver search.

Conventions.  A word s(v1)s(v2)...s(vk) denotes the composition that applies
s(vk) first; its matrix is the product of the letter matrices in printed
order (column-vector convention).  Group elements are exact rational
orthogonal matrices, one block per factor of the ambient space; the center
is always fixed pointwise.

Enumeration realizes group elements as orbit points of a strictly dominant
regular vector (2*rho): the map w -> w(2*rho) is a bijection, so a breadth
first search over the orbit visits every element exactly once while storing
only small integer vectors.  Matrices are materialized lazily, by walking an
orbit point back to the dominant chamber, one O(n^2) rank-one update per
letter.  The default line-preserver strategy enumerates only the parabolic
stabilizer of a dominant point, which is trivial on the whole catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import chain, product
from math import factorial, isqrt, lcm
from typing import Iterable, Iterator

from .linalg import Matrix, identity, matmul, matvec, solve_combination
from .rootsys import (
    KSpace,
    RootSystem,
    Vector,
    Weight,
    _component_split,
    conform,
    dot,
    is_zero,
    pair_coroot,
    reflect,
    root_system_from_roots,
    space_dominance,
    space_reflect,
    vscale,
)

DEFAULT_ENUMERATION_BUDGET = 10 ** 6


class BudgetExceededError(RuntimeError):
    def __init__(self, message: str, order: int):
        super().__init__(message)
        self.order = order


# ---------------------------------------------------------------------------
# words and elements


@dataclass(frozen=True)
class WeylWord:
    """Reflection letters (factor index, vector) in printed order."""
    letters: tuple[tuple[int, Vector], ...]

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class WeylElement:
    """One exact orthogonal matrix per factor; acts trivially on the center."""
    blocks: tuple[Matrix, ...]


def _proportional_root(rs: RootSystem, v: Vector) -> Vector:
    """The root on the line of v, or None.  Reflections only see the line,
    so letters like s(e1-e2) are accepted on a factor whose root is (2,-2)."""
    for i, c in enumerate(v):
        if c != 0:
            break
    else:
        return None
    for r in rs.roots:
        if r[i] == 0:
            continue
        scale = v[i] / r[i]
        if v == vscale(scale, r):
            return r
    return None


def word(space: KSpace, letters: Iterable[tuple[int, Iterable]]) -> WeylWord:
    out = []
    for factor, raw in letters:
        v = tuple(Q(c) for c in raw)
        if not 0 <= factor < len(space.factors):
            raise ValueError(f"letter factor {factor} out of range")
        if _proportional_root(space.factors[factor], v) is None:
            raise ValueError(f"letter vector {v} is not on a root line of factor {factor}")
        out.append((factor, v))
    return WeylWord(tuple(out))


def _times_reflection(m: Matrix, v: Vector) -> Matrix:
    """m * s(v) as the rank-one update m - (2/(v,v)) (m v) v^T: O(n^2)."""
    support = [(j, c) for j, c in enumerate(v) if c]
    scale = 2 / sum(c * c for _, c in support)
    out = []
    for row in m:
        k = scale * sum(row[j] * c for j, c in support)
        if k:
            row = list(row)
            for j, c in support:
                row[j] -= k * c
            row = tuple(row)
        out.append(row)
    return tuple(out)


def identity_element(space: KSpace) -> WeylElement:
    return WeylElement(tuple(identity(rs.ambient) for rs in space.factors))


def as_element(space: KSpace, w: WeylWord) -> WeylElement:
    blocks = [identity(rs.ambient) for rs in space.factors]
    for factor, v in w.letters:
        blocks[factor] = _times_reflection(blocks[factor], v)
    return WeylElement(tuple(blocks))


def equal_elements(a: WeylElement, b: WeylElement) -> bool:
    return a.blocks == b.blocks


def compose(a: WeylElement, b: WeylElement) -> WeylElement:
    """Element of 'a after b' (matrix product ab)."""
    return WeylElement(tuple(matmul(x, y) for x, y in zip(a.blocks, b.blocks, strict=True)))


def inverse(a: WeylElement) -> WeylElement:
    # blocks are orthogonal, so inversion is transposition
    return WeylElement(tuple(tuple(zip(*m)) for m in a.blocks))


def apply(space: KSpace, w: WeylWord | WeylElement, lam: Weight) -> Weight:
    conform(space, lam)
    if isinstance(w, WeylWord):
        out = lam
        for factor, v in reversed(w.letters):
            out = space_reflect(space, out, factor, v)
        return out
    if isinstance(w, WeylElement):
        if len(w.blocks) != len(space.factors):
            raise ValueError("element block count does not match the space")
        return Weight(tuple(matvec(m, v) for m, v in zip(w.blocks, lam.factors)),
                      lam.center)
    raise TypeError(f"cannot apply {type(w).__name__}")


# ---------------------------------------------------------------------------
# component classification and group orders


def _component_profiles(rs: RootSystem) -> list[tuple[str, int]]:
    """(type label, Weyl order) for each irreducible component."""
    comps = _component_split(rs.simple)
    comp_of = {i: k for k, comp in enumerate(comps) for i in comp}
    # a positive root is supported on one component; its first nonzero
    # simple-root coefficient names it
    pos_norms: list[list[Q]] = [[] for _ in comps]
    for p, coeffs in zip(rs.positive, solve_combination(list(rs.simple), rs.positive)):
        first = next(i for i, c in enumerate(coeffs) if c != 0)
        pos_norms[comp_of[first]].append(dot(p, p))
    return [_classify_component(len(comp), norms)
            for comp, norms in zip(comps, pos_norms)]


def _classify_component(rank: int, positive_norms: list[Q]) -> tuple[str, int]:
    npos = len(positive_norms)
    nroots = 2 * npos
    if len(set(positive_norms)) == 1:
        if nroots == rank * (rank + 1):
            return f"A{rank}", factorial(rank + 1)
        if rank >= 4 and nroots == 2 * rank * (rank - 1):
            return f"D{rank}", 2 ** (rank - 1) * factorial(rank)
        if (rank, nroots) == (6, 72):
            return "E6", 51840
        if (rank, nroots) == (7, 126):
            return "E7", 2903040
        if (rank, nroots) == (8, 240):
            return "E8", 696729600
    else:
        if (rank, nroots) == (2, 12):
            return "G2", 12
        if (rank, nroots) == (4, 48):
            return "F4", 1152
        if nroots == 2 * rank * rank:
            shortest = sum(1 for t in positive_norms if t == min(positive_norms))
            label = "B" if shortest == rank or rank == 2 else "C"
            return f"{label}{rank}", 2 ** rank * factorial(rank)
    raise ValueError(f"unrecognized component: rank {rank}, {nroots} roots")


def group_order(rs: RootSystem) -> int:
    order = 1
    for _, n in _component_profiles(rs):
        order *= n
    return order


def space_group_order(space: KSpace) -> int:
    order = 1
    for rs in space.factors:
        order *= group_order(rs)
    return order


# ---------------------------------------------------------------------------
# integer orbit enumeration


def _int_multiple(v: Vector) -> tuple[int, ...]:
    m = lcm(*(c.denominator for c in v)) if v else 1
    return tuple(int(c * m) for c in v)


def _tracking_scale(rs: RootSystem, v: Vector) -> int:
    """Scale making v and its whole reflection orbit integral in coordinates."""
    m = lcm(*(c.denominator for c in v)) if v else 1
    for r in rs.roots:
        m = lcm(m, pair_coroot(v, r).denominator)
    return 2 * m


class _Codec:
    """Pack small integer vectors as bytes for the visited set."""

    def __init__(self, start: tuple[int, ...]):
        bound = isqrt(sum(c * c for c in start)) + 1
        self.packs = bound <= 127

    def key(self, u: tuple[int, ...]):
        if self.packs:
            return bytes(c + 128 for c in u)
        return u


def _int_reflection_table(rs: RootSystem) -> list[tuple[tuple[int, ...], int]]:
    out = []
    for a in rs.simple:
        s = _int_multiple(a)
        out.append((s, sum(c * c for c in s)))
    return out


def _reflect_int(u: tuple[int, ...], s: tuple[int, ...], ss: int) -> tuple[int, ...]:
    c, rem = divmod(2 * sum(a * b for a, b in zip(u, s)), ss)
    assert rem == 0, "orbit left the tracked lattice"
    return tuple(a - c * b for a, b in zip(u, s))


def _orbit_states(rs: RootSystem, extras: tuple[Vector, ...]):
    """BFS over w(2*rho) tracking w applied to each extra vector.

    Returns (states, start) where each state and the start are tuples whose
    first entry is the orbit point and the rest are the tracked images, all
    as integer vectors (each tracked vector carries its own fixed scale).
    """
    simples = _int_reflection_table(rs)
    u0 = _int_multiple(vscale(2, rs.rho))
    e0 = tuple(tuple(int(c * _tracking_scale(rs, v)) for c in v) for v in extras)
    start = (u0,) + e0
    codec = _Codec(u0)
    visited = {codec.key(u0)}
    states = [start]
    i = 0
    while i < len(states):
        state = states[i]
        i += 1
        for s, ss in simples:
            u = _reflect_int(state[0], s, ss)
            k = codec.key(u)
            if k in visited:
                continue
            visited.add(k)
            states.append((u,) + tuple(_reflect_int(e, s, ss) for e in state[1:]))
    return states, start


def orbit_size(rs: RootSystem, budget: int = DEFAULT_ENUMERATION_BUDGET) -> int:
    """Group order measured by direct orbit enumeration (no closed forms)."""
    _require_within(group_order(rs), budget, rs.label)
    states, _ = _orbit_states(rs, ())
    return len(states)


def _require_within(order: int, budget: int, what: str) -> None:
    if order > budget:
        raise BudgetExceededError(
            f"Weyl group of {what} has order {order}, above the enumeration "
            f"budget {budget}; raise the budget or use the reduced strategy",
            order)


def _word_from_orbit_point(rs: RootSystem, u: tuple[int, ...],
                           start: tuple[int, ...]) -> list[Vector]:
    """Letters (printed order) of the w with w(start) = u."""
    simples = _int_reflection_table(rs)
    letters: list[Vector] = []
    while u != start:
        for a, (s, ss) in zip(rs.simple, simples):
            if sum(x * y for x, y in zip(u, s)) < 0:
                letters.append(a)
                u = _reflect_int(u, s, ss)
                break
        else:
            raise AssertionError("point is not on the orbit of the start vector")
    return letters


def _matrix_from_letters(n: int, letters: list[Vector]) -> Matrix:
    m = identity(n)
    for a in letters:
        m = _times_reflection(m, a)
    return m


def _group_words(rs: RootSystem) -> Iterator[list[Vector]]:
    """Letters (printed order) of every element of W(rs), once each."""
    states, (start,) = _orbit_states(rs, ())
    for (u,) in states:
        yield _word_from_orbit_point(rs, u, start)


def enumerate_group(rs: RootSystem,
                    budget: int = DEFAULT_ENUMERATION_BUDGET) -> Iterator[WeylElement]:
    """Every element of W(rs) exactly once, as single-block elements."""
    _require_within(group_order(rs), budget, rs.label)
    for letters in _group_words(rs):
        yield WeylElement((_matrix_from_letters(rs.ambient, letters),))


# ---------------------------------------------------------------------------
# longest elements


def _descend(simple: tuple[Vector, ...], u: Vector) -> tuple[list[Vector], Vector]:
    """Greedy descent of u into the closed dominant chamber of `simple`.

    Returns the letters in the order applied and the dominant point reached,
    so the element carrying u there has the reversed letters as its word.
    """
    letters = []
    while True:
        for a in simple:
            if dot(u, a) < 0:
                letters.append(a)
                u = reflect(u, a)
                break
        else:
            return letters, u


def _greedy_letters(simple: tuple[Vector, ...], u: Vector, target: Vector) -> list[Vector]:
    letters, end = _descend(simple, u)
    if end != target:
        raise AssertionError("greedy descent stuck off the orbit")
    return letters


def longest_element(rs: RootSystem, factor: int = 0) -> WeylWord:
    """Reduced word for the longest element (maps rho to -rho)."""
    letters = _greedy_letters(rs.simple, vscale(-1, rs.rho), rs.rho)
    assert len(letters) == len(rs.positive)
    return WeylWord(tuple((factor, a) for a in letters))


def space_longest_element(space: KSpace) -> WeylWord:
    letters = []
    for f, rs in enumerate(space.factors):
        letters.extend(longest_element(rs, f).letters)
    return WeylWord(tuple(letters))


# ---------------------------------------------------------------------------
# orthogonal subsystems


@dataclass(frozen=True)
class Subsystem:
    """Roots of a factor orthogonal to a vector, with their own positivity."""
    parent: RootSystem
    factor: int
    system: RootSystem | None      # embedded root system; None when empty
    components: tuple[str, ...]
    order: int

    @property
    def roots(self) -> frozenset[Vector]:
        return self.system.roots if self.system else frozenset()

    @property
    def positive(self) -> tuple[Vector, ...]:
        return self.system.positive if self.system else ()

    @property
    def simple(self) -> tuple[Vector, ...]:
        return self.system.simple if self.system else ()


def orthogonal_subsystem(rs: RootSystem, v: Vector, factor: int = 0) -> Subsystem:
    sel = [r for r in sorted(rs.roots) if dot(r, v) == 0]
    if not sel:
        return Subsystem(rs, factor, None, (), 1)
    # rs.rho is regular for rs, hence for the subsystem; the induced positive
    # part is exactly (subsystem) intersect (positive roots of rs)
    sub = root_system_from_roots(f"{rs.label}-perp", sel, rs.rho)
    profiles = _component_profiles(sub)
    order = 1
    for _, n in profiles:
        order *= n
    return Subsystem(rs, factor, sub, tuple(lbl for lbl, _ in profiles), order)


def subgroup_longest(space: KSpace, sub: Subsystem) -> WeylWord:
    """Longest element of the subsystem group, as a word over its roots."""
    if sub.system is None:
        return WeylWord(())
    rho = sub.system.rho
    letters = _greedy_letters(sub.system.simple, vscale(-1, rho), rho)
    assert len(letters) == len(sub.system.positive)
    return WeylWord(tuple((sub.factor, a) for a in letters))


def space_beta_subsystems(space: KSpace, beta: Weight) -> tuple[Subsystem, ...]:
    return tuple(orthogonal_subsystem(rs, beta.factors[f], f)
                 for f, rs in enumerate(space.factors))


def space_subgroup_longest(space: KSpace, subs: Iterable[Subsystem]) -> WeylWord:
    letters = []
    for sub in subs:
        letters.extend(subgroup_longest(space, sub).letters)
    return WeylWord(tuple(letters))


# ---------------------------------------------------------------------------
# line preservers


def _int_positive_roots(rs: RootSystem, positive: Iterable[Vector]) -> list[tuple[int, ...]]:
    return [_int_multiple(p) for p in positive]


def _xi_condition_varying(pos_int: list[tuple[int, ...]],
                          b: tuple[int, ...], x: tuple[int, ...]) -> bool:
    # (alpha, w beta) = 0 must imply (alpha, w xi0) >= 0
    for a in pos_int:
        if sum(p * q for p, q in zip(a, b)) == 0:
            if sum(p * q for p, q in zip(a, x)) < 0:
                return False
    return True


def _brute_factor_lists(rs: RootSystem, beta_f: Vector, xi_f: Vector, budget: int):
    """Per-factor survivors of the two line-preserver branches.

    Returns (keep_plus, keep_minus): orbit points u (with the BFS start) for
    the elements sending beta_f to +beta_f resp. -beta_f that also satisfy
    the xi condition inside this factor.
    """
    _require_within(group_order(rs), budget, rs.label)
    states, start = _orbit_states(rs, (beta_f, xi_f))
    b0 = start[1]
    b0neg = tuple(-c for c in b0)
    pos_int = _int_positive_roots(rs, rs.positive)
    keep_plus, keep_minus = [], []
    for u, b, x in states:
        if b == b0 and _xi_condition_varying(pos_int, b, x):
            keep_plus.append(u)
        if b == b0neg and _xi_condition_varying(pos_int, b, x):
            keep_minus.append(u)
    return keep_plus, keep_minus, start[0]


STRATEGIES = ("chamber", "reduced", "brute")


class SelfCheckError(RuntimeError):
    """A closed-form survivor failed the line-preserver definition."""


def line_preservers(space: KSpace, beta: Weight, xi0: Weight,
                    strategy: str = "chamber",
                    budget: int = DEFAULT_ENUMERATION_BUDGET) -> frozenset[WeylElement]:
    """All w with w(beta) on the beta line (either sign) such that every
    positive root orthogonal to w(beta) pairs nonnegatively with w(xi0).

    "chamber" writes the answer down in closed form and checks each
    survivor against this definition; "reduced" (the beta stabilizer and
    its w_l coset) and "brute" (all of W) certify it by enumeration.
    """
    conform(space, beta)
    conform(space, xi0)
    if all(is_zero(v) for v in beta.factors):
        raise ValueError("beta must be nonzero on the factors")
    dom = space_dominance(space, beta)
    if not (dom.dominant and dom.integral):
        raise ValueError("beta must be dominant integral")
    if strategy == "chamber":
        return _line_preservers_chamber(space, beta, xi0, budget)
    if strategy == "brute":
        return _line_preservers_brute(space, beta, xi0, budget)
    if strategy == "reduced":
        return _line_preservers_reduced(space, beta, xi0, budget)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of "
                     + ", ".join(repr(s) for s in STRATEGIES))


def _line_preservers_chamber(space, beta, xi0, budget):
    # The candidates are those of the reduced strategy: W_beta and, when
    # w_l beta = -beta, the coset w_l W_beta.  A u in W_beta survives when
    # u(xi0) is dominant for Delta_beta+.  Greedy descent gives one such u0
    # with xi_dom = u0(xi0); any other satisfies u(xi0) = xi_dom, so the
    # survivors are P u0 with P = Stab(xi_dom), which by Chevalley's lemma
    # (Humphreys, Reflection Groups and Coxeter Groups, 1.12) is generated
    # by the reflections in the roots of Delta_beta orthogonal to xi_dom.
    # In the coset w_l u, u(xi0) must be antidominant for Delta_beta+, which
    # the longest element w_beta,l of W_beta turns into the plus condition:
    # the survivors are w_l w_beta,l P u0.
    subs = space_beta_subsystems(space, beta)
    u0: list[tuple[int, Vector]] = []
    parabolics: list[RootSystem | None] = []
    parabolic_order = 1
    for f, sub in enumerate(subs):
        descent, xi_dom = _descend(sub.simple, xi0.factors[f])
        u0.extend((f, a) for a in reversed(descent))
        # an empty W_beta (sub.system None) has the trivial parabolic
        par = orthogonal_subsystem(sub.system, xi_dom, f) if sub.system else sub
        parabolics.append(par.system)
        parabolic_order *= par.order
    _require_within(parabolic_order, budget, "the stabilizer of xi0 in W_beta")
    parabolic_words = [
        [[(f, a) for a in letters] for letters in _group_words(rs)] if rs else [[]]
        for f, rs in enumerate(parabolics)]

    plus = [tuple(chain(*p, u0)) for p in product(*parabolic_words)]
    words = [WeylWord(letters) for letters in plus]
    wl = space_longest_element(space)
    negated = tuple(vscale(-1, v) for v in beta.factors)
    if apply(space, wl, beta).factors == negated:
        flip = wl.letters + space_subgroup_longest(space, subs).letters
        words.extend(WeylWord(flip + letters) for letters in plus)
    out = frozenset(as_element(space, w) for w in words)

    for w in out:
        if apply(space, w, beta).factors not in (beta.factors, negated):
            raise SelfCheckError("chamber survivor does not send beta to +-beta")
        moved = apply(space, w, xi0)
        for sub, v in zip(subs, moved.factors):
            if any(dot(a, v) < 0 for a in sub.positive):
                raise SelfCheckError("chamber survivor does not keep xi0 "
                                     "dominant for the beta stabilizer")
    return out


def _line_preservers_brute(space, beta, xi0, budget):
    _require_within(space_group_order(space), budget,
                    "x".join(rs.label for rs in space.factors))
    per_factor = [_brute_factor_lists(rs, beta.factors[f], xi0.factors[f], budget)
                  for f, rs in enumerate(space.factors)]
    out: set[WeylElement] = set()
    for which in (0, 1):
        pools = []
        for f, rs in enumerate(space.factors):
            keep = per_factor[f][which]
            start = per_factor[f][2]
            pools.append([_matrix_from_letters(
                rs.ambient, _word_from_orbit_point(rs, u, start)) for u in keep])
        if all(pools):
            for blocks in product(*pools):
                out.add(WeylElement(tuple(blocks)))
    return frozenset(out)


def _line_preservers_reduced(space, beta, xi0, budget):
    subs = space_beta_subsystems(space, beta)
    stabilizer_order = 1
    for sub in subs:
        stabilizer_order *= sub.order
    _require_within(stabilizer_order, budget, "the beta stabilizer")

    wl = as_element(space, space_longest_element(space))
    wl_flips_beta = all(matvec(wl.blocks[f], v) == vscale(-1, v)
                        for f, v in enumerate(beta.factors))

    # Candidates are the stabilizer W_beta (sends beta to +beta) and, when
    # w_l beta = -beta, the coset w_l W_beta; nothing else can move beta
    # along its own line.  The roots tested in the xi condition are then the
    # fixed set Delta_beta+, and for the coset branch
    # (alpha, w_l u xi) >= 0 rewrites as (w_l alpha, u xi) >= 0.
    branch_plus: list[list[Matrix]] = []
    branch_minus: list[list[Matrix]] = []
    for f, rs in enumerate(space.factors):
        sub = subs[f]
        pos_int = _int_positive_roots(rs, sub.positive)
        pos_wl_int = [_int_multiple(matvec(wl.blocks[f], p)) for p in sub.positive]
        plus: list[Matrix] = []
        minus: list[Matrix] = []
        if sub.system is None:
            plus.append(identity(rs.ambient))
            if wl_flips_beta:
                minus.append(wl.blocks[f])
        else:
            states, start = _orbit_states(sub.system, (xi0.factors[f],))
            for u, x in states:
                ok_plus = all(sum(p * q for p, q in zip(a, x)) >= 0 for a in pos_int)
                ok_minus = wl_flips_beta and all(
                    sum(p * q for p, q in zip(a, x)) >= 0 for a in pos_wl_int)
                if not (ok_plus or ok_minus):
                    continue
                letters = _word_from_orbit_point(sub.system, u, start[0])
                m = _matrix_from_letters(rs.ambient, letters)
                if ok_plus:
                    plus.append(m)
                if ok_minus:
                    minus.append(matmul(wl.blocks[f], m))
        branch_plus.append(plus)
        branch_minus.append(minus)

    out: set[WeylElement] = set()
    if all(branch_plus):
        for blocks in product(*branch_plus):
            out.add(WeylElement(tuple(blocks)))
    if wl_flips_beta and all(branch_minus):
        for blocks in product(*branch_minus):
            out.add(WeylElement(tuple(blocks)))
    return frozenset(out)
