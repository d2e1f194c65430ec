"""Fraction references for the root-system and Weyl layers, in exact
rational coordinates, as the textbook formulas write them.  The package
builds root systems, reflects vectors, pairs them with coroots and holds
Weyl elements on integer images instead, and never applies an element
matrix; tests compare it against these, and count the calls into
fractions.py that a run makes (fraction_calls).  The package reads Weyl
group orders off the root heights; height_partition_order does so on
heights solved in Fractions, parabolic_chain_order counts them by
orbit-stabilizer on the package's kernel, and orbit_size walks the whole
group."""

import fractions
import sys
from collections import Counter
from itertools import count
from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd, lcm
from operator import add, mul

from minrep import rootsys, weyl
from minrep.linalg import integer_images
from minrep.rootsys import (
    Weight,
    conform,
    dot,
    is_zero,
    vadd,
    vscale,
    vsub,
)


# The 23 types that the per-type tests and the `minrep weyl longest`
# golden files run over.
ALL_LABELS = ["A1", "A2", "A5", "A7", "B1", "B2", "B3", "B4", "C1", "C2", "C3",
              "C4", "D2", "D3", "D4", "D6", "D8", "G2", "F4", "E6", "E7", "E8",
              "A1d"]

# Small types, whose whole Weyl groups the property tests walk.
LATTICE_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "A1d")


def vec(*coords):
    return tuple(Q(c) for c in coords)


def positive_roots(rs):
    """The positive roots of a `rootsys.RootSystem`, its images divided by
    its scale."""
    return tuple(tuple(Q(c, rs.scale) for c in p) for p in rs.positive_images)


def all_roots(rs):
    """Every root of a `rootsys.RootSystem`, both signs."""
    pos = positive_roots(rs)
    return frozenset(pos) | frozenset(vscale(-1, p) for p in pos)


def pair_coroot(lam, alpha):
    """<lam, alpha^vee> = 2 (lam, alpha) / (alpha, alpha)."""
    if is_zero(alpha):
        raise ValueError("pairing against the zero vector")
    return 2 * dot(lam, alpha) / dot(alpha, alpha)


def fraction_calls(run):
    """The names of the functions of fractions.py called while run() runs."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def bilinear(space, a: Weight, b: Weight):
    """Block-diagonal coordinate form: factor dots plus the center dot."""
    conform(space, a)
    conform(space, b)
    total = dot(a.center, b.center)
    for u, v in zip(a.factors, b.factors):
        total += dot(u, v)
    return total


def identity(n):
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n))


def matmul(a, b):
    cols = tuple(zip(*b, strict=True))
    return tuple(tuple(sum((x * y for x, y in zip(row, col, strict=True)), Q(0))
                       for col in cols) for row in a)


def matvec(m, v):
    return tuple(sum((a * b for a, b in zip(row, v, strict=True)), Q(0)) for row in m)


def element_blocks(el):
    """The Fraction matrices of a WeylElement: each block's integer rows
    divided by its scale."""
    return tuple(tuple(tuple(Q(c, s) for c in row) for row in m)
                 for m, s in zip(el.blocks, el.scales, strict=True))


def apply_element(el, lam: Weight) -> Weight:
    """el(lam) for a WeylElement: each block's matrix times its factor's
    block; the center is fixed."""
    return Weight(tuple(matvec(m, v) for m, v in zip(element_blocks(el), lam.factors,
                                                     strict=True)),
                  lam.center)


def lattice_period(space, beta):
    """Least t > 0 with t*beta pairing integrally with every simple coroot:
    one over the gcd of the Fraction pairings, which for fractions in
    lowest terms is gcd(numerators) / lcm(denominators)."""
    pairings = [pair_coroot(v, a) for rs, v in zip(space.factors, beta.factors)
                for a in rs.simple]
    return Q(lcm(*(p.denominator for p in pairings)), gcd(*(p.numerator for p in pairings)))


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


def orbit_closure(simple, lam):
    """The orbit of lam under the group that the reflections in `simple`
    generate, by breadth-first search on Fraction vectors."""
    orbit = {lam}
    frontier = orbit
    while frontier:
        frontier = {reflect(v, a) for v in frontier for a in simple} - orbit
        orbit |= frontier
    return orbit


# ---------------------------------------------------------------------------
# group orders


def height_partition_order(rs):
    """|W| = prod_k (k + 1)^(n_k - n_(k+1)) for n_k the number of positive
    roots of height k: the heights' dual partition is the exponents
    (Kostant, Amer. J. Math. 81, 1959; Humphreys, Reflection Groups and
    Coxeter Groups, 3.20).  Heights are solved for in Fractions."""
    n = Counter(int(sum(xs)) for xs in solve(rs.simple, positive_roots(rs)))
    order = 1
    for k in n:
        order *= (k + 1) ** (n[k] - n[k + 1])
    return order


def parabolic_chain_order(rs):
    """|W(rs)| by orbit-stabilizer over the chain of first-n parabolics: in
    the parabolic of the first n nodes, built as its own system, the point
    with labels (0, ..., 0, 1) has the parabolic of the first n - 1 as its
    stabilizer (Chevalley's lemma, Humphreys, Reflection Groups and Coxeter
    Groups, 1.12).  Each orbit is walked by the package's kernel, whose
    check counts each state and keeps none."""
    order = 1
    for n in range(1, rs.rank + 1):
        sub = rootsys.from_simple(f"{rs.label}[:{n}]", "sub", rs.ambient, rs.scale,
                                  list(rs.simple_images[:n]))
        seen = count()
        orbit = weyl._orbit(sub, (), (0,) * (n - 1) + (1,))
        weyl._survivors(orbit, [lambda state: next(seen) < 0])
        order *= next(seen)
    return order


def orbit_size(rs):
    """|W(rs)| by walking the whole orbit of the regular vector 2 rho with
    the package's kernel, one point per element."""
    size = 0

    def count(state):
        nonlocal size
        size += 1
        return False

    weyl._survivors(weyl._orbit(rs), [count])
    return size


# ---------------------------------------------------------------------------
# root-system construction on Fraction vectors


def _indecomposables(positive):
    pos = list(positive)
    _, ints = integer_images(pos)
    sums = {tuple(map(add, a, b)) for i, a in enumerate(ints) for b in ints[i:]}
    return [p for p, u in zip(pos, ints) if u not in sums]


def _component_split(simple):
    n = len(simple)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp, stack = [], [s]
        seen[s] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and dot(simple[i], simple[j]) != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _component_type(simple, comp):
    """The type label of the connected component comp (indices) of the
    simple roots, from its Cartan matrix: the largest bond, at a double
    bond the number of short simple roots, else the determinant (n + 1
    for A_n, 4 for D_n, 9 - n for E_n)."""
    n = len(comp)
    cartan = [[pair_coroot(simple[i], simple[j]) for j in comp] for i in comp]
    bond = max((cartan[i][j] * cartan[j][i] for i in range(n) for j in range(i)), default=0)
    norms = [dot(simple[i], simple[i]) for i in comp]
    short = norms.count(min(norms))
    if bond == 3:
        return "G2"
    if bond == 2:
        return "F4" if (n, short) == (4, 2) else f"{'B' if short == 1 else 'C'}{n}"
    det = Q(1)
    for c in range(n):  # no pivoting: every leading minor is positive
        det *= cartan[c][c]
        for r in range(c + 1, n):
            f = cartan[r][c] / cartan[c][c]
            cartan[r] = [x - f * y for x, y in zip(cartan[r], cartan[c])]
    return f"A{n}" if det == n + 1 else f"D{n}" if det == 4 else f"E{n}"


def solve(columns, targets):
    """For each target t, the Fractions x with sum_k x_k columns[k] = t, or
    None when t is outside the span of the (independent) columns: one
    Gauss-Jordan elimination on Fraction rows, the targets as augmented
    columns."""
    ncols = len(columns)
    rows = [[Q(col[i]) for col in columns] + [Q(t[i]) for t in targets]
            for i in range(len((columns or targets or [()])[0]))]
    for c in range(ncols):
        pr = next(i for i in range(c, len(rows)) if rows[i][c] != 0)
        rows[c], rows[pr] = rows[pr], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i, row in enumerate(rows):
            if i != c and row[c] != 0:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[c])]
    return [None if any(row[ncols + j] for row in rows[ncols:])
            else tuple(row[ncols + j] for row in rows[:ncols])
            for j in range(len(targets))]


def _vsum(vs, n):
    acc = (Q(0),) * n
    for v in vs:
        acc = vadd(acc, v)
    return acc


def _fundamental_weights(simple):
    n = len(simple)
    m, ints = integer_images(simple)
    gram = [[sum(map(mul, u, v)) for v in ints] for u in ints]
    cartan_cols = [tuple(Q(2 * gram[k][j], gram[j][j]) for j in range(n))
                   for k in range(n)]
    targets = [tuple(Q(1) if j == i else Q(0) for j in range(n)) for i in range(n)]
    coords = list(zip(*ints))
    out = []
    for xs in solve(cartan_cols, targets):
        d = lcm(*(x.denominator for x in xs))
        nums = [x.numerator * (d // x.denominator) for x in xs]
        out.append(tuple(Q(sum(map(mul, nums, col)), d * m) for col in coords))
    return tuple(out)


@dataclass(frozen=True)
class ReferenceSystem:
    """The Fraction fields of a `rootsys.RootSystem`, and its roots; the
    supports are bit masks of the simple roots with a nonzero coefficient
    in each positive root."""
    label: str
    family: str
    rank: int
    ambient: int
    roots: frozenset
    simple: tuple
    positive: tuple
    supports: tuple
    rho: tuple
    fundamental: tuple
    highest_root: tuple | None
    components: tuple


def build(label, family, ambient, positive, simple) -> ReferenceSystem:
    roots = frozenset(positive) | frozenset(vscale(-1, p) for p in positive)
    if set(simple) != set(_indecomposables(positive)):
        raise ValueError(f"{label}: simple system does not match indecomposables")
    rho = vscale(Q(1, 2), _vsum(positive, ambient))
    for a in simple:
        if pair_coroot(rho, a) != 1:
            raise ValueError(f"{label}: rho pairing is not 1 against {a}")
    heights = {}
    supports = []
    for p, coeffs in zip(positive, solve(simple, positive)):
        if coeffs is None or any(c.denominator != 1 or c < 0 for c in coeffs):
            raise ValueError(f"{label}: positive root {p} is not an N-combination of simples")
        heights[p] = sum(coeffs)
        supports.append(sum(1 << i for i, c in enumerate(coeffs) if c))
    fundamental = _fundamental_weights(simple)
    comps = _component_split(tuple(simple))
    highest = max(positive, key=lambda p: heights[p]) if len(comps) == 1 else None
    return ReferenceSystem(label, family, len(simple), ambient, roots,
                           tuple(simple), tuple(positive), tuple(supports), rho,
                           fundamental, highest,
                           tuple(_component_type(simple, c) for c in comps))


def _e(i, n):
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


def _pos_A(n):
    d = n + 1
    pos = [vsub(_e(i, d), _e(j, d)) for i in range(d) for j in range(i + 1, d)]
    simple = [vsub(_e(i, d), _e(i + 1, d)) for i in range(n)]
    return pos, simple


def _pos_B(n):
    pos = [_e(i, n) for i in range(n)]
    pos += [vsub(_e(i, n), _e(j, n)) for i in range(n) for j in range(i + 1, n)]
    pos += [vadd(_e(i, n), _e(j, n)) for i in range(n) for j in range(i + 1, n)]
    simple = [vsub(_e(i, n), _e(i + 1, n)) for i in range(n - 1)] + [_e(n - 1, n)]
    return pos, simple


def _pos_C(n):
    pos = [vscale(2, _e(i, n)) for i in range(n)]
    pos += [vsub(_e(i, n), _e(j, n)) for i in range(n) for j in range(i + 1, n)]
    pos += [vadd(_e(i, n), _e(j, n)) for i in range(n) for j in range(i + 1, n)]
    simple = [vsub(_e(i, n), _e(i + 1, n)) for i in range(n - 1)] + [vscale(2, _e(n - 1, n))]
    return pos, simple


def _pos_D(n):
    pos = [vsub(_e(i, n), _e(j, n)) for i in range(n) for j in range(i + 1, n)]
    pos += [vadd(_e(i, n), _e(j, n)) for i in range(n) for j in range(i + 1, n)]
    simple = [vsub(_e(i, n), _e(i + 1, n)) for i in range(n - 1)]
    simple.append(vadd(_e(n - 2, n), _e(n - 1, n)))
    return pos, simple


def _pos_G2():
    a1 = vec(1, -1, 0)
    a2 = vec(-2, 1, 1)
    pos = [a1, a2, vadd(a1, a2), vadd(vscale(2, a1), a2),
           vadd(vscale(3, a1), a2), vadd(vscale(3, a1), vscale(2, a2))]
    return pos, [a1, a2]


def _pos_F4():
    pos = [_e(i, 4) for i in range(4)]
    pos += [vsub(_e(i, 4), _e(j, 4)) for i in range(4) for j in range(i + 1, 4)]
    pos += [vadd(_e(i, 4), _e(j, 4)) for i in range(4) for j in range(i + 1, 4)]
    half = Q(1, 2)
    for s2 in (1, -1):
        for s3 in (1, -1):
            for s4 in (1, -1):
                pos.append((half, half * s2, half * s3, half * s4))
    simple = [vsub(_e(1, 4), _e(2, 4)), vsub(_e(2, 4), _e(3, 4)), _e(3, 4),
              vec(Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2))]
    return pos, simple


def _pos_E8():
    pos = []
    for j in range(8):
        for i in range(j):
            pos.append(vadd(_e(i, 8), _e(j, 8)))
            pos.append(vadd(vscale(-1, _e(i, 8)), _e(j, 8)))
    half = Q(1, 2)
    for mask in range(128):
        signs = [1 if not (mask >> i) & 1 else -1 for i in range(7)]
        if sum(1 for s in signs if s < 0) % 2 == 0:
            pos.append(tuple([half * s for s in signs] + [half]))
    simple = [
        vec(Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(1, 2)),
        vec(1, 1, 0, 0, 0, 0, 0, 0),
        vec(-1, 1, 0, 0, 0, 0, 0, 0),
        vec(0, -1, 1, 0, 0, 0, 0, 0),
        vec(0, 0, -1, 1, 0, 0, 0, 0),
        vec(0, 0, 0, -1, 1, 0, 0, 0),
        vec(0, 0, 0, 0, -1, 1, 0, 0),
        vec(0, 0, 0, 0, 0, -1, 1, 0),
    ]
    return pos, simple


def _pos_E7():
    pos8, simple8 = _pos_E8()
    wall = vec(0, 0, 0, 0, 0, 0, 1, 1)
    pos = [p for p in pos8 if dot(p, wall) == 0]
    return pos, simple8[:7]


def _pos_E6():
    pos8, simple8 = _pos_E8()
    w1 = vec(0, 0, 0, 0, 0, 0, 1, 1)
    w2 = vec(0, 0, 0, 0, 0, 1, 0, 1)
    pos = [p for p in pos8 if dot(p, w1) == 0 and dot(p, w2) == 0]
    return pos, simple8[:6]


def make_root_system(label) -> ReferenceSystem:
    """The system of a type label that `rootsys.make_root_system` builds,
    from a hand listing of its positive roots, sorted; the package
    generates them from the simple roots instead."""
    if label == "A1d":
        return build("A1d", "A1d", 2, [vec(2, -2)], [vec(2, -2)])
    fixed = {"G2": _pos_G2, "F4": _pos_F4, "E6": _pos_E6, "E7": _pos_E7, "E8": _pos_E8}
    if label in fixed:
        pos, simple = fixed[label]()
        return build(label, label[0], len(pos[0]), sorted(pos), simple)
    family, rank = label[0], int(label[1:])
    pos, simple = {"A": _pos_A, "B": _pos_B, "C": _pos_C, "D": _pos_D}[family](rank)
    return build(label, family, len(pos[0]), sorted(pos), simple)


def root_system_from_roots(label, roots, chamber) -> ReferenceSystem:
    """The system of the closed root list `roots`, its positive roots those
    pairing positively with `chamber`, in sorted order."""
    allroots = {tuple(Q(c) for c in r) for r in roots}
    allroots |= {vscale(-1, r) for r in allroots}
    pos = []
    for r in allroots:
        p = dot(r, chamber)
        if p == 0:
            raise ValueError(f"chamber vector vanishes on root {r}")
        if p > 0:
            pos.append(r)
    pos.sort()
    simple = sorted(_indecomposables(pos))
    return build(label, "sub", len(chamber), pos, simple)
