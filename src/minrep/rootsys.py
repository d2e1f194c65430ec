"""Exact root-system arithmetic in standard (Bourbaki) coordinates.

Every vector is a tuple of Fraction; no floating point is used anywhere in
this package.  A `RootSystem` is a concrete set of coordinate vectors closed
under negation, together with a fixed positive system, the simple roots in
the conventional numbering, rho, and the fundamental weights.

Supported constructions:

* classical families ``A1..``, ``B1..``, ``C1..``, ``D2..`` (A-type lives in
  full n+1 coordinates, not the traceless hyperplane),
* exceptional types ``G2``, ``F4``, ``E6``, ``E7``, ``E8`` (the E6 and E7
  systems live in eight coordinates, as the subsystems of E8 orthogonal to
  {e6+e8, e7+e8} and to e7+e8 respectively),
* ``A1d``: the rank-one system in two coordinates whose positive root is
  (2, -2), so that (1, -1) is the highest weight of the defining
  two-dimensional module.  Weight tables for su(2) factors are written in
  these doubled coordinates.
* arbitrary embedded systems from an explicit closed root list plus a
  chamber vector selecting the positive half.

Construction checks its own result (simple roots = indecomposables, rho
pairs to 1 with every simple coroot, every positive root an N-combination
of the simple roots).  It computes on integer-scaled vectors: the scaling
by the lcm of all denominators is exact and injective, so the O(P^2) sum
set and the dot products behind the Cartan matrix and the fundamental
weights run on Python integers, and one elimination solves for every
positive root at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, NamedTuple

from .linalg import integer_images, solve_combination

Vector = tuple[Q, ...]


class UnsupportedCartanType(ValueError):
    pass


def vec(*coords) -> Vector:
    return tuple(Q(c) for c in coords)


def vzero(n: int) -> Vector:
    return (Q(0),) * n


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c, u: Vector) -> Vector:
    c = Q(c)
    return tuple(c * a for a in u)


def dot(u: Vector, v: Vector) -> Q:
    return sum((a * b for a, b in zip(u, v, strict=True)), Q(0))


def is_zero(u: Vector) -> bool:
    return all(a == 0 for a in u)


def pair_coroot(lam: Vector, alpha: Vector) -> Q:
    """<lam, alpha^vee> = 2 (lam, alpha) / (alpha, alpha)."""
    if is_zero(alpha):
        raise ValueError("pairing against the zero vector")
    return 2 * dot(lam, alpha) / dot(alpha, alpha)


def reflect(v: Vector, alpha: Vector) -> Vector:
    """Reflection of v in the hyperplane orthogonal to alpha."""
    if is_zero(alpha):
        raise ValueError("cannot reflect in the zero vector")
    return vsub(v, vscale(pair_coroot(v, alpha), alpha))


# ---------------------------------------------------------------------------
# root system construction


@dataclass(frozen=True)
class RootSystem:
    label: str
    family: str                 # "A".."G" or "sub" for embedded systems
    rank: int
    ambient: int
    roots: frozenset[Vector]
    simple: tuple[Vector, ...]
    positive: tuple[Vector, ...]
    rho: Vector
    fundamental: tuple[Vector, ...]
    highest_root: Vector | None  # None when the system is reducible

    def __repr__(self) -> str:  # keep dataclass noise out of assertion output
        return f"RootSystem({self.label})"

    @property
    def trace_redundant(self) -> bool:
        """Factors whose coordinates carry a redundant diagonal direction."""
        return self.family == "A" or self.label == "A1d"


def _indecomposables(positive: Iterable[Vector]) -> list[Vector]:
    """Positive roots that are not the sum of two positive roots, found by
    summing their integer images."""
    pos = list(positive)
    _, ints = integer_images(pos)
    sums = {tuple(map(add, a, b)) for i, a in enumerate(ints) for b in ints[i:]}
    return [p for p, u in zip(pos, ints) if u not in sums]


def _component_split(simple: tuple[Vector, ...]) -> list[list[int]]:
    """Connected components of the simple system under non-orthogonality."""
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


def _build(label: str, family: str, positive: list[Vector],
           simple: list[Vector]) -> RootSystem:
    ambient = len(positive[0])
    roots = frozenset(positive) | frozenset(vscale(-1, p) for p in positive)
    if set(simple) != set(_indecomposables(positive)):
        raise ValueError(f"{label}: simple system does not match indecomposables")
    rho = vscale(Q(1, 2), _vsum(positive, ambient))
    for a in simple:
        if pair_coroot(rho, a) != 1:
            raise ValueError(f"{label}: rho pairing is not 1 against {a}")
    heights = {}
    for p, coeffs in zip(positive, solve_combination(simple, positive)):
        if coeffs is None or any(c.denominator != 1 or c < 0 for c in coeffs):
            raise ValueError(f"{label}: positive root {p} is not an N-combination of simples")
        heights[p] = sum(coeffs)
    fundamental = _fundamental_weights(simple)
    irreducible = len(_component_split(tuple(simple))) == 1
    highest = max(positive, key=lambda p: heights[p]) if irreducible else None
    return RootSystem(label, family, len(simple), ambient, roots,
                      tuple(simple), tuple(positive), rho, fundamental, highest)


def _vsum(vs: Iterable[Vector], n: int) -> Vector:
    acc = vzero(n)
    for v in vs:
        acc = vadd(acc, v)
    return acc


def _fundamental_weights(simple: list[Vector]) -> tuple[Vector, ...]:
    # omega_i = sum_k x_k alpha_k with <omega_i, alpha_j^vee> = delta_ij.
    # Solving inside the root span pins the weights down even when the
    # ambient space is larger than the rank (A-type, embedded E6/E7).
    # Both the Cartan entries and the sums run on the integer images m*alpha.
    n = len(simple)
    m, ints = integer_images(simple)
    gram = [[sum(map(mul, u, v)) for v in ints] for u in ints]
    cartan_cols = [tuple(Q(2 * gram[k][j], gram[j][j]) for j in range(n))
                   for k in range(n)]
    targets = [tuple(Q(1) if j == i else Q(0) for j in range(n)) for i in range(n)]
    coords = list(zip(*ints))
    out = []
    for xs in solve_combination(cartan_cols, targets):
        assert xs is not None
        d = lcm(*(x.denominator for x in xs))
        nums = [x.numerator * (d // x.denominator) for x in xs]
        out.append(tuple(Q(sum(map(mul, nums, col)), d * m) for col in coords))
    return tuple(out)


def _e(i: int, n: int) -> Vector:
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


def _pos_A(n: int) -> tuple[list[Vector], list[Vector]]:
    d = n + 1
    pos = [vsub(_e(i, d), _e(j, d)) for i in range(d) for j in range(i + 1, d)]
    simple = [vsub(_e(i, d), _e(i + 1, d)) for i in range(n)]
    return pos, simple


def _pos_B(n: int) -> tuple[list[Vector], list[Vector]]:
    pos = [_e(i, n) for i in range(n)]
    pos += [vsub(_e(i, n), _e(j, n)) for i in range(n) for j in range(i + 1, n)]
    pos += [vadd(_e(i, n), _e(j, n)) for i in range(n) for j in range(i + 1, n)]
    simple = [vsub(_e(i, n), _e(i + 1, n)) for i in range(n - 1)] + [_e(n - 1, n)]
    return pos, simple


def _pos_C(n: int) -> tuple[list[Vector], list[Vector]]:
    pos = [vscale(2, _e(i, n)) for i in range(n)]
    pos += [vsub(_e(i, n), _e(j, n)) for i in range(n) for j in range(i + 1, n)]
    pos += [vadd(_e(i, n), _e(j, n)) for i in range(n) for j in range(i + 1, n)]
    simple = [vsub(_e(i, n), _e(i + 1, n)) for i in range(n - 1)] + [vscale(2, _e(n - 1, n))]
    return pos, simple


def _pos_D(n: int) -> tuple[list[Vector], list[Vector]]:
    pos = [vsub(_e(i, n), _e(j, n)) for i in range(n) for j in range(i + 1, n)]
    pos += [vadd(_e(i, n), _e(j, n)) for i in range(n) for j in range(i + 1, n)]
    simple = [vsub(_e(i, n), _e(i + 1, n)) for i in range(n - 1)]
    simple.append(vadd(_e(n - 2, n), _e(n - 1, n)))
    return pos, simple


def _pos_G2() -> tuple[list[Vector], list[Vector]]:
    a1 = vec(1, -1, 0)
    a2 = vec(-2, 1, 1)
    pos = [a1, a2, vadd(a1, a2), vadd(vscale(2, a1), a2),
           vadd(vscale(3, a1), a2), vadd(vscale(3, a1), vscale(2, a2))]
    return pos, [a1, a2]


def _pos_F4() -> tuple[list[Vector], list[Vector]]:
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


def _pos_E8() -> tuple[list[Vector], list[Vector]]:
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


def _pos_E7() -> tuple[list[Vector], list[Vector]]:
    pos8, simple8 = _pos_E8()
    wall = vec(0, 0, 0, 0, 0, 0, 1, 1)
    pos = [p for p in pos8 if dot(p, wall) == 0]
    return pos, simple8[:7]


def _pos_E6() -> tuple[list[Vector], list[Vector]]:
    pos8, simple8 = _pos_E8()
    w1 = vec(0, 0, 0, 0, 0, 0, 1, 1)
    w2 = vec(0, 0, 0, 0, 0, 1, 0, 1)
    pos = [p for p in pos8 if dot(p, w1) == 0 and dot(p, w2) == 0]
    return pos, simple8[:6]


_MIN_RANK = {"A": 1, "B": 1, "C": 1, "D": 2}


@lru_cache(maxsize=None)
def make_root_system(cartan_type: str) -> RootSystem:
    """Build a root system by type label, e.g. "C4", "E7", "A1d"."""
    label = cartan_type.strip()
    if label == "A1d":
        return _build("A1d", "A1d", [vec(2, -2)], [vec(2, -2)])
    fixed = {"G2": _pos_G2, "F4": _pos_F4, "E6": _pos_E6, "E7": _pos_E7, "E8": _pos_E8}
    if label in fixed:
        pos, simple = fixed[label]()
        return _build(label, label[0], pos, simple)
    family, rank_text = label[:1], label[1:]
    if family in "ABCD" and rank_text.isdigit():
        rank = int(rank_text)
        if rank >= _MIN_RANK[family]:
            pos, simple = {"A": _pos_A, "B": _pos_B, "C": _pos_C, "D": _pos_D}[family](rank)
            return _build(label, family, pos, simple)
    raise UnsupportedCartanType(
        f"unsupported type {cartan_type!r}; expected one of A>=1, B>=1, C>=1, D>=2, "
        "E6, E7, E8, F4, G2, A1d")


def root_system_from_roots(label: str, roots: Iterable[Vector], chamber: Vector) -> RootSystem:
    """Embedded system from an explicit root list and a chamber vector.

    The chamber vector must not vanish on any root; roots with positive
    pairing form the positive system.
    """
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
    return _build(label, "sub", pos, simple)


# ---------------------------------------------------------------------------
# weights and representation numerics on a single factor


class DomInt(NamedTuple):
    dominant: bool
    integral: bool


def dominance(rs: RootSystem, lam: Vector) -> DomInt:
    pairings = [pair_coroot(lam, a) for a in rs.simple]
    return DomInt(all(p >= 0 for p in pairings),
                  all(p.denominator == 1 for p in pairings))


def weyl_dim(rs: RootSystem, lam: Vector) -> int:
    """Dimension of the irreducible module with highest weight lam."""
    dom = dominance(rs, lam)
    if not (dom.dominant and dom.integral):
        raise ValueError(f"{lam} is not dominant integral for {rs.label}")
    num, den = Q(1), Q(1)
    lr = vadd(lam, rs.rho)
    for a in rs.positive:
        num *= dot(lr, a)
        den *= dot(rs.rho, a)
    d = num / den
    assert d.denominator == 1 and d > 0
    return int(d)


def casimir_eigenvalue(rs: RootSystem, lam: Vector, normalization: str = "standard") -> Q:
    """<lam, lam + 2 rho> in the coordinate form.

    "killing" rescales so that the adjoint module (highest weight = highest
    root) has eigenvalue exactly 1.  The raw coordinate scale is otherwise
    arbitrary but fixed, which is all the monotonicity arguments need.
    """
    raw = dot(lam, vadd(lam, vscale(2, rs.rho)))
    if normalization == "standard":
        return raw
    if normalization == "killing":
        if rs.highest_root is None:
            raise ValueError(f"{rs.label} is reducible; killing normalization undefined")
        theta = rs.highest_root
        return raw / dot(theta, vadd(theta, vscale(2, rs.rho)))
    raise ValueError(f"unknown normalization {normalization!r}")


def omega_to_coords(rs: RootSystem, coeffs: Iterable) -> Vector:
    """Coordinates of sum_i c_i omega_i (fundamental-weight coefficients)."""
    cs = [Q(c) for c in coeffs]
    if len(cs) != rs.rank:
        raise ValueError(f"expected {rs.rank} coefficients for {rs.label}, got {len(cs)}")
    out = vzero(rs.ambient)
    for c, w in zip(cs, rs.fundamental):
        out = vadd(out, vscale(c, w))
    return out


# ---------------------------------------------------------------------------
# composite spaces: ordered simple factors plus an abelian center


@dataclass(frozen=True)
class Weight:
    """Per-factor coordinate blocks plus center coordinates."""
    factors: tuple[Vector, ...]
    center: Vector = ()

    def __repr__(self) -> str:
        return f"Weight({self.factors}, center={self.center})"


@dataclass(frozen=True)
class KSpace:
    factors: tuple[RootSystem, ...]
    center_dim: int = 0

    def __repr__(self) -> str:
        names = "x".join(rs.label for rs in self.factors)
        return f"KSpace({names}, center={self.center_dim})"


def weight(space: KSpace, *factor_vectors, center=()) -> Weight:
    w = Weight(tuple(tuple(Q(c) for c in v) for v in factor_vectors),
               tuple(Q(c) for c in center))
    conform(space, w)
    return w


def conform(space: KSpace, w: Weight) -> None:
    if len(w.factors) != len(space.factors):
        raise ValueError(f"weight has {len(w.factors)} blocks, space has {len(space.factors)}")
    for rs, v in zip(space.factors, w.factors):
        if len(v) != rs.ambient:
            raise ValueError(f"block {v} has wrong length for {rs.label}")
    if len(w.center) != space.center_dim:
        raise ValueError(f"center block {w.center} has wrong length")


def zero_weight(space: KSpace) -> Weight:
    return Weight(tuple(vzero(rs.ambient) for rs in space.factors),
                  vzero(space.center_dim))


def weight_add(a: Weight, b: Weight) -> Weight:
    return Weight(tuple(vadd(u, v) for u, v in zip(a.factors, b.factors, strict=True)),
                  vadd(a.center, b.center))


def weight_sub(a: Weight, b: Weight) -> Weight:
    return Weight(tuple(vsub(u, v) for u, v in zip(a.factors, b.factors, strict=True)),
                  vsub(a.center, b.center))


def weight_scale(c, a: Weight) -> Weight:
    return Weight(tuple(vscale(c, u) for u in a.factors), vscale(c, a.center))


def weight_is_zero(a: Weight) -> bool:
    return all(is_zero(u) for u in a.factors) and is_zero(a.center)


def space_rho(space: KSpace) -> Weight:
    return Weight(tuple(rs.rho for rs in space.factors), vzero(space.center_dim))


def bilinear(space: KSpace, a: Weight, b: Weight) -> Q:
    """Block-diagonal coordinate form: factor dots plus the center dot."""
    conform(space, a)
    conform(space, b)
    total = dot(a.center, b.center)
    for u, v in zip(a.factors, b.factors):
        total += dot(u, v)
    return total


def factor_bilinear(space: KSpace, i: int, a: Weight, b: Weight) -> Q:
    return dot(a.factors[i], b.factors[i])


def space_dominance(space: KSpace, lam: Weight) -> DomInt:
    """Dominance/integrality against every simple root; center ignored."""
    conform(space, lam)
    parts = [dominance(rs, v) for rs, v in zip(space.factors, lam.factors)]
    return DomInt(all(p.dominant for p in parts), all(p.integral for p in parts))


def space_reflect(space: KSpace, lam: Weight, factor: int, alpha: Vector) -> Weight:
    blocks = list(lam.factors)
    blocks[factor] = reflect(blocks[factor], alpha)
    return Weight(tuple(blocks), lam.center)


def space_weyl_dim(space: KSpace, lam: Weight) -> int:
    d = 1
    for rs, v in zip(space.factors, lam.factors):
        d *= weyl_dim(rs, v)
    return d


def space_casimir(space: KSpace, lam: Weight) -> Q:
    """<lam, lam + 2 rho> in the block form (standard scale per factor)."""
    rho = space_rho(space)
    return bilinear(space, lam, weight_add(lam, weight_scale(2, rho)))


def _ratgcd(values: Iterable[Q]) -> Q:
    g = Q(0)
    for v in values:
        if v == 0:
            continue
        v = abs(v)
        g = v if g == 0 else Q(gcd(g.numerator * v.denominator, v.numerator * g.denominator),
                                g.denominator * v.denominator)
    return g


def lattice_period(space: KSpace, beta: Weight) -> Q:
    """Least t > 0 such that t*beta pairs integrally with every simple coroot."""
    conform(space, beta)
    pairings = []
    for rs, v in zip(space.factors, beta.factors):
        pairings.extend(pair_coroot(v, a) for a in rs.simple)
    g = _ratgcd(pairings)
    if g == 0:
        raise ValueError("beta pairs to zero with every simple coroot")
    return 1 / g


def trace_free_canonical(space: KSpace, lam: Weight) -> Weight:
    """Canonical K-type name: project out the redundant diagonal direction
    of each A-type block (including A1d); other blocks and center unchanged.

    Two weights name the same K-type exactly when their canonical forms agree.
    """
    conform(space, lam)
    blocks = []
    for rs, v in zip(space.factors, lam.factors):
        if rs.trace_redundant:
            shift = sum(v, Q(0)) / len(v)
            blocks.append(tuple(c - shift for c in v))
        else:
            blocks.append(v)
    return Weight(tuple(blocks), lam.center)


def k_types_equal(space: KSpace, a: Weight, b: Weight) -> bool:
    return trace_free_canonical(space, a) == trace_free_canonical(space, b)
