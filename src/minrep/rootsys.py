"""Exact root-system arithmetic in standard (Bourbaki) coordinates.

A `RootSystem` is a concrete set of coordinate vectors closed under
negation, with a fixed positive system and the simple roots in the
conventional numbering, held as integers: the positive and simple roots
times one common `scale`.  Fractions are made only for the views that
print or store a vector (the simple roots, rho, the fundamental weights,
the highest root); no floating point is used anywhere in this package.

Every system is made one way (`from_simple`): from its simple roots, its
positive roots are generated by root strings (see _generate), each with
its support, sorted, and certified on the integer images (see _certify:
simple roots = indecomposables, rho pairs to 1 with every simple
coroot, every positive root an N-combination of the simple roots).  The
scaling is exact and injective, so the checks run on Python integers,
with lookups on packed forms (see _packing).  There is no fallback to
the definition: a listing the walk cannot certify is refused.  Callers:

* types (`make_root_system`), each listing only its simple roots:
  * classical families ``A1..``, ``B1..``, ``C1..``, ``D2..`` up to rank
    16 (A-type lives in full n+1 coordinates, not the traceless
    hyperplane),
  * exceptional types ``G2``, ``F4``, ``E6``, ``E7``, ``E8`` (F4 and the E
    types in doubled coordinates; E6 and E7 take the first six and seven
    simple roots of E8, so they live in its eight coordinates),
  * ``A1d``: the rank-one system in two coordinates whose positive root
    is (2, -2), so that (1, -1) is the highest weight of the defining
    two-dimensional module.  Weight tables for su(2) factors are written
    in these doubled coordinates.
* the roots orthogonal to a vector (weyl.orthogonal_subsystem), whose
  simple roots are conjugated back from a parabolic at its parent's
  scale.

Everything else derived from one system (the Fraction views, root lines,
mirrors, lattice scale, Cartan rows, the longest word, Kostant's cascade,
orthogonal subsystems) is a cached property of its `RootSystem`, computed
on first use from those fields and kept with it.  The fundamental weights,
the components and irreducibility are read off the supports, so nothing
here solves a linear system.  Weyl-group orders are not transcribed:
from_simple reads each off the number of positive roots of each height.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from operator import add, mul

from .linalg import integer_images

Vector = tuple[Q, ...]
IntVector = tuple[int, ...]
Mirror = tuple[IntVector, int]  # a reflection letter on integers, see mirror


class UnsupportedCartanType(ValueError):
    pass


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


def _idot(u: IntVector, v: IntVector) -> int:
    return sum(map(mul, u, v))


def _primitive(u: IntVector) -> IntVector:
    g = gcd(*u)
    return tuple([c // g for c in u])


def mirror(v: Vector) -> Mirror:
    """The primitive integer vector on the line of v, and its squared norm:
    the Weyl layer's letter for the reflection s(v).  Reflecting an integer
    vector by it stays integral exactly when the reflection by v does."""
    s = _primitive(integer_images([v])[1][0])
    return s, _idot(s, s)


# ---------------------------------------------------------------------------
# root system construction


class RootSystem(namedtuple("RootSystem", ["label", "family", "rank", "ambient", "scale",
                                           "positive_images", "simple_images", "supports",
                                           "order"])):
    # family is "A".."G", or "sub" for subsystems; the images are the
    # positive roots in order and the simple in their numbering, times scale;
    # supports holds each positive root's support as a bit mask of simple-root
    # indices; order is |W| (see from_simple).  No __slots__: the cached
    # properties live in the instance __dict__, while eq and hash are the
    # tuple's and read the fields alone

    def __repr__(self) -> str:  # keep the images out of assertion output
        return f"RootSystem({self.label})"

    @property
    def trace_redundant(self) -> bool:
        """Factors whose coordinates carry a redundant diagonal direction."""
        return self.family == "A" or self.label == "A1d"

    @cached_property
    def simple(self) -> tuple[Vector, ...]:
        return tuple(_rational(b, self.scale) for b in self.simple_images)

    @cached_property
    def two_rho(self) -> IntVector:
        """2 rho times scale: the sum of the positive images."""
        return tuple(map(sum, zip((0,) * self.ambient, *self.positive_images)))

    @cached_property
    def rho(self) -> Vector:
        return _rational(self.two_rho, 2 * self.scale)

    @cached_property
    def fundamental_images(self) -> tuple[int, list[IntVector]]:
        """(m, [m omega_i]): the fundamental weights at one integer scale.

        With J the simple roots but alpha_i, u_i = 2 (rho - rho_J) is the
        sum of the positive roots whose support holds alpha_i.  It lies in
        the root span and pairs to 0 with alpha_j^vee for j != i, since 2 rho
        and 2 rho_J both pair to 2 with that coroot; so omega_i =
        u_i / <u_i, alpha_i^vee>, where the pairing is a positive integer."""
        out = []
        for i, a in enumerate(self.simple_images):
            # alpha_i is in its own support, so the sum has a term
            u = tuple(map(sum, zip(*(p for p, s in zip(self.positive_images, self.supports)
                                     if s >> i & 1))))
            # <u, a^vee> = 2 (u, a) / (a, a), read on images at one scale
            out.append((u, 2 * _idot(u, a) // _idot(a, a)))
        big = lcm(*(n for _, n in out))
        return big * self.scale, [tuple([c * (big // n) for c in u]) for u, n in out]

    @cached_property
    def fundamental(self) -> tuple[Vector, ...]:
        m, images = self.fundamental_images
        return tuple(_rational(u, m) for u in images)

    @cached_property
    def highest_root(self) -> Vector | None:
        """None when reducible, as no root has full support; else the root
        of largest pairing with 2 rho, as it exceeds every other positive
        root by an N-combination of simple roots (Bourbaki VI 1.8)."""
        if (1 << self.rank) - 1 not in self.supports:
            return None
        return _rational(max(self.positive_images, key=lambda p: _idot(self.two_rho, p)),
                         self.scale)

    @cached_property
    def coroot_images(self) -> tuple[int, tuple[IntVector, ...]]:
        """(L, K) with u . K_j = L <u, alpha_j^vee> for every vector u: for
        b_j = m alpha_j the simple images at the scale m, L is the lcm of
        their norms and K_j = 2 m (L / (b_j, b_j)) b_j."""
        norms = [_idot(b, b) for b in self.simple_images]
        big = lcm(*norms)
        return big, tuple(tuple(2 * self.scale * (big // n) * c for c in b)
                          for b, n in zip(self.simple_images, norms))

    @cached_property
    def lines(self) -> frozenset[IntVector]:
        """The primitive integer vector on each root line, both signs."""
        ups = [_primitive(u) for u in self.positive_images]
        return frozenset(ups) | frozenset(tuple([-c for c in u]) for u in ups)

    @cached_property
    def simple_mirrors(self) -> tuple[Mirror, ...]:
        return tuple((s, _idot(s, s)) for s in map(_primitive, self.simple_images))

    @cached_property
    def lattice_scale(self) -> int:
        """An S such that the reflection orbit of S u is integral for every
        integer vector u (so S times an element matrix is integral).

        Let m be the scale of the held images, any integer that makes
        m Q(R) integral (a subsystem holds its parent's).  If every pairing
        <S e_i, r^vee> lies in m Z, then so does every pairing of S u and
        of each point of S u + m Q(R), and reflections keep the orbit of
        S u in that integral coset.  With a = m r the condition reads
        2 S a_i / (a, a) in Z; S is the least.
        """
        out = 1
        for a in self.positive_images:
            norm = _idot(a, a)
            out = lcm(out, norm // gcd(norm, 2 * gcd(*a)))
        return out

    @cached_property
    def cartan_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Row i of the Cartan matrix as (j, <alpha_i, alpha_j^vee>) over the
        j where the entry is nonzero: i itself and its Dynkin neighbours,
        read off the integer labels of alpha_i (see coroot_labels)."""
        big, coroots = self.coroot_images
        d = self.scale * big
        rows = []
        for a in self.simple_images:
            labels = [_idot(a, k) for k in coroots]
            if any(lj % d for lj in labels):
                raise AssertionError(f"Cartan row of {a} is not integral")
            rows.append(tuple((j, lj // d) for j, lj in enumerate(labels) if lj))
        return tuple(rows)

    @cached_property
    def components(self) -> tuple[str, ...]:
        """The type label of each irreducible component, in the order of
        its lowest simple root.  A component is a union of overlapping
        supports: a root's support is connected, and two joined simple
        roots a and b have the root a + b."""
        comps = []
        for s in self.supports:
            # the masks in comps are disjoint, so their sum is their union
            comps = [c for c in comps if not c & s] + [s | sum(c for c in comps if c & s)]
        out = []
        for comp in sorted(comps, key=lambda c: c & -c):
            norms = [_idot(p, p) for p, s in zip(self.positive_images, self.supports)
                     if s & comp]
            out.append(_component_type(comp.bit_count(), norms))
        return tuple(out)

    @cached_property
    def longest_word(self) -> tuple[int, ...]:
        """The simple-root indices, in printed order, of a reduced word for
        the longest element (which maps rho to -rho)."""
        # -rho has every label -1, rho every label 1
        letters, end = self.descend([-1] * self.rank)
        if end != [1] * self.rank or len(letters) != len(self.positive_images):
            raise AssertionError("descent from -rho is not a reduced word to rho")
        return tuple(letters)

    @cached_property
    def cascade(self) -> tuple[Mirror, ...]:
        """Kostant's cascade as mirrors (B. Kostant, Moscow Math. J. 12,
        2012): mutually orthogonal roots, at most rank of them, whose
        reflections commute and multiply to the longest element.

        Built greedily (_cascade_roots) and certified here: the product
        sends 2 rho to -2 rho, and since 2 rho is regular, w_l is the only
        element of W with that image (Humphreys, Reflection Groups and
        Coxeter Groups, 1.8 and 1.12)."""
        letters = tuple((s, _idot(s, s)) for s in map(_primitive, _cascade_roots(self)))
        u = self.two_rho
        for s, ss in letters:
            # exact: u stays a sum of root images, and a reflection keeps those
            c = 2 * _idot(u, s) // ss
            u = tuple([a - c * b for a, b in zip(u, s)])
        if any(a + b for a, b in zip(u, self.two_rho)):
            raise AssertionError(f"{self.label}: the cascade does not send 2 rho to -2 rho")
        return letters

    @cached_property
    def perp(self) -> dict[IntVector, RootSystem]:
        """weyl.orthogonal_subsystem's results so far, by line (see there)."""
        return {}

    def descend(self, labels: Iterable[int]) -> tuple[list[int], list[int]]:
        """Greedy descent of the labels <u, alpha_j^vee> of a point u into the
        closed dominant chamber, reflecting in the first negative label.
        Returns the simple-root indices applied (reversed, a word for the
        element carrying u there) and the labels reached."""
        rows = self.cartan_rows
        labels = list(labels)
        letters = []
        while True:
            i = next((j for j, lj in enumerate(labels) if lj < 0), None)
            if i is None:
                return letters, labels
            li = labels[i]
            for j, a in rows[i]:
                labels[j] -= li * a
            letters.append(i)


def _cascade_roots(rs: RootSystem) -> list[IntVector]:
    """The positive image of largest 2 rho pairing, then, among those
    orthogonal to every one picked, the next, until none is left.  Each
    pick is the highest root of a component of the roots orthogonal to the
    earlier picks: a positive root gamma there with (pick, gamma) < 0 would
    make pick + gamma a root there of larger pairing, so the pick is
    dominant for its component, and the highest root exceeds the other
    dominant one (Bourbaki VI 1.8) by positive roots."""
    left = sorted(rs.positive_images, key=lambda p: -_idot(rs.two_rho, p))
    picks = []
    while left:
        top = left[0]
        picks.append(top)
        left = [p for p in left if not _idot(p, top)]
    return picks


def _packing(vectors: list[IntVector]) -> Callable[[IntVector], int]:
    """The packed form c -> sum_i c_i B^i of integer vectors, with
    B = 4 max |c_i| + 3 over `vectors`.  It is linear, so p - q packs to
    pack(p) - pack(q), and a difference of two of the vectors packs like
    one of them only if it is that one: the two differ entrywise by at
    most 3 max |c_i| < B, and a nonzero vector whose entries are smaller
    than B never packs to 0 (its lowest nonzero entry would be a multiple
    of B).  So p - q lies among the vectors exactly when
    pack(p) - pack(q) lies among their packed forms."""
    base = 4 * max(max(map(max, vectors), default=0),
                   -min(map(min, vectors), default=0)) + 3
    powers = [base ** i for i in range(max(map(len, vectors), default=0))]
    return lambda v: sum(map(mul, v, powers))


def _component_type(rank: int, positive_norms: list[int]) -> str:
    """The type label of an irreducible system from its rank and the
    squared norms of its positive roots."""
    nroots = 2 * len(positive_norms)
    if len(set(positive_norms)) == 1:
        if nroots == rank * (rank + 1):
            return f"A{rank}"
        if rank >= 4 and nroots == 2 * rank * (rank - 1):
            return f"D{rank}"
        if (rank, nroots) in ((6, 72), (7, 126), (8, 240)):
            return f"E{rank}"
    else:
        if (rank, nroots) == (2, 12):
            return "G2"
        if (rank, nroots) == (4, 48):
            return "F4"
        if nroots == 2 * rank * rank:
            shortest = sum(1 for t in positive_norms if t == min(positive_norms))
            return f"{'B' if shortest == rank or rank == 2 else 'C'}{rank}"
    raise ValueError(f"unrecognized component: rank {rank}, {nroots} roots")


def _certify(label: str, scale: int, positive: list[IntVector],
             simple: list[IntVector]) -> None:
    """Refuse unless `simple` is the simple system of the positive roots
    `positive`, both integer images at `scale`.  Every check runs on the
    images, each lookup on packed forms (see _packing); a Fraction is made
    only to name a root in a refusal.

    The walk takes the positive roots in increasing pairing with 2 rho and
    keeps a root when no root kept before it leaves a positive root on
    subtraction, so it keeps every indecomposable, and on a positive
    system nothing else: every non-simple positive root is a simple root
    plus a positive root (Humphreys, Introduction to Lie Algebras, 10.2),
    and that simple root pairs less with 2 rho.  It refuses unless (1)
    each simple root is a listed positive root that splits no positive
    root (rank x P lookups), (2) rho pairs to 1 with each simple coroot,
    and (3) the walk keeps no root outside `simple`.  Then simple =
    indecomposables, since (1) makes each simple root one and (3) keeps
    out every other; and every positive root is an N-combination of them,
    by induction on the pairing: a root the walk skips is a kept simple
    root a, which pairs to (a, a) > 0 with 2 rho by (2), plus a positive
    root of smaller pairing."""
    two_rho = tuple(map(sum, zip(*positive)))
    pack = _packing([*positive, *simple])
    keys = list(map(pack, positive))
    pos = set(keys)
    kept: dict[int, IntVector] = {}
    for k, p in sorted(zip(keys, positive), key=lambda kp: _idot(two_rho, kp[1])):
        if pos.isdisjoint(map(k.__sub__, kept)):
            kept[k] = p
    simple_keys = set(map(pack, simple))
    if not (simple_keys <= pos
            and all(pos.isdisjoint(map(a.__sub__, pos)) for a in simple_keys)):
        raise ValueError(f"{label}: simple system does not match indecomposables")
    # <rho, a^vee> = 1 reads (2 rho, a) = (a, a), which any common scale keeps
    for a in simple:
        if _idot(two_rho, a) != _idot(a, a):
            raise ValueError(f"{label}: rho pairing is not 1 against {_rational(a, scale)}")
    for k, p in kept.items():
        if k not in simple_keys:
            raise ValueError(f"{label}: positive root {_rational(p, scale)} is not shown "
                             "an N-combination of simples")


def _rational(u: IntVector, scale: int) -> Vector:
    return tuple([Q(c, scale) for c in u])


def _generate(simple: list[IntVector]) -> tuple[list[tuple[IntVector, int]], list[int]]:
    """The positive roots of the system with these simple roots, height by
    height.  For a positive root g and a simple root a_i, g + a_i is a root
    exactly when p_i > <g, a_i^vee>, where p_i is the largest k such that
    g - k a_i is a root: the a_i-string through g runs from g - p_i a_i to
    g + q_i a_i with p_i - q_i = <g, a_i^vee> (Humphreys, Introduction to
    Lie Algebras, 9.4; Bourbaki VI 1.3).  Each root carries its labels
    <g, a_j^vee> and its p_j.  A new root g + a_i takes g's labels plus
    Cartan row i, and p_i(g) + 1 in place i; its p_j is 0 unless g + a_i
    - a_j is a root, and that root, one height lower, is also a parent and
    sets p_j.  So no string is walked and no ambient vector is looked up.
    Roots are keyed by their simple-root coefficients, 4 bits each: no
    coefficient of a root exceeds 6.  Each root comes with its support, a
    bit mask of simple-root indices: g + a_i has g's plus i.  Also returns
    the number of roots of each height, from 1 up."""
    rows = [[2 * _idot(a, b) // _idot(b, b) for b in simple] for a in simple]
    layer = {1 << 4 * i: (a, 1 << i, row, [0] * len(simple))
             for i, (a, row) in enumerate(zip(simple, rows))}
    out, heights = [], []
    while layer:
        out += [(v, mask) for v, mask, _, _ in layer.values()]
        heights.append(len(layer))
        up = {}
        for key, (v, mask, labels, p) in layer.items():
            for i, (a, row) in enumerate(zip(simple, rows)):
                if p[i] > labels[i]:
                    k = key + (1 << 4 * i)
                    if k not in up:
                        up[k] = (tuple(map(add, v, a)), mask | 1 << i,
                                 list(map(add, labels, row)), [0] * len(simple))
                    up[k][3][i] = p[i] + 1
        layer = up
    return out, heights


def _chain(n: int, c: int) -> list[IntVector]:
    """c (e_i - e_(i+1)) for i < n - 1."""
    return [(0,) * i + (c, -c) + (0,) * (n - i - 2) for i in range(n - 1)]


_E8 = [(1, -1, -1, -1, -1, -1, -1, 1), (2, 2, 0, 0, 0, 0, 0, 0), *_chain(8, -2)[:6]]
# (family, scale, simple roots times scale) of the types outside A-D
_FIXED = {"A1d": ("A1d", 1, [(2, -2)]), "G2": ("G", 1, [(1, -1, 0), (-2, 1, 1)]),
          "F4": ("F", 2, [*_chain(4, 2)[1:], (0, 0, 0, 2), (1, -1, -1, -1)]),
          "E6": ("E", 2, _E8[:6]), "E7": ("E", 2, _E8[:7]), "E8": ("E", 2, _E8)}

# The last simple root of B, C and D: e_n, 2 e_n and e_(n-1) + e_n
_LAST = {"B": (1,), "C": (2,), "D": (1, 1)}
_MIN_RANK = {"A": 1, "B": 1, "C": 1, "D": 2}

# Largest rank built, refused before any root is made: the catalog stops
# at rank 8, and 16 leaves room for so(16,16) while bounding one build
# (D16 about 2.6 ms cold, in process, on a 2-vCPU VM).
MAX_RANK = 16


@lru_cache(maxsize=None)
def make_root_system(cartan_type: str) -> RootSystem:
    """Build a root system by type label, e.g. "C4", "E7", "A1d", from its
    listed simple roots (see from_simple)."""
    label = cartan_type.strip()
    family, rank_text = label[:1], label[1:]
    if label in _FIXED:
        family, scale, simple = _FIXED[label]
    elif (family in "ABCD" and rank_text.isascii() and rank_text.isdigit()
          and int(rank_text) >= _MIN_RANK[family]):
        rank = int(rank_text)
        if rank > MAX_RANK:
            raise UnsupportedCartanType(f"type {cartan_type!r} has rank above {MAX_RANK}")
        scale = 1
        if family == "A":
            simple = _chain(rank + 1, 1)
        else:
            last = _LAST[family]
            simple = [*_chain(rank, 1), (0,) * (rank - len(last)) + last]
    else:
        raise UnsupportedCartanType(
            f"unsupported type {cartan_type!r}; expected one of A>=1, B>=1, C>=1, D>=2, "
            "E6, E7, E8, F4, G2, A1d")
    return from_simple(label, family, len(simple[0]), scale, simple)


def from_simple(label: str, family: str, ambient: int, scale: int,
                simple: list[IntVector]) -> RootSystem:
    """The system whose simple roots are the integer images `simple`
    divided by `scale`, in their numbering: its positive roots are
    generated from them (see _generate), sorted, and certified (see
    _certify).  Every RootSystem is made here.  Its order is
    |W| = prod_k (k + 1)^(n_k - n_(k+1)) for n_k the number of positive roots
    of height k: the heights' dual partition is the exponents (Kostant,
    Amer. J. Math. 81, 1959; Humphreys, Reflection Groups and Coxeter
    Groups, 3.20)."""
    roots, n = _generate(simple)
    roots.sort()
    positive = [p for p, _ in roots]
    _certify(label, scale, positive, simple)
    n.append(0)
    order = prod((k + 2) ** (n[k] - n[k + 1]) for k in range(len(n) - 1))
    return RootSystem(label, family, len(simple), ambient, scale, tuple(positive),
                      tuple(simple), tuple([mask for _, mask in roots]), order)


# ---------------------------------------------------------------------------
# weights and representation numerics on a single factor


class DomInt(namedtuple("DomInt", ["dominant", "integral"])):
    __slots__ = ()


def coroot_labels(rs: RootSystem, v: Vector) -> tuple[int, tuple[int, ...]]:
    """(d, d <v, alpha_j^vee> over the simple roots), integers for d = v's
    integer scale times the L of RootSystem.coroot_images.  A reflection
    updates them by an integer Cartan row, so they stay integral."""
    m, (u,) = integer_images([v])
    big, coroots = rs.coroot_images
    return m * big, tuple([sum(map(mul, u, k)) for k in coroots])


def dominance(rs: RootSystem, lam: Vector) -> DomInt:
    d, labels = coroot_labels(rs, lam)
    return DomInt(all(p >= 0 for p in labels), all(p % d == 0 for p in labels))


def weyl_dim(rs: RootSystem, lam: Vector) -> int:
    """Dimension of the irreducible module with highest weight lam."""
    dom = dominance(rs, lam)
    if not (dom.dominant and dom.integral):
        raise ValueError(f"{lam} is not dominant integral for {rs.label}")
    # lam + rho and rho times 2 m scale, the roots at theirs: scales cancel in num / den
    m, (lam_int,) = integer_images([lam])
    lr = tuple([2 * rs.scale * a + m * b for a, b in zip(lam_int, rs.two_rho)])
    num = den = 1
    for a in rs.positive_images:
        num *= sum(map(mul, lr, a))
        den *= m * sum(map(mul, rs.two_rho, a))
    d, rem = divmod(num, den)
    if rem or d <= 0:
        raise ValueError(f"Weyl dimension formula gave {Q(num, den)} for {lam} on {rs.label}")
    return d


def omega_to_coords(rs: RootSystem, coeffs: Iterable) -> Vector:
    """Coordinates of sum_i c_i omega_i (fundamental-weight coefficients,
    Fractions or integers), combined on the integer images of both."""
    cs = tuple(coeffs)
    if len(cs) != rs.rank:
        raise ValueError(f"expected {rs.rank} coefficients for {rs.label}, got {len(cs)}")
    d, (u,) = integer_images([cs])
    m, weights = rs.fundamental_images
    return _rational(tuple([sum(map(mul, u, col)) for col in zip(*weights)]), d * m)


# ---------------------------------------------------------------------------
# composite spaces: ordered simple factors plus an abelian center


class Weight(namedtuple("Weight", ["factors", "center"], defaults=[()])):
    """Per-factor coordinate blocks plus center coordinates."""
    __slots__ = ()

    def __repr__(self) -> str:
        return f"Weight({self.factors}, center={self.center})"


class KSpace(namedtuple("KSpace", ["factors", "center_dim"], defaults=[0])):
    __slots__ = ()

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
    # coordinates as render.format_vector prints them: str(Fraction) is "p" or "p/q"
    for rs, v in zip(space.factors, w.factors):
        if len(v) != rs.ambient:
            raise ValueError(f"block ({','.join(map(str, v))}) has wrong length for {rs.label}")
    if len(w.center) != space.center_dim:
        raise ValueError(f"center block ({','.join(map(str, w.center))}) has wrong length")


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
    return Weight(tuple(rs.rho for rs in space.factors), (Q(0),) * space.center_dim)


def space_dominance(space: KSpace, lam: Weight) -> DomInt:
    """Dominance/integrality against every simple root; center ignored."""
    conform(space, lam)
    parts = [dominance(rs, v) for rs, v in zip(space.factors, lam.factors)]
    return DomInt(all(p.dominant for p in parts), all(p.integral for p in parts))


def space_weyl_dim(space: KSpace, lam: Weight) -> int:
    d = 1
    for rs, v in zip(space.factors, lam.factors):
        d *= weyl_dim(rs, v)
    return d


def lattice_period(space: KSpace, beta: Weight) -> Q:
    """Least t > 0 such that t*beta pairs integrally with every simple
    coroot: D / gcd(P) for the pairings P / D (see coroot_labels)."""
    conform(space, beta)
    scaled = [coroot_labels(rs, v) for rs, v in zip(space.factors, beta.factors)]
    big = lcm(*(d for d, _ in scaled))
    g = gcd(*(c * (big // d) for d, labels in scaled for c in labels))
    if g == 0:
        raise ValueError("beta pairs to zero with every simple coroot")
    return Q(big, g)


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
