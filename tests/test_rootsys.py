"""Root-system layer: constructions checked against an independent oracle,
plus frozen values for the data the rest of the package leans on."""

import dataclasses
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from minrep import rootsys
from minrep.registry import all_default_records
from minrep.rootsys import (
    KSpace,
    UnsupportedCartanType,
    Weight,
    dot,
    lattice_period,
    make_root_system,
    omega_to_coords,
    space_dominance,
    space_rho,
    space_weyl_dim,
    trace_free_canonical,
    vadd,
    vscale,
    weight,
    weight_add,
    weight_scale,
    weyl_dim,
)
from minrep.weyl import orthogonal_subsystem

import fraction_reference
from fraction_reference import (
    ALL_LABELS,
    LATTICE_TYPES,
    all_roots,
    bilinear,
    fraction_calls,
    pair_coroot,
    positive_roots,
    reflect,
    vec,
)


def closure_from_simples(simple):
    """Orbit of the simple roots under the reflections they generate.

    Independent reconstruction of the root set: no positive-system listing
    is consulted, only the simple roots and the reflection formula.
    """
    roots = set(simple) | {vscale(-1, a) for a in simple}
    while True:
        new = {reflect(r, a) for r in roots for a in simple} - roots
        if not new:
            return roots
        roots |= new


@pytest.mark.parametrize("label", ALL_LABELS)
def test_roots_match_reflection_closure(label):
    rs = make_root_system(label)
    assert all_roots(rs) == closure_from_simples(rs.simple)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_positive_half_is_the_rho_positive_half(label):
    rs = make_root_system(label)
    roots = all_roots(rs)
    assert len(rs.positive_images) * 2 == len(roots)
    assert all(dot(p, rs.rho) > 0 for p in positive_roots(rs))
    assert all(vscale(-1, p) in roots for p in positive_roots(rs))


@pytest.mark.parametrize("label,count", [
    ("A7", 28), ("B4", 16), ("C4", 16), ("D8", 56),
    ("G2", 6), ("F4", 24), ("E6", 36), ("E7", 63), ("E8", 120), ("A1d", 1),
])
def test_positive_root_counts(label, count):
    assert len(make_root_system(label).positive_images) == count


@pytest.mark.parametrize("label,rho", [
    ("C4", vec(4, 3, 2, 1)),
    ("B4", vec(Q(7, 2), Q(5, 2), Q(3, 2), Q(1, 2))),
    ("D6", vec(5, 4, 3, 2, 1, 0)),
    ("F4", vec(Q(11, 2), Q(5, 2), Q(3, 2), Q(1, 2))),
    ("E7", vec(0, 1, 2, 3, 4, 5, Q(-17, 2), Q(17, 2))),
    ("E6", vec(0, 1, 2, 3, 4, -4, -4, 4)),
    ("A1d", vec(1, -1)),
])
def test_rho_values(label, rho):
    assert make_root_system(label).rho == rho


@pytest.mark.parametrize("label,theta", [
    ("E8", vec(0, 0, 0, 0, 0, 0, 1, 1)),
    ("E7", vec(0, 0, 0, 0, 0, 0, -1, 1)),
    ("E6", vec(Q(1, 2), Q(1, 2), Q(1, 2), Q(1, 2), Q(1, 2), Q(-1, 2), Q(-1, 2), Q(1, 2))),
    ("F4", vec(1, 1, 0, 0)),
    ("G2", vec(-1, -1, 2)),
    ("C4", vec(2, 0, 0, 0)),
    ("B4", vec(1, 1, 0, 0)),
    ("D8", vec(1, 1, 0, 0, 0, 0, 0, 0)),
    ("A1d", vec(2, -2)),
])
def test_highest_roots(label, theta):
    assert make_root_system(label).highest_root == theta


def test_reducible_system_has_no_highest_root():
    assert make_root_system("D2").highest_root is None


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "E6", "F4", "G2", "A1d"])
def test_fundamental_weights_pair_as_delta(label):
    rs = make_root_system(label)
    for i, w in enumerate(rs.fundamental):
        for j, a in enumerate(rs.simple):
            assert pair_coroot(w, a) == (1 if i == j else 0)


def test_a_type_fundamental_weights_are_trace_free():
    rs = make_root_system("A5")
    for w in rs.fundamental:
        assert sum(w, Q(0)) == 0


def test_e6_fundamental_weight_coordinates():
    rs = make_root_system("E6")
    assert rs.fundamental[0] == vec(0, 0, 0, 0, 0, Q(-2, 3), Q(-2, 3), Q(2, 3))
    assert rs.fundamental[5] == vec(0, 0, 0, 0, 1, Q(-1, 3), Q(-1, 3), Q(1, 3))


@pytest.mark.parametrize("label,index,dim", [
    ("C3", 3, 14),    # last fundamental of sp(6)
    ("D8", 8, 128),   # half-spin
    ("B4", 4, 16),    # spin
    ("G2", 1, 7),
    ("F4", 4, 26),
    ("E6", 1, 27),
    ("E7", 7, 56),
    ("E8", 8, 248),
    ("A1d", 1, 2),
])
def test_weyl_dimension_frozen_values(label, index, dim):
    rs = make_root_system(label)
    assert weyl_dim(rs, rs.fundamental[index - 1]) == dim


def test_weyl_dimension_of_adjoint_is_root_count_plus_rank():
    for label in ["A4", "B3", "C4", "D5", "G2", "F4", "E6", "E7", "E8"]:
        rs = make_root_system(label)
        assert weyl_dim(rs, rs.highest_root) == 2 * len(rs.positive_images) + rs.rank


def test_weyl_dimension_rejects_non_dominant():
    rs = make_root_system("C3")
    with pytest.raises(ValueError):
        weyl_dim(rs, vec(1, 2, 0))
    with pytest.raises(ValueError):
        weyl_dim(rs, vec(Q(1, 2), 0, 0))


def test_omega_to_coords_round_trip():
    g2 = make_root_system("G2")
    lam = omega_to_coords(g2, [1, Q(1, 3)])
    assert [pair_coroot(lam, a) for a in g2.simple] == [1, Q(1, 3)]
    b3 = make_root_system("B3")
    lam = omega_to_coords(b3, [1, 1, Q(1, 2)])
    assert [pair_coroot(lam, a) for a in b3.simple] == [1, 1, Q(1, 2)]


def test_omega_to_coords_arity_check():
    with pytest.raises(ValueError):
        omega_to_coords(make_root_system("G2"), [1])


# a superscript two is a digit that int() refuses, and Arabic-Indic digits
# are ones that it reads
@pytest.mark.parametrize("bad", ["A0", "B0", "D1", "E9", "E5", "H3", "F5", "G3", "X2", "",
                                 "A\u00b2", "D\u0661\u0662"])
def test_unsupported_types_are_rejected(bad):
    with pytest.raises(UnsupportedCartanType):
        make_root_system(bad)


@pytest.mark.parametrize("label", ["A17", "B17", "C17", "D17", " D120 "])
def test_ranks_above_the_cap_are_refused_before_building(label, monkeypatch):
    built = []
    monkeypatch.setattr(rootsys, "from_simple", lambda *args: built.append(args))
    with pytest.raises(UnsupportedCartanType, match=f"rank above {rootsys.MAX_RANK}"):
        make_root_system(label)
    assert built == []


def naive_indecomposables(positive):
    """The positive roots outside the set of Fraction sums of two of them."""
    sums = {vadd(a, b) for a in positive for b in positive}
    return [p for p in positive if p not in sums]


def integer_indecomposables(rs):
    """The simple roots of rs that `_certify` accepts on the integer images
    of its positive roots, read back as Fraction roots, after checking that
    it refuses them with one missing or one extra positive root."""
    images = list(rs.positive_images)
    found = list(rs.simple_images)

    def certify(simple):
        rootsys._certify("t", rs.scale, images, simple)

    certify(found)
    for i in range(len(found)):
        with pytest.raises(ValueError, match="N-combination"):
            certify(found[:i] + found[i + 1:])
    for extra in [u for u in images if u not in found][:3]:
        with pytest.raises(ValueError, match="indecomposables"):
            certify(found + [extra])
    return sorted(p for p, u in zip(positive_roots(rs), images) if u in found)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_integer_indecomposables_match_fraction_sums(label):
    rs = make_root_system(label)
    assert integer_indecomposables(rs) == naive_indecomposables(positive_roots(rs))


def test_integer_indecomposables_match_on_catalog_beta_subsystems():
    pairs = {(rs, v) for r in all_default_records() for m in r.modules
             for rs, v in zip(r.space.factors, m.beta.factors)}
    checked = 0
    for rs, v in sorted(pairs, key=repr):
        sub = orthogonal_subsystem(rs, v)
        if not sub.rank:
            continue
        assert integer_indecomposables(sub) == naive_indecomposables(positive_roots(sub))
        checked += 1
    assert checked >= 20


def test_build_solves_nothing_and_weights_once(monkeypatch):
    # the simple-root walk certifies that every positive root is an
    # N-combination and generation gives the supports, so no build reads
    # weights, of a listed type or of a catalog beta-subsystem; the
    # fundamental weights are read off the supports on first use, and once
    pairs = {(rs.label, v) for r in all_default_records() for m in r.modules
             for rs, v in zip(r.space.factors, m.beta.factors)}
    expected = make_root_system("E8").fundamental
    calls = []
    prop = vars(rootsys.RootSystem)["fundamental_images"]  # count each computation
    monkeypatch.setattr(prop, "func", lambda rs, real=prop.func:
                        calls.append(rs.label) or real(rs))
    for label in ALL_LABELS:
        make_root_system.__wrapped__(label)
    subs = {orthogonal_subsystem(make_root_system.__wrapped__(label), v)
            for label, v in pairs}
    assert calls == []
    assert sum(1 for sub in subs if sub.rank) >= 30
    rs = make_root_system.__wrapped__("E8")
    assert rs.fundamental == expected
    assert omega_to_coords(rs, [1] * rs.rank) == rs.rho
    assert rs.highest_root is not None
    assert calls == ["E8"]


def test_build_refuses_a_simple_system_that_is_not_the_indecomposables():
    positive = [(1, -1, 0), (1, 0, -1), (0, 1, -1)]
    with pytest.raises(ValueError, match="indecomposables"):
        rootsys._certify("bad", 1, positive, [(1, -1, 0), (1, 0, -1)])


def test_build_refuses_a_simple_root_that_is_not_positive():
    # (1, 1) splits no positive root, the walk keeps only (2, 0), and 2 rho
    # = (2, 0) pairs to (a, a) with both; only (1, 1) not being listed
    # among the positive roots tells it apart
    with pytest.raises(ValueError, match="indecomposables"):
        rootsys._certify("bad", 1, [(2, 0)], [(2, 0), (1, 1)])


def tuple_walk(positive, two_rho):
    """`_certify`'s walk on tuples, with vector subtraction."""
    pos = set(positive)
    found = []
    for p in sorted(positive, key=lambda p: sum(a * b for a, b in zip(two_rho, p))):
        if not any(tuple(a - b for a, b in zip(p, q)) in pos for q in found):
            found.append(p)
    return found


def tuple_verdict(positive, simple):
    """`_certify`'s verdict at scale 1 on tuples: the simple roots it
    accepts, or the refusal it raises."""
    def idot(u, v):
        return sum(a * b for a, b in zip(u, v))

    two_rho = tuple(map(sum, zip(*positive)))
    found = tuple_walk(positive, two_rho)
    pos = set(positive)
    if not (set(simple) <= pos
            and not any(tuple(a - b for a, b in zip(s, q)) in pos
                        for s in simple for q in positive)):
        return "bad: simple system does not match indecomposables"
    for a in simple:
        if idot(two_rho, a) != idot(a, a):
            return f"bad: rho pairing is not 1 against {tuple(map(Q, a))}"
    for p in found:
        if p not in simple:
            return (f"bad: positive root {tuple(map(Q, p))} is not shown "
                    "an N-combination of simples")
    return tuple(simple)


def build_verdict(positive, simple):
    try:
        rootsys._certify("bad", 1, positive, simple)
    except ValueError as exc:
        return str(exc)
    return tuple(simple)


@st.composite
def vector_lists(draw):
    """Integer vectors of one length at a small or a wide width, with
    entries of both signs or none above 0 (so that the largest entry alone
    would undercount the width), closed under some sums so that many
    differences land in the list; and a `simple`: the roots the walk keeps,
    sorted, or drawn from the list plus perhaps one vector outside it."""
    dim = draw(st.integers(1, 4))
    width = draw(st.sampled_from([1, 2, 3, 10**6]))
    entry = st.integers(-width, draw(st.sampled_from([0, width])))
    vec_ = st.tuples(*[entry] * dim)
    base = draw(st.lists(vec_, min_size=1, max_size=6))
    pairs = draw(st.lists(st.tuples(st.integers(0, len(base) - 1),
                                    st.integers(0, len(base) - 1)), max_size=6))
    sums = [tuple(a + b for a, b in zip(base[i], base[j])) for i, j in pairs]
    positive = list(dict.fromkeys(base + sums))
    if draw(st.booleans()):
        return positive, sorted(tuple_walk(positive, tuple(map(sum, zip(*positive)))))
    simple = draw(st.lists(st.sampled_from(positive), max_size=4, unique=True))
    simple += draw(st.lists(vec_, max_size=1))
    return positive, simple


@given(vector_lists())
# 2 rho is the sum of the list: the split test's lookup of (1,0) - (-1,0)
# = (2,0) meets (-1,1), and the walk's of (-3,-1) - (0,-1) = (-3,0) meets
# (0,-1): packed at B = 3, each pair would collide, B = 2 max |c| + 1 in
# the first and B = 4 max c + 3 in the second
@example(([(1, 0), (-1, 0), (-1, 1)], [(-1, 0), (-1, 1), (1, 0)]))
@example(([(0, -1), (-3, -1)], [(-3, -1), (0, -1)]))
@settings(max_examples=300, deadline=None)
def test_packed_walk_and_split_test_match_tuples(case):
    # the packed forms must tell every difference the walk and the split
    # test meet apart from every listed vector, at any width
    positive, simple = case
    assert build_verdict(positive, simple) == tuple_verdict(positive, simple)


def test_build_refuses_a_bad_rho_pairing():
    # simple = indecomposables, but rho = (1, 1) pairs to 2 with both
    with pytest.raises(ValueError, match="rho pairing"):
        rootsys._certify("bad", 1, [(1, 0), (0, 1), (1, 1)], [(1, 0), (0, 1)])


def test_build_refuses_a_positive_root_that_is_not_an_n_combination():
    # (1, 0) is the only indecomposable and rho = (1/2, 0) pairs to 1 with
    # it; the multiples of (0, 1) decompose among themselves but lie outside
    # the span of the simple root
    positive = [(1, 0), (0, 1), (0, -1), (0, 2), (0, -2)]
    with pytest.raises(ValueError, match="N-combination"):
        rootsys._certify("bad", 1, positive, [(1, 0)])


def test_build_refuses_a_listing_only_the_definition_would_accept():
    # neither a nor b is a listed root plus another, rho pairs to 1 with
    # both, and c = a + b and d = 2c are N-combinations of them, so by the
    # definition {a, b} is the simple system; but neither d - a nor d - b is
    # listed, so the walk keeps d, which it never does on a positive system
    a, b = (2, 2, 2, 2, 0), (-3, -1, -1, -1, 2)
    c = tuple(x + y for x, y in zip(a, b))
    d = tuple(2 * x for x in c)
    with pytest.raises(ValueError, match=r"root \(Fraction\(-2, 1\).* not shown an N-comb"):
        rootsys._certify("bad", 1, [a, b, c, d], [a, b])


def test_each_build_packs_its_roots_once(monkeypatch):
    # a type and a catalog beta-subsystem alike, their positive roots
    # generated from their simple roots, pack both together: one packing,
    # one walk each; generation keys roots by coefficients and packs nothing
    pairs = {(rs.label, v) for r in all_default_records() for m in r.modules
             for rs, v in zip(r.space.factors, m.beta.factors)}
    calls = []
    real = rootsys._packing

    def counting(vectors):
        calls.append(len(vectors))
        return real(vectors)

    monkeypatch.setattr(rootsys, "_packing", counting)
    for label, v in sorted(pairs, key=repr):
        calls.clear()
        rs = make_root_system.__wrapped__(label)
        sub = orthogonal_subsystem(rs, v)
        assert calls == [len(rs.positive_images) + rs.rank,
                         len(sub.positive_images) + sub.rank]


CLASSICAL_LABELS = [f"{family}{rank}" for family, low in (("A", 1), ("B", 1), ("C", 1), ("D", 2))
                    for rank in range(low, rootsys.MAX_RANK + 1)]


def assert_same_system(rs, ref):
    """Every Fraction view, the positive roots and the roots (read off the
    images) equal to the Fraction reference's, tuples in order, and every
    coordinate of a view a Fraction."""
    read = {"positive": positive_roots(rs), "roots": all_roots(rs)}
    for field in dataclasses.fields(fraction_reference.ReferenceSystem):
        got = read[field.name] if field.name in read else getattr(rs, field.name)
        assert got == getattr(ref, field.name), field.name
    vectors = [*rs.simple, rs.rho, *rs.fundamental]
    if rs.highest_root is not None:
        vectors.append(rs.highest_root)
    assert all(type(c) is Q for v in vectors for c in v)


@pytest.mark.parametrize("label", sorted(set(ALL_LABELS + CLASSICAL_LABELS)))
def test_integer_construction_matches_the_fraction_reference(label):
    assert_same_system(make_root_system(label), fraction_reference.make_root_system(label))


def assert_same_subsystem(rs, v):
    """orthogonal_subsystem(rs, v) is the Fraction reference's system of
    the roots of rs orthogonal to v, and holds its images at rs's scale."""
    sub = orthogonal_subsystem(rs, v)
    roots = [a for a in all_roots(rs) if dot(a, v) == 0]
    ref = fraction_reference.root_system_from_roots(sub.label, roots, rs.rho)
    assert_same_system(sub, ref)
    assert sub.scale == rs.scale
    assert sub.positive_images == tuple(tuple(rs.scale * c for c in p)
                                        for p in ref.positive)


def test_catalog_subsystems_match_the_fraction_reference():
    pairs = {(rs, v) for r in all_default_records() for m in r.modules
             for rs, v in zip(r.space.factors, m.beta.factors)}
    for rs, v in sorted(pairs, key=repr):
        assert_same_subsystem(rs, v)
    assert len(pairs) >= 30


@pytest.mark.parametrize("label,v", [("E8", vec(0, 0, 0, 0, 0, 0, 1, 1)),
                                     ("G2", vec(-1, 0, 1)), ("D6", vec(1, 1, 0, 0, 0, 0)),
                                     ("D12", vec(1, 1, 1, 1, *[0] * 8))])
def test_golden_subsystems_match_the_fraction_reference(label, v):
    # the vectors of the `minrep weyl subsystem` golden files, and D8xA3
    # in D12, reducible above the catalog's ranks
    assert_same_subsystem(make_root_system(label), v)


@st.composite
def system_and_any_vector(draw):
    """A type and a rational vector: zero, a multiple of a root, or small
    coordinates, which are seldom dominant; perhaps shifted along the
    all-ones vector, which lies off the root span of the A types, G2 and
    A1d."""
    rs = make_root_system(draw(st.sampled_from([*LATTICE_TYPES, "E6", "E7", "E8"])))
    kind = draw(st.sampled_from(["zero", "root", "coordinates"]))
    small = st.sampled_from([Q(0), Q(0), Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(2)])
    if kind == "zero":
        v = (Q(0),) * rs.ambient
    elif kind == "root":
        v = vscale(draw(small.filter(bool)), draw(st.sampled_from(sorted(all_roots(rs)))))
    else:
        v = tuple(draw(small) for _ in range(rs.ambient))
    return rs, vadd(v, (draw(small),) * rs.ambient)


@given(system_and_any_vector())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_subsystems_off_the_dominant_chamber_match_the_fraction_reference(case):
    # the pull-back from the dominant chamber, on vectors of every kind
    assert_same_subsystem(*case)


def test_build_hashes_no_fraction(monkeypatch):
    # every check and every index of a build runs on the integer images
    hashed = []
    real = Q.__hash__

    def counting(q):
        hashed.append(q)
        return real(q)

    monkeypatch.setattr(Q, "__hash__", counting)
    for label in ("E8", "F4", "A1d"):
        make_root_system.__wrapped__(label)
    assert hashed == []


def test_fraction_calls_are_counted():
    assert "__new__" in fraction_calls(lambda: Q(1, 2))


@pytest.mark.parametrize("label", ALL_LABELS)
def test_construction_makes_no_fraction(label):
    assert fraction_calls(lambda: make_root_system.__wrapped__(label)) == []


@pytest.mark.parametrize("label,v", [("E8", (0, 0, 0, 0, 0, 0, 1, 1)), ("G2", (-1, 0, 1))])
def test_orthogonal_subsystem_makes_no_fraction(label, v):
    # the vectors of the `minrep weyl subsystem` golden files, as integers
    rs = make_root_system.__wrapped__(label)
    assert fraction_calls(lambda: orthogonal_subsystem(rs, v)) == []


def test_a_root_system_is_its_integers():
    assert rootsys.RootSystem._fields == (
        "label", "family", "rank", "ambient", "scale", "positive_images", "simple_images",
        "supports")


# ---------------------------------------------------------------------------
# composite spaces


def _space_d3_a1d():
    return KSpace((make_root_system("D3"), make_root_system("A1d")), center_dim=0)


def test_space_rho_and_casimir_blocks():
    sp = _space_d3_a1d()
    rho = space_rho(sp)
    assert rho == Weight((vec(2, 1, 0), vec(1, -1)), ())
    lam = weight(sp, (1, 0, 0), (1, -1))
    # the Casimir scalar <lam, lam + 2 rho> adds up block by block
    casimir = bilinear(sp, lam, weight_add(lam, weight_scale(2, rho)))
    assert casimir == dot(vec(1, 0, 0), vec(5, 2, 0)) + 6


def test_space_weyl_dim_multiplies_factors():
    sp = _space_d3_a1d()
    lam = weight(sp, (1, 0, 0), (1, -1))
    assert space_weyl_dim(sp, lam) == 6 * 2


def test_space_dominance_checks_every_factor():
    sp = _space_d3_a1d()
    assert space_dominance(sp, weight(sp, (1, 1, 0), (2, -2))) == (True, True)
    assert space_dominance(sp, weight(sp, (1, 1, 0), (-2, 2))).dominant is False
    assert space_dominance(sp, weight(sp, (Q(1, 2), 0, 0), (0, 0))).integral is False


def test_weight_arity_validation():
    sp = _space_d3_a1d()
    with pytest.raises(ValueError):
        weight(sp, (1, 0, 0))
    with pytest.raises(ValueError):
        weight(sp, (1, 0), (1, -1))
    with pytest.raises(ValueError):
        weight(sp, (1, 0, 0), (1, -1), center=(1,))


def test_lattice_period_values():
    # symplectic-type factor, beta twice a coordinate vector: period 1/2
    sp = KSpace((make_root_system("A3"),), center_dim=1)
    assert lattice_period(sp, weight(sp, (2, 0, 0, 0), center=(1,))) == Q(1, 2)
    spc = KSpace((make_root_system("C4"),), center_dim=0)
    assert lattice_period(spc, weight(spc, (2, 0, 0, 0))) == Q(1, 2)
    # orthogonal-type factor, beta a coordinate vector: period 1
    spb = KSpace((make_root_system("B3"),), center_dim=0)
    assert lattice_period(spb, weight(spb, (1, 0, 0))) == 1
    two = KSpace((make_root_system("D3"), make_root_system("A1d")), center_dim=0)
    assert lattice_period(two, weight(two, (1, 0, 0), (2, -2))) == 1


def test_lattice_period_rejects_central_beta():
    sp = KSpace((make_root_system("A1"),), center_dim=0)
    with pytest.raises(ValueError):
        lattice_period(sp, weight(sp, (1, 1)))


def test_lattice_period_matches_fraction_reference_on_catalog_betas():
    cases = dict.fromkeys((r.space, m.beta) for r in all_default_records() for m in r.modules)
    assert len(cases) >= 40
    for sp, beta in cases:
        assert lattice_period(sp, beta) == fraction_reference.lattice_period(sp, beta), beta


def test_trace_free_canonical_only_touches_a_type_blocks():
    sp = KSpace((make_root_system("A2"), make_root_system("B2"), make_root_system("A1d")),
                center_dim=1)
    lam = weight(sp, (2, 1, 0), (1, 0), (3, -1), center=(5,))
    can = trace_free_canonical(sp, lam)
    assert can.factors[0] == vec(1, 0, -1)
    assert can.factors[1] == vec(1, 0)
    assert can.factors[2] == vec(2, -2)
    assert can.center == vec(5)
    assert trace_free_canonical(sp, can) == can


def test_k_types_equal_mod_determinant_twists():
    sp = KSpace((make_root_system("A3"),), center_dim=0)
    a = weight(sp, (3, 2, 1, 0))
    b = weight(sp, (4, 3, 2, 1))
    c = weight(sp, (4, 3, 2, 0))
    assert trace_free_canonical(sp, a) == trace_free_canonical(sp, b)
    assert trace_free_canonical(sp, a) != trace_free_canonical(sp, c)


# ---------------------------------------------------------------------------
# property-based checks

rational = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@st.composite
def system_and_vector(draw):
    label = draw(st.sampled_from(["A3", "B3", "C3", "D4", "G2", "F4"]))
    rs = make_root_system(label)
    v = tuple(draw(rational) for _ in range(rs.ambient))
    return rs, v


@given(system_and_vector())
@settings(max_examples=60, deadline=None)
def test_reflection_is_isometric_involution(sv):
    rs, v = sv
    for a in rs.simple:
        w = reflect(v, a)
        assert reflect(w, a) == v
        assert dot(w, w) == dot(v, v)


@given(system_and_vector())
@settings(max_examples=60, deadline=None)
def test_reflection_permutes_the_root_set(sv):
    rs, _ = sv
    for a in rs.simple:
        assert {reflect(r, a) for r in all_roots(rs)} == all_roots(rs)


@st.composite
def space_and_weight(draw):
    """Up to three factors and a center; each block zero or rational."""
    labels = draw(st.lists(st.sampled_from(["A1", "A2", "B2", "C3", "D4", "G2", "F4", "A1d"]),
                           min_size=1, max_size=3))
    sp = KSpace(tuple(map(make_root_system, labels)), center_dim=draw(st.integers(0, 1)))
    blocks = [(Q(0),) * rs.ambient if draw(st.booleans())
              else tuple(draw(rational) for _ in range(rs.ambient)) for rs in sp.factors]
    return sp, weight(sp, *blocks, center=[draw(rational) for _ in range(sp.center_dim)])


@given(space_and_weight())
@settings(max_examples=80, deadline=None)
def test_lattice_period_matches_fraction_reference(case):
    sp, beta = case
    if all(pair_coroot(v, a) == 0 for rs, v in zip(sp.factors, beta.factors)
           for a in rs.simple):
        with pytest.raises(ValueError, match="pairs to zero"):
            lattice_period(sp, beta)
    else:
        assert lattice_period(sp, beta) == fraction_reference.lattice_period(sp, beta)


@given(st.lists(rational, min_size=4, max_size=4),
       st.sampled_from(range(7)))
@settings(max_examples=60, deadline=None)
def test_canonical_form_ignores_diagonal_shifts(coords, shift_num):
    sp = KSpace((make_root_system("A3"),), center_dim=0)
    lam = weight(sp, tuple(coords))
    shifted = weight(sp, tuple(c + shift_num for c in coords))
    assert trace_free_canonical(sp, lam) == trace_free_canonical(sp, shifted)
