"""Root-system layer: constructions checked against an independent oracle,
plus frozen values for the data the rest of the package leans on."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from minrep import rootsys
from minrep.registry import all_default_records
from minrep.rootsys import (
    KSpace,
    UnsupportedCartanType,
    Weight,
    bilinear,
    casimir_eigenvalue,
    dominance,
    dot,
    is_zero,
    k_types_equal,
    lattice_period,
    make_root_system,
    omega_to_coords,
    pair_coroot,
    reflect,
    root_system_from_roots,
    space_casimir,
    space_dominance,
    space_reflect,
    space_rho,
    space_weyl_dim,
    trace_free_canonical,
    vadd,
    vec,
    vscale,
    weight,
    weyl_dim,
    zero_weight,
)
from minrep.weyl import orthogonal_subsystem

ALL_LABELS = ["A1", "A2", "A5", "A7", "B1", "B2", "B3", "B4", "C1", "C2", "C3",
              "C4", "D2", "D3", "D4", "D6", "D8", "G2", "F4", "E6", "E7", "E8",
              "A1d"]


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
    assert set(rs.roots) == closure_from_simples(rs.simple)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_positive_half_is_the_rho_positive_half(label):
    rs = make_root_system(label)
    assert len(rs.positive) * 2 == len(rs.roots)
    assert all(dot(p, rs.rho) > 0 for p in rs.positive)
    assert all(vscale(-1, p) in rs.roots for p in rs.positive)


@pytest.mark.parametrize("label,count", [
    ("A7", 28), ("B4", 16), ("C4", 16), ("D8", 56),
    ("G2", 6), ("F4", 24), ("E6", 36), ("E7", 63), ("E8", 120), ("A1d", 1),
])
def test_positive_root_counts(label, count):
    assert len(make_root_system(label).positive) == count


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
        assert weyl_dim(rs, rs.highest_root) == len(rs.roots) + rs.rank


def test_weyl_dimension_rejects_non_dominant():
    rs = make_root_system("C3")
    with pytest.raises(ValueError):
        weyl_dim(rs, vec(1, 2, 0))
    with pytest.raises(ValueError):
        weyl_dim(rs, vec(Q(1, 2), 0, 0))


def test_casimir_killing_normalizes_adjoint_to_one():
    for label in ["A3", "B4", "C4", "D5", "G2", "F4", "E6", "E7", "E8"]:
        rs = make_root_system(label)
        assert casimir_eigenvalue(rs, rs.highest_root, "killing") == 1


def test_casimir_standard_values():
    a1d = make_root_system("A1d")
    assert casimir_eigenvalue(a1d, vec(1, -1)) == 6
    assert casimir_eigenvalue(a1d, vec(2, -2)) == 16
    c3 = make_root_system("C3")
    assert casimir_eigenvalue(c3, vec(0, 0, 0)) == 0
    assert casimir_eigenvalue(c3, c3.highest_root, "killing") == 1


def test_casimir_killing_undefined_for_reducible():
    with pytest.raises(ValueError):
        casimir_eigenvalue(make_root_system("D2"), vec(1, 0), "killing")


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


@pytest.mark.parametrize("bad", ["A0", "B0", "D1", "E9", "E5", "H3", "F5", "G3", "X2", ""])
def test_unsupported_types_are_rejected(bad):
    with pytest.raises(UnsupportedCartanType):
        make_root_system(bad)


def naive_indecomposables(positive):
    """The positive roots outside the set of Fraction sums of two of them."""
    sums = {vadd(a, b) for a in positive for b in positive}
    return [p for p in positive if p not in sums]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_integer_indecomposables_match_fraction_sums(label):
    positive = list(make_root_system(label).positive)
    assert rootsys._indecomposables(positive) == naive_indecomposables(positive)


def test_integer_indecomposables_match_on_catalog_beta_subsystems():
    pairs = {(rs, v) for r in all_default_records() for m in r.modules
             for rs, v in zip(r.space.factors, m.beta.factors)}
    checked = 0
    for rs, v in sorted(pairs, key=repr):
        sub = orthogonal_subsystem(rs, v).system
        if sub is None:
            continue
        positive = list(sub.positive)
        assert rootsys._indecomposables(positive) == naive_indecomposables(positive)
        checked += 1
    assert checked >= 20


def test_build_solves_once_for_heights_and_once_for_weights(monkeypatch):
    calls = []
    real = rootsys.solve_combination

    def counting(columns, targets):
        calls.append(len(targets))
        return real(columns, targets)

    monkeypatch.setattr(rootsys, "solve_combination", counting)
    positive, simple = rootsys._pos_E8()
    rs = rootsys._build("E8", "E", positive, simple)
    assert calls == [120, 8]
    assert rs.fundamental == make_root_system("E8").fundamental


def test_build_refuses_a_simple_system_that_is_not_the_indecomposables():
    positive = list(make_root_system("A2").positive)
    with pytest.raises(ValueError, match="indecomposables"):
        rootsys._build("bad", "sub", positive, [vec(1, -1, 0), vec(1, 0, -1)])


def test_build_refuses_a_bad_rho_pairing():
    # simple = indecomposables, but rho = (1, 1) pairs to 2 with both
    with pytest.raises(ValueError, match="rho pairing"):
        rootsys._build("bad", "sub", [vec(1, 0), vec(0, 1), vec(1, 1)],
                       [vec(1, 0), vec(0, 1)])


def test_build_refuses_a_positive_root_that_is_not_an_n_combination():
    # (1, 0) is the only indecomposable and rho = (1/2, 0) pairs to 1 with
    # it; the multiples of (0, 1) decompose among themselves but lie outside
    # the span of the simple root
    positive = [vec(1, 0), vec(0, 1), vec(0, -1), vec(0, 2), vec(0, -2)]
    with pytest.raises(ValueError, match="N-combination"):
        rootsys._build("bad", "sub", positive, [vec(1, 0)])


def test_embedded_system_from_long_roots_of_g2():
    g2 = make_root_system("G2")
    longs = [r for r in g2.roots if dot(r, r) == 6]
    sub = root_system_from_roots("G2-long", longs, g2.rho)
    assert len(sub.positive) == 3 and sub.rank == 2
    # three positive roots of equal length with pairwise product -3: type A2
    assert all(dot(p, p) == 6 for p in sub.positive)
    assert {dot(sub.simple[0], sub.simple[1])} == {-3}


def test_embedded_system_rejects_chamber_on_a_wall():
    g2 = make_root_system("G2")
    with pytest.raises(ValueError):
        root_system_from_roots("bad", g2.roots, vec(1, 1, 1))


# ---------------------------------------------------------------------------
# composite spaces


def _space_d3_a1d():
    return KSpace((make_root_system("D3"), make_root_system("A1d")), center_dim=0)


def test_space_rho_and_casimir_blocks():
    sp = _space_d3_a1d()
    rho = space_rho(sp)
    assert rho == Weight((vec(2, 1, 0), vec(1, -1)), ())
    lam = weight(sp, (1, 0, 0), (1, -1))
    assert space_casimir(sp, lam) == dot(vec(1, 0, 0), vec(5, 2, 0)) + 6


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
    assert k_types_equal(sp, a, b)
    assert not k_types_equal(sp, a, c)


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
        assert {reflect(r, a) for r in rs.roots} == set(rs.roots)


@given(st.lists(rational, min_size=4, max_size=4),
       st.sampled_from(range(7)))
@settings(max_examples=60, deadline=None)
def test_canonical_form_ignores_diagonal_shifts(coords, shift_num):
    sp = KSpace((make_root_system("A3"),), center_dim=0)
    lam = weight(sp, tuple(coords))
    shifted = weight(sp, tuple(c + shift_num for c in coords))
    assert k_types_equal(sp, lam, shifted)
