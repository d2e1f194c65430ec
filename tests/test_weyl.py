"""Weyl layer: counted orders against closed forms and root heights,
enumeration, longest elements, orthogonal subsystems, and the
line-preserver search on known data."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction as Q
from itertools import combinations
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from minrep import rootsys, weyl
from minrep.linalg import integer_images
from minrep.registry import all_default_records
from minrep.rootsys import (
    KSpace,
    RootSystem,
    coroot_labels,
    dot,
    make_root_system,
    vscale,
    weight,
)
from minrep.weyl import (
    BudgetExceededError,
    WeylElement,
    WeylWord,
    apply,
    as_element,
    compose,
    line_preservers,
    longest_element,
    longest_product,
    orthogonal_subsystem,
    space_beta_subsystems,
    space_group_order,
    type_label,
    word,
)

from fraction_reference import (
    ALL_LABELS,
    LATTICE_TYPES,
    all_roots,
    apply_element,
    apply_word,
    element_blocks,
    fraction_calls,
    height_partition_order,
    identity,
    matmul,
    matvec,
    orbit_closure,
    orbit_size,
    pair_coroot,
    parabolic_chain_order,
    positive_roots,
    reflect,
    vec,
)
from brute_reference import off_span_part, reference_brute
from kernel_reference import reference_survivors

H = Q(1, 2)
A1D = make_root_system("A1d")


def line(letter):
    """A Fraction vector on the root line of a mirror letter (see
    rootsys.mirror); reflections only see the line."""
    return vec(*letter[0])


# ---------------------------------------------------------------------------
# orders and enumeration


CLOSED_FORM_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120,
    "B2": 8, "B3": 48, "B4": 384,
    "C2": 8, "C3": 48, "C4": 384,
    "D3": 24, "D4": 192, "D5": 1920, "D6": 23040,
    "G2": 12, "F4": 1152, "E6": 51840, "E7": 2903040, "E8": 696729600,
    "A1d": 2, "D2": 4,
}


# every type make_root_system builds
TYPES = ([f"{family}{n}" for family, least in (("A", 1), ("B", 1), ("C", 1), ("D", 2))
          for n in range(least, rootsys.MAX_RANK + 1)]
         + ["E6", "E7", "E8", "F4", "G2", "A1d"])
# the types of TYPES with |W| <= 10^6 (test_group_order_matches_root_heights
# checks the list), whose whole group orbit_size walks
WALKED = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(1, 8)]
          + [f"C{n}" for n in range(1, 8)] + [f"D{n}" for n in range(2, 8)]
          + ["E6", "F4", "G2", "A1d"])
# the types of ALL_LABELS with |W| <= 10^5, chosen without the kernel
KERNEL_LABELS = [label for label in ALL_LABELS
                 if height_partition_order(make_root_system(label)) <= 10 ** 5]


@pytest.mark.parametrize("label,order", sorted(CLOSED_FORM_ORDERS.items()))
def test_group_order_closed_forms(label, order):
    assert make_root_system(label).order == order


def test_group_order_matches_root_heights():
    # Kostant's height partition, read off the generated roots, against the
    # same formula on Fraction heights and against orbit-stabilizer on the
    # kernel, on every buildable type and on each distinct beta-subsystem of
    # the catalog
    systems = [make_root_system(label) for label in TYPES]
    systems += dict.fromkeys(sub for r in all_default_records() for m in r.modules
                             for sub in space_beta_subsystems(r.space, m.beta))
    assert len(systems) == 69 + 34
    for rs in systems:
        assert rs.order == height_partition_order(rs) == parabolic_chain_order(rs), rs.label
    assert [label for label, rs in zip(TYPES, systems) if rs.order <= 10 ** 6] == WALKED


@pytest.mark.parametrize("label", WALKED)
def test_orbit_enumeration_matches_closed_form(label):
    # the whole group, one element per point of the regular orbit
    rs = make_root_system(label)
    order = orbit_size(rs)
    assert order == rs.order
    assert order == CLOSED_FORM_ORDERS.get(label, order)


def decoded(orbit, state):
    """A packed kernel state (see weyl._Orbit) as one flat tuple: the labels
    of the start block, then those of each tracked block."""
    return sum((orbit.labels(state, t) for t in range(orbit.blocks)), ())


def _peak_bytes(run):
    tracemalloc.start()
    try:
        out = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_orbit_enumeration_e6():
    # the reverse search keeps neither a visited set nor a list of states,
    # so its memory does not grow with the 51840 elements
    rs = make_root_system("E6")
    size, peak = _peak_bytes(lambda: orbit_size(rs))
    assert size == 51840
    assert peak < 2 ** 20
    # nor when it tracks two vectors
    tracked = (coroot_labels(rs, rs.highest_root)[1], coroot_labels(rs, rs.rho)[1])
    orbit = weyl._orbit(rs, tracked)
    widths = Counter()

    def count(state):
        widths[len(decoded(orbit, state))] += 1
        return False

    _, peak = _peak_bytes(lambda: weyl._survivors(orbit, [count]))
    assert widths == {3 * rs.rank: 51840}
    assert peak < 2 ** 20


def enumerate_group(rs):
    """Every element of W(rs) exactly once, as single-block elements."""
    (words,) = weyl._survivors(weyl._orbit(rs), [None])
    return weyl._elements((rs,), [[words]])


def _reflection_matrix(a):
    n = len(a)
    return tuple(tuple((1 if i == j else 0) - 2 * a[i] * a[j] / dot(a, a)
                       for j in range(n)) for i in range(n))


def _reflection_closure(rs):
    """Reference: the group the simple reflections generate, by a naive
    breadth-first search over dense matrices."""
    gens = [_reflection_matrix(a) for a in rs.simple]
    group = {identity(rs.ambient)}
    frontier = group
    while frontier:
        frontier = {matmul(m, g) for m in frontier for g in gens} - group
        group |= frontier
    return group


@pytest.mark.parametrize("label", ["B3", "G2", "D4", "F4"])
def test_enumeration_equals_reflection_closure(label):
    rs = make_root_system(label)
    elements = [element_blocks(el)[0] for el in enumerate_group(rs)]
    assert len(elements) == CLOSED_FORM_ORDERS[label]
    assert set(elements) == _reflection_closure(rs)


@pytest.mark.parametrize("label", ["B3", "G2", "D4", "F4"])
def test_enumerated_words_are_reduced(label):
    # Each word must spell the element whose state it comes with, and be
    # reduced: its length is the number of positive roots its element w
    # sends negative.  (w p, rho) = (p, w^-1 rho), so those are the
    # positive roots that pair negatively with w^-1 rho.
    rs = make_root_system(label)
    d, start = coroot_labels(rs, rs.rho)
    orbit = weyl._orbit(rs, (start,))
    states = []

    def keep(state):
        states.append(decoded(orbit, state))
        return True

    (words,) = weyl._survivors(orbit, [keep])
    assert len(words) == CLOSED_FORM_ORDERS[label]
    for letters, state in zip(words, states, strict=True):
        w_rho = rs.rho
        for a in reversed(letters):
            w_rho = reflect(w_rho, line(a))
        # the state holds the labels of w(2 rho) and d times those of w(rho)
        ref = tuple(pair_coroot(w_rho, a) for a in rs.simple)
        assert state == tuple(2 * c for c in ref) + tuple(d * c for c in ref)
        w_inv_rho = rs.rho
        for a in letters:
            w_inv_rho = reflect(w_inv_rho, line(a))
        assert len(letters) == sum(dot(p, w_inv_rho) < 0 for p in positive_roots(rs))


@pytest.mark.parametrize("blocks", [0, 1, 2])
@pytest.mark.parametrize("label", KERNEL_LABELS)
def test_survivors_match_the_reference_kernel(label, blocks):
    # reading the first descent off the path and testing only the Dynkin
    # neighbours after it walks the same tree as scanning and testing every
    # letter: the same states in the same order, and the same words
    rs = make_root_system(label)
    tracked = (coroot_labels(rs, rs.rho)[1], coroot_labels(rs, rs.simple[0])[1])[:blocks]
    orbit = weyl._orbit(rs, tracked)
    got, want = [], []

    def keep(state):
        got.append(decoded(orbit, state))
        return True

    def last_positive(state):
        return decoded(orbit, state)[-1] > 0

    def reference_keep(state):
        want.append(state)
        return True

    assert (weyl._survivors(orbit, [keep, last_positive])
            == reference_survivors(rs, tracked, (reference_keep, lambda state: state[-1] > 0)))
    assert got == want
    assert len(got) == rs.order


def test_survivors_at_rank_zero():
    # one point, the root, with the empty word: it passes every test, as in
    # the reference
    rs = orthogonal_subsystem(make_root_system("A1"), make_root_system("A1").simple[0])
    assert rs.rank == 0
    orbit = weyl._orbit(rs, ((),))
    assert orbit.root == 0
    tests = [None, lambda state: orbit.labels(state, 1) == (),
             lambda state: decoded(orbit, state) == (), lambda state: state == 0]
    assert weyl._survivors(orbit, tests) == [[[]]] * 4
    assert reference_survivors(rs, ((),), [lambda state: state == ()]) == [[[]]]
    assert rs.order == 1


@pytest.mark.parametrize("label", KERNEL_LABELS)
def test_labels_stay_within_the_width_bound(label):
    # over each full walk the kernel tests make (2 rho carrying rho and the
    # first simple root, or the highest root when there is one; every
    # fundamental weight), no label exceeds 6 sum |l| of the worst block,
    # and that bound fits the field the kernel picks, sign included
    rs = make_root_system(label)
    walks = [((2,) * rs.rank, (coroot_labels(rs, rs.rho)[1], coroot_labels(rs, v)[1]))
             for v in (rs.simple[0], rs.highest_root) if v is not None]
    walks += [(tuple(int(j == k) for j in range(rs.rank)), ()) for k in range(rs.rank)]
    for start, tracked in walks:
        orbit = weyl._orbit(rs, tracked, start)
        bound = weyl._label_bound((start, *tracked))
        assert bound < 2 ** (orbit.width - 1)
        largest = 0

        def see(state):
            nonlocal largest
            largest = max(largest, *map(abs, decoded(orbit, state)))
            return False

        weyl._survivors(orbit, [see])
        assert largest <= bound


@pytest.mark.parametrize("label", ["B3", "G2", "D4", "F4"])
def test_compiled_forms_read_as_the_decoded_labels(label):
    # _nonnegative compiles each form to its nonzero terms on the biased
    # fields, the bias folded into the constant; at every state of a full
    # walk carrying a fundamental weight (zero labels) and rho, it must
    # agree with evaluating every form on the decoded block, in any order
    rs = make_root_system(label)
    n = rs.rank
    orbit = weyl._orbit(rs, (coroot_labels(rs, rs.fundamental[0])[1],
                             coroot_labels(rs, rs.rho)[1]))
    rng = random.Random(label)
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    form_lists = [
        [],
        [((0,) * n, 0)], [((0,) * n, -1)],
        [(unit[0], 0), (tuple(-c for c in unit[-1]), 3)],
        # the first form passes wherever the rest may fail: each is read
        [((0,) * n, 5), (tuple(range(-1, n - 1)), -2), (unit[1], 1)],
    ]
    form_lists += [[(tuple(rng.choice((-3, -1, 0, 0, 1, 2)) for _ in range(n)),
                     rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))]
                   for _ in range(12)]
    checks = [(forms, block, [weyl._nonnegative(ordered, orbit, block)
                              for ordered in (forms, forms[::-1],
                                              rng.sample(forms, len(forms)))])
              for forms in form_lists for block in (1, 2)]
    outcomes = Counter()

    def see(state):
        for forms, block, compiled in checks:
            x = orbit.labels(state, block)
            want = all(sum(map(mul, c, x)) + k >= 0 for c, k in forms)
            assert [check(state) for check in compiled] == [want] * 3, (forms, block)
            outcomes[want] += 1
        return False

    weyl._survivors(orbit, [see])
    assert outcomes[True] and outcomes[False]
    assert sum(outcomes.values()) == len(checks) * rs.order


def test_equal_key_with_a_target_outside_the_fields_matches_nothing():
    # _flips compares each state with the packed state of -v, which _orbit
    # builds at the width and layout of v's walk: it matches exactly the
    # states whose labels are those of -v (one point; w_l = -1 on B3).
    rs = make_root_system("B3")
    for labels in [(2, 2, 2), (1, 0, 0), (0, 0, 1), (0, 1, 1)]:
        orbit = weyl._orbit(rs, (), labels)
        minus = tuple(-c for c in labels)
        target = weyl._orbit(rs, (), minus)
        assert (target.width, target.blocks) == (orbit.width, orbit.blocks)
        packed, by_labels = weyl._survivors(orbit, [lambda state: state == target.root,
                                                    lambda state: orbit.labels(state, 0) == minus])
        assert packed == by_labels and len(packed) == 1, labels
    # A target outside the fields could not be packed so: on the start
    # block alone the fields of one block are adjacent, and a label one
    # field width above (below) the root's, with the next label one less
    # (more), packs to the root's own state.  No point has such a label.
    orbit = weyl._orbit(rs)
    wide = 1 << orbit.width
    far = [(2 + wide, 1, 2), (2 - wide, 3, 2)]
    tests = [lambda state, t=t: orbit.labels(state, 0) == t for t in [(2, 2, 2), *far]]
    assert weyl._survivors(orbit, tests) == [[[]], [], []]


def _walked_points(words, act, root):
    """The image of `root` under each word of a walk, in order: a node's
    word is its parent's with one more letter in front, and the walk
    visits the parent first."""
    point = {(): root}
    for letters in map(tuple, words[1:]):
        point[letters] = act(letters[0], point[letters[1:]])
    return [point[tuple(letters)] for letters in words]


@pytest.mark.parametrize("label", KERNEL_LABELS)
def test_beta_orbit_words_times_the_stabilizer_walk_give_each_element_once(label):
    # every w in W is x v for exactly one word x of the orbit walk of a
    # dominant beta and one v in W_beta, the group of the roots orthogonal
    # to beta: for beta each fundamental weight, the highest root, 2 rho
    # and 0, the points x v (2 rho) are the reference orbit of 2 rho, each
    # once, and the empty word, walked first, is the only x that fixes beta
    rs = make_root_system(label)
    want = []
    reference_survivors(rs, (), [lambda state: want.append(state)])
    want.sort()
    _, r = weyl._tracked_image(rs, vscale(2, rs.rho))
    _, coroots = rs.coroot_images
    unit = sum(map(mul, r, coroots[0])) // 2
    index = {m: i for i, m in enumerate(rs.simple_mirrors)}

    def reflected_labels(letter, points):
        # labels of s_i u from those of u, by Cartan row i
        i = index[letter]
        out = []
        for p in points:
            q = list(p)
            for j, a in rs.cartan_rows[i]:
                q[j] -= p[i] * a
            out.append(tuple(q))
        return out

    betas = [*rs.fundamental, rs.highest_root, vscale(2, rs.rho), (Q(0),) * rs.ambient]
    for beta in (b for b in betas if b is not None):
        start = coroot_labels(rs, beta)[1]
        (cosets,) = weyl._survivors(weyl._orbit(rs, (), start), [None])
        assert cosets[0] == []
        fixed = _walked_points(cosets, reflected_labels, [start])
        assert [x for x, (p,) in zip(cosets, fixed) if p == start] == [[]]
        sub = orthogonal_subsystem(rs, beta)
        (stabilizer,) = weyl._survivors(weyl._orbit(sub), [None])
        v_rho = [tuple(sum(map(mul, u, k)) // unit for k in coroots)
                 for u in _walked_points(stabilizer, lambda m, u: weyl._reflected([m], [u])[0], r)]
        got = sorted(p for points in _walked_points(cosets, reflected_labels, v_rho)
                     for p in points)
        assert len(cosets) * len(stabilizer) == len(want), (label, beta)
        assert got == want, (label, beta)


@pytest.mark.parametrize("label", KERNEL_LABELS)
def test_survivors_walk_orbits_with_zero_labels(label):
    # from the labels of a fundamental weight, under W and, as
    # parabolic_chain_order walks them, under the parabolic of the first n
    # nodes, built as its own system, from the last one's weight: one word
    # per point of the Fraction orbit, its state the point's labels on those
    # n coroots
    rs = make_root_system(label)
    cases = ([(rs.rank, k) for k in range(rs.rank)]
             + [(n, n - 1) for n in range(1, rs.rank)])
    for n, k in cases:
        walked = rs if n == rs.rank else rootsys.from_simple(
            "sub", "sub", rs.ambient, rs.scale, list(rs.simple_images[:n]))
        orbit = weyl._orbit(walked, (), tuple(int(j == k) for j in range(n)))
        states = []

        def keep(state):
            states.append(decoded(orbit, state))
            return True

        (words,) = weyl._survivors(orbit, [keep])
        # a node's word is its parent's with one more letter in front, and
        # the walk visits the parent first
        point = {(): rs.fundamental[k]}
        for letters in map(tuple, words[1:]):
            point[letters] = reflect(point[letters[1:]], line(letters[0]))
        points = [point[tuple(letters)] for letters in words]
        assert len(set(points)) == len(points)
        assert set(points) == orbit_closure(rs.simple[:n], rs.fundamental[k])
        assert states == [tuple(pair_coroot(v, a) for a in rs.simple[:n]) for v in points]


def test_enumeration_budget_refusal_names_the_order():
    rs = make_root_system("E7")
    with pytest.raises(BudgetExceededError) as info:
        weyl._require_within(rs.order, 10 ** 6, rs.label)
    assert "2903040" in str(info.value)
    assert info.value.order == 2903040


def test_enumerated_elements_are_distinct_orthogonal_root_permutations():
    rs = make_root_system("B3")
    seen = set()
    eye = identity(3)
    for el in enumerate_group(rs):
        (m,) = element_blocks(el)
        assert m not in seen
        seen.add(m)
        transpose = tuple(zip(*m))
        assert matmul(m, transpose) == eye
        assert {matvec(m, r) for r in all_roots(rs)} == all_roots(rs)
    assert len(seen) == 48


# ---------------------------------------------------------------------------
# words, elements, longest elements


def _single(label):
    rs = make_root_system(label)
    return rs, KSpace((rs,), 0)


def identity_element(sp):
    """The identity, held as S times the identity matrix per factor, S the
    factor's lattice scale."""
    scales = tuple(rs.lattice_scale for rs in sp.factors)
    el = WeylElement(tuple(tuple(tuple(s * c for c in row) for row in identity(rs.ambient))
                           for rs, s in zip(sp.factors, scales)), scales)
    assert element_blocks(el) == tuple(identity(rs.ambient) for rs in sp.factors)
    return el


def test_empty_word_is_identity():
    rs, sp = _single("C3")
    assert as_element(sp, word(sp, [])) == identity_element(sp)


def test_word_letters_must_lie_on_root_lines():
    rs, sp = _single("C3")
    with pytest.raises(ValueError):
        word(sp, [(0, (1, 1, 1))])
    with pytest.raises(ValueError):
        word(sp, [(1, (1, 0, 0))])
    with pytest.raises(ValueError, match="not on a root line"):
        word(sp, [(0, (0, 0, 0))])
    # any nonzero multiple of a root is accepted as a letter
    sp2 = KSpace((A1D,), 0)
    w = word(sp2, [(0, (1, -1))])
    assert apply(sp2, w, weight(sp2, (5, 3))) == weight(sp2, (3, 5))


def test_apply_word_matches_apply_element():
    rs, sp = _single("B3")
    w = word(sp, [(0, (1, -1, 0)), (0, (0, 0, 1)), (0, (0, 1, 1))])
    lam = weight(sp, (4, 1, -2))
    assert apply(sp, w, lam) == apply_word(w, lam) == weight(sp, (2, 4, 1))
    assert apply_element(as_element(sp, w), lam) == apply_word(w, lam)


def test_apply_takes_only_words():
    # element matrices are compared, never applied
    rs, sp = _single("B3")
    el = as_element(sp, word(sp, [(0, (0, 0, 1))]))
    with pytest.raises(TypeError, match="cannot apply WeylElement"):
        apply(sp, el, weight(sp, (4, 1, -2)))
    with pytest.raises(TypeError, match="cannot apply tuple"):
        apply(sp, ((0, (0, 0, 1)),), weight(sp, (4, 1, -2)))


def test_rightmost_letter_acts_first():
    rs, sp = _single("A2")
    # s(e1-e2) after s(e2-e3): (a,b,c) -> (a,c,b) -> (c,a,b)
    w = word(sp, [(0, (1, -1, 0)), (0, (0, 1, -1))])
    assert apply(sp, w, weight(sp, (1, 2, 3))) == weight(sp, (3, 1, 2))


@pytest.mark.parametrize("label", ["C4", "D6", "B3", "F4"])
def test_longest_element_acts_as_minus_one_when_it_does(label):
    rs, sp = _single(label)
    wl = as_element(sp, longest_element(rs))
    assert matvec(element_blocks(wl)[0], rs.rho) == vscale(-1, rs.rho)
    neg = tuple(tuple(-Q(i == j) for j in range(rs.ambient)) for i in range(rs.ambient))
    assert element_blocks(wl)[0] == neg


def test_longest_element_of_g2_negates_the_root_span():
    rs, sp = _single("G2")
    m = element_blocks(as_element(sp, longest_element(rs)))[0]
    for r in all_roots(rs):
        assert matvec(m, r) == vscale(-1, r)
    # the direction orthogonal to every root is fixed
    assert matvec(m, vec(1, 1, 1)) == vec(1, 1, 1)


def test_longest_element_of_a_type_is_coordinate_reversal():
    rs, sp = _single("A3")
    wl = as_element(sp, longest_element(rs))
    assert matvec(element_blocks(wl)[0], vec(5, 7, 11, 13)) == vec(13, 11, 7, 5)


@pytest.mark.parametrize("label", ["A2", "A5", "B4", "C3", "D3", "D4", "E6", "E7", "A1d"])
def test_longest_element_properties(label):
    rs, sp = _single(label)
    w = longest_element(rs)
    assert len(w.letters) == len(positive_roots(rs))
    wl = as_element(sp, w)
    m = element_blocks(wl)[0]
    assert matvec(m, rs.rho) == vscale(-1, rs.rho)
    assert matmul(m, m) == identity(rs.ambient)
    for a in rs.simple:
        assert 2 * dot(matvec(m, rs.rho), a) / dot(a, a) == -1


def fraction_descent(simple, u):
    """Reference: greedy descent of u on Fraction dot products, reflecting
    in the first simple root that pairs negatively with it.  Returns the
    letters in the order applied and the point reached."""
    letters = []
    while True:
        for a in simple:
            if dot(u, a) < 0:
                letters.append(a)
                u = reflect(u, a)
                break
        else:
            return letters, u


def catalog_beta_subsystems():
    """The nonempty beta-orthogonal subsystems of the catalog's factors."""
    pairs = {(rs, v) for r in all_default_records() for m in r.modules
             for rs, v in zip(r.space.factors, m.beta.factors)}
    subs = [orthogonal_subsystem(rs, v) for rs, v in sorted(pairs, key=repr)]
    return [sub for sub in subs if sub.rank]


def _check_longest_against_fraction_descent(rs):
    letters, end = fraction_descent(rs.simple, vscale(-1, rs.rho))
    assert end == rs.rho
    assert longest_element(rs, 3).letters == tuple((3, a) for a in letters)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_longest_element_matches_fraction_descent(label):
    _check_longest_against_fraction_descent(make_root_system(label))


def test_longest_element_matches_fraction_descent_on_catalog_beta_subsystems():
    subs = catalog_beta_subsystems()
    assert len(subs) >= 20
    for sub in subs:
        _check_longest_against_fraction_descent(sub)


def _check_cascade(rs):
    """Kostant's cascade: at most rank mutually orthogonal letters whose
    element is that of the reduced longest word."""
    letters = rs.cascade
    assert len(letters) <= rs.rank
    assert all(not sum(map(mul, s, t)) for (s, _), (t, _) in combinations(letters, 2))
    reduced = [rs.simple_mirrors[i] for i in rs.longest_word]
    assert weyl._matrix(rs, letters) == weyl._matrix(rs, reduced)
    assert weyl._longest_words([rs]) == [list(letters)]


@pytest.mark.parametrize("label", ALL_LABELS + ["B16", "C16", "D16"])
def test_cascade_is_the_longest_element(label):
    _check_cascade(make_root_system(label))


def test_cascade_is_the_longest_element_on_catalog_beta_subsystems():
    subs = catalog_beta_subsystems()
    assert len(subs) >= 20
    for sub in subs:
        _check_cascade(sub)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_cascade_certificate_refuses_a_dropped_or_swapped_root(monkeypatch, label):
    # the product of the cascade's reflections must send 2 rho to -2 rho;
    # dropping one root r, or putting another positive root in its place,
    # multiplies that product by s(r) or by s(r) s(other), never 1
    rs = make_root_system.__wrapped__(label)
    picks = rootsys._cascade_roots(rs)
    assert len(rs.cascade) == len(picks)
    others = [p for p in rs.positive_images if p not in picks]
    mutants = [picks[:j] + picks[j + 1:] for j in range(len(picks))]
    mutants += [picks[:j] + [other] + picks[j + 1:]
                for j in range(len(picks)) for other in {*others[:1], *others[-1:]}]
    for mutant in mutants:
        monkeypatch.setattr(rootsys, "_cascade_roots", lambda _, m=mutant: m)
        rs.__dict__.pop("cascade", None)
        with pytest.raises(AssertionError, match=rf"^{label}: the cascade does not "
                                                 "send 2 rho to -2 rho$"):
            rs.cascade


def test_label_descent_of_xi0_matches_fraction_descent():
    # the chamber strategy descends each xi0 block in W_beta; the factor's
    # whole group is checked too
    checked = 0
    for r in all_default_records():
        if r.hermitian or r.xi0 is None:
            continue
        for m in r.modules:
            subs = space_beta_subsystems(r.space, m.beta)
            for rs, sub, xi in zip(r.space.factors, subs, r.xi0.factors):
                for system in (rs, sub):
                    letters, labels = system.descend(
                        [pair_coroot(xi, a) for a in system.simple])
                    ref_letters, end = fraction_descent(system.simple, xi)
                    assert [system.simple[i] for i in letters] == ref_letters
                    assert labels == [pair_coroot(end, a) for a in system.simple]
                    checked += bool(letters)
    assert checked >= 10


def test_longest_element_is_computed_once_per_system(monkeypatch):
    rs = orthogonal_subsystem(make_root_system("E8"), vec(0, 0, 0, 0, 0, 0, 1, 1))
    first = longest_element(rs, 1)
    calls = []
    monkeypatch.setattr(RootSystem, "descend", lambda *a: calls.append(a))
    assert longest_element(rs, 1) == first
    assert longest_element(rs, 0).letters == tuple((0, a) for _, a in first.letters)
    assert calls == []


def test_per_system_data_is_computed_once(monkeypatch):
    # group orders, type labels, the longest word and orthogonal subsystems
    # read data kept on the RootSystem: a second round on the same system
    # descends and builds nothing
    rs = make_root_system.__wrapped__("E7")
    calls = []

    def counting(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    def round_on_rs():
        sub = orthogonal_subsystem(rs, rs.highest_root)
        return (rs.order, type_label(rs), longest_element(rs),
                sub, sub.order, type_label(sub), longest_element(sub))

    for module in (rootsys, weyl):
        monkeypatch.setattr(module, "from_simple", counting("from_simple", module.from_simple))
    monkeypatch.setattr(RootSystem, "descend", counting("descend", RootSystem.descend))
    first = round_on_rs()
    assert set(calls) == {"from_simple", "descend"}
    calls.clear()
    assert round_on_rs() == first
    assert calls == []
    assert first[:2] == (2903040, "E7")
    assert first[4:6] == (23040, "D6")


def test_space_longest_element_spans_all_factors():
    # with rank-0 subsystems, w_subs,l = 1 and longest_product is w_l
    sp = KSpace((make_root_system("C3"), A1D), 0)
    none = [orthogonal_subsystem(rs, rs.rho) for rs in sp.factors]
    lam = weight(sp, (3, 2, 1), (1, -1))
    assert apply_element(longest_product(sp, none), lam) == weight(sp, (-3, -2, -1), (-1, 1))


# ---------------------------------------------------------------------------
# orthogonal subsystems


def test_orthogonal_subsystem_a3_inside_c4():
    c4 = make_root_system("C4")
    sub = orthogonal_subsystem(c4, vec(1, 1, 1, 1))
    assert len(all_roots(sub)) == 12
    assert type_label(sub) == "A3"
    assert sub.order == 24
    assert set(positive_roots(sub)) <= set(positive_roots(c4))
    # closed under its own reflections
    for a in all_roots(sub):
        assert all(
            tuple(r[i] - 2 * dot(r, a) / dot(a, a) * a[i] for i in range(4)) in all_roots(sub)
            for r in all_roots(sub))


def test_orthogonal_subsystem_refuses_a_vector_of_the_wrong_length():
    # `minrep weyl subsystem` checks the length before it calls this
    with pytest.raises(ValueError, match=r"vector \(1,1\) has wrong length for E8"):
        orthogonal_subsystem(make_root_system("E8"), (1, 1))
    # coordinates as rootsys.conform prints them, Fractions too
    with pytest.raises(ValueError, match=r"vector \(1/2,1\) has wrong length for E8"):
        orthogonal_subsystem(make_root_system("E8"), (Q(1, 2), Q(1)))


def test_orthogonal_subsystem_e7_inside_e8():
    e8 = make_root_system("E8")
    sub = orthogonal_subsystem(e8, vec(0, 0, 0, 0, 0, 0, 1, 1))
    assert len(all_roots(sub)) == 126
    assert type_label(sub) == "E7"
    assert sub.order == 2903040


def test_orthogonal_subsystem_e6_inside_e7():
    e7 = make_root_system("E7")
    sub = orthogonal_subsystem(e7, vec(0, 0, 0, 0, 0, 1, -H, H))
    assert type_label(sub) == "E6"
    assert len(all_roots(sub)) == 72


def test_orthogonal_subsystem_can_be_empty_or_everything():
    g2 = make_root_system("G2")
    empty = orthogonal_subsystem(g2, g2.rho)
    assert (empty.rank, empty.ambient, all_roots(empty)) == (0, 3, frozenset())
    assert empty.rho == vec(0, 0, 0)
    assert empty.order == 1
    assert type_label(empty) == "empty"
    everything = orthogonal_subsystem(g2, vec(0, 0, 0))
    assert all_roots(everything) == all_roots(g2)
    assert everything.order == 12


def test_orthogonal_subsystem_is_one_per_line():
    f4 = make_root_system.__wrapped__("F4")
    v = f4.fundamental[0]
    sub = orthogonal_subsystem(f4, v)
    assert orthogonal_subsystem(f4, vscale(2, v)) is sub
    assert orthogonal_subsystem(f4, vscale(-1, v)) is sub
    assert orthogonal_subsystem(f4, vscale(-H, v)) is sub
    assert type_label(sub) == "C3"
    # the zero vector is its own line, orthogonal to every root
    everything = orthogonal_subsystem(f4, vec(0, 0, 0, 0))
    assert everything is not sub and all_roots(everything) == all_roots(f4)
    assert orthogonal_subsystem(f4, (0, 0, 0, 0)) is everything
    assert len(f4.perp) == 2


def test_orthogonal_subsystem_splits_into_components():
    a7 = make_root_system("A7")
    beta = vscale(H, vec(1, 1, 1, 1, -1, -1, -1, -1))
    sub = orthogonal_subsystem(a7, beta)
    assert type_label(sub) == "A3xA3"
    assert sub.order == 576


def test_subgroup_longest_fixes_beta_and_flips_the_subsystem():
    c4 = make_root_system("C4")
    sp = KSpace((c4,), 0)
    beta = weight(sp, (1, 1, 1, 1))
    subs = space_beta_subsystems(sp, beta)
    # w_l is an involution, so w_l (w_l w_beta,l) = w_beta,l
    wbl = compose(as_element(sp, longest_element(c4)), longest_product(sp, subs))
    assert apply_element(wbl, beta) == beta
    for a in positive_roots(subs[0]):
        img = matvec(element_blocks(wbl)[0], a)
        assert vscale(-1, img) in positive_roots(subs[0])


def test_subgroup_longest_of_empty_subsystem_is_identity():
    g2 = make_root_system("G2")
    sp = KSpace((g2,), 0)
    sub = orthogonal_subsystem(g2, g2.rho)
    assert longest_product(sp, (sub,)) == as_element(sp, longest_element(g2))


# ---------------------------------------------------------------------------
# line preservers


def test_line_preservers_doubled_su2_pair():
    sp = KSpace((A1D, A1D), 0)
    beta = weight(sp, (3, -3), (1, -1))
    xi0 = weight(sp, (0, 0), (0, 0))
    w0 = as_element(sp, word(sp, [(0, (1, -1)), (1, (1, -1))]))
    expected = frozenset({identity_element(sp), w0})
    assert line_preservers(sp, beta, xi0, "brute") == expected
    assert line_preservers(sp, beta, xi0, "chamber") == expected
    # the word sends beta to -beta
    assert apply_element(w0, beta) == weight(sp, (-3, 3), (-1, 1))


def test_line_preservers_c4_record():
    c4 = make_root_system("C4")
    sp = KSpace((c4,), 0)
    beta = weight(sp, (1, 1, 1, 1))
    xi0 = weight(sp, (Q(3, 2), Q(1, 2), Q(-1, 2), Q(-3, 2)))
    w0 = as_element(sp, word(sp, [(0, (1, 0, 0, 1)), (0, (0, 1, 1, 0))]))
    expected = frozenset({identity_element(sp), w0})
    brute = line_preservers(sp, beta, xi0, "brute")
    chamber = line_preservers(sp, beta, xi0, "chamber")
    assert brute == chamber == expected
    # the table word fixes xi0
    assert apply_element(w0, xi0) == xi0


def test_line_preservers_degenerate_rank_two_cases():
    b2 = make_root_system("B2")
    sp = KSpace((b2,), 0)
    # beta strictly dominant regular: empty stabilizer, -1 flips beta
    beta = weight(sp, (2, 1))
    xi0 = weight(sp, (2, 1))
    wl = as_element(sp, longest_element(b2))
    got = line_preservers(sp, beta, xi0, "chamber")
    assert got == line_preservers(sp, beta, xi0, "brute")
    assert got == frozenset({identity_element(sp), wl})

    a2 = make_root_system("A2")
    spa = KSpace((a2,), 0)
    theta = weight(spa, (1, 0, -1))
    got = line_preservers(spa, theta, weight(spa, (1, 0, -1)), "brute")
    assert got == frozenset({identity_element(spa),
                             as_element(spa, longest_element(a2))})


@pytest.mark.parametrize("label,beta,fixing", [
    ("A1", (1, 0), []),
    ("A2", (1, 0, 0), [(0, (0, 1, -1))]),
])
def test_line_preservers_beta_off_the_root_span(label, beta, fixing):
    # beta has a part off the root span, which W fixes: on A1, s(beta) =
    # (0, 1) has beta's labels negated but is not -beta, and on A2 no w
    # negates beta.  With xi0 = 0 the survivors are W_beta: {1} on A1 and
    # {1, s(e2 - e3)} on A2.
    rs, sp = _single(label)
    expected = frozenset({identity_element(sp), as_element(sp, word(sp, fixing))})
    args = (weight(sp, beta), weight(sp, (0,) * rs.ambient))
    for strategy in weyl.STRATEGIES:
        assert line_preservers(sp, *args, strategy) == expected, strategy


def test_line_preservers_with_a_rank_zero_factor():
    # a factor with no roots has the trivial group: its only orbit word and
    # stabilizer element are empty, and the A2 factor decides alone
    a1, a2 = make_root_system("A1"), make_root_system("A2")
    empty = orthogonal_subsystem(a1, a1.simple[0])
    sp = KSpace((empty, a2), 0)
    args = (weight(sp, (0, 0), (1, 0, -1)), weight(sp, (1, 0), (0, 0, 0)))
    expected = frozenset({identity_element(sp), as_element(sp, longest_element(a2, 1))})
    for strategy in weyl.STRATEGIES:
        assert line_preservers(sp, *args, strategy) == expected, strategy


@pytest.mark.parametrize("strategy", weyl.STRATEGIES)
def test_line_preservers_make_no_fraction(strategy):
    # the search, its self-check and the element pools stay on integers
    checked = 0
    for r in all_default_records():
        if r.hermitian or r.xi0 is None or space_group_order(r.space) > 10 ** 6:
            continue
        for m in r.modules:
            calls = fraction_calls(
                lambda: line_preservers(r.space, m.beta, r.xi0, strategy, 10 ** 6))
            assert "__new__" not in calls, r.name
            checked += 1
    assert checked >= 20


def test_line_preservers_validates_inputs():
    sp = KSpace((make_root_system("C3"),), 0)
    xi0 = weight(sp, (0, 0, 0))
    with pytest.raises(ValueError):
        line_preservers(sp, weight(sp, (0, 0, 0)), xi0)
    with pytest.raises(ValueError):
        line_preservers(sp, weight(sp, (0, 0, 1)), xi0)  # not dominant
    with pytest.raises(ValueError):
        line_preservers(sp, weight(sp, (1, 1, 1)), xi0, strategy="magic")
    with pytest.raises(ValueError, match="'reduced'; expected one of 'chamber', 'brute'$"):
        line_preservers(sp, weight(sp, (1, 1, 1)), xi0, strategy="reduced")


def test_line_preservers_brute_over_budget_names_the_order():
    d8 = make_root_system("D8")
    sp = KSpace((d8,), 0)
    beta = weight(sp, (H,) * 8)
    with pytest.raises(BudgetExceededError) as info:
        line_preservers(sp, beta, weight(sp, (0,) * 8), "brute",
                        budget=10 ** 6)
    assert info.value.order == space_group_order(sp) == 5160960
    assert str(info.value) == ("Weyl group of D8 has order 5160960, above the "
                               "enumeration budget 1000000")


def test_line_preservers_chamber_singular_xi0_and_budget():
    # W_beta = A2 (roots e_i - e_j); xi0 is fixed by s(e1 - e2), so each
    # branch has |P| = 2 survivors and w_l = -1 adds the coset branch
    c3 = make_root_system("C3")
    sp = KSpace((c3,), 0)
    beta = weight(sp, (1, 1, 1))
    xi0 = weight(sp, (1, 1, -2))
    with pytest.raises(BudgetExceededError) as info:
        line_preservers(sp, beta, xi0, "chamber", budget=1)
    assert info.value.order == 2
    got = line_preservers(sp, beta, xi0, "chamber", budget=2)
    assert len(got) == 4
    assert got == line_preservers(sp, beta, xi0, "brute")
    assert {element_blocks(el) for el in got} == reference_brute(sp, beta, xi0)


SMALL_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "G2")


@st.composite
def preserver_case(draw):
    """A small K space, a dominant integral beta and a rational xi0, often
    singular for the beta stabilizer."""
    if draw(st.booleans()):
        labels = [draw(st.sampled_from(SMALL_TYPES + ("D4", "F4")))]
    else:
        labels = draw(st.lists(st.sampled_from(SMALL_TYPES),
                               min_size=2, max_size=2))
    sp = KSpace(tuple(make_root_system(lbl) for lbl in labels), 0)
    blocks = []
    for rs in sp.factors:
        coeffs = draw(st.lists(st.integers(0, 2), min_size=rs.rank,
                               max_size=rs.rank))
        v = (Q(0),) * rs.ambient
        for c, omega in zip(coeffs, rs.fundamental):
            v = tuple(a + c * b for a, b in zip(v, omega))
        blocks.append(v)
    # W fixes the diagonal of an A-type block, so shifting beta along it
    # keeps beta dominant integral and gives beta a part off the root span
    for f, rs in enumerate(sp.factors):
        if rs.family == "A":
            shift = draw(st.integers(-2, 2))
            blocks[f] = tuple(c + shift for c in blocks[f])
    if all(all(c == 0 for c in v) for v in blocks):
        blocks[0] = sp.factors[0].fundamental[0]
    coord = st.sampled_from((Q(-1), -H, Q(0), H, Q(1)))
    xi = [draw(st.lists(coord, min_size=rs.ambient, max_size=rs.ambient))
          for rs in sp.factors]
    return sp, weight(sp, *blocks), weight(sp, *xi)


@given(preserver_case())
@settings(max_examples=60, deadline=None)
def test_line_preserver_strategies_agree(case):
    sp, beta, xi0 = case
    chamber = line_preservers(sp, beta, xi0, "chamber")
    assert chamber == line_preservers(sp, beta, xi0, "brute")
    assert {element_blocks(el) for el in chamber} == reference_brute(sp, beta, xi0)


@given(preserver_case())
@settings(max_examples=60, deadline=None)
def test_brute_matches_the_element_by_element_reference(case):
    sp, beta, xi0 = case
    got = line_preservers(sp, beta, xi0, "brute")
    assert {element_blocks(el) for el in got} == reference_brute(sp, beta, xi0)


def _brute_cases():
    """(record, beta) for each beta of each record with line data whose W_K
    has order at most 10**5, chosen without the kernel."""
    return [pytest.param(r, beta, id=f"{r.name}-{k}") for r in all_default_records()
            if r.modules and r.xi0 is not None
            and prod(map(height_partition_order, r.space.factors)) <= 10 ** 5
            for k, beta in enumerate(dict.fromkeys(m.beta for m in r.modules))]


@pytest.mark.parametrize("record, beta", _brute_cases())
def test_brute_matches_the_element_by_element_reference_on_the_catalog(record, beta):
    got = line_preservers(record.space, beta, record.xi0, "brute")
    assert {element_blocks(el) for el in got} == reference_brute(record.space, beta, record.xi0)


def _check_flips(space, beta):
    """Brute's -beta coset: a factor has a word x with x(beta) = -beta
    exactly when its longest element flips beta, never when beta has a part
    off the root span, and the space has one on every factor exactly when
    _flipping_longest finds w_l."""
    flips = []
    for rs, v in zip(space.factors, beta.factors):
        words = weyl._flips(rs, v)
        _, b = weyl._tracked_image(rs, v)
        minus_b = [tuple(-c for c in b)]
        assert all(weyl._reflected(reversed(x), [b]) == minus_b for x in words)
        (wl,) = weyl._longest_words([rs])
        assert len(words) == (weyl._reflected(reversed(wl), [b]) == minus_b)
        if off_span_part(rs, v) != (Q(0),) * rs.ambient:
            assert words == []
        flips.append(bool(words))
    assert all(flips) == (weyl._flipping_longest(space, beta) is not None)
    return flips


@pytest.mark.parametrize("record, beta", _brute_cases())
def test_brute_flips_beta_exactly_when_the_longest_element_does(record, beta):
    _check_flips(record.space, beta)


@given(preserver_case())
@settings(max_examples=60, deadline=None)
def test_brute_flips_beta_exactly_when_the_longest_element_does_on_random_cases(case):
    sp, beta, _ = case
    _check_flips(sp, beta)


def test_brute_finds_no_flip_off_the_root_span():
    # on A1, s(1, 0) = (0, 1) has the labels of -(1, 0) but is not -(1, 0)
    a1, sp = _single("A1")
    assert _check_flips(sp, weight(sp, (1, 0))) == [False]
    assert _check_flips(sp, weight(sp, (1, -1))) == [True]


def _stabilizer_cases():
    """(record, beta) for each beta of each record with line data whose
    beta stabilizer W_beta has order at most 10**6, chosen without the
    kernel."""
    return [pytest.param(r, beta, id=f"{r.name}-{k}") for r in all_default_records()
            if r.modules and not r.hermitian and r.xi0 is not None and r.w0 is not None
            for k, beta in enumerate(dict.fromkeys(m.beta for m in r.modules))
            if prod(map(height_partition_order, space_beta_subsystems(r.space, beta))) <= 10 ** 6]


@pytest.mark.parametrize("record, beta", _stabilizer_cases())
def test_reduced_simple_root_forms_keep_the_survivors(record, beta):
    # chamber's premise: u in W_beta keeps u(xi0) nonnegative on
    # Delta_beta+ exactly when u(xi0)'s labels on its simple coroots are
    # >= 0, and on w_l Delta_beta+ (the w_l coset) exactly when they are
    # <= 0, since -w_l permutes those simple roots.  Testing every positive
    # root (and every w_l image) through its form keeps the same survivors
    # as testing the simple roots alone, for xi0 and for a point with zero
    # labels, the first fundamental weight of Delta_beta.
    space = record.space
    wl = weyl._flipping_longest(space, beta)
    subs = space_beta_subsystems(space, beta)
    for f, (sub, xi0) in enumerate(zip(subs, record.xi0.factors)):
        roots = [sub.positive_images]
        if wl is not None:
            roots.append(weyl._reflected(reversed(wl[f]), sub.positive_images))
        for xi in (xi0, *sub.fundamental[:1]):
            orbit = weyl._orbit(sub, (coroot_labels(sub, xi)[1],))
            every_root = [weyl._nonnegative(weyl._forms(sub, ys, xi), orbit, 1) for ys in roots]
            signs = [lambda state: min(orbit.labels(state, 1), default=0) >= 0,
                     lambda state: max(orbit.labels(state, 1), default=0) <= 0]
            simple = weyl._survivors(orbit, signs[:len(roots)])
            assert simple == weyl._survivors(orbit, every_root)
            assert len(simple) == len(roots) and all(simple)


# ---------------------------------------------------------------------------
# properties


def _word_spaces():
    """Spaces whose element matrices need different integer scales: C3 x
    A1d, G2 (pairings in thirds), F4 and E7 in eight coordinates (halves),
    and the C3 inside F4 orthogonal to its highest root (half roots)."""
    f4 = make_root_system("F4")
    singles = [make_root_system("G2"), f4, make_root_system("E7"),
               orthogonal_subsystem(f4, f4.highest_root)]
    return [KSpace((make_root_system("C3"), A1D), 0)] + [KSpace((rs,), 0) for rs in singles]


WORD_SPACES = _word_spaces()


def _probe(sp):
    """A weight with distinct, non-integral coordinates in every block."""
    return weight(sp, *(tuple(Q((-1) ** i * (2 * i + 3), i + 2) for i in range(rs.ambient))
                        for rs in sp.factors))


@st.composite
def short_word(draw):
    sp = draw(st.sampled_from(WORD_SPACES))
    lines = [(f, r) for f, rs in enumerate(sp.factors) for r in sorted(all_roots(rs))]
    letters = []
    for f, r in draw(st.lists(st.sampled_from(lines), max_size=5)):
        # any nonzero multiple of a root is a letter
        letters.append((f, vscale(draw(st.sampled_from((1, -1, 2, H))), r)))
    return sp, word(sp, letters)


def dense_product(sp, w):
    """Reference: the dense reflection matrix per letter, multiplied out."""
    blocks = [identity(rs.ambient) for rs in sp.factors]
    for f, v in w.letters:
        n, vv = len(v), dot(v, v)
        s_v = tuple(tuple((1 if i == j else 0) - 2 * v[i] * v[j] / vv
                          for j in range(n)) for i in range(n))
        blocks[f] = matmul(blocks[f], s_v)
    return tuple(blocks)


@given(short_word())
@settings(max_examples=50, deadline=None)
def test_element_inverse_and_composition(sw):
    # reflections are involutions, so the reversed word spells the inverse
    sp, w = sw
    el = as_element(sp, w)
    inverse = as_element(sp, WeylWord(w.letters[::-1]))
    assert compose(el, inverse) == identity_element(sp)
    lam = _probe(sp)
    assert apply_element(inverse, apply_element(el, lam)) == lam


def test_compose_refuses_a_product_off_the_lattice():
    # a block held at scale 2 whose square is not 2 times an integer matrix
    half = WeylElement((((1, 0), (0, 1)),), (2,))
    with pytest.raises(AssertionError, match="left the tracked lattice"):
        compose(half, half)
    # nor does it multiply blocks held at different scales
    with pytest.raises(ValueError, match="scales"):
        compose(half, WeylElement((((1, 0), (0, 1)),), (1,)))


@given(short_word())
@settings(max_examples=50, deadline=None)
def test_element_matches_product_of_reflection_matrices(sw):
    sp, w = sw
    assert element_blocks(as_element(sp, w)) == dense_product(sp, w)


@given(short_word())
@settings(max_examples=50, deadline=None)
def test_word_and_element_application_agree(sw):
    # the word acts on lattice images and the element's rows come from
    # them, so both are held to the Fraction reference
    sp, w = sw
    lam = _probe(sp)
    assert apply(sp, w, lam) == apply_word(w, lam)
    assert apply_element(as_element(sp, w), lam) == apply_word(w, lam)


@st.composite
def rational_vector_and_word(draw):
    """A system, a vector with random rational coordinates and a word of
    random root letters, each scaled by a random nonzero rational.  The
    system is a type, or its subsystem orthogonal to a root or to a
    fundamental weight, which holds its images at the type's scale."""
    rs = make_root_system(draw(st.sampled_from(LATTICE_TYPES)))
    if draw(st.booleans()):
        rs = orthogonal_subsystem(rs, draw(st.sampled_from(
            sorted(positive_roots(rs)) + list(rs.fundamental))))
    rational = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    v, y = (tuple(draw(rational) for _ in range(rs.ambient)) for _ in range(2))
    scales = rational.filter(bool)
    roots = draw(st.lists(st.sampled_from(sorted(all_roots(rs))), max_size=8)
                 if rs.rank else st.just([]))
    letters = [(0, vscale(draw(scales), r)) for r in roots]
    return rs, v, y, letters


@given(rational_vector_and_word())
@settings(max_examples=60, deadline=None)
def test_lattice_action_matches_fraction_reference(case):
    rs, v, y, letters = case
    sp = KSpace((rs,), 0)
    w = word(sp, letters)
    lam = weight(sp, v)
    assert apply(sp, w, lam) == apply_word(w, lam)
    # Along the whole orbit walk, each state's tracked block is d times the
    # labels of the Fraction reference image, the lattice image that apply
    # reflects stays integral (_reflect_int raises otherwise), and the form
    # of y reads (y, w v) up to one positive factor, also when both have a
    # part off the root span (A types, G2, A1d).  A node's word is its
    # parent's with one more letter in front, and the walk visits the
    # parent first.
    d, labels = coroot_labels(rs, v)
    ((coeffs, const),) = weyl._forms(rs, integer_images([y])[1], v)
    ratios = set()
    scale, image = weyl._tracked_image(rs, v)
    assert image == tuple(scale * c for c in v)
    orbit = weyl._orbit(rs, (labels,))
    states = []

    def keep(state):
        states.append(decoded(orbit, state))
        return True

    (words,) = weyl._survivors(orbit, [keep])
    assert len(words) == rs.order
    ref = {(): (v, image)}
    for letters, state in zip(words, states, strict=True):
        key = tuple(letters)
        if key:
            parent, lattice = ref[key[1:]]
            ref[key] = (reflect(parent, line(key[0])),
                        weyl._reflected(key[:1], [lattice])[0])
        w_v, lattice = ref[key]
        assert state[rs.rank:] == tuple(d * pair_coroot(w_v, a) for a in rs.simple)
        assert lattice == tuple(scale * c for c in w_v)
        value, pairing = sum(map(mul, coeffs, state[rs.rank:])) + const, dot(y, w_v)
        assert (value > 0) == (pairing > 0) and (value < 0) == (pairing < 0)
        if pairing:
            ratios.add(value / pairing)
    assert len(ratios) <= 1


def test_catalog_w0_elements_match_product_of_reflection_matrices():
    checked = 0
    for r in all_default_records():
        if r.w0 is not None:
            assert element_blocks(as_element(r.space, r.w0)) == dense_product(r.space, r.w0), \
                r.name
            checked += 1
    assert checked >= 20
