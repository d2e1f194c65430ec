"""Check layer: positive runs on fast records, negative controls by
mutating fixtures, runner determinism and filters."""

import time
from collections import Counter
from fractions import Fraction as Q
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from minrep import rootsys, verify, weyl
from minrep.registry import (
    FAMILIES,
    MinimalModuleRecord,
    all_default_records,
    find_record,
    g_dimension,
    instantiate_family,
    joseph_infchar,
    k_dimension,
    load,
    save,
)
from minrep.rootsys import (
    RootSystem,
    UnsupportedCartanType,
    dot,
    make_root_system,
    mirror,
    space_rho,
    vscale,
    weight,
    weight_add,
    weight_scale,
)
from minrep.verify import (
    CHECK_NAMES,
    DEFAULT_CONFIG,
    VerifyConfig,
    run_all,
    run_check,
    suite_status,
)
from minrep.weyl import WeylWord, word

from brute_reference import reference_brute
from ladder_reference import separator, swept_meetings
from fraction_reference import (
    all_roots,
    bilinear,
    element_blocks,
    fraction_calls,
    pair_coroot,
    positive_roots,
    reflect,
)

FAST_RECORDS = ["f4(4)", "g2(2)", "e6(6)", "sp(2,R)", "sp(2,C)", "so(4,3)",
                "so(5,2)", "g2(C)", "so(6,1)", "sp(2)", "so(5,4)", "e6(-14)"]


def mutate(r, **kw):
    return r._replace(**kw)


# ---------------------------------------------------------------------------
# positive runs


def test_all_checks_pass_or_skip_on_fast_records():
    for name in FAST_RECORDS:
        for rep in run_all([find_record(name)]):
            assert rep.status in ("pass", "skipped"), \
                (rep.record, rep.check, rep.evidence)


def test_report_shape_is_uniform():
    reports = run_all([find_record("so(6,1)")])
    assert [rep.check for rep in reports] == list(CHECK_NAMES)
    by_name = {rep.check: rep.status for rep in reports}
    assert by_name["rho"] == "pass"
    assert by_name["p_dimension"] == "pass"
    assert by_name["count_and_disjoint"] == "pass"
    assert by_name["ladder_wellformed"] == "skipped"
    assert by_name["w0_unique"] == "skipped"
    assert by_name["complex_beta"] == "skipped"


def test_compact_record_skips_p_dimension():
    rep = run_check("p_dimension", find_record("sp(2)"))
    assert rep.status == "skipped"
    assert "compact" in rep.evidence


NONCOMPACT_WITHOUT_MODULES = ["e6(-26)", "f4(-20)", "so(6,1)", "so(7,1)", "sp(1,1)",
                              "sp(2,1)", "so(5,4)", "so(6,5)"]


def test_noncompact_records_without_modules():
    assert NONCOMPACT_WITHOUT_MODULES == [
        r.name for r in all_default_records()
        if not r.modules and g_dimension(r) > k_dimension(r)]


@pytest.mark.parametrize("name", NONCOMPACT_WITHOUT_MODULES)
def test_noncompact_record_without_summands_fails_p_dimension(name):
    # dim g > dim K, so an empty p is not the compact case; no module
    # reads p, so nothing else refuses the record
    r = find_record(name)
    rep = run_check("p_dimension", mutate(r, p_summands=()))
    assert rep.status == "fail"
    assert rep.evidence.startswith("sum of summand dimensions 0 != ")


def test_hermitian_record_skips_line_checks():
    r = find_record("e6(-14)")
    for name in ("xi0", "w0_table", "w0_formula", "w0_unique", "same_line"):
        rep = run_check(name, r)
        assert rep.status == "skipped"
        assert "one-sided" in rep.evidence


@pytest.mark.parametrize("check,missing,reason", [
    ("xi0", "xi0", "no stored xi0"),
    ("xi0", "w0", None),
    ("w0_table", "w0", "no stored w0 word"),
    ("w0_table", "xi0", "no stored w0 word"),
    ("w0_formula", "w0", "no stored w0 word"),
    ("w0_formula", "xi0", None),
    ("w0_unique", "w0", "no stored w0 word"),
    ("w0_unique", "xi0", "no stored w0 word"),
    ("same_line", "w0", "no stored w0 word"),
    ("same_line", "xi0", None),
])
def test_line_checks_skip_exactly_when_their_stored_data_is_missing(check, missing, reason):
    rep = run_check(check, mutate(find_record("f4(4)"), **{missing: None}))
    if reason is None:
        assert rep.status == "pass"
    else:
        assert (rep.status, rep.evidence) == ("skipped", reason)


def test_same_line_shift_value_on_worked_example():
    rep = run_check("same_line", find_record("e8(-24)"))
    assert rep.status == "pass"
    assert "c = -18" in rep.evidence


def test_xi0_scalar_on_worked_example():
    rep = run_check("xi0", find_record("e8(-24)"))
    assert rep.status == "pass" and "c = 9" in rep.evidence


def test_w0_formula_names_the_orthogonal_subsystem():
    rep = run_check("w0_formula", find_record("e6(6)"))
    assert rep.status == "pass" and "A3" in rep.evidence


def test_w0_formula_makes_no_fraction():
    # both sides of the factorization are integer elements; a record whose
    # check skips makes none either
    statuses = Counter()
    for r in all_default_records():
        calls = fraction_calls(
            lambda: statuses.update([verify._check_w0_formula(r, verify.DEFAULT_CONFIG)[0]]))
        assert "__new__" not in calls, r.name
    assert statuses["pass"] >= 20


def test_count_separators_for_the_four_module_record():
    # the six pairs of sp(2,R) are decided exactly; no invariant is named
    rep = run_check("count_and_disjoint", find_record("sp(2,R)"))
    assert (rep.status, rep.evidence) == (
        "pass", "count 4 as expected; ladders never meet (exact, all rungs)")


def test_count_separator_parity_for_the_even_odd_pair():
    rep = run_check("count_and_disjoint", find_record("sp(2,C)"))
    assert (rep.status, rep.evidence) == (
        "pass", "count 2 as expected; ladders never meet (exact, all rungs)")


def test_complex_beta_positive():
    rep = run_check("complex_beta", find_record("g2(C)"))
    assert rep.status == "pass"
    rep = run_check("complex_beta", find_record("f4(4)"))
    assert rep.status == "skipped"


def test_w0_unique_brute_matches_chamber_on_small_records():
    # both strategies pass, and chamber's closed form is the set that the
    # element-by-element reference search keeps
    for name in ["f4(4)", "g2(2)", "so(4,3)", "sp(2,C)"]:
        r = find_record(name)
        statuses = [run_check("w0_unique", r, VerifyConfig(strategy=s)).status
                    for s in weyl.STRATEGIES]
        assert statuses == ["pass"] * 2, name
        for beta in verify._module_betas(r):
            chamber = weyl.line_preservers(r.space, beta, r.xi0, "chamber")
            assert {element_blocks(el) for el in chamber} == reference_brute(r.space, beta, r.xi0)


def test_w0_unique_budget_skip_names_the_order():
    # brute gates |W_K| = |W(C4)| = 384
    rep = run_check("w0_unique", find_record("e6(6)"),
                    VerifyConfig(strategy="brute", budget=2))
    assert rep.status == "skipped"
    assert "order 384 above budget 2" in rep.evidence


def test_w0_unique_chamber_budget_bounds_the_parabolic():
    # xi0 = 0 is fixed by all of W_beta, so the parabolic P is the whole
    # stabilizer; the catalog's own xi0 has P trivial under any budget
    r = find_record("e6(6)")
    zero = weight(r.space, *([0] * rs.ambient for rs in r.space.factors))
    rep = run_check("w0_unique", mutate(r, xi0=zero), VerifyConfig(budget=2))
    assert rep.status == "skipped"
    assert "above budget 2 for strategy chamber" in rep.evidence
    assert run_check("w0_unique", r, VerifyConfig(budget=1)).status == "pass"


def test_w0_unique_fails_when_the_closed_form_is_wrong(monkeypatch):
    # dropping w_beta,l from the coset branch leaves a survivor that breaks
    # the definition; the self-check must turn that into a fail
    real = weyl._longest_words

    def without_w_beta_l(systems):
        # the beta-orthogonal subsystems are the embedded ("sub") systems
        return [[] if rs.family == "sub" else w
                for rs, w in zip(systems, real(systems))]

    monkeypatch.setattr(weyl, "_longest_words", without_w_beta_l)
    rep = run_check("w0_unique", find_record("f4(4)"))
    assert rep.status == "fail"
    assert rep.evidence == ("chamber survivor does not keep xi0 dominant for "
                            "the beta stabilizer (strategy chamber)")


def _moves_beta(rs, beta, xi0):
    """A root whose reflection sends beta off its line."""
    return next((a for a in positive_roots(rs) if reflect(beta, a) not in (beta, vscale(-1, beta))),
                None)


def _negates_beta(rs, beta, xi0):
    """A root on the line of a nonzero beta: its reflection gives the word
    a sign that the branch fixing beta must refuse."""
    return next((a for a in positive_roots(rs) if any(beta) and reflect(beta, a) == vscale(-1, beta)),
                None)


def _breaks_xi0(rs, beta, xi0):
    """A root orthogonal to beta whose reflection makes xi0 pair negatively
    with it."""
    return next((a for a in positive_roots(rs) if dot(a, beta) == 0 and dot(a, xi0) > 0), None)


@pytest.mark.parametrize("strategy", weyl.STRATEGIES)
@pytest.mark.parametrize("pick,flaw", [(_moves_beta, "does not send beta to +-beta"),
                                       (_negates_beta, "does not send beta to +-beta"),
                                       (_breaks_xi0, "does not keep xi0 dominant")])
def test_w0_unique_fails_on_a_survivor_word_that_breaks_the_definition(
        monkeypatch, strategy, pick, flaw):
    # every strategy hands its survivor words to the self-check; one bad
    # word, added to the first factor where `pick` finds a letter, must fail
    real = weyl._self_checked

    def with_bad_word(space, beta, xi0, branches, name):
        first = [list(words) for words in branches[0]]
        for f, (rs, v, xi) in enumerate(zip(space.factors, beta.factors, xi0.factors)):
            letter = pick(rs, v, xi)
            if letter is not None:
                first[f].append([mirror(letter)])
                break
        return real(space, beta, xi0, [first, *branches[1:]], name)

    monkeypatch.setattr(weyl, "_self_checked", with_bad_word)
    rep = run_check("w0_unique", find_record("f4(4)"), VerifyConfig(strategy=strategy))
    assert rep.status == "fail"
    assert rep.evidence.startswith(f"{strategy} survivor {flaw}")
    assert rep.evidence.endswith(f"(strategy {strategy})")


def test_kept_weyl_data_does_not_carry_a_verdict_to_another_record():
    # the Weyl layer keeps data per root system, and a mutant shares its
    # systems (and its name) with the record it came from: whatever ran
    # before, the mutant must fail and the record pass
    r = find_record("e6(6)")
    bad = mutate(r, w0=WeylWord(r.w0.letters[:-1]))
    runs = [("w0_formula", r, "pass"), ("w0_unique", r, "pass"),
            ("w0_formula", bad, "fail"), ("w0_unique", bad, "fail")]
    for check, record, status in runs + runs[::-1]:
        assert run_check(check, record).status == status, (check, record.w0)


def _on_new_systems(records):
    """The records over newly built root systems, one per label, so that
    no per-system data from an earlier test is reused."""
    built = {}

    def new(rs):
        if rs.label not in built:
            built[rs.label] = make_root_system.__wrapped__(rs.label)
        return built[rs.label]

    return [mutate(r, space=r.space._replace(factors=tuple(map(new, r.space.factors))))
            for r in records]


def test_group_orders_are_counted_once_per_system(monkeypatch):
    # RootSystem.order is read off the root heights when a system is built:
    # the brute run asks for the order of every record's K, and a K factor
    # type recurs across records, yet it builds only the beta subsystems,
    # each once
    records = _on_new_systems(all_default_records())
    factors = {rs.label for r in records for rs in r.space.factors}
    built = Counter()
    real = weyl.from_simple

    def counting(label, family, ambient, scale, simple):
        built[label, tuple(simple)] += 1
        return real(label, family, ambient, scale, simple)

    monkeypatch.setattr(weyl, "from_simple", counting)
    reports = run_all(records, checks=["w0_unique"],
                      config=VerifyConfig(strategy="brute", budget=10 ** 6))
    assert [rep.status for rep in reports].count("pass") == 20
    assert all(label.endswith("-perp") for label, _ in built)
    assert {label.removesuffix("-perp") for label, _ in built} <= factors
    assert set(built.values()) == {1}, built


def test_chamber_coset_elements_reuse_the_longest_product(monkeypatch):
    # w0_formula multiplies out w_l w_beta,l once per factor from the two
    # cascades, so no element matrix is reflected through more than
    # rank(K) + rank(K_beta) letters (C4 and A3 here: 4 + 2 cascade letters,
    # where a reduced w_l alone has 16); w0_unique's coset branch then
    # composes its elements from the block that w0_formula kept
    (r,) = _on_new_systems([find_record("e6(6)")])
    (rs,) = r.space.factors
    (sub,) = weyl.space_beta_subsystems(r.space, verify._module_betas(r)[0])
    bound = rs.rank + sub.rank
    calls, composed = [], []
    real_matrix, real_compose = weyl._matrix, weyl.compose

    def recording(system, letters):
        letters = list(letters)
        calls.append(letters)
        return real_matrix(system, letters)

    def recording_compose(a, b):
        composed.append(a)
        return real_compose(a, b)

    monkeypatch.setattr(weyl, "_matrix", recording)
    monkeypatch.setattr(weyl, "compose", recording_compose)
    assert run_check("w0_formula", r).status == "pass"
    assert list(rs.cascade) + list(sub.cascade) in calls
    assert max(map(len, calls)) <= bound == 7
    flip = rs.flips[sub]
    calls.clear()
    assert run_check("w0_unique", r).status == "pass"
    assert calls and max(map(len, calls)) <= bound
    assert composed and all(a.blocks[0] is flip for a in composed)


def test_checks_never_read_a_reduced_longest_word(monkeypatch):
    # every longest element the checks use is a cascade word: on newly built
    # systems the catalog run reflects at most 2,500 lattice images (8,263
    # with reduced longest words), and no strategy reads longest_word
    def refuse(rs):
        raise AssertionError(f"longest_word read on {rs.label}")

    reflected = Counter()
    real = weyl._reflect_int

    def counting(*args):
        reflected["calls"] += 1
        return real(*args)

    monkeypatch.setattr(RootSystem, "longest_word", property(refuse))
    monkeypatch.setattr(weyl, "_reflect_int", counting)
    budget = VerifyConfig(budget=10 ** 6)
    reports = run_all(_on_new_systems(all_default_records()), config=budget)
    assert suite_status(reports) == "pass"
    assert reflected["calls"] <= 2500
    for strategy in weyl.STRATEGIES:
        config = budget._replace(strategy=strategy)
        reports = run_all(_on_new_systems(all_default_records()), checks=["w0_unique"],
                          config=config)
        assert suite_status(reports) == "pass"


def _line(v):
    """One key for v, 2v and -v; the zero vector is its own."""
    if all(c == 0 for c in v):
        return tuple(v)
    s, _ = mirror(v)
    return frozenset({s, tuple(-c for c in s)})


def test_one_subsystem_build_per_root_set_and_vector(monkeypatch):
    builds = []
    real_build = weyl.from_simple

    def counting_build(*args):
        builds.append(args)
        return real_build(*args)

    per_key = Counter()
    real_subsystem = weyl.orthogonal_subsystem

    def counting_subsystem(rs, v):
        before = len(builds)
        out = real_subsystem(rs, v)
        per_key[all_roots(rs), _line(v)] += len(builds) - before
        return out

    monkeypatch.setattr(weyl, "from_simple", counting_build)
    monkeypatch.setattr(weyl, "orthogonal_subsystem", counting_subsystem)
    reports = run_all(_on_new_systems(all_default_records()),
                      checks=["w0_formula", "w0_unique"])
    assert suite_status(reports) == "pass"
    # w0_formula and w0_unique ask for the same subsystems; each line's is
    # built once
    assert len(builds) == sum(per_key.values()) == len(per_key) >= 20


# ---------------------------------------------------------------------------
# negative controls: every check must fail on a mutated fixture


def test_rho_control():
    r = find_record("f4(4)")
    shift = weight(r.space, (1, 0, 0), (0, 0))
    rep = run_check("rho", mutate(r, rho=weight_add(r.rho, shift)))
    assert rep.status == "fail" and "computed half-sum" in rep.evidence


def test_rho_skip_when_missing():
    assert run_check("rho", mutate(find_record("f4(4)"), rho=None)).status == "skipped"


def test_p_dimension_control():
    r = find_record("e6(-14)")
    rep = run_check("p_dimension", mutate(r, p_summands=r.p_summands[:1]))
    assert rep.status == "fail" and "16 != " in rep.evidence


def test_ladder_wellformed_control():
    r = find_record("f4(4)")
    bad_beta = weight(r.space, (1, 1, -1), (1, -1))
    bad = MinimalModuleRecord("minimal", r.modules[0].mu0, bad_beta)
    rep = run_check("ladder_wellformed", mutate(r, modules=(bad,)))
    assert rep.status == "fail" and "not dominant" in rep.evidence


def test_xi0_control():
    r = find_record("f4(4)")
    skew = weight(r.space, (1, 0, 0), (0, 0))
    rep = run_check("xi0", mutate(r, xi0=weight_add(r.xi0, skew)))
    assert rep.status == "fail" and "factor 0" in rep.evidence


def test_w0_table_control():
    r = find_record("f4(4)")
    rep = run_check("w0_table", mutate(r, w0=word(r.space, [(0, (1, 0, 1))])))
    assert rep.status == "fail" and "w0(beta)" in rep.evidence


def test_w0_formula_control():
    r = find_record("f4(4)")
    rep = run_check("w0_formula", mutate(r, w0=word(r.space, [(0, (1, 0, 1))])))
    assert rep.status == "fail"


def test_w0_unique_control():
    r = find_record("g2(2)")
    rep = run_check("w0_unique", mutate(r, w0=word(r.space, [(0, (1, -1))])))
    assert rep.status == "fail" and "unexpected" in rep.evidence


def test_same_line_control():
    r = find_record("f4(4)")
    rep = run_check("same_line", mutate(r, w0=word(r.space, [(0, (1, 0, 1))])))
    assert rep.status == "fail" and "not a multiple of beta" in rep.evidence


def test_period_control():
    rep = run_check("period", mutate(find_record("e7(7)"), family="sp_R"))
    assert rep.status == "fail" and "expected 1/2" in rep.evidence


def test_count_control():
    r = find_record("e8(8)")
    rep = run_check("count_and_disjoint", mutate(r, modules=r.modules * 2))
    assert rep.status == "fail"
    assert rep.evidence == "2 modules stored, expected 1"


def test_count_fails_on_every_dropped_last_module_after_a_round_trip():
    # the count comes from the paper, so a file that drops a module and
    # stays self-consistent still fails
    multi = [r for r in all_default_records() if len(r.modules) > 1]
    assert len(multi) == 12
    for r in multi:
        n = len(r.modules)
        loaded, = load(save([mutate(r, modules=r.modules[:-1])]))
        rep = run_check("count_and_disjoint", loaded)
        assert (rep.status, rep.evidence) == (
            "fail", f"{n - 1} modules stored, expected {n}"), r.name


def test_count_fails_on_a_record_the_paper_table_lacks():
    r = find_record("e8(8)")
    for stranger in (mutate(r, name="e8(9)"), mutate(r, family="su_p_q")):
        rep = run_check("count_and_disjoint", stranger)
        assert rep.status == "fail"
        assert rep.evidence == ("no module count from the paper for record "
                                f"{stranger.name}")


def test_disjointness_control_without_separator():
    # a module and its clone meet at the bottom rung
    r = find_record("sp(2,C)")
    clone = r.modules[0]._replace(label="clone")
    rep = run_check("count_and_disjoint", mutate(r, modules=(r.modules[0], clone)))
    assert (rep.status, rep.evidence) == (
        "fail", "(even, clone) share K-type 0 at rungs m=0, n=0")


def shared_rung_mutant():
    """sp(2,R) with the weil-even and weil-odd ladders moved onto one line
    (beta center charge 1/2): the center-charge congruence separator
    wrongly clears the pair, and the A1 blocks (2n, 0) and (2n + 3, 2n + 1)
    name the same K-type only after the trace is projected out."""
    r = find_record("sp(2,R)")
    even, even_c, odd, odd_c = r.modules
    beta = weight(r.space, (2, 0), center=(Q(1, 2),))
    moved = odd._replace(mu0=weight(r.space, (3, 1), center=(1,)), beta=beta)
    return mutate(r, modules=(even._replace(beta=beta), even_c, moved, odd_c))


def test_disjointness_control_with_a_shared_rung():
    # the witness is the shared rung of least integer key
    rep = run_check("count_and_disjoint", shared_rung_mutant())
    assert (rep.status, rep.evidence) == (
        "fail", "(weil-even, weil-odd) share K-type ((1,-1); 1) at rungs m=1, n=0")


def test_disjointness_names_a_shared_rung_of_two_equal_modules():
    # every rung is shared: the least pair is the bottom one, named as its
    # K-type with the trace of the A1 block projected out
    r = find_record("sp(2,R)")
    even, even_c, odd, _ = r.modules
    rep = run_check("count_and_disjoint",
                    mutate(r, modules=(even, even_c, odd, odd._replace(label="clone"))))
    assert (rep.status, rep.evidence) == (
        "fail", "(weil-odd, clone) share K-type ((1/2,-1/2); 1) at rungs m=0, n=0")


def _meetings_match_the_reference(r) -> int:
    """Compare, on each module pair of r, the exact meeting with the old
    certificate (tests/ladder_reference.py): the least rung pair of the
    sweep, m first, and the verdict, a pass exactly when a separator
    applies and the sweep finds nothing.  Returns the number of pairs that
    meet."""
    shared = 0
    for (a, ka), (b, kb) in combinations(zip(r.modules, verify._ladder_keys(r)), 2):
        meet = verify._ladders_meet(ka, kb)
        swept = swept_meetings(r, a, b)
        assert meet == min(swept, default=None), (r.name, a.label, b.label)
        assert (meet is None) == (separator(r, a, b) is not None and not swept), r.name
        shared += meet is not None
    return shared


def test_integer_ladders_meet_where_the_fraction_ladders_do():
    records = list(all_default_records()) + [shared_rung_mutant()]
    assert len(records) == 52
    assert sum(map(_meetings_match_the_reference, records)) == 1


def _family_members(max_rank: int) -> list:
    """Every instance of every family whose g has rank at most max_rank; no
    family has one with a parameter above 2 max_rank + 1 (so(n) at
    n = 2 max_rank + 1 is the last)."""
    members = []
    for fam in FAMILIES.values():
        for params in product(range(1, 2 * max_rank + 2), repeat=len(fam.defaults[0])):
            if not fam.accepts(*params):
                continue
            try:
                r = instantiate_family(fam.family_id, params)
            except UnsupportedCartanType:
                continue
            if sum(make_root_system(t).rank for t in r.g_complex) <= max_rank:
                members.append(r)
    return members


def test_family_ladders_meet_where_the_reference_says():
    start = time.perf_counter()
    members = _family_members(8)
    assert len([r for r in members if len(r.modules) >= 2]) == 26
    assert sum(map(_meetings_match_the_reference, members)) == 0
    assert time.perf_counter() - start < 2


def _with_modules(name, *modules):
    """Record `name` with its modules replaced by (label, mu0, beta)
    triples, each weight given as (factor vectors, center)."""
    r = find_record(name)
    return mutate(r, modules=tuple(
        MinimalModuleRecord(label, weight(r.space, *mu0[0], center=mu0[1]),
                            weight(r.space, *beta[0], center=beta[1]))
        for label, mu0, beta in modules))


def _disjointness(r):
    rep = run_check("count_and_disjoint", r)
    return rep.status, rep.evidence


EXACT = "ladders never meet (exact, all rungs)"


def test_ladders_that_meet_past_the_sweep_fail():
    # the center-charge congruence separator assumed an integral charge
    # step; at step 1/2 it cleared these ladders, which first meet at rung
    # 51 of weil-even, one past the sweep
    r = find_record("sp(2,R)")
    even, even_c, odd, odd_c = r.modules
    beta = weight(r.space, (2, 0), center=(Q(1, 2),))
    moved = odd._replace(mu0=weight(r.space, (102, 0), center=(26,)), beta=beta)
    mutant = mutate(r, modules=(even._replace(beta=beta), even_c, moved, odd_c))
    a, b = mutant.modules[0], mutant.modules[2]
    assert separator(mutant, a, b) == "center-charge congruence"
    assert not swept_meetings(mutant, a, b)
    assert _disjointness(mutant) == (
        "fail", "(weil-even, weil-odd) share K-type ((51,-51); 26) at rungs m=51, n=0")


def test_ladders_no_separator_covers_pass():
    # odd mu0 = even mu0 + (1,1): one coordinate-sum parity, so no separator
    # applied, yet the second coordinate never moves
    r = _with_modules("sp(2,C)", ("even", (((0, 0),), ()), (((2, 0),), ())),
                      ("odd", (((1, 1),), ()), (((2, 0),), ())))
    assert separator(r, *r.modules) is None
    assert _disjointness(r) == ("pass", f"count 2 as expected; {EXACT}")


def test_parallel_ladders_meet_through_the_congruence():
    # steps 4 and 6 on one line, starts 2 apart: 4 m - 6 n = 2 holds on the
    # class m = 2 mod 3, first at m = 2, n = 1; a start 3 apart, odd, never
    # meets since gcd(4, 6) = 2
    meets = _with_modules("sp(2,C)", ("a", (((0, 0),), ()), (((4, 0),), ())),
                          ("b", (((2, 0),), ()), (((6, 0),), ())))
    assert _disjointness(meets) == ("fail", "(a, b) share K-type (8,0) at rungs m=2, n=1")
    apart = _with_modules("sp(2,C)", ("a", (((0, 0),), ()), (((4, 0),), ())),
                          ("b", (((3, 0),), ()), (((6, 0),), ())))
    assert _disjointness(apart) == ("pass", f"count 2 as expected; {EXACT}")


def test_antiparallel_ladders_meet():
    # steps 2 and -3 run towards each other: 2 m + 3 n = 10 first holds at
    # m = 2, n = 2 (then at m = 5, n = 0)
    r = _with_modules("sp(2,C)", ("up", (((0, 0),), ()), (((2, 0),), ())),
                      ("down", (((10, 0),), ()), (((-3, 0),), ())))
    assert _disjointness(r) == ("fail", "(up, down) share K-type (4,0) at rungs m=2, n=2")


SWEEP = 60


@st.composite
def ladder_pairs(draw):
    """Two (start, step) integer keys: steps independent, or parallel or
    antiparallel (zero included), and half the time a planted meeting."""
    dim = draw(st.integers(1, 4))
    vector = st.lists(st.integers(-6, 6), min_size=dim, max_size=dim)
    start_a = draw(vector)
    if draw(st.booleans()):
        u, p, q = draw(vector), draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
        step_a, step_b = [p * c for c in u], [q * c for c in u]
    else:
        step_a, step_b = draw(vector), draw(vector)
    if draw(st.booleans()):
        m, n = draw(st.integers(0, 20)), draw(st.integers(0, 20))
        start_b = [x + m * y - n * z for x, y, z in zip(start_a, step_a, step_b)]
    else:
        start_b = draw(vector)
    return (start_a, step_a), (start_b, step_b)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(ladder_pairs())
def test_ladders_meet_at_the_least_swept_rung_pair(pair):
    a, b = pair
    meet = verify._ladders_meet(a, b)
    if meet is not None:
        m, n = meet
        assert m >= 0 and n >= 0
        assert [x + m * y for x, y in zip(*a)] == [x + n * y for x, y in zip(*b)]
    # brute force: rungs 0..SWEEP of b by key, least n kept, then a's in order
    rungs_b = {}
    for n in range(SWEEP + 1):
        rungs_b.setdefault(tuple([x + n * y for x, y in zip(*b)]), n)
    swept = next(((m, rungs_b[k]) for m in range(SWEEP + 1)
                  if (k := tuple([x + m * y for x, y in zip(*a)])) in rungs_b), None)
    if swept is None:
        # a meeting past the sweep is one with a rung above it
        assert meet is None or max(meet) > SWEEP
    else:
        assert meet is not None and meet <= swept


def test_complex_beta_control():
    r = find_record("g2(C)")
    bad = MinimalModuleRecord("minimal", r.modules[0].mu0,
                              weight(r.space, (1, -1, 0)))
    rep = run_check("complex_beta", mutate(r, modules=(bad,)))
    assert rep.status == "fail" and "highest" in rep.evidence


def test_infchar_control():
    r = find_record("g2(C)")
    rep = run_check("infchar_coords", mutate(r, infchar=((Q(1), Q(1)),) * 2))
    assert rep.status == "fail" and "G2 pattern" in rep.evidence


def _coordinates_off_by_a_third(r, monkeypatch):
    real = verify.omega_to_coords
    monkeypatch.setattr(verify, "omega_to_coords", lambda rs, p: real(rs, (p[0] + Q(1, 3), *p[1:])))
    return {}


@pytest.mark.parametrize("check,name,edit,evidence", [
    # (1, -1, 0) is orthogonal to beta's (1, 1, 1) in C3, off its line
    ("xi0", "f4(4)", lambda r, _: {"xi0": weight_add(r.xi0, weight(r.space, (1, -1, 0), (0, 0)))},
     "module minimal: mu0 + rho - xi0 = "),
    # w0 still sends beta to -beta, so it moves xi0 + beta to xi0 - beta
    ("w0_table", "f4(4)", lambda r, _: {"xi0": weight_add(r.xi0, r.modules[0].beta)},
     "w0(xi0) = "),
    ("complex_beta", "g2(C)",
     lambda r, _: {"modules": tuple(m._replace(mu0=m.beta) for m in r.modules)},
     "no module has mu0 = 0"),
    ("infchar_coords", "g2(C)", lambda r, _: {"g_complex": ("A2", "A2")},
     "no infinitesimal-character pattern for type A2"),
    ("infchar_coords", "g2(C)", _coordinates_off_by_a_third,
     "do not pair back to the stored coefficients"),
], ids=["xi0-off-the-line", "w0-moves-xi0", "no-spherical-module", "infchar-unknown-type",
        "infchar-round-trip"])
def test_each_check_fails_on_its_own_fault(monkeypatch, check, name, edit, evidence):
    r = find_record(name)
    rep = run_check(check, mutate(r, **edit(r, monkeypatch)))
    assert rep.status == "fail" and evidence in rep.evidence


# every type joseph_infchar has a pattern for, up to the largest rank built
INFCHAR_TYPES = [f"{family}{n}" for family, low in (("B", 3), ("C", 2), ("D", 4))
                 for n in range(low, rootsys.MAX_RANK + 1)] + ["E6", "E7", "E8", "F4", "G2"]


def test_infchar_types_are_every_type_with_a_pattern():
    for label in ("A1", "A5", "B2", "C1", "D3", "A1d"):
        with pytest.raises(ValueError, match="no infinitesimal-character pattern"):
            joseph_infchar(label)


@pytest.mark.parametrize("shift", [0, Q(1, 3)])
def test_infchar_round_trip_matches_fraction_reference(monkeypatch, shift):
    # coordinates built with the first coefficient off by `shift` must not
    # pair back, by the labels or by the Fraction coroot pairings
    real = verify.omega_to_coords
    monkeypatch.setattr(verify, "omega_to_coords",
                        lambda rs, p: real(rs, (p[0] + shift, *p[1:])))
    for label in INFCHAR_TYPES:
        rs = make_root_system(label)
        pattern = joseph_infchar(label)
        coords, round_trips = verify.infchar_round_trip(label, pattern)
        assert coords == real(rs, (pattern[0] + shift, *pattern[1:]))
        pairs_back = tuple(pair_coroot(coords, a) for a in rs.simple) == pattern
        assert round_trips == pairs_back == (shift == 0), label


# ---------------------------------------------------------------------------
# runner


def _keys(reports):
    return [(rep.record, rep.check, rep.status, rep.evidence) for rep in reports]


def test_run_all_deterministic_order():
    records = [find_record("g2(2)"), find_record("sp(2,R)")]
    first, second = run_all(records), run_all(records)
    assert _keys(first) == _keys(second)
    assert [rep.record for rep in first] == ["g2(2)"] * 12 + ["sp(2,R)"] * 12


def test_run_all_refuses_an_empty_record_pool():
    # no records means no reports, which would pass vacuously
    with pytest.raises(ValueError, match="no records"):
        run_all(())


def test_run_all_record_filter_normalizes():
    reports = run_all(record="G2(2)")
    assert {rep.record for rep in reports} == {"g2(2)"}
    assert len(reports) == 12
    with pytest.raises(KeyError, match="no record named"):
        run_all(record="sl(2,R)")


def test_run_all_family_filter():
    reports = run_all(family="sp_R", checks=["period"])
    assert [rep.record for rep in reports] == ["sp(2,R)", "sp(3,R)", "sp(5,R)"]
    assert all(rep.status == "pass" for rep in reports)
    with pytest.raises(KeyError, match="no records in family"):
        run_all(family="su_star")


def test_run_all_runs_a_repeated_check_once():
    reports = run_all([find_record("g2(2)")], checks=["rho", "period", "rho", "period"])
    assert [rep.check for rep in reports] == ["rho", "period"]


def test_run_all_rejects_unknown_check():
    with pytest.raises(ValueError, match="unknown check"):
        run_all([find_record("g2(2)")], checks=["rho", "bogus"])
    with pytest.raises(ValueError, match="unknown check"):
        run_check("bogus", find_record("g2(2)"))


def test_suite_status_reflects_failures():
    r = find_record("g2(2)")
    good = run_all([r], checks=["rho", "period"])
    assert suite_status(good) == "pass"
    bad = run_all([mutate(r, modules=())], checks=["count_and_disjoint"])
    assert suite_status(bad) == "fail"


def test_suite_of_skips_alone_does_not_pass():
    reports = run_all([find_record("e6")], checks=["w0_unique", "xi0"])
    assert [rep.status for rep in reports] == ["skipped", "skipped"]
    assert suite_status(reports) == "skipped"
    # one pass next to the skips certifies something
    assert suite_status(run_all([find_record("e6")], checks=["xi0", "rho"])) == "pass"
    assert suite_status([]) == "skipped"


def test_run_check_names_check_and_record():
    r = find_record("g2(2)")
    for name in CHECK_NAMES:
        rep = run_check(name, r)
        assert (rep.check, rep.record) == (name, "g2(2)")
        assert rep.duration_ms >= 0


def test_default_config_values():
    assert DEFAULT_CONFIG.strategy == "chamber"
    assert DEFAULT_CONFIG.budget == 10 ** 7


def test_config_refuses_unknown_strategy():
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        VerifyConfig(strategy="bogus")
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        DEFAULT_CONFIG._replace(strategy="bogus")
    # the strategy the enumeration certificate replaced
    with pytest.raises(ValueError, match="'reduced'; expected one of chamber, brute$"):
        VerifyConfig(strategy="reduced")


@pytest.mark.parametrize("budget", [0, -3])
def test_config_refuses_budget_below_one(budget):
    with pytest.raises(ValueError, match=f"must be positive, got {budget}"):
        VerifyConfig(budget=budget)
    with pytest.raises(ValueError, match=f"must be positive, got {budget}"):
        DEFAULT_CONFIG._replace(budget=budget)


# ---------------------------------------------------------------------------
# ladder properties


def test_casimir_strictly_increases_along_every_ladder():
    # the Casimir scalars <lam, lam + 2 rho> of the rungs separate them, so
    # any shared K-type would force equal scalars
    for name in FAST_RECORDS + ["e7(7)", "e8(8)", "e7(-25)", "so(6,4)"]:
        r = find_record(name)
        two_rho = weight_scale(2, space_rho(r.space))
        for m in r.modules:
            rungs = [weight_add(m.mu0, weight_scale(n, m.beta)) for n in range(11)]
            values = [bilinear(r.space, lam, weight_add(lam, two_rho)) for lam in rungs]
            assert all(a < b for a, b in zip(values, values[1:])), (name, m.label)
