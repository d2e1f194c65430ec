"""Registry data integrity: builtin catalog, parametric families,
validation invariants, and the JSON round trip."""

import json
import time
from fractions import Fraction as Q

import pytest

from minrep import rootsys
from minrep.registry import (
    FAMILIES,
    RegistryFormatError,
    RegistryValidationError,
    all_default_records,
    builtin_records,
    default_instances,
    find_record,
    g_dimension,
    instantiate_family,
    joseph_infchar,
    k_dimension,
    k_display,
    ladder_records,
    load,
    normalize_name,
    one_sided_records,
    record_to_json,
    save,
    validate_record,
)
from minrep.rootsys import (
    MAX_RANK,
    dot,
    make_root_system,
    space_rho,
    space_weyl_dim,
    weight,
    weight_add,
    weight_is_zero,
    weight_scale,
    weight_sub,
)
from minrep.verify import PAPER_COUNTS, paper_count, run_all
from minrep.weyl import apply

from fraction_reference import bilinear


# ---------------------------------------------------------------------------
# catalog shape


def test_builtin_catalog_size_and_unique_names():
    records = builtin_records()
    assert len(records) == 22
    names = [r.name for r in records]
    assert len(set(names)) == len(names)


def test_builtin_records_keep_their_order():
    # built kind by kind: the one-module rows with line data, the one-sided
    # pairs, the complex forms, the empty rows
    assert [r.name for r in builtin_records()] == [
        "f4(4)", "e6(2)", "e7(-5)", "e8(-24)", "g2(2)", "e6(6)", "e7(7)", "e8(8)",
        "e6(-14)", "e7(-25)",
        "g2(C)", "f4(C)", "e6(C)", "e7(C)", "e8(C)",
        "e6", "e7", "e8", "f4", "g2", "e6(-26)", "f4(-20)"]
    assert builtin_records()[:8] == ladder_records()
    assert builtin_records()[8:10] == one_sided_records()


def test_default_instance_count_and_disjoint_names():
    inst = default_instances()
    assert len(inst) == sum(len(f.defaults) for f in FAMILIES.values())
    names = [r.name for r in all_default_records()]
    assert len(set(names)) == len(names)


def test_expected_count_distribution():
    by_count = {}
    for r in all_default_records():
        by_count.setdefault(paper_count(r), []).append(r.name)
    assert sorted(by_count) == sorted({row[1] for row in PAPER_COUNTS}) == [0, 1, 2, 4]
    assert set(by_count[4]) == {"sp(2,R)", "sp(3,R)", "sp(5,R)"}
    # mirror pairs: one-sided cases plus the even/odd pair over C
    assert "e6(-14)" in by_count[2] and "sp(2,C)" in by_count[2]
    assert "e8(8)" in by_count[1] and "so(7,C)" in by_count[1]
    assert "so(6,1)" in by_count[0] and "so(5,4)" in by_count[0]


def test_every_record_validates():
    for r in all_default_records():
        validate_record(r)


def test_nonexistence_reasons():
    for name in ["e6", "e7", "e8", "f4", "g2", "e6(-26)", "f4(-20)",
                 "so(6,1)", "sp(1,1)", "sp(2)", "so(7)"]:
        assert find_record(name).nonexistence_reason == "orbit-misses-p"
    for name in ["so(5,4)", "so(6,5)"]:
        assert find_record(name).nonexistence_reason == "howe-vogan-parity"


def test_zero_rows_have_no_line_data():
    for r in all_default_records():
        if paper_count(r) == 0:
            assert r.modules == ()
            assert r.xi0 is None and r.w0 is None and r.infchar is None
            assert r.rho == space_rho(r.space)


# ---------------------------------------------------------------------------
# stored reference values


def test_f4_4_stored_values():
    r = find_record("f4(4)")
    assert [rs.label for rs in r.space.factors] == ["C3", "A1d"]
    m, = r.modules
    assert m.beta.factors == ((Q(1), Q(1), Q(1)), (Q(1), Q(-1)))
    assert m.mu0.factors == ((0, 0, 0), (1, -1))
    assert r.rho.factors == ((3, 2, 1), (1, -1))
    assert r.xi0.factors == ((1, 0, -1), (0, 0))
    assert [(f, v) for f, v in r.w0.letters] == [
        (0, (1, 0, 1)), (0, (0, 1, 0)), (1, (1, -1))]


def test_e8_minus24_word_uses_half_integer_roots():
    r = find_record("e8(-24)")
    letters = r.w0.letters
    assert len(letters) == 4
    h = Q(1, 2)
    assert letters[1][1] == (-h, h, h, -h, h, -h, h, -h)
    assert letters[2][1] == (h, -h, -h, h, h, -h, h, -h)
    assert r.modules[0].mu0.factors[1] == (8, -8)


def test_e7_minus25_p_summands_are_the_two_cone_weights():
    r = find_record("e7(-25)")
    plus, minus = r.p_summands
    assert plus.factors[0] == (0, 0, 0, 0, 0, Q(-2, 3), Q(-2, 3), Q(2, 3))
    assert minus.factors[0] == (0, 0, 0, 0, 0, 1 - Q(1, 3) - 1, Q(-1, 3), Q(1, 3)) or \
        minus.factors[0] == (0, 0, 0, 0, 1, Q(-1, 3), Q(-1, 3), Q(1, 3))
    assert plus.center == (1,) and minus.center == (-1,)
    assert [m.mu0.center[0] for m in r.modules] == [6, -6]


def test_sp2R_four_modules_match_metaplectic_halves():
    r = find_record("sp(2,R)")
    assert r.hermitian and len(r.modules) == 4
    got = [(m.label, m.mu0.factors[0], m.mu0.center[0], m.null_half)
           for m in r.modules]
    assert got == [
        ("weil-even", (0, 0), Q(1, 2), "p-"),
        ("weil-even-conjugate", (0, 0), Q(-1, 2), "p+"),
        ("weil-odd", (1, 0), Q(1), "p-"),
        ("weil-odd-conjugate", (1, 0), Q(-1), "p+"),
    ]


def test_complex_records_use_highest_root_ladder():
    r = find_record("g2(C)")
    assert r.g_complex == ("G2", "G2")
    theta = r.p_summands[0]
    m, = r.modules
    assert m.beta == theta
    assert bilinear(r.space, r.xi0, theta) == 0
    assert len(r.w0.letters) == 1
    assert r.infchar == (joseph_infchar("G2"),) * 2


def test_so7C_two_factor_complexification():
    r = find_record("so(7,C)")
    assert r.g_complex == ("B3", "B3")
    assert g_dimension(r) == 42 and k_dimension(r) == 21


def test_hermitian_charge_sign_convention():
    for r in all_default_records():
        if not r.hermitian:
            continue
        for m in r.modules:
            assert m.null_half in ("p-", "p+")
            assert (m.mu0.center[0] > 0) == (m.null_half == "p-")
            assert m.beta.center[0] == (1 if m.null_half == "p-" else -1)


def test_beta_is_always_a_p_summand():
    for r in all_default_records():
        for m in r.modules:
            assert m.beta in r.p_summands


def test_line_data_consistency_on_stored_records():
    for r in all_default_records():
        if not r.modules or r.hermitian:
            continue
        seen = set()
        for m in r.modules:
            target = weight_add(m.mu0, r.rho)
            c = bilinear(r.space, target, m.beta) / bilinear(r.space, m.beta, m.beta)
            resid = weight_sub(target, weight_add(r.xi0, weight_scale(c, m.beta)))
            assert weight_is_zero(resid), r.name
            for i in range(len(r.space.factors)):
                assert dot(r.xi0.factors[i], m.beta.factors[i]) == 0
            seen.add(c)
        beta = r.modules[0].beta
        assert weight_is_zero(weight_add(apply(r.space, r.w0, beta), beta))
        assert apply(r.space, r.w0, r.xi0) == r.xi0


def test_p_dimension_matches_summands_everywhere():
    for r in all_default_records():
        pdim = g_dimension(r) - k_dimension(r)
        assert pdim == sum(space_weyl_dim(r.space, w) for w in r.p_summands), r.name


def test_known_p_dimensions():
    expect = {"e8(8)": 128, "f4(4)": 28, "e6(2)": 40, "g2(2)": 8,
              "e8(-24)": 112, "e7(-5)": 64, "e7(7)": 70, "e6(6)": 42,
              "so(5,3)": 15, "e6(-14)": 32, "e7(-25)": 54, "sp(2,R)": 6,
              "e6(-26)": 26, "f4(-20)": 16, "sp(1,1)": 4, "so(5,4)": 20,
              "sp(2)": 0}
    for name, dim in expect.items():
        r = find_record(name)
        assert g_dimension(r) - k_dimension(r) == dim, name


# ---------------------------------------------------------------------------
# families


def test_family_instance_names():
    assert instantiate_family("so_even_even", (3, 2)).name == "so(6,4)"
    assert instantiate_family("so_odd_odd", (2, 1)).name == "so(5,3)"
    assert instantiate_family("so_2n_3", (4,)).name == "so(8,3)"
    assert instantiate_family("sp_R", (2,)).name == "sp(2,R)"
    assert instantiate_family("so_star", (4,)).name == "so*(8)"
    assert instantiate_family("sp_C", (3,)).name == "sp(3,C)"
    assert instantiate_family("so_n_1", (6,)).name == "so(6,1)"
    assert instantiate_family("sp_compact", (2,)).name == "sp(2)"


def test_family_rejects_out_of_range_params():
    with pytest.raises(ValueError, match="n >= m >= 2"):
        instantiate_family("so_even_even", (1, 5))
    with pytest.raises(ValueError, match="p \\+ q odd"):
        instantiate_family("so_odd_sum", (5, 5))
    with pytest.raises(ValueError, match="p >= q >= 4"):
        instantiate_family("so_odd_sum", (4, 3))
    with pytest.raises(ValueError, match="n >= 2"):
        instantiate_family("sp_R", (1,))
    with pytest.raises(ValueError, match="n >= 7"):
        instantiate_family("so_C", (6,))
    with pytest.raises(ValueError, match="takes 2 parameter"):
        instantiate_family("sp_p_q", (3,))
    with pytest.raises(ValueError, match="unknown family"):
        instantiate_family("su_p_q", (2, 1))


@pytest.mark.parametrize("param", [2.7, Q(7, 2), "3", True, 3.0])
def test_family_refuses_a_parameter_that_is_not_an_int(param):
    # int() would build sp(2,R) from 2.7 and sp(3,R) from 7/2
    with pytest.raises(ValueError, match="sp_R parameters must be integers"):
        instantiate_family("sp_R", (param,))


def test_family_instances_validate_across_a_parameter_sweep():
    for n in range(2, 6):
        for m in range(2, n + 1):
            validate_record(instantiate_family("so_even_even", (n, m)))
    for n in range(2, 7):
        validate_record(instantiate_family("sp_R", (n,)))
        validate_record(instantiate_family("so_2n_3", (n,)))
    for p in range(5, 10):
        validate_record(instantiate_family("so_p_2", (p,)))


def test_so_odd_odd_rank_one_second_factor():
    r = instantiate_family("so_odd_odd", (2, 1))
    assert [rs.label for rs in r.space.factors] == ["B2", "B1"]
    assert r.xi0.factors == ((0, Q(1, 2)), (0,))
    assert r.modules[0].mu0.factors == ((0, 0), (1,))
    assert [v for _, v in r.w0.letters] == [(1, 0), (1,)]


def test_so_p_2_parity_of_k_factor():
    assert find_record("so(5,2)").space.factors[0].label == "B2"
    assert find_record("so(6,2)").space.factors[0].label == "D3"
    assert find_record("so(5,2)").g_complex == ("B3",)
    assert find_record("so(6,2)").g_complex == ("D4",)
    assert [m.mu0.center[0] for m in find_record("so(7,2)").modules] == \
        [Q(5, 2), Q(-5, 2)]


def test_mixed_parity_zero_family_uses_b_and_d_factors():
    r = find_record("so(5,4)")
    assert [rs.label for rs in r.space.factors] == ["B2", "D2"]
    assert r.g_complex == ("B4",)


# ---------------------------------------------------------------------------
# lookups and display


def test_normalize_name_examples():
    assert normalize_name("so(6,4)") == "so_6_4"
    assert normalize_name("e8(-24)") == "e8_-24"
    assert normalize_name("SP(2, R)") == "sp_2_r"
    assert normalize_name("so*(8)") == "sostar_8"


def test_find_record_accepts_normalized_aliases():
    assert find_record("SO(6,4)").name == "so(6,4)"
    assert find_record("sp_2_R").name == "sp(2,R)"
    assert find_record("e8_-24").name == "e8(-24)"
    with pytest.raises(KeyError, match="no record named"):
        find_record("sl(5,R)")


def test_k_display():
    assert k_display(find_record("e8(8)").space) == "Spin(16)"
    assert k_display(find_record("f4(4)").space) == "Sp(3)xSU(2)"
    assert k_display(find_record("e7(-25)").space) == "E6xR"
    assert k_display(find_record("sp(3,R)").space) == "SU(3)xR"
    assert k_display(find_record("so(7,2)").space) == "Spin(7)xR"


def test_joseph_infchar_patterns():
    h = Q(1, 2)
    assert joseph_infchar("G2") == (1, Q(1, 3))
    assert joseph_infchar("F4") == (h, h, 1, 1)
    assert joseph_infchar("B3") == (h, h, 1)
    assert joseph_infchar("B5") == (1, 1, h, h, 1)
    assert joseph_infchar("C2") == (1, h)
    assert joseph_infchar("C4") == (1, 1, 1, h)
    assert joseph_infchar("D4") == (1, 0, 1, 1)
    assert joseph_infchar("D6") == (1, 1, 1, 0, 1, 1)
    assert joseph_infchar("E6") == (1, 1, 1, 0, 1, 1)
    assert joseph_infchar("E8") == (1, 1, 1, 0, 1, 1, 1, 1)
    for bad in ["A3", "B2", "D3", "X4"]:
        with pytest.raises(ValueError):
            joseph_infchar(bad)


# ---------------------------------------------------------------------------
# validation failures


SO44, E6_14 = find_record("so(4,4)"), find_record("e6(-14)")


def _first_module(r, **fields):
    return r._replace(modules=(r.modules[0]._replace(**fields), *r.modules[1:]))


def test_validate_rejects_zero_count_without_reason():
    with pytest.raises(RegistryValidationError, match="nonexistence"):
        validate_record(SO44._replace(modules=()))
    with pytest.raises(RegistryValidationError, match="nonexistence"):
        validate_record(SO44._replace(nonexistence_reason="orbit-misses-p"))


def test_validate_rejects_beta_outside_p():
    rogue = weight(SO44.space, (1, 1), (1, 1))
    with pytest.raises(RegistryValidationError, match="p-summand"):
        validate_record(_first_module(SO44, beta=rogue))


def test_validate_rejects_missing_line_data():
    with pytest.raises(RegistryValidationError, match="xi0 and w0"):
        validate_record(SO44._replace(xi0=None, w0=None))


def test_validate_rejects_wrong_null_half():
    flipped = tuple(m._replace(null_half="p+" if m.null_half == "p-" else "p-")
                    for m in E6_14.modules)
    with pytest.raises(RegistryValidationError, match="null half"):
        validate_record(E6_14._replace(modules=flipped))


@pytest.mark.parametrize("record,message", [
    (SO44._replace(modules=(), nonexistence_reason="bogus"), "unknown nonexistence reason 'bogus'"),
    (SO44._replace(hermitian=True), "one-sided records need a one-dimensional center"),
    (E6_14._replace(xi0=E6_14.rho), "one-sided records carry no xi0/w0 data"),
    (SO44._replace(infchar=None), "records with modules need one infchar pattern"),
    (SO44._replace(rho=None), "records with modules need rho"),
    (SO44._replace(p_summands=(*SO44.p_summands, weight(SO44.space, (0, 0), (-1, 0)))),
     "p-summand 1 is not dominant integral"),
    (_first_module(SO44, beta=weight(SO44.space, (0, 0), (0, 0))),
     "module minimal: beta vanishes on the factors"),
    (_first_module(SO44, mu0=weight(SO44.space, (-1, 0), (0, 0))),
     "module minimal: mu0 is not dominant integral"),
    (_first_module(SO44, null_half="p+"),
     "module minimal: null_half only applies to one-sided records"),
    (_first_module(E6_14, null_half=None), "module positive: one-sided records need a null half"),
    # climbing p+ with a charge that says so, but with the beta of p-
    (_first_module(E6_14, null_half="p+", mu0=E6_14.modules[0].mu0._replace(center=(-4,))),
     "module positive: beta climbs the wrong half"),
])
def test_validate_refuses_each_malformed_record(record, message):
    with pytest.raises(RegistryValidationError, match=rf"^record [^:]+: {message}"):
        validate_record(record)


# ---------------------------------------------------------------------------
# serialization


def test_save_load_round_trip_all_defaults():
    records = all_default_records()
    assert load(save(records)) == records


@pytest.mark.parametrize("r", all_default_records(), ids=lambda r: r.name)
def test_each_catalog_record_round_trips_on_its_own(r):
    assert load(save([r])) == (r,)


def _one_module_payload(name):
    payload = json.loads(save([find_record(name)]))
    obj = payload["records"][0]
    obj["modules"] = obj["modules"][:1]
    return payload


@pytest.mark.parametrize("name,edit,message", [
    # the two files that passed `minrep verify` by claiming a class with
    # one module
    ("so(5,2)", {"family": "so_even_even"},
     r"so\(5,2\): so_even_even takes 2 parameter\(s\), got 1"),
    ("e6(-14)", {"name": "e6(6)"},
     r"e6\(6\): does not match the built-in record e6\(6\) in k_factors, "
     "center_dim, hermitian"),
    ("so(5,2)", {"params": [6]},
     r"so\(5,2\): does not match so\(6,2\), the so_p_2 instance at params "
     r"\(6,\), in name, g_complex, k_factors"),
    ("so(5,2)", {"params": [4]}, r"so\(5,2\): so_p_2 requires p >= 5"),
    ("so(5,2)", {"family": "su_p_q"}, r"so\(5,2\): unknown family 'su_p_q'"),
    ("so(5,2)", {"family": None}, None),
])
def test_load_refuses_a_record_of_another_class(name, edit, message):
    payload = _one_module_payload(name)
    payload["records"][0].update(edit)
    if message is None:
        # without a family, a name that no built-in record has is not a
        # claim, like the hand-written toy record below
        assert len(load(json.dumps(payload))) == 1
        return
    with pytest.raises(RegistryFormatError, match=message):
        load(json.dumps(payload))


def test_load_builds_the_builtin_records_once(monkeypatch):
    records = builtin_records()
    text = save(records)
    calls = []
    monkeypatch.setattr("minrep.registry.builtin_records",
                        lambda: calls.append(1) or records)
    assert load(text) == records
    assert calls == [1]
    # records with a family are checked against their family alone
    load(save(default_instances()))
    assert calls == [1]


def test_rationals_serialize_as_fraction_strings():
    blob = record_to_json(find_record("sp(2,R)"))
    assert blob["modules"][0]["mu0"]["center"] == ["1/2"]
    assert blob["modules"][2]["mu0"]["factors"][0] == ["1", "0"]


def test_load_rejects_unknown_schema():
    text = json.dumps({"schema": "minrep-registry/2", "records": []})
    with pytest.raises(RegistryFormatError, match="minrep-registry/1"):
        load(text)


def test_load_reports_parse_position():
    with pytest.raises(RegistryFormatError, match="line 3"):
        load('{\n  "schema": "minrep-registry/1",\n  bad\n}')


def test_old_format_expected_count_is_ignored():
    # files written before the counts moved to the verify layer carry an
    # expected_count per record; the loader ignores it like any unknown
    # key, and count_and_disjoint checks the modules against the paper
    records = all_default_records()
    payload = json.loads(save(records))
    for obj in payload["records"]:
        obj["expected_count"] = len(obj["modules"])
    payload["records"][0]["expected_count"] += 1
    loaded = load(json.dumps(payload))
    assert loaded == records
    def verdicts(pool):
        return [(rep.record, rep.status, rep.evidence)
                for rep in run_all(pool, checks=["count_and_disjoint"])]

    assert verdicts(loaded) == verdicts(records)


def test_load_rejects_bad_rational():
    payload = json.loads(save([find_record("e8(8)")]))
    payload["records"][0]["rho"]["factors"][0][0] = "1/0"
    with pytest.raises(RegistryFormatError, match="bad rational"):
        load(json.dumps(payload))


def _g2_2_payload():
    return json.loads(save([find_record("g2(2)")]))


def _refused(payload, message):
    with pytest.raises(RegistryFormatError, match=f"^record g2\\(2\\): {message}"):
        load(json.dumps(payload))


@pytest.mark.parametrize("field", ["k_factors", "g_complex", "hermitian", "p_summands",
                                   "modules"])
def test_load_names_a_missing_field(field):
    payload = _g2_2_payload()
    del payload["records"][0][field]
    _refused(payload, f"missing field '{field}'$")


def test_load_refuses_a_rational_written_as_a_json_number():
    # it would pass through a float: 4503599627370497/4503599627370496
    payload = _g2_2_payload()
    payload["records"][0]["xi0"]["factors"][0][0] = 1.0000000000000002
    _refused(payload, "rational 1.0000000000000002 must be a string")


def test_load_refuses_true_as_a_rational():
    # true would read as 1, the stored value, and the rho check would pass
    payload = _g2_2_payload()
    payload["records"][0]["rho"]["factors"][0][0] = True
    _refused(payload, "rational True must be a string")


@pytest.mark.parametrize("text", ["1e999999999", "0.5", "1_0"])
def test_load_refuses_a_rational_that_is_not_p_or_p_over_q(text):
    # Fraction would read each of these, the first by building an integer
    # of about 3.3 billion bits
    payload = _g2_2_payload()
    payload["records"][0]["xi0"]["factors"][0][0] = text
    start = time.perf_counter()
    _refused(payload, f"bad rational {text!r}")
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("text,value", [("-1/2", Q(-1, 2)), ("3", Q(3))])
def test_load_reads_p_and_p_over_q(text, value):
    payload = _g2_2_payload()
    payload["records"][0]["xi0"]["factors"][0][0] = text
    (r,) = load(json.dumps(payload))
    assert r.xi0.factors[0][0] == value


def test_load_refuses_a_vector_written_as_a_string():
    # "20" would be read character by character as (2, 0)
    payload = _g2_2_payload()
    payload["records"][0]["modules"][0]["mu0"]["factors"][0] = "20"
    _refused(payload, "vector must be an array, got '20'")


def test_load_refuses_a_letter_factor_that_is_not_an_integer():
    # true would read as factor 1, the stored factor
    payload = _g2_2_payload()
    assert payload["records"][0]["w0"][1][0] == 1
    payload["records"][0]["w0"][1][0] = True
    _refused(payload, "w0 letter factor must be an integer, got True")


@pytest.mark.parametrize("edit,message", [
    (lambda rec: rec["p_summands"].append({"factors": [["1", "-1"]], "center": []}),
     "weight has 1 blocks, space has 2"),
    (lambda rec: rec["rho"]["factors"].pop(), "weight has 1 blocks, space has 2"),
    (lambda rec: rec["modules"][0]["mu0"]["factors"][1].append("0"),
     "block .* has wrong length for A1d"),
])
def test_load_refuses_a_weight_of_the_wrong_shape(edit, message):
    # g2(2) has K = A1d x A1d; a weight of another shape used to escape
    # validation as conform's bare ValueError
    payload = _g2_2_payload()
    edit(payload["records"][0])
    with pytest.raises(RegistryValidationError, match=f"^record g2\\(2\\): {message}"):
        load(json.dumps(payload))


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["records"][0].update(xi0=["1", "0"]),
     r"^record g2\(2\): expected a weight object"),
    (lambda doc: doc["records"][0]["modules"][0].update(beta={"center": []}),
     r"^record g2\(2\): expected a weight object"),
    (lambda doc: doc.update(records={"g2(2)": doc["records"][0]}),
     r"^schema requires a list under 'records'"),
    (lambda doc: doc.pop("records"), r"^schema requires a list under 'records'"),
])
def test_load_refuses_a_file_of_the_wrong_shape(edit, message):
    payload = _g2_2_payload()
    edit(payload)
    with pytest.raises(RegistryFormatError, match=message):
        load(json.dumps(payload))


def _e8_8_payload():
    return json.loads(save([find_record("e8(8)")]))


@pytest.mark.parametrize("field,value", [
    ("center_dim", 0.0), ("center_dim", False), ("center_dim", -1),
    pytest.param("params", [8.0], id="params-value6"),
    pytest.param("params", [True], id="params-value7"),
])
def test_load_requires_exact_integers(field, value):
    payload = _e8_8_payload()
    payload["records"][0][field] = value
    with pytest.raises(RegistryFormatError, match=f"e8\\(8\\): {field}"):
        load(json.dumps(payload))


def test_load_requires_string_labels():
    payload = _e8_8_payload()
    payload["records"][0]["modules"][0]["label"] = 7
    with pytest.raises(RegistryFormatError, match="e8\\(8\\): module label"):
        load(json.dumps(payload))
    payload = _e8_8_payload()
    payload["records"][0]["k_factors"] = [8]
    with pytest.raises(RegistryFormatError, match="e8\\(8\\): k_factors"):
        load(json.dumps(payload))
    payload = _e8_8_payload()
    payload["records"][0]["family"] = 7
    with pytest.raises(RegistryFormatError, match="e8\\(8\\): family"):
        load(json.dumps(payload))


@pytest.mark.parametrize("field", ["k_factors", "g_complex"])
def test_load_refuses_an_unsupported_type(field):
    payload = _e8_8_payload()
    payload["records"][0][field] = ["Z3"]
    with pytest.raises(RegistryFormatError,
                       match=f"e8\\(8\\): {field} unsupported type 'Z3'"):
        load(json.dumps(payload))


def test_load_rejects_a_record_that_is_not_an_object():
    text = json.dumps({"schema": "minrep-registry/1", "records": [7]})
    with pytest.raises(RegistryFormatError, match="record without a name"):
        load(text)


def test_load_requires_a_boolean_hermitian_flag():
    payload = _e8_8_payload()
    payload["records"][0]["hermitian"] = "false"
    with pytest.raises(RegistryFormatError, match="e8\\(8\\): hermitian"):
        load(json.dumps(payload))


def test_load_rejects_duplicate_records():
    r = find_record("e8(8)")
    with pytest.raises(RegistryFormatError, match="e8\\(8\\): duplicate"):
        load(save([r, r]))
    alias = json.loads(save([r, r]))
    alias["records"][1]["name"] = "E8 (8)"
    with pytest.raises(RegistryFormatError, match="duplicate of record e8\\(8\\)"):
        load(json.dumps(alias))


@pytest.mark.parametrize("field", ["k_factors", "g_complex"])
def test_load_caps_the_rank_before_building(field, monkeypatch):
    built = []
    real = rootsys.from_simple

    def recording(label, *args):
        built.append(label)
        return real(label, *args)

    monkeypatch.setattr(rootsys, "from_simple", recording)
    too_big = f"D{MAX_RANK + 1}"
    payload = _e8_8_payload()
    payload["records"][0][field] = [too_big]
    with pytest.raises(RegistryFormatError, match=f"e8\\(8\\): {field} type '{too_big}'"):
        load(json.dumps(payload))
    assert too_big not in built


def test_load_accepts_ranks_up_to_the_cap():
    catalog_ranks = [make_root_system(t).rank for r in all_default_records()
                     for t in r.g_complex]
    assert max(catalog_ranks) == 8 <= MAX_RANK
    at_cap = instantiate_family("so_even_even", (8, 8))
    assert at_cap.g_complex == (f"D{MAX_RANK}",)
    assert load(save([at_cap])) == (at_cap,)


TOY_TEXT = """
{
  "schema": "minrep-registry/1",
  "records": [
    {
      "name": "toy(1,1)",
      "g_complex": ["D2"],
      "k_factors": ["A1", "A1"],
      "center_dim": 0,
      "hermitian": false,
      "p_summands": [{"factors": [["1", "-1"], ["1", "-1"]], "center": []}],
      "modules": [
        {"label": "minimal",
         "mu0": {"factors": [["0", "0"], ["0", "0"]], "center": []},
         "beta": {"factors": [["1", "-1"], ["1", "-1"]], "center": []},
         "null_half": null}
      ],
      "nonexistence_reason": null,
      "rho": {"factors": [["1/2", "-1/2"], ["1/2", "-1/2"]], "center": []},
      "xi0": {"factors": [["0", "0"], ["0", "0"]], "center": []},
      "w0": [[0, ["1", "-1"]], [1, ["1", "-1"]]],
      "infchar": [["1", "1"]],
      "family": null,
      "params": []
    }
  ]
}
"""


def test_hand_written_toy_record_loads():
    toy, = load(TOY_TEXT)
    assert toy.name == "toy(1,1)"
    assert [rs.label for rs in toy.space.factors] == ["A1", "A1"]
    assert toy.modules[0].beta.factors == ((1, -1), (1, -1))
    assert len(toy.w0.letters) == 2
    assert find_record("TOY(1, 1)", [toy]) is toy
    # and it survives its own round trip
    assert load(save([toy])) == (toy,)
