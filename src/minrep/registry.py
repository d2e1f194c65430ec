"""Catalog of simple real forms (not of type A) and their minimal-module
data: the compact-subgroup weight space, the ladder direction beta, the
bottom K-type mu0, stored reference values (rho, xi0, a word for w0, an
infinitesimal-character pattern), and machine readable reasons for the
empty cases.

Every stored value is re-derived by the verification layer; the registry
itself only transcribes.  Records serialize to a versioned JSON format
(see ``save``/``load``): rationals as strings "p" or "p/q", weights as
per-factor coordinate arrays plus a "center" array.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable
from fractions import Fraction as Q
from functools import cache

from .render import format_q, parse_q
from .rootsys import (
    KSpace,
    RootSystem,
    UnsupportedCartanType,
    Weight,
    conform,
    dot,
    is_zero,
    make_root_system,
    space_dominance,
    space_rho,
    vscale,
    vsub,
    weight,
)
from .weyl import WeylWord, word

SCHEMA = "minrep-registry/1"

REASON_ORBIT = "orbit-misses-p"
REASON_PARITY = "howe-vogan-parity"
NULL_HALVES = ("p-", "p+")


class MinimalModuleRecord(namedtuple("MinimalModuleRecord",
                                     ["label", "mu0", "beta", "null_half"],
                                     defaults=[None])):
    """One module: bottom K-type mu0 and the ladder direction beta.

    For the one-sided (Hermitian) cases, null_half records which half of
    the complexified tangent space annihilates the extreme vector: "p-"
    for modules climbing the positive half, "p+" for their mirrors.
    """
    __slots__ = ()


class RealFormRecord(namedtuple("RealFormRecord", [
        "name",                     # e.g. "f4(4)", "so(6,4)", "sp(2,R)"
        "g_complex",                # Cartan types of the complexification
        "space", "hermitian", "p_summands", "modules", "nonexistence_reason",
        "rho",                      # stored reference, checked against space_rho
        "xi0", "w0",
        "infchar",                  # fundamental-weight coefficients
        "family", "params"], defaults=[None] * 6 + [()])):
    __slots__ = ()

    @property
    def key(self) -> str:
        return normalize_name(self.name)


def normalize_name(name: str) -> str:
    out = name.strip().lower().replace(" ", "")
    out = out.replace("*", "star")
    out = out.replace("(", "_").replace(")", "").replace(",", "_")
    return out


def dim_of_type(label: str) -> int:
    rs = make_root_system(label)
    return 2 * len(rs.positive_images) + rs.rank


def g_dimension(record: RealFormRecord) -> int:
    return sum(dim_of_type(t) for t in record.g_complex)


def k_dimension(record: RealFormRecord) -> int:
    return sum(dim_of_type(rs.label) for rs in record.space.factors) + record.space.center_dim


def k_display(space: KSpace) -> str:
    names = []
    for rs in space.factors:
        if rs.label == "A1d":
            names.append("SU(2)")
        elif rs.family == "A":
            names.append(f"SU({rs.rank + 1})")
        elif rs.family == "B":
            names.append(f"Spin({2 * rs.rank + 1})")
        elif rs.family == "D":
            names.append(f"Spin({2 * rs.rank})")
        elif rs.family == "C":
            names.append(f"Sp({rs.rank})")
        else:
            names.append(rs.label)
    names.extend(["R"] * space.center_dim)
    return "x".join(names)


# ---------------------------------------------------------------------------
# infinitesimal-character patterns (fundamental-weight coefficients)


def joseph_infchar(g_label: str) -> tuple[Q, ...]:
    """Coefficient pattern of the smallest nontrivial infinitesimal
    character, indexed by the Cartan type of one simple component."""
    family, rank_text = g_label[:1], g_label[1:]
    h, one = Q(1, 2), Q(1)
    # classical types from their least rank: ones, then a fixed tail
    least, tail = {"B": (3, (h, h, one)), "C": (2, (h,)),
                   "D": (4, (Q(0), one, one))}.get(family, (0, ()))
    if tail and rank_text.isdigit() and int(rank_text) >= least:
        return (one,) * (int(rank_text) - len(tail)) + tail
    fixed = {
        "E6": (1, 1, 1, 0, 1, 1),
        "E7": (1, 1, 1, 0, 1, 1, 1),
        "E8": (1, 1, 1, 0, 1, 1, 1, 1),
        "F4": (h, h, 1, 1),
        "G2": (1, Q(1, 3)),
    }
    if g_label in fixed:
        return tuple(Q(c) for c in fixed[g_label])
    raise ValueError(f"no infinitesimal-character pattern for type {g_label}")


# ---------------------------------------------------------------------------
# validation


class RegistryValidationError(ValueError):
    pass


def _fail(record_name: str, message: str):
    raise RegistryValidationError(f"record {record_name}: {message}")


def validate_record(r: RealFormRecord) -> None:
    if (not r.modules) != (r.nonexistence_reason is not None):
        _fail(r.name, "no modules exactly when a nonexistence reason is present")
    if r.nonexistence_reason not in (None, REASON_ORBIT, REASON_PARITY):
        _fail(r.name, f"unknown nonexistence reason {r.nonexistence_reason!r}")
    for t in r.g_complex:
        make_root_system(t)
    # a weight must have K's shape before anything reads its blocks
    try:
        for w in (*r.p_summands, r.rho, r.xi0,
                  *(x for m in r.modules for x in (m.mu0, m.beta))):
            if w is not None:
                conform(r.space, w)
    except ValueError as exc:
        _fail(r.name, str(exc))
    # each summand is the highest weight of a K-module in p, so a module's
    # beta, one of them, is dominant integral too
    for i, w in enumerate(r.p_summands):
        dom = space_dominance(r.space, w)
        if not (dom.dominant and dom.integral):
            _fail(r.name, f"p-summand {i} is not dominant integral")
    if r.hermitian and r.space.center_dim != 1:
        _fail(r.name, "one-sided records need a one-dimensional center")
    if r.modules:
        if not r.hermitian:
            if r.xi0 is None or r.w0 is None:
                _fail(r.name, "records with modules need xi0 and w0 unless one-sided")
        else:
            if r.xi0 is not None or r.w0 is not None:
                _fail(r.name, "one-sided records carry no xi0/w0 data")
        if r.rho is None:
            _fail(r.name, "records with modules need rho")
        if r.infchar is None or len(r.infchar) != len(r.g_complex):
            _fail(r.name, "records with modules need one infchar pattern per component")
    for m in r.modules:
        if all(is_zero(v) for v in m.beta.factors):
            _fail(r.name, f"module {m.label}: beta vanishes on the factors")
        if m.beta not in r.p_summands:
            _fail(r.name, f"module {m.label}: beta is not a p-summand weight")
        dom = space_dominance(r.space, m.mu0)
        if not (dom.dominant and dom.integral):
            _fail(r.name, f"module {m.label}: mu0 is not dominant integral")
        if r.hermitian:
            if m.null_half not in NULL_HALVES:
                _fail(r.name, f"module {m.label}: one-sided records need a null half")
            charge = m.mu0.center[0]
            if (charge > 0) != (m.null_half == "p-"):
                _fail(r.name, f"module {m.label}: null half contradicts the center charge")
            if m.beta.center[0] != (1 if m.null_half == "p-" else -1):
                _fail(r.name, f"module {m.label}: beta climbs the wrong half")
        elif m.null_half is not None:
            _fail(r.name, f"module {m.label}: null_half only applies to one-sided records")


# ---------------------------------------------------------------------------
# builders


def _space(*labels: str, center: int = 0) -> KSpace:
    return KSpace(tuple(make_root_system(l) for l in labels), center)


def _desc(start, count: int, step=1) -> tuple[Q, ...]:
    s = Q(start)
    return tuple(s - k * Q(step) for k in range(count))


def _so_type(k: int) -> str:
    """Cartan type of so(k, C): B for odd k, D for even k."""
    return f"B{(k - 1) // 2}" if k % 2 else f"D{k // 2}"


def _e1(n: int, value=1) -> tuple[Q, ...]:
    return (Q(value),) + (Q(0),) * (n - 1)


def _complex_xi0(rs: RootSystem) -> tuple[Q, ...]:
    theta = rs.highest_root
    c = dot(rs.rho, theta) / dot(theta, theta)
    return vsub(rs.rho, vscale(c, theta))


def _complex_record(name: str, k_label: str, *, modules_mu0, module_labels,
                    family=None, params=()) -> RealFormRecord:
    """A complex simple algebra viewed as real: the compact factor is the
    same type, the ladder direction is its highest root, and the stored
    line data comes from the orthogonal decomposition of rho."""
    rs = make_root_system(k_label)
    sp = KSpace((rs,), 0)
    theta = weight(sp, rs.highest_root)
    mods = tuple(
        MinimalModuleRecord(lbl, weight(sp, mu), theta)
        for lbl, mu in zip(module_labels, modules_mu0))
    g_label = rs.label if rs.label != "A1d" else "A1"
    pattern = joseph_infchar(g_label)
    return RealFormRecord(
        name=name, g_complex=(g_label, g_label), space=sp, hermitian=False,
        p_summands=(theta,), modules=mods,
        rho=space_rho(sp), xi0=weight(sp, _complex_xi0(rs)),
        w0=word(sp, [(0, rs.highest_root)]),
        infchar=(pattern, pattern), family=family, params=tuple(params))


def _zero_record(name: str, g_complex: tuple[str, ...], sp: KSpace,
                 p_summands: tuple[Weight, ...], reason: str,
                 family=None, params=()) -> RealFormRecord:
    return RealFormRecord(
        name=name, g_complex=g_complex, space=sp, hermitian=False,
        p_summands=p_summands, modules=(), nonexistence_reason=reason, rho=space_rho(sp),
        family=family, params=tuple(params))


def _hermitian_record(name: str, g_complex: str, sp: KSpace,
                      plus_weight, minus_weight, charge,
                      family=None, params=()) -> RealFormRecord:
    """Two mirror modules with scalar bottom K-types of center charge
    +-charge, climbing the +-1 charged halves respectively."""
    p_plus = weight(sp, plus_weight, center=(1,))
    p_minus = weight(sp, minus_weight, center=(-1,))
    charge = Q(charge)
    mods = (
        MinimalModuleRecord("positive", weight(sp, (0,) * sp.factors[0].ambient,
                                               center=(charge,)), p_plus, "p-"),
        MinimalModuleRecord("negative", weight(sp, (0,) * sp.factors[0].ambient,
                                               center=(-charge,)), p_minus, "p+"),
    )
    return RealFormRecord(
        name=name, g_complex=(g_complex,), space=sp, hermitian=True,
        p_summands=(p_plus, p_minus), modules=mods,
        rho=space_rho(sp), infchar=(joseph_infchar(g_complex),),
        family=family, params=tuple(params))


def _ladder_record(name: str, g_complex: str, sp: KSpace, beta_coords,
                   mu0_coords, rho_coords, xi0_coords, w0_letters,
                   family=None, params=()) -> RealFormRecord:
    """One module climbing the only p-summand beta, with its line data;
    each *_coords argument lists one coordinate vector per factor."""
    beta = weight(sp, *beta_coords)
    mod = MinimalModuleRecord("minimal", weight(sp, *mu0_coords), beta)
    return RealFormRecord(
        name=name, g_complex=(g_complex,), space=sp, hermitian=False,
        p_summands=(beta,), modules=(mod,),
        rho=weight(sp, *rho_coords), xi0=weight(sp, *xi0_coords),
        w0=word(sp, w0_letters), infchar=(joseph_infchar(g_complex),),
        family=family, params=tuple(params))


def _ladder_fixed() -> list[RealFormRecord]:
    """One module climbing the only p-summand, with line data: the fixed
    rows of the non-Hermitian tables."""
    h = Q(1, 2)
    eta1 = (h, -h, -h, h, h, -h, h, -h)
    eta2 = (-h, h, h, -h, h, -h, h, -h)
    return [
        _ladder_record(
            "f4(4)", "F4", _space("C3", "A1d"),
            [(1, 1, 1), (1, -1)], [(0, 0, 0), (1, -1)],
            [(3, 2, 1), (1, -1)], [(1, 0, -1), (0, 0)],
            [(0, (1, 0, 1)), (0, (0, 1, 0)), (1, (1, -1))]),
        _ladder_record(
            "e6(2)", "E6", _space("A5", "A1d"),
            [(h, h, h, -h, -h, -h), (1, -1)], [(0,) * 6, (2, -2)],
            [_desc(Q(5, 2), 6), (1, -1)], [(1, 0, -1, 1, 0, -1), (0, 0)],
            [(0, (1, 0, 0, -1, 0, 0)), (0, (0, 1, 0, 0, -1, 0)),
             (0, (0, 0, 1, 0, 0, -1)), (1, (1, -1))]),
        _ladder_record(
            "e7(-5)", "E7", _space("D6", "A1d"),
            [(h,) * 6, (1, -1)], [(0,) * 6, (4, -4)],
            [_desc(5, 6), (1, -1)], [_desc(Q(5, 2), 6), (0, 0)],
            [(0, (1, 0, 0, 0, 0, 1)), (0, (0, 1, 0, 0, 1, 0)),
             (0, (0, 0, 1, 1, 0, 0)), (1, (1, -1))]),
        _ladder_record(
            "e8(-24)", "E8", _space("E7", "A1d"),
            [(0, 0, 0, 0, 0, 1, -h, h), (1, -1)], [(0,) * 8, (8, -8)],
            [(0, 1, 2, 3, 4, 5, Q(-17, 2), Q(17, 2)), (1, -1)],
            [(0, 1, 2, 3, 4, -4, -4, 4), (0, 0)],
            [(0, (0, 0, 0, 0, 1, 1, 0, 0)), (0, eta2), (0, eta1), (1, (1, -1))]),
        _ladder_record(
            "g2(2)", "G2", _space("A1d", "A1d"),
            [(3, -3), (1, -1)], [(2, -2), (0, 0)],
            [(1, -1), (1, -1)], [(0, 0), (0, 0)],
            [(0, (1, -1)), (1, (1, -1))]),
        _ladder_record(
            "e6(6)", "E6", _space("C4"),
            [(1, 1, 1, 1)], [(0, 0, 0, 0)],
            [(4, 3, 2, 1)], [(Q(3, 2), Q(1, 2), Q(-1, 2), Q(-3, 2))],
            [(0, (1, 0, 0, 1)), (0, (0, 1, 1, 0))]),
        _ladder_record(
            "e7(7)", "E7", _space("A7"),
            [(h, h, h, h, -h, -h, -h, -h)], [(0,) * 8],
            [_desc(Q(7, 2), 8)], [(Q(3, 2), h, -h, Q(-3, 2)) * 2],
            [(0, (1, 0, 0, 0, -1, 0, 0, 0)), (0, (0, 1, 0, 0, 0, -1, 0, 0)),
             (0, (0, 0, 1, 0, 0, 0, -1, 0)), (0, (0, 0, 0, 1, 0, 0, 0, -1))]),
        _ladder_record(
            "e8(8)", "E8", _space("D8"),
            [(h,) * 8], [(0,) * 8],
            [_desc(7, 8)], [_desc(Q(7, 2), 8)],
            [(0, (1, 0, 0, 0, 0, 0, 0, 1)), (0, (0, 1, 0, 0, 0, 0, 1, 0)),
             (0, (0, 0, 1, 0, 0, 1, 0, 0)), (0, (0, 0, 0, 1, 1, 0, 0, 0))]),
    ]


def _one_sided_fixed() -> list[RealFormRecord]:
    """One-sided pairs with exceptional complexification."""
    h = Q(1, 2)
    e6 = make_root_system("E6")
    return [_hermitian_record("e6(-14)", "E6", _space("D5", center=1),
                              (h, h, h, h, h), (h, h, h, h, h), 4),
            _hermitian_record("e7(-25)", "E7", _space("E6", center=1),
                              e6.fundamental[0], e6.fundamental[5], 6)]


def _complex_fixed() -> list[RealFormRecord]:
    """Complex exceptional algebras viewed as real."""
    return [_complex_record(f"{lbl.lower()}(C)", lbl,
                            modules_mu0=[(0,) * make_root_system(lbl).ambient],
                            module_labels=["minimal"])
            for lbl in ["G2", "F4", "E6", "E7", "E8"]]


def _empty_fixed() -> list[RealFormRecord]:
    """Empty rows with exceptional complexification."""
    h = Q(1, 2)
    out = [_zero_record(lbl.lower(), (lbl,), _space(lbl), (), REASON_ORBIT)
           for lbl in ["E6", "E7", "E8", "F4", "G2"]]
    spf = _space("F4")
    out.append(_zero_record("e6(-26)", ("E6",), spf,
                            (weight(spf, _e1(4)),), REASON_ORBIT))
    spb = _space("B4")
    out.append(_zero_record("f4(-20)", ("F4",), spb,
                            (weight(spb, (h, h, h, h)),), REASON_ORBIT))
    return out


def _fixed_records() -> list[RealFormRecord]:
    """The built-in records in catalog order, kind by kind."""
    return _ladder_fixed() + _one_sided_fixed() + _complex_fixed() + _empty_fixed()


# ---------------------------------------------------------------------------
# parametric families


class Family(namedtuple("Family",
                        ["family_id", "constraint", "accepts", "build", "defaults"])):
    # defaults holds parameter tuples, and the first fixes the arity
    __slots__ = ()


def _so_even_even(n: int, m: int) -> RealFormRecord:
    return _ladder_record(
        f"so({2 * n},{2 * m})", f"D{n + m}", _space(f"D{n}", f"D{m}"),
        [_e1(n), _e1(m)], [(0,) * n, _e1(m, n - m)],
        [_desc(n - 1, n), _desc(m - 1, m)],
        [(0,) + _desc(n - 2, n - 1), (0,) + _desc(m - 2, m - 1)],
        [(0, (1,) + (0,) * (n - 2) + (1,)),
         (0, (1,) + (0,) * (n - 2) + (-1,)),
         (1, (1,) + (0,) * (m - 2) + (1,)),
         (1, (1,) + (0,) * (m - 2) + (-1,))],
        family="so_even_even", params=(n, m))


def _so_odd_odd(n: int, m: int) -> RealFormRecord:
    return _ladder_record(
        f"so({2 * n + 1},{2 * m + 1})", f"D{n + m + 1}", _space(f"B{n}", f"B{m}"),
        [_e1(n), _e1(m)], [(0,) * n, _e1(m, n - m)],
        [_desc(Q(2 * n - 1, 2), n), _desc(Q(2 * m - 1, 2), m)],
        [(0,) + _desc(Q(2 * n - 3, 2), n - 1), (0,) + _desc(Q(2 * m - 3, 2), m - 1)],
        [(0, _e1(n)), (1, _e1(m))],
        family="so_odd_odd", params=(n, m))


def _so_2n_3(n: int) -> RealFormRecord:
    return _ladder_record(
        f"so({2 * n},3)", f"B{n + 1}", _space(f"D{n}", "A1d"),
        [_e1(n), (2, -2)], [(0,) * n, (2 * n - 3, -(2 * n - 3))],
        [_desc(n - 1, n), (1, -1)], [(0,) + _desc(n - 2, n - 1), (0, 0)],
        [(0, (1,) + (0,) * (n - 2) + (1,)),
         (0, (1,) + (0,) * (n - 2) + (-1,)),
         (1, (1, -1))],
        family="so_2n_3", params=(n,))


def _so_p_2(p: int) -> RealFormRecord:
    sp = _space(_so_type(p), center=1)
    n = sp.factors[0].ambient
    return _hermitian_record(f"so({p},2)", _so_type(p + 2), sp, _e1(n), _e1(n),
                             Q(p - 2, 2), family="so_p_2", params=(p,))


def _sp_R(n: int) -> RealFormRecord:
    sp = _space(f"A{n - 1}", center=1)
    p_plus = weight(sp, _e1(n, 2), center=(1,))
    p_minus = weight(sp, (2,) * (n - 1) + (0,), center=(-1,))
    zero = (0,) * n
    quarter = Q(n, 4)
    odd_charge = Q(n + 2, 4)
    mods = (
        MinimalModuleRecord("weil-even", weight(sp, zero, center=(quarter,)),
                            p_plus, "p-"),
        MinimalModuleRecord("weil-even-conjugate",
                            weight(sp, zero, center=(-quarter,)), p_minus, "p+"),
        MinimalModuleRecord("weil-odd", weight(sp, _e1(n), center=(odd_charge,)),
                            p_plus, "p-"),
        MinimalModuleRecord("weil-odd-conjugate",
                            weight(sp, (1,) * (n - 1) + (0,), center=(-odd_charge,)),
                            p_minus, "p+"),
    )
    return RealFormRecord(
        name=f"sp({n},R)", g_complex=(f"C{n}",), space=sp, hermitian=True,
        p_summands=(p_plus, p_minus), modules=mods,
        rho=space_rho(sp), infchar=(joseph_infchar(f"C{n}"),),
        family="sp_R", params=(n,))


def _so_star(n: int) -> RealFormRecord:
    sp = _space(f"A{n - 1}", center=1)
    plus = (1, 1) + (0,) * (n - 2)
    minus = (1,) * (n - 2) + (0, 0)
    return _hermitian_record(f"so*({2 * n})", f"D{n}", sp, plus, minus, Q(n, 2),
                             family="so_star", params=(n,))


def _sp_C(n: int) -> RealFormRecord:
    return _complex_record(f"sp({n},C)", f"C{n}",
                           modules_mu0=[(0,) * n, _e1(n)],
                           module_labels=["even", "odd"],
                           family="sp_C", params=(n,))


def _so_C(n: int) -> RealFormRecord:
    k_label = _so_type(n)
    return _complex_record(f"so({n},C)", k_label,
                           modules_mu0=[(0,) * make_root_system(k_label).ambient],
                           module_labels=["minimal"],
                           family="so_C", params=(n,))


def _so_n_1(n: int) -> RealFormRecord:
    sp = _space(_so_type(n))
    return _zero_record(f"so({n},1)", (_so_type(n + 1),), sp,
                        (weight(sp, _e1(sp.factors[0].ambient)),), REASON_ORBIT,
                        family="so_n_1", params=(n,))


def _sp_p_q(p: int, q: int) -> RealFormRecord:
    sp = _space(f"C{p}", f"C{q}")
    return _zero_record(f"sp({p},{q})", (f"C{p + q}",), sp,
                        (weight(sp, _e1(p), _e1(q)),), REASON_ORBIT,
                        family="sp_p_q", params=(p, q))


def _so_odd_sum(p: int, q: int) -> RealFormRecord:
    sp = _space(_so_type(p), _so_type(q))
    return _zero_record(f"so({p},{q})", (_so_type(p + q),), sp,
                        (weight(sp, _e1(sp.factors[0].ambient),
                                _e1(sp.factors[1].ambient)),), REASON_PARITY,
                        family="so_odd_sum", params=(p, q))


def _sp_compact(n: int) -> RealFormRecord:
    return _zero_record(f"sp({n})", (f"C{n}",), _space(f"C{n}"), (), REASON_ORBIT,
                        family="sp_compact", params=(n,))


def _so_compact(n: int) -> RealFormRecord:
    k_label = _so_type(n)
    return _zero_record(f"so({n})", (k_label,), _space(k_label), (), REASON_ORBIT,
                        family="so_compact", params=(n,))


FAMILIES: dict[str, Family] = {f.family_id: f for f in [
    Family("so_even_even", "n >= m >= 2",
           lambda n, m: n >= m >= 2, _so_even_even, ((2, 2), (3, 2), (4, 3))),
    Family("so_odd_odd", "n >= m >= 1 and n + m >= 3",
           lambda n, m: n >= m >= 1 and n + m >= 3, _so_odd_odd, ((2, 1), (3, 2))),
    Family("so_2n_3", "n >= 2", lambda n: n >= 2, _so_2n_3, ((2,), (4,))),
    Family("so_p_2", "p >= 5", lambda p: p >= 5, _so_p_2, ((5,), (6,), (7,))),
    Family("sp_R", "n >= 2", lambda n: n >= 2, _sp_R, ((2,), (3,), (5,))),
    Family("so_star", "n >= 4", lambda n: n >= 4, _so_star, ((4,), (5,))),
    Family("sp_C", "n >= 2", lambda n: n >= 2, _sp_C, ((2,), (3,))),
    Family("so_C", "n >= 7", lambda n: n >= 7, _so_C, ((7,), (8,))),
    Family("so_n_1", "n >= 6", lambda n: n >= 6, _so_n_1, ((6,), (7,))),
    Family("sp_p_q", "p >= 1 and q >= 1",
           lambda p, q: p >= 1 and q >= 1, _sp_p_q, ((1, 1), (2, 1))),
    Family("so_odd_sum", "p >= q >= 4 and p + q odd",
           lambda p, q: p >= q >= 4 and (p + q) % 2 == 1, _so_odd_sum,
           ((5, 4), (6, 5))),
    Family("sp_compact", "n >= 2", lambda n: n >= 2, _sp_compact, ((2,), (3,))),
    Family("so_compact", "n >= 7", lambda n: n >= 7, _so_compact, ((7,), (8,))),
]}


def find_family(family_id: str) -> Family:
    if family_id not in FAMILIES:
        raise ValueError(f"unknown family {family_id!r}; known: "
                         + ", ".join(sorted(FAMILIES)))
    return FAMILIES[family_id]


def instantiate_family(family_id: str, params: Iterable[int]) -> RealFormRecord:
    fam = find_family(family_id)
    params = tuple(params)
    if any(type(p) is not int for p in params):  # int() would truncate 2.7
        raise ValueError(f"{family_id} parameters must be integers, got {params}")
    arity = len(fam.defaults[0])
    if len(params) != arity:
        raise ValueError(f"{family_id} takes {arity} parameter(s), got {len(params)}")
    if not fam.accepts(*params):
        raise ValueError(f"{family_id} requires {fam.constraint}, got {params}")
    record = fam.build(*params)
    validate_record(record)
    return record


def _validated(records: list[RealFormRecord]) -> tuple[RealFormRecord, ...]:
    for r in records:
        validate_record(r)
    return tuple(records)


def builtin_records() -> tuple[RealFormRecord, ...]:
    return _validated(_fixed_records())


def ladder_records() -> tuple[RealFormRecord, ...]:
    """The built-in records with one module and line data, in catalog order."""
    return _validated(_ladder_fixed())


def one_sided_records() -> tuple[RealFormRecord, ...]:
    """The built-in one-sided (Hermitian) records, in catalog order."""
    return _validated(_one_sided_fixed())


def family_defaults(*family_ids: str) -> tuple[RealFormRecord, ...]:
    """The default instances of the named families, family by family."""
    return tuple(instantiate_family(f, params) for f in family_ids
                 for params in FAMILIES[f].defaults)


def default_instances() -> tuple[RealFormRecord, ...]:
    return family_defaults(*FAMILIES)


def all_default_records() -> tuple[RealFormRecord, ...]:
    return builtin_records() + default_instances()


def find_record(name: str,
                records: Iterable[RealFormRecord] | None = None) -> RealFormRecord:
    pool = tuple(records) if records is not None else all_default_records()
    key = normalize_name(name)
    for r in pool:
        if r.key == key:
            return r
    raise KeyError(f"no record named {name!r}; known: "
                   + ", ".join(r.name for r in pool))


# ---------------------------------------------------------------------------
# serialization


class RegistryFormatError(ValueError):
    pass


def _exact_int(value, where: str, field: str) -> int:
    if type(value) is not int:
        raise RegistryFormatError(f"{where}: {field} must be an integer, got {value!r}")
    return value


def _list(value, where: str, field: str) -> list:
    if not isinstance(value, list):
        raise RegistryFormatError(f"{where}: {field} must be an array, got {value!r}")
    return value


def _exact_str(value, where: str, field: str) -> str:
    if not isinstance(value, str):
        raise RegistryFormatError(f"{where}: {field} must be a string, got {value!r}")
    return value


def _type_label(value, where: str, field: str) -> str:
    """A Cartan type label that make_root_system builds, rank cap included."""
    label = _exact_str(value, where, field)
    try:
        make_root_system(label)
    except UnsupportedCartanType as exc:
        raise RegistryFormatError(f"{where}: {field} {exc}")
    return label


def _q_parse(s, where: str) -> Q:
    # a JSON number would pass through a float, and true would read as 1
    if not isinstance(s, str):
        raise RegistryFormatError(f"{where}: rational {s!r} must be a string")
    try:
        return parse_q(s)
    except (ValueError, ZeroDivisionError):
        raise RegistryFormatError(f"{where}: bad rational {s!r}")


def _vector_parse(v, where: str) -> tuple[Q, ...]:
    return tuple(_q_parse(c, where) for c in _list(v, where, "vector"))


def _weight_json(w: Weight):
    return {"factors": [[format_q(c) for c in v] for v in w.factors],
            "center": [format_q(c) for c in w.center]}


def _weight_parse(obj, where: str) -> Weight:
    if not isinstance(obj, dict) or "factors" not in obj:
        raise RegistryFormatError(f"{where}: expected a weight object")
    return Weight(tuple(_vector_parse(v, where) for v in obj["factors"]),
                  _vector_parse(obj.get("center", []), where))


def _word_json(w: WeylWord):
    return [[f, [format_q(c) for c in v]] for f, v in w.letters]


def record_to_json(r: RealFormRecord) -> dict:
    return {
        "name": r.name,
        "g_complex": list(r.g_complex),
        "k_factors": [rs.label for rs in r.space.factors],
        "center_dim": r.space.center_dim,
        "hermitian": r.hermitian,
        "p_summands": [_weight_json(w) for w in r.p_summands],
        "modules": [{"label": m.label, "mu0": _weight_json(m.mu0),
                     "beta": _weight_json(m.beta), "null_half": m.null_half}
                    for m in r.modules],
        "nonexistence_reason": r.nonexistence_reason,
        "rho": _weight_json(r.rho) if r.rho is not None else None,
        "xi0": _weight_json(r.xi0) if r.xi0 is not None else None,
        "w0": _word_json(r.w0) if r.w0 is not None else None,
        "infchar": [[format_q(c) for c in pat] for pat in r.infchar]
        if r.infchar is not None else None,
        "family": r.family,
        "params": list(r.params),
    }


# What names a real form, compared when a file claims one.
_CLASS_FIELDS = {"name": lambda r: r.key, "g_complex": lambda r: r.g_complex,
                 "k_factors": lambda r: [rs.label for rs in r.space.factors],
                 "center_dim": lambda r: r.space.center_dim,
                 "hermitian": lambda r: r.hermitian}


def _check_class(r: RealFormRecord, builtins: Callable[[], dict]) -> None:
    """A record must be the real form it claims: its family's instance at
    its params or, without a family, the built-in record of its name.  A
    record that claims neither (a hand-written one) is left alone."""
    if r.family is None:
        reference = builtins().get(r.key)
        if reference is None:
            return
        claim = f"the built-in record {reference.name}"
    else:
        try:
            reference = instantiate_family(r.family, r.params)
        except ValueError as exc:
            raise RegistryFormatError(f"record {r.name}: {exc}")
        claim = f"{reference.name}, the {r.family} instance at params {r.params},"
    differ = [k for k, get in _CLASS_FIELDS.items() if get(r) != get(reference)]
    if differ:
        raise RegistryFormatError(f"record {r.name}: does not match {claim} in "
                                  + ", ".join(differ))


def record_from_json(obj: dict, builtins: Callable[[], dict]) -> RealFormRecord:
    name = obj.get("name") if isinstance(obj, dict) else None
    if not isinstance(name, str):
        raise RegistryFormatError("record without a name")
    where = f"record {name}"
    try:
        k_labels = [_type_label(l, where, "k_factors")
                    for l in _list(obj["k_factors"], where, "k_factors")]
        g_labels = tuple(_type_label(l, where, "g_complex")
                         for l in _list(obj["g_complex"], where, "g_complex"))
        center_dim = _exact_int(obj.get("center_dim", 0), where, "center_dim")
        if center_dim < 0:
            raise RegistryFormatError(f"{where}: center_dim must be nonnegative")
        hermitian = obj["hermitian"]
        if type(hermitian) is not bool:
            raise RegistryFormatError(f"{where}: hermitian must be true or false")
        family = obj.get("family")
        space = KSpace(tuple(make_root_system(l) for l in k_labels), center_dim)
        modules = []
        for m in _list(obj["modules"], where, "modules"):
            if not isinstance(m, dict):
                raise RegistryFormatError(f"{where}: module must be an object, got {m!r}")
            modules.append(MinimalModuleRecord(
                _exact_str(m["label"], where, "module label"), _weight_parse(m["mu0"], where),
                _weight_parse(m["beta"], where), m.get("null_half")))
        infchar = obj.get("infchar")
        w0 = obj.get("w0")
        record = RealFormRecord(
            name=name,
            g_complex=g_labels,
            space=space,
            hermitian=hermitian,
            p_summands=tuple(_weight_parse(w, where)
                             for w in _list(obj["p_summands"], where, "p_summands")),
            modules=tuple(modules),
            nonexistence_reason=obj.get("nonexistence_reason"),
            rho=_weight_parse(obj["rho"], where) if obj.get("rho") is not None else None,
            xi0=_weight_parse(obj["xi0"], where) if obj.get("xi0") is not None else None,
            w0=word(space, [(_exact_int(f, where, "w0 letter factor"),
                             _vector_parse(v, where))
                            for f, v in _list(w0, where, "w0")])
            if w0 is not None else None,
            infchar=tuple(_vector_parse(pat, where)
                          for pat in _list(infchar, where, "infchar"))
            if infchar is not None else None,
            family=_exact_str(family, where, "family") if family is not None else None,
            params=tuple(_exact_int(p, where, "params")
                         for p in _list(obj.get("params", []), where, "params")),
        )
    except RegistryFormatError:
        raise
    except KeyError as exc:
        raise RegistryFormatError(f"{where}: missing field {exc}")
    except (TypeError, ValueError) as exc:
        raise RegistryFormatError(f"{where}: {exc}")
    validate_record(record)
    _check_class(record, builtins)
    return record


def save(records: Iterable[RealFormRecord]) -> str:
    import json  # loaded here, so that a command that reads no file never loads it
    payload = {"schema": SCHEMA,
               "records": [record_to_json(r) for r in records]}
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def load(text: str) -> tuple[RealFormRecord, ...]:
    import json
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RegistryFormatError(
            f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
        raise RegistryFormatError(
            f"unknown schema {payload.get('schema') if isinstance(payload, dict) else None!r};"
            f" expected {SCHEMA!r}")
    records = payload.get("records")
    if not isinstance(records, list):
        raise RegistryFormatError("schema requires a list under 'records'")
    out: dict[str, RealFormRecord] = {}
    builtins = cache(lambda: {r.key: r for r in builtin_records()})
    for obj in records:
        record = record_from_json(obj, builtins)
        if record.key in out:
            raise RegistryFormatError(
                f"record {record.name}: duplicate of record {out[record.key].name}"
                f" (key {record.key!r})")
        out[record.key] = record
    return tuple(out.values())
