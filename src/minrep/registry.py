"""Catalog of simple real forms (not of type A) and their minimal-module
data: the compact-subgroup weight space, the ladder direction beta, the
bottom K-type mu0, stored reference values (rho, xi0, a word for w0, an
infinitesimal-character pattern), expected module counts, and machine
readable reasons for the empty cases.

Every stored value is re-derived by the verification layer; the registry
itself only transcribes.  Records serialize to a versioned JSON format
(see ``save``/``load``): rationals as strings "p" or "p/q", weights as
per-factor coordinate arrays plus a "center" array.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction as Q
from typing import Callable, Iterable

from .rootsys import (
    KSpace,
    RootSystem,
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


@dataclass(frozen=True)
class MinimalModuleRecord:
    """One module: bottom K-type mu0 and the ladder direction beta.

    For the one-sided (Hermitian) cases, null_half records which half of
    the complexified tangent space annihilates the extreme vector: "p-"
    for modules climbing the positive half, "p+" for their mirrors.
    """
    label: str
    mu0: Weight
    beta: Weight
    null_half: str | None = None


@dataclass(frozen=True)
class RealFormRecord:
    name: str                               # e.g. "f4(4)", "so(6,4)", "sp(2,R)"
    g_complex: tuple[str, ...]              # Cartan types of the complexification
    space: KSpace
    hermitian: bool
    p_summands: tuple[Weight, ...]
    modules: tuple[MinimalModuleRecord, ...]
    expected_count: int
    nonexistence_reason: str | None = None
    rho: Weight | None = None               # stored reference, checked against space_rho
    xi0: Weight | None = None
    w0: WeylWord | None = None
    infchar: tuple[tuple[Q, ...], ...] | None = None   # fundamental-weight coefficients
    family: str | None = None
    params: tuple[int, ...] = ()

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
    return len(rs.roots) + rs.rank


def g_dimension(record: RealFormRecord) -> int:
    return sum(dim_of_type(t) for t in record.g_complex)


def k_dimension(record: RealFormRecord) -> int:
    return sum(len(rs.roots) + rs.rank for rs in record.space.factors) \
        + record.space.center_dim


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
    if family == "B" and rank_text.isdigit():
        n = int(rank_text)
        if n >= 3:
            return (one,) * (n - 3) + (h, h, one)
    if family == "C" and rank_text.isdigit():
        n = int(rank_text)
        if n >= 2:
            return (one,) * (n - 1) + (h,)
    if family == "D" and rank_text.isdigit():
        n = int(rank_text)
        if n >= 4:
            return (one,) * (n - 3) + (Q(0), one, one)
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
    if len(r.modules) != r.expected_count:
        _fail(r.name, f"{len(r.modules)} modules but expected_count {r.expected_count}")
    if (r.expected_count == 0) != (r.nonexistence_reason is not None):
        _fail(r.name, "expected_count 0 exactly when a nonexistence reason is present")
    if r.nonexistence_reason not in (None, REASON_ORBIT, REASON_PARITY):
        _fail(r.name, f"unknown nonexistence reason {r.nonexistence_reason!r}")
    for t in r.g_complex:
        make_root_system(t)
    for w in r.p_summands:
        conform(r.space, w)
    if r.rho is not None:
        conform(r.space, r.rho)
    if r.xi0 is not None:
        conform(r.space, r.xi0)
    if r.hermitian and r.space.center_dim != 1:
        _fail(r.name, "one-sided records need a one-dimensional center")
    if r.modules:
        if not r.hermitian:
            if r.xi0 is None or r.w0 is None:
                _fail(r.name, "records with modules need xi0 and w0 unless one-sided")
        else:
            if r.xi0 is not None or r.w0 is not None:
                _fail(r.name, "one-sided records carry no xi0/w0 data")
        if r.infchar is None or len(r.infchar) != len(r.g_complex):
            _fail(r.name, "records with modules need one infchar pattern per component")
    for m in r.modules:
        conform(r.space, m.mu0)
        conform(r.space, m.beta)
        if all(is_zero(v) for v in m.beta.factors):
            _fail(r.name, f"module {m.label}: beta vanishes on the factors")
        if m.beta not in r.p_summands:
            _fail(r.name, f"module {m.label}: beta is not a p-summand weight")
        dom = space_dominance(r.space, m.mu0)
        if not (dom.dominant and dom.integral):
            _fail(r.name, f"module {m.label}: mu0 is not dominant integral")
        dom = space_dominance(r.space, m.beta)
        if not (dom.dominant and dom.integral):
            _fail(r.name, f"module {m.label}: beta is not dominant integral")
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
        p_summands=(theta,), modules=mods, expected_count=len(mods),
        rho=space_rho(sp), xi0=weight(sp, _complex_xi0(rs)),
        w0=word(sp, [(0, rs.highest_root)]),
        infchar=(pattern, pattern), family=family, params=tuple(params))


def _zero_record(name: str, g_complex: tuple[str, ...], sp: KSpace,
                 p_summands: tuple[Weight, ...], reason: str,
                 family=None, params=()) -> RealFormRecord:
    return RealFormRecord(
        name=name, g_complex=g_complex, space=sp, hermitian=False,
        p_summands=p_summands, modules=(), expected_count=0,
        nonexistence_reason=reason, rho=space_rho(sp),
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
        p_summands=(p_plus, p_minus), modules=mods, expected_count=2,
        rho=space_rho(sp), infchar=(joseph_infchar(g_complex),),
        family=family, params=tuple(params))


def _fixed_records() -> list[RealFormRecord]:
    h = Q(1, 2)
    out = []

    def ladder(name, g_complex, sp, beta_coords, mu0_coords, rho_coords,
               xi0_coords, w0_letters):
        beta = weight(sp, *beta_coords)
        mod = MinimalModuleRecord("minimal", weight(sp, *mu0_coords), beta)
        out.append(RealFormRecord(
            name=name, g_complex=(g_complex,), space=sp, hermitian=False,
            p_summands=(beta,), modules=(mod,), expected_count=1,
            rho=weight(sp, *rho_coords), xi0=weight(sp, *xi0_coords),
            w0=word(sp, w0_letters), infchar=(joseph_infchar(g_complex),)))

    ladder("f4(4)", "F4", _space("C3", "A1d"),
           [(1, 1, 1), (1, -1)], [(0, 0, 0), (1, -1)],
           [(3, 2, 1), (1, -1)], [(1, 0, -1), (0, 0)],
           [(0, (1, 0, 1)), (0, (0, 1, 0)), (1, (1, -1))])

    ladder("e6(2)", "E6", _space("A5", "A1d"),
           [(h, h, h, -h, -h, -h), (1, -1)], [(0,) * 6, (2, -2)],
           [_desc(Q(5, 2), 6), (1, -1)], [(1, 0, -1, 1, 0, -1), (0, 0)],
           [(0, (1, 0, 0, -1, 0, 0)), (0, (0, 1, 0, 0, -1, 0)),
            (0, (0, 0, 1, 0, 0, -1)), (1, (1, -1))])

    ladder("e7(-5)", "E7", _space("D6", "A1d"),
           [(h,) * 6, (1, -1)], [(0,) * 6, (4, -4)],
           [_desc(5, 6), (1, -1)], [_desc(Q(5, 2), 6), (0, 0)],
           [(0, (1, 0, 0, 0, 0, 1)), (0, (0, 1, 0, 0, 1, 0)),
            (0, (0, 0, 1, 1, 0, 0)), (1, (1, -1))])

    eta1 = (h, -h, -h, h, h, -h, h, -h)
    eta2 = (-h, h, h, -h, h, -h, h, -h)
    ladder("e8(-24)", "E8", _space("E7", "A1d"),
           [(0, 0, 0, 0, 0, 1, -h, h), (1, -1)], [(0,) * 8, (8, -8)],
           [(0, 1, 2, 3, 4, 5, Q(-17, 2), Q(17, 2)), (1, -1)],
           [(0, 1, 2, 3, 4, -4, -4, 4), (0, 0)],
           [(0, (0, 0, 0, 0, 1, 1, 0, 0)), (0, eta2), (0, eta1), (1, (1, -1))])

    ladder("g2(2)", "G2", _space("A1d", "A1d"),
           [(3, -3), (1, -1)], [(2, -2), (0, 0)],
           [(1, -1), (1, -1)], [(0, 0), (0, 0)],
           [(0, (1, -1)), (1, (1, -1))])

    ladder("e6(6)", "E6", _space("C4"),
           [(1, 1, 1, 1)], [(0, 0, 0, 0)],
           [(4, 3, 2, 1)], [(Q(3, 2), Q(1, 2), Q(-1, 2), Q(-3, 2))],
           [(0, (1, 0, 0, 1)), (0, (0, 1, 1, 0))])

    ladder("e7(7)", "E7", _space("A7"),
           [(h, h, h, h, -h, -h, -h, -h)], [(0,) * 8],
           [_desc(Q(7, 2), 8)], [(Q(3, 2), h, -h, Q(-3, 2)) * 2],
           [(0, (1, 0, 0, 0, -1, 0, 0, 0)), (0, (0, 1, 0, 0, 0, -1, 0, 0)),
            (0, (0, 0, 1, 0, 0, 0, -1, 0)), (0, (0, 0, 0, 1, 0, 0, 0, -1))])

    ladder("e8(8)", "E8", _space("D8"),
           [(h,) * 8], [(0,) * 8],
           [_desc(7, 8)], [_desc(Q(7, 2), 8)],
           [(0, (1, 0, 0, 0, 0, 0, 0, 1)), (0, (0, 1, 0, 0, 0, 0, 1, 0)),
            (0, (0, 0, 1, 0, 0, 1, 0, 0)), (0, (0, 0, 0, 1, 1, 0, 0, 0))])

    # one-sided pairs with exceptional complexification
    out.append(_hermitian_record("e6(-14)", "E6", _space("D5", center=1),
                                 (h, h, h, h, h), (h, h, h, h, h), 4))
    e6 = make_root_system("E6")
    out.append(_hermitian_record("e7(-25)", "E7", _space("E6", center=1),
                                 e6.fundamental[0], e6.fundamental[5], 6))

    # complex exceptional algebras viewed as real
    for lbl in ["G2", "F4", "E6", "E7", "E8"]:
        out.append(_complex_record(f"{lbl.lower()}(C)", lbl,
                                   modules_mu0=[(0,) * make_root_system(lbl).ambient],
                                   module_labels=["minimal"]))

    # empty rows with exceptional complexification
    for lbl in ["E6", "E7", "E8", "F4", "G2"]:
        sp = KSpace((make_root_system(lbl),), 0)
        out.append(_zero_record(lbl.lower(), (lbl,), sp, (), REASON_ORBIT))
    spf = _space("F4")
    out.append(_zero_record("e6(-26)", ("E6",), spf,
                            (weight(spf, _e1(4)),), REASON_ORBIT))
    spb = _space("B4")
    out.append(_zero_record("f4(-20)", ("F4",), spb,
                            (weight(spb, (h, h, h, h)),), REASON_ORBIT))
    return out


# ---------------------------------------------------------------------------
# parametric families


@dataclass(frozen=True)
class Family:
    family_id: str
    arity: int
    constraint: str
    accepts: Callable
    build: Callable
    defaults: tuple[tuple[int, ...], ...]


def _so_even_even(n: int, m: int) -> RealFormRecord:
    sp = _space(f"D{n}", f"D{m}")
    beta = weight(sp, _e1(n), _e1(m))
    mod = MinimalModuleRecord("minimal", weight(sp, (0,) * n, _e1(m, n - m)), beta)
    return RealFormRecord(
        name=f"so({2 * n},{2 * m})", g_complex=(f"D{n + m}",), space=sp,
        hermitian=False, p_summands=(beta,), modules=(mod,), expected_count=1,
        rho=weight(sp, _desc(n - 1, n), _desc(m - 1, m)),
        xi0=weight(sp, (0,) + _desc(n - 2, n - 1), (0,) + _desc(m - 2, m - 1)),
        w0=word(sp, [(0, (1,) + (0,) * (n - 2) + (1,)),
                     (0, (1,) + (0,) * (n - 2) + (-1,)),
                     (1, (1,) + (0,) * (m - 2) + (1,)),
                     (1, (1,) + (0,) * (m - 2) + (-1,))]),
        infchar=(joseph_infchar(f"D{n + m}"),),
        family="so_even_even", params=(n, m))


def _so_odd_odd(n: int, m: int) -> RealFormRecord:
    sp = _space(f"B{n}", f"B{m}")
    beta = weight(sp, _e1(n), _e1(m))
    mod = MinimalModuleRecord("minimal", weight(sp, (0,) * n, _e1(m, n - m)), beta)
    return RealFormRecord(
        name=f"so({2 * n + 1},{2 * m + 1})", g_complex=(f"D{n + m + 1}",), space=sp,
        hermitian=False, p_summands=(beta,), modules=(mod,), expected_count=1,
        rho=weight(sp, _desc(Q(2 * n - 1, 2), n), _desc(Q(2 * m - 1, 2), m)),
        xi0=weight(sp, (0,) + _desc(Q(2 * n - 3, 2), n - 1),
                   (0,) + _desc(Q(2 * m - 3, 2), m - 1)),
        w0=word(sp, [(0, _e1(n)), (1, _e1(m))]),
        infchar=(joseph_infchar(f"D{n + m + 1}"),),
        family="so_odd_odd", params=(n, m))


def _so_2n_3(n: int) -> RealFormRecord:
    sp = _space(f"D{n}", "A1d")
    beta = weight(sp, _e1(n), (2, -2))
    mod = MinimalModuleRecord(
        "minimal", weight(sp, (0,) * n, (2 * n - 3, -(2 * n - 3))), beta)
    return RealFormRecord(
        name=f"so({2 * n},3)", g_complex=(f"B{n + 1}",), space=sp,
        hermitian=False, p_summands=(beta,), modules=(mod,), expected_count=1,
        rho=weight(sp, _desc(n - 1, n), (1, -1)),
        xi0=weight(sp, (0,) + _desc(n - 2, n - 1), (0, 0)),
        w0=word(sp, [(0, (1,) + (0,) * (n - 2) + (1,)),
                     (0, (1,) + (0,) * (n - 2) + (-1,)),
                     (1, (1, -1))]),
        infchar=(joseph_infchar(f"B{n + 1}"),),
        family="so_2n_3", params=(n,))


def _so_p_2(p: int) -> RealFormRecord:
    k_label = f"B{(p - 1) // 2}" if p % 2 else f"D{p // 2}"
    g_label = f"B{(p + 1) // 2}" if p % 2 else f"D{p // 2 + 1}"
    sp = _space(k_label, center=1)
    n = sp.factors[0].ambient
    r = _hermitian_record(f"so({p},2)", g_label, sp, _e1(n), _e1(n), Q(p - 2, 2))
    return replace(r, family="so_p_2", params=(p,))


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
        p_summands=(p_plus, p_minus), modules=mods, expected_count=4,
        rho=space_rho(sp), infchar=(joseph_infchar(f"C{n}"),),
        family="sp_R", params=(n,))


def _so_star(n: int) -> RealFormRecord:
    sp = _space(f"A{n - 1}", center=1)
    plus = (1, 1) + (0,) * (n - 2)
    minus = (1,) * (n - 2) + (0, 0)
    r = _hermitian_record(f"so*({2 * n})", f"D{n}", sp, plus, minus, Q(n, 2))
    return replace(r, family="so_star", params=(n,))


def _sp_C(n: int) -> RealFormRecord:
    return _complex_record(f"sp({n},C)", f"C{n}",
                           modules_mu0=[(0,) * n, _e1(n)],
                           module_labels=["even", "odd"],
                           family="sp_C", params=(n,))


def _so_C(n: int) -> RealFormRecord:
    k_label = f"B{(n - 1) // 2}" if n % 2 else f"D{n // 2}"
    return _complex_record(f"so({n},C)", k_label,
                           modules_mu0=[(0,) * make_root_system(k_label).ambient],
                           module_labels=["minimal"],
                           family="so_C", params=(n,))


def _so_n_1(n: int) -> RealFormRecord:
    k_label = f"D{n // 2}" if n % 2 == 0 else f"B{(n - 1) // 2}"
    g_label = f"B{n // 2}" if n % 2 == 0 else f"D{(n + 1) // 2}"
    sp = _space(k_label)
    return _zero_record(f"so({n},1)", (g_label,), sp,
                        (weight(sp, _e1(sp.factors[0].ambient)),), REASON_ORBIT,
                        family="so_n_1", params=(n,))


def _sp_p_q(p: int, q: int) -> RealFormRecord:
    sp = _space(f"C{p}", f"C{q}")
    return _zero_record(f"sp({p},{q})", (f"C{p + q}",), sp,
                        (weight(sp, _e1(p), _e1(q)),), REASON_ORBIT,
                        family="sp_p_q", params=(p, q))


def _so_odd_sum(p: int, q: int) -> RealFormRecord:
    def so_label(k):
        return f"B{(k - 1) // 2}" if k % 2 else f"D{k // 2}"
    sp = _space(so_label(p), so_label(q))
    return _zero_record(f"so({p},{q})", (f"B{(p + q - 1) // 2}",), sp,
                        (weight(sp, _e1(sp.factors[0].ambient),
                                _e1(sp.factors[1].ambient)),), REASON_PARITY,
                        family="so_odd_sum", params=(p, q))


def _sp_compact(n: int) -> RealFormRecord:
    return _zero_record(f"sp({n})", (f"C{n}",), _space(f"C{n}"), (), REASON_ORBIT,
                        family="sp_compact", params=(n,))


def _so_compact(n: int) -> RealFormRecord:
    k_label = f"B{(n - 1) // 2}" if n % 2 else f"D{n // 2}"
    return _zero_record(f"so({n})", (k_label,), _space(k_label), (), REASON_ORBIT,
                        family="so_compact", params=(n,))


FAMILIES: dict[str, Family] = {f.family_id: f for f in [
    Family("so_even_even", 2, "n >= m >= 2",
           lambda n, m: n >= m >= 2, _so_even_even, ((2, 2), (3, 2), (4, 3))),
    Family("so_odd_odd", 2, "n >= m >= 1 and n + m >= 3",
           lambda n, m: n >= m >= 1 and n + m >= 3, _so_odd_odd, ((2, 1), (3, 2))),
    Family("so_2n_3", 1, "n >= 2", lambda n: n >= 2, _so_2n_3, ((2,), (4,))),
    Family("so_p_2", 1, "p >= 5", lambda p: p >= 5, _so_p_2, ((5,), (6,), (7,))),
    Family("sp_R", 1, "n >= 2", lambda n: n >= 2, _sp_R, ((2,), (3,), (5,))),
    Family("so_star", 1, "n >= 4", lambda n: n >= 4, _so_star, ((4,), (5,))),
    Family("sp_C", 1, "n >= 2", lambda n: n >= 2, _sp_C, ((2,), (3,))),
    Family("so_C", 1, "n >= 7", lambda n: n >= 7, _so_C, ((7,), (8,))),
    Family("so_n_1", 1, "n >= 6", lambda n: n >= 6, _so_n_1, ((6,), (7,))),
    Family("sp_p_q", 2, "p >= 1 and q >= 1",
           lambda p, q: p >= 1 and q >= 1, _sp_p_q, ((1, 1), (2, 1))),
    Family("so_odd_sum", 2, "p >= q >= 4 and p + q odd",
           lambda p, q: p >= q >= 4 and (p + q) % 2 == 1, _so_odd_sum,
           ((5, 4), (6, 5))),
    Family("sp_compact", 1, "n >= 2", lambda n: n >= 2, _sp_compact, ((2,), (3,))),
    Family("so_compact", 1, "n >= 7", lambda n: n >= 7, _so_compact, ((7,), (8,))),
]}


def instantiate_family(family_id: str, params: Iterable[int]) -> RealFormRecord:
    if family_id not in FAMILIES:
        raise ValueError(f"unknown family {family_id!r}; known: "
                         + ", ".join(sorted(FAMILIES)))
    fam = FAMILIES[family_id]
    params = tuple(int(p) for p in params)
    if len(params) != fam.arity:
        raise ValueError(f"{family_id} takes {fam.arity} parameter(s), got {len(params)}")
    if not fam.accepts(*params):
        raise ValueError(f"{family_id} requires {fam.constraint}, got {params}")
    record = fam.build(*params)
    validate_record(record)
    return record


def builtin_records() -> tuple[RealFormRecord, ...]:
    records = tuple(_fixed_records())
    for r in records:
        validate_record(r)
    return records


def default_instances() -> tuple[RealFormRecord, ...]:
    out = []
    for fam in FAMILIES.values():
        for params in fam.defaults:
            out.append(instantiate_family(fam.family_id, params))
    return tuple(out)


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


# Largest Cartan rank a registry file may name in k_factors or g_complex,
# checked before any root system is built.  The built-in catalog stops at
# rank 8; a cap of 16 leaves room for family instances such as so(16,16)
# while bounding the cost of one build, which grows steeply with rank
# (D16 about 0.1-0.2 s, D24 about 0.6 s on a 2-vCPU VM).
MAX_LOADED_RANK = 16


def _exact_int(value, where: str, field: str) -> int:
    if type(value) is not int:
        raise RegistryFormatError(f"{where}: {field} must be an integer, got {value!r}")
    return value


def _exact_str(value, where: str, field: str) -> str:
    if not isinstance(value, str):
        raise RegistryFormatError(f"{where}: {field} must be a string, got {value!r}")
    return value


def _type_label(value, where: str, field: str) -> str:
    label = _exact_str(value, where, field)
    digits = re.fullmatch(r"\s*[A-Z](\d+)d?\s*", label)
    if digits and int(digits[1]) > MAX_LOADED_RANK:
        raise RegistryFormatError(
            f"{where}: {field} type {label!r} has rank above {MAX_LOADED_RANK}")
    return label


def _q_str(x: Q) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _q_parse(s, where: str) -> Q:
    try:
        return Q(s)
    except (ValueError, ZeroDivisionError, TypeError):
        raise RegistryFormatError(f"{where}: bad rational {s!r}")


def _weight_json(w: Weight):
    return {"factors": [[_q_str(c) for c in v] for v in w.factors],
            "center": [_q_str(c) for c in w.center]}


def _weight_parse(obj, where: str) -> Weight:
    if not isinstance(obj, dict) or "factors" not in obj:
        raise RegistryFormatError(f"{where}: expected a weight object")
    factors = tuple(tuple(_q_parse(c, where) for c in v) for v in obj["factors"])
    center = tuple(_q_parse(c, where) for c in obj.get("center", []))
    return Weight(factors, center)


def _word_json(w: WeylWord):
    return [[f, [_q_str(c) for c in v]] for f, v in w.letters]


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
        "expected_count": r.expected_count,
        "nonexistence_reason": r.nonexistence_reason,
        "rho": _weight_json(r.rho) if r.rho is not None else None,
        "xi0": _weight_json(r.xi0) if r.xi0 is not None else None,
        "w0": _word_json(r.w0) if r.w0 is not None else None,
        "infchar": [[_q_str(c) for c in pat] for pat in r.infchar]
        if r.infchar is not None else None,
        "family": r.family,
        "params": list(r.params),
    }


def record_from_json(obj: dict) -> RealFormRecord:
    name = obj.get("name") if isinstance(obj, dict) else None
    if not isinstance(name, str):
        raise RegistryFormatError("record without a name")
    where = f"record {name}"
    try:
        k_labels = [_type_label(l, where, "k_factors") for l in obj["k_factors"]]
        g_labels = tuple(_type_label(l, where, "g_complex") for l in obj["g_complex"])
        center_dim = _exact_int(obj.get("center_dim", 0), where, "center_dim")
        if center_dim < 0:
            raise RegistryFormatError(f"{where}: center_dim must be nonnegative")
        hermitian = obj["hermitian"]
        if type(hermitian) is not bool:
            raise RegistryFormatError(f"{where}: hermitian must be true or false")
        family = obj.get("family")
        space = KSpace(tuple(make_root_system(l) for l in k_labels), center_dim)
        modules = tuple(
            MinimalModuleRecord(_exact_str(m["label"], where, "module label"),
                                _weight_parse(m["mu0"], where),
                                _weight_parse(m["beta"], where), m.get("null_half"))
            for m in obj["modules"])
        infchar = obj.get("infchar")
        w0 = obj.get("w0")
        record = RealFormRecord(
            name=name,
            g_complex=g_labels,
            space=space,
            hermitian=hermitian,
            p_summands=tuple(_weight_parse(w, where) for w in obj["p_summands"]),
            modules=modules,
            expected_count=_exact_int(obj["expected_count"], where, "expected_count"),
            nonexistence_reason=obj.get("nonexistence_reason"),
            rho=_weight_parse(obj["rho"], where) if obj.get("rho") is not None else None,
            xi0=_weight_parse(obj["xi0"], where) if obj.get("xi0") is not None else None,
            w0=word(space, [(f, [_q_parse(c, where) for c in v]) for f, v in w0])
            if w0 is not None else None,
            infchar=tuple(tuple(_q_parse(c, where) for c in pat) for pat in infchar)
            if infchar is not None else None,
            family=_exact_str(family, where, "family") if family is not None else None,
            params=tuple(_exact_int(p, where, "params") for p in obj.get("params", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, RegistryFormatError):
            raise
        raise RegistryFormatError(f"{where}: {exc}")
    validate_record(record)
    return record


def save(records: Iterable[RealFormRecord]) -> str:
    payload = {"schema": SCHEMA,
               "records": [record_to_json(r) for r in records]}
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def load(text: str) -> tuple[RealFormRecord, ...]:
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
    for obj in records:
        record = record_from_json(obj)
        if record.key in out:
            raise RegistryFormatError(
                f"record {record.name}: duplicate of record {out[record.key].name}"
                f" (key {record.key!r})")
        out[record.key] = record
    return tuple(out.values())
