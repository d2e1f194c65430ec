"""Named, independently runnable checks over the record catalog.

Each check recomputes one identity from the root-system and reflection-group
layers and compares against the stored record data: half-sums, tangent-space
dimensions, ladder dominance, the orthogonal decomposition behind xi0, the
stored w0 word (action, closed-form factorization, uniqueness among line
preservers), ladder lattice periods, module counts against the paper's
count table with pairwise ladder disjointness, the highest-root ladder of
complex forms, and the stored infinitesimal-character patterns.

A check returns a CheckReport with status "pass", "fail", or "skipped";
skips happen exactly when a precondition is unmet (missing stored data,
one-sided record, enumeration budget).  Fail reports always carry a
counterexample witness in the evidence string.
"""

from __future__ import annotations

import time
from collections import namedtuple
from fractions import Fraction as Q
from itertools import chain, combinations
from math import gcd
from operator import mul

from .linalg import integer_images
from .registry import (
    RealFormRecord,
    all_default_records,
    g_dimension,
    joseph_infchar,
    k_dimension,
    normalize_name,
)
from .render import format_q, format_vector, format_weight, format_word
from .rootsys import (
    Vector,
    coroot_labels,
    dot,
    lattice_period,
    make_root_system,
    omega_to_coords,
    space_dominance,
    space_rho,
    space_weyl_dim,
    trace_free_canonical,
    weight,
    weight_add,
    weight_is_zero,
    weight_scale,
    weight_sub,
)
from .weyl import (
    DEFAULT_BUDGET,
    STRATEGIES,
    BudgetExceededError,
    SelfCheckError,
    WeylWord,
    apply,
    as_element,
    line_preservers,
    longest_product,
    space_beta_subsystems,
    type_label,
)

SKIP_ONE_SIDED = "one-sided record: symmetric line data does not apply"
SKIP_NO_MODULES = "no modules"

# The paper's number of minimal modules for each class of real forms:
# (label, count, family ids, names of the fixed records).
PAPER_COUNTS = (
    ("sp(n,R) (n>=2)", 4, ("sp_R",), ()),
    ("so(p,2) (p>=5), so*(2n) (n>=4), e6(-14), e7(-25)", 2,
     ("so_p_2", "so_star"), ("e6(-14)", "e7(-25)")),
    ("so(p,q) (p,q>=3, p+q>=8 even), so(p,3) (p>=4 even), e6(6), e6(2), "
     "e7(7), e7(-5), e8(8), e8(-24), f4(4), g2(2)", 1,
     ("so_even_even", "so_odd_odd", "so_2n_3"),
     ("e6(6)", "e6(2)", "e7(7)", "e7(-5)", "e8(8)", "e8(-24)", "f4(4)",
      "g2(2)")),
    ("sp(n) (n>=2), so(n) (n>=7), e6, e7, e8, f4, g2, so(n,1) (n>=6), "
     "sp(p,q) (p,q>=1), e6(-26), f4(-20), so(p,q) (p,q>=4, p+q odd)", 0,
     ("sp_compact", "so_compact", "so_n_1", "sp_p_q", "so_odd_sum"),
     ("e6", "e7", "e8", "f4", "g2", "e6(-26)", "f4(-20)")),
    ("sp(n,C) (n>=2)", 2, ("sp_C",), ()),
    ("so(n,C) (n>=7), e6(C), e7(C), e8(C), f4(C), g2(C)", 1,
     ("so_C",), ("e6(C)", "e7(C)", "e8(C)", "f4(C)", "g2(C)")),
)


def paper_count(r: RealFormRecord) -> int | None:
    """The paper's module count for r, looked up by family when r has one
    and by name otherwise; None when no row of PAPER_COUNTS covers r."""
    for _, count, families, fixed in PAPER_COUNTS:
        if (r.family in families if r.family is not None
                else r.key in map(normalize_name, fixed)):
            return count
    return None


class VerifyConfig(namedtuple("VerifyConfig", ["strategy", "budget"],
                              defaults=["chamber", DEFAULT_BUDGET])):
    """How to run the checks; settings that would make a pass vacuous, or
    a run impossible, raise ValueError, on _replace too."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of "
                             + ", ".join(STRATEGIES))
        if self.budget < 1:
            raise ValueError(f"budget (--budget) must be positive, got {self.budget}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


DEFAULT_CONFIG = VerifyConfig()


class CheckReport(namedtuple("CheckReport",
                             ["check", "record", "status", "evidence", "duration_ms"])):
    # status is "pass", "fail" or "skipped"; evidence holds exact values, or
    # for a skip the reason
    __slots__ = ()


def _pass(text: str):
    return "pass", text


def _fail(text: str):
    return "fail", text


def _skip(reason: str):
    return "skipped", reason


def _module_betas(r: RealFormRecord):
    return list(dict.fromkeys(m.beta for m in r.modules))


def _beta_multiple(v, beta) -> Q | None:
    """The c with v = c*beta, or None when v is off the beta line: decided
    on integer images of both, all blocks and the center in one vector,
    where the form is the plain dot product; only c is a Fraction."""
    _, (x, b) = integer_images([tuple(chain(*w.factors, w.center)) for w in (v, beta)])
    xb, bb = sum(map(mul, x, b)), sum(map(mul, b, b))
    # v = c beta with c = xb / bb exactly when bb x = xb b
    if any(bb * p != xb * q for p, q in zip(x, b, strict=True)):
        return None
    return Q(xb, bb)


def _line_data_skip(r: RealFormRecord, *fields: str):
    """The skip of a check on the symmetric line data (xi0, the w0 word) when
    r has no modules, is one-sided or lacks one of `fields`; else None."""
    if not r.modules:
        return _skip(SKIP_NO_MODULES)
    if r.hermitian:
        return _skip(SKIP_ONE_SIDED)
    if any(getattr(r, f) is None for f in fields):
        return _skip("no stored w0 word" if "w0" in fields else "no stored xi0")
    return None


# ---------------------------------------------------------------------------
# the checks


def _check_rho(r: RealFormRecord, config: VerifyConfig):
    if r.rho is None:
        return _skip("no stored half-sum")
    computed = space_rho(r.space)
    if computed == r.rho:
        return _pass(f"computed half-sum {format_weight(computed)} matches stored")
    return _fail(f"computed half-sum {format_weight(computed)} "
                 f"!= stored {format_weight(r.rho)}")


def _check_p_dimension(r: RealFormRecord, config: VerifyConfig):
    dim_g, dim_k = g_dimension(r), k_dimension(r)
    if not r.p_summands and dim_g == dim_k:
        return _skip("no tangent summands (compact form)")
    total = sum(space_weyl_dim(r.space, w) for w in r.p_summands)
    if total == dim_g - dim_k:
        return _pass(f"sum of summand dimensions {total} == "
                     f"dim g ({dim_g}) - dim k ({dim_k})")
    return _fail(f"sum of summand dimensions {total} != "
                 f"dim g ({dim_g}) - dim k ({dim_k}) = {dim_g - dim_k}")


def _check_ladder_wellformed(r: RealFormRecord, config: VerifyConfig):
    if not r.modules:
        return _skip(SKIP_NO_MODULES)
    for m in r.modules:
        for label, w in (("mu0", m.mu0), ("beta", m.beta)):
            dom = space_dominance(r.space, w)
            if not (dom.dominant and dom.integral):
                flaw = "dominant" if not dom.dominant else "integral"
                return _fail(f"module {m.label}: {label} = {format_weight(w)} "
                             f"is not {flaw}")
    return _pass(f"mu0 and beta dominant integral for all "
                 f"{len(r.modules)} module(s), hence every rung mu0+n*beta is")


def _check_xi0(r: RealFormRecord, config: VerifyConfig):
    if skip := _line_data_skip(r, "xi0"):
        return skip
    scalars = []
    for m in r.modules:
        for i in range(len(r.space.factors)):
            d = dot(r.xi0.factors[i], m.beta.factors[i])
            if d != 0:
                return _fail(f"module {m.label}: (xi0, beta) = {format_q(d)} "
                             f"!= 0 in factor {i}")
        target = weight_sub(weight_add(m.mu0, r.rho), r.xi0)
        c = _beta_multiple(target, m.beta)
        if c is None:
            return _fail(f"module {m.label}: mu0 + rho - xi0 = "
                         f"{format_weight(target)} is not a multiple of beta")
        scalars.append(c)
    shown = ", ".join(format_q(c) for c in scalars)
    return _pass(f"mu0 + rho = xi0 + c*beta with c = {shown}; "
                 f"xi0 orthogonal to beta in every factor")


def _check_w0_table(r: RealFormRecord, config: VerifyConfig):
    if skip := _line_data_skip(r, "w0", "xi0"):
        return skip
    for beta in _module_betas(r):
        image = apply(r.space, r.w0, beta)
        if not weight_is_zero(weight_add(image, beta)):
            return _fail(f"w0(beta) = {format_weight(image)} != "
                         f"-beta = {format_weight(weight_scale(-1, beta))}")
    image = apply(r.space, r.w0, r.xi0)
    if image != r.xi0:
        return _fail(f"w0(xi0) = {format_weight(image)} != "
                     f"xi0 = {format_weight(r.xi0)}")
    return _pass(f"{format_word(r.w0)} sends beta to -beta and fixes xi0")


def _check_w0_formula(r: RealFormRecord, config: VerifyConfig):
    if skip := _line_data_skip(r, "w0"):
        return skip
    beta = _module_betas(r)[0]
    subs = space_beta_subsystems(r.space, beta)
    lhs = as_element(r.space, r.w0)
    rhs = longest_product(r.space, subs)
    shape = ", ".join(map(type_label, subs))
    if lhs == rhs:
        return _pass(f"w0 equals (longest element) * (longest element fixing "
                     f"beta); orthogonal subsystem per factor: {shape}")
    return _fail(f"stored word {format_word(r.w0)} differs from the "
                 f"factorization through the beta-orthogonal subsystem ({shape})")


def _check_w0_unique(r: RealFormRecord, config: VerifyConfig):
    if skip := _line_data_skip(r, "w0", "xi0"):
        return skip
    expected = frozenset({as_element(r.space, WeylWord(())), as_element(r.space, r.w0)})
    for beta in _module_betas(r):
        try:
            got = line_preservers(r.space, beta, r.xi0,
                                  strategy=config.strategy, budget=config.budget)
        except BudgetExceededError as exc:
            return _skip(f"enumeration order {exc.order} above budget "
                         f"{config.budget} for strategy {config.strategy}")
        except SelfCheckError as exc:
            return _fail(f"{exc} (strategy {config.strategy})")
        if got != expected:
            extras = [g for g in got if g not in expected]
            missing = [g for g in expected if g not in got]
            return _fail(f"line preservers differ from {{identity, w0}}: "
                         f"{len(got)} found, {len(extras)} unexpected, "
                         f"{len(missing)} missing (strategy {config.strategy})")
    return _pass(f"line preservers == {{identity, w0}} "
                 f"(strategy {config.strategy})")


def _check_same_line(r: RealFormRecord, config: VerifyConfig):
    if skip := _line_data_skip(r, "w0"):
        return skip
    shifts = []
    for m in r.modules:
        v = weight_add(m.mu0, r.rho)
        diff = weight_sub(apply(r.space, r.w0, v), v)
        c = _beta_multiple(diff, m.beta)
        if c is None:
            return _fail(f"module {m.label}: w0(mu0+rho) - (mu0+rho) = "
                         f"{format_weight(diff)} is not a multiple of beta")
        shifts.append(c)
    shown = ", ".join(format_q(c) for c in shifts)
    return _pass(f"w0(mu0+rho) = (mu0+rho) + c*beta with c = {shown}")


def _check_period(r: RealFormRecord, config: VerifyConfig):
    if not r.modules:
        return _skip(SKIP_NO_MODULES)
    expected = Q(1, 2) if r.family in ("sp_R", "sp_C") else Q(1)
    for beta in _module_betas(r):
        try:
            period = lattice_period(r.space, beta)
        except ValueError as exc:
            return _fail(f"the {format_weight(beta)} ladder has no lattice period: {exc}")
        if period != expected:
            return _fail(f"lattice period of the {format_weight(beta)} ladder "
                         f"is {format_q(period)}, expected {format_q(expected)}")
    tag = f" (family {r.family})" if r.family in ("sp_R", "sp_C") else ""
    return _pass(f"lattice period {format_q(expected)}{tag}")


def _ladder_keys(r: RealFormRecord) -> list[tuple[list[int], list[int]]]:
    """For each module, the keys (start, step) of mu0 and beta: integer
    images at one scale for the whole record, with each trace-redundant
    block v replaced by v - v[-1] (1, ..., 1), which two blocks share exactly
    when their trace-free parts agree.  Rung n has key start + n step, and
    two rungs share a key exactly when their trace_free_canonical forms do."""
    redundant = [rs.trace_redundant for rs in r.space.factors] + [False]
    weights = [w for m in r.modules for w in (m.mu0, m.beta)]
    _, images = integer_images([u for w in weights for u in (*w.factors, w.center)])
    blocks = iter(images)
    keys = [list(chain.from_iterable([c - u[-1] for c in u] if trace_free else u
                                     for trace_free, u in zip(redundant, blocks)))
            for _ in weights]
    return list(zip(keys[::2], keys[1::2]))


def _ladders_meet(a, b) -> tuple[int, int] | None:
    """The least (m, n), m first, of integers m, n >= 0 at which rung m of a
    and rung n of b share a key (see _ladder_keys), or None, for all rungs
    at once: they do iff m sa - n sb = d, for steps sa, sb and d = start_b -
    start_a.  Independent steps: a nonzero 2x2 minor fixes the one rational
    solution (Cramer), a meeting iff it is integral, nonnegative and fits
    every coordinate.  Parallel steps: d must lie on their line, and then
    the equation is m p - n q = t at a coordinate k where the line is not 0.
    q = 0 fixes m = t / p, n = 0.  Else g = gcd(p, q) must divide t; the m
    that solve it are one class mod s = |q| / g, n = (m p - t) / q, and m + s
    moves n by |p| / g: up when p, q share a sign (raise the class's least m
    by whole steps until n >= 0), down when not (its least m is the only
    candidate)."""
    (start_a, sa), (start_b, sb) = a, b
    d = [y - x for x, y in zip(start_a, start_b)]
    if not any(d):
        return 0, 0
    for i, j in combinations(range(len(d)), 2):
        if det := sb[i] * sa[j] - sa[i] * sb[j]:
            m = (sb[i] * d[j] - d[i] * sb[j]) // det
            n = (sa[i] * d[j] - d[i] * sa[j]) // det
            # floors that fit rows i and j are the exact solution
            meet = m >= 0 and n >= 0 and all(m * x - n * y == z for x, y, z in zip(sa, sb, d))
            return (m, n) if meet else None
    line = next(v for v in (sa, sb, d) if any(v))
    k = next(k for k, c in enumerate(line) if c)
    if any(x * line[k] != d[k] * c for x, c in zip(d, line)):
        return None
    p, q, t = sa[k], sb[k], d[k]
    if q == 0:
        return (t // p, 0) if p and t % p == 0 and t // p >= 0 else None
    g = gcd(p, q)
    if t % g:
        return None
    s, rise = abs(q) // g, abs(p) // g
    m = t // g * pow(p // g, -1, s) % s
    n = (m * p - t) // q
    if n < 0 and p * q > 0:
        m, n = m - n // rise * s, n % rise
    return (m, n) if n >= 0 else None


def _check_count_and_disjoint(r: RealFormRecord, config: VerifyConfig):
    count = paper_count(r)
    if count is None:
        return _fail(f"no module count from the paper for record {r.name}")
    if len(r.modules) != count:
        return _fail(f"{len(r.modules)} modules stored, expected {count}")
    if count < 2:
        why = f" ({r.nonexistence_reason})" if r.nonexistence_reason else ""
        return _pass(f"count {count} as expected{why}; "
                     f"no module pairs to separate")
    for (a, ka), (b, kb) in combinations(zip(r.modules, _ladder_keys(r)), 2):
        if meet := _ladders_meet(ka, kb):
            m, n = meet
            rung = trace_free_canonical(r.space, weight_add(a.mu0, weight_scale(m, a.beta)))
            return _fail(f"({a.label}, {b.label}) share K-type "
                         f"{format_weight(rung)} at rungs m={m}, n={n}")
    return _pass(f"count {count} as expected; ladders never meet (exact, all rungs)")


def _check_complex_beta(r: RealFormRecord, config: VerifyConfig):
    if len(r.g_complex) != 2:
        return _skip("not a complex form")
    if len(r.space.factors) != 1:
        return _fail(f"K has {len(r.space.factors)} factors; a complex form "
                     "needs K to be one factor")
    if r.space.center_dim:
        return _fail(f"K has a center of dimension {r.space.center_dim}; "
                     "a complex form's K has none")
    rs = r.space.factors[0]
    if rs.highest_root is None:
        return _fail(f"K factor {rs.label} is reducible; a complex form "
                     "needs K to be simple")
    theta = weight(r.space, rs.highest_root)
    for beta in _module_betas(r):
        if beta != theta:
            return _fail(f"beta = {format_weight(beta)} is not the highest "
                         f"root {format_vector(rs.highest_root)}")
    if not any(weight_is_zero(m.mu0) for m in r.modules):
        return _fail("no module has mu0 = 0 (spherical bottom K-type)")
    return _pass(f"beta is the highest root {format_vector(rs.highest_root)} "
                 f"and a module has mu0 = 0")


def infchar_round_trip(g_label: str, pattern) -> tuple[Vector, bool]:
    """The coordinates of sum_i c_i omega_i for the fundamental-weight
    coefficients `pattern` on type g_label, and whether they pair back to
    the pattern (their coroot labels, see coroot_labels, are d times it)."""
    rs = make_root_system(g_label)
    coords = omega_to_coords(rs, pattern)
    d, labels = coroot_labels(rs, coords)
    return coords, labels == tuple([d * c for c in pattern])


def _check_infchar_coords(r: RealFormRecord, config: VerifyConfig):
    if r.infchar is None:
        return _skip("no stored infinitesimal-character pattern")
    shown = []
    for g_label, pattern in zip(r.g_complex, r.infchar):
        try:
            canonical = joseph_infchar(g_label)
        except ValueError as exc:
            return _fail(str(exc))
        if tuple(pattern) != canonical:
            return _fail(f"stored coefficients ({', '.join(map(format_q, pattern))}) "
                         f"differ from the {g_label} pattern "
                         f"({', '.join(map(format_q, canonical))})")
        coords, round_trips = infchar_round_trip(g_label, pattern)
        if not round_trips:
            return _fail(f"{g_label}: coordinates {format_vector(coords)} do not "
                         f"pair back to the stored coefficients")
        shown.append(f"{g_label}: {format_vector(coords)}")
    return _pass("coefficients match the per-type pattern and round-trip "
                 "through coordinates; " + "; ".join(shown))


_CHECKS = {
    "rho": _check_rho,
    "p_dimension": _check_p_dimension,
    "ladder_wellformed": _check_ladder_wellformed,
    "xi0": _check_xi0,
    "w0_table": _check_w0_table,
    "w0_formula": _check_w0_formula,
    "w0_unique": _check_w0_unique,
    "same_line": _check_same_line,
    "period": _check_period,
    "count_and_disjoint": _check_count_and_disjoint,
    "complex_beta": _check_complex_beta,
    "infchar_coords": _check_infchar_coords,
}

CHECK_NAMES = tuple(_CHECKS)


def run_check(name: str, record: RealFormRecord,
              config: VerifyConfig = DEFAULT_CONFIG) -> CheckReport:
    if name not in _CHECKS:
        raise ValueError(f"unknown check {name!r}; known: "
                         + ", ".join(CHECK_NAMES))
    t0 = time.perf_counter_ns()
    status, evidence = _CHECKS[name](record, config)
    ms = (time.perf_counter_ns() - t0) // 10 ** 6
    return CheckReport(name, record.name, status, evidence, ms)


# ---------------------------------------------------------------------------
# suite runner


def run_all(records=None, *, record: str | None = None,
            family: str | None = None, checks=None,
            config: VerifyConfig = DEFAULT_CONFIG) -> tuple[CheckReport, ...]:
    """Run checks in deterministic order: records as given, then within each
    record the checks as given (a name given twice runs once, where it
    first appears) or in CHECK_NAMES order.  Selectors narrow by record name
    or family id."""
    pool = tuple(records) if records is not None else all_default_records()
    if not pool:
        # a suite of no reports would pass vacuously
        raise ValueError("no records to verify")
    if record is not None:
        key = normalize_name(record)
        pool = tuple(r for r in pool if r.key == key)
        if not pool:
            raise KeyError(f"no record named {record!r}")
    if family is not None:
        pool = tuple(r for r in pool if r.family == family)
        if not pool:
            raise KeyError(f"no records in family {family!r}")
    names = tuple(dict.fromkeys(checks)) if checks else CHECK_NAMES
    for n in names:
        if n not in _CHECKS:
            raise ValueError(f"unknown check {n!r}; known: "
                             + ", ".join(CHECK_NAMES))
    return tuple(run_check(n, r, config) for r in pool for n in names)


def suite_status(reports) -> str:
    """"fail" when a report fails; otherwise "pass" when one passes, and
    "skipped" when none does, so that a selection whose every check was
    skipped certifies nothing and does not pass."""
    statuses = {rep.status for rep in reports}
    if "fail" in statuses:
        return "fail"
    return "pass" if "pass" in statuses else "skipped"
