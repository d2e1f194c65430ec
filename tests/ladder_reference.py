"""The disjointness certificate count_and_disjoint gave before it solved for
the meeting rungs exactly, kept as a reference for verify._ladders_meet.

Two halves made it up.  `separator` tries three hand-picked invariants
(center-charge sign, center-charge congruence, coordinate-sum parity), each
meant to keep two ladders apart at every rung; when none applied the pair
failed, disjoint or not.  `swept_meetings` compares rungs 0..RUNG_SWEEP of
both ladders outright, on Fraction weights with the trace projected out.
Neither is exact: the congruence invariant assumes an integral charge
step, so it clears ladders that meet when the step is 1/2, and the sweep
misses every meeting past its last rung."""

from fractions import Fraction as Q

from minrep.rootsys import trace_free_canonical, weight_add, weight_scale

RUNG_SWEEP = 50


def _raw_sum(w) -> Q:
    return sum((sum(v, Q(0)) for v in w.factors), Q(0))


def separator(r, a, b) -> str | None:
    """The name of an invariant that keeps the ladders of modules a and b of
    record r apart, or None when none of the three applies."""
    if r.space.center_dim == 1:
        ca, cb = a.mu0.center[0], b.mu0.center[0]
        da, db = a.beta.center[0], b.beta.center[0]
        # charges move away from zero along each ladder
        if ca * da > 0 and cb * db > 0 and (ca > 0) != (cb > 0):
            return "center-charge sign"
        if da == db and (ca - cb).denominator != 1:
            return "center-charge congruence"
        return None
    if any(rs.trace_redundant for rs in r.space.factors):
        # raw coordinate sums are not canonical on such factors
        return None
    sa, sb = _raw_sum(a.mu0), _raw_sum(b.mu0)
    ba, bb = _raw_sum(a.beta), _raw_sum(b.beta)
    if all(x.denominator == 1 for x in (sa, sb, ba, bb)) \
            and ba % 2 == 0 and bb % 2 == 0 and (sa - sb) % 2 == 1:
        return "coordinate-sum parity"
    return None


def canonical_rung(r, module, n: int):
    """Rung n of a module's ladder, as the K-type it names."""
    return trace_free_canonical(r.space, weight_add(module.mu0, weight_scale(n, module.beta)))


def swept_meetings(r, a, b, sweep: int = RUNG_SWEEP) -> set[tuple[int, int]]:
    """Every (m, n) with m, n <= sweep at which rung m of a and rung n of b
    name one K-type."""
    rungs = {canonical_rung(r, a, m): m for m in range(sweep + 1)}
    return {(rungs[k], n) for n in range(sweep + 1)
            if (k := canonical_rung(r, b, n)) in rungs}
