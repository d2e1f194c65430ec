"""Plain-text formatting for exact values: rationals, coordinate vectors,
composite weights, and reflection words.

Conventions: no spaces inside vectors, zero weights print as "0", words
print their letters left to right with per-factor basis names e, f, g, ...
and half-integer letters wrapped as "(e1-e2+...)/2".
"""

from __future__ import annotations

import re
from fractions import Fraction as Q

from .linalg import integer_images
from .rootsys import Weight, is_zero
from .weyl import WeylWord

FACTOR_BASES = "efghijk"


def format_q(x) -> str:
    x = Q(x)
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def parse_q(text: str) -> Q:
    """The inverse of format_q: "p" or "p/q" in ASCII digits, p maybe signed
    (Fraction would also read decimals, underscores and costly exponents)."""
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
        raise ValueError(f"not a rational p or p/q: {text!r}")
    num, _, den = text.partition("/")
    return Q(int(num), int(den or 1))


def format_vector(v) -> str:
    return "(" + ",".join(format_q(c) for c in v) + ")"


def format_weight(w: Weight) -> str:
    if all(is_zero(v) for v in w.factors) and all(c == 0 for c in w.center):
        return "0"
    if len(w.factors) == 1:
        body = "0" if is_zero(w.factors[0]) else format_vector(w.factors[0])
    else:
        body = "(" + ",".join(
            "0" if is_zero(v) else format_vector(v) for v in w.factors) + ")"
    if any(c != 0 for c in w.center):
        charge = ",".join(format_q(c) for c in w.center)
        return f"({body}; {charge})"
    return body


def _letter_combination(factor: int, v) -> str:
    base = FACTOR_BASES[factor] if factor < len(FACTOR_BASES) else f"x{factor}_"
    denom, (ints,) = integer_images([v])
    terms = ""
    for k, n in enumerate(ints, start=1):
        if n == 0:
            continue
        sign = "-" if n < 0 else ("+" if terms else "")
        mag = abs(n)
        coef = "" if mag == 1 else str(mag)
        terms += f"{sign}{coef}{base}{k}"
    if denom != 1:
        return f"({terms})/{denom}"
    return terms


def format_word(w: WeylWord) -> str:
    if not w.letters:
        return "1"
    return "".join(f"s({_letter_combination(f, v)})" for f, v in w.letters)
