"""Canonical JSON interchange forms.

A polynomial is {"nvars": n, "terms": [{"exp": [...], "num": "...",
"den": "..."}, ...]} with terms in graded-lex descending exponent order;
identical values always serialize to identical bytes.  Reading and
writing both run on int numerators and denominators, so a command that
reads or writes JSON loads no ``fractions``.
"""

from __future__ import annotations

import json
import math

from .exactalg import MultiPoly, grlex_key


def poly_to_obj(p: MultiPoly) -> dict:
    terms = []
    for exp in sorted(p.num, key=grlex_key, reverse=True):
        num, den = p._coefficient(exp)
        terms.append({"exp": list(exp), "num": str(num), "den": str(den)})
    return {"nvars": p.nvars, "terms": terms}


def _integer(value, key: str, text: bool = False) -> int:
    """``value`` as an int if it is one (or, with ``text``, an integer
    string); anything else, such as a float, is refused, not truncated."""
    if type(value) is int or (text and isinstance(value, str)):
        return int(value)
    raise ValueError(f"polynomial JSON {key!r} must be an integer, got {value!r}")


def poly_from_obj(obj: dict) -> MultiPoly:
    """The polynomial of a JSON object, read on ints: each numerator is
    scaled to the least common denominator of the terms, and the
    polynomial is validated on those ints and divided by it once."""
    try:
        nvars = _integer(obj["nvars"], "nvars")
        terms = {}
        for term in obj.get("terms", []):
            exp = tuple(_integer(e, "exp") for e in term["exp"])
            if exp in terms:
                raise ValueError(f"term {list(exp)} repeats an exponent")
            den = _integer(term["den"], "den", text=True)
            if den == 0:
                raise ValueError(f"term {list(exp)} has denominator 0")
            terms[exp] = (_integer(term["num"], "num", text=True), den)
    except KeyError as exc:
        raise ValueError(f"polynomial JSON lacks the key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed polynomial JSON: {exc}") from None
    lcd = math.lcm(*(den for _, den in terms.values()))
    scaled = MultiPoly(nvars, {exp: num * (lcd // den)
                               for exp, (num, den) in terms.items()})
    return MultiPoly._from_int(nvars, scaled.num, lcd)


def witness_to_obj(w: QIWitness, seed: int) -> dict:
    return {
        "n": w.n,
        "m": w.m,
        "degree": w.degree,
        "dimension": w.dimension,
        "basis": [poly_to_obj(p) for p in w.basis],
        "seed": seed,
    }


def hilbert_report_to_obj(report: HilbertReport, oracle=None) -> dict:
    obj = {
        "n": report.n,
        "m": report.m,
        "truncation": report.truncation,
        "shapes": [
            {"shape": list(parts), "exponents": list(exps)}
            for parts, exps in report.shape_exponents
        ],
        "per_shape_series": [
            {"shape": list(parts), "coeffs": list(series)}
            for parts, series in report.per_shape_series
        ],
        "total": list(report.total),
    }
    if oracle is not None:
        obj["oracle"] = oracle
    return obj


def dumps(obj) -> str:
    """Compact deterministic JSON text (trailing newline included)."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n"
