"""Canonical JSON interchange forms.

A polynomial is {"nvars": n, "terms": [{"exp": [...], "num": "...",
"den": "..."}, ...]} with terms in graded-lex descending exponent order;
identical values always serialize to identical bytes.  Reading and
writing both run on int numerators and denominators, so a command that
reads or writes JSON loads no ``fractions``.  The handler of ``apply``,
the one command that reads a polynomial, is here too: it imports the
layer of its operation when it runs.
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


def _poly_text(p: MultiPoly) -> str:
    return p.to_text() + "\n"


def _parse_json(text: str, option: str):
    """The JSON value given to ``option``; nesting too deep for the decoder
    is refused like any other malformed input."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{option} JSON is nested too deeply") from None


def cmd_apply(args):
    """``apply``: gamma_T, L_m, a permutation or the Delta^2 embedding of
    the JSON polynomial in --in; L_m outside its domain prints the
    NonPolynomial error object and exits 1."""
    with open(args.infile, "r", encoding="utf-8") as fh:
        p = poly_from_obj(_parse_json(fh.read(), "--in"))
    if args.op == "gamma":
        from .tableaux import gamma_apply, hook_tableau
        from .young import Partition, Tableau

        if args.tableau:
            t = Tableau(_parse_json(args.tableau, "--tableau"))
        elif not args.shape:
            raise ValueError("gamma needs --shape or --tableau")
        else:
            shape = Partition(int(v) for v in args.shape.split(","))
            if len(shape.parts) != 2 or shape.parts[1] != 1:
                raise ValueError("give --tableau for non-hook shapes")
            if args.j is None:
                raise ValueError("gamma on a hook shape needs --j")
            t = hook_tableau(shape.size, args.j)
        if t.n != p.nvars:
            raise ValueError("tableau size does not match nvars")
        image = gamma_apply(t, p)
    elif args.op == "lm":
        from .calogero import NonPolynomialError, apply_lm

        try:
            image = apply_lm(p, args.m)
        except NonPolynomialError as exc:
            return dumps({"error": "NonPolynomial", "detail": str(exc)}), 1
    elif args.op == "perm":
        from .symgroup import act, parse_cycles

        if args.sigma is None:
            raise ValueError("perm needs --sigma")
        image = act(parse_cycles(args.sigma, p.nvars), p)
    elif args.op == "delta2":
        from .predicate import delta_sq_embed

        image = delta_sq_embed(p, args.m)
    else:
        raise ValueError(f"unknown op {args.op!r}")
    if args.format == "json":
        return dumps(poly_to_obj(image)), 0
    return _poly_text(image), 0
