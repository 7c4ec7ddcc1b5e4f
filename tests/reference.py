"""Test-only references: general polynomial long division, the
convolution of Q S_n by its definition, and the polynomial kernel on
Fraction coefficient maps.

The package divides only by powers of differences x_a - x_b, through
``exactalg.shift_coefficients``.  This graded-lex long division makes no
use of that, so the tests use it as an independent check of the
divisibility verdicts and quotients.

``MultiPoly`` and ``GroupAlgebraElem`` store integer numerators over one
denominator.  The ``ref_*`` functions compute the same operations term by
term on plain ``{exponent: Fraction}`` or ``{Perm: Fraction}`` maps, with
no common denominator and no reduction, by the textbook definitions:
``ref_add`` and ``ref_scale`` serve both, ``ref_convolve`` multiplies in
Q S_n, composing pointwise, (p1 p2)(i) = p1(p2(i)), into validated
``Perm`` values, and ``convolve`` is the same product on
``GroupAlgebraElem`` values.  The package has no such product: it
multiplies only on the right by brackets, through their telescoping
factors, so ``convolve`` is the independent reference for those
products.

``ref_apply_lm`` applies L_m on the Fraction view of a polynomial, with
``ref_partial_derivative`` and each divided difference by the long
division ``divide_exact``; the package builds L_m p in one pass over its
integer numerators, dividing term by term.

``ref_q_integral`` builds t^k prod_i (t - x_i)^m on Fraction maps with
``ref_mul``, one factor at a time for every element, and integrates it
with ``ref_t_integrate_definite``; the package builds the product once
per (n, m) and shifts the exponent of t by k.  ``ref_recursion_residual``
forms the elementary-symmetric recursion by ``MultiPoly`` products and
subtractions, one per term of the sum; the package forms it in one int
map.

``ref_constraint_rows`` writes the quasiinvariance condition in the
asymmetric form x_i = x_j + u, with every power u^0..u^2m, as a second
row set with the same kernel as the package's odd-power rows.

``ref_rational`` and ``ref_lift`` are the kernel lift of the elimination
core on ``Fraction`` values: Wang's rational reconstruction returns a
Fraction, and each vector is scaled to integers through Fractions.  The
package runs the same lift on int pairs.

``poly_to_obj`` writes the JSON form of a polynomial from its Fraction
view, each term's ``num`` and ``den`` read off its Fraction; the package
writes them from the int numerators with one gcd per term.

``poly_from_obj`` reads that JSON form into Fractions, one per term, and
hands them to the validating ``MultiPoly`` constructor, with the
package's checks and refusal texts in the package's order; the package
reads it on ints over the least common denominator.

``random_homogeneous`` draws small test polynomials from a seeded
``random.Random``; the package itself draws no random input.

``paper_basis`` lists the paper's generators of QI_m over the symmetric
polynomials at n = 2 and 3, each with the standard tableau of its
component, for the tests of the Sym-basis certificate.

``build_parser`` is the CLI's argparse parser, kept as the reference for
``cli.parse_args``, which reads argv from one option table without
argparse.
"""

import argparse
import math
from fractions import Fraction

from quasiinv import SUITES
from quasiinv.calogero import NonPolynomialError
from quasiinv.exactalg import MultiPoly, elementary_symmetric, grlex_key, vandermonde
from quasiinv.hookbasis import HookSpec, cmd_basis, q_integral
from quasiinv.jsonio import _integer, cmd_apply
from quasiinv.quasi import cmd_oracle, monomials_of_degree
from quasiinv.structure import cmd_hilbert
from quasiinv.symbasis import cmd_detcheck
from quasiinv.symgroup import GroupAlgebraElem, Perm
from quasiinv.tableaux import hook_tableau
from quasiinv.verify import cmd_verify
from quasiinv.young import Tableau


def divide_exact(p: MultiPoly, d: MultiPoly):
    """Exact quotient p/d in Q[x_1..x_n], or None when d does not divide p.

    Leading-term cancellation under graded-lex: if p = d*q the leading
    terms must cancel at every step, so the loop reaches zero exactly when
    the division is exact.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p._check(d)
    n = p.nvars
    d_exp = max(d.terms, key=grlex_key)
    d_coef = d.terms[d_exp]
    quotient = {}
    r = p
    while not r.is_zero():
        r_exp = max(r.terms, key=grlex_key)
        r_coef = r.terms[r_exp]
        q_exp = tuple(a - b for a, b in zip(r_exp, d_exp))
        if any(e < 0 for e in q_exp):
            return None
        c = r_coef / d_coef
        quotient[q_exp] = quotient.get(q_exp, Fraction(0)) + c
        r = r - d * MultiPoly(n, {q_exp: c})
    return MultiPoly(n, quotient)


def poly_to_obj(p: MultiPoly) -> dict:
    """{"nvars": n, "terms": [...]}, the terms in graded-lex descending
    order of exponent, each with its Fraction's numerator and denominator."""
    order = sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    return {"nvars": p.nvars,
            "terms": [{"exp": list(exp), "num": str(c.numerator),
                       "den": str(c.denominator)} for exp, c in order]}


def poly_from_obj(obj: dict) -> MultiPoly:
    """The polynomial of a JSON object, its coefficients read as Fractions."""
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
            terms[exp] = Fraction(_integer(term["num"], "num", text=True), den)
    except KeyError as exc:
        raise ValueError(f"polynomial JSON lacks the key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed polynomial JSON: {exc}") from None
    return MultiPoly(nvars, terms)


def ref_convolve(f: dict, g: dict) -> dict:
    """f * g in Q S_n: the sum of c1 c2 (p1 p2) over every pair of terms."""
    out = {}
    for p1, c1 in f.items():
        for p2, c2 in g.items():
            key = Perm([p1(p2(i)) for i in range(1, p1.n + 1)])
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return _clean(out)


def convolve(f: GroupAlgebraElem, g: GroupAlgebraElem) -> GroupAlgebraElem:
    """f * g by ``ref_convolve`` on the Fraction views."""
    return GroupAlgebraElem(f.n, ref_convolve(f.terms, g.terms))


def _clean(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def ref_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _clean(out)


def ref_scale(p: dict, c) -> dict:
    return _clean({e: k * Fraction(c) for e, k in p.items()})


def ref_mul(p: dict, q: dict) -> dict:
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _clean(out)


def ref_partial_derivative(p: dict, i: int) -> dict:
    out = {}
    for e, c in p.items():
        if e[i - 1]:
            d = list(e)
            d[i - 1] -= 1
            out[tuple(d)] = out.get(tuple(d), Fraction(0)) + c * e[i - 1]
    return _clean(out)


def ref_apply_lm(p: MultiPoly, m: int) -> MultiPoly:
    """L_m p = sum_i d_i^2 p - 2m sum_{i<j} (d_i p - d_j p) / (x_i - x_j),
    each quotient by the long division.  At m = 0 the quotients carry no
    weight and are not formed.  The first pair in order whose quotient is
    not a polynomial raises NonPolynomialError with the package's text."""
    n = p.nvars
    d = {i: ref_partial_derivative(p.terms, i) for i in range(1, n + 1)}
    out = {}
    for i in range(1, n + 1):
        out = ref_add(out, ref_partial_derivative(d[i], i))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)] if m else []
    for i, j in pairs:
        diff = ref_add(d[i], ref_scale(d[j], -1))
        if not diff:
            continue
        quotient = divide_exact(MultiPoly(n, diff),
                                MultiPoly.variable(n, i) - MultiPoly.variable(n, j))
        if quotient is None:
            raise NonPolynomialError(
                f"(x_{i} - x_{j}) does not divide the derivative difference")
        out = ref_add(out, ref_scale(quotient.terms, -2 * m))
    return MultiPoly(n, out)


def ref_t_integrate_definite(f: dict, lower: int, upper: int) -> dict:
    """Integral of f dt from x_lower to x_upper, t being the last variable."""
    out = {}
    for e, c in f.items():
        d = e[-1] + 1
        for i, sign in ((upper, 1), (lower, -1)):
            key = list(e[:-1])
            key[i - 1] += d
            key = tuple(key)
            out[key] = out.get(key, Fraction(0)) + sign * c / d
    return _clean(out)


def ref_q_integral(spec: HookSpec) -> MultiPoly:
    """Integral of t^k prod_i (t - x_i)^m dt from x_1 to x_j, on Fraction
    maps in n + 1 variables with t = x_(n+1)."""
    n, m, j, k = spec.n, spec.m, spec.j, spec.k

    def monomial(slot, power):
        exp = [0] * (n + 1)
        exp[slot] = power
        return tuple(exp)

    integrand = {monomial(n, k): Fraction(1)}
    for i in range(n):
        factor = {monomial(n, 1): Fraction(1), monomial(i, 1): Fraction(-1)}
        for _ in range(m):
            integrand = ref_mul(integrand, factor)
    return MultiPoly(n, ref_t_integrate_definite(integrand, lower=1, upper=j))


def ref_recursion_residual(spec: HookSpec) -> MultiPoly:
    """Q^(k,m) minus sum_{i=0..n} (-1)^i e_i Q^(n-i+k, m-1), by one
    ``MultiPoly`` product and one subtraction per i."""
    n = spec.n
    total = q_integral(spec)
    for i in range(n + 1):
        lower = HookSpec(n=n, m=spec.m - 1, j=spec.j, k=n - i + spec.k)
        total = total - elementary_symmetric(n, i) * q_integral(lower) * ((-1) ** i)
    return total


def ref_shift_coefficients(p: dict, a: int, b: int, k: int) -> list:
    """Coefficients of u^0..u^k in p at x_a = x_b + u, by expanding each
    (x_b + u)^(e_a) with the binomial theorem."""
    out = [{} for _ in range(k + 1)]
    for e, c in p.items():
        ea = e[a - 1]
        for t in range(min(k, ea) + 1):
            key = list(e)
            key[a - 1] = 0
            key[b - 1] += ea - t
            key = tuple(key)
            out[t][key] = out[t].get(key, Fraction(0)) + math.comb(ea, t) * c
    return [_clean(terms) for terms in out]


def ref_constraint_rows(n: int, m: int, monomials) -> list:
    """Sparse integer rows {column: int}, one per (pair, u-power, residual
    monomial): substituting x_i = x_j + u into (1 - (i,j)) x^a gives
    C(a_i, t) - C(a_j, t) at u^t times the residual monomial whose x_j
    slot carries a_i + a_j - t, for t = 0..2m."""
    col_index = {e: k for k, e in enumerate(monomials)}
    rows = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for exp in monomials:
                ai, aj = exp[i - 1], exp[j - 1]
                for t in range(min(2 * m, ai + aj) + 1):
                    coeff = math.comb(ai, t) - math.comb(aj, t)
                    if not coeff:
                        continue
                    residual = list(exp)
                    residual[i - 1] = 0
                    residual[j - 1] = ai + aj - t
                    row = rows.setdefault((i, j, t, tuple(residual)), {})
                    row[col_index[exp]] = row.get(col_index[exp], 0) + coeff
    return [rows[key] for key in sorted(rows)]


def ref_rational(a: int, modulus: int):
    """The Fraction n/d with |n|, d <= sqrt(modulus / 2) and n = a d mod
    modulus, or None when there is none (Wang's reconstruction)."""
    bound = math.isqrt(modulus // 2)
    r0, r1 = modulus, a % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or math.gcd(s1, modulus) != 1:
        return None
    return Fraction(r1, s1)


def ref_lift(kernel, modulus):
    """Primitive integer vectors with a positive lead entry, one per kernel
    residue vector {column: residue}, or None when a reconstruction fails."""
    basis = []
    for residues in kernel.values():
        vec = {c: ref_rational(residues[c], modulus) for c in sorted(residues)}
        if any(x is None for x in vec.values()):
            return None
        scale = math.lcm(*(x.denominator for x in vec.values()))
        ints = {c: int(x * scale) for c, x in vec.items()}
        g = math.gcd(*ints.values())
        if ints[min(ints)] < 0:
            g = -g
        basis.append({c: x // g for c, x in ints.items()})
    return basis


def random_homogeneous(rng, n: int, degree: int) -> MultiPoly:
    """Deterministic pseudo-random homogeneous polynomial of at most four
    terms, drawn from the seeded ``random.Random`` rng."""
    monomials = monomials_of_degree(n, degree)
    terms = {}
    for _ in range(min(4, len(monomials))):
        exp = monomials[rng.randrange(len(monomials))]
        terms[exp] = terms.get(exp, 0) + rng.randint(-5, 5)
    return MultiPoly(n, terms)


def paper_basis(n: int, m: int) -> list:
    """(standard tableau, generator) pairs of the paper's basis of QI_m over
    the symmetric polynomials, for n = 2 or 3: 1 for the one-row tableau,
    Q^(0,m) and Q^(1,m) for each hook tableau when n = 3, and V^(2m+1), V
    the Vandermonde, for the one-column tableau."""
    pairs = [(Tableau([tuple(range(1, n + 1))]), MultiPoly.constant(n, 1))]
    if n == 3:
        pairs += [(hook_tableau(3, j), q_integral(HookSpec(n=3, m=m, j=j, k=k)))
                  for j in (2, 3) for k in (0, 1)]
    pairs.append((Tableau([(i,) for i in range(1, n + 1)]), vandermonde(n) ** (2 * m + 1)))
    return pairs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiinv",
        description="Exact construction and verification of the "
        "m-quasiinvariants of the symmetric group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=True):
        p.add_argument("--out", help="write output to this path instead of stdout")
        if fmt:
            p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("basis", help="emit the hook-shape basis polynomials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="assert the dual construction and degree contract")
    common(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("--suite", required=True,
                   choices=SUITES + ("all",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--seed", type=int, default=0,
                   help="only recorded in the header; no suite draws random input")
    common(p, fmt=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hilbert", help="graded dimension series, optionally "
                       "cross-checked against the brute-force oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--oracle", action="store_true")
    common(p)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("apply", help="apply gamma_T, L_m, a permutation, or "
                       "the Delta^2 embedding to a JSON polynomial")
    p.add_argument("--op", required=True, choices=("gamma", "lm", "perm", "delta2"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--shape", help="partition, e.g. 2,1 (gamma)")
    p.add_argument("--j", type=int, help="hook second-row entry (gamma)")
    p.add_argument("--tableau", help="JSON rows for a general tableau (gamma)")
    p.add_argument("--m", type=int, default=0, help="operator order (lm, delta2)")
    p.add_argument("--sigma", help='cycle notation, e.g. "(1,2)" (perm)')
    common(p)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("oracle", help="dump an exact graded witness basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="only recorded in the output; the oracle draws nothing")
    common(p, fmt=False)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("detcheck", help="n=2 change-of-basis determinant check")
    p.add_argument("--m", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_detcheck)

    return parser
