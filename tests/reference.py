"""Test-only references: general polynomial long division and the
convolution of Q S_n by its definition.

The package divides only by powers of differences x_a - x_b, through
``exactalg.shift_coefficients``.  This graded-lex long division makes no
use of that, so the tests use it as an independent check of the
divisibility verdicts and quotients.

``GroupAlgebraElem.__mul__`` convolves on integers over one common
denominator; ``convolve`` multiplies term by term in ``Fraction``
arithmetic, composing with ``Perm.compose``.
"""

from fractions import Fraction

from quasiinv.exactalg import MultiPoly, grlex_key
from quasiinv.symgroup import GroupAlgebraElem


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
        r = r - d * MultiPoly.monomial(q_exp, c)
    return MultiPoly(n, quotient)


def convolve(f: GroupAlgebraElem, g: GroupAlgebraElem) -> GroupAlgebraElem:
    """f * g: the sum of c1 c2 (p1 p2) over every pair of terms."""
    terms = {}
    for p1, c1 in f.terms.items():
        for p2, c2 in g.terms.items():
            key = p1.compose(p2)
            terms[key] = terms.get(key, Fraction(0)) + c1 * c2
    return GroupAlgebraElem(f.n, terms)
