"""Test-only reference: general polynomial long division.

The package divides only by powers of differences x_a - x_b, through
``exactalg.shift_coefficients``.  This graded-lex long division makes no
use of that, so the tests use it as an independent check of the
divisibility verdicts and quotients.
"""

from fractions import Fraction

from quasiinv.exactalg import MultiPoly, grlex_key


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
