"""The checks built on the elimination core and the quasiinvariance
predicate: the Sym-basis certificate, on it the n = 2 change of basis
between QI_(m+1) and QI_m, and the containment chain with the Delta^2
embedding of QI_m into QI_(m+1).  The handler of the ``detcheck`` command,
which prints the n = 2 change of basis, is here too.

The module imports ``exactalg``, ``predicate`` and ``quasi``.  None of it
needs a Young projector, and only ``detcheck`` and the ``chain`` suite
(alone or in ``all``) load it, so the oracle, ``hilbert --oracle`` and the
projector suites do not compile it.
"""

from __future__ import annotations

import itertools
import math

from .exactalg import MultiPoly, TheoremViolationError, elementary_symmetric, vandermonde
from .predicate import is_quasiinvariant
from .quasi import _refuse_above_cap, graded_dimension_oracle, integer_nullspace


def is_sym_basis(gens, m: int) -> bool:
    """True iff ``gens`` are n! homogeneous m-quasiinvariants of degree sum
    K = (2m+1) C(n,2) n!/2 whose values at the permutations of (0, ..., n-1)
    have an empty exact kernel, which proves them a basis of QI_m over Sym.

    Proof: let M(x) have rows (sigma g_i)(x), sigma in S_n.  Row sigma minus
    row (a b) sigma lies in (1 - (a b)) QI_m, so the n!/2 such pairs put
    (x_a - x_b)^((2m+1) n!/2) in det M(x); the factors are coprime, so
    det M(x) = c V^((2m+1) n!/2) by degree, V the Vandermonde, and c != 0 as
    M is nonsingular at the point.  Sum s_i g_i = 0 over Sym gives
    M(x) s = 0, so s = 0.  For P in QI_m, Cramer's rule solves
    M(x) s = (sigma P)_sigma with numerators divisible by the same power of
    V, so the s_i are polynomials, symmetric as tau in S_n permutes the rows
    of the unique solution, and P = sum s_i g_i.
    """
    n = gens[0].nvars if gens else 0
    twice_k = (2 * m + 1) * math.comb(n, 2) * math.factorial(n)
    if (len(gens) != math.factorial(n) or 2 * sum(g.degree() for g in gens) != twice_k
            or any(g.nvars != n or not g.is_homogeneous() for g in gens)
            or not all(is_quasiinvariant(g, m) for g in gens)):
        return False
    rows = [{i: v for i, g in enumerate(gens)
             if (v := sum(c * math.prod(map(pow, x, e)) for e, c in g.num.items()))}
            for x in itertools.permutations(range(n))]
    return not integer_nullspace(rows, len(gens))


def change_of_basis_n2(m: int):
    """The 2x2 change-of-basis experiment between QI_(m+1) and QI_m.

    {1, (x_1 - x_2)^(2m+1)} and {1, (x_1 - x_2)^(2m+3)} are proved bases
    of QI_m and QI_(m+1) over Sym by ``is_sym_basis``, with 2m+3 held to
    the degree cap.  Returns (matrix, determinant); the determinant equals
    the squared Vandermonde in two variables.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    _refuse_above_cap(2 * m + 3)
    n = 2
    x1 = MultiPoly.variable(n, 1)
    x2 = MultiPoly.variable(n, 2)
    one = MultiPoly.constant(n, 1)
    b1 = (x1 - x2) ** (2 * m + 1)
    a1 = (x1 - x2) ** (2 * m + 3)
    if not (is_sym_basis([one, b1], m) and is_sym_basis([one, a1], m + 1)):
        raise TheoremViolationError("claimed basis is not a Sym-basis")
    e1 = elementary_symmetric(n, 1)
    e2 = elementary_symmetric(n, 2)
    growth = e1 * e1 - e2 * 4
    if a1 != growth * b1:
        raise TheoremViolationError(
            "expansion (x1-x2)^(2m+3) = (e1^2-4e2)(x1-x2)^(2m+1) failed")
    zero = MultiPoly.zero(n)
    matrix = ((one, zero), (zero, growth))
    determinant = matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    if determinant != vandermonde(n) ** 2:
        raise TheoremViolationError("determinant is not the squared Vandermonde")
    return matrix, determinant


def delta_sq_chain_check(n: int, m: int, max_degree: int) -> dict:
    """Check that Delta^2 QI_m sits inside QI_(m+1) and QI_(m+1) inside
    QI_m, on every oracle basis element of degree 0..max_degree."""
    report = {"n": n, "m": m, "max_degree": max_degree, "embedded": 0,
              "chained": 0, "failures": []}
    delta_sq = vandermonde(n) ** 2
    for d in range(max_degree + 1):
        for p in graded_dimension_oracle(n, m, d).basis:
            if is_quasiinvariant(delta_sq * p, m + 1):
                report["embedded"] += 1
            else:
                report["failures"].append(("embed", d))
        for p in graded_dimension_oracle(n, m + 1, d).basis:
            report["chained"] += 1
            if not is_quasiinvariant(p, m):
                report["failures"].append(("chain", d))
    report["passed"] = not report["failures"]
    return report


def cmd_detcheck(args):
    """``detcheck``: the n = 2 change of basis and its determinant."""
    matrix, determinant = change_of_basis_n2(args.m)
    if args.format == "json":
        from . import jsonio

        obj = {
            "m": args.m,
            "matrix": [[jsonio.poly_to_obj(entry) for entry in row] for row in matrix],
            "determinant": jsonio.poly_to_obj(determinant),
            "equals_vandermonde_squared": True,
        }
        text = jsonio.dumps(obj)
    else:
        lines = [
            f"change-of-basis matrix (m={args.m}):",
            f"  [{matrix[0][0].to_text()}, {matrix[0][1].to_text()}]",
            f"  [{matrix[1][0].to_text()}, {matrix[1][1].to_text()}]",
            f"determinant = {determinant.to_text()} = Delta_2^2",
        ]
        text = "\n".join(lines) + "\n"
    return text, 0
