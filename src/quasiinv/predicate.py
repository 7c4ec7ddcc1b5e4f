"""The quasiinvariance predicate and the Delta^2 embedding built on it.

The defining condition, (x_i - x_j)^(2m+1) divides (1 - (i,j)) p, is
written out once, in ``_pair_terms``: substituting x_i = c + u,
x_j = c - u, only the odd powers u^1, u^3, ..., u^(2m-1) can carry a
nonzero coefficient, which gives one sparse integer row per (pair, odd
u-power, residual monomial) over a list of monomials.  The predicate sums
a polynomial's integer numerators, folded onto (1 - (i,j)) p, into those
rows one pair at a time and stops at the first pair with a nonzero
residual; the oracle of ``quasi`` takes the same rows over all monomials
of degree d.  ``delta_sq_embed`` multiplies an m-quasiinvariant by
Delta_n^2 and checks the product with the predicate.

The module imports ``exactalg`` alone at its top level, so a command
that only tests quasiinvariance (``apply --op delta2``, the ``hook``
suite) loads neither the oracle nor its elimination core.  The fold comes
from the transposition kernel, ``brackets``, which ``is_quasiinvariant``
imports when it runs: the oracle takes only ``_pair_terms`` from here, so
``oracle`` does not compile the kernel.
"""

from __future__ import annotations

import functools
import math

from .exactalg import MultiPoly, ResourceGuardError, TheoremViolationError, vandermonde

# The terms of Delta_n^2 for n = 1..6.  At n = 7 squaring the Vandermonde
# alone (1,392,385 terms) took 32 s, so delta2 stops at 6 variables, and
# below that it refuses |Delta_n^2| |p| above DELTA2_MAX_TERM_PAIRS: on a
# 2-vCPU Xeon VM with Python 3.11 one 6-variable monomial (56,183 pairs)
# takes 1.2 s, and a 6-variable, 40-term input (2.2 M) took 25.6 s.
_DELTA_SQ_TERMS = {1: 1, 2: 3, 3: 19, 4: 201, 5: 2961, 6: 56183}
DELTA2_MAX_TERM_PAIRS = 100_000


def is_quasiinvariant(p: MultiPoly, m: int) -> bool:
    """True iff (x_i - x_j)^(2m+1) divides (1 - (i,j)) p for all i < j.

    Pair by pair, p's integer numerators are folded onto the exponents with
    e_i > e_j by the signed fold of the bracket over {i, j}
    (``brackets._fold``: a term with e_i < e_j is subtracted at its swap, one
    with e_i = e_j dropped), which is exact as W(b, a, t) = -W(a, b, t) at
    the odd t of ``_pair_terms``, and summed into its rows; the first pair with
    a nonzero residual ends the check, so no later pair is expanded.  A
    row's key fixes the degree of its monomials, so p need not be
    homogeneous.
    """
    from .brackets import _fold

    if m < 0:
        raise ValueError("m must be non-negative")
    n = p.nvars
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            folded = _fold(p.num, ((i, j),), True)
            residual = {}
            get = residual.get
            for key, exp, w in _pair_terms(i, j, m, folded):
                residual[key] = get(key, 0) + w * folded[exp]
            if any(residual.values()):
                return False
    return True


def delta_sq_embed(p: MultiPoly, m: int) -> MultiPoly:
    """Multiply an m-quasiinvariant by Delta_n^2; the result is checked to
    be (m+1)-quasiinvariant.  Inputs past the size guard are refused
    before any work."""
    if p.nvars > max(_DELTA_SQ_TERMS):
        raise ResourceGuardError(
            f"delta2 limited to nvars <= {max(_DELTA_SQ_TERMS)}, got {p.nvars}")
    pairs = _DELTA_SQ_TERMS.get(p.nvars, 1) * len(p.num)
    if pairs > DELTA2_MAX_TERM_PAIRS:
        raise ResourceGuardError(
            f"delta2 limited to |Delta^2| |p| <= {DELTA2_MAX_TERM_PAIRS} term "
            f"pairs, got {pairs}")
    if not is_quasiinvariant(p, m):
        raise ValueError("input is not m-quasiinvariant")
    v = vandermonde(p.nvars)
    result = v * (v * p)
    if not is_quasiinvariant(result, m + 1):
        raise TheoremViolationError("Delta^2 embedding failed quasiinvariance")
    return result


@functools.cache
def _odd_weights(a: int, b: int, m: int) -> tuple:
    """The pairs (t, W(a, b, t)) with W(a, b, t) != 0, for odd t < 2m,
    where W(a, b, t) is the coefficient of u^t in (c + u)^a (c - u)^b."""
    out = []
    for t in range(1, min(2 * m, a + b + 1), 2):
        w = sum(math.comb(a, s) * math.comb(b, t - s) * (-1) ** (t - s)
                for s in range(max(0, t - b), min(a, t) + 1))
        if w:
            out.append((t, w))
    return tuple(out)


def _pair_terms(i: int, j: int, m: int, monomials):
    """The constraint terms of the pair (i, j): (key, exponent, w) for
    each monomial x^e of ``monomials`` and each row it enters.

    (c, u) = ((x_i + x_j)/2, (x_i - x_j)/2) is an invertible linear change
    of variables, so (x_i - x_j)^(2m+1) = (2u)^(2m+1) divides a polynomial
    exactly when its coefficients of u^0..u^2m vanish after substituting
    x_i = c + u, x_j = c - u.  With a = e_i and b = e_j, x^e becomes
    (c + u)^a (c - u)^b times the other variables and (i,j) x^e becomes
    (c + u)^b (c - u)^a, which is the same polynomial at -u; so
    W(b, a, t) = (-1)^t W(a, b, t), and (1 - (i,j)) x^e contributes
    2 W(a, b, t) c^(a+b-t) u^t at odd t and nothing at even t.  The rows
    are thus the odd t < 2m, keyed by (t, a + b, the other exponents),
    which fixes the monomial c^(a+b-t) u^t x^rest and its degree, so the
    monomials need not share one; each term carries w = W(a, b, t), the
    common factor 2 dropped.
    """
    for exp in monomials:
        a, b = exp[i - 1], exp[j - 1]
        if a == b:
            continue
        weights = _odd_weights(a, b, m)
        if not weights:
            continue
        rest = list(exp)
        rest[i - 1] = rest[j - 1] = 0
        rest = tuple(rest)
        for t, w in weights:
            yield (t, a + b, rest), exp, w
