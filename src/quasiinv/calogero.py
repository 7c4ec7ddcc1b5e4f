"""The deformed Laplacian L_m and its eigen-identity on the hook basis.

L_m = sum_i d^2/dx_i^2 - 2m sum_{i<j} (x_i - x_j)^{-1} (d/dx_i - d/dx_j).

``apply_lm(p, m)`` applies L_m in the variables of p, in one pass over its
integer numerators.  The 1/(x_i - x_j) factor is realized as the exact
divided difference, term by term, with the remainder at x_i = x_j summed
beside it; inputs outside the operator's polynomial domain raise
NonPolynomialError.
"""

from __future__ import annotations

from .exactalg import MultiPoly


class NonPolynomialError(ArithmeticError):
    """The operator image left the polynomial ring."""


def apply_lm(p: MultiPoly, m: int) -> MultiPoly:
    """L_m p, in the variables of p, built in one int map over p.den.

    A term c x^e adds c e_i (e_i - 1) x^(e - 2 delta_i) for each i.  For a
    pair i < j, with a = e_i and b = e_j and the other variables fixed, its
    share of d_i p - d_j p is, by x_i^s - x_j^s = (x_i - x_j) times the sum
    of x_i^r x_j^(s-1-r) over r < s,

        c (a x_i^(a-1) x_j^b - b x_i^a x_j^(b-1))
            = (x_i - x_j) sum_{s<a} q_s x_i^s x_j^(a+b-2-s) + c (a - b) x_j^(a+b-1),

    with q_s = c (a - b) for s < a - 1 and q_(a-1) = -c b.  x_i - x_j
    divides d_i p - d_j p exactly when the remainders sum to zero; then the
    quotients, times -2m, are the pair's share of L_m p.  The first pair in
    order whose remainders do not cancel raises NonPolynomialError.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    n = p.nvars
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)] if m else []
    remainders = [{} for _ in pairs]
    out = {}
    get = out.get
    for e, c in p.num.items():
        for i, a in enumerate(e):
            if a > 1:
                key = e[:i] + (a - 2,) + e[i + 1:]
                out[key] = get(key, 0) + c * a * (a - 1)
        scaled = -2 * m * c
        for (i, j), rem in zip(pairs, remainders):
            a, b = e[i], e[j]
            if not (a or b):
                continue
            key = list(e)
            key[i], key[j] = 0, a + b - 1
            k = tuple(key)
            rem[k] = rem.get(k, 0) + c * (a - b)
            for s in range(a - 1):
                key[i], key[j] = s, a + b - 2 - s
                k = tuple(key)
                out[k] = get(k, 0) + scaled * (a - b)
            if a and b:
                key[i], key[j] = a - 1, b - 1
                k = tuple(key)
                out[k] = get(k, 0) - scaled * b
    for (i, j), rem in zip(pairs, remainders):
        if any(rem.values()):
            raise NonPolynomialError(
                f"(x_{i + 1} - x_{j + 1}) does not divide the derivative difference"
            )
    return MultiPoly._from_int(n, out, p.den)


def lm_eigen_check(spec: HookSpec) -> MultiPoly:
    """L_m Q^(k,m) - k(k-1) Q^(k-2,m); the zero polynomial when the
    eigen-identity holds (the subtracted term is omitted for k < 2).
    ``hookbasis`` is imported here, so ``apply --op lm`` does not load it."""
    from .hookbasis import HookSpec, q_integral

    residual = apply_lm(q_integral(spec), spec.m)
    if spec.k >= 2:
        lower = HookSpec(n=spec.n, m=spec.m, j=spec.j, k=spec.k - 2)
        residual = residual - q_integral(lower) * (spec.k * (spec.k - 1))
    return residual
