"""The deformed Laplacian L_m and its eigen-identity on the hook basis.

L_m = sum_i d^2/dx_i^2 - 2m sum_{i<j} (x_i - x_j)^{-1} (d/dx_i - d/dx_j).

``apply_lm(p, m)`` applies L_m in the variables of p.  The 1/(x_i - x_j)
factor is realized as the exact divided difference
``divide_by_difference``; inputs outside the operator's polynomial domain
raise NonPolynomialError.
"""

from __future__ import annotations

from .exactalg import MultiPoly, divide_by_difference, partial_derivative
from .hookbasis import HookSpec, q_integral


class NonPolynomialError(ArithmeticError):
    """The operator image left the polynomial ring."""


def apply_lm(p: MultiPoly, m: int) -> MultiPoly:
    """L_m p, in the variables of p."""
    if m < 0:
        raise ValueError("need m >= 0")
    n = p.nvars
    d = {i: partial_derivative(p, i) for i in range(1, n + 1)}
    result = MultiPoly.zero(n)
    for i in range(1, n + 1):
        result = result + partial_derivative(d[i], i)
    if m == 0:
        return result
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            diff = d[i] - d[j]
            if diff.is_zero():
                continue
            quotient = divide_by_difference(diff, i, j)
            if quotient is None:
                raise NonPolynomialError(
                    f"(x_{i} - x_{j}) does not divide the derivative difference"
                )
            result = result - quotient * (2 * m)
    return result


def lm_eigen_check(spec: HookSpec) -> MultiPoly:
    """L_m Q^(k,m) - k(k-1) Q^(k-2,m); the zero polynomial when the
    eigen-identity holds (the subtracted term is omitted for k < 2)."""
    residual = apply_lm(q_integral(spec), spec.m)
    if spec.k >= 2:
        lower = HookSpec(n=spec.n, m=spec.m, j=spec.j, k=spec.k - 2)
        residual = residual - q_integral(lower) * (spec.k * (spec.k - 1))
    return residual
