"""Hilbert-series assembly, the hook quotient dimension, and the n = 2
change-of-basis determinant experiment.

The graded dimension generating function of QI_m is assembled per shape
from the exponents m(C(n,2) - content(shape)) + cocharge(T) and divided by
prod (1 - q^i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactalg import (
    MultiPoly,
    elementary_symmetric,
    series_expand,
    vandermonde,
)
from .quasi import (
    ResourceGuardError,
    delta_sq_embed,
    graded_dimension_oracle,
    is_quasiinvariant,
    poly_rank,
)
from .tableaux import (
    Tableau,
    cocharge,
    content,
    f_lambda,
    gamma_apply,
    partitions_of,
    standard_tableaux,
)

HILBERT_MAX_N = 6


class NegativeCoefficientError(AssertionError):
    """A Hilbert series produced a negative coefficient."""


@dataclass(frozen=True)
class HilbertReport:
    n: int
    m: int
    truncation: int
    shape_exponents: tuple  # ((parts, sorted exponent multiset), ...)
    per_shape_series: tuple  # ((parts, coefficients of q^0..q^D), ...)
    total: tuple  # coefficients of q^0..q^D


def numerator_exponent(m: int, t: Tableau) -> int:
    """m (C(n,2) - content(shape)) + cocharge(T)."""
    n = t.n
    return m * (math.comb(n, 2) - content(t.shape)) + cocharge(t)


def full_hilbert(n: int, m: int, D: int) -> HilbertReport:
    """Assemble the graded dimension series of QI_m through q^D."""
    if n < 1:
        raise ValueError(f"hilbert needs n >= 1, got {n}")
    if n > HILBERT_MAX_N:
        raise ResourceGuardError(f"hilbert limited to n <= {HILBERT_MAX_N}, got {n}")
    if m < 0 or D < 0:
        raise ValueError("m and D must be non-negative")
    shape_exponents = []
    per_shape = []
    total = [0] * (D + 1)
    for shape in partitions_of(n):
        tabs = standard_tableaux(shape)
        exponents = sorted(numerator_exponent(m, t) for t in tabs)
        if len(exponents) != f_lambda(shape):
            raise AssertionError("exponent multiset size mismatch")
        # each exponent counts f_lambda times, once per copy of the irreducible
        series = series_expand(exponents * len(exponents), n, D)
        if any(c < 0 for c in series):
            raise NegativeCoefficientError(f"negative coefficient for shape {shape}")
        shape_exponents.append((shape.parts, tuple(exponents)))
        per_shape.append((shape.parts, series))
        total = [a + b for a, b in zip(total, series)]
    if any(c < 0 for c in total):
        raise NegativeCoefficientError("negative coefficient in total series")
    return HilbertReport(
        n=n,
        m=m,
        truncation=D,
        shape_exponents=tuple(shape_exponents),
        per_shape_series=tuple(per_shape),
        total=tuple(total),
    )


def hook_quotient_dimension(n: int, m: int, d: int, t: Tableau) -> int:
    """Graded dimension of the gamma_T component of QI_m modulo the ideal
    generated by e_1..e_n, at degree d.

    Computed as rank gamma_T(QI_m)_d minus rank gamma_T(sum_i e_i
    (QI_m)_{d-i}); freeness over the symmetric functions makes the second
    span the ideal's degree-d piece.
    """
    top = poly_rank([gamma_apply(t, b) for b in graded_dimension_oracle(n, m, d).basis])
    ideal_images = []
    for i in range(1, min(n, d) + 1):
        e_i = elementary_symmetric(n, i)
        for b in graded_dimension_oracle(n, m, d - i).basis:
            ideal_images.append(gamma_apply(t, e_i * b))
    return top - poly_rank(ideal_images)


def det_degree(n: int) -> int:
    """Degree of the change-of-basis determinant, computed from the
    per-shape exponent differences and from the closed form C(n,2) n!,
    asserted equal."""
    if n < 1:
        raise ValueError("n must be positive")
    c = math.comb(n, 2)
    by_shapes = sum(
        f_lambda(shape) ** 2 * (c - content(shape)) for shape in partitions_of(n)
    )
    closed = c * math.factorial(n)
    if by_shapes != closed:
        raise AssertionError(f"degree formulas disagree: {by_shapes} != {closed}")
    return closed


def change_of_basis_n2(m: int):
    """The 2x2 change-of-basis experiment between QI_(m+1) and QI_m.

    Free bases: {1, (x_1 - x_2)^(2m+1)} for QI_m and the analogous pair
    for QI_(m+1).  The graded dimensions of QI_m are checked against the
    oracle through degree 2m+4.  Returns (matrix, determinant); the
    determinant equals the squared Vandermonde in two variables.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    n = 2
    x1 = MultiPoly.variable(n, 1)
    x2 = MultiPoly.variable(n, 2)
    one = MultiPoly.constant(n, 1)
    b1 = (x1 - x2) ** (2 * m + 1)
    a1 = (x1 - x2) ** (2 * m + 3)
    for p, order in ((one, m), (b1, m), (a1, m + 1)):
        if not is_quasiinvariant(p, order):
            raise AssertionError("claimed basis element fails quasiinvariance")
    # free rank-2 module series (1 + q^(2m+1)) / ((1-q)(1-q^2))
    D = 2 * m + 4
    series = series_expand([0, 2 * m + 1], n, D)
    for d in range(D + 1):
        dim = graded_dimension_oracle(n, m, d).dimension
        if dim != series[d]:
            raise AssertionError(
                f"oracle dimension {dim} != series coefficient "
                f"{series[d]} at degree {d}"
            )
    e1 = elementary_symmetric(n, 1)
    e2 = elementary_symmetric(n, 2)
    growth = e1 * e1 - e2 * 4
    if a1 != growth * b1:
        raise AssertionError("expansion (x1-x2)^(2m+3) = (e1^2-4e2)(x1-x2)^(2m+1) failed")
    zero = MultiPoly.zero(n)
    matrix = ((one, zero), (zero, growth))
    determinant = matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    if determinant != vandermonde(n) ** 2:
        raise AssertionError("determinant is not the squared Vandermonde")
    return matrix, determinant


def delta_sq_chain_check(n: int, m: int, max_degree: int = 4) -> dict:
    """Sampled verification that Delta^2 QI_m sits inside QI_(m+1) and
    QI_(m+1) inside QI_m, over oracle witnesses."""
    report = {"n": n, "m": m, "max_degree": max_degree, "embedded": 0,
              "chained": 0, "failures": []}
    for d in range(max_degree + 1):
        for p in graded_dimension_oracle(n, m, d).basis:
            try:
                delta_sq_embed(p, m)
                report["embedded"] += 1
            except AssertionError:
                report["failures"].append(("embed", d))
        for p in graded_dimension_oracle(n, m + 1, d).basis:
            report["chained"] += 1
            if not is_quasiinvariant(p, m):
                report["failures"].append(("chain", d))
    report["passed"] = not report["failures"]
    return report
