"""Hilbert-series assembly, the projection characterization of QI_m, the
hook quotient dimension, and the degree of the change-of-basis
determinant.

The graded dimension generating function of QI_m is assembled per shape
from the exponents m(C(n,2) - content(shape)) + cocharge(T) and divided by
prod (1 - q^i).  The characterization checks join the oracle and the
quasiinvariance predicate of ``quasi`` with the Young projectors of
``tableaux``; they import ``quasi`` when they run, so the series alone
does not load it.  Membership in V_T^(2m+1) R is tested one same-column
pair at a time, by ``exactalg.shift_coefficients``.
``theorem_main_checks`` checks the direct sum degree by degree: the bases
of gamma_T R_d intersect V_T^(2m+1) R over all standard T, read off
``quasi.poly_relations``, are quasiinvariant, and together they are
independent and dim QI_m,d in number.  The n = 2 change of basis itself
and the Delta^2 chain, which need no projector, are in ``quasi``.
"""

from __future__ import annotations

import math

from .exactalg import (
    MultiPoly,
    ResourceGuardError,
    TheoremViolationError,
    elementary_symmetric,
    series_expand,
    shift_coefficients,
)
from .tableaux import (
    Tableau,
    cocharge,
    content,
    f_lambda,
    gamma_apply,
    gamma_images,
    partitions_of,
    standard_tableaux,
    v_t,
)

HILBERT_MAX_N = 6


class HilbertReport:
    """The series of ``full_hilbert``: ``shape_exponents`` holds (parts,
    sorted exponent multiset) per shape, ``per_shape_series`` (parts,
    coefficients of q^0..q^D) per shape, and ``total`` the coefficients of
    q^0..q^D."""

    __slots__ = ("n", "m", "truncation", "shape_exponents", "per_shape_series",
                 "total")

    def __init__(self, n: int, m: int, truncation: int, shape_exponents: tuple,
                 per_shape_series: tuple, total: tuple):
        self.n, self.m, self.truncation = n, m, truncation
        self.shape_exponents = shape_exponents
        self.per_shape_series = per_shape_series
        self.total = total


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
        # each exponent counts f_lambda times, once per copy of the irreducible
        series = series_expand(exponents * f_lambda(shape), n, D)
        shape_exponents.append((shape.parts, tuple(exponents)))
        per_shape.append((shape.parts, series))
        total = [a + b for a, b in zip(total, series)]
    return HilbertReport(
        n=n,
        m=m,
        truncation=D,
        shape_exponents=tuple(shape_exponents),
        per_shape_series=tuple(per_shape),
        total=tuple(total),
    )


def in_gamma_component(p: MultiPoly, t: Tableau, m: int) -> bool:
    """Membership in gamma_T R intersect V_T^(2m+1) R."""
    if p.nvars != t.n:
        raise ValueError("size mismatch between polynomial and tableau")
    if p.is_zero():
        return True
    if gamma_apply(t, p) != p:
        return False
    return _in_vt_ideal(p, t, m)


def _in_vt_ideal(p: MultiPoly, t: Tableau, m: int) -> bool:
    """True iff V_T^(2m+1) divides p.

    The same-column differences x_below - x_above are distinct linear
    forms, hence pairwise coprime, so V_T^(2m+1) divides p exactly when
    each (x_below - x_above)^(2m+1) does: at x_below = x_above + u the
    coefficients of u^0..u^2m vanish.
    """
    return all(
        c.is_zero()
        for above, below in t.same_column_pairs()
        for c in shift_coefficients(p, below, above, 2 * m)
    )


def theorem_main_checks(n: int, m: int) -> dict:
    """Exact check of QI_m = (+)_T gamma_T R intersect V_T^(2m+1) R, over
    the standard tableaux T, in every degree d <= min(mn + 2, degree cap).

    For each T put V = V_T^(2m+1), of degree delta_T = (2m+1) deg V_T,
    read off ``v_t`` itself and built only when delta_T <= the top degree.
    V R meets R_d in V R_(d - delta_T), and gamma_T is idempotent, so its
    image is its fixed space: the degree-d piece of gamma_T R intersect V R
    has the basis B_d(T) read off the linear relations among
    (gamma_T - 1)(V x^e) over the x^e of degree d - delta_T (empty when
    d < delta_T).  Every member is checked m-quasiinvariant
    (``b:quasiinvariance``), so the union of the B_d(T) lies in QI_m,d.
    Once per degree the union must have dim QI_m,d members, read off the
    oracle, and that rank (``dimension``); then
    QI_m,d = (+)_T span B_d(T), the theorem in degree d.  Each B_d(T) is
    gamma_T-fixed, so it lies in gamma_T(QI_m,d); those dimensions sum to
    dim QI_m,d (the ``groupalgebra`` rank-sum line), so
    span B_d(T) = gamma_T(QI_m,d) for each T as well.
    """
    from .quasi import (
        degree_cap,
        graded_dimension_oracle,
        is_quasiinvariant,
        monomials_of_degree,
        poly_rank,
        poly_relations,
    )

    max_degree = min(degree_cap(), m * n + 2)
    components = []
    for shape in partitions_of(n):
        for t in standard_tableaux(shape):
            vt = v_t(t)
            delta = (2 * m + 1) * vt.degree()
            vt_pow = vt ** (2 * m + 1) if delta <= max_degree else None
            components.append((t, vt_pow, delta))
    report = {"n": n, "m": m, "checked_dims": 0, "checked_b": 0, "failures": []}
    for d in range(max_degree + 1):
        members = []
        for t, vt_pow, delta in components:
            if d < delta:
                continue
            monomials = monomials_of_degree(n, d - delta)
            multiples = [vt_pow * MultiPoly._from_int(n, {e: 1}) for e in monomials]
            moved = [g - p for g, p in zip(gamma_images(t, multiples), multiples)]
            for c in poly_relations(moved):
                g = MultiPoly._from_int(
                    n, {monomials[k]: v * moved[k].den for k, v in c.items()})
                members.append(vt_pow * g)
                if not is_quasiinvariant(members[-1], m):
                    report["failures"].append(("b:quasiinvariance", d, t.rows))
        report["checked_b"] += len(members)
        report["checked_dims"] += 1
        dim = graded_dimension_oracle(n, m, d).dimension
        if not len(members) == dim == poly_rank(members):
            report["failures"].append(("dimension", d, None))
    report["passed"] = not report["failures"]
    return report


def hook_quotient_dimension(n: int, m: int, d: int, t: Tableau) -> int:
    """Graded dimension of the gamma_T component of QI_m modulo the ideal
    generated by e_1..e_n, at degree d.

    Computed as rank gamma_T(QI_m)_d minus rank gamma_T(sum_i e_i
    (QI_m)_{d-i}); freeness over the symmetric functions makes the second
    span the ideal's degree-d piece.
    """
    from .quasi import graded_dimension_oracle, poly_rank

    top = poly_rank(gamma_images(t, graded_dimension_oracle(n, m, d).basis))
    ideal = []
    for i in range(1, min(n, d) + 1):
        e_i = elementary_symmetric(n, i)
        ideal.extend(e_i * b for b in graded_dimension_oracle(n, m, d - i).basis)
    return top - poly_rank(gamma_images(t, ideal))


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
        raise TheoremViolationError(f"degree formulas disagree: {by_shapes} != {closed}")
    return closed
