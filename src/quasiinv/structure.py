"""Hilbert-series assembly, the projection characterization of QI_m, and
the degree of the change-of-basis determinant.

The graded dimension generating function of QI_m is assembled per shape
from the exponents m(C(n,2) - content(shape)) + cocharge(T) and divided by
prod (1 - q^i).  The characterization check joins the oracle and the
quasiinvariance predicate with the Young projectors of ``tableaux``; it
imports ``quasi`` when it runs, so the series alone does not load it.
``theorem_main_checks`` checks the direct sum degree by degree: the bases
of gamma_T R_d intersect V_T^(2m+1) R over all standard T, read off
``quasi.poly_relations``, are quasiinvariant, and together they are
independent and dim QI_m,d in number.  The Sym-basis certificate, the n = 2
change of basis and the Delta^2 chain, which need no projector, are in
``quasi``; the membership test of one component, gamma_T R intersect
V_T^(2m+1) R, is in ``tableaux``.
"""

from __future__ import annotations

import math

from .exactalg import (
    MultiPoly,
    ResourceGuardError,
    TheoremViolationError,
    series_expand,
)
from .tableaux import (
    Tableau,
    cocharge,
    content,
    f_lambda,
    gamma_images,
    partitions_of,
    standard_tableaux,
    v_t,
)

HILBERT_MAX_N = 6

# The series' work and output grow linearly in D: at n = 6 on a 2-vCPU Xeon
# VM with Python 3.11, --D 10000 takes 0.23 s in a fresh process and prints
# 1.9 MB of JSON; --D 100000 took 1.6 s and 25 MB.
HILBERT_MAX_D = 10_000


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


def _refuse_hilbert(n: int, m: int, D: int):
    if n < 1:
        raise ValueError(f"hilbert needs n >= 1, got {n}")
    if n > HILBERT_MAX_N:
        raise ResourceGuardError(f"hilbert limited to n <= {HILBERT_MAX_N}, got {n}")
    if m < 0 or D < 0:
        raise ValueError("m and D must be non-negative")
    if D > HILBERT_MAX_D:
        raise ResourceGuardError(f"hilbert limited to D <= {HILBERT_MAX_D}, got {D}")


def full_hilbert(n: int, m: int, D: int) -> HilbertReport:
    """Assemble the graded dimension series of QI_m through q^D."""
    _refuse_hilbert(n, m, D)
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
