"""The Young projector gamma_T of a standard tableau, the column
polynomial V_T, the hook tableaux, and the auxiliary group-algebra elements
built from a column plus one cell to its right.  Partitions, tableaux and
their statistics are in ``young``; the Hilbert series reads those alone,
so it does not load this module.

gamma_T = f_lambda [C_1]' ... [C_k]' [R_1] ... [R_l] / n! is written once,
as two bracket groups, the columns and the rows, each with its
telescoping factors (``_projection_plan``), and the transposition kernel
of ``brackets`` runs them on integer coefficients with the rational scale
applied once: forward on image tuples for ``gamma`` and ``_times_gamma``
(elements of Q S_n), and reversed on exponent tuples for
``gamma_images``, the path every projection of a polynomial in the
package takes.  Before each group the kernel folds the map onto that
group's classes (keys sorted within each column, with the sign of the
sort, or within each row), so only the representatives are expanded.
``gamma_images`` projects a whole list of polynomials in one kernel run:
the numerators of all of them are stacked in one map, each exponent tuple
carrying its polynomial's index as an extra slot, and folded onto the row
classes once, on which gamma_T agrees; the distinct folded maps run the
rows' factors and then the columns group.  ``gamma_apply`` is its
one-item case.

Projecting polynomials needs no group algebra: the plan and
``gamma_images`` run on ``exactalg`` and ``brackets`` alone.  Only the
functions that build elements of Q S_n (``gamma``, ``_times_gamma``,
``alpha`` and ``col_union_antisym``) import ``symgroup``, when they run,
so ``apply --op gamma`` and the ``thm-main`` and ``hook`` suites do not
load it.

Membership in one component of the characterization, gamma_T R intersect
V_T^(2m+1) R, is tested here too (``gamma_component_verdicts``): a
polynomial is in when gamma_T fixes it and each same-column difference
(x_below - x_above)^(2m+1) divides it, read off
``exactalg.shift_coefficients``.

Cells are (row, column), 1-based, as in ``young``.
"""

from __future__ import annotations

import functools
import math

from .brackets import MAX_GROUP_N, _apply_brackets, _apply_factors, _bracket_group, _fold
from .exactalg import (
    DimensionMismatch,
    MultiPoly,
    ResourceGuardError,
    shift_coefficients,
)
from .young import Tableau


@functools.cache
def _projection_plan(t: Tableau):
    """gamma_T's brackets as two groups for ``_apply_brackets``, first group
    first: the columns [C_1]' ... [C_k]' and the rows [R_1] ... [R_l], each
    with its telescoping factors (a group of one-cell supports only is left
    out), with f_lambda and n!; derived on first use by ``t`` and then
    reused.  Its cost per input term grows with
    |R(T)| |C(T)| = prod lambda_i! prod lambda'_j!, which is refused above
    MAX_GROUP_N!, the largest it reaches at n <= MAX_GROUP_N."""
    if not t.standard:
        raise ValueError("gamma requires a standard tableau")
    cost = math.prod(math.factorial(len(s)) for s in t.rows + t.columns)
    bound = math.factorial(MAX_GROUP_N)
    if cost > bound:
        raise ResourceGuardError(f"gamma limited to |R(T)| |C(T)| <= {bound}, got {cost}")
    groups = (_bracket_group(t.columns, True), _bracket_group(t.rows, False))
    return (tuple(group for group in groups if group[2]),
            t.shape.hook_length_count(), math.factorial(t.n))


def _times_gamma(x: GroupAlgebraElem, t: Tableau) -> GroupAlgebraElem:
    """x gamma_T: the plan's groups run forward on x's numerators as right
    products (a transposition swaps two slots of each image tuple), and
    f_lambda / n! is applied once at the end."""
    from .symgroup import GroupAlgebraElem

    groups, f, n_factorial = _projection_plan(t)
    q = _apply_brackets(x.num, groups)
    return GroupAlgebraElem._from_int(t.n, {k: c * f for k, c in q.items()},
                                      n_factorial * x.den)


def gamma(t: Tableau) -> GroupAlgebraElem:
    """The Young projector f_lambda N(T) P(T) / n! (an idempotent)."""
    from .symgroup import GroupAlgebraElem

    return _times_gamma(GroupAlgebraElem.identity(t.n), t)


def gamma_images(t: Tableau, polys) -> list:
    """[gamma_T p for p in polys], in one run of the plan.  The action is a
    left action, so the plan's groups run reversed on integer numerators:
    the rows P(T) = [R_1] ... [R_l], then the columns [C_1]' ... [C_k]'.

    Row classes.  P(T) is the sum over R(T) = S_(R_1) x ... x S_(R_l), so
    P(T) sigma = P(T) for sigma in R(T), and gamma_T x^e depends only on e
    sorted within each row of T.  Every polynomial's numerators are stacked
    in one map, each exponent tuple carrying the polynomial's index as one
    more slot that no transposition touches, and the stack is folded onto
    the row classes once (``_fold``).  Split per polynomial, folded maps
    that agree (repeats, row permutations of one another, or the same
    numerators over other denominators) are projected once: the distinct
    maps are stacked again, each by its own index, the rows' telescoping
    factors run on them directly (``_apply_factors``: they are folded
    already), and then the columns group (``_apply_brackets``).  Each
    polynomial takes its map's image over its own denominator, built once
    per map and denominator."""
    groups, f, n_factorial = _projection_plan(t)
    polys = list(polys)
    if any(p.nvars != t.n for p in polys):
        raise DimensionMismatch("polynomial nvars mismatch")
    stacked = {e + (i,): c for i, p in enumerate(polys) for e, c in p.num.items()}
    folded = [{} for _ in polys]
    for e, c in _fold(stacked, t.rows, False).items():
        folded[e[-1]][e[:-1]] = c
    classes = {}
    owners = [classes.setdefault(frozenset(q.items()), len(classes)) for q in folded]
    q = {e + (k,): c for key, k in classes.items() for e, c in key}
    # the rows' factors run alone: the stack is folded by the rows already
    for group in groups[::-1]:
        _, signed, factors = group
        if signed:
            q = _apply_brackets(q, [group])
        elif q:
            q = _apply_factors(q, factors, 1)
    split = [{} for _ in classes]
    for e, c in q.items():
        split[e[-1]][e[:-1]] = c * f
    images = {}
    for k, p in zip(owners, polys):
        if (k, p.den) not in images:
            images[k, p.den] = MultiPoly._from_int(t.n, split[k], n_factorial * p.den)
    return [images[k, p.den] for k, p in zip(owners, polys)]


def gamma_apply(t: Tableau, p: MultiPoly) -> MultiPoly:
    """gamma_T p, equal to gamma(t).apply(p) without expanding gamma_T."""
    return gamma_images(t, [p])[0]


def v_t(t: Tableau) -> MultiPoly:
    """Product of (x_below - x_above) over same-column pairs.

    For a hook tableau with second-row entry j this is x_j - x_1.
    """
    n = t.n
    result = MultiPoly.constant(n, 1)
    for above, below in t.same_column_pairs():
        result = result * (MultiPoly.variable(n, below) - MultiPoly.variable(n, above))
    return result


def in_gamma_component(p: MultiPoly, t: Tableau, m: int) -> bool:
    """Membership in gamma_T R intersect V_T^(2m+1) R."""
    return gamma_component_verdicts(t, [p], m)[0]


def gamma_component_verdicts(t: Tableau, polys, m: int) -> list:
    """[in_gamma_component(p, t, m) for p in polys]: the nonzero members
    are projected in one ``gamma_images`` run, and a member is in when
    gamma_T fixes it and V_T^(2m+1) divides it."""
    if m < 0:
        raise ValueError("m must be non-negative")
    polys = list(polys)
    if any(p.nvars != t.n for p in polys):
        raise ValueError("size mismatch between polynomial and tableau")
    nonzero = [p for p in polys if not p.is_zero()]
    images = iter(gamma_images(t, nonzero) if nonzero else ())
    return [p.is_zero() or (next(images) == p and _in_vt_ideal(p, t, m))
            for p in polys]


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


def _check_column_cell(t: Tableau, i: int, cell):
    k, j = cell
    if not 1 <= i < j <= len(t.columns):
        raise ValueError(f"need columns i < j within the diagram, got i={i}, j={j}")
    col_j = t.columns[j - 1]
    if not 1 <= k <= len(col_j):
        raise ValueError(f"cell ({k},{j}) not in the tableau")
    return col_j[k - 1]


def alpha(t: Tableau, i: int, cell) -> GroupAlgebraElem:
    """Sum of transpositions (entry of column i, entry at ``cell``)."""
    from .symgroup import GroupAlgebraElem, Perm

    target = _check_column_cell(t, i, cell)
    terms = {Perm.transposition(t.n, source, target).images: 1
             for source in t.columns[i - 1]}
    return GroupAlgebraElem._from_int(t.n, terms)


def col_union_antisym(t: Tableau, i: int, cell) -> GroupAlgebraElem:
    """[C_i union {entry at cell}]', the signed bracket over the enlarged set."""
    from .symgroup import bracket

    target = _check_column_cell(t, i, cell)
    return bracket(t.n, t.columns[i - 1] + (target,), signed=True)


def hook_tableau(n: int, j: int) -> Tableau:
    """The standard tableau of shape [n-1, 1] with second-row entry j."""
    if n < 2 or not 2 <= j <= n:
        raise ValueError(f"hook tableau needs n >= 2 and 2 <= j <= n, got n={n}, j={j}")
    first = tuple(v for v in range(1, n + 1) if v != j)
    return Tableau([first, (j,)])
