"""Named verification suites aggregating the executable identities.

Each suite returns a list of (name, passed, detail) triples, the same for
the same flags, and draws no random input; the CLI renders them one line
per check.  Each suite imports the layers it checks when it runs, so a
``verify`` command loads only the modules of its suite.
"""

from __future__ import annotations

from . import SUITES

# gamma(t), the factorization line and the alpha products expand elements
# of up to n! terms: on a 2-vCPU Xeon VM with Python 3.11, n = 6 takes
# 0.5-0.6 s, and n = 7 (with this cap raised) took 7.8-10.6 s.
GROUPALGEBRA_MAX_N = 6


def _all_standard(n):
    from .tableaux import partitions_of, standard_tableaux

    return [t for shape in partitions_of(n) for t in standard_tableaux(shape)]


def _column_cells(t):
    """Valid (i, (k, j)) argument pairs for the alpha construction."""
    return [(i, (k, j))
            for i in range(1, len(t.columns))
            for j, col in enumerate(t.columns[i:], start=i + 1)
            for k in range(1, len(col) + 1)]


def suite_groupalgebra(n: int):
    from .exactalg import MultiPoly, ResourceGuardError
    from .quasi import graded_dimension_oracle, poly_rank
    from .symgroup import GroupAlgebraElem, bracket, times_brackets
    from .tableaux import (
        _times_gamma,
        alpha,
        col_union_antisym,
        gamma,
        gamma_apply,
        gamma_images,
    )

    if n > GROUPALGEBRA_MAX_N:
        raise ResourceGuardError(
            f"groupalgebra limited to n <= {GROUPALGEBRA_MAX_N}, got {n}"
        )
    results = []

    # the n rotations of 1..n and the reverse (a rotation when n = 2)
    rotations = [tuple(range(k, n + 1)) + tuple(range(1, k)) for k in range(1, n + 1)]
    orderings = list(dict.fromkeys(rotations + [tuple(range(n, 0, -1))]))
    one = GroupAlgebraElem.identity(n)
    ok = all(
        times_brackets(one, [(order, signed)]) == bracket(n, range(1, n + 1), signed)
        for order in orderings
        for signed in (False, True)
    )
    results.append(("Bracket factorization [S_n] product", ok,
                    f"n={n}, {len(orderings)} orderings, both signs"))

    # x^delta = x_1^(n-1) x_2^(n-2) ... x_n^0 has n! distinct images, so an
    # element a of Q S_n is determined by a x^delta.  The factored gamma_T
    # (gamma_images) is the left action of the product of its factors, so
    # gamma_apply(t, x^delta) == gamma(t).apply(x^delta) proves the two forms
    # equal as operators on all of R.  The expanded form is a combination of
    # ring automorphisms, so equality also gives gamma_T(P Q) = P gamma_T(Q)
    # for every symmetric P.
    x_delta = MultiPoly(n, {tuple(range(n - 1, -1, -1)): 1})
    tableaux = _all_standard(n)
    checked = 0
    ok = agree = True
    for t in tableaux:
        # g g and [C_i + cell]' P(T) are right products by brackets, run on
        # their telescoping factors unexpanded
        rows = [(row, False) for row in t.rows]
        g = gamma(t)
        if gamma_apply(t, x_delta) != g.apply(x_delta):
            agree = False
        if _times_gamma(g, t) != g:
            ok = False
        for i, cell in _column_cells(t):
            checked += 1
            if not times_brackets(col_union_antisym(t, i, cell), rows).is_zero():
                ok = False
            a = alpha(t, i, cell)
            if a * g != g:
                ok = False
            # (1 - alpha) [C_i]' = [C_i union {cell}]'
            ci = bracket(n, t.columns[i - 1], signed=True)
            lhs = (one - a) * ci
            if lhs != col_union_antisym(t, i, cell):
                ok = False
    results.append(("Zero-product / alpha-invariance / gamma idempotence", ok,
                    f"n={n}, {len(tableaux)} tableaux, {checked} (column, cell) pairs"))
    results.append(("Factored and expanded gamma_T agree", agree,
                    f"n={n}, {len(tableaux)} tableaux"))

    if n <= 5:
        ok = True
        for m in (0, 1):
            for d in range(4):
                w = graded_dimension_oracle(n, m, d)
                total = sum(poly_rank(gamma_images(t, w.basis)) for t in tableaux)
                if total != w.dimension:
                    ok = False
        results.append(("Projector rank-sum decomposition", ok,
                        f"n={n}, m in {{0,1}}, degrees 0..3"))
    return results


def suite_thm_main(n: int, m: int):
    from .structure import theorem_main_checks

    report = theorem_main_checks(n, m)
    detail = (
        f"n={n}, m={m}, {report['checked_dims']} degrees, "
        f"{report['checked_b']} component members"
    )
    return [("Direct-sum characterization of QI_m", report["passed"], detail)]


def _hook_grid(n: int, m: int):
    """Every basis element spec of the hook shape [n-1, 1]: all j and k."""
    from .hookbasis import HookSpec

    return [HookSpec(n=n, m=m, j=j, k=k) for j in range(2, n + 1) for k in range(n - 1)]


def suite_hook(n: int, m: int):
    from .exactalg import TheoremViolationError
    from .hookbasis import (
        lowest_quotient,
        lowest_quotient_rhs,
        q_closed_form,
        q_integral,
        recursion_residual,
    )
    from .quasi import is_quasiinvariant
    from .structure import in_gamma_component
    from .tableaux import hook_tableau

    results = []
    grid = _hook_grid(n, m)
    ok = all(q_integral(s) == q_closed_form(s) for s in grid)
    results.append(("Dual construction equality (integral vs closed form)", ok,
                    f"grid {len(grid)} specs"))

    ok = True
    for s in grid:
        q = q_integral(s)
        t = hook_tableau(n, s.j)
        if not in_gamma_component(q, t, m):
            ok = False
        if not is_quasiinvariant(q, m):
            ok = False
        if not (q.is_homogeneous() and q.degree() == m * n + s.k + 1):
            ok = False
    results.append(("Membership and degree of hook basis elements", ok,
                    f"grid {len(grid)} specs"))

    if m >= 1:
        ok = all(recursion_residual(s).is_zero() for s in grid)
        results.append(("Elementary-symmetric recursion", ok, f"grid {len(grid)} specs"))

    try:
        ok = all(lowest_quotient(s) == lowest_quotient_rhs(s) for s in grid)
    except TheoremViolationError:
        ok = False
    results.append(("Limit formula at x_1 = x_j", ok, f"grid {len(grid)} specs"))
    return results


def suite_lm(n: int, m: int):
    from .calogero import NonPolynomialError, apply_lm, lm_eigen_check
    from .exactalg import MultiPoly, elementary_symmetric

    results = []
    grid = _hook_grid(n, m)
    try:
        ok = all(lm_eigen_check(s).is_zero() for s in grid)
        detail = f"grid {(n - 1)}x{(n - 1)}"
    except NonPolynomialError as exc:
        ok, detail = False, f"NonPolynomial: {exc}"
    results.append(("Second-differentiation eigen-identity", ok, detail))

    one = MultiPoly.constant(n, 1)
    e1 = elementary_symmetric(n, 1)
    ok = apply_lm(one, m).is_zero() and apply_lm(e1, m).is_zero()
    results.append(("Operator annihilates degree <= 1", ok, f"n={n}, m={m}"))
    return results


def suite_chain(n: int, m: int):
    from .exactalg import TheoremViolationError
    from .quasi import change_of_basis_n2, delta_sq_chain_check
    from .structure import det_degree

    results = []
    report = delta_sq_chain_check(n, m, max_degree=min(4, m * n + 1))
    results.append(("Delta^2 embedding and containment chain", report["passed"],
                    f"n={n}, m={m}, {report['embedded']} embedded, "
                    f"{report['chained']} chained"))
    try:
        change_of_basis_n2(m)
        ok = True
    except TheoremViolationError:
        ok = False
    results.append(("n=2 change-of-basis determinant", ok, f"m={m}"))
    ok = True
    for size in range(1, 7):
        try:
            det_degree(size)
        except TheoremViolationError:
            ok = False
    results.append(("Determinant degree formula", ok, "n <= 6"))
    return results


def run_suite(name: str, n: int, m: int):
    """Run one suite, or every suite for ``all``.  Below n = 2 some checks
    would run on nothing, and m < 0 names no ring, so such requests are
    refused."""
    if n < 2:
        raise ValueError(f"verify needs n >= 2, got {n}")
    if m < 0:
        raise ValueError(f"verify needs m >= 0, got {m}")
    if name == "groupalgebra":
        return suite_groupalgebra(n)
    if name == "thm-main":
        return suite_thm_main(n, m)
    if name == "hook":
        return suite_hook(n, m)
    if name == "lm":
        return suite_lm(n, m)
    if name == "chain":
        return suite_chain(n, m)
    if name == "all":
        from .exactalg import ResourceGuardError
        from .quasi import ORACLE_MAX_N

        # every suite's limit on n, checked before any suite runs
        for what, cap in (("groupalgebra", GROUPALGEBRA_MAX_N), ("oracle", ORACLE_MAX_N)):
            if n > cap:
                raise ResourceGuardError(f"{what} limited to n <= {cap}, got {n}")
        out = []
        for sub in SUITES:
            out.extend(run_suite(sub, n, m))
        return out
    raise ValueError(f"unknown suite {name!r}")
