"""Named verification suites aggregating the executable identities.

Each suite is a generator of (name, passed, detail) triples, the same for
the same flags, and draws no random input; the CLI renders them one line
per check.  A suite checks all of its limits first and then does a bare
``yield``, before any work and before its first line.  Each suite imports
the layers it checks when it runs, so a ``verify`` command loads only the
modules of its suite.  ``cmd_verify``, the command's handler, renders the
lines.
"""

from __future__ import annotations

from . import SUITES

# gamma(t), the factorization line and the alpha products build elements
# of up to n! terms: on a 2-vCPU Xeon VM with Python 3.11, n = 6 takes
# 0.3 s, and n = 7 (with this cap raised) took 4.9 s.
GROUPALGEBRA_MAX_N = 6

# The hook and lm suites build every Q^(k,m) of the hook [n-1, 1] with
# q_integral and then expand, shift and differentiate each one, so their
# work grows with the term bound of ``basis`` times n + m.  On a 2-vCPU Xeon
# VM with Python 3.11, at (n + m) basis_term_bound(n, m) of about 245,000
# the slower of the two, ``hook``, takes 2.2-2.5 s at both n = 5, m = 5 and
# n = 7, m = 2 in a fresh process; n = 5, m = 6 (505,582) once took 9.3 s,
# and n = 3, m = 63 (1.6 M, though its term bound 24,512 is below that of
# n = 5, m = 5) once took 30 s.
HOOK_SUITE_MAX_WORK = 250_000


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
    from .quasi import _refuse_above_cap, graded_dimension_oracle, poly_rank
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
    if n <= 5:
        # the rank-sum line reads the oracle through degree 3
        _refuse_above_cap(3)
    yield

    # the n rotations of 1..n and the reverse (a rotation when n = 2)
    rotations = [tuple(range(k, n + 1)) + tuple(range(1, k)) for k in range(1, n + 1)]
    orderings = list(dict.fromkeys(rotations + [tuple(range(n, 0, -1))]))
    one = GroupAlgebraElem.identity(n)
    ok = all(
        times_brackets(one, [(order, signed)]) == bracket(n, range(1, n + 1), signed)
        for order in orderings
        for signed in (False, True)
    )
    yield ("Bracket factorization [S_n] product", ok,
           f"n={n}, {len(orderings)} orderings, both signs")

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
        # every product here is a right product by brackets (g g, alpha g,
        # [C_i + cell]' P(T) and (1 - alpha) [C_i]'), run on their
        # telescoping factors unexpanded
        rows = [(row, False) for row in t.rows]
        g = gamma(t)
        if gamma_apply(t, x_delta) != g.apply(x_delta):
            agree = False
        if _times_gamma(g, t) != g:
            ok = False
        for i, cell in _column_cells(t):
            checked += 1
            union = col_union_antisym(t, i, cell)
            if not times_brackets(union, rows).is_zero():
                ok = False
            a = alpha(t, i, cell)
            if _times_gamma(a, t) != g:
                ok = False
            # (1 - alpha) [C_i]' = [C_i union {cell}]'
            if times_brackets(one - a, [(t.columns[i - 1], True)]) != union:
                ok = False
    yield ("Zero-product / alpha-invariance / gamma idempotence", ok,
           f"n={n}, {len(tableaux)} tableaux, {checked} (column, cell) pairs")
    yield ("Factored and expanded gamma_T agree", agree,
           f"n={n}, {len(tableaux)} tableaux")

    if n <= 5:
        # each tableau projects the eight bases in one list; the ranks are
        # summed over the tableaux per (m, d)
        bases = [graded_dimension_oracle(n, m, d).basis for m in (0, 1) for d in range(4)]
        stacked = [p for basis in bases for p in basis]
        totals = [0] * len(bases)
        for t in tableaux:
            images = iter(gamma_images(t, stacked))
            for k, basis in enumerate(bases):
                totals[k] += poly_rank([next(images) for _ in basis])
        ok = all(total == len(basis) for total, basis in zip(totals, bases))
        yield ("Projector rank-sum decomposition", ok,
               f"n={n}, m in {{0,1}}, degrees 0..3")


def suite_thm_main(n: int, m: int):
    from .quasi import _refuse_oracle_n
    from .structure import theorem_main_checks

    _refuse_oracle_n(n)
    yield
    report = theorem_main_checks(n, m)
    detail = (
        f"n={n}, m={m}, {report['checked_dims']} degrees, "
        f"{report['checked_b']} component members"
    )
    yield ("Direct-sum characterization of QI_m", report["passed"], detail)


def _refuse_large_hook_grid(n: int, m: int):
    from .exactalg import ResourceGuardError
    from .hookbasis import basis_term_bound

    work = (n + m) * basis_term_bound(n, m)
    if work > HOOK_SUITE_MAX_WORK:
        raise ResourceGuardError(
            f"hook and lm suites limited to (n + m) * term bound <= "
            f"{HOOK_SUITE_MAX_WORK}, got {work} for n={n}, m={m}")


def _hook_grid(n: int, m: int):
    """Every basis element spec of the hook shape [n-1, 1]: all j and k,
    refused before any element is built when the work bound is exceeded."""
    from .hookbasis import HookSpec

    _refuse_large_hook_grid(n, m)
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
    from .predicate import is_quasiinvariant
    from .tableaux import _projection_plan, gamma_component_verdicts, hook_tableau

    grid = _hook_grid(n, m)
    # the projector guard of the shape; the plan is cached for the j = 2 line
    _projection_plan(hook_tableau(n, 2))
    yield
    ok = all(q_integral(s) == q_closed_form(s) for s in grid)
    yield ("Dual construction equality (integral vs closed form)", ok,
           f"grid {len(grid)} specs")

    ok = True
    for j in range(2, n + 1):
        # the k = 0..n-2 elements of one tableau are projected in one run
        specs = [s for s in grid if s.j == j]
        qs = [q_integral(s) for s in specs]
        if not all(gamma_component_verdicts(hook_tableau(n, j), qs, m)):
            ok = False
        for s, q in zip(specs, qs):
            if not is_quasiinvariant(q, m):
                ok = False
            if not (q.is_homogeneous() and q.degree() == m * n + s.k + 1):
                ok = False
    yield ("Membership and degree of hook basis elements", ok, f"grid {len(grid)} specs")

    if m >= 1:
        ok = all(recursion_residual(s).is_zero() for s in grid)
        yield ("Elementary-symmetric recursion", ok, f"grid {len(grid)} specs")

    try:
        ok = all(lowest_quotient(s) == lowest_quotient_rhs(s) for s in grid)
    except TheoremViolationError:
        ok = False
    yield ("Limit formula at x_1 = x_j", ok, f"grid {len(grid)} specs")


def suite_lm(n: int, m: int):
    from .calogero import NonPolynomialError, apply_lm, lm_eigen_check
    from .exactalg import MultiPoly, elementary_symmetric

    grid = _hook_grid(n, m)
    yield
    try:
        ok = all(lm_eigen_check(s).is_zero() for s in grid)
        detail = f"grid {(n - 1)}x{(n - 1)}"
    except NonPolynomialError as exc:
        ok, detail = False, f"NonPolynomial: {exc}"
    yield ("Second-differentiation eigen-identity", ok, detail)

    one = MultiPoly.constant(n, 1)
    e1 = elementary_symmetric(n, 1)
    ok = apply_lm(one, m).is_zero() and apply_lm(e1, m).is_zero()
    yield ("Operator annihilates degree <= 1", ok, f"n={n}, m={m}")


def suite_chain(n: int, m: int):
    from .exactalg import TheoremViolationError
    from .quasi import (_refuse_above_cap, _refuse_oracle_n, change_of_basis_n2,
                        delta_sq_chain_check)
    from .structure import det_degree

    # the n = 2 basis reaches degree 2m+3, past the chain's min(4, mn + 1)
    _refuse_oracle_n(n)
    _refuse_above_cap(2 * m + 3)
    yield
    report = delta_sq_chain_check(n, m, max_degree=min(4, m * n + 1))
    yield ("Delta^2 embedding and containment chain", report["passed"],
           f"n={n}, m={m}, {report['embedded']} embedded, {report['chained']} chained")
    try:
        change_of_basis_n2(m)
        ok = True
    except TheoremViolationError:
        ok = False
    yield ("n=2 change-of-basis determinant", ok, f"m={m}")
    ok = True
    for size in range(1, 7):
        try:
            det_degree(size)
        except TheoremViolationError:
            ok = False
    yield ("Determinant degree formula", ok, "n <= 6")


_SUITES = {"groupalgebra": lambda n, m: suite_groupalgebra(n), "thm-main": suite_thm_main,
           "hook": suite_hook, "lm": suite_lm, "chain": suite_chain}


def run_suite(name: str, n: int, m: int):
    """The lines of one suite, or of every suite for ``all``.  Every suite
    asked for is advanced past its bare ``yield`` before any line is taken,
    so a request that one of them refuses does no work.  Below n = 2 some
    checks would run on nothing, and m < 0 names no ring, so such requests
    are refused."""
    if n < 2:
        raise ValueError(f"verify needs n >= 2, got {n}")
    if m < 0:
        raise ValueError(f"verify needs m >= 0, got {m}")
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    suites = [_SUITES[sub](n, m) for sub in (SUITES if name == "all" else (name,))]
    for suite in suites:
        next(suite)
    return [line for suite in suites for line in suite]


def cmd_verify(args):
    """``verify``: one line per check of the suite, and exit 1 on a FAIL."""
    results = run_suite(args.suite, args.n, args.m)
    lines = [f"suite={args.suite} n={args.n} m={args.m} seed={args.seed}"]
    for name, passed, detail in results:
        lines.append(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    failed = [name for name, passed, _ in results if not passed]
    lines.append(f"result: {len(results) - len(failed)}/{len(results)} passed")
    return "\n".join(lines) + "\n", 1 if failed else 0
