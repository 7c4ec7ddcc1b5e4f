"""End-to-end acceptance gate.

Nine exact criteria, one test each, every one printing a single
"criterion: PASS/FAIL" line.  All comparisons are zero-tolerance equality
of rational polynomials or integer dimensions.
"""

import subprocess
import sys
from pathlib import Path

import quasiinv
from quasiinv.calogero import lm_eigen_check
from quasiinv.exactalg import vandermonde
from quasiinv.hookbasis import (
    HookSpec,
    lowest_quotient,
    lowest_quotient_rhs,
    q_closed_form,
    q_integral,
    recursion_residual,
)
from quasiinv.predicate import is_quasiinvariant
from quasiinv.quasi import graded_dimension_oracle
from quasiinv.structure import det_degree, full_hilbert
from quasiinv.symbasis import change_of_basis_n2, delta_sq_chain_check, is_sym_basis
from quasiinv.tableaux import gamma, hook_tableau, in_gamma_component, v_t
from quasiinv.verify import run_suite
from quasiinv.young import Partition, f_lambda
from reference import divide_exact, paper_basis


def report(name: str, passed: bool, detail: str = ""):
    line = f"{name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def full_grid():
    for n in (2, 3, 4):
        for m in (0, 1, 2):
            for j in range(2, n + 1):
                for k in range(n - 1):
                    yield HookSpec(n=n, m=m, j=j, k=k)


def test_a1_dual_construction_equality():
    failures = [
        spec for spec in full_grid() if q_closed_form(spec) != q_integral(spec)
    ]
    report("A1 dual-construction equality", not failures,
           f"{sum(1 for _ in full_grid())} grid points")


def test_a2_membership():
    failures = []
    for spec in full_grid():
        q = q_integral(spec)
        t = hook_tableau(spec.n, spec.j)
        ok = (
            gamma(t).apply(q) == q
            and divide_exact(q, v_t(t) ** (2 * spec.m + 1)) is not None
            and is_quasiinvariant(q, spec.m)
        )
        if not ok:
            failures.append(spec)
    report("A2 projection membership and divisibility", not failures,
           f"{sum(1 for _ in full_grid())} grid points")


def test_a3_eigen_identity():
    failures = [spec for spec in full_grid()
                if not lm_eigen_check(spec).is_zero()]
    report("A3 second-order eigen-identity", not failures,
           "includes k in {0,1} zero cases")


def test_a4_recursion():
    grid = [spec for spec in full_grid() if spec.m in (1, 2)]
    failures = [spec for spec in grid
                if not recursion_residual(spec).is_zero()]
    report("A4 elementary-symmetric recursion", not failures,
           f"{len(grid)} grid points, m in {{1,2}}")


def test_a5_limit_formula():
    failures = [spec for spec in full_grid()
                if lowest_quotient(spec) != lowest_quotient_rhs(spec)]
    report("A5 limit formula at x_1 = x_j", not failures,
           f"{sum(1 for _ in full_grid())} grid points")


def test_a6_hilbert_oracle_agreement():
    failures = []
    grid = ((2, range(4), 12), (3, range(3), 10), (4, range(3), 12), (5, (1,), 6))
    for n, ms, d_max in grid:
        for m in ms:
            series = full_hilbert(n, m, d_max)
            for d in range(d_max + 1):
                oracle = graded_dimension_oracle(n, m, d).dimension
                if oracle != series.total[d]:
                    failures.append((n, m, d, oracle, series.total[d]))
    # the paper's bases are Sym-bases of QI_m, so the series holds in every
    # degree; each generator lies in its tableau's component, and their
    # degrees are the formula's exponents, each counted f_lambda times
    for n, m_max in ((2, 3), (3, 4)):
        for m in range(m_max + 1):
            pairs = paper_basis(n, m)
            exponents = sorted(e for parts, row in full_hilbert(n, m, 0).shape_exponents
                               for e in row * f_lambda(Partition(parts)))
            if not is_sym_basis([g for _, g in pairs], m):
                failures.append((n, m, "Sym-basis"))
            if not all(in_gamma_component(g, t, m) for t, g in pairs):
                failures.append((n, m, "component"))
            if sorted(g.degree() for _, g in pairs) != exponents:
                failures.append((n, m, "degrees"))
    report("A6 graded dimensions match series; the paper's bases are Sym-bases",
           not failures,
           str(failures[:3]) if failures else "oracle grid n <= 5, Sym-bases n <= 3")


def test_a7_group_algebra_suite():
    results = []
    for n in (2, 3, 4, 5):
        for name, ok, detail in run_suite("groupalgebra", n, 0):
            results.append((n, name, ok, detail))
    failures = [(n, name) for n, name, ok, _ in results if not ok]
    # every line runs at n = 5, the projector rank-sum included
    if sum(1 for n, *_ in results if n == 5) != 4:
        failures.append((5, "line count"))
    report("A7 group-algebra identities", not failures,
           f"{len(results)} checks, n up to 5")


def test_a8_embedding_and_determinant():
    failures = []
    for n in (2, 3):
        for m in (0, 1, 2):
            chain = delta_sq_chain_check(n, m, max_degree=3)
            if not chain["passed"]:
                failures.append((n, m, chain["failures"][:2]))
            for j in range(2, n + 1):
                for k in range(n - 1):
                    q = q_integral(HookSpec(n=n, m=m, j=j, k=k))
                    lifted = q * vandermonde(n) ** 2
                    if not is_quasiinvariant(lifted, m + 1):
                        failures.append((n, m, j, k))
    for m in range(5):
        _, determinant = change_of_basis_n2(m)
        if determinant != vandermonde(2) ** 2:
            failures.append(("det", m))
    for n in range(2, 7):
        det_degree(n)  # raises on two-way mismatch
    report("A8 squared-Vandermonde embedding and determinant", not failures,
           str(failures[:3]) if failures else "witnesses, hooks, m <= 4, n <= 6")


def test_a9_determinism(tmp_path):
    outputs = []
    for name in ("run1.txt", "run2.txt"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "quasiinv", "verify", "--suite", "all",
             "--n", "3", "--m", "1", "--seed", "42", "--out", str(path)],
            capture_output=True, cwd=Path(quasiinv.__file__).parents[1],
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(path.read_bytes())
    report("A9 byte-identical verification reports", outputs[0] == outputs[1],
           f"{len(outputs[0])} bytes each")
