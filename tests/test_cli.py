"""Command-line behavior: every subcommand, exit codes, guard errors,
JSON round-trips, and byte-identical deterministic output."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quasiinv
from quasiinv import SUITES, jsonio
from quasiinv.cli import main
from quasiinv.exactalg import MultiPoly
from quasiinv.hookbasis import HookSpec, q_closed_form

import reference


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_poly(tmp_path, p, name="p.json"):
    path = tmp_path / name
    path.write_text(jsonio.dumps(jsonio.poly_to_obj(p)))
    return str(path)


def assert_one_line_error(code, out, err, text):
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and text in err


def forbid_work(monkeypatch):
    """Make every exact elimination, every projection or group-algebra
    product on the transposition kernel, every hook basis element and every
    Hilbert series expansion raise, so that a refusal shows it came before
    any work."""
    from quasiinv import hookbasis, quasi, structure, symgroup, tableaux

    def ran(*args):
        raise AssertionError("work began before the guard")

    for module, name in ((quasi, "integer_nullspace"), (tableaux, "_apply_brackets"),
                         (symgroup, "_apply_brackets"), (hookbasis, "_q_integral"),
                         (hookbasis, "_integrand_product"), (structure, "series_expand")):
        monkeypatch.setattr(module, name, ran)


class TestBasis:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "basis", "--n", "3", "--m", "1", "--j", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["degrees"] == [4, 5]
        got = [jsonio.poly_from_obj(o) for o in obj["basis"]]
        # the CLI builds the basis by integration; the closed form is the
        # independent construction
        assert got == [q_closed_form(HookSpec(n=3, m=1, j=2, k=k)) for k in range(2)]

    def test_text_verify(self, capsys):
        code, out, _ = run(capsys, "basis", "--n", "3", "--m", "1", "--j", "3",
                           "--verify", "--format", "text")
        assert code == 0
        assert "PASS" in out

    def test_bad_j(self, capsys):
        code, _, err = run(capsys, "basis", "--n", "3", "--m", "1", "--j", "5")
        assert code == 2
        assert "outside 2..3" in err

    def test_guard_exits_2(self, capsys):
        # this request used to run 21 s and print 64 MB of JSON
        assert_one_line_error(*run(capsys, "basis", "--n", "16", "--m", "1", "--j", "2"),
                              "basis limited to 500000 bounded terms, got 6144000")

    def test_identity_failure_exits_1(self, capsys, monkeypatch):
        from quasiinv import hookbasis

        monkeypatch.setattr(hookbasis, "q_closed_form",
                            lambda spec: MultiPoly.zero(spec.n))
        code, out, err = run(capsys, "basis", "--n", "3", "--m", "1", "--j", "2",
                             "--verify")
        assert code == 1
        assert out == ""
        assert err == ("identity failure: dual constructions disagree for "
                       "HookSpec(n=3, m=1, j=2, k=0)\n")


class TestVerify:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "hook", "--n", "3",
                           "--m", "1", "--seed", "5")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().splitlines()[-1].startswith("result:")

    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("a.txt", "b.txt"):
            path = tmp_path / name
            code = main(["verify", "--suite", "all", "--n", "2", "--m", "1",
                         "--seed", "42", "--out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv, text", [
        (("--suite", "all", "--n", "1"), "n >= 2"),
        (("--suite", "hook", "--n", "0"), "n >= 2"),
    ], ids=["all-n1", "hook-n0"])
    def test_refuses_requests_that_check_nothing(self, capsys, argv, text):
        assert_one_line_error(*run(capsys, "verify", *argv), text)

    def test_samples_is_a_usage_error(self, capsys):
        # no suite draws random input, so there is no sample count to give
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "groupalgebra", "--n", "3", "--samples", "3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "quasiinv: error: unrecognized arguments: --samples 3\n")

    # n -> the number of standard tableaux of size n
    @pytest.mark.parametrize("n, count", [(3, 4), (4, 10), (5, 26)])
    def test_agreement_line_catches_the_other_symmetrizer(self, capsys,
                                                          monkeypatch, n, count):
        # the plan run forward on polynomials applies f_lambda P(T) N(T) / n!,
        # an idempotent of the same rank as gamma_T, so only the line that
        # compares the factored and expanded forms can tell them apart
        from quasiinv import tableaux

        def forward(t, p):
            groups, f, n_factorial = tableaux._projection_plan(t)
            num = tableaux._apply_brackets(p.num, groups)
            return MultiPoly._from_int(t.n, {e: c * f for e, c in num.items()},
                                       n_factorial * p.den)

        monkeypatch.setattr(tableaux, "gamma_apply", forward)
        code, out, _ = run(capsys, "verify", "--suite", "groupalgebra", "--n", str(n))
        assert code == 1
        assert [line for line in out.splitlines() if "FAIL" in line] == [
            f"Factored and expanded gamma_T agree: FAIL (n={n}, {count} tableaux)"]

    @staticmethod
    def _drop_first_factor(monkeypatch, group):
        """Make the plan skip the first telescoping factor of its ``group``-th
        bracket group (0: the columns, or the rows when every column has one
        cell; 1: the rows), where that group exists."""
        from quasiinv import tableaux

        plan = tableaux._projection_plan

        def short(t):
            groups, f, n_factorial = plan(t)
            if group < len(groups):
                supports, signed, factors = groups[group]
                groups = (*groups[:group], (supports, signed, factors[1:]),
                          *groups[group + 1:])
            return groups, f, n_factorial

        monkeypatch.setattr(tableaux, "_projection_plan", short)

    def test_dropped_plan_factor_fails_the_suite(self, capsys, monkeypatch):
        # gamma and gamma_images read one plan, but the fold runs before every
        # group, so gamma (columns first, on image tuples) and gamma_images
        # (rows first, on exponents) stop agreeing when a factor is missing;
        # a fold followed by a short expansion is still injective on the
        # column classes, so the rank sum cannot see a missing column factor
        self._drop_first_factor(monkeypatch, 0)
        code, out, _ = run(capsys, "verify", "--suite", "groupalgebra", "--n", "4")
        assert code == 1
        assert [line.split(":")[0] for line in out.splitlines() if "FAIL" in line] == [
            "Zero-product / alpha-invariance / gamma idempotence",
            "Factored and expanded gamma_T agree"]

    def test_dropped_row_factor_fails_the_suite(self, capsys, monkeypatch):
        self._drop_first_factor(monkeypatch, 1)
        code, out, _ = run(capsys, "verify", "--suite", "groupalgebra", "--n", "4")
        assert code == 1
        assert [line.split(":")[0] for line in out.splitlines() if "FAIL" in line] == [
            "Zero-product / alpha-invariance / gamma idempotence",
            "Factored and expanded gamma_T agree",
            "Projector rank-sum decomposition"]

    # n -> the standard tableaux of size n and their (column, cell) pairs
    @pytest.mark.parametrize("n, count, pairs", [(3, 4, 5), (4, 10, 22), (5, 26, 86)])
    def test_dropped_alpha_transposition_fails_the_suite(self, capsys, monkeypatch,
                                                         n, count, pairs):
        # alpha gamma_T = gamma_T and (1 - alpha) [C_i]' = [C_i + cell]' both
        # need every transposition of alpha; nothing else reads alpha
        from quasiinv import tableaux
        from quasiinv.symgroup import GroupAlgebraElem

        full = tableaux.alpha

        def short(t, i, cell):
            a = full(t, i, cell)
            kept = dict(sorted(a.num.items())[1:])
            return GroupAlgebraElem._from_int(a.n, kept, a.den)

        monkeypatch.setattr(tableaux, "alpha", short)
        code, out, _ = run(capsys, "verify", "--suite", "groupalgebra", "--n", str(n))
        assert code == 1
        assert [line for line in out.splitlines() if "FAIL" in line] == [
            "Zero-product / alpha-invariance / gamma idempotence: FAIL "
            f"(n={n}, {count} tableaux, {pairs} (column, cell) pairs)"]

    @pytest.mark.parametrize("suite", ["thm-main", "all"])
    def test_refuses_negative_m(self, capsys, suite):
        assert_one_line_error(*run(capsys, "verify", "--suite", suite, "--n", "3",
                                   "--m", "-1"), "m >= 0")


    @pytest.mark.parametrize("suite", ["groupalgebra", "all"])
    def test_groupalgebra_refuses_n_above_six(self, capsys, suite):
        # the expanded products have n! terms; n = 7 used to run for minutes
        assert_one_line_error(*run(capsys, "verify", "--suite", suite, "--n", "7"),
                              "groupalgebra limited to n <= 6, got 7")

    def test_identity_failure_exits_1(self, capsys, monkeypatch):
        # the hook suite imports its layers when it runs, so it reads the
        # patched function from hookbasis itself; the failed identity fails
        # its own line and the rest of the report is still printed
        from quasiinv import hookbasis
        from quasiinv.hookbasis import TheoremViolationError

        def fail(spec):
            raise TheoremViolationError(f"forced for {spec}")

        monkeypatch.setattr(hookbasis, "lowest_quotient", fail)
        code, out, err = run(capsys, "verify", "--suite", "hook", "--n", "2",
                             "--m", "0")
        assert code == 1
        assert err == ""
        assert out == (
            "suite=hook n=2 m=0 seed=0\n"
            "Dual construction equality (integral vs closed form): PASS (grid 1 specs)\n"
            "Membership and degree of hook basis elements: PASS (grid 1 specs)\n"
            "Limit formula at x_1 = x_j: FAIL (grid 1 specs)\n"
            "result: 2/3 passed\n")

    def test_chain_reports_a_failed_identity_as_a_line(self, capsys, monkeypatch):
        from quasiinv import quasi

        vandermonde = quasi.vandermonde
        monkeypatch.setattr(quasi, "vandermonde", lambda n: vandermonde(n) * 2)
        code, out, err = run(capsys, "verify", "--suite", "chain", "--n", "2",
                             "--m", "0")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert len(lines) == 5
        assert [line.split(": ")[1][:4] for line in lines[1:4]] == ["PASS", "FAIL", "PASS"]
        assert lines[2].startswith("n=2 change-of-basis determinant: FAIL")
        assert lines[4] == "result: 2/3 passed"

    def test_all_checks_every_limit_before_running(self, capsys, monkeypatch):
        # n = 6 is within the groupalgebra limit but above the oracle's, so
        # all refuses before the first suite runs
        forbid_work(monkeypatch)
        assert_one_line_error(*run(capsys, "verify", "--suite", "all", "--n", "6"),
                              "oracle limited to n <= 5, got 6")

    def test_all_checks_the_chain_degree_before_running(self, capsys, monkeypatch):
        # m = 5 takes the chain suite's n = 2 basis to degree 13, above the
        # default cap; at n = 5 the suites before it once ran for 10 s first
        forbid_work(monkeypatch)
        monkeypatch.delenv("QI_MAX_DEGREE", raising=False)
        assert_one_line_error(
            *run(capsys, "verify", "--suite", "all", "--n", "5", "--m", "5"),
            "degree 13 above cap 12 (set QI_MAX_DEGREE to raise)")

    @pytest.mark.parametrize("suite, n, m", [
        ("hook", 5, 6), ("lm", 5, 6), ("lm", 10, 1), ("hook", 3, 63), ("all", 5, 6)])
    def test_hook_and_lm_refuse_before_any_work(self, capsys, monkeypatch, suite, n, m):
        from quasiinv import hookbasis

        forbid_work(monkeypatch)
        work = (n + m) * hookbasis.basis_term_bound(n, m)
        assert_one_line_error(
            *run(capsys, "verify", "--suite", suite, "--n", str(n), "--m", str(m)),
            f"hook and lm suites limited to (n + m) * term bound <= 250000, got {work} "
            f"for n={n}, m={m}")

    @pytest.mark.parametrize("suite, n, m, text", [
        # once after the Delta^2 chain (2.9 s in a fresh process)
        ("chain", 5, 5, "degree 13 above cap 12 (set QI_MAX_DEGREE to raise)"),
        ("chain", 6, 1, "oracle limited to n <= 5, got 6"),
        # once after building and comparing every Q^(k,m) (0.6 s)
        ("hook", 9, 1, "gamma limited to |R(T)| |C(T)| <= 40320, got 80640"),
        ("thm-main", 6, 1, "oracle limited to n <= 5, got 6"),
    ])
    def test_single_suite_refuses_before_any_work(self, capsys, monkeypatch,
                                                   suite, n, m, text):
        forbid_work(monkeypatch)
        monkeypatch.delenv("QI_MAX_DEGREE", raising=False)
        assert_one_line_error(
            *run(capsys, "verify", "--suite", suite, "--n", str(n), "--m", str(m)), text)

    @pytest.mark.parametrize("suite, n, m", [
        # the rank-sum line reads the oracle through degree 3; groupalgebra
        # is first in all, so all names degree 3 before the chain's 2m + 3
        ("groupalgebra", 5, 0), ("groupalgebra", 3, 0), ("all", 3, 1), ("all", 3, 0)])
    def test_groupalgebra_checks_the_oracle_degree_before_running(
            self, capsys, monkeypatch, suite, n, m):
        forbid_work(monkeypatch)
        monkeypatch.setenv("QI_MAX_DEGREE", "2")
        assert_one_line_error(
            *run(capsys, "verify", "--suite", suite, "--n", str(n), "--m", str(m)),
            "degree 3 above cap 2 (set QI_MAX_DEGREE to raise)")

    def test_suites_admit_without_work_before_their_first_line(self, monkeypatch):
        # lm at n = 9 builds no projector, and hook at n = 8 is inside its
        # guard ([7,1] gives 10080); starting either does no work
        from quasiinv import verify

        forbid_work(monkeypatch)
        for suite in (verify.suite_lm(9, 1), verify.suite_hook(8, 1)):
            assert next(suite) is None

    def test_hook_and_lm_guard_admits(self, capsys):
        # the benchmark's requests, and the largest measured below the bound
        from quasiinv.verify import _refuse_large_hook_grid

        for n, m in ((5, 5), (7, 2), (9, 1), (3, 30)):
            _refuse_large_hook_grid(n, m)
        for suite in ("hook", "lm"):
            code, out, _ = run(capsys, "verify", "--suite", suite, "--n", "4", "--m", "2")
            assert code == 0 and out.endswith(" passed\n") and "FAIL" not in out

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus", "--n", "2"])
        assert exc.value.code == 2
        # later 3.12 and 3.13 releases print the choices without quotes
        assert capsys.readouterr().err.replace("'", "").endswith(
            "quasiinv verify: error: argument --suite: invalid choice: bogus "
            "(choose from groupalgebra, thm-main, hook, lm, chain, all)\n")

    @pytest.mark.parametrize("suite", SUITES + ("all",))
    def test_every_offered_suite_runs(self, capsys, suite):
        # the parser offers the names that run_suite dispatches on
        code, out, _ = run(capsys, "verify", "--suite", suite, "--n", "2", "--m", "0")
        assert code == 0
        assert out.startswith(f"suite={suite} n=2 m=0 seed=0\n")


class TestHilbert:
    def test_oracle_agreement(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--n", "2", "--m", "1",
                           "--D", "6", "--oracle")
        assert code == 0
        obj = json.loads(out)
        assert all(entry["match"] for entry in obj["oracle"])

    def test_guard(self, capsys):
        code, _, err = run(capsys, "hilbert", "--n", "9", "--m", "1", "--D", "4")
        assert code == 2
        assert "limited" in err

    @pytest.mark.parametrize("n", ["-2", "0"])
    def test_rejects_n_below_one(self, capsys, n):
        assert_one_line_error(*run(capsys, "hilbert", "--n", n, "--m", "1", "--D", "3"),
                              "n >= 1")

    @pytest.mark.parametrize("args", [
        # once 3.4 s and 84 MB of JSON
        ("--n", "6", "--m", "1", "--D", "300000"),
        ("--n", "1", "--m", "0", "--D", "10001"),
        ("--n", "3", "--m", "1", "--D", "10001", "--oracle"),
    ])
    def test_series_refuses_large_D_before_any_work(self, capsys, monkeypatch, args):
        from quasiinv.structure import _refuse_hilbert

        forbid_work(monkeypatch)
        code, out, err = run(capsys, "hilbert", *args)
        D = args[args.index("--D") + 1]
        assert_one_line_error(code, out, err, f"hilbert limited to D <= 10000, got {D}")
        _refuse_hilbert(6, 3, 10000)

    @pytest.mark.parametrize("n, m, D, text", [
        # once after computing degrees 0..12 (0.9 s)
        (5, 1, 13, "degree 13 above cap 12 (set QI_MAX_DEGREE to raise)"),
        (6, 1, 4, "oracle limited to n <= 5, got 6"),
        # the series' own limits speak first, as before
        (7, 1, 13, "hilbert limited to n <= 6, got 7"),
        (0, 1, 13, "hilbert needs n >= 1, got 0"),
        (3, -1, 13, "m and D must be non-negative"),
    ])
    def test_oracle_refuses_before_any_degree(self, capsys, monkeypatch, n, m, D, text):
        forbid_work(monkeypatch)
        monkeypatch.delenv("QI_MAX_DEGREE", raising=False)
        assert_one_line_error(*run(capsys, "hilbert", "--n", str(n), "--m", str(m),
                                   "--D", str(D), "--oracle"), text)


class TestApply:
    def test_perm(self, capsys, tmp_path):
        p = MultiPoly.variable(3, 1) ** 2
        path = write_poly(tmp_path, p)
        code, out, _ = run(capsys, "apply", "--op", "perm", "--in", path,
                           "--sigma", "(1,3)", "--format", "text")
        assert code == 0
        assert out.strip() == "x3^2"

    def test_gamma_hook(self, capsys, tmp_path):
        p = MultiPoly.variable(3, 1)
        path = write_poly(tmp_path, p)
        code, out, _ = run(capsys, "apply", "--op", "gamma", "--in", path,
                           "--shape", "2,1", "--j", "2")
        assert code == 0
        image = jsonio.poly_from_obj(json.loads(out))
        from quasiinv.tableaux import gamma, hook_tableau

        assert image == gamma(hook_tableau(3, 2)).apply(p)

    def test_gamma_non_hook(self, capsys, tmp_path):
        from quasiinv.tableaux import Tableau, gamma

        x = lambda i: MultiPoly.variable(5, i)
        p = (x(2) ** 2 * x(3) * x(5) * Fraction(3, 2) - x(4) * x(5) ** 3
             + x(1) * Fraction(-1, 3))
        path = write_poly(tmp_path, p)
        code, out, _ = run(capsys, "apply", "--op", "gamma", "--in", path,
                           "--tableau", "[[1,3],[2,4],[5]]")
        assert code == 0
        image = jsonio.poly_from_obj(json.loads(out))
        assert not image.is_zero()
        assert image == gamma(Tableau([[1, 3], [2, 4], [5]])).apply(p)

    def test_gamma_nine_variables_exits_2(self, capsys, tmp_path):
        path = write_poly(tmp_path, MultiPoly.variable(9, 1))
        assert_one_line_error(*run(capsys, "apply", "--op", "gamma", "--in", path,
                                   "--tableau", "[[1,2,3,4,5,6,7,8],[9]]"),
                              "gamma limited to |R(T)| |C(T)| <= 40320, got 80640")

    def test_gamma_nine_variables_within_bound(self, capsys, tmp_path):
        # shape [4, 3, 2]: |R(T)| |C(T)| = 4! 3! 2! 3! 3! 2! 1! = 20736
        from quasiinv.tableaux import Tableau, gamma

        p = MultiPoly(9, {(0, 0, 0, 0, 1, 1, 1, 2, 2): 3,
                          (0, 1, 0, 0, 1, 0, 1, 2, 2): Fraction(-1, 2)})
        path = write_poly(tmp_path, p)
        code, out, _ = run(capsys, "apply", "--op", "gamma", "--in", path,
                           "--tableau", "[[1,2,3,4],[5,6,7],[8,9]]")
        assert code == 0
        image = jsonio.poly_from_obj(json.loads(out))
        assert not image.is_zero()
        assert image == gamma(Tableau([[1, 2, 3, 4], [5, 6, 7], [8, 9]])).apply(p)

    def test_lm_non_polynomial_diagnostic(self, capsys, tmp_path):
        p = MultiPoly.variable(2, 1)
        path = write_poly(tmp_path, p)
        code, out, _ = run(capsys, "apply", "--op", "lm", "--in", path,
                           "--m", "1")
        assert code == 1
        obj = json.loads(out)
        assert obj["error"] == "NonPolynomial"

    def test_delta2(self, capsys, tmp_path):
        from quasiinv.exactalg import vandermonde

        p = MultiPoly.constant(2, 1)
        path = write_poly(tmp_path, p)
        code, out, _ = run(capsys, "apply", "--op", "delta2", "--in", path,
                           "--m", "0")
        assert code == 0
        assert jsonio.poly_from_obj(json.loads(out)) == vandermonde(2) ** 2

    @pytest.mark.parametrize("p, text", [
        (MultiPoly.variable(7, 3), "delta2 limited to nvars <= 6, got 7"),
        (MultiPoly(6, {(k, 4 - k, 0, 0, 0, i): 1 for k in range(5) for i in range(8)}),
         "delta2 limited to |Delta^2| |p| <= 100000 term pairs, got 2247320"),
    ], ids=["seven-variables", "six-variables-40-terms"])
    def test_delta2_guard_exits_2(self, capsys, tmp_path, p, text):
        # the 40-term input used to run 25.6 s; at 7 variables squaring the
        # Vandermonde alone took 32 s
        path = write_poly(tmp_path, p)
        assert_one_line_error(*run(capsys, "apply", "--op", "delta2", "--m", "0",
                                   "--in", path), text)

    def test_zero_denominator_exits_2(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"nvars": 2, "terms": [
            {"exp": [1, 0], "num": "1", "den": "0"}]}))
        code, out, err = run(capsys, "apply", "--op", "delta2", "--in", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "denominator 0" in err

    @pytest.mark.parametrize("argv, text", [
        (("--op", "gamma"), "--shape or --tableau"),
        (("--op", "perm"), "--sigma"),
        (("--op", "gamma", "--tableau", "5"), "tableau rows"),
        (("--op", "gamma", "--tableau", "[[1.5,2],[3]]"), "tableau rows"),
        (("--op", "gamma", "--shape", "2,1"), "needs --j"),
        (("--op", "gamma", "--shape", "2,1", "--j", "0"), "2 <= j <= n"),
        (("--op", "perm", "--sigma", "(1 2)"), "comma-separated integers"),
        (("--op", "perm", "--sigma", "()"), "comma-separated integers"),
    ], ids=["gamma-without-shape", "perm-without-sigma", "tableau-not-rows",
            "tableau-float-entry", "hook-without-j", "hook-j0", "sigma-space-in-entry",
            "sigma-empty-cycle"])
    def test_missing_or_malformed_option(self, capsys, tmp_path, argv, text):
        path = write_poly(tmp_path, MultiPoly.variable(3, 1))
        assert_one_line_error(*run(capsys, "apply", "--in", path, *argv), text)

    def test_deeply_nested_input_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert_one_line_error(*run(capsys, "apply", "--op", "perm", "--sigma", "(1,2)",
                                   "--in", str(path)), "--in JSON is nested too deeply")

    def test_deeply_nested_tableau_exits_2(self, capsys, tmp_path):
        path = write_poly(tmp_path, MultiPoly.variable(3, 1))
        assert_one_line_error(*run(capsys, "apply", "--op", "gamma", "--in", path,
                                   "--tableau", "[" * 100000),
                              "--tableau JSON is nested too deeply")

    @pytest.mark.parametrize("sigma", ["(1,2))", ")", ")(1,2)"])
    def test_unbalanced_sigma(self, capsys, tmp_path, sigma):
        # a stray ")" used to repeat the previous cycle or read as the identity
        path = write_poly(tmp_path, MultiPoly.variable(3, 1))
        assert_one_line_error(*run(capsys, "apply", "--op", "perm", "--in", path,
                                   "--sigma", sigma), "unbalanced parenthesis")

    def test_delta2_on_non_member_exits_2(self, capsys, tmp_path):
        path = write_poly(tmp_path, MultiPoly.variable(2, 1))
        code, out, err = run(capsys, "apply", "--op", "delta2", "--m", "1", "--in", path)
        assert (code, out, err) == (2, "", "error: input is not m-quasiinvariant\n")

    @pytest.mark.parametrize("obj", [
        {"nvars": 2.9, "terms": [{"exp": [1.7, 0], "num": 2.5, "den": 1}]},
        {"nvars": 2, "terms": [{"exp": [1.7, 0], "num": "1", "den": "1"}]},
        {"nvars": 2, "terms": [{"exp": [1, 0], "num": 2.5, "den": 1}]},
        {"nvars": 2, "terms": [{"exp": [1, 0], "num": "1", "den": 1.0}]},
    ], ids=["all-floats", "exp", "num", "den"])
    def test_polynomial_with_non_integers(self, capsys, tmp_path, obj):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(obj))
        assert_one_line_error(*run(capsys, "apply", "--op", "perm", "--in", str(path),
                                   "--sigma", "1"), "must be an integer")

    @pytest.mark.parametrize("nums", [("1", "2"), ("1", "-1")],
                             ids=["sum", "cancel"])
    def test_polynomial_with_repeated_exponent(self, capsys, tmp_path, nums):
        # x1 + 2*x1 used to read as 2*x1, and x1 - x1 as -x1
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"nvars": 2, "terms": [
            {"exp": [1, 0], "num": num, "den": "1"} for num in nums]}))
        assert_one_line_error(*run(capsys, "apply", "--op", "perm", "--in", str(path),
                                   "--sigma", "1"), "repeats an exponent")

    def test_polynomial_integer_fields(self):
        obj = {"nvars": 2, "terms": [{"exp": [1, 0], "num": 3, "den": "2"},
                                     {"exp": [0, 1], "num": "-1", "den": 1}]}
        expected = MultiPoly(2, {(1, 0): Fraction(3, 2), (0, 1): Fraction(-1)})
        assert jsonio.poly_from_obj(obj) == expected

    def test_polynomial_without_nvars(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"terms": [{"exp": [1], "num": "1", "den": "1"}]}))
        assert_one_line_error(*run(capsys, "apply", "--op", "delta2", "--in", str(path)),
                              "nvars")


@st.composite
def rational_polys(draw):
    """A polynomial in 1 to 4 variables with rational coefficients:
    negative numerators, denominators above 1, or no terms at all."""
    nvars = draw(st.integers(1, 4))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars),
                                 st.fractions(-50, 50, max_denominator=12),
                                 max_size=6))
    return MultiPoly(nvars, terms)


class TestPolyToObj:
    @settings(max_examples=200, deadline=None)
    @given(rational_polys())
    @example(MultiPoly.zero(1))
    @example(MultiPoly.zero(4))
    @example(MultiPoly(3, {(1, 0, 0): Fraction(-3, 4), (0, 2, 0): Fraction(5, 6),
                           (0, 0, 0): -2}))
    def test_matches_the_fraction_reference(self, p):
        obj = jsonio.poly_to_obj(p)
        assert obj == reference.poly_to_obj(p)
        assert jsonio.poly_from_obj(obj) == p


class TestOracle:
    def test_dump(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "2", "--m", "1", "--d", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["dimension"] == 3
        assert len(obj["basis"]) == 3

    def test_guard_exit(self, capsys):
        code, _, err = run(capsys, "oracle", "--n", "9", "--m", "1", "--d", "2")
        assert code == 2
        assert err

    def test_rejects_n_below_one(self, capsys):
        code, out, err = run(capsys, "oracle", "--n", "0", "--m", "1", "--d", "2")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "n >= 1" in err


class TestDetcheck:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "detcheck", "--m", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["equals_vandermonde_squared"] is True


class TestDegreeCapVariable:
    @pytest.mark.parametrize("value", ["-5", "abc", "1e3"])
    def test_invalid_value_exits_2(self, capsys, monkeypatch, value):
        # -5 once printed a PASS line over 0 degrees, abc a bare int() message
        monkeypatch.setenv("QI_MAX_DEGREE", value)
        assert_one_line_error(
            *run(capsys, "verify", "--suite", "thm-main", "--n", "3", "--m", "2"),
            f"QI_MAX_DEGREE must be a non-negative integer, got {value!r}")
        assert_one_line_error(*run(capsys, "detcheck", "--m", "0"), "QI_MAX_DEGREE")


def assert_one_line_identity_failure(code, out, err, text):
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith(f"identity failure: {text}")


class TestIdentityFailure:
    """A broken identity leaves any command as exit 1 and one stderr line,
    never as an escaping exception."""

    def test_detcheck(self, capsys, monkeypatch):
        from quasiinv import quasi

        vandermonde = quasi.vandermonde
        monkeypatch.setattr(quasi, "vandermonde", lambda n: vandermonde(n) * 2)
        assert_one_line_identity_failure(*run(capsys, "detcheck", "--m", "1"),
                                         "determinant is not the squared Vandermonde")

    def test_hilbert(self, capsys, monkeypatch):
        from quasiinv.tableaux import Partition

        monkeypatch.setattr(Partition, "hook_length_count", lambda self: 0)
        assert_one_line_identity_failure(
            *run(capsys, "hilbert", "--n", "3", "--m", "1", "--D", "3"),
            "enumeration 1 != hook formula 0 for ")

    def test_delta2(self, capsys, monkeypatch, tmp_path):
        from quasiinv import predicate

        monkeypatch.setattr(predicate, "is_quasiinvariant", lambda p, m: m == 0)
        path = write_poly(tmp_path, MultiPoly.constant(2, 1))
        assert_one_line_identity_failure(
            *run(capsys, "apply", "--op", "delta2", "--m", "0", "--in", path),
            "Delta^2 embedding failed quasiinvariance")


# the directory holding the package, installed or not: a process started
# there imports it; PYTHONUNBUFFERED is unset so that stdout stays buffered
# until the entry function flushes it
PACKAGE_PARENT = Path(quasiinv.__file__).parents[1]
PROCESS_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}

IDENTITY_FAILURE = """
from quasiinv import cli, quasi
vandermonde = quasi.vandermonde
quasi.vandermonde = lambda n: vandermonde(n) * 2
cli.console_entry(["detcheck", "--m", "1"])
"""


def process(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=None):
    """``python -m quasiinv ARGV`` (or ``python -c SCRIPT`` when argv starts
    with "-c") as a process: its exit code, stdout and stderr.  ``env``
    adds to or overrides the process environment."""
    args = argv if argv[0] == "-c" else ("-m", "quasiinv", *argv)
    proc = subprocess.run([sys.executable, *args], stdout=stdout, stderr=stderr,
                          cwd=PACKAGE_PARENT, env={**PROCESS_ENV, **(env or {})},
                          text=True)
    return proc.returncode, proc.stdout or "", proc.stderr or ""


class TestEntryPoints:
    """``python -m quasiinv`` ends through ``cli.console_entry``, which
    flushes the output and calls os._exit: the exit code and every byte
    must survive the skipped interpreter teardown."""

    def test_module_invocation(self, capsys):
        expected = run(capsys, "detcheck", "--m", "1")
        assert process("detcheck", "--m", "1") == expected

    def test_refusal_exits_2(self):
        assert_one_line_error(*process("verify", "--suite", "hook", "--n", "0"),
                              "verify needs n >= 2")

    def test_identity_failure_exits_1(self):
        assert_one_line_identity_failure(*process("-c", IDENTITY_FAILURE),
                                         "determinant is not the squared Vandermonde")

    def test_usage_error_exits_2(self):
        code, out, err = process("detcheck")
        assert (code, out) == (2, "")
        assert err.startswith("usage: ") and "required: --m" in err

    def test_out_file_is_complete(self, capsys, tmp_path):
        # larger than the 8 KiB stdout buffer
        argv = ("basis", "--n", "5", "--m", "2", "--j", "3")
        path = tmp_path / "basis.json"
        assert process(*argv, "--out", str(path)) == (0, "", "")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(out) > 8192
        assert path.read_text(encoding="utf-8") == out

    def test_out_file_with_stdout_closed(self, capsys, tmp_path):
        # a process started with file descriptor 1 closed has sys.stdout None
        path = tmp_path / "detcheck.json"
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m quasiinv detcheck --m 0 --out "$1" >&-',
             sys.executable, str(path)],
            stderr=subprocess.PIPE, cwd=PACKAGE_PARENT, env=PROCESS_ENV, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert path.read_text(encoding="utf-8") == run(capsys, "detcheck", "--m", "0")[1]

    @pytest.mark.parametrize("argv", [
        ("detcheck", "--m", "0"),
        ("oracle", "--n", "3", "--m", "1", "--d", "9"),
    ], ids=["fails-at-flush", "fails-in-main"])
    def test_closed_pipe_exits_2(self, argv):
        # detcheck's output fits the stdout buffer, so only the final flush
        # meets the closed pipe; the oracle's 10 kB fail inside main
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = process(*argv, stdout=write_end)
        finally:
            os.close(write_end)
        broken = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        assert result == (2, "", f"error: {broken}\n")

    def test_closed_pipe_for_stdout_and_stderr_exits_2(self):
        # as with 2>&1 into a closed pipe: the error line cannot be written
        # either, and still no exception escapes
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = process("detcheck", "--m", "0", stdout=write_end, stderr=write_end)
        finally:
            os.close(write_end)
        assert result == (2, "", "")

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_detcheck_at_the_edge_of_the_degree_cap(self):
        # (x_1 - x_2)^(2m+3) is held to the cap: m = 4 is the largest the
        # default cap of 12 admits, and m = 5 answers once the cap is 13
        assert process("detcheck", "--m", "5", env={"QI_MAX_DEGREE": ""}) == (
            2, "", "error: degree 13 above cap 12 (set QI_MAX_DEGREE to raise)\n")
        code, out, err = process("detcheck", "--m", "5", "--format", "text",
                                 env={"QI_MAX_DEGREE": "13"})
        assert (code, err) == (0, "")
        assert out.startswith("change-of-basis matrix (m=5):\n")
        assert out.endswith(" = Delta_2^2\n")


# -- fuzzing main ----------------------------------------------------------
#
# Every value is small (n <= 4, n <= 3 for verify, m <= 2, degrees <= 6,
# negatives down to -2), so no request asks for a large group or degree.

OPS = ("gamma", "lm", "perm", "delta2")


@st.composite
def requests(draw):
    """argv for one subcommand; "{poly}" stands for the --in file."""
    def number(lo, hi):
        return str(draw(st.integers(lo, hi)))

    def maybe(*option):
        return list(option) if draw(st.booleans()) else []

    command = draw(st.sampled_from(["basis", "verify", "hilbert", "oracle", "detcheck",
                                    *OPS]))
    if command == "basis":
        return ["basis", "--n", number(-2, 4), "--m", number(-2, 2), "--j", number(-2, 4),
                *maybe("--verify"), *maybe("--format", "text")]
    if command == "verify":
        return ["verify", "--suite", draw(st.sampled_from(SUITES + ("all",))),
                "--n", number(-2, 3), *maybe("--m", number(-2, 2))]
    if command == "hilbert":
        return ["hilbert", "--n", number(-2, 4), "--m", number(-2, 2),
                "--D", number(-2, 6), *maybe("--oracle"), *maybe("--format", "text")]
    if command == "oracle":
        return ["oracle", "--n", number(-2, 4), "--m", number(-2, 2), "--d", number(-2, 6)]
    if command == "detcheck":
        return ["detcheck", "--m", number(-2, 2), *maybe("--format", "text")]
    return ["apply", "--op", command, "--in", "{poly}",
            *maybe("--m", number(-2, 2)), *maybe("--j", number(-2, 4)),
            *maybe("--shape", draw(st.sampled_from(["2,1", "3,1", "1,1", "2,2", "2", "0",
                                                    "x"]))),
            *maybe("--tableau", draw(st.sampled_from(["[[1,2],[3]]", "[[1,3],[2,4]]",
                                                      "[[1,2,3],[4]]", "[[1,1],[2]]",
                                                      "[]", "3", "null"]))),
            *maybe("--sigma", draw(st.sampled_from(["(1,2)", "(1,3,2)", "(1,4)", "(0,1)",
                                                    "()", "1"]))),
            *maybe("--format", "text")]


POLYS = st.builds(
    lambda nvars, terms: jsonio.poly_to_obj(
        MultiPoly(nvars, {exp[:nvars]: c for exp, c in terms})),
    st.integers(1, 4),
    st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * 4), st.integers(-3, 3)),
             max_size=3),
)

POLY_KEYS = ("nvars", "terms", "exp", "num", "den")

# nested lists, and dicts over the keys a JSON polynomial uses
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.text(max_size=3)
    | st.sampled_from(["1", "-2", "0"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(POLY_KEYS), inner, max_size=5),
    max_leaves=12,
)


def _spoiled(obj, key, value):
    """A valid JSON polynomial with one field, or its first term's, replaced."""
    if key in ("nvars", "terms") or not obj["terms"]:
        return {**obj, key: value}
    return {**obj, "terms": [{**obj["terms"][0], key: value}] + obj["terms"][1:]}


def exit_code(argv, poly):
    """main's exit code on ``argv``, with ``poly`` as the "{poly}" file;
    whatever it writes to stderr is one line naming an error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(poly, fh)
        argv = [path if a == "{poly}" else a for a in argv]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv + ["--out", os.devnull])
    text = err.getvalue()
    assert text == "" or (text.count("\n") == 1 and text.startswith(
        ("error: ", "identity failure: ")))
    return code


class TestFuzzMain:
    """Every small request gets an answer or a one-line message, and no
    exception escapes main."""

    @settings(max_examples=150, deadline=None)
    @given(requests(), POLYS)
    def test_every_subcommand(self, argv, poly):
        assert exit_code(argv, poly) in (0, 1, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([["gamma", "--shape", "2,1", "--j", "2"], ["lm", "--m", "1"],
                            ["perm", "--sigma", "(1,2)"], ["delta2", "--m", "0"]]),
           JSON | st.builds(_spoiled, POLYS, st.sampled_from(POLY_KEYS), JSON))
    def test_apply_on_any_json(self, op, obj):
        assert exit_code(["apply", "--in", "{poly}", "--op", *op], obj) in (0, 1, 2)


# a JSON polynomial read by the CLI: positive, negative and zero numerators
# and denominators, as ints, integer strings or non-integers, with exponent
# vectors that may repeat, be negative or have the wrong length
JSON_POLYS = st.builds(
    lambda nvars, terms: {"nvars": nvars, "terms": [
        {"exp": list(exp[:nvars]), "num": num, "den": den} for exp, num, den in terms]},
    st.integers(0, 5),
    st.lists(st.tuples(st.tuples(*[st.integers(-1, 2)] * 4),
                       st.integers(-6, 6) | st.sampled_from(["4", "-3", "0", "x", 2.5]),
                       st.integers(-12, 12) | st.sampled_from(["6", "-2", 1.5])),
             max_size=4),
)


def _outcome(read, obj):
    """``read(obj)``, or the type and text of the ValueError it raises."""
    try:
        return read(obj)
    except ValueError as exc:
        return type(exc), str(exc)


class TestPolyFromObj:
    @settings(max_examples=300, deadline=None)
    @given(JSON_POLYS | JSON | st.builds(_spoiled, POLYS, st.sampled_from(POLY_KEYS), JSON))
    @example({"nvars": 2, "terms": [{"exp": [1, 0], "num": "3", "den": "-6"},
                                    {"exp": [0, 1], "num": 0, "den": 5}]})
    @example({"nvars": 0, "terms": []})
    def test_matches_the_fraction_reference(self, obj):
        # the same polynomial, or the same refusal in the same order
        assert (_outcome(jsonio.poly_from_obj, obj)
                == _outcome(reference.poly_from_obj, obj))
