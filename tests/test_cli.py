"""Command-line behavior: every subcommand, exit codes, guard errors,
JSON round-trips, and byte-identical deterministic output."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiinv import SUITES, jsonio
from quasiinv.cli import main
from quasiinv.exactalg import MultiPoly
from quasiinv.hookbasis import HookSpec, q_closed_form


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
        from quasiinv import symgroup, tableaux

        def forward(t, p):
            factors, f, n_factorial = tableaux._projection_plan(t)
            num = symgroup._apply_factors(p.num, factors)
            return MultiPoly._from_int(t.n, {e: c * f for e, c in num.items()},
                                       n_factorial * p.den)

        monkeypatch.setattr(tableaux, "gamma_apply", forward)
        code, out, _ = run(capsys, "verify", "--suite", "groupalgebra", "--n", str(n))
        assert code == 1
        assert [line for line in out.splitlines() if "FAIL" in line] == [
            f"Factored and expanded gamma_T agree: FAIL (n={n}, {count} tableaux)"]

    def test_dropped_plan_factor_fails_the_suite(self, capsys, monkeypatch):
        # gamma and gamma_images read one plan, so the agreement line cannot
        # see a factor missing from it; idempotence and the rank sum do
        from quasiinv import tableaux

        plan = tableaux._projection_plan

        def short(t):
            factors, f, n_factorial = plan(t)
            return factors[1:], f, n_factorial

        monkeypatch.setattr(tableaux, "_projection_plan", short)
        code, out, _ = run(capsys, "verify", "--suite", "groupalgebra", "--n", "4")
        assert code == 1
        assert [line.split(":")[0] for line in out.splitlines() if "FAIL" in line] == [
            "Zero-product / alpha-invariance / gamma idempotence",
            "Projector rank-sum decomposition"]

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
        from quasiinv import verify

        def ran(n):
            raise AssertionError("groupalgebra ran")

        monkeypatch.setattr(verify, "suite_groupalgebra", ran)
        assert_one_line_error(*run(capsys, "verify", "--suite", "all", "--n", "6"),
                              "oracle limited to n <= 5, got 6")

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus", "--n", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "quasiinv verify: error: argument --suite: invalid choice: 'bogus' "
            "(choose from 'groupalgebra', 'thm-main', 'hook', 'lm', 'chain', "
            "'all')\n")

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
                                   "--tableau", "[" * 5000),
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
        from quasiinv import quasi

        monkeypatch.setattr(quasi, "is_quasiinvariant", lambda p, m: m == 0)
        path = write_poly(tmp_path, MultiPoly.constant(2, 1))
        assert_one_line_identity_failure(
            *run(capsys, "apply", "--op", "delta2", "--m", "0", "--in", path),
            "Delta^2 embedding failed quasiinvariance")


class TestEntryPoints:
    def test_module_invocation(self):
        import subprocess
        import sys
        from pathlib import Path

        import quasiinv

        # run from the directory holding the package, installed or not
        proc = subprocess.run(
            [sys.executable, "-m", "quasiinv", "detcheck", "--m", "1"],
            capture_output=True, cwd=Path(quasiinv.__file__).parents[1],
        )
        assert proc.returncode == 0

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main([])


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
