"""The CLI's option table parser against argparse.

``cli.parse_args`` must accept exactly the argv that the argparse parser
``reference.build_parser`` accepts, with the same namespace: the command,
every dest and ``func``.  Every argv argparse answers with help exits 0
with a help text, and every other argv is a usage error: exit 2, a usage
line and one error line.  The error texts are the parser's own and the
same on every Python version; ``test_usage_error_text`` pins them.

A few argv are read differently by different argparse versions; the
differential tests leave them out, and ``test_usage_error_text`` and
``test_help_where_argparse_versions_differ`` pin how ``parse_args`` reads
them.
"""

import contextlib
import io

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasiinv import cli
from quasiinv.cli import main

import reference

REFERENCE = reference.build_parser()


def outcome(parse, argv):
    """("ok", the namespace as a dict) or (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "ok", vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def assert_parses_like_argparse(argv):
    expected = outcome(REFERENCE.parse_args, argv)
    got = outcome(cli.parse_args, argv)
    if expected[0] == "ok":
        assert got == expected
        return
    code, out, err = got
    if expected[0] == 0:
        # the help of the same parser: the top level or the same command
        assert (code, err) == (0, "")
        assert out.split()[:3] == expected[1].split()[:3]
        return
    assert expected[0] == 2
    lines = err.split("\n")
    assert (code, out, len(lines)) == (2, "", 3)
    assert lines[0].startswith("usage: quasiinv") and ": error: " in lines[1]


# argv that argparse accepts, then argv it refuses, one kind at a time
EXAMPLES = [
    ("detcheck", "--m", "1"),
    ("detcheck", "--m=1", "--format=text"),
    ("basis", "--n", "3", "--m", "1", "--j", "2", "--verify", "--out", "o.json"),
    ("basis", "--ver", "--n", "3", "--m", "1", "--j", "2", "--form", "text"),
    ("verify", "--suite", "hook", "--n", "3", "--m", "2", "--m", "1"),
    ("verify", "--su", "lm", "--n", "3", "--se", "-4"),
    ("verify", "--suite", "all", "--n", "-2", "--m", "-1"),
    ("hilbert", "--or", "--n", "3", "--m", "1", "--D", "4", "--D", "5"),
    ("apply", "--op", "gamma", "--in", "p.json", "--shape=-1,1", "--j", "2"),
    ("apply", "--op", "perm", "--in", "-", "--sigma", "(1,2)", "--tab", ""),
    ("apply", "--op", "perm", "--in", "p.json", "--sigma", "-(1, 2)"),
    ("apply", "--op=delta2", "--in=p.json", "--m", "0", "--m=2"),
    ("oracle", "--n", "3", "--m", "1", "--d", "2", "--seed", "+7"),
    (),
    ("bogus",),
    ("-2", "detcheck", "--m", "1"),
    ("--n", "3", "detcheck", "--m", "1"),
    ("detcheck",),
    ("detcheck", "--m"),
    ("detcheck", "--m", "--format", "text"),
    ("detcheck", "--m", "x"),
    ("detcheck", "--m", "1.5"),
    ("detcheck", "--m", "1", "--format", "xml"),
    ("detcheck", "--m", "1", "stray"),
    ("detcheck", "--m", "1", "-x"),
    ("verify", "--suite", "groupalgebra", "--n", "3", "--samples", "3"),
    ("verify", "--s", "hook", "--n", "3"),
    ("hilbert", "--o", "--n", "3", "--m", "1", "--D", "4"),
    ("apply", "--op", "gamma", "--in", "p.json", "--shape", "-1,1", "--j", "2"),
    ("apply", "--op", "perm", "--in", "p.json", "--s", "(1,2)"),
    ("basis", "--n", "3", "--m", "1", "--j", "2", "--verify=yes"),
    ("--help=x",),
    ("-h",),
    ("--he",),
    ("-x", "-h", "basis"),
    ("-x", "basis", "-h"),
    ("basis", "-h"),
    ("basis", "--n", "x", "-h"),
    ("basis", "-h", "--n", "x"),
    ("verify", "--s", "hook", "-h"),
    ("verify", "--n", "--s", "hook"),
    ("apply", "--bogus", "--help"),
    ("-hh",),
    ("-h-x",),
    ("detcheck", "--m", "1", "-hh=x"),
]


@pytest.mark.parametrize("argv", EXAMPLES, ids=" ".join)
def test_example_parses_like_argparse(argv):
    assert_parses_like_argparse(argv)


def _spellings(flag, flags):
    """The full flag and every prefix of it that some long option starts
    with: (unique prefixes, ambiguous prefixes)."""
    prefixes = [flag[:k] for k in range(3, len(flag) + 1)]
    unique = [p for p in prefixes if sum(f.startswith(p) for f in flags) == 1 or p == flag]
    return unique, [p for p in prefixes if p not in unique]


def _values(option):
    """Values ``option`` accepts, then values it refuses."""
    kind, choices = option[2], option[4]
    if choices:
        return st.sampled_from(choices), st.sampled_from(["bogus", "", choices[0][:2]])
    if kind is int:
        return (st.integers(-3, 12).map(str) | st.sampled_from(["+1", "1_0"]),
                st.sampled_from(["x", "1.5", "", "-1,1"]))
    return st.sampled_from(["2,1", "(1,2)", "p.json", "-2", "", "-1,1"]), st.nothing()


@st.composite
def option_tokens(draw, command, option, valid):
    """One option of ``command`` as argv tokens: spelled in full or by a
    prefix, with its value as the next token or after "=", or missing.
    With ``valid`` the tokens are always a well-formed option."""
    flags = ["--help"] + [o[0] for o in cli.COMMANDS[command][2]]
    unique, ambiguous = _spellings(option[0], flags)
    if valid or not ambiguous or draw(st.integers(0, 3)):
        spelled = draw(st.sampled_from(unique))
    else:
        spelled = draw(st.sampled_from(ambiguous))
    if option[2] is bool:
        return [spelled] if valid or draw(st.booleans()) else [spelled + "=x"]
    good, bad = _values(option)
    value = draw(good if valid or draw(st.integers(0, 2)) else good | bad)
    if valid:
        # a value such as -1,1 reads as an option unless it follows "="
        form = "equals" if value == "-1,1" else draw(st.sampled_from(["pair", "equals"]))
    else:
        form = draw(st.sampled_from(["pair", "equals", "missing"]))
    if form == "equals":
        return [f"{spelled}={value}"]
    return [spelled, value] if form == "pair" else [spelled]


# tokens that belong to no option of any command
STRAYS = st.sampled_from(["stray", "3", "-x", "--bogus", "--samples", "-h", "--help",
                          "--he", "-2"])


@st.composite
def argvs(draw):
    """argv from the option table: mostly whole requests, some with an
    option repeated, misspelled or missing, or with a stray token."""
    command = draw(st.sampled_from([*cli.COMMANDS, "bogus", None]))
    before = draw(st.lists(STRAYS, max_size=1)) if not draw(st.integers(0, 7)) else []
    if command not in cli.COMMANDS:
        return [*before, *([command] if command else [])]
    options = cli.COMMANDS[command][2]
    groups = []
    for option in options:
        if draw(st.integers(0, 9)) < (9 if option[5] else 4):
            groups.append(draw(option_tokens(command, option, True)))
    for _ in range(draw(st.integers(0, 2))):
        option = draw(st.sampled_from(options))
        groups.append(draw(option_tokens(command, option, draw(st.booleans()))))
    if not draw(st.integers(0, 5)):
        groups.append([draw(STRAYS)])
    groups = draw(st.permutations(groups))
    return [*before, command, *(token for group in groups for token in group)]


def help_before_an_ambiguous_prefix(argv):
    """Whether the command's -h, --help or a prefix of --help comes before
    an ambiguous prefix of its options: argparse on 3.10, 3.11 and early
    3.12 and 3.13 releases refuses the prefix as soon as it reads argv,
    later releases print the help first."""
    command = next((i for i, token in enumerate(argv) if token in cli.COMMANDS), None)
    if command is None:
        return False
    flags = ["--help"] + [o[0] for o in cli.COMMANDS[argv[command]][2]]
    helped = False
    for token in argv[command + 1:]:
        name = token.partition("=")[0]
        if helped and token.startswith("--") and sum(f.startswith(name) for f in flags) > 1:
            return True
        helped = helped or token == "-h" or (len(name) > 2 and "--help".startswith(name))
    return False


@settings(max_examples=600, deadline=None)
@given(argvs())
def test_parses_like_argparse(argv):
    assume(not help_before_an_ambiguous_prefix(argv))
    assert_parses_like_argparse(argv)


# argv that argparse answers with help on some Python versions and with a
# usage error on others; parse_args follows later 3.12 and 3.13 releases
HELP_ON_LATER_VERSIONS = [
    # an ambiguous prefix after -h: refused on reading argv by 3.10, 3.11,
    # 3.12.1 and 3.13.0; later releases fail only on reaching it
    ("verify", "-h", "--s", "hook"),
    ("verify", "--bogus", "--he", "--s=hook", "--n", "3"),
    # -h glued to letters other than h: refused by 3.10 and 3.11
    ("-hx",),
    ("detcheck", "--m", "1", "-hxh"),
]


@pytest.mark.parametrize("argv", HELP_ON_LATER_VERSIONS, ids=" ".join)
def test_help_where_argparse_versions_differ(argv):
    command = next((token for token in argv if token in cli.COMMANDS), None)
    code, out, err = outcome(cli.parse_args, argv)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: quasiinv {command} [-h] " if command
                          else "usage: quasiinv [-h] ")


def usage(command):
    return {
        None: "usage: quasiinv [-h] {basis,verify,hilbert,apply,oracle,detcheck} ...",
        "verify": "usage: quasiinv verify [-h] --suite {groupalgebra,thm-main,hook,lm,"
                  "chain,all} --n N [--m M] [--seed SEED] [--out OUT]",
        "detcheck": "usage: quasiinv detcheck [-h] --m M [--out OUT] [--format {json,text}]",
    }[command]


# argv -> the command whose usage line is printed, the error line
USAGE_ERRORS = [
    ((), None, "quasiinv: error: the following arguments are required: command"),
    (("bogus",), None, "quasiinv: error: argument command: invalid choice: 'bogus' "
                       "(choose from basis, verify, hilbert, apply, oracle, detcheck)"),
    (("--help=x",), None,
     "quasiinv: error: argument -h/--help: ignored explicit argument 'x'"),
    (("detcheck",), "detcheck",
     "quasiinv detcheck: error: the following arguments are required: --m"),
    (("verify",), "verify",
     "quasiinv verify: error: the following arguments are required: --suite, --n"),
    (("verify", "--suite", "groupalgebra", "--n", "3", "--samples", "3"), None,
     "quasiinv: error: unrecognized arguments: --samples 3"),
    (("verify", "--suite", "bogus", "--n", "2"), "verify",
     "quasiinv verify: error: argument --suite: invalid choice: 'bogus' "
     "(choose from groupalgebra, thm-main, hook, lm, chain, all)"),
    (("detcheck", "--m", "x"), "detcheck",
     "quasiinv detcheck: error: argument --m: invalid int value: 'x'"),
    (("detcheck", "--m"), "detcheck",
     "quasiinv detcheck: error: argument --m: expected one argument"),
    (("verify", "--s", "hook"), "verify",
     "quasiinv verify: error: ambiguous option: --s could match --suite, --seed"),
    (("detcheck", "--m", "1", "--form=text", "--help=no"), "detcheck",
     "quasiinv detcheck: error: argument -h/--help: ignored explicit argument 'no'"),
    # "--" before the command: the command on 3.10, 3.11, 3.12.1 and 3.13.0,
    # dropped by 3.12.10; no command takes a positional argument, so here
    # "--" separates nothing and is refused like any unknown token
    (("--", "detcheck", "--m", "1"), None, "quasiinv: error: unrecognized arguments: --"),
]


@pytest.mark.parametrize("argv, command, error", USAGE_ERRORS,
                         ids=[" ".join(argv) or "no-command" for argv, _, _ in USAGE_ERRORS])
def test_usage_error_text(capsys, argv, command, error):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"{usage(command)}\n{error}\n")


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_names_every_command_and_option(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith(f"usage: quasiinv {command} [-h] " if command
                          else "usage: quasiinv [-h] ")
    names = cli.COMMANDS if command is None else [o[0] for o in cli.COMMANDS[command][2]]
    assert all(f"  {name}" in out for name in names)
