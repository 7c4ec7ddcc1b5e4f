"""Command-line surface: basis, verify, hilbert, apply, oracle, detcheck.

All numeric work is exact; output is canonical JSON or plain text, written
to stdout or to --out, and byte-identical across repeated invocations with
the same flags.  Each subcommand imports the layers it calls when it runs,
so a command loads only those modules; ``json`` and ``jsonio`` are loaded
only by a command that reads or writes JSON, and ``verify``, which prints
plain text, loads neither.  The options of every command are one table,
``COMMANDS``, from which ``parse_args`` reads argv and writes the usage
and help texts, so no command loads argparse.  A usage error prints a
usage line, the command's for an error in that command's options and the
top level's otherwise, and one ``quasiinv[ <command>]: error: ...`` line
and exits 2, and ``-h`` prints the help and exits 0, each by SystemExit.  A refused request raises
ValueError and a failed identity TheoremViolationError; ``main`` alone
turns them into one stderr line and exit 2 or exit 1.

``main`` returns the exit code and is what the tests call.  A process
(``python -m quasiinv`` and the ``quasiinv`` console script) enters
through ``console_entry``, which flushes stdout and stderr after ``main``
and ends the process with ``os._exit``: nothing is left for interpreter
teardown, which would otherwise clear every module and collect and free
each cached plan, bracket and polynomial one by one, writing nothing.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import SUITES
from .exactalg import TheoremViolationError


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _poly_text(p: MultiPoly) -> str:
    return p.to_text() + "\n"


def cmd_basis(args) -> int:
    from .hookbasis import hook_basis

    basis = hook_basis(args.n, args.m, args.j, verify=args.verify)
    if args.format == "json":
        from . import jsonio

        obj = {
            "n": args.n,
            "m": args.m,
            "j": args.j,
            "degrees": [p.degree() for p in basis],
            "basis": [jsonio.poly_to_obj(p) for p in basis],
        }
        if args.verify:
            obj["verified"] = True
        text = jsonio.dumps(obj)
    else:
        lines = [
            f"Q^({k},{args.m}) [degree {p.degree()}] = {p.to_text()}"
            for k, p in enumerate(basis)
        ]
        if args.verify:
            lines.append("verification: dual construction and degree contract PASS")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args.suite, args.n, args.m)
    lines = [f"suite={args.suite} n={args.n} m={args.m} seed={args.seed}"]
    for name, passed, detail in results:
        lines.append(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    failed = [name for name, passed, _ in results if not passed]
    lines.append(f"result: {len(results) - len(failed)}/{len(results)} passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


def cmd_hilbert(args) -> int:
    from .structure import _refuse_hilbert, full_hilbert

    oracle = None
    if args.oracle:
        from .quasi import _refuse_above_cap, _refuse_oracle_n, graded_dimension_oracle

        # the series' limits, then the oracle's, before any degree is computed
        _refuse_hilbert(args.n, args.m, args.D)
        _refuse_oracle_n(args.n)
        _refuse_above_cap(args.D)
    report = full_hilbert(args.n, args.m, args.D)
    if args.oracle:
        oracle = []
        for d in range(args.D + 1):
            dim = graded_dimension_oracle(args.n, args.m, d).dimension
            oracle.append(
                {
                    "degree": d,
                    "oracle": dim,
                    "series": report.total[d],
                    "match": dim == report.total[d],
                }
            )
    agree = oracle is None or all(entry["match"] for entry in oracle)
    if args.format == "json":
        from . import jsonio

        text = jsonio.dumps(jsonio.hilbert_report_to_obj(report, oracle))
    else:
        lines = [f"Hilbert series of QI_{args.m} for n={args.n} through q^{args.D}"]
        for parts, exps in report.shape_exponents:
            lines.append(f"  shape {list(parts)}: numerator exponents {list(exps)}")
        lines.append(f"  total coefficients: {list(report.total)}")
        if oracle is not None:
            lines.append("  oracle agreement: " + ("PASS" if agree else "FAIL"))
            for entry in oracle:
                if not entry["match"]:
                    lines.append(
                        f"    degree {entry['degree']}: oracle {entry['oracle']} "
                        f"!= series {entry['series']}"
                    )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if agree else 1


def _parse_json(text: str, option: str):
    """The JSON value given to ``option``; nesting too deep for the decoder
    is refused like any other malformed input."""
    import json

    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{option} JSON is nested too deeply") from None


def cmd_apply(args) -> int:
    from . import jsonio

    with open(args.infile, "r", encoding="utf-8") as fh:
        p = jsonio.poly_from_obj(_parse_json(fh.read(), "--in"))
    if args.op == "gamma":
        from .tableaux import Partition, Tableau, gamma_apply, hook_tableau

        if args.tableau:
            t = Tableau(_parse_json(args.tableau, "--tableau"))
        elif not args.shape:
            raise ValueError("gamma needs --shape or --tableau")
        else:
            shape = Partition(int(v) for v in args.shape.split(","))
            if len(shape.parts) != 2 or shape.parts[1] != 1:
                raise ValueError("give --tableau for non-hook shapes")
            if args.j is None:
                raise ValueError("gamma on a hook shape needs --j")
            t = hook_tableau(shape.size, args.j)
        if t.n != p.nvars:
            raise ValueError("tableau size does not match nvars")
        image = gamma_apply(t, p)
    elif args.op == "lm":
        from .calogero import NonPolynomialError, apply_lm

        try:
            image = apply_lm(p, args.m)
        except NonPolynomialError as exc:
            _emit(jsonio.dumps({"error": "NonPolynomial", "detail": str(exc)}),
                  args.out)
            return 1
    elif args.op == "perm":
        from .symgroup import act, parse_cycles

        if args.sigma is None:
            raise ValueError("perm needs --sigma")
        image = act(parse_cycles(args.sigma, p.nvars), p)
    elif args.op == "delta2":
        from .predicate import delta_sq_embed

        image = delta_sq_embed(p, args.m)
    else:
        raise ValueError(f"unknown op {args.op!r}")
    if args.format == "json":
        _emit(jsonio.dumps(jsonio.poly_to_obj(image)), args.out)
    else:
        _emit(_poly_text(image), args.out)
    return 0


def cmd_oracle(args) -> int:
    from . import jsonio
    from .quasi import graded_dimension_oracle

    witness = graded_dimension_oracle(args.n, args.m, args.d)
    _emit(jsonio.dumps(jsonio.witness_to_obj(witness, seed=args.seed)), args.out)
    return 0


def cmd_detcheck(args) -> int:
    from .quasi import change_of_basis_n2

    matrix, determinant = change_of_basis_n2(args.m)
    if args.format == "json":
        from . import jsonio

        obj = {
            "m": args.m,
            "matrix": [[jsonio.poly_to_obj(entry) for entry in row] for row in matrix],
            "determinant": jsonio.poly_to_obj(determinant),
            "equals_vandermonde_squared": True,
        }
        _emit(jsonio.dumps(obj), args.out)
    else:
        lines = [
            f"change-of-basis matrix (m={args.m}):",
            f"  [{matrix[0][0].to_text()}, {matrix[0][1].to_text()}]",
            f"  [{matrix[1][0].to_text()}, {matrix[1][1].to_text()}]",
            f"determinant = {determinant.to_text()} = Delta_2^2",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _option(flag, type=str, default=None, choices=None, required=False, help="",
            dest=None):
    return (flag, dest or flag[2:], type, default, choices, required, help)


_OUT = _option("--out", help="write output to this path instead of stdout")
_FORMAT = _option("--format", choices=("json", "text"), default="json")

_DESCRIPTION = ("Exact construction and verification of the m-quasiinvariants "
               "of the symmetric group.")

# The option table: command -> (help, handler, options).  Each option is
# (flag, dest, type, default, choices, required, help); the type is int,
# str or bool, and a bool option is a flag that takes no value and stores
# True.  parse_args and the usage and help texts are derived from it.
COMMANDS = {
    "basis": ("emit the hook-shape basis polynomials", cmd_basis, (
        _option("--n", int, required=True),
        _option("--m", int, required=True),
        _option("--j", int, required=True),
        _option("--verify", bool, False,
                help="assert the dual construction and degree contract"),
        _OUT, _FORMAT)),
    "verify": ("run a named property suite", cmd_verify, (
        _option("--suite", choices=SUITES + ("all",), required=True),
        _option("--n", int, required=True),
        _option("--m", int, 1),
        _option("--seed", int, 0,
                help="only recorded in the header; no suite draws random input"),
        _OUT)),
    "hilbert": ("graded dimension series, optionally cross-checked against the "
                "brute-force oracle", cmd_hilbert, (
        _option("--n", int, required=True),
        _option("--m", int, required=True),
        _option("--D", int, required=True),
        _option("--oracle", bool, False),
        _OUT, _FORMAT)),
    "apply": ("apply gamma_T, L_m, a permutation, or the Delta^2 embedding to a "
              "JSON polynomial", cmd_apply, (
        _option("--op", choices=("gamma", "lm", "perm", "delta2"), required=True),
        _option("--in", dest="infile", required=True),
        _option("--shape", help="partition, e.g. 2,1 (gamma)"),
        _option("--j", int, help="hook second-row entry (gamma)"),
        _option("--tableau", help="JSON rows for a general tableau (gamma)"),
        _option("--m", int, 0, help="operator order (lm, delta2)"),
        _option("--sigma", help='cycle notation, e.g. "(1,2)" (perm)'),
        _OUT, _FORMAT)),
    "oracle": ("dump an exact graded witness basis", cmd_oracle, (
        _option("--n", int, required=True),
        _option("--m", int, required=True),
        _option("--d", int, required=True),
        _option("--seed", int, 0,
                help="only recorded in the output; the oracle draws nothing"),
        _OUT)),
    "detcheck": ("n=2 change-of-basis determinant check", cmd_detcheck, (
        _option("--m", int, required=True),
        _OUT, _FORMAT)),
}

# -h and --help in every parser, named -h/--help in errors; its type None
# sets it apart from the table's options
_HELP = ("-h/--help", "help", None, None, None, False, "show this help message and exit")


def _write(stream, text):
    # a closed or missing stream loses the text, as a failed print would
    try:
        stream.write(text)
    except (AttributeError, OSError):
        pass


def _metavar(option):
    flag, dest, kind, _, choices, _, _ = option
    if kind is bool:
        return flag
    return f"{flag} {'{' + ','.join(choices) + '}' if choices else dest.upper()}"


def _usage(command):
    if command is None:
        return "usage: quasiinv [-h] {" + ",".join(COMMANDS) + "} ..."
    words = [f"usage: quasiinv {command} [-h]"]
    for option in COMMANDS[command][2]:
        words.append(_metavar(option) if option[5] else f"[{_metavar(option)}]")
    return " ".join(words)


def _fail(command, message):
    """A usage error: the usage line of ``command`` (the top level when
    None) and one ``error:`` line on stderr, then exit 2."""
    prog = "quasiinv" if command is None else f"quasiinv {command}"
    _write(sys.stderr, f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _help(command):
    """Print the help of ``command`` (the top level when None) and exit 0."""
    options = [("-h, --help", _HELP[6])]
    if command is None:
        about = _DESCRIPTION
        sections = [("commands", [(name, entry[0]) for name, entry in COMMANDS.items()]),
                    ("options", options)]
    else:
        about = COMMANDS[command][0]
        options += [(_metavar(option), option[6]) for option in COMMANDS[command][2]]
        sections = [("options", options)]
    lines = [_usage(command), "", about]
    for heading, rows in sections:
        width = max(len(left) for left, _ in rows)
        lines += ["", f"{heading}:"]
        lines += [f"  {left:<{width}}  {text}".rstrip() for left, text in rows]
    _write(sys.stdout, "\n".join(lines) + "\n")
    raise SystemExit(0)


def _negative_number(token):
    # argparse's ^-\d+$|^-\d*\.\d+$, whose $ also matches before a final newline
    whole, dot, fraction = token[1:].removesuffix("\n").partition(".")
    if not dot:
        return whole.isdecimal()
    return fraction.isdecimal() and (whole == "" or whole.isdecimal())


def _read(token, flags):
    """How argparse reads ``token`` in a parser with ``flags``: None for a
    value, else (the flags it may name, explicit value or None), no flag
    for an unknown option.  A long option may be cut to a prefix; a prefix
    of several flags is ambiguous, an error only once it is reached."""
    if len(token) < 2 or token[0] != "-":
        return None
    if token in flags:
        return [token], None
    name, eq, explicit = token.partition("=")
    if not eq:
        explicit = None
    elif name in flags:
        return [name], explicit
    if token == "--":
        return [], None
    if token[1] == "-":
        matches = [flag for flag in flags if flag.startswith(name)]
        if matches:
            return matches, explicit
    elif token.startswith("-h"):
        # -h glued to letters is -h; glued to - or = it has a value
        glued = token[2:].lstrip("h")
        return ["-h"], glued.removeprefix("=") if glued[:1] in ("-", "=") else None
    if _negative_number(token) or " " in token:
        return None
    return [], None


def _parse_command(command, argv, extras):
    """The option values of ``command`` read from ``argv``; every value or
    unknown option that no option takes is added to ``extras``."""
    options = COMMANDS[command][2]
    flags = {"-h": _HELP, "--help": _HELP}
    flags.update((option[0], option) for option in options)
    reads = [_read(token, flags) for token in argv]
    values = {option[1]: option[3] for option in options}
    seen = set()
    i = 0
    while i < len(argv):
        read = reads[i]
        i += 1
        if read is None or not read[0]:
            extras.append(argv[i - 1])
            continue
        names, explicit = read
        if len(names) > 1:
            _fail(command, f"ambiguous option: {argv[i - 1]} could match {', '.join(names)}")
        option = flags[names[0]]
        flag, dest, kind, _, choices, _, _ = option
        if kind is None or kind is bool:
            if explicit is not None:
                _fail(command, f"argument {flag}: ignored explicit argument {explicit!r}")
            if option is _HELP:
                _help(command)
            value = True
        else:
            if explicit is None:
                if i == len(argv) or reads[i] is not None:
                    _fail(command, f"argument {flag}: expected one argument")
                explicit = argv[i]
                i += 1
            value = explicit
            if kind is int:
                try:
                    value = int(explicit)
                except ValueError:
                    _fail(command, f"argument {flag}: invalid int value: {explicit!r}")
            if choices and value not in choices:
                _fail(command, f"argument {flag}: invalid choice: {value!r} "
                               f"(choose from {', '.join(choices)})")
        values[dest] = value
        seen.add(flag)
    missing = [option[0] for option in options if option[5] and option[0] not in seen]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    return values


def parse_args(argv):
    """The namespace of ``argv``: ``command``, every option of the command
    by its dest, and ``func``, the command's handler.

    argv is read as argparse reads it: ``--opt value`` or ``--opt=value``,
    a long option cut to any unique prefix, the last of a repeated option
    kept, and a negative number or a token with a space a value, while
    any other token that starts with - is an option.  Where argparse
    versions differ, it reads argv as later 3.12 and 3.13 releases do: an
    ambiguous prefix fails only once it is reached, so not after -h, and
    -h glued to letters (-hx) is -h.  A usage error exits 2 and -h or
    --help exits 0, each through SystemExit."""
    top = {"-h": _HELP, "--help": _HELP}
    extras = []
    for i, token in enumerate(argv):
        read = _read(token, top)
        if read is None:
            if token not in COMMANDS:
                _fail(None, f"argument command: invalid choice: {token!r} "
                            f"(choose from {', '.join(COMMANDS)})")
            values = _parse_command(token, argv[i + 1:], extras)
            if extras:
                _fail(None, f"unrecognized arguments: {' '.join(extras)}")
            return SimpleNamespace(command=token, **values, func=COMMANDS[token][1])
        names, explicit = read
        if not names:
            extras.append(token)
        elif explicit is not None:
            _fail(None, f"argument {_HELP[0]}: ignored explicit argument {explicit!r}")
        else:
            _help(None)
    _fail(None, "the following arguments are required: command")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TheoremViolationError as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return 1


def console_entry(argv=None) -> None:
    """Run ``main``, flush its output and end the process at once.

    A flush that fails, such as stdout a pipe whose reader has closed, is
    reported like a failed write inside ``main``: one ``error:`` line and
    exit 2.  A stream is None when its file descriptor was closed before
    the process started.  The SystemExit of a usage error or of ``--help``
    from ``parse_args``, whose text is already written, and an unexpected
    exception take the normal exit path."""
    code = main(argv)
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        code = 2
        try:
            print(f"error: {exc}", file=sys.stderr)
        except OSError:
            pass
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    console_entry()
