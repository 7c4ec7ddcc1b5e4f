"""Command-line surface: basis, verify, hilbert, apply, oracle, detcheck.

All numeric work is exact; output is canonical JSON or plain text, written
to stdout or to --out, and byte-identical across repeated invocations with
the same flags.  Each subcommand imports the layers it calls when it runs,
so a command loads only those modules.  A refused request raises
ValueError and a failed identity TheoremViolationError; ``main`` alone
turns them into one stderr line and exit 2 or exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import SUITES, jsonio


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
    from .structure import full_hilbert

    report = full_hilbert(args.n, args.m, args.D)
    oracle = None
    if args.oracle:
        from .quasi import graded_dimension_oracle

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
    if args.format == "json":
        text = jsonio.dumps(jsonio.hilbert_report_to_obj(report, oracle))
    else:
        lines = [f"Hilbert series of QI_{args.m} for n={args.n} through q^{args.D}"]
        for parts, exps in report.shape_exponents:
            lines.append(f"  shape {list(parts)}: numerator exponents {list(exps)}")
        lines.append(f"  total coefficients: {list(report.total)}")
        if oracle is not None:
            verdict = all(entry["match"] for entry in oracle)
            lines.append(
                "  oracle agreement: " + ("PASS" if verdict else "FAIL")
            )
            for entry in oracle:
                if not entry["match"]:
                    lines.append(
                        f"    degree {entry['degree']}: oracle {entry['oracle']} "
                        f"!= series {entry['series']}"
                    )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    if oracle is not None and not all(e["match"] for e in oracle):
        return 1
    return 0


def _parse_json(text: str, option: str):
    """The JSON value given to ``option``; nesting too deep for the decoder
    is refused like any other malformed input."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{option} JSON is nested too deeply") from None


def _load_poly(path: str) -> MultiPoly:
    with open(path, "r", encoding="utf-8") as fh:
        return jsonio.poly_from_obj(_parse_json(fh.read(), "--in"))


def cmd_apply(args) -> int:
    p = _load_poly(args.infile)
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
        from .quasi import delta_sq_embed

        image = delta_sq_embed(p, args.m)
    else:
        raise ValueError(f"unknown op {args.op!r}")
    if args.format == "json":
        _emit(jsonio.dumps(jsonio.poly_to_obj(image)), args.out)
    else:
        _emit(_poly_text(image), args.out)
    return 0


def cmd_oracle(args) -> int:
    from .quasi import graded_dimension_oracle

    witness = graded_dimension_oracle(args.n, args.m, args.d)
    _emit(jsonio.dumps(jsonio.witness_to_obj(witness, seed=args.seed)), args.out)
    return 0


def cmd_detcheck(args) -> int:
    from .quasi import change_of_basis_n2

    matrix, determinant = change_of_basis_n2(args.m)
    obj = {
        "m": args.m,
        "matrix": [[jsonio.poly_to_obj(entry) for entry in row] for row in matrix],
        "determinant": jsonio.poly_to_obj(determinant),
        "equals_vandermonde_squared": True,
    }
    if args.format == "json":
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiinv",
        description="Exact construction and verification of the "
        "m-quasiinvariants of the symmetric group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=True):
        p.add_argument("--out", help="write output to this path instead of stdout")
        if fmt:
            p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("basis", help="emit the hook-shape basis polynomials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="assert the dual construction and degree contract")
    common(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("--suite", required=True,
                   choices=SUITES + ("all",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--seed", type=int, default=0,
                   help="only recorded in the header; no suite draws random input")
    common(p, fmt=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hilbert", help="graded dimension series, optionally "
                       "cross-checked against the brute-force oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--oracle", action="store_true")
    common(p)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("apply", help="apply gamma_T, L_m, a permutation, or "
                       "the Delta^2 embedding to a JSON polynomial")
    p.add_argument("--op", required=True, choices=("gamma", "lm", "perm", "delta2"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--shape", help="partition, e.g. 2,1 (gamma)")
    p.add_argument("--j", type=int, help="hook second-row entry (gamma)")
    p.add_argument("--tableau", help="JSON rows for a general tableau (gamma)")
    p.add_argument("--m", type=int, default=0, help="operator order (lm, delta2)")
    p.add_argument("--sigma", help='cycle notation, e.g. "(1,2)" (perm)')
    common(p)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("oracle", help="dump an exact graded witness basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="only recorded in the output; the oracle draws nothing")
    common(p, fmt=False)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("detcheck", help="n=2 change-of-basis determinant check")
    p.add_argument("--m", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_detcheck)

    return parser


def main(argv=None) -> int:
    from .exactalg import TheoremViolationError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TheoremViolationError as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
