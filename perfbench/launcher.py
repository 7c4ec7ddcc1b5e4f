"""Traced CLI job: wrap the public functions of each quasiinv module, run
`quasiinv.cli.main(argv)`, and write the span totals as JSON at exit.

    python3 perfbench/launcher.py TRACE_OUT [--selftest] -- ARGV...

Spans stay in memory. A span's self time is its duration minus the time
its child spans cover. With --selftest the job also runs under cProfile,
and the wrapper call counts are compared with cProfile's counts for the
same functions, which exposes any binding the wrappers missed.
"""

from __future__ import annotations

import json
import sys
from math import comb
from time import perf_counter


def _ga_terms(args, result, extra):
    extra["symgroup.apply.ga_terms"] += len(args[0].terms)


def _term_pairs(args, result, extra):
    other = args[1]
    if hasattr(other, "terms"):
        extra["symgroup.convolve.term_pairs"] += len(args[0].terms) * len(other.terms)


def _constraint_rows(args, result, extra):
    extra["quasi.matrix.rows"] += len(result)
    extra["quasi.matrix.nnz"] += sum(
        len(row) if isinstance(row, dict) else sum(1 for x in row if x) for row in result
    )


def _witness(args, result, extra):
    # one column per degree-d monomial in n variables; rank = cols - nullity
    cols = comb(result.n + result.degree - 1, result.n - 1)
    extra["quasi.matrix.cols"] += cols
    extra["quasi.matrix.rank"] += cols - result.dimension
    bits = [
        max(abs(c.numerator).bit_length(), c.denominator.bit_length())
        for p in result.basis for c in p.terms.values()
    ]
    extra["quasi.witness.max_bits"] = max(extra["quasi.witness.max_bits"], *bits, 0)


def _out_bytes(args, result, extra):
    extra["jsonio.out_bytes"] += len(result.encode())


# (span name, module, attribute path, hook run after the call with
# (args, result, extra counters)).  A target that no longer exists is
# reported as absent rather than failing the job.
TARGETS = (
    ("exactalg.MultiPoly.init", "quasiinv.exactalg", "MultiPoly.__init__", None),
    ("exactalg.MultiPoly.mul", "quasiinv.exactalg", "MultiPoly.__mul__", None),
    ("exactalg.MultiPoly.add", "quasiinv.exactalg", "MultiPoly.__add__", None),
    ("exactalg.divide_exact", "quasiinv.exactalg", "divide_exact", None),
    ("exactalg.binomial_valuation", "quasiinv.exactalg", "binomial_valuation", None),
    ("exactalg.t_integrate_definite", "quasiinv.exactalg", "t_integrate_definite", None),
    ("exactalg.substitute", "quasiinv.exactalg", "substitute", None),
    ("symgroup.act", "quasiinv.symgroup", "act", None),
    ("symgroup.apply", "quasiinv.symgroup", "GroupAlgebraElem.apply", _ga_terms),
    ("symgroup.convolve", "quasiinv.symgroup", "GroupAlgebraElem.__mul__", _term_pairs),
    ("tableaux.gamma", "quasiinv.tableaux", "gamma", None),
    ("quasi.oracle", "quasiinv.quasi", "graded_dimension_oracle", _witness),
    ("quasi.constraint_rows", "quasiinv.quasi", "_constraint_rows", _constraint_rows),
    ("quasi.nullspace", "quasiinv.quasi", "integer_nullspace", None),
    ("quasi.echelon", "quasiinv.quasi", "bareiss_echelon", None),
    ("quasi.poly_rank", "quasiinv.quasi", "poly_rank", None),
    ("quasi.is_quasiinvariant", "quasiinv.quasi", "is_quasiinvariant", None),
    ("hookbasis.q_integral", "quasiinv.hookbasis", "q_integral", None),
    ("hookbasis.q_closed_form", "quasiinv.hookbasis", "q_closed_form", None),
    ("calogero.apply_lm", "quasiinv.calogero", "apply_lm", None),
    ("structure.full_hilbert", "quasiinv.structure", "full_hilbert", None),
    ("jsonio.serialize", "quasiinv.jsonio", "dumps", _out_bytes),
)

EXTRA_COUNTERS = (
    "symgroup.apply.ga_terms",
    "symgroup.convolve.term_pairs",
    "quasi.matrix.rows",
    "quasi.matrix.cols",
    "quasi.matrix.nnz",
    "quasi.matrix.rank",
    "quasi.witness.max_bits",
    "jsonio.out_bytes",
)


class Tracer:
    """Per-span call counts, self time and inclusive time, kept in memory."""

    def __init__(self):
        self.stack = [[0.0]]  # child time covered, one entry per open span
        self.spans = {}  # name -> [calls, self_s, inclusive_s]
        self.extra = dict.fromkeys(EXTRA_COUNTERS, 0)
        self.hook_s = 0.0

    def wrap(self, name, fn, hook=None):
        stack, extra = self.stack, self.extra
        record = self.spans.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            covered = [0.0]
            stack.append(covered)
            t0 = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
                stack[-1][0] += duration
                record[0] += 1
                record[1] += duration - covered[0]
                record[2] += duration
            if hook is not None:
                # counting is tracing work: hide it from the caller's self time
                h0 = perf_counter()
                hook(args, return_value, extra)
                spent = perf_counter() - h0
                stack[-1][0] += spent
                self.hook_s += spent
            return return_value

        return wrapper


def _resolve(module_name, path):
    """(holder, original) for ``path`` in ``module_name``, or None."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    owner, _, attr = path.rpartition(".")
    holder = getattr(module, owner, None) if owner else module
    if holder is None:
        return None
    original = (vars(holder) if owner else vars(module)).get(attr)
    if original is None:
        return None
    return holder, original


def install(tracer: Tracer):
    """Replace every binding of each target in the loaded quasiinv modules
    and classes.  Returns (installed {span: original}, absent [span])."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "quasiinv" or name.startswith("quasiinv."))]
    installed, absent = {}, []
    for name, module_name, path, hook in TARGETS:
        found = _resolve(module_name, path)
        if found is None:
            absent.append(name)
            continue
        holder, original = found
        wrapper = tracer.wrap(name, original, hook)
        namespaces = [holder] if isinstance(holder, type) else modules
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, wrapper)
        installed[name] = original
    return installed, absent


def wrapper_cost(calls=20000) -> float:
    """Seconds one wrapped call costs beyond the bare call."""
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    bare = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (perf_counter() - t0 - bare) / calls)


def _profile_mismatches(profile, installed, spans):
    import pstats

    stats = pstats.Stats(profile).stats
    by_code = {key: value[1] for key, value in stats.items()}
    out = []
    for name, original in installed.items():
        code = getattr(original, "__code__", None)
        if code is None:
            continue
        profiled = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        if profiled != spans[name][0]:
            out.append({"span": name, "wrapper_calls": spans[name][0],
                        "profile_calls": profiled})
    return out


def main(argv) -> int:
    trace_out = argv[0]
    selftest = argv[1] == "--selftest"
    job_argv = argv[argv.index("--") + 1:]

    import quasiinv  # noqa: F401  (loads every module before wrapping)
    import quasiinv.cli as cli

    tracer = Tracer()
    installed, absent = install(tracer)
    profile = None
    if selftest:
        import cProfile

        profile = cProfile.Profile()
        profile.enable()
    code = 1
    t0 = perf_counter()
    try:
        code = cli.main(job_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        busy = perf_counter() - t0
        if profile is not None:
            profile.disable()
        sys.stdout.flush()
        calls = sum(record[0] for record in tracer.spans.values())
        report = {
            "busy_s": busy,
            "covered_s": tracer.stack[0][0],
            "spans": tracer.spans,
            "extra": tracer.extra,
            "absent": absent,
            "overhead_s": tracer.hook_s + calls * wrapper_cost(),
        }
        if profile is not None:
            report["selftest_mismatches"] = _profile_mismatches(
                profile, installed, tracer.spans)
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
