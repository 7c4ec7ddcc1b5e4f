"""Closed-loop CLI benchmark for quasiinv: one client, one job at a time,
each job a fresh `python -m quasiinv ...` process.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

--trace 0 cycles through the workload's job list until --seconds is spent
and reports the end-to-end metrics, each time scaled to a fixed host speed
(see ``HostClock``).  --trace 1 runs the job list once through
perfbench/launcher.py, which wraps each module's public functions, and
reports the per-layer metrics.  Outputs are checked after the timing ends.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Run it from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
JOB_TIMEOUT_S = 150
SETUP_ARGV = ["detcheck", "--m", "0"]
# spans whose inclusive time is reported as well: the stable entry points
# of the oracle and of the Young projectors
INCLUSIVE = ("quasi.oracle", "symgroup.apply", "tableaux.gamma")

sys.path.insert(0, str(HERE))
import launcher  # noqa: E402
import workloads  # noqa: E402


class HostClock:
    """Host speed, measured by a fixed pure-Python reference loop.

    On a shared VM the same job runs at speeds that differ by up to a
    factor of two, in states that last from milliseconds to minutes, with
    child CPU time equal to wall time.  The benchmark process times the
    reference loop on the same CPU between jobs; a job's time is scaled by
    ``NOMINAL_S`` over the mean of the reference times taken just before
    and just after it.  A scaled time is thus in seconds at the speed where
    one reference pass takes ``NOMINAL_S``; a change to the program moves
    it in full, a change of host speed mostly not.  The scaling follows
    only states that outlast a job, which is why jobs take about a second.
    """

    NOMINAL_S = 0.010  # about one reference pass on an uncontended 2.0 GHz Xeon vCPU, Python 3.11
    PASSES = 3

    def __init__(self):
        for _ in range(self.PASSES):  # warm the allocator and the Fraction code
            self._reference()
        self.last = self.sample()

    @staticmethod
    def _reference() -> float:
        """Seconds for the reference loop: the rational and dict arithmetic
        the program itself spends its time on."""
        t0 = perf_counter()
        total = Fraction(0)
        for i in range(1, 2000):
            total += Fraction(1, i)
        counts = {}
        for i in range(25000):
            key = (i * 7919) % 1009
            counts[key] = counts.get(key, 0) + i
        return perf_counter() - t0

    def sample(self) -> float:
        """Median reference time now."""
        return statistics.median(self._reference() for _ in range(self.PASSES))

    def scale_since_last(self) -> float:
        """Factor that takes a time measured since the previous call (or
        since creation) to nominal speed; takes a new reference sample."""
        now = self.sample()
        factor = self.NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        return factor


@dataclass
class Run:
    code: int
    timed_out: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: bytes
    err: bytes


def child_env() -> dict:
    """The caller's environment without QI_* overrides, importing ./src."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QI_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(cmd: list, env: dict, tag: str) -> Run:
    """Run ``cmd`` to completion; rusage comes from wait4 for this child only."""
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], JOB_TIMEOUT_S)[0]
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
            os.close(pidfd)
        wall = perf_counter() - t0
    return Run(proc.returncode, timed_out, wall, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss / 1024, out_path.read_bytes(), err_path.read_bytes())


def make_checker() -> workloads.OutputChecker:
    sys.path.insert(0, str(ROOT / "src"))
    from quasiinv.jsonio import poly_from_obj
    from quasiinv.tableaux import Tableau, gamma

    return workloads.OutputChecker(gamma, Tableau, poly_from_obj)


def failure(checker, job, run: Run, reference: Run | None = None) -> str | None:
    """Why ``run`` of ``job`` failed, or None.  A repeat run must print the
    same bytes as ``reference``, the job's first run, which is fully checked."""
    if run.timed_out:
        return f"timed out after {JOB_TIMEOUT_S} s"
    if run.code != 0:
        return f"exit code {run.code}: {run.err.decode(errors='replace').strip()[-300:]}"
    if reference is not None:
        return None if run.out == reference.out else "output changed between repeats"
    try:
        return checker.check(job, run.out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def check_runs(checker, jobs, runs) -> list:
    """(job, reason) for every failed run.  ``runs`` holds (job index, Run)
    in the order run; a job's first run is fully checked, and when it
    fails, every later run of that job fails with it."""
    failures, first_run, first_reason = [], {}, {}
    for i, run in runs:
        if i not in first_run:
            first_run[i] = run
            reason = first_reason[i] = failure(checker, jobs[i], run)
        else:
            reason = first_reason[i] or failure(checker, jobs[i], run, first_run[i])
        if reason:
            failures.append((jobs[i], reason))
    return failures


def run_untraced(wl: workloads.Workload, seconds: int, env) -> dict:
    """Cycle through the job list, one job at a time, while the next job's
    median time still fits in ``seconds``; the list always runs once in
    full.  Each job is preceded by one set-up sample, a trivial command,
    so that set-up samples are spread over the run like the jobs.  Every
    time is scaled to nominal host speed by ``HostClock``; a job's value is
    the median of its scaled runs."""
    cmd = [sys.executable, "-m", "quasiinv"]
    spawn(cmd + SETUP_ARGV, env, "setup")  # writes bytecode caches on a fresh checkout
    clock = HostClock()
    setups, runs = [], []
    raw = [[] for _ in wl.jobs]
    scaled = [[] for _ in wl.jobs]
    setup_scaled, factors = [], []
    start = perf_counter()
    for k in itertools.count():
        i = k % len(wl.jobs)
        if raw[i] and perf_counter() - start + statistics.median(raw[i]) > seconds:
            break
        setup = spawn(cmd + SETUP_ARGV, env, "setup")
        run = spawn(cmd + wl.jobs[i].argv, env, f"job{i}")
        factor = clock.scale_since_last()
        setups.append(setup)
        runs.append((i, run))
        factors.append(factor)
        setup_scaled.append(setup.wall_s * factor)
        raw[i].append(run.wall_s)
        scaled[i].append(run.wall_s * factor)
    failures = check_runs(make_checker(), wl.jobs, runs)
    failures += [(None, "set-up command failed") for r in setups
                 if r.code != 0 or b'"equals_vandermonde_squared":true' not in r.out]
    per_job = [statistics.median(t) for t in scaled]
    for job, r, t in zip(wl.jobs, raw, per_job):
        print(f"[{wl.name}] {len(r):3d} runs  median {statistics.median(r):8.3f} s  "
              f"scaled {t:8.3f} s  {job.key}", file=sys.stderr)
    print(f"[{wl.name}] host speed factor median {statistics.median(factors):.3f} "
          f"range {min(factors):.3f}-{max(factors):.3f}; set-up median "
          f"{statistics.median(r.wall_s for r in setups):.4f} s", file=sys.stderr)
    return {
        "failures": failures,
        "attempted": len(runs) + len(setups),
        "samples": {"job_runs": len(runs), "jobs": len(wl.jobs), "setup": len(setups)},
        "metrics": {
            "wall_s": (sum(per_job), "s"),
            "job_p50_s": (statistics.median(per_job), "s"),
            "job_max_s": (max(per_job), "s"),
            "setup_s": (statistics.median(setup_scaled), "s"),
            "peak_rss_mb": (max(r.rss_mb for _, r in runs), "MB"),
        },
    }


def per_layer_names() -> list:
    """(metric, unit) for every per-layer metric, in report order."""
    names = []
    for span, *_ in launcher.TARGETS:
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
        if span in INCLUSIVE:
            names.append((f"{span}.busy_s", "s"))
    units = {"quasi.witness.max_bits": "bits", "jsonio.out_bytes": "bytes"}
    names += [(c, units.get(c, "count")) for c in launcher.EXTRA_COUNTERS]
    modules = dict.fromkeys(span.split(".")[0] for span, *_ in launcher.TARGETS)
    names += [(f"{m}.self_s", "s") for m in modules]
    names += [("cli.job.calls", "count"), ("cli.job.busy_s", "s"), ("cli.self_s", "s"),
              ("cli.job.wall_s", "s"), ("cli.job.cpu_s", "s"), ("trace.overhead_s", "s"),
              ("trace.absent_targets", "count"), ("trace.selftest.mismatches", "count")]
    return names


def run_traced(wl: workloads.Workload, env) -> dict:
    cmd = [sys.executable, str(HERE / "launcher.py")]
    runs, traces = [], []
    for i, job in enumerate(wl.jobs):
        runs.append(spawn(cmd + [str(WORK / f"trace{i}.json"), "--", *job.argv], env, f"job{i}"))
        traces.append(_read_trace(WORK / f"trace{i}.json"))
    test_run = spawn(cmd + [str(WORK / "selftest.json"), "--selftest", "--", *wl.selftest.argv],
                     env, "selftest")
    selftest = _read_trace(WORK / "selftest.json")
    checker = make_checker()
    failures = check_runs(checker, wl.jobs + [wl.selftest], list(enumerate(runs + [test_run])))
    failures += [(None, "launcher wrote no trace")] * sum(t is None for t in traces + [selftest])
    traces = [t for t in traces if t is not None]

    values = dict.fromkeys((name for name, _ in per_layer_names()), 0)
    for trace in traces:
        for span, (calls, self_s, inclusive_s) in trace["spans"].items():
            values[f"{span}.calls"] += calls
            values[f"{span}.self_s"] += self_s
            values[f"{span.split('.')[0]}.self_s"] += self_s
            if span in INCLUSIVE:
                values[f"{span}.busy_s"] += inclusive_s
        for counter, value in trace["extra"].items():
            if counter == "quasi.witness.max_bits":
                values[counter] = max(values[counter], value)
            else:
                values[counter] += value
        values["cli.job.busy_s"] += trace["busy_s"]
        values["cli.self_s"] += trace["busy_s"] - trace["covered_s"]
        values["trace.overhead_s"] += trace["overhead_s"]
    values["cli.job.calls"] = len(traces)
    values["cli.job.wall_s"] = sum(r.wall_s for r in runs)
    values["cli.job.cpu_s"] = sum(r.cpu_s for r in runs)
    absent = sorted({name for t in traces + [selftest] if t for name in t["absent"]})
    mismatches = selftest["selftest_mismatches"] if selftest else []
    values["trace.absent_targets"] = len(absent)
    values["trace.selftest.mismatches"] = len(mismatches)
    if absent:
        print(f"[{wl.name}] absent trace targets: {', '.join(absent)}", file=sys.stderr)
    for m in mismatches:
        print(f"[{wl.name}] trace self-test mismatch: {m}", file=sys.stderr)
    for job, run in zip(wl.jobs, runs):
        print(f"[{wl.name}] traced job wall {run.wall_s:8.3f} s  cpu {run.cpu_s:8.3f} s  "
              f"{job.key}", file=sys.stderr)
    units = dict(per_layer_names())
    return {
        "failures": failures,
        "attempted": len(wl.jobs) + 1,
        "samples": {"jobs": len(wl.jobs)},
        "metrics": {name: (value, units[name]) for name, value in values.items()},
    }


def _read_trace(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    wl = workloads.build(name, seed, WORK)
    env = child_env()
    result = run_traced(wl, env) if trace else run_untraced(wl, seconds, env)
    _print_summary(name, result)
    return result


def _print_summary(name: str, result: dict):
    failed = len(result["failures"])
    print(f"[{name}] samples {result['samples']}  attempted {result['attempted']}  "
          f"failed {failed}  fail_ratio {failed / result['attempted']:.4f}", file=sys.stderr)
    for job, reason in result["failures"]:
        print(f"[{name}] FAILED {job.key if job else 'setup'}: {reason}", file=sys.stderr)
    for metric, (value, unit) in result["metrics"].items():
        print(f"[{name}] {metric:36s} {value:>14.6g} {unit}", file=sys.stderr)


def _result_line(attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quasiinv" / "cli.py").is_file():
        print(f"error: no quasiinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one CPU for this process and every child, so that the reference loop
    # and the jobs it scales run on the same vCPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(results) == 1:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(_result_line(sum(r["attempted"] for r in results.values()),
                       sum(len(r["failures"]) for r in results.values()), metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
