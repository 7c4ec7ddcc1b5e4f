"""Workload job lists, seeded inputs and output checks.

A job is one `python -m quasiinv ...` command line. The seed picks only
inputs that leave a job's size unchanged: seeded random polynomials, the
tableau filling or hook index, and job order. `verify --seed` is fixed,
because it sets how much a sampled suite computes.
Every check here runs outside the timed window.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")
GAMMA_TERMS = 40  # monomials in each random input to `apply --op gamma`


@dataclass
class Job:
    """One CLI invocation and how to check what it printed."""

    argv: list
    kind: str  # verify | hilbert | oracle | basis | gamma | lm | delta2
    digest: bool = False
    context: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Workload:
    name: str
    jobs: list
    selftest: Job  # small job whose trace counts are checked against cProfile


# -- seeded inputs --------------------------------------------------------


def random_standard_tableau(rng: random.Random, shape) -> list:
    """Rows of a standard Young tableau of ``shape``, filled 1..n by adding
    each value at a randomly chosen addable corner."""
    rows = [[] for _ in shape]
    for value in range(1, sum(shape) + 1):
        corners = [
            r for r, length in enumerate(shape)
            if len(rows[r]) < length and (r == 0 or len(rows[r - 1]) > len(rows[r]))
        ]
        rows[rng.choice(corners)].append(value)
    return rows


def random_composition(rng: random.Random, n: int, degree: int) -> tuple:
    cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
    bounds = [0, *cuts, degree]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def random_homogeneous(rng: random.Random, n: int, degree: int, nterms: int) -> dict:
    """``nterms`` distinct degree-``degree`` monomials with nonzero rationals."""
    terms = {}
    while len(terms) < nterms:
        exp = random_composition(rng, n, degree)
        terms[exp] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))
    return terms


def partitions(total: int, max_part: int, max_len: int):
    if total == 0:
        yield ()
        return
    if max_len == 0:
        return
    for part in range(min(total, max_part), 0, -1):
        for rest in partitions(total - part, part, max_len - 1):
            yield (part, *rest)


def random_symmetric(rng: random.Random, n: int, degree: int) -> dict:
    """Sum over every partition of ``degree`` into at most n parts of a
    seeded nonzero multiple of its monomial symmetric function."""
    terms = {}
    for lam in partitions(degree, degree, n):
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))
        for exp in set(permutations(lam + (0,) * (n - len(lam)))):
            terms[exp] = coeff
    return terms


def poly_to_json(n: int, terms: dict) -> str:
    ordered = sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    return json.dumps({
        "nvars": n,
        "terms": [{"exp": list(e), "num": str(c.numerator), "den": str(c.denominator)}
                  for e, c in ordered],
    })


def poly_from_json(obj: dict) -> dict:
    return {tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"])) for t in obj["terms"]}


def poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def vandermonde_squared(n: int) -> dict:
    result = {(0,) * n: Fraction(1)}
    for i in range(n):
        for j in range(i + 1, n):
            xi = tuple(int(k == i) for k in range(n))
            xj = tuple(int(k == j) for k in range(n))
            diff = {xi: Fraction(1), xj: Fraction(-1)}
            result = poly_mul(result, poly_mul(diff, diff))
    return result


# -- workloads -------------------------------------------------------------


def _gamma_job(rng, work: Path, tag: str, shape, degree: int, nterms: int) -> Job:
    n = sum(shape)
    rows = random_standard_tableau(rng, shape)
    path = work / f"{tag}.json"
    path.write_text(poly_to_json(n, random_homogeneous(rng, n, degree, nterms)))
    argv = ["apply", "--op", "gamma", "--tableau", json.dumps(rows), "--in", str(path)]
    return Job(argv, "gamma", context={"rows": rows})


def _symmetric_job(rng, work: Path, tag: str, op: str, n: int, degree: int, m: int) -> Job:
    terms = random_symmetric(rng, n, degree)
    path = work / f"{tag}.json"
    path.write_text(poly_to_json(n, terms))
    argv = ["apply", "--op", op, "--m", str(m), "--in", str(path)]
    return Job(argv, op, context={"n": n, "degree": degree, "input": terms})


def build(name: str, seed: int, work: Path) -> Workload:
    """The job list of workload ``name`` for ``seed``; input files go to ``work``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "oracle":
        jobs = [
            Job(["hilbert", "--n", "4", "--m", "1", "--D", "7", "--oracle"], "hilbert", True),
            Job(["hilbert", "--n", "4", "--m", "2", "--D", "7", "--oracle"], "hilbert", True),
            Job(["oracle", "--n", "4", "--m", "2", "--d", "8"], "oracle", True),
            Job(["oracle", "--n", "3", "--m", "3", "--d", "12"], "oracle", True),
        ]
        selftest = Job(["oracle", "--n", "3", "--m", "1", "--d", "6"], "oracle", True)
    elif name == "projector":
        # `verify --seed` is fixed: it picks how many random members the
        # suites draw and how large they are, so it sets a job's size
        jobs = [
            Job(["verify", "--suite", "thm-main", "--n", "3", "--m", "2", "--seed", "1"], "verify"),
            Job(["verify", "--suite", "groupalgebra", "--n", "4", "--seed", "1"], "verify"),
            Job(["verify", "--suite", "groupalgebra", "--n", "5", "--seed", "1"], "verify"),
            _gamma_job(rng, work, "gamma5a", (3, 2), 6, GAMMA_TERMS),
            _gamma_job(rng, work, "gamma5b", (2, 2, 1), 6, GAMMA_TERMS),
            _gamma_job(rng, work, "gamma6a", (3, 2, 1), 6, GAMMA_TERMS),
            _gamma_job(rng, work, "gamma6b", (4, 2), 6, GAMMA_TERMS),
        ]
        selftest = Job(["verify", "--suite", "groupalgebra", "--n", "3", "--seed", "1"], "verify")
    elif name == "hook":
        jobs = [
            Job(["basis", "--n", "5", "--m", "2", "--j", str(rng.randint(2, 5)), "--verify"],
                "basis", True),
            Job(["verify", "--suite", "lm", "--n", "4", "--m", "2"], "verify"),
            Job(["verify", "--suite", "hook", "--n", "4", "--m", "2"], "verify"),
            _symmetric_job(rng, work, "lm", "lm", 5, 8, 2),
            _symmetric_job(rng, work, "delta2", "delta2", 4, 6, 1),
        ]
        selftest = Job(["verify", "--suite", "hook", "--n", "3", "--m", "1"], "verify")
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(jobs)
    return Workload(name, jobs, selftest)


NAMES = ("oracle", "projector", "hook")


# -- output checks ---------------------------------------------------------


class OutputChecker:
    """Checks job outputs; ``gamma`` is the program's own projector, used
    to test idempotence of its images."""

    def __init__(self, gamma_fn, tableau_cls, poly_from_obj):
        self.gamma = gamma_fn
        self.tableau = tableau_cls
        self.poly_from_obj = poly_from_obj
        self.digests = json.loads(DIGESTS.read_text())

    def check(self, job: Job, out: bytes) -> str | None:
        """None when ``out`` is right for ``job``, else the reason it is not."""
        if job.digest:
            want = self.digests.get(job.key)
            if want is None:
                return "no committed digest for this size"
            if hashlib.sha256(out).hexdigest() != want:
                return "output differs from the committed digest"
        text = out.decode()
        if job.kind == "verify":
            return _check_verify(text)
        obj = json.loads(text)
        if job.kind == "hilbert":
            if not obj.get("oracle") or not all(e["match"] for e in obj["oracle"]):
                return "oracle and series disagree"
        elif job.kind == "oracle":
            if obj["dimension"] != len(obj["basis"]):
                return "dimension differs from basis length"
        elif job.kind == "basis":
            if obj.get("verified") is not True:
                return "basis not verified"
        elif job.kind == "gamma":
            image = self.poly_from_obj(obj)
            if self.gamma(self.tableau(job.context["rows"])).apply(image) != image:
                return "gamma image is not fixed by gamma"
        elif job.kind == "lm":
            return _check_symmetric(poly_from_json(obj), job.context["degree"] - 2)
        elif job.kind == "delta2":
            want = poly_mul(vandermonde_squared(job.context["n"]), job.context["input"])
            if poly_from_json(obj) != want:
                return "delta2 image is not Delta^2 times the input"
        return None


def _check_verify(text: str) -> str | None:
    lines = text.rstrip("\n").split("\n")
    results = lines[1:-1]
    if not results or any("FAIL" in line for line in lines):
        return "verify printed FAIL or no result line"
    if not all(": PASS (" in line for line in results):
        return "verify result line without PASS"
    if lines[-1] != f"result: {len(results)}/{len(results)} passed":
        return f"unexpected verify summary {lines[-1]!r}"
    return None


def _check_symmetric(terms: dict, degree: int) -> str | None:
    """Homogeneous of ``degree`` and fixed by every permutation of variables."""
    for exp, c in terms.items():
        if sum(exp) != degree:
            return "lm image is not homogeneous of degree d-2"
        if any(terms.get(p) != c for p in set(permutations(exp))):
            return "lm image of a symmetric polynomial is not symmetric"
    return None
