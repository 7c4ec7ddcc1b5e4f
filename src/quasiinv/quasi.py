"""The brute-force graded-dimension oracle, its exact elimination core,
and the checks built on the oracle and the quasiinvariance predicate.

The defining condition lives in ``predicate``: ``_pair_terms`` gives one
sparse integer row per (pair, odd u-power, residual monomial) over a list
of monomials, and the oracle takes those rows over all monomials of
degree d (``_constraint_rows``) and computes their exact integer
nullspace.  The checks built on the predicate and the oracle alone are
here too: the containment chain with the Delta^2 embedding of QI_m into
QI_(m+1), the Sym-basis certificate, and on it the n = 2 change of basis
between QI_(m+1) and QI_m.  The module depends on ``exactalg`` and
``predicate`` alone; the checks of the projection characterization, which
also need the Young projectors, are in ``structure``.  The handlers of
the ``oracle`` and ``detcheck`` commands, which print the witness and the
n = 2 change of basis, are here too.

The one linear-algebra core behind the oracle and ``poly_rank`` finds the
pivot pattern by sparse elimination modulo a 61-bit prime, lifts the
reduced kernel basis to Q by rational reconstruction, on int pairs
(numerator, denominator) scaled to a primitive integer vector by the lcm of
the denominators, and returns it only after checking every vector exactly
against the integer rows; a failed lift or check brings in further primes,
never a guess.
"""

from __future__ import annotations

import functools
import itertools
import math
import os

from .exactalg import (
    MultiPoly,
    ResourceGuardError,
    TheoremViolationError,
    elementary_symmetric,
    vandermonde,
)
from .predicate import _pair_terms, is_quasiinvariant

ORACLE_MAX_N = 5
DEFAULT_DEGREE_CAP = 12


def degree_cap() -> int:
    value = os.environ.get("QI_MAX_DEGREE") or str(DEFAULT_DEGREE_CAP)
    if not (value.isascii() and value.isdigit()):
        raise ValueError(f"QI_MAX_DEGREE must be a non-negative integer, got {value!r}")
    return int(value)


def _refuse_above_cap(d: int):
    if d > degree_cap():
        raise ResourceGuardError(
            f"degree {d} above cap {degree_cap()} (set QI_MAX_DEGREE to raise)")


def _refuse_oracle_n(n: int):
    if n < 1:
        raise ValueError(f"oracle needs n >= 1, got {n}")
    if n > ORACLE_MAX_N:
        raise ResourceGuardError(f"oracle limited to n <= {ORACLE_MAX_N}, got {n}")


def is_sym_basis(gens, m: int) -> bool:
    """True iff ``gens`` are n! homogeneous m-quasiinvariants of degree sum
    K = (2m+1) C(n,2) n!/2 whose values at the permutations of (0, ..., n-1)
    have an empty exact kernel, which proves them a basis of QI_m over Sym.

    Proof: let M(x) have rows (sigma g_i)(x), sigma in S_n.  Row sigma minus
    row (a b) sigma lies in (1 - (a b)) QI_m, so the n!/2 such pairs put
    (x_a - x_b)^((2m+1) n!/2) in det M(x); the factors are coprime, so
    det M(x) = c V^((2m+1) n!/2) by degree, V the Vandermonde, and c != 0 as
    M is nonsingular at the point.  Sum s_i g_i = 0 over Sym gives
    M(x) s = 0, so s = 0.  For P in QI_m, Cramer's rule solves
    M(x) s = (sigma P)_sigma with numerators divisible by the same power of
    V, so the s_i are polynomials, symmetric as tau in S_n permutes the rows
    of the unique solution, and P = sum s_i g_i.
    """
    n = gens[0].nvars if gens else 0
    twice_k = (2 * m + 1) * math.comb(n, 2) * math.factorial(n)
    if (len(gens) != math.factorial(n) or 2 * sum(g.degree() for g in gens) != twice_k
            or any(g.nvars != n or not g.is_homogeneous() for g in gens)
            or not all(is_quasiinvariant(g, m) for g in gens)):
        return False
    rows = [{i: v for i, g in enumerate(gens)
             if (v := sum(c * math.prod(map(pow, x, e)) for e, c in g.num.items()))}
            for x in itertools.permutations(range(n))]
    return not integer_nullspace(rows, len(gens))


def change_of_basis_n2(m: int):
    """The 2x2 change-of-basis experiment between QI_(m+1) and QI_m.

    {1, (x_1 - x_2)^(2m+1)} and {1, (x_1 - x_2)^(2m+3)} are proved bases
    of QI_m and QI_(m+1) over Sym by ``is_sym_basis``, with 2m+3 held to
    the degree cap.  Returns (matrix, determinant); the determinant equals
    the squared Vandermonde in two variables.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    _refuse_above_cap(2 * m + 3)
    n = 2
    x1 = MultiPoly.variable(n, 1)
    x2 = MultiPoly.variable(n, 2)
    one = MultiPoly.constant(n, 1)
    b1 = (x1 - x2) ** (2 * m + 1)
    a1 = (x1 - x2) ** (2 * m + 3)
    if not (is_sym_basis([one, b1], m) and is_sym_basis([one, a1], m + 1)):
        raise TheoremViolationError("claimed basis is not a Sym-basis")
    e1 = elementary_symmetric(n, 1)
    e2 = elementary_symmetric(n, 2)
    growth = e1 * e1 - e2 * 4
    if a1 != growth * b1:
        raise TheoremViolationError(
            "expansion (x1-x2)^(2m+3) = (e1^2-4e2)(x1-x2)^(2m+1) failed")
    zero = MultiPoly.zero(n)
    matrix = ((one, zero), (zero, growth))
    determinant = matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    if determinant != vandermonde(n) ** 2:
        raise TheoremViolationError("determinant is not the squared Vandermonde")
    return matrix, determinant


def delta_sq_chain_check(n: int, m: int, max_degree: int) -> dict:
    """Check that Delta^2 QI_m sits inside QI_(m+1) and QI_(m+1) inside
    QI_m, on every oracle basis element of degree 0..max_degree."""
    report = {"n": n, "m": m, "max_degree": max_degree, "embedded": 0,
              "chained": 0, "failures": []}
    delta_sq = vandermonde(n) ** 2
    for d in range(max_degree + 1):
        for p in graded_dimension_oracle(n, m, d).basis:
            if is_quasiinvariant(delta_sq * p, m + 1):
                report["embedded"] += 1
            else:
                report["failures"].append(("embed", d))
        for p in graded_dimension_oracle(n, m + 1, d).basis:
            report["chained"] += 1
            if not is_quasiinvariant(p, m):
                report["failures"].append(("chain", d))
    report["passed"] = not report["failures"]
    return report


# -- exact linear algebra -------------------------------------------------
#
# One sparse core serves the oracle and poly_rank.  A row is a dict
# {column: int} with no zero entries.  The pivot pattern comes from a
# reduced row echelon form modulo a 61-bit prime; the kernel is lifted to Q
# by rational reconstruction (Wang 1981; Monagan 2004) and every vector is
# checked exactly against the integer rows before anything is returned.


@functools.cache
def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24.
    Cached, since every nullspace call walks the same primes from 2^61 - 1."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """The primes below 2^61 in descending order, found as they are needed."""
    p = (1 << 61) - 1
    while True:
        if _is_prime(p):
            yield p
        p -= 2


def _rref_mod(rows, p):
    """Reduced row echelon form of ``rows`` modulo the prime p, built one
    row at a time: {pivot column: row}.  Each stored row is 1 at its pivot,
    0 at every other pivot column and 0 left of its pivot, so the pivot set
    is the column rank profile modulo p.  That form does not depend on the
    row order; taking the sparsest rows first keeps the fill-in small."""
    reduced = {}
    for row in sorted(rows, key=len):
        r = dict(row)
        for c in [c for c in r if c in reduced]:
            coef = r.pop(c)
            for col, v in reduced[c].items():
                if col != c:
                    r[col] = r.get(col, 0) - coef * v
        r = {c: v % p for c, v in r.items() if v % p}
        if not r:
            continue
        pivot = min(r)
        inv = pow(r[pivot], -1, p)
        r = {c: v * inv % p for c, v in r.items()}
        for other in reduced.values():
            coef = other.pop(pivot, 0)
            if coef:
                for col, v in r.items():
                    if col != pivot:
                        x = (other.get(col, 0) - coef * v) % p
                        if x:
                            other[col] = x
                        else:
                            del other[col]
        reduced[pivot] = r
    return reduced


def _kernel_mod(reduced, ncols, p):
    """The reduced kernel basis modulo p, {free column f: {column: residue}}:
    1 at f, 0 at every other free column."""
    kernel = {f: {f: 1} for f in range(ncols) if f not in reduced}
    for c, row in reduced.items():
        for f, v in row.items():
            if f != c:
                kernel[f][c] = -v % p
    return kernel


def _rational(a: int, modulus: int):
    """The fraction n/d with |n|, d <= sqrt(modulus / 2) and n = a d mod
    modulus, as the int pair (n, d) with d > 0, or None when there is none
    (Wang's reconstruction).  The pair is in lowest terms: the remainder
    and cofactor of the extended Euclidean step share only divisors of the
    modulus, and the cofactor is checked coprime to it."""
    bound = math.isqrt(modulus // 2)
    r0, r1 = modulus, a % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or math.gcd(s1, modulus) != 1:
        return None
    return (-r1, -s1) if s1 < 0 else (r1, s1)


def _lift(kernel, modulus):
    """Primitive integer vectors with a positive lead entry, one per kernel
    residue vector, or None when a rational reconstruction fails.  Each
    vector is scaled by the lcm of its denominators on ints."""
    basis = []
    for residues in kernel.values():
        cols = sorted(residues)
        pairs = [_rational(residues[c], modulus) for c in cols]
        if None in pairs:
            return None
        scale = math.lcm(*(d for _, d in pairs))
        ints = [num * (scale // d) for num, d in pairs]
        g = math.gcd(*ints)
        if ints[0] < 0:
            g = -g
        basis.append({c: x // g for c, x in zip(cols, ints)})
    return basis


def _annihilates(rows, basis) -> bool:
    """True iff every row times every basis vector is exactly 0."""
    by_col = {}
    for k, vec in enumerate(basis):
        for c, v in vec.items():
            by_col.setdefault(c, []).append((k, v))
    for row in rows:
        sums = {}
        for c, a in row.items():
            for k, v in by_col.get(c, ()):
                sums[k] = sums.get(k, 0) + a * v
        if any(sums.values()):
            return False
    return True


def integer_nullspace(rows, ncols):
    """Nullspace basis of an integer matrix given as sparse rows
    {column: int}.

    Returns one vector {column: int} per free column of the column rank
    profile, in column order: the kernel vector that is 1 at its own free
    column and 0 at the other free columns, scaled to a primitive integer
    vector whose first nonzero entry is positive.  The basis is fixed by
    the matrix, whatever the elimination order.

    Certificate: the nullity modulo p bounds the nullity over Q from above,
    so that many exactly verified kernel vectors, independent because of
    their free columns, prove the dimension.  A verified vector with free
    column f also shows that column f depends on the columns left of it, so
    the free columns are those of the exact column rank profile.  On a
    failed reconstruction or check, further primes are combined by CRT;
    a prime whose pivot set is worse than one seen before is skipped.
    """
    rows = [row for row in rows if row]
    best = None
    for p in _primes():
        reduced = _rref_mod(rows, p)
        key = (-len(reduced), sorted(reduced))
        kernel = _kernel_mod(reduced, ncols, p)
        if best is None or key < best:
            best, modulus, residues = key, p, kernel
        elif key == best:
            # CRT: x = r (mod modulus), x = s (mod p)
            lift = pow(modulus, -1, p)
            for f, vec in residues.items():
                new = kernel[f]
                for c in vec.keys() | new.keys():
                    r = vec.get(c, 0)
                    vec[c] = r + modulus * ((new.get(c, 0) - r) * lift % p)
            modulus *= p
        else:
            continue
        basis = _lift(residues, modulus)
        if basis is not None and _annihilates(rows, basis):
            return basis


def poly_relations(polys):
    """The ``integer_nullspace`` basis {k: int} of the kernel of the
    monomial-by-polynomial coefficient matrix.  Column k holds the integer
    numerators of polys[k], so a vector c says sum_k c_k den_k polys[k] = 0.
    """
    rows = {}
    for k, p in enumerate(polys):
        for e, c in p.num.items():
            rows.setdefault(e, {})[k] = c
    return integer_nullspace(list(rows.values()), len(polys))


def poly_rank(polys) -> int:
    """Rank over Q of a list of MultiPoly values, read off its distinct
    nonzero members."""
    polys = list(dict.fromkeys(p for p in polys if not p.is_zero()))
    return len(polys) - len(poly_relations(polys))


# -- the oracle ------------------------------------------------------------


class QIWitness:
    """An exact basis of the degree-d homogeneous component of QI_m."""

    __slots__ = ("n", "m", "degree", "basis")

    def __init__(self, n: int, m: int, degree: int, basis: tuple = ()):
        self.n, self.m, self.degree, self.basis = n, m, degree, basis

    @property
    def dimension(self) -> int:
        return len(self.basis)


def monomials_of_degree(n: int, d: int):
    """Exponent vectors of total degree d, graded-lex descending."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix) + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], d, n)
    return out


def _constraint_rows(n: int, m: int, monomials):
    """Sparse integer constraint rows {column: int} over ``monomials``: one
    per (pair, odd u-power, residual monomial) of ``_pair_terms``."""
    col_index = {e: k for k, e in enumerate(monomials)}
    rows = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pair_rows = {}
            for key, exp, w in _pair_terms(i, j, m, monomials):
                pair_rows.setdefault(key, {})[col_index[exp]] = w
            rows.extend(pair_rows[key] for key in sorted(pair_rows))
    return rows


def graded_dimension_oracle(n: int, m: int, d: int) -> QIWitness:
    """Exact basis of the homogeneous degree-d component of QI_m.

    Builds the vanishing conditions on a generic coefficient vector and
    returns the integer nullspace.
    """
    _refuse_oracle_n(n)
    _refuse_above_cap(d)
    if m < 0 or d < 0:
        raise ValueError("m and d must be non-negative")
    monomials = monomials_of_degree(n, d)
    rows = _constraint_rows(n, m, monomials)
    basis_vectors = integer_nullspace(rows, len(monomials))
    basis = tuple(
        MultiPoly._from_int(n, {monomials[c]: v for c, v in vec.items()})
        for vec in basis_vectors
    )
    return QIWitness(n=n, m=m, degree=d, basis=basis)


def cmd_oracle(args):
    """``oracle``: the witness of degree d as JSON."""
    from . import jsonio

    witness = graded_dimension_oracle(args.n, args.m, args.d)
    return jsonio.dumps(jsonio.witness_to_obj(witness, seed=args.seed)), 0


def cmd_detcheck(args):
    """``detcheck``: the n = 2 change of basis and its determinant."""
    matrix, determinant = change_of_basis_n2(args.m)
    if args.format == "json":
        from . import jsonio

        obj = {
            "m": args.m,
            "matrix": [[jsonio.poly_to_obj(entry) for entry in row] for row in matrix],
            "determinant": jsonio.poly_to_obj(determinant),
            "equals_vandermonde_squared": True,
        }
        text = jsonio.dumps(obj)
    else:
        lines = [
            f"change-of-basis matrix (m={args.m}):",
            f"  [{matrix[0][0].to_text()}, {matrix[0][1].to_text()}]",
            f"  [{matrix[1][0].to_text()}, {matrix[1][1].to_text()}]",
            f"determinant = {determinant.to_text()} = Delta_2^2",
        ]
        text = "\n".join(lines) + "\n"
    return text, 0
