"""The quasiinvariance predicate and the brute-force graded-dimension
oracle.

The defining condition, (x_i - x_j)^(2m+1) divides (1 - (i,j)) p, is
written out once, in ``_pair_terms``: substituting x_i = c + u,
x_j = c - u, only the odd powers u^1, u^3, ..., u^(2m-1) can carry a
nonzero coefficient, which gives one sparse integer row per (pair, odd
u-power, residual monomial) over a list of monomials.  The predicate sums
a polynomial's integer numerators, folded onto (1 - (i,j)) p, into those
rows one pair at a time and stops at the first pair with a nonzero
residual; the oracle takes the rows over all monomials of degree d
(``_constraint_rows``) and computes their exact integer nullspace.  The
checks built on the predicate and the oracle alone are here too: the
Delta^2 embedding of QI_m into QI_(m+1), the containment chain, the
Sym-basis certificate, and on it the n = 2 change of basis between
QI_(m+1) and QI_m.  The module depends on ``exactalg`` alone; the checks
of the projection characterization, which also need the Young
projectors, are in ``structure``.

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
    _fold,
    elementary_symmetric,
    vandermonde,
)

ORACLE_MAX_N = 5
DEFAULT_DEGREE_CAP = 12

# The terms of Delta_n^2 for n = 1..6.  At n = 7 squaring the Vandermonde
# alone (1,392,385 terms) took 32 s, so delta2 stops at 6 variables, and
# below that it refuses |Delta_n^2| |p| above DELTA2_MAX_TERM_PAIRS: on a
# 2-vCPU Xeon VM with Python 3.11 one 6-variable monomial (56,183 pairs)
# takes 1.2 s, and a 6-variable, 40-term input (2.2 M) took 25.6 s.
_DELTA_SQ_TERMS = {1: 1, 2: 3, 3: 19, 4: 201, 5: 2961, 6: 56183}
DELTA2_MAX_TERM_PAIRS = 100_000


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


def is_quasiinvariant(p: MultiPoly, m: int) -> bool:
    """True iff (x_i - x_j)^(2m+1) divides (1 - (i,j)) p for all i < j.

    Pair by pair, p's integer numerators are folded onto the exponents with
    e_i > e_j by the signed fold of the bracket over {i, j}
    (``exactalg._fold``: a term with e_i < e_j is subtracted at its swap, one
    with e_i = e_j dropped), which is exact as W(b, a, t) = -W(a, b, t) at
    the odd t of ``_pair_terms``, and summed into its rows; the first pair with
    a nonzero residual ends the check, so no later pair is expanded.  A
    row's key fixes the degree of its monomials, so p need not be
    homogeneous.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    n = p.nvars
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            folded = _fold(p.num, ((i, j),), True)
            residual = {}
            get = residual.get
            for key, exp, w in _pair_terms(i, j, m, folded):
                residual[key] = get(key, 0) + w * folded[exp]
            if any(residual.values()):
                return False
    return True


def delta_sq_embed(p: MultiPoly, m: int) -> MultiPoly:
    """Multiply an m-quasiinvariant by Delta_n^2; the result is checked to
    be (m+1)-quasiinvariant.  Inputs past the size guard are refused
    before any work."""
    if p.nvars > max(_DELTA_SQ_TERMS):
        raise ResourceGuardError(
            f"delta2 limited to nvars <= {max(_DELTA_SQ_TERMS)}, got {p.nvars}")
    pairs = _DELTA_SQ_TERMS.get(p.nvars, 1) * len(p.num)
    if pairs > DELTA2_MAX_TERM_PAIRS:
        raise ResourceGuardError(
            f"delta2 limited to |Delta^2| |p| <= {DELTA2_MAX_TERM_PAIRS} term "
            f"pairs, got {pairs}")
    if not is_quasiinvariant(p, m):
        raise ValueError("input is not m-quasiinvariant")
    v = vandermonde(p.nvars)
    result = v * (v * p)
    if not is_quasiinvariant(result, m + 1):
        raise TheoremViolationError("Delta^2 embedding failed quasiinvariance")
    return result


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


@functools.cache
def _odd_weights(a: int, b: int, m: int) -> tuple:
    """The pairs (t, W(a, b, t)) with W(a, b, t) != 0, for odd t < 2m,
    where W(a, b, t) is the coefficient of u^t in (c + u)^a (c - u)^b."""
    out = []
    for t in range(1, min(2 * m, a + b + 1), 2):
        w = sum(math.comb(a, s) * math.comb(b, t - s) * (-1) ** (t - s)
                for s in range(max(0, t - b), min(a, t) + 1))
        if w:
            out.append((t, w))
    return tuple(out)


def _pair_terms(i: int, j: int, m: int, monomials):
    """The constraint terms of the pair (i, j): (key, exponent, w) for
    each monomial x^e of ``monomials`` and each row it enters.

    (c, u) = ((x_i + x_j)/2, (x_i - x_j)/2) is an invertible linear change
    of variables, so (x_i - x_j)^(2m+1) = (2u)^(2m+1) divides a polynomial
    exactly when its coefficients of u^0..u^2m vanish after substituting
    x_i = c + u, x_j = c - u.  With a = e_i and b = e_j, x^e becomes
    (c + u)^a (c - u)^b times the other variables and (i,j) x^e becomes
    (c + u)^b (c - u)^a, which is the same polynomial at -u; so
    W(b, a, t) = (-1)^t W(a, b, t), and (1 - (i,j)) x^e contributes
    2 W(a, b, t) c^(a+b-t) u^t at odd t and nothing at even t.  The rows
    are thus the odd t < 2m, keyed by (t, a + b, the other exponents),
    which fixes the monomial c^(a+b-t) u^t x^rest and its degree, so the
    monomials need not share one; each term carries w = W(a, b, t), the
    common factor 2 dropped.
    """
    for exp in monomials:
        a, b = exp[i - 1], exp[j - 1]
        if a == b:
            continue
        weights = _odd_weights(a, b, m)
        if not weights:
            continue
        rest = list(exp)
        rest[i - 1] = rest[j - 1] = 0
        rest = tuple(rest)
        for t, w in weights:
            yield (t, a + b, rest), exp, w


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
