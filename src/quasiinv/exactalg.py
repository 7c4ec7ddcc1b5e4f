"""Exact arithmetic foundation.

Sparse multivariate polynomials over Q, definite integration in an extra
variable t = x_(n+1), and truncated integer power series in q, kept as
plain int tuples.  Every divisor in the package is a power of some
x_a - x_b: ``shift_coefficients`` expands p at x_a = x_b + u.

``_Combination`` is the one exact linear-combination core: integer
numerators keyed by exponent tuples (``MultiPoly``) or by permutation
image tuples (``symgroup.GroupAlgebraElem``) over one positive
denominator, in lowest terms.  Its validating public constructor is the
one place that scales Fraction coefficients to integers; every operation
builds its result on ints through the one trusted constructor
``_from_int``, which drops zeros and divides out one gcd.  The kernel
(ring operations, shift expansion, differentiation, integration) runs on
ints alone.  ``fractions`` is imported only where a Fraction is built or
tested: the non-int branch of ``_scalar`` and the ``terms`` views.  The
package itself builds no Fraction (``jsonio`` reads JSON on ints too), so
no command loads it.

The transposition kernel applies brackets [U] and [U]' to the numerator
map of either subclass: a transposition (a b) swaps slots a and b of every
key, which is its left action on exponent tuples and the right product by
it on image tuples.  ``_apply_brackets`` is its one entry point.  It runs
groups of brackets over disjoint supports, and for each group it first
folds the map onto bracket classes (``_fold``: each key sorted decreasing
within each support, with the sign of the sort for [U]') and then expands
the telescoping factors of ``telescoping_factors`` (``_apply_factors``, the
one expansion loop).  After the fold no expansion can cancel, so the loop
filters nothing.  The kernel sits here, below the group algebra, so that
``tableaux`` projects polynomials by gamma_T without loading ``symgroup``,
and the quasiinvariance predicate folds by (1 - (i j)) with ``_fold``.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations
from operator import add, itemgetter


class DimensionMismatch(ValueError):
    """Operands have different sizes: polynomial rings with different
    variable counts, or group algebras of different S_n."""


class TheoremViolationError(AssertionError):
    """An exact identity failed to hold; every exact identity the package
    asserts raises it.  It lives in the bottom layer so that the CLI can
    catch it without loading the construction that raises it."""


class ResourceGuardError(ValueError):
    """A request exceeded the desk-scale guardrails.  It lives in the
    bottom layer so that a guard needs no module above the one it guards."""


def _scalar(c):
    """``c`` if it is an int or a Fraction; anything else is refused."""
    if isinstance(c, int):
        return c
    from fractions import Fraction

    if isinstance(c, Fraction):
        return c
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


def grlex_key(exp):
    """Sort key for graded-lexicographic order (ascending)."""
    return (sum(exp), exp)


class _Combination:
    """A sparse exact linear combination over Q: int numerators ``num``
    keyed by hashable keys, over one positive denominator ``den``, with no
    zero numerator and gcd(den, *num.values()) == 1.

    The form is canonical, so equality and hashing compare the size, ``den``
    and ``num``.  A subclass names its size slot in ``_SIZE`` and chooses its
    keys: exponent tuples for polynomials, image tuples for the group
    algebra.  The base holds what the two share: the validating public
    constructor, the trusted ``_from_int``, and the additive structure
    (+, -, negation, scaling by an int or a Fraction).
    """

    __slots__ = ("num", "den")
    _SIZE = None

    def __init__(self, size: int, terms: dict):
        """The combination sum c * key over ``terms``, a map of keys the
        subclass has validated to int or Fraction coefficients, scaled once
        to integers over the least common denominator."""
        clean = {}
        for key, c in terms.items():
            if _scalar(c):
                clean[key] = c
        den = math.lcm(*(c.denominator for c in clean.values()))
        _set = object.__setattr__
        _set(self, self._SIZE, size)
        _set(self, "num", {k: c.numerator * (den // c.denominator)
                           for k, c in clean.items()})
        _set(self, "den", den)

    @classmethod
    def _from_int(cls, size: int, num: dict, den: int = 1):
        """The combination ``num`` / ``den``, for ``num`` a map of valid keys
        to ints (zeros allowed) and ``den`` > 0.  Zero numerators are
        dropped and the fraction is reduced."""
        num = {k: c for k, c in num.items() if c}
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {k: c // g for k, c in num.items()}
                den //= g
        obj = object.__new__(cls)
        _set = object.__setattr__
        _set(obj, cls._SIZE, size)
        _set(obj, "num", num)
        _set(obj, "den", den)
        return obj

    @classmethod
    def _term(cls, size: int, key, c):
        """The combination c * key, for c an int or a Fraction."""
        c = _scalar(c)
        return cls._from_int(size, {key: c.numerator}, c.denominator)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.num

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} "
                            f"with {type(other).__name__}")
        size = self._SIZE
        if getattr(self, size) != getattr(other, size):
            raise DimensionMismatch(
                f"{size} {getattr(self, size)} != {getattr(other, size)}")

    def _scale(self, c):
        """self times an int or a Fraction."""
        a = c.numerator
        return self._from_int(getattr(self, self._SIZE),
                              {k: v * a for k, v in self.num.items()},
                              self.den * c.denominator)

    def __add__(self, other):
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            den, num, fb = da, dict(self.num), 1
        else:
            den = math.lcm(da, db)
            fa, fb = den // da, den // db
            num = {k: c * fa for k, c in self.num.items()}
        get = num.get
        for k, c in other.num.items():
            num[k] = get(k, 0) + c * fb
        return self._from_int(getattr(self, self._SIZE), num, den)

    def __neg__(self):
        return self._from_int(getattr(self, self._SIZE),
                              {k: -c for k, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        size = self._SIZE
        return (getattr(self, size) == getattr(other, size) and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((getattr(self, self._SIZE), self.den, frozenset(self.num.items())))

    def _coefficient(self, key):
        """The coefficient of ``key`` in lowest terms, as (numerator,
        denominator) with a positive denominator: a Fraction's normal form."""
        c, den = self.num[key], self.den
        g = math.gcd(c, den)
        return c // g, den // g

    def _signed_sum(self, words) -> str:
        """The text of sum c * word over ``words``, (key, word) pairs in
        print order: each term is |c|*word, with a unit coefficient left
        out, and an empty word stands for 1; |c| is a/d, or a when d = 1."""
        parts = []
        for key, word in words:
            c, d = self._coefficient(key)
            a = f"{abs(c)}" if d == 1 else f"{abs(c)}/{d}"
            if not word:
                body = a
            elif a == "1":
                body = word
            else:
                body = f"{a}*{word}"
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        if not text:
            return "0"
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


# The largest n whose subgroups S_U are enumerated, and n! the largest
# |R(T)| |C(T)| a Young projector may cost; both are factorial, so keep
# them at desk scale.
MAX_GROUP_N = 8


def telescoping_factors(order):
    """The transpositions of each factor of the telescoping product
    (1 +- (u1,u2))(1 +- (u1,u3) +- (u2,u3))...(1 +- (u1,uk) +- ... +- (u(k-1),uk))
    over an ordering u1..uk of a set U, first factor first.  The product is
    [U] with every sign +, and [U]' with every sign -."""
    return [[(order[s], order[t]) for s in range(t)] for t in range(1, len(order))]


@functools.cache
def _swapper(size: int, a: int, b: int):
    """The map that swaps slots a and b (0-based) of a tuple of ``size``."""
    order = list(range(size))
    order[a], order[b] = b, a
    return itemgetter(*order)


@functools.cache
def _sorting_steps(size: int, supports: tuple) -> tuple:
    """The compare-swap steps (a, b, swap), 0-based, that sort a key of
    ``size`` decreasing along each support in ``supports`` (1-based slots)
    in increasing slot order: each support is bubble-sorted, one pass per
    final slot from the last, carrying the smallest value of the pass to
    its end.  A support holding two equal values meets them at some step:
    once the smaller values are placed, the pass that carries the smallest
    value left carries it onto its other copy."""
    steps = []
    for support in supports:
        slots = sorted(s - 1 for s in support)
        for end in range(len(slots) - 1, 0, -1):
            steps.extend((a, b, _swapper(size, a, b))
                         for a, b in zip(slots[:end], slots[1:end + 1]))
    return tuple(steps)


def _fold(q: dict, supports: tuple, signed: bool) -> dict:
    """{tuple: int} with no zero value, merged onto bracket classes: each
    key moves to its representative, sorted decreasing within each of the
    disjoint ``supports`` (a tuple of tuples of 1-based slots), in one pass
    of compare-swap steps.  Where ``signed`` the value changes sign once per
    swap, and a key with two equal slots in one support is dropped.  Zeros
    left by the merge are dropped.

    Let G be the product of the symmetric groups S_U over the supports, and
    k.s the key k with its slots permuted by s in G (the right product on
    image tuples, the left action on exponent tuples).  Then (k.s) [G] =
    k [G] and (k.s) [G]' = sign(s) k [G]', where [G] is the sum over G and
    [G]' the signed sum, so the brackets' image of q depends only on the
    folded map; a key fixed by a transposition s of G has k [G]' =
    -k [G]' = 0.  The fold also makes every later expansion of [G] or [G]'
    free of cancellation: distinct representatives have disjoint orbits;
    under [G] each orbit key collects |Stab(k)| times the representative's
    value, and under [G]' the kept keys have a trivial stabilizer, so each
    orbit key is reached once, with value +- the representative's."""
    if not q:
        return q
    steps = _sorting_steps(len(next(iter(q))), supports)
    if not steps:
        return q
    out = {}
    get = out.get
    if signed:
        for e, c in q.items():
            for a, b, swap in steps:
                if e[a] <= e[b]:
                    if e[a] == e[b]:
                        break
                    e = swap(e)
                    c = -c
            else:
                out[e] = get(e, 0) + c
    else:
        for e, c in q.items():
            for a, b, swap in steps:
                if e[a] < e[b]:
                    e = swap(e)
            out[e] = get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _bracket_group(supports, signed: bool):
    """The product of [U] over pairwise disjoint ``supports`` (ordered
    1-based slots), or of [U]' where ``signed``, as one group (supports,
    signed, factors) for ``_apply_brackets``: the supports of two or more
    slots and their telescoping factors, in the order given."""
    supports = tuple(tuple(u) for u in supports if len(u) > 1)
    factors = tuple(tuple(pairs) for u in supports for pairs in telescoping_factors(u))
    return supports, bool(signed), factors


def _apply_brackets(q: dict, groups) -> dict:
    """{tuple: int} with no zero value, times each group of brackets (see
    ``_bracket_group``) in order: the map is folded onto the group's
    bracket classes (``_fold``), then its telescoping factors run on the
    representatives (``_apply_factors``).  No zero value comes out."""
    for supports, signed, factors in groups:
        q = _fold(q, supports, signed)
        if not q:
            return q
        q = _apply_factors(q, factors, -1 if signed else 1)
    return q


def _apply_factors(q: dict, factors, sign: int) -> dict:
    """Run each factor (1 + sign * sum of the transpositions ``pairs``) of
    the ordered list ``factors`` on the nonempty {tuple: int} ``q``, first
    factor first.  A transposition (a b) swaps slots a and b of every key,
    by one cached ``itemgetter``: on exponent tuples that is its action, on
    image tuples the right product by it.  The factors of a bracket group
    run on the group's folded representatives, where no value cancels (see
    ``_fold``), so nothing is filtered; under [U]' no two slots of a
    support are equal there, so only [U] skips the swap of equal slots."""
    size = len(next(iter(q)))
    for pairs in factors:
        out = dict(q)
        get = out.get
        for a, b in pairs:
            a, b = a - 1, b - 1
            swap = _swapper(size, a, b)
            if sign > 0:
                for e, c in q.items():
                    if e[a] != e[b]:
                        e = swap(e)
                    out[e] = get(e, 0) + c
            else:
                for e, c in q.items():
                    e = swap(e)
                    out[e] = get(e, 0) - c
        q = out
    return q


class MultiPoly(_Combination):
    """Sparse polynomial over Q in variables x_1..x_n.

    The keys are exponent tuples of length ``nvars``.  The public
    constructor takes a map of int or Fraction coefficients and validates
    it; every operation builds its result on ints through the trusted
    ``_from_int``.
    """

    __slots__ = ("nvars",)
    _SIZE = "nvars"

    def __init__(self, nvars: int, terms=None):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        keyed = {}
        for exp, c in (terms or {}).items():
            if len(exp) != nvars:
                raise DimensionMismatch(
                    f"exponent vector {exp} has length {len(exp)}, expected {nvars}"
                )
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            keyed[tuple(exp)] = c
        super().__init__(nvars, keyed)

    @property
    def terms(self) -> dict:
        """{exponent: Fraction coefficient}, for output and inspection."""
        from fractions import Fraction

        den = self.den
        return {e: Fraction(c, den) for e, c in self.num.items()}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        if nvars < 1:
            raise ValueError("nvars must be positive")
        return cls._term(nvars, (0,) * nvars, c)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        """The polynomial x_i (1-indexed)."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        exp = tuple(1 if k == i - 1 else 0 for k in range(nvars))
        return cls._from_int(nvars, {exp: 1})

    # -- predicates / views -------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.num:
            return -1
        return max(sum(e) for e in self.num)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.num}
        return len(degs) <= 1

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, _Combination):
            other = MultiPoly.constant(self.nvars, other)
        return _Combination.__add__(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, _Combination):
            return self._scale(_scalar(other))
        self._check(other)
        acc = {}
        get = acc.get
        right = list(other.num.items())
        for e1, c1 in self.num.items():
            for e2, c2 in right:
                exp = tuple(map(add, e1, e2))
                acc[exp] = get(exp, 0) + c1 * c2
        return MultiPoly._from_int(self.nvars, acc, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.to_text()!r})"

    def to_text(self) -> str:
        """Fully expanded monomial form, graded-lex descending."""
        return self._signed_sum(
            (exp, "*".join(f"x{i+1}" if e == 1 else f"x{i+1}^{e}"
                           for i, e in enumerate(exp) if e))
            for exp in sorted(self.num, key=grlex_key, reverse=True)
        )


def shift_coefficients(p: MultiPoly, a: int, b: int, k: int):
    """[c_0, ..., c_k]: the coefficients of u^0..u^k in p at x_a = x_b + u.

    A term c x^e contributes C(e_a, t) c x^e' to c_t, where e' moves the
    exponent of x_a onto x_b less t, so no c_t involves x_a.  (x_a - x_b)^k
    divides p exactly when c_0..c_(k-1) vanish, and the quotient at
    x_a = x_b is then c_k.
    """
    n = p.nvars
    if a == b or not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"need two different variables in 1..{n}, got {a} and {b}")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    coeffs = [{} for _ in range(k + 1)]
    for exp, c in p.num.items():
        ea = exp[a - 1]
        key = list(exp)
        key[a - 1] = 0
        key[b - 1] += ea
        for t in range(min(k, ea) + 1):
            shifted = tuple(key)
            terms = coeffs[t]
            terms[shifted] = terms.get(shifted, 0) + math.comb(ea, t) * c
            key[b - 1] -= 1
    return [MultiPoly._from_int(n, terms, p.den) for terms in coeffs]


def partial_derivative(p: MultiPoly, i: int) -> MultiPoly:
    """Formal partial derivative with respect to x_i (1-indexed)."""
    if not 1 <= i <= p.nvars:
        raise ValueError(f"variable index {i} out of range 1..{p.nvars}")
    terms = {}
    for exp, c in p.num.items():
        e = exp[i - 1]
        if e:
            new = list(exp)
            new[i - 1] = e - 1
            key = tuple(new)
            terms[key] = terms.get(key, 0) + c * e
    return MultiPoly._from_int(p.nvars, terms, p.den)


def elementary_symmetric(n: int, i: int) -> MultiPoly:
    """e_i in n variables; e_0 = 1 by convention."""
    if not 0 <= i <= n:
        raise ValueError(f"e_{i} undefined for n={n}")
    if i == 0:
        return MultiPoly.constant(n, 1)
    terms = {}
    for subset in combinations(range(n), i):
        exp = [0] * n
        for s in subset:
            exp[s] = 1
        terms[tuple(exp)] = 1
    return MultiPoly._from_int(n, terms)


def vandermonde(n: int) -> MultiPoly:
    """The Vandermonde determinant prod_{i<j} (x_i - x_j)."""
    if n < 1:
        raise ValueError("n must be positive")
    result = MultiPoly.constant(n, 1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            result = result * (MultiPoly.variable(n, i) - MultiPoly.variable(n, j))
    return result


def t_integrate_definite(f: MultiPoly, lower: int, upper: int) -> MultiPoly:
    """Definite integral of f dt from t = x_lower to t = x_upper.

    ``f`` is a polynomial in n + 1 variables whose last variable is t; the
    result is a polynomial in x_1..x_n.  Each term c x^a t^d integrates to
    c/(d+1) (x_upper^(d+1) - x_lower^(d+1)) x^a; over the least common
    multiple L of the d + 1, that is c L/(d+1) over L.
    """
    n = f.nvars - 1
    if lower == upper:
        raise ValueError("lower and upper variables must differ")
    if not (1 <= lower <= n and 1 <= upper <= n):
        raise ValueError(f"integration limits must lie in 1..{n}")
    powers = {exp[n] + 1 for exp in f.num}
    scale = math.lcm(*powers)
    shares = {d: scale // d for d in powers}
    u, v = upper - 1, lower - 1
    terms = {}
    get = terms.get
    for exp, c in f.num.items():
        d = exp[n] + 1
        share = c * shares[d]
        key = list(exp[:n])
        key[u] += d
        high = tuple(key)
        key[u] -= d
        key[v] += d
        low = tuple(key)
        terms[high] = get(high, 0) + share
        terms[low] = get(low, 0) - share
    return MultiPoly._from_int(n, terms, f.den * scale)


def series_expand(exponents, n: int, D: int) -> tuple:
    """(c_0, ..., c_D): the coefficients of sum_e q^e / prod_{i=1..n} (1 - q^i)
    through q^D, for ``exponents`` the numerator's exponent multiset.

    Division by (1 - q^i) is the stride-i prefix sum, which is exact over
    the integers because the constant term of each factor is 1.
    """
    if D < 0:
        raise ValueError("D must be non-negative")
    coeffs = [0] * (D + 1)
    for e in exponents:
        if 0 <= e <= D:
            coeffs[e] += 1
    for i in range(1, n + 1):
        for d in range(i, D + 1):
            coeffs[d] += coeffs[d - i]
    return tuple(coeffs)
