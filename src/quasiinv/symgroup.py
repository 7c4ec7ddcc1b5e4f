"""Permutations of {1..n}, their action on polynomials, and the group
algebra Q S_n with the bracket sums [U] and [U]'.

Composition convention: (a * b)(i) = a(b(i)), so the action on polynomials
is a left action: act(a * b, p) = act(a, act(b, p)).

An element of Q S_n is an ``exactalg._Combination`` keyed by image tuples:
int numerators over one denominator, with the additive structure, equality
and the trusted constructor shared with ``MultiPoly``.  Composing two
permutations, and permuting an exponent tuple, is one call of an index
getter (``_getter``): ``Perm.compose`` builds one over its right factor,
and ``act`` and ``apply`` build one per permutation (``_acting``) and read
each exponent tuple through it.  The Fraction view
``terms`` is built only for output and inspection.  ``bracket`` builds
each [U] and [U]' once per process; a bracket is also the telescoping
product of ``telescoping_factors``, so it can act without being expanded.

One kernel, ``exactalg._apply_brackets``, applies such brackets to a map
{tuple: int}, and it serves two products.  The left action of (a b) on a
polynomial swaps slots a and b of each exponent tuple; the right product
by (a b) swaps the same two slots of each image tuple, since
(x (a b))(a) = x(b) and (x (a b))(b) = x(a).  For each group of brackets
on disjoint supports it first folds the map onto the group's bracket
classes (keys sorted within each support, signed for [U]'), on which the
product depends, and then runs the telescoping factors (1 +- sum of
transpositions) on the representatives alone.  Elements are multiplied
only this way, on the right by brackets: ``*`` scales by an int or a
Fraction, and ``x * y`` of two elements raises TypeError.  So
``times_brackets`` multiplies a group-algebra element on the right by
brackets in O(k^2) transpositions per bracket rather than k! permutations,
and ``tableaux`` runs the Young projector's brackets both ways.
"""

from __future__ import annotations

import functools
from itertools import permutations
from operator import itemgetter

from .exactalg import (
    MAX_GROUP_N,
    DimensionMismatch,
    MultiPoly,
    ResourceGuardError,
    _apply_brackets,
    _bracket_group,
    _Combination,
    _scalar,
)


def _getter(indices):
    """The map t -> (t[indices[0]], ..., t[indices[-1]]) on tuples, as one
    ``itemgetter``.  With a single index ``itemgetter`` returns a bare item,
    so n = 1 (and n = 0) read the slice t[i:i+1] (t[0:0]) instead."""
    if len(indices) > 1:
        return itemgetter(*indices)
    start = indices[0] if indices else 0
    return itemgetter(slice(start, start + len(indices)))


class Perm:
    """A bijection of {1..n}; images[i-1] = sigma(i)."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        # a float such as 2.0 equals 2, so the sort alone would accept it
        if (any(type(i) is not int for i in images)
                or sorted(images) != list(range(1, n + 1))):
            raise ValueError(f"{images} is not a permutation of 1..{n}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _trusted(cls, images: tuple) -> "Perm":
        """A Perm on an image tuple already known to be a permutation."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        return perm

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Perm":
        if not (1 <= a <= n and 1 <= b <= n and a != b):
            raise ValueError(f"invalid transposition ({a},{b}) for n={n}")
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "Perm") -> "Perm":
        """self after other: (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise DimensionMismatch("permutation size mismatch")
        return Perm._trusted(_getter([i - 1 for i in other.images])(self.images))

    __mul__ = compose

    def sign(self) -> int:
        """A k-cycle is k - 1 transpositions."""
        return (-1) ** sum(len(cycle) - 1 for cycle in self.cycles())

    def cycles(self):
        """Nontrivial cycles, each starting at its smallest element."""
        seen = [False] * self.n
        out = []
        for i in range(1, self.n + 1):
            if seen[i - 1]:
                continue
            cycle = []
            j = i
            while not seen[j - 1]:
                seen[j - 1] = True
                cycle.append(j)
                j = self(j)
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return out

    def __eq__(self, other):
        if not isinstance(other, Perm):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm{self.images}"

    def cycle_text(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "1"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)


def parse_cycles(text: str, n: int) -> Perm:
    """Parse cycle notation like "(1,2)(3,4)" or "1" (identity).  Entries
    are ASCII digit runs with optional spaces around them; none is empty."""
    text = text.strip()
    if text in ("1", "e", "id", ""):
        return Perm.identity(n)
    perm = Perm.identity(n)
    depth = 0
    buf = ""
    cycles = []
    for ch in text:
        if ch == "(":
            if depth:
                raise ValueError("nested parenthesis in cycle notation")
            depth, buf = 1, ""
        elif ch == ")":
            if not depth:
                raise ValueError("unbalanced parenthesis")
            depth = 0
            entries = [v.strip(" ") for v in buf.split(",")]
            if not all(v.isascii() and v.isdigit() for v in entries):
                raise ValueError(f"cycle entries must be comma-separated "
                                 f"integers, got ({buf})")
            cycles.append([int(v) for v in entries])
        elif depth:
            buf += ch
        elif ch != " ":
            raise ValueError(f"unexpected character {ch!r} in cycle notation")
    if depth:
        raise ValueError("unbalanced parenthesis")
    for cycle in cycles:
        if len(set(cycle)) != len(cycle):
            raise ValueError(f"repeated entry in cycle {cycle}")
        if any(not 1 <= v <= n for v in cycle):
            raise ValueError(f"cycle entry out of range 1..{n}: {cycle}")
        images = list(range(1, n + 1))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a - 1] = b
        perm = perm * Perm(images)
    return perm


def subgroup_perms(n: int, support):
    """All permutations of 1..n fixing the complement of ``support``."""
    support = sorted(set(support))
    if any(type(s) is not int or not 1 <= s <= n for s in support):
        raise ValueError(f"support {support} not inside 1..{n}")
    if n > MAX_GROUP_N:
        raise ResourceGuardError(f"group enumeration limited to n <= {MAX_GROUP_N}")
    out = []
    for arrangement in permutations(support):
        images = list(range(1, n + 1))
        for slot, value in zip(support, arrangement):
            images[slot - 1] = value
        out.append(Perm(images))
    return out


def _acting(images):
    """The action of the permutation with these images on exponent tuples
    (see ``act``), as one index getter over the inverse permutation."""
    source = [0] * len(images)
    for i, image in enumerate(images):
        source[image - 1] = i
    return _getter(source)


def act(s: Perm, p: MultiPoly) -> MultiPoly:
    """sigma P = P(x_{sigma(1)}, ..., x_{sigma(n)}).

    On exponent vectors: the exponent of x_i migrates to x_{sigma(i)}, so
    slot k of the image reads slot sigma^(-1)(k) of the source.
    """
    if s.n != p.nvars:
        raise DimensionMismatch("permutation and polynomial sizes differ")
    permute = _acting(s.images)
    num = {permute(exp): c for exp, c in p.num.items()}
    return MultiPoly._from_int(p.nvars, num, p.den)


class GroupAlgebraElem(_Combination):
    """A finite Q-linear combination of permutations of {1..n}: int
    numerators keyed by image tuples over one denominator."""

    __slots__ = ("n",)
    _SIZE = "n"

    def __init__(self, n: int, terms=None):
        keyed = {}
        for perm, c in (terms or {}).items():
            if perm.n != n:
                raise DimensionMismatch("permutation size mismatch")
            keyed[perm.images] = c
        super().__init__(n, keyed)

    @property
    def terms(self) -> dict:
        """{Perm: Fraction coefficient}, for output and inspection."""
        from fractions import Fraction

        den = self.den
        return {Perm._trusted(k): Fraction(c, den) for k, c in self.num.items()}

    @classmethod
    def identity(cls, n: int) -> "GroupAlgebraElem":
        return cls.from_perm(Perm.identity(n))

    @classmethod
    def from_perm(cls, perm: Perm, c=1) -> "GroupAlgebraElem":
        """c * perm, for c an int or a Fraction."""
        return cls._term(perm.n, perm.images, c)

    def __mul__(self, other):
        """Scaling by an int or a Fraction; see ``times_brackets`` for the
        right product by brackets."""
        if isinstance(other, _Combination):
            return NotImplemented
        return self._scale(_scalar(other))

    __rmul__ = __mul__

    def apply(self, p: MultiPoly) -> MultiPoly:
        """sum_sigma f_sigma (sigma p)."""
        if p.nvars != self.n:
            raise DimensionMismatch("polynomial nvars mismatch")
        num = {}
        get = num.get
        terms = p.num.items()
        for images, c in self.num.items():
            permute = _acting(images)
            for e, a in terms:
                e = permute(e)
                num[e] = get(e, 0) + a * c
        return MultiPoly._from_int(self.n, num, self.den * p.den)

    def to_text(self) -> str:
        """Cycle notation with rational coefficients, identity first."""
        return self._signed_sum(
            (k, Perm._trusted(k).cycle_text()) for k in sorted(self.num))

    def __repr__(self):
        return f"GroupAlgebraElem({self.n}, {self.to_text()!r})"


def bracket(n: int, support, signed: bool) -> GroupAlgebraElem:
    """[U] = sum over S_U, or [U]' = signed sum, inside S_n.

    Each bracket is built once per process and then shared (elements are
    immutable); a refused request raises on every call.  Entries must be
    ints: a float such as 1.0 equals 1, so it would find, or fill, the
    cache entry of the int support."""
    support = tuple(sorted(set(support)))
    if any(type(s) is not int for s in support):
        raise ValueError(f"support entries must be integers, got {support}")
    return _bracket(n, support, bool(signed))


@functools.cache
def _bracket(n: int, support: tuple, signed: bool) -> GroupAlgebraElem:
    if not support:
        raise ValueError("bracket over the empty set")
    terms = {perm.images: perm.sign() if signed else 1
             for perm in subgroup_perms(n, support)}
    return GroupAlgebraElem._from_int(n, terms)


def times_brackets(x: GroupAlgebraElem, brackets) -> GroupAlgebraElem:
    """x [U_1] [U_2] ..., for ``brackets`` a list of (support, signed) and
    [U]' in place of [U] where signed, without expanding a bracket: each
    runs on x's numerators as the telescoping product over its support in
    the order given (repeats dropped), in O(|x| k^2) rather than O(|x| k!).
    Consecutive brackets of one sign on disjoint supports form one group,
    folded onto its bracket classes once before its factors run."""
    groups, used = [], set()
    for support, signed in brackets:
        order = tuple(dict.fromkeys(support))
        if not order or any(type(s) is not int or not 1 <= s <= x.n for s in order):
            raise ValueError(f"bracket support {list(order)} not a nonempty subset "
                             f"of 1..{x.n}")
        signed = bool(signed)
        if not groups or groups[-1][1] != signed or used.intersection(order):
            groups.append(([], signed))
            used = set()
        groups[-1][0].append(order)
        used.update(order)
    q = _apply_brackets(x.num, [_bracket_group(*group) for group in groups])
    return GroupAlgebraElem._from_int(x.n, q, x.den)
