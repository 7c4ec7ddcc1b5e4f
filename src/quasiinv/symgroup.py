"""Permutations of {1..n}, their action on polynomials, and the group
algebra Q S_n with the bracket sums [U] and [U]'.

Composition convention: (a * b)(i) = a(b(i)), so the action on polynomials
is a left action: act(a * b, p) = act(a, act(b, p)).

Convolution runs on integers: both operands are scaled by their common
denominators, image tuples are composed directly, and each output
coefficient is divided once.  Products are built through trusted private
constructors; the public constructors validate their input.  A bracket is
also the telescoping product of ``telescoping_factors``, which is how
``tableaux.gamma_apply`` applies the Young projector without expanding it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .exactalg import DimensionMismatch, MultiPoly, _coerce, integer_coefficients

# Enumerating S_U is factorial in |U|; keep it at desk scale.
MAX_GROUP_N = 8


class Perm:
    """A bijection of {1..n}; images[i-1] = sigma(i)."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
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
        return Perm._trusted(tuple([self.images[i - 1] for i in other.images]))

    __mul__ = compose

    def sign(self) -> int:
        seen = [False] * self.n
        sign = 1
        for i in range(1, self.n + 1):
            if seen[i - 1]:
                continue
            length = 0
            j = i
            while not seen[j - 1]:
                seen[j - 1] = True
                j = self(j)
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

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
    """Parse cycle notation like "(1,2)(3,4)" or "1" (identity)."""
    text = text.strip().replace(" ", "")
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
            cycles.append([int(v) for v in buf.split(",") if v])
        elif depth:
            buf += ch
        else:
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


def _check_group_size(n: int):
    if n > MAX_GROUP_N:
        raise ValueError(f"group enumeration limited to n <= {MAX_GROUP_N}")


def subgroup_perms(n: int, support):
    """All permutations of 1..n fixing the complement of ``support``."""
    support = sorted(set(support))
    if any(not 1 <= s <= n for s in support):
        raise ValueError(f"support {support} not inside 1..{n}")
    _check_group_size(n)
    out = []
    for arrangement in permutations(support):
        images = list(range(1, n + 1))
        for slot, value in zip(support, arrangement):
            images[slot - 1] = value
        out.append(Perm(images))
    return out


def act(s: Perm, p: MultiPoly) -> MultiPoly:
    """sigma P = P(x_{sigma(1)}, ..., x_{sigma(n)}).

    On exponent vectors: the exponent of x_i migrates to x_{sigma(i)}, so
    slot k of the image reads slot sigma^(-1)(k) of the source.
    """
    if s.n != p.nvars:
        raise DimensionMismatch("permutation and polynomial sizes differ")
    source = [0] * s.n
    for i, image in enumerate(s.images):
        source[image - 1] = i
    num = {tuple([exp[i] for i in source]): c for exp, c in p.num.items()}
    return MultiPoly._from_int(p.nvars, num, p.den)


class GroupAlgebraElem:
    """A finite Q-linear combination of permutations of {1..n}."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        clean = {}
        for perm, c in (terms or {}).items():
            if perm.n != n:
                raise DimensionMismatch("permutation size mismatch")
            c = _coerce(c)
            if c != 0:
                clean[perm] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, n: int, terms: dict) -> "GroupAlgebraElem":
        """An element on terms already known to be nonzero Fractions keyed
        by permutations of 1..n."""
        elem = object.__new__(cls)
        object.__setattr__(elem, "n", n)
        object.__setattr__(elem, "terms", terms)
        return elem

    def __setattr__(self, name, value):
        raise AttributeError("GroupAlgebraElem is immutable")

    @classmethod
    def identity(cls, n: int) -> "GroupAlgebraElem":
        return cls(n, {Perm.identity(n): Fraction(1)})

    @classmethod
    def from_perm(cls, perm: Perm, c=1) -> "GroupAlgebraElem":
        return cls(perm.n, {perm: _coerce(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "GroupAlgebraElem"):
        if self.n != other.n:
            raise DimensionMismatch(f"group algebra over S_{self.n} vs S_{other.n}")

    def __add__(self, other: "GroupAlgebraElem") -> "GroupAlgebraElem":
        self._check(other)
        terms = dict(self.terms)
        for perm, c in other.terms.items():
            s = terms.get(perm, Fraction(0)) + c
            if s:
                terms[perm] = s
            else:
                del terms[perm]
        return GroupAlgebraElem(self.n, terms)

    def __neg__(self):
        return GroupAlgebraElem(self.n, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            return GroupAlgebraElem(self.n, {p: k * c for p, k in self.terms.items()})
        self._check(other)
        den_a, left = integer_coefficients(self.terms)
        den_b, right = integer_coefficients(other.terms)
        right_images = [(p2.images, c2) for p2, c2 in right.items()]
        acc = {}
        for p1, c1 in left.items():
            images = p1.images
            for images2, c2 in right_images:
                key = tuple([images[i - 1] for i in images2])
                acc[key] = acc.get(key, 0) + c1 * c2
        den = den_a * den_b
        return GroupAlgebraElem._trusted(self.n, {
            Perm._trusted(key): Fraction(c, den) for key, c in acc.items() if c
        })

    __rmul__ = __mul__

    def apply(self, p: MultiPoly) -> MultiPoly:
        """sum_sigma f_sigma (sigma p)."""
        if p.nvars != self.n:
            raise DimensionMismatch("polynomial nvars mismatch")
        den, coeffs = integer_coefficients(self.terms)
        num = {}
        get = num.get
        for perm, c in coeffs.items():
            for e, a in act(perm, p).num.items():
                num[e] = get(e, 0) + a * c
        return MultiPoly._from_int(self.n, num, den * p.den)

    def __eq__(self, other):
        if not isinstance(other, GroupAlgebraElem):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def to_text(self) -> str:
        """Cycle notation with rational coefficients, identity first."""
        if not self.terms:
            return "0"
        ordered = sorted(self.terms.items(), key=lambda t: t[0].images)
        parts = []
        for perm, c in ordered:
            body = perm.cycle_text()
            if abs(c) != 1:
                body = f"{abs(c)}*{body}"
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return f"GroupAlgebraElem({self.n}, {self.to_text()!r})"


def bracket(n: int, support, signed: bool) -> GroupAlgebraElem:
    """[U] = sum over S_U, or [U]' = signed sum, inside S_n."""
    support = sorted(set(support))
    if not support:
        raise ValueError("bracket over the empty set")
    terms = {}
    for perm in subgroup_perms(n, support):
        terms[perm] = Fraction(perm.sign() if signed else 1)
    return GroupAlgebraElem(n, terms)


def telescoping_factors(order):
    """The transpositions of each factor of the telescoping product
    (1 +- (u1,u2))(1 +- (u1,u3) +- (u2,u3))...(1 +- (u1,uk) +- ... +- (u(k-1),uk))
    over an ordering u1..uk of a set U, first factor first.  The product is
    [U] with every sign +, and [U]' with every sign -."""
    return [[(order[s], order[t]) for s in range(t)] for t in range(1, len(order))]


def sn_factorization(order, signed: bool) -> GroupAlgebraElem:
    """The telescoping product of ``telescoping_factors`` in Q S_n.

    ``order`` must be a permutation of {1..n}; the product equals
    [S_n] (unsigned) or [S_n]' (signed).
    """
    order = list(order)
    n = len(order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"{order} is not an ordering of 1..{n}")
    result = GroupAlgebraElem.identity(n)
    sign = Fraction(-1 if signed else 1)
    for pairs in telescoping_factors(order):
        factor = GroupAlgebraElem.identity(n)
        for a, b in pairs:
            factor = factor + GroupAlgebraElem.from_perm(Perm.transposition(n, a, b), sign)
        result = result * factor
    return result
