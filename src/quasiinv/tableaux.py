"""Partitions, standard Young tableaux, the Young projector gamma_T, the
column polynomial V_T, and the auxiliary group-algebra elements built from
a column plus one cell to its right.

gamma_T = f_lambda [C_1]' ... [C_k]' [R_1] ... [R_l] / n! is written once,
as one ordered list of telescoping factors (``_projection_plan``), and
``symgroup``'s transposition kernel runs that list on integer
coefficients with the rational scale applied once: forward on image tuples
for ``gamma``, the expanded element in Q S_n, and reversed on exponent
tuples for ``gamma_images``, the path every projection of a polynomial in
the package takes.  It projects a whole list of polynomials in one kernel
run, their numerators stacked in one map with each polynomial's index as
an extra slot of its exponent tuples; ``gamma_apply`` is its one-item case.

The partitions, tableaux, cocharge, content and f_lambda need no group
algebra: only the projector functions import ``symgroup``, when they run,
so a command that reads shapes and tableaux alone does not load it.

Cell convention: (row i, column j), 1-based, with row 1 the longest row.
Standardness: entries increase left-to-right along rows and top-to-bottom
down columns.  Content is sum of (j - i) over cells, so a single column of
size 3 has content -3.
"""

from __future__ import annotations

import functools
import itertools
import math

from .exactalg import DimensionMismatch, MultiPoly, TheoremViolationError


class Partition:
    """A weakly decreasing sequence of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        if not parts:
            raise ValueError("empty partition")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def cells(self):
        """All cells (i, j), 1-based, row-major."""
        return [
            (i, j)
            for i, row_len in enumerate(self.parts, start=1)
            for j in range(1, row_len + 1)
        ]

    def conjugate(self) -> "Partition":
        return Partition(
            sum(1 for p in self.parts if p >= j) for j in range(1, self.parts[0] + 1)
        )

    def hook_length_count(self) -> int:
        """f_lambda by the hook length formula."""
        conj = self.conjugate().parts
        product = 1
        for i, j in self.cells():
            product *= (self.parts[i - 1] - j) + (conj[j - 1] - i) + 1
        return math.factorial(self.size) // product

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def content(shape: Partition) -> int:
    """Sum of (column - row) over the diagram cells."""
    return sum(j - i for i, j in shape.cells())


def partitions_of(n: int):
    """All partitions of n, largest-first-part order."""
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(n, n, [])
    return out


class Tableau:
    """A filling of a Young diagram with {1..n}.

    ``rows`` and ``columns`` are tuples of entry tuples (rows left to
    right, columns top to bottom); ``n`` is the number of cells, and
    ``standard`` says whether every row and every column increases.  All
    are set once here; non-standard fillings are valid tableaux too.
    """

    __slots__ = ("shape", "rows", "columns", "n", "standard")

    def __init__(self, rows):
        try:
            cells = tuple(tuple(row) for row in rows)
        except TypeError:
            cells = None
        if cells is None or any(type(v) is not int for row in cells for v in row):
            raise ValueError(f"tableau rows must be lists of integers, got {rows!r}")
        rows = cells
        shape = Partition(len(row) for row in rows)
        n = shape.size
        entries = [v for row in rows for v in row]
        if sorted(entries) != list(range(1, n + 1)):
            raise ValueError("entries must be a bijection onto 1..n")
        columns = tuple(tuple(row[j] for row in rows if len(row) > j)
                        for j in range(shape.parts[0]))
        standard = all(line[k] < line[k + 1]
                       for line in rows + columns for k in range(len(line) - 1))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "standard", standard)

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    def same_column_pairs(self):
        """Pairs (above, below) of entries sharing a column."""
        return [pair for col in self.columns for pair in itertools.combinations(col, 2)]

    def __eq__(self, other):
        if not isinstance(other, Tableau):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Tableau{self.rows}"


def standard_tableaux(shape: Partition):
    """All standard tableaux of the given shape, sorted by row-reading word
    (rows concatenated top to bottom, lexicographic)."""
    n = shape.size
    results = []

    def place(value, fill):
        if value > n:
            results.append(Tableau(fill))
            return
        for i, row in enumerate(fill):
            if len(row) < shape.parts[i] and (i == 0 or len(fill[i - 1]) > len(row)):
                row.append(value)
                place(value + 1, fill)
                row.pop()

    place(1, [[] for _ in shape.parts])
    results.sort(key=lambda t: tuple(v for row in t.rows for v in row))
    return results


def f_lambda(shape: Partition) -> int:
    """Number of standard tableaux, by enumeration, cross-checked against
    the hook length formula."""
    count = len(standard_tableaux(shape))
    hook = shape.hook_length_count()
    if count != hook:
        raise TheoremViolationError(
            f"enumeration {count} != hook formula {hook} for {shape}")
    return count


def cocharge(t: Tableau) -> int:
    """Cocharge of the reading word: label(1) = 0, and label(v+1) is
    label(v)+1 when v+1 sits to the left of v, else label(v)."""
    if not t.standard:
        raise ValueError("cocharge requires a standard tableau")
    # reading word: rows left to right, last (shortest) row first
    word = [v for row in reversed(t.rows) for v in row]
    pos = {v: k for k, v in enumerate(word)}
    label = 0
    total = 0
    for v in range(1, t.n):
        if pos[v + 1] < pos[v]:
            label += 1
        total += label
    return total


@functools.cache
def _projection_plan(t: Tableau):
    """The telescoping factors (transpositions, sign) of gamma_T's brackets,
    first factor first, with f_lambda and n!; derived on first use by ``t``
    and then reused.  Its cost per input term grows with
    |R(T)| |C(T)| = prod lambda_i! prod lambda'_j!, which is refused above
    MAX_GROUP_N!, the largest it reaches at n <= MAX_GROUP_N."""
    from .symgroup import MAX_GROUP_N, telescoping_factors

    if not t.standard:
        raise ValueError("gamma requires a standard tableau")
    cost = math.prod(math.factorial(len(s)) for s in t.rows + t.columns)
    bound = math.factorial(MAX_GROUP_N)
    if cost > bound:
        raise ValueError(f"gamma limited to |R(T)| |C(T)| <= {bound}, got {cost}")
    brackets = [(col, -1) for col in t.columns] + [(row, 1) for row in t.rows]
    factors = tuple((tuple(pairs), sign) for support, sign in brackets
                    for pairs in telescoping_factors(support))
    return factors, t.shape.hook_length_count(), math.factorial(t.n)


def _times_gamma(x: GroupAlgebraElem, t: Tableau) -> GroupAlgebraElem:
    """x gamma_T: the plan's factors run forward on x's numerators as right
    products (a transposition swaps two slots of each image tuple), and
    f_lambda / n! is applied once at the end."""
    from .symgroup import GroupAlgebraElem, _apply_factors

    factors, f, n_factorial = _projection_plan(t)
    q = _apply_factors(x.num, factors)
    return GroupAlgebraElem._from_int(t.n, {k: c * f for k, c in q.items()},
                                      n_factorial * x.den)


def gamma(t: Tableau) -> GroupAlgebraElem:
    """The Young projector f_lambda N(T) P(T) / n! (an idempotent)."""
    from .symgroup import GroupAlgebraElem

    return _times_gamma(GroupAlgebraElem.identity(t.n), t)


def gamma_images(t: Tableau, polys) -> list:
    """[gamma_T p for p in polys], in one run of the plan.  The action is a
    left action, so the plan runs reversed on integer numerators: each row
    bracket [R], then each column bracket [C]'.  The numerators of the
    whole list are stacked in one map, each exponent tuple carrying its
    polynomial's index as one more slot; no transposition touches that
    slot, so one kernel run projects every polynomial, and the result
    splits back by it, each over its own denominator."""
    from .symgroup import _apply_factors

    factors, f, n_factorial = _projection_plan(t)
    polys = list(polys)
    stacked = {}
    for k, p in enumerate(polys):
        if p.nvars != t.n:
            raise DimensionMismatch("polynomial nvars mismatch")
        tag = (k,)
        for e, c in p.num.items():
            stacked[e + tag] = c
    split = [{} for _ in polys]
    for e, c in _apply_factors(stacked, reversed(factors)).items():
        split[e[-1]][e[:-1]] = c * f
    return [MultiPoly._from_int(t.n, num, n_factorial * p.den)
            for num, p in zip(split, polys)]


def gamma_apply(t: Tableau, p: MultiPoly) -> MultiPoly:
    """gamma_T p, equal to gamma(t).apply(p) without expanding gamma_T."""
    return gamma_images(t, [p])[0]


def v_t(t: Tableau) -> MultiPoly:
    """Product of (x_below - x_above) over same-column pairs.

    For a hook tableau with second-row entry j this is x_j - x_1.
    """
    n = t.n
    result = MultiPoly.constant(n, 1)
    for above, below in t.same_column_pairs():
        result = result * (MultiPoly.variable(n, below) - MultiPoly.variable(n, above))
    return result


def _check_column_cell(t: Tableau, i: int, cell):
    k, j = cell
    if not 1 <= i < j <= len(t.columns):
        raise ValueError(f"need columns i < j within the diagram, got i={i}, j={j}")
    col_j = t.columns[j - 1]
    if not 1 <= k <= len(col_j):
        raise ValueError(f"cell ({k},{j}) not in the tableau")
    return col_j[k - 1]


def alpha(t: Tableau, i: int, cell) -> GroupAlgebraElem:
    """Sum of transpositions (entry of column i, entry at ``cell``)."""
    from .symgroup import GroupAlgebraElem, Perm

    target = _check_column_cell(t, i, cell)
    terms = {Perm.transposition(t.n, source, target).images: 1
             for source in t.columns[i - 1]}
    return GroupAlgebraElem._from_int(t.n, terms)


def col_union_antisym(t: Tableau, i: int, cell) -> GroupAlgebraElem:
    """[C_i union {entry at cell}]', the signed bracket over the enlarged set."""
    from .symgroup import bracket

    target = _check_column_cell(t, i, cell)
    return bracket(t.n, t.columns[i - 1] + (target,), signed=True)


def hook_tableau(n: int, j: int) -> Tableau:
    """The standard tableau of shape [n-1, 1] with second-row entry j."""
    if n < 2 or not 2 <= j <= n:
        raise ValueError(f"hook tableau needs n >= 2 and 2 <= j <= n, got n={n}, j={j}")
    first = tuple(v for v in range(1, n + 1) if v != j)
    return Tableau([first, (j,)])
