"""Partitions, standard Young tableaux and their statistics: content,
the number f_lambda of standard tableaux, and cocharge.

These are all the Hilbert series of QI_m reads: its numerator is the sum
of q^(m(C(n,2) - content(lambda)) + cocharge(T)) over the standard
tableaux T.  The module imports ``exactalg`` alone, so the series and the
oracle check of ``hilbert`` compile no Young projector; the projector,
V_T and the membership test are in ``tableaux``, which builds on this.

Cell convention: (row i, column j), 1-based, with row 1 the longest row.
Standardness: entries increase left-to-right along rows and top-to-bottom
down columns.  Content is sum of (j - i) over cells, so a single column of
size 3 has content -3.
"""

from __future__ import annotations

import itertools
import math

from .exactalg import TheoremViolationError


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
