"""The transposition kernel: brackets [U] and [U]' applied to a map
{tuple: int}, the numerators of a polynomial or of a group-algebra element.

A transposition (a b) swaps slots a and b of every key, which is its left
action on exponent tuples and the right product by it on image tuples.
``_apply_brackets`` is the kernel's one entry point.  It runs groups of
brackets over disjoint supports, and for each group it first folds the
map onto bracket classes (``_fold``: each key sorted decreasing within
each support, with the sign of the sort for [U]') and then expands the
telescoping factors of ``telescoping_factors`` (``_apply_factors``, the
one expansion loop).  After the fold no expansion can cancel, so the loop
filters nothing.

The module imports no other module of the package: it runs on int
numerators alone.  ``symgroup`` and ``tableaux`` import it, so the Young
projectors act on polynomials without loading the group algebra, and the
quasiinvariance predicate imports ``_fold`` when it runs, to fold by
(1 - (i j)); a command that runs neither (``oracle``, ``hilbert``,
``basis``, ``apply --op lm``, ``verify --suite lm``) does not compile it.
"""

from __future__ import annotations

import functools
from operator import itemgetter


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
