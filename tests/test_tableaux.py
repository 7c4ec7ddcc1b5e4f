"""Partitions, standard tableaux, cocharge, and the Young-symmetrizer
projections gamma_T with their algebraic identities."""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiinv.exactalg import (
    DimensionMismatch,
    MultiPoly,
    ResourceGuardError,
    elementary_symmetric,
)
from quasiinv.symgroup import (
    GroupAlgebraElem,
    Perm,
    act,
    bracket,
    subgroup_perms,
    times_brackets,
)
from quasiinv.tableaux import (
    _times_gamma,
    alpha,
    col_union_antisym,
    gamma,
    gamma_apply,
    gamma_images,
    hook_tableau,
    v_t,
)
from quasiinv.young import (
    Partition,
    Tableau,
    cocharge,
    content,
    f_lambda,
    partitions_of,
    standard_tableaux,
)
from reference import convolve

PARTITION_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11}
TABLEAUX_UP_TO_5 = [t for n in range(1, 6) for shape in partitions_of(n)
                    for t in standard_tableaux(shape)]


@functools.lru_cache(maxsize=None)
def expanded_gamma(t):
    return gamma(t)


def rational_polys(n):
    """Non-homogeneous polynomials with rational coefficients."""
    exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return st.dictionaries(exponents, coeffs, max_size=6).map(
        lambda terms: MultiPoly(n, terms))


def tableau_id(t):
    return "/".join(",".join(map(str, row)) for row in t.rows)


class TestPartition:
    def test_enumeration_counts(self):
        for n, count in PARTITION_COUNTS.items():
            assert len(list(partitions_of(n))) == count

    def test_conjugate_involution(self):
        for n in range(1, 7):
            for shape in partitions_of(n):
                assert shape.conjugate().conjugate() == shape

    def test_content(self):
        assert content(Partition([3])) == 3
        assert content(Partition([1, 1, 1])) == -3
        assert content(Partition([2, 1])) == 0
        for n in range(2, 7):
            for shape in partitions_of(n):
                assert content(shape.conjugate()) == -content(shape)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Partition([1, 2])
        with pytest.raises(ValueError):
            Partition([2, 0])


class TestStandardTableaux:
    def test_counts_match_hook_formula(self):
        for n in range(1, 7):
            for shape in partitions_of(n):
                tabs = standard_tableaux(shape)
                assert len(tabs) == f_lambda(shape)
                assert all(t.standard for t in tabs)
                assert len(set(tabs)) == len(tabs)

    def test_dimension_sum_of_squares(self):
        for n in range(1, 7):
            total = sum(f_lambda(s) ** 2 for s in partitions_of(n))
            assert total == math.factorial(n)

    def test_conjugate_multiplicity(self):
        for n in range(2, 7):
            for shape in partitions_of(n):
                assert f_lambda(shape) == f_lambda(shape.conjugate())

    def test_hook_tableau(self):
        t = hook_tableau(4, 3)
        assert t.rows == ((1, 2, 4), (3,))
        assert t.standard
        with pytest.raises(ValueError):
            hook_tableau(4, 1)

    def test_non_standard_detected(self):
        assert not Tableau([(2, 3), (1,)]).standard
        assert not Tableau([(1, 3), (4, 2)]).standard


def reference_columns(rows):
    """Columns of a filling by transposing its cell map {(row, col): entry}."""
    cells = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
    width = 1 + max(j for _, j in cells)
    return tuple(tuple(cells[i, j] for i in range(len(rows)) if (i, j) in cells)
                 for j in range(width))


class TestTableauData:
    def test_derived_data_of_every_filling(self):
        # every filling of every shape with n <= 5: columns, n and the
        # same-column pairs against a transpose of the rows, and standard
        # against membership in the enumeration (so the enumeration is complete)
        for n in range(1, 6):
            for shape in partitions_of(n):
                standard = set(standard_tableaux(shape))
                for word in itertools.permutations(range(1, n + 1)):
                    it = iter(word)
                    rows = [tuple(itertools.islice(it, part)) for part in shape.parts]
                    t = Tableau(rows)
                    columns = reference_columns(rows)
                    assert t.columns == columns
                    assert t.n == n
                    assert t.same_column_pairs() == [
                        (col[a], col[b]) for col in columns
                        for a, b in itertools.combinations(range(len(col)), 2)]
                    assert t.standard == (t in standard)


class TestCocharge:
    def test_row_tableau_is_zero(self):
        for n in range(1, 7):
            t = standard_tableaux(Partition([n]))[0]
            assert cocharge(t) == 0

    def test_column_tableau(self):
        t = Tableau([(1,), (2,), (3,)])
        assert cocharge(t) == 3
        assert cocharge(Tableau([(1,), (2,), (3,), (4,)])) == 6

    def test_hook_values(self):
        # the hook tableau with j in the second row has cocharge n - j + 1
        for n in range(2, 6):
            for j in range(2, n + 1):
                assert cocharge(hook_tableau(n, j)) == n - j + 1

    def test_sum_over_shape_is_q_analog(self):
        # sum of q^cocharge over ST([2,1]) has exponents {1, 2}
        tabs = standard_tableaux(Partition([2, 1]))
        assert sorted(cocharge(t) for t in tabs) == [1, 2]


class TestSymmetrizers:
    def test_gamma_idempotent(self):
        for n in range(2, 5):
            for shape in partitions_of(n):
                for t in standard_tableaux(shape):
                    g = gamma(t)
                    assert _times_gamma(g, t) == convolve(g, g) == g

    @pytest.mark.parametrize("t", TABLEAUX_UP_TO_5, ids=tableau_id)
    def test_gamma_matches_reference_convolution(self, t):
        # N(T) P(T) multiplied out by the Fraction reference convolution
        n = t.n
        col = row = GroupAlgebraElem.identity(n)
        for column in t.columns:
            col = convolve(col, bracket(n, column, signed=True))
        for r in t.rows:
            row = convolve(row, bracket(n, r, signed=False))
        scale = Fraction(f_lambda(t.shape), math.factorial(n))
        want = {perm: c * scale for perm, c in convolve(col, row).terms.items()}
        assert expanded_gamma(t) == GroupAlgebraElem(n, want)

    def test_row_symmetrizer_fixes_row_symmetric(self):
        t = hook_tableau(3, 3)  # rows (1,2), (3,)
        x1 = MultiPoly.variable(3, 1)
        x2 = MultiPoly.variable(3, 2)
        p = x1 * x2
        f = times_brackets(GroupAlgebraElem.identity(3),
                           [(row, False) for row in t.rows])
        assert f.apply(p) == p * 2  # unnormalized sum over the row group

    def test_col_antisymmetrizer_alternates(self):
        t = hook_tableau(3, 2)  # columns {1,2}
        f = times_brackets(GroupAlgebraElem.identity(3),
                           [(col, True) for col in t.columns])
        x1 = MultiPoly.variable(3, 1)
        x2 = MultiPoly.variable(3, 2)
        assert f.apply(x1) == x1 - x2
        assert f.apply(x1 + x2).is_zero()

    def test_projections_resolve_identity_in_trace(self):
        # sum over standard tableaux of gamma coefficients at the identity
        # equals 1 (the projections decompose the regular representation)
        for n in range(2, 5):
            total = Fraction(0)
            for shape in partitions_of(n):
                for t in standard_tableaux(shape):
                    g = gamma(t)
                    from quasiinv.symgroup import Perm

                    total += g.terms.get(Perm.identity(n), Fraction(0))
            assert total == 1

    def test_zero_products_distinct_tableaux_same_shape(self):
        for shape in (Partition([2, 1]), Partition([2, 2]), Partition([3, 1])):
            tabs = standard_tableaux(shape)
            for a in tabs:
                for b in tabs:
                    if a is b:
                        continue
                    brackets = ([(col, True) for col in a.columns]
                                + [(row, False) for row in b.rows])
                    prod = times_brackets(GroupAlgebraElem.identity(a.n), brackets)
                    assert prod.is_zero()

    def test_alpha_fixes_gamma(self):
        # alpha(T, i, cell) gamma_T = gamma_T for each admissible pair
        for n in range(3, 5):
            for shape in partitions_of(n):
                for t in standard_tableaux(shape):
                    g = gamma(t)
                    for i in range(1, len(t.columns)):
                        for j in range(i + 1, len(t.columns) + 1):
                            for k in range(1, len(t.columns[j - 1]) + 1):
                                a = alpha(t, i, (k, j))
                                assert _times_gamma(a, t) == convolve(a, g) == g

    def test_merged_bracket_factorization(self):
        # (1 - alpha) [C_i]' equals the bracket over C_i with the cell merged
        from quasiinv.symgroup import GroupAlgebraElem, bracket

        for n in range(3, 5):
            for shape in partitions_of(n):
                for t in standard_tableaux(shape):
                    for i in range(1, len(t.columns)):
                        for j in range(i + 1, len(t.columns) + 1):
                            for k in range(1, len(t.columns[j - 1]) + 1):
                                a = alpha(t, i, (k, j))
                                one_minus_a = GroupAlgebraElem.identity(n) - a
                                ci = t.columns[i - 1]
                                want = col_union_antisym(t, i, (k, j))
                                assert times_brackets(one_minus_a, [(ci, True)]) == want
                                assert convolve(one_minus_a, bracket(n, ci, signed=True)) == want

    @pytest.mark.parametrize("n, pairs", [(4, 22), (5, 86)])
    def test_union_times_rows_folds_to_zero_before_any_factor(self, monkeypatch,
                                                              n, pairs):
        # [C_i + cell]' holds a transposition of the cell's row, so the row
        # fold merges its terms in cancelling pairs and no factor runs
        from quasiinv import brackets

        runs = []
        real = brackets._apply_factors

        def spy(q, factors, sign):
            runs.extend(len(q) for _ in factors)
            return real(q, factors, sign)

        monkeypatch.setattr(brackets, "_apply_factors", spy)
        checked = 0
        for shape in partitions_of(n):
            for t in standard_tableaux(shape):
                rows = [(row, False) for row in t.rows]
                for i in range(1, len(t.columns)):
                    for j in range(i + 1, len(t.columns) + 1):
                        for k in range(1, len(t.columns[j - 1]) + 1):
                            union = col_union_antisym(t, i, (k, j))
                            assert times_brackets(union, rows).is_zero()
                            checked += 1
        assert checked == pairs
        assert runs == []

    def test_col_union_factorization(self):
        # B(i, cell) = N(T) * alpha-sum structure: applying the merged
        # antisymmetrizer then the row symmetrizer kills gamma components
        t = hook_tableau(3, 2)  # rows (1,3),(2,): column 1 = {1,2}, column 2 = {3}
        merged = col_union_antisym(t, 1, (1, 2))
        assert not merged.is_zero()
        assert len(merged.terms) == 6  # antisymmetrizes all of {1,2,3}


class TestGammaApply:
    @pytest.mark.parametrize("t", TABLEAUX_UP_TO_5, ids=tableau_id)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_matches_expanded_projector(self, t, data):
        n = t.n
        for p in (MultiPoly.zero(n), MultiPoly.constant(n, Fraction(-7, 4)),
                  data.draw(rational_polys(n))):
            assert gamma_apply(t, p) == expanded_gamma(t).apply(p)

    def test_refusals(self):
        with pytest.raises(ValueError, match="^gamma requires a standard tableau$"):
            gamma_apply(Tableau([(2, 1), (3,)]), MultiPoly.variable(3, 1))
        with pytest.raises(ValueError, match=r"^gamma limited to \|R\(T\)\| \|C\(T\)\| "
                                             r"<= 40320, got 80640$"):
            gamma_apply(Tableau([tuple(range(1, 9)), (9,)]), MultiPoly.variable(9, 1))
        with pytest.raises(DimensionMismatch):
            gamma_apply(hook_tableau(3, 2), MultiPoly.variable(4, 1))

    def test_cost_guards_are_resource_guards(self):
        # the projector and the group enumeration refuse shape [8, 1] as
        # every other cost guard does, with the same exit code and text
        t = Tableau([tuple(range(1, 9)), (9,)])
        with pytest.raises(ResourceGuardError, match=r"^gamma limited to \|R\(T\)\| "
                                                     r"\|C\(T\)\| <= 40320, got 80640$"):
            gamma_apply(t, MultiPoly.variable(9, 1))
        with pytest.raises(ResourceGuardError,
                           match="^group enumeration limited to n <= 8$"):
            subgroup_perms(9, t.rows[0])


@st.composite
def projection_lists(draw):
    """(t, polys): a standard tableau with n <= 5 and 0-6 polynomials in n
    variables, with zeros, constants over other denominators and repeats
    mixed in among rational polynomials."""
    t = draw(st.sampled_from(TABLEAUX_UP_TO_5))
    n = t.n
    pool = st.one_of(
        rational_polys(n),
        st.just(MultiPoly.zero(n)),
        st.fractions(-9, 9, max_denominator=12).map(
            lambda c: MultiPoly.constant(n, c)),
    )
    polys = draw(st.lists(pool, max_size=6))
    if polys and draw(st.booleans()):
        polys.append(polys[draw(st.integers(0, len(polys) - 1))])
    return t, polys[:6]


@st.composite
def row_class_lists(draw):
    """(t, polys): a standard tableau with n <= 5 and a shuffled list of a
    rational polynomial, its images under row permutations of T (scaled),
    symmetric polynomials, zeros and repeats, so that row classes meet
    across and within the list."""
    t = draw(st.sampled_from(TABLEAUX_UP_TO_5))
    n = t.n
    p = draw(rational_polys(n))
    scales = st.fractions(-9, 9, max_denominator=12).filter(bool)
    polys = [p, MultiPoly.zero(n)]
    for _ in range(draw(st.integers(1, 3))):
        images = list(range(1, n + 1))
        for row in t.rows:
            for slot, value in zip(row, draw(st.permutations(row))):
                images[slot - 1] = value
        polys.append(act(Perm(images), p) * draw(scales))
    for degrees in draw(st.lists(st.lists(st.integers(1, n), max_size=3), max_size=2)):
        sym = MultiPoly.constant(n, draw(scales))
        for i in degrees:
            sym = sym * elementary_symmetric(n, i)
        polys.append(sym)
    polys.append(polys[draw(st.integers(0, len(polys) - 1))])
    return t, draw(st.permutations(polys))


class TestGammaImages:
    @settings(max_examples=150, deadline=None)
    @given(projection_lists())
    def test_matches_one_projection_per_polynomial(self, case):
        t, polys = case
        assert gamma_images(t, polys) == [gamma_apply(t, p) for p in polys]

    @settings(max_examples=150, deadline=None)
    @given(row_class_lists())
    def test_matches_the_expanded_projector(self, case):
        # the expanded element acts permutation by permutation, with no row
        # sorting, so it checks the row classes that gamma_images shares
        t, polys = case
        assert gamma_images(t, polys) == [expanded_gamma(t).apply(p) for p in polys]

    def test_projects_a_list_in_one_kernel_run(self, monkeypatch):
        from quasiinv import tableaux

        calls = []
        real_factors, real_brackets = tableaux._apply_factors, tableaux._apply_brackets

        def factors_spy(q, factors, sign):
            calls.append(("rows", len(q)))
            return real_factors(q, factors, sign)

        def brackets_spy(q, groups):
            calls.append(("columns", len(q)))
            return real_brackets(q, groups)

        monkeypatch.setattr(tableaux, "_apply_factors", factors_spy)
        monkeypatch.setattr(tableaux, "_apply_brackets", brackets_spy)
        t = hook_tableau(3, 2)
        polys = [MultiPoly.variable(3, i) for i in (1, 2, 3)] + [MultiPoly.zero(3)]
        images = gamma_images(t, polys)
        # x1 and x3 share the row class of T's row (1, 3), so the rows'
        # factors run once on one term per class, on the stack folded once,
        # and the columns group once on their three terms
        assert calls == [("rows", 2), ("columns", 3)]
        assert images[0] == images[2]
        assert images[3].is_zero()

    def test_refusals(self):
        x = MultiPoly.variable(3, 1)
        with pytest.raises(ValueError, match="^gamma requires a standard tableau$"):
            gamma_images(Tableau([(2, 1), (3,)]), [])
        with pytest.raises(ValueError, match=r"^gamma limited to \|R\(T\)\| \|C\(T\)\| "
                                             r"<= 40320, got 80640$"):
            gamma_images(Tableau([tuple(range(1, 9)), (9,)]), [])
        for k in range(3):
            polys = [x, x, x]
            polys[k] = MultiPoly.variable(4, 1)
            with pytest.raises(DimensionMismatch):
                gamma_images(hook_tableau(3, 2), polys)


class TestVT:
    def test_hook_v_t(self):
        for n in range(2, 6):
            for j in range(2, n + 1):
                t = hook_tableau(n, j)
                xj = MultiPoly.variable(n, j)
                x1 = MultiPoly.variable(n, 1)
                assert v_t(t) == xj - x1

    def test_column_shape(self):
        t = Tableau([(1,), (2,), (3,)])
        x = lambda i: MultiPoly.variable(3, i)
        assert v_t(t) == (x(2) - x(1)) * (x(3) - x(1)) * (x(3) - x(2))

    def test_alternates_under_column_group(self):
        t = Tableau([(1, 4), (2,), (3,)])
        vt = v_t(t)
        for s in subgroup_perms(4, (1, 2, 3)):
            assert act(s, vt) == vt * s.sign()
