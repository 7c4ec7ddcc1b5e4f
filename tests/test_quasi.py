"""Quasiinvariance predicate, graded dimension oracle, projection
membership, and the degree-cap/resource guards."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiinv import predicate, quasi, structure, tableaux
from quasiinv.exactalg import MultiPoly, elementary_symmetric, vandermonde
from quasiinv.predicate import delta_sq_embed, is_quasiinvariant
from quasiinv.quasi import (
    ResourceGuardError,
    change_of_basis_n2,
    graded_dimension_oracle,
    integer_nullspace,
    is_sym_basis,
    monomials_of_degree,
    poly_rank,
)
from quasiinv.structure import theorem_main_checks
from quasiinv.symgroup import Perm, act
from quasiinv.tableaux import (
    Partition,
    f_lambda,
    gamma_apply,
    hook_tableau,
    in_gamma_component,
    partitions_of,
    standard_tableaux,
    v_t,
)
from reference import (
    divide_exact,
    paper_basis,
    random_homogeneous,
    ref_constraint_rows,
    ref_lift,
    ref_rational,
)

FIRST_PRIME = (1 << 61) - 1  # the first prime the elimination core tries


def x(i, n):
    return MultiPoly.variable(n, i)


def pair_divides(p, m, i, j):
    """(x_i - x_j)^(2m+1) divides p - (i,j) p, by the long division."""
    n = p.nvars
    moved = p - act(Perm.transposition(n, i, j), p)
    return divide_exact(moved, (x(i, n) - x(j, n)) ** (2 * m + 1)) is not None


def qi_by_division(p, m):
    """Reference for the definition, independent of the constraint rows:
    (x_i - x_j)^(2m+1) divides p - (i,j) p exactly, for every i < j."""
    n = p.nvars
    return all(pair_divides(p, m, i, j)
               for i in range(1, n + 1) for j in range(i + 1, n + 1))


@st.composite
def qi_cases(draw):
    """(p, m) with n <= 4 and m <= 2: p rational and not homogeneous, or
    Delta^(2m) p + e_k, which is m-quasiinvariant."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(0, 2))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * n),
        st.fractions(-9, 9, max_denominator=6).filter(bool), min_size=1, max_size=3))
    p = MultiPoly(n, terms)
    # at n = 4, m = 2, Delta^4 has 2925 terms and the division reference
    # takes seconds per polynomial; the oracle witnesses of degree 9 are the
    # true cases there (test_witnesses_are_quasiinvariant)
    if (n, m) != (4, 2) and draw(st.booleans()):
        k = draw(st.integers(1, n))
        p = vandermonde(n) ** (2 * m) * p + elementary_symmetric(n, k)
    return p, m


@st.composite
def fold_cases(draw):
    """(p, m) with n <= 4 and m <= 2 that exercise the predicate's fold at
    a drawn pair (i, j): P + (i,j) P, whose fold is zero, P - (i,j) P,
    P without the terms whose swap partner is in P, P plus terms with
    e_i = e_j, or Delta^(2m) P, which is m-quasiinvariant."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(0, 2))
    i, j = draw(st.sampled_from([(i, j) for i in range(1, n + 1)
                                 for j in range(i + 1, n + 1)]))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n),
                                 st.integers(-9, 9).filter(bool), min_size=1, max_size=4))
    p = MultiPoly(n, terms)
    swapped = act(Perm.transposition(n, i, j), p)
    kind = draw(st.sampled_from(["plus", "minus", "unpaired", "diagonal", "delta"]))
    if kind == "plus":
        p = p + swapped
    elif kind == "minus":
        p = p - swapped
    elif kind == "unpaired":
        p = MultiPoly(n, {e: c for e, c in terms.items()
                          if e[i - 1] == e[j - 1] or e not in swapped.num})
    elif kind == "diagonal":
        e = list(draw(st.tuples(*[st.integers(0, 3)] * n)))
        e[j - 1] = e[i - 1]
        p = p + MultiPoly(n, {tuple(e): draw(st.integers(1, 9))})
    elif (n, m) != (4, 2):
        # see qi_cases for the size at n = 4, m = 2
        p = vandermonde(n) ** (2 * m) * p
    return p, m


def dense_rref(rows, ncols):
    """Reference: Fraction Gauss-Jordan elimination on dense rows.

    Returns (reduced rows, pivot columns)."""
    mat = [[Fraction(v) for v in r] for r in rows if any(r)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((k for k in range(r, len(mat)) if mat[k][c]), None)
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][c]:
                factor = mat[k][c]
                mat[k] = [a - factor * b for a, b in zip(mat[k], mat[r])]
        pivots.append(c)
    return mat[:len(pivots)], pivots


def dense_nullspace(rows, ncols):
    """Reference kernel: per free column, the reduced kernel vector scaled
    to a primitive integer vector {column: int} with a positive lead."""
    reduced, pivots = dense_rref(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = {f: Fraction(1)}
        for row, c in zip(reduced, pivots):
            if row[f]:
                vec[c] = -row[f]
        scale = math.lcm(*(v.denominator for v in vec.values()))
        ints = {c: int(vec[c] * scale) for c in sorted(vec)}
        g = math.gcd(*ints.values()) * (1 if ints[min(ints)] > 0 else -1)
        basis.append({c: v // g for c, v in ints.items()})
    return basis


def sparse(rows):
    return [{c: v for c, v in enumerate(r) if v} for r in rows]


def count_primes(monkeypatch):
    """Record the primes the elimination core runs with."""
    primes = []
    real = quasi._rref_mod

    def spy(rows, p):
        primes.append(p)
        return real(rows, p)

    monkeypatch.setattr(quasi, "_rref_mod", spy)
    return primes


# entries are mostly small, with multiples of the first prime mixed in so
# that the first prime often sees a smaller rank than Q does
ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.integers(-2, 2).map(lambda k: k * FIRST_PRIME),
    st.integers(-2, 2).map(lambda k: k * FIRST_PRIME + 1),
)


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return rows, ncols


# a small prime, where reconstructions often fail, the first prime, and a
# product of two primes as after a CRT step
MODULI = (101, FIRST_PRIME, FIRST_PRIME * ((1 << 61) - 31))


@st.composite
def residues(draw, modulus):
    """A residue mod ``modulus``: n/d for a small fraction, which usually
    reconstructs, or an arbitrary (possibly negative) integer, which at the
    large moduli usually does not."""
    if draw(st.booleans()):
        num = draw(st.integers(-10 ** 6, 10 ** 6))
        den = draw(st.integers(1, 10 ** 6))
        if math.gcd(den, modulus) != 1:
            den = 1
        return num * pow(den, -1, modulus) % modulus
    return draw(st.integers(-2 * modulus, 2 * modulus))


@st.composite
def kernels(draw):
    """(kernel, modulus) shaped like ``_kernel_mod``'s output: per free
    column f a residue vector that is 1 at f."""
    modulus = draw(st.sampled_from(MODULI))
    kernel = {}
    for f in draw(st.lists(st.integers(0, 7), max_size=3, unique=True)):
        cols = draw(st.lists(st.integers(0, 7), max_size=4, unique=True))
        kernel[f] = {c: draw(residues(modulus)) for c in cols if c != f}
        kernel[f][f] = 1
    return kernel, modulus


class TestLiftOnInts:
    """The int-pair reconstruction and lift against their Fraction
    versions in ``reference``."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), modulus=st.sampled_from(MODULI))
    def test_rational_matches_fraction_reference(self, data, modulus):
        a = data.draw(residues(modulus))
        pair = quasi._rational(a, modulus)
        expected = ref_rational(a, modulus)
        if expected is None:
            assert pair is None
        else:
            assert pair == (expected.numerator, expected.denominator)

    def test_rational_cases(self):
        p = FIRST_PRIME
        assert quasi._rational(-3 * pow(7, -1, p), p) == (-3, 7)
        assert quasi._rational(-3, p) == (-3, 1)
        assert quasi._rational(0, p) == (0, 1)
        assert quasi._rational(p // 2, p) == (-1, 2)
        assert quasi._rational(10 ** 17 + 3, p) is None
        assert ref_rational(10 ** 17 + 3, p) is None
        assert quasi._rational(8, 101) is None

    @settings(max_examples=200, deadline=None)
    @given(kernels())
    def test_lift_matches_fraction_reference(self, case):
        kernel, modulus = case
        assert quasi._lift(kernel, modulus) == ref_lift(kernel, modulus)

    def test_lift_scales_to_primitive_vectors(self):
        p = FIRST_PRIME
        half, third = pow(2, -1, p), pow(3, -1, p)
        kernel = {1: {0: -half % p, 1: 1, 2: third}, 3: {3: 1, 4: p - 2}}
        assert quasi._lift(kernel, p) == [{0: 3, 1: -6, 2: -2}, {3: 1, 4: -2}]
        assert quasi._lift({0: {0: 1, 1: p // 2}}, p) == [{0: 2, 1: -1}]
        assert quasi._lift({0: {0: 1}, 2: {1: 10 ** 17 + 3, 2: 1}}, p) is None


class TestPredicate:
    def test_m0_everything(self):
        rng = random.Random(0)
        for _ in range(10):
            p = random_homogeneous(rng, 3, rng.randrange(0, 4))
            assert is_quasiinvariant(p, 0)

    def test_symmetric_always(self):
        for n in (2, 3):
            for m in (0, 1, 2, 3):
                for i in range(1, n + 1):
                    assert is_quasiinvariant(elementary_symmetric(n, i), m)

    def test_hand_examples_n2(self):
        z = x(2, 2) - x(1, 2)
        assert is_quasiinvariant(z ** 3, 1)
        assert not is_quasiinvariant(z ** 3, 2)
        assert is_quasiinvariant(z ** 5, 2)
        assert not is_quasiinvariant(x(1, 2), 1)

    def test_vandermonde_squared_times_anything(self):
        # Delta^2 P is 1-quasiinvariant whenever P is 0-quasiinvariant
        rng = random.Random(1)
        v2 = vandermonde(3) ** 2
        for _ in range(5):
            p = random_homogeneous(rng, 3, 2)
            assert is_quasiinvariant(v2 * p, 1)

    @settings(max_examples=60, deadline=None)
    @given(qi_cases())
    def test_matches_division_reference(self, case):
        p, m = case
        for level in (m, m + 1):
            assert is_quasiinvariant(p, level) == qi_by_division(p, level)

    @settings(max_examples=80, deadline=None)
    @given(fold_cases())
    def test_fold_matches_division_reference(self, case):
        p, m = case
        for level in (m, m + 1):
            assert is_quasiinvariant(p, level) == qi_by_division(p, level)

    def test_chain_containment(self):
        # QI_{m+1} subset QI_m on oracle witnesses
        for n, m, dmax in ((2, 1, 6), (2, 2, 8), (3, 1, 6)):
            for d in range(dmax + 1):
                w = graded_dimension_oracle(n, m, d)
                for p in w.basis:
                    for lower in range(m + 1):
                        assert is_quasiinvariant(p, lower)


class TestStreamingPredicate:
    """The predicate goes pair by pair and stops at the first failing one."""

    # (m, p): p passes the pairs (1,2) and (1,3) and fails (2,3)
    LAST_PAIR_ONLY = [
        (1, MultiPoly(3, {(3, 0, 0): 1, (2, 0, 1): -3, (1, 2, 0): -3,
                          (0, 3, 0): 2, (0, 2, 1): -3})),
        (2, MultiPoly(3, {(5, 0, 0): 1, (4, 0, 1): -5, (3, 0, 2): 10,
                          (2, 3, 0): 10, (1, 4, 0): -5, (0, 5, 0): 2,
                          (0, 4, 1): -5, (0, 3, 2): 10})),
    ]

    @pytest.mark.parametrize("m, p", LAST_PAIR_ONLY)
    def test_fails_only_at_the_last_pair(self, m, p):
        assert [pair_divides(p, m, i, j) for i, j in ((1, 2), (1, 3), (2, 3))] == [
            True, True, False]
        assert not is_quasiinvariant(p, m)
        assert is_quasiinvariant(p, m - 1) == qi_by_division(p, m - 1)

    def test_stops_at_the_first_failing_pair(self, monkeypatch):
        pairs = []
        real = predicate._pair_terms

        def spy(i, j, m, monomials):
            pairs.append((i, j))
            return real(i, j, m, monomials)

        monkeypatch.setattr(predicate, "_pair_terms", spy)
        assert not is_quasiinvariant(x(1, 4) ** 2 * x(3, 4), 1)
        assert pairs == [(1, 2)]
        pairs.clear()
        assert not is_quasiinvariant(self.LAST_PAIR_ONLY[0][1], 1)
        assert pairs == [(1, 2), (1, 3), (2, 3)]
        pairs.clear()
        assert is_quasiinvariant(elementary_symmetric(4, 2), 3)
        assert len(pairs) == 6

    def test_odd_rows_have_the_kernel_of_the_full_rows(self):
        """The odd-power rows of x_i = c + u, x_j = c - u and the rows of
        x_i = x_j + u at every u^0..u^2m give the same nullspace basis,
        although the odd rows are fewer."""
        for n in range(1, 5):
            for m in range(4):
                for d in range(9):
                    monos = monomials_of_degree(n, d)
                    rows = quasi._constraint_rows(n, m, monos)
                    full = ref_constraint_rows(n, m, monos)
                    assert len(rows) <= len(full)
                    assert (integer_nullspace(rows, len(monos))
                            == integer_nullspace(full, len(monos))), (n, m, d)


class TestLinearAlgebra:
    def test_monomials_of_degree(self):
        monos = monomials_of_degree(3, 2)
        assert len(monos) == 6
        assert len(set(monos)) == 6
        assert all(sum(e) == 2 for e in monos)

    @settings(max_examples=150, deadline=None)
    @given(matrices(), st.lists(st.integers(1, 4), min_size=5, max_size=5))
    def test_core_matches_dense_reference(self, matrix, dens):
        rows, ncols = matrix
        rank = len(dense_rref(rows, ncols)[1])
        basis = integer_nullspace(sparse(rows), ncols)
        reference = dense_nullspace(rows, ncols)
        assert len(basis) == len(reference) == ncols - rank
        assert basis == reference
        polys = [
            MultiPoly(2, {(ncols - 1 - c, c): Fraction(v, den)
                          for c, v in enumerate(r) if v})
            for r, den in zip(rows, dens)
        ]
        assert poly_rank(polys) == rank

    def test_unlucky_prime_is_retried(self, monkeypatch):
        # modulo the first prime the rows have rank 1 and the kernel vector
        # e_0, which fails the exact check; the second prime is certified
        primes = count_primes(monkeypatch)
        rows = [[FIRST_PRIME, 1], [0, 1]]
        assert integer_nullspace(sparse(rows), 2) == dense_nullspace(rows, 2) == []
        assert len(primes) == 2 and primes[0] == FIRST_PRIME

    def test_large_entries_combine_primes(self, monkeypatch):
        # kernel entries near 2^120 need several primes combined by CRT
        primes = count_primes(monkeypatch)
        rows = [[3 ** 40 + 2, 5 ** 27 - 4, 7 ** 21 + 6, 1],
                [2 ** 63 + 9, 11 ** 18, 13 ** 16 - 2, 0]]
        basis = integer_nullspace(sparse(rows), 4)
        assert basis == dense_nullspace(rows, 4)
        assert len(primes) > 2
        for v in basis:
            for row in sparse(rows):
                assert sum(a * v.get(c, 0) for c, a in row.items()) == 0

    def test_integer_nullspace_vectors_are_solutions(self):
        rows = [{0: 1, 1: 2, 2: 3, 3: 4}, {1: 1, 2: 1, 3: 1}]
        basis = integer_nullspace(rows, 4)
        assert len(basis) == 2
        for v in basis:
            for row in rows:
                assert sum(a * v.get(c, 0) for c, a in row.items()) == 0

    def test_poly_rank(self):
        a = x(1, 2) + x(2, 2)
        b = x(1, 2) - x(2, 2)
        assert poly_rank([a, b, a + b]) == 2
        assert poly_rank([MultiPoly.zero(2)]) == 0

    def test_poly_rank_with_repeats_and_zeros(self, monkeypatch):
        # repeats and zeros leave the rank alone and never reach the
        # elimination; a scalar multiple is a distinct member
        from quasiinv import quasi

        sizes = []
        real = quasi.poly_relations

        def spy(polys):
            sizes.append(len(polys))
            return real(polys)

        monkeypatch.setattr(quasi, "poly_relations", spy)
        a = x(1, 2) + x(2, 2)
        b = x(1, 2) - x(2, 2)
        zero = MultiPoly.zero(2)
        assert poly_rank([a, zero, a, b, zero, a * 2, b, a]) == 2
        assert poly_rank([zero, zero]) == 0
        assert poly_rank([b, b, b]) == 1
        assert sizes == [3, 0, 1]


class TestOracle:
    def test_n2_m1_low_degrees(self):
        # independent hand count: degree d space is spanned by e1^d and,
        # once d >= 3, by (x2-x1)^3 e1^(d-3); dimension grows by the
        # symmetric polynomials in between
        dims = [graded_dimension_oracle(2, 1, d).dimension for d in range(6)]
        assert dims == [1, 1, 2, 3, 4, 5]

    def test_n2_m1_degree2_membership(self):
        w = graded_dimension_oracle(2, 1, 2)
        # degree 2: e1^2 and e2 span; both symmetric
        span_checks = [elementary_symmetric(2, 1) ** 2, elementary_symmetric(2, 2)]
        assert poly_rank(list(w.basis) + span_checks) == w.dimension == 2

    def test_m0_full_space(self):
        for d in range(5):
            w = graded_dimension_oracle(3, 0, d)
            assert w.dimension == len(monomials_of_degree(3, d))

    def test_witnesses_are_quasiinvariant(self):
        for n, m, d in ((2, 2, 5), (3, 1, 4), (3, 2, 7), (4, 2, 9)):
            w = graded_dimension_oracle(n, m, d)
            for p in w.basis:
                assert p.is_homogeneous() and p.degree() == d
                assert is_quasiinvariant(p, m)
                assert qi_by_division(p, m)

    def test_resource_guard(self):
        with pytest.raises(ResourceGuardError):
            graded_dimension_oracle(9, 1, 2)


class TestGammaComponent:
    def test_hook_membership(self):
        from quasiinv.hookbasis import HookSpec, q_integral

        q = q_integral(HookSpec(n=3, m=1, j=2, k=0))
        assert in_gamma_component(q, hook_tableau(3, 2), 1)
        assert not in_gamma_component(q, hook_tableau(3, 3), 1)

    def test_trivial_component(self):
        # symmetric polynomials lie in the component of the single-row tableau
        t = standard_tableaux(Partition([3]))[0]
        assert in_gamma_component(elementary_symmetric(3, 2), t, 1)

    def test_divisible_but_not_fixed_is_out(self):
        # V_T divides V_T x_1, but gamma_T moves it: both conditions count
        t = hook_tableau(3, 2)
        vt = v_t(t)
        polys = [vt, vt * x(1, 3), MultiPoly.zero(3), vt * x(3, 3)]
        assert gamma_apply(t, polys[1]) != polys[1]
        assert tableaux.gamma_component_verdicts(t, polys, 0) == [True, False, True, True]
        assert not in_gamma_component(polys[1], t, 0)

    @pytest.mark.parametrize("t", [standard_tableaux(Partition([3]))[0], hook_tableau(3, 2)],
                             ids=["row", "hook"])
    def test_negative_m_is_refused_before_any_projection(self, monkeypatch, t):
        # gamma_T fixes e_2 on the row and V_T e_2 on the hook: a negative
        # power of V_T must not pass as no condition at all
        def refuse(*args):
            raise AssertionError("projected before the refusal")

        monkeypatch.setattr(tableaux, "_apply_brackets", refuse)
        monkeypatch.setattr(tableaux, "_apply_factors", refuse)
        p = v_t(t) * elementary_symmetric(3, 2)
        for m in (-1, -2):
            with pytest.raises(ValueError, match="m must be non-negative"):
                in_gamma_component(p, t, m)
            with pytest.raises(ValueError, match="m must be non-negative"):
                tableaux.gamma_component_verdicts(t, [], m)

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize(
        "t",
        [t for n in (2, 3, 4) for shape in partitions_of(n)
         for t in standard_tableaux(shape) if len(t.same_column_pairs()) >= 2],
        ids=lambda t: str(t.rows))
    def test_vt_ideal_matches_division(self, t, m):
        """Checking V_T^(2m+1) one same-column pair at a time agrees with
        dividing by the whole power, also where a single pair divides to
        the full power and the others do not."""
        n = t.n
        vt = v_t(t)
        rng = random.Random(10 * n + m)
        for p in (MultiPoly.constant(n, 1), random_homogeneous(rng, n, 1),
                  random_homogeneous(rng, n, 2)):
            cases = [vt ** (2 * m + 1) * p, vt ** (2 * m) * p]
            cases += [vt ** (2 * m) * (x(below, n) - x(above, n)) * p
                      for above, below in t.same_column_pairs()]
            for f in cases:
                expected = divide_exact(f, vt ** (2 * m + 1)) is not None
                assert tableaux._in_vt_ideal(f, t, m) == expected
            assert tableaux._in_vt_ideal(cases[0], t, m)


class TestDeltaSqEmbed:
    def test_embedding_raises_level(self):
        rng = random.Random(3)
        for _ in range(5):
            p = random_homogeneous(rng, 2, 3)
            q = delta_sq_embed(p, 0)
            assert is_quasiinvariant(q, 1)
            assert q == vandermonde(2) ** 2 * p

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            delta_sq_embed(x(1, 2), 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_equals_squared_vandermonde_times_input(self, n, m):
        """delta2 multiplies by V twice; the product is Delta^2 p.  Below
        n = 4 the degrees reach the first non-symmetric members, mn + 1."""
        for d in range(m * n + 2 if n < 4 else 6):
            for p in graded_dimension_oracle(n, m, d).basis:
                assert delta_sq_embed(p, m) == vandermonde(n) ** 2 * p

    def test_term_table_counts_delta_squared(self):
        assert predicate._DELTA_SQ_TERMS == {
            n: len((vandermonde(n) ** 2).num) for n in range(1, 7)}

    @pytest.mark.parametrize("p, text", [
        (MultiPoly.variable(7, 1), "delta2 limited to nvars <= 6, got 7"),
        # 40 of the 126 degree-4 monomials in 6 variables: 40 * 56183 pairs
        (MultiPoly(6, dict.fromkeys(monomials_of_degree(6, 4)[:40], 1)),
         "delta2 limited to |Delta^2| |p| <= 100000 term pairs, got 2247320"),
        (MultiPoly(5, dict.fromkeys(monomials_of_degree(5, 3)[:34], 1)),
         "got 100674"),
    ], ids=["seven-variables", "six-variables-40-terms", "five-variables-34-terms"])
    def test_guard_refuses_before_any_work(self, monkeypatch, p, text):
        def refuse(*args):
            raise AssertionError("the guard ran after the work began")

        monkeypatch.setattr(predicate, "is_quasiinvariant", refuse)
        monkeypatch.setattr(predicate, "vandermonde", refuse)
        with pytest.raises(ResourceGuardError, match=re.escape(text)):
            delta_sq_embed(p, 0)

    def test_guard_admits_the_largest_inputs_in_use(self):
        # e_1^6 in 4 variables has 84 terms: 84 * 201 = 16884 pairs
        p = elementary_symmetric(4, 1) ** 6
        assert delta_sq_embed(p, 0) == vandermonde(4) ** 2 * p
        p = MultiPoly(5, dict.fromkeys(monomials_of_degree(5, 3)[:33], 1))
        assert delta_sq_embed(p, 0) == vandermonde(5) ** 2 * p


X1, X2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
ONE2 = MultiPoly.constant(2, 1)


class TestSymBasis:
    """``is_sym_basis`` at n = 2, where QI_m = Sym + Sym (x_1 - x_2)^(2m+1),
    and its refusals, each input failing one requirement only."""

    @pytest.mark.parametrize("m", range(5))
    def test_n2_basis_passes(self, m):
        assert is_sym_basis([ONE2, (X1 - X2) ** (2 * m + 1)], m)

    @pytest.mark.parametrize("m", range(5))
    def test_symmetric_generator_of_the_same_degree_fails(self, m):
        # e_1^(2m+1) is quasiinvariant with the right degree, but it is in Sym
        assert not is_sym_basis([ONE2, elementary_symmetric(2, 1) ** (2 * m + 1)], m)

    def test_wrong_count_fails(self):
        # the paper's n = 3 basis without 1: five generators of the right
        # degree sum, independent at the six points
        gens = [g for _, g in paper_basis(3, 1)]
        assert is_sym_basis(gens, 1)
        assert not is_sym_basis(gens[1:], 1)
        assert not is_sym_basis([], 1)

    def test_wrong_degree_sum_fails(self):
        # (x_1 - x_2)^3 is 0-quasiinvariant: a basis of QI_1, not of QI_0
        assert not is_sym_basis([ONE2, (X1 - X2) ** 3], 0)

    def test_non_homogeneous_member_fails(self):
        # (x_1 - x_2)^3 + e_1 is 1-quasiinvariant of degree 3, and its values
        # at (0, 1) and (1, 0) are independent of 1's
        p = (X1 - X2) ** 3 + elementary_symmetric(2, 1)
        assert is_quasiinvariant(p, 1)
        assert not is_sym_basis([ONE2, p], 1)

    def test_non_quasiinvariant_member_fails(self):
        # x_1^3 has the degree of (x_1 - x_2)^3, and its values at (0, 1)
        # and (1, 0) are independent of 1's, but it is not 1-quasiinvariant
        assert not is_quasiinvariant(X1 ** 3, 1)
        assert not is_sym_basis([ONE2, X1 ** 3], 1)


class TestMainCharacterization:
    def test_report_passes(self):
        for n, m in ((2, 1), (2, 2), (3, 1)):
            report = theorem_main_checks(n, m)
            assert report["passed"], report["failures"]
            assert report["checked_dims"] > 0
            assert report["checked_b"] > 0

    def test_deterministic(self):
        a = theorem_main_checks(2, 1)
        b = theorem_main_checks(2, 1)
        assert a == b

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_member_count_is_projected_oracle_rank(self, n, m):
        # gamma_T R_d intersect V_T^(2m+1) R = gamma_T(QI_m,d), so the check
        # tests exactly as many members as the projected witnesses span
        max_degree = min(quasi.degree_cap(), m * n + 2)
        expected = sum(
            poly_rank([gamma_apply(t, b)
                       for b in graded_dimension_oracle(n, m, d).basis])
            for d in range(max_degree + 1)
            for shape in partitions_of(n)
            for t in standard_tableaux(shape)
        )
        assert theorem_main_checks(n, m)["checked_b"] == expected

    def test_hook_components_without_v_t_fail(self, monkeypatch):
        # with V_T = 1 on the hook [n-1, 1], B_d is all of gamma_T R_d: its
        # members fail quasiinvariance and outnumber those of gamma_T(QI_m,d)
        def v_t_one_on_hooks(t):
            if t.shape.parts == (t.n - 1, 1):
                return MultiPoly.constant(t.n, 1)
            return v_t(t)

        monkeypatch.setattr(structure, "v_t", v_t_one_on_hooks)
        report = theorem_main_checks(3, 1)
        assert not report["passed"]
        assert {kind for kind, _, _ in report["failures"]} == {
            "b:quasiinvariance", "dimension"}

    @pytest.mark.parametrize("n, m", [(3, 1), (3, 2), (4, 1)])
    def test_hook_components_with_v_t_squared_fail(self, monkeypatch, n, m):
        # V_T^2 on the hooks doubles delta_T, so B_d stays empty in degrees
        # where gamma_T(QI_m) is not: only the dimension count sees it
        def v_t_squared_on_hooks(t):
            v = v_t(t)
            return v * v if t.shape.parts == (t.n - 1, 1) else v

        monkeypatch.setattr(structure, "v_t", v_t_squared_on_hooks)
        report = theorem_main_checks(n, m)
        assert not report["passed"]
        assert {kind for kind, _, _ in report["failures"]} == {"dimension"}

    @pytest.mark.parametrize("parts, n, m", [
        ((2, 2), 4, 1), ((2, 2), 4, 2), ((3, 2), 5, 1)],
        ids=["2,2-4-1", "2,2-4-2", "3,2-5-1"])
    def test_non_hook_component_without_v_t_fails(self, monkeypatch, parts, n, m):
        # gamma_T(QI_m) starts above the window for these shapes, so only a
        # delta_T read off v_t itself lets the mutation reach a checked degree
        def v_t_one_on_shape(t):
            if t.shape.parts == parts:
                return MultiPoly.constant(t.n, 1)
            return v_t(t)

        monkeypatch.setattr(structure, "v_t", v_t_one_on_shape)
        report = theorem_main_checks(n, m)
        assert not report["passed"]
        named = {kind: {rows for k, _, rows in report["failures"] if k == kind}
                 for kind in ("b:quasiinvariance", "dimension")}
        assert named["b:quasiinvariance"] <= {
            t.rows for t in standard_tableaux(Partition(parts))}
        assert named["dimension"] <= {None}

    @pytest.mark.parametrize("n, m", [(3, 1), (4, 1), (5, 1)])
    def test_repeated_tableau_fails(self, monkeypatch, n, m):
        # f_lambda copies of one tableau per shape give components of the
        # right total size that overlap: only the rank of their union sees it
        def first_tableau_repeated(shape):
            return [standard_tableaux(shape)[0]] * f_lambda(shape)

        monkeypatch.setattr(structure, "standard_tableaux", first_tableau_repeated)
        report = theorem_main_checks(n, m)
        assert not report["passed"]
        assert {kind for kind, _, _ in report["failures"]} == {"dimension"}


class TestDegreeCap:
    def test_env_override(self, monkeypatch):
        from quasiinv import quasi

        monkeypatch.setenv("QI_MAX_DEGREE", "5")
        assert quasi.degree_cap() == 5
        monkeypatch.delenv("QI_MAX_DEGREE")
        assert quasi.degree_cap() == quasi.DEFAULT_DEGREE_CAP

    def test_degree_guard(self):
        with pytest.raises(ResourceGuardError):
            graded_dimension_oracle(2, 1, 100)

    @pytest.mark.parametrize("value", ["-5", "abc", "1e3", " 12", "+5"])
    def test_invalid_value_is_refused(self, monkeypatch, value):
        monkeypatch.setenv("QI_MAX_DEGREE", value)
        with pytest.raises(ValueError, match=re.escape(
                f"QI_MAX_DEGREE must be a non-negative integer, got {value!r}")):
            quasi.degree_cap()

    def test_change_of_basis_refuses_before_any_work(self, monkeypatch):
        # its top generator (x_1 - x_2)^(2m+3) is held to the cap
        def refuse(*args):
            raise AssertionError("the guard ran after the work began")

        monkeypatch.setattr(quasi, "is_sym_basis", refuse)
        monkeypatch.delenv("QI_MAX_DEGREE", raising=False)
        with pytest.raises(ResourceGuardError, match=re.escape(
                "degree 13 above cap 12 (set QI_MAX_DEGREE to raise)")):
            change_of_basis_n2(5)
        monkeypatch.setenv("QI_MAX_DEGREE", "10")
        with pytest.raises(ResourceGuardError, match="degree 11 above cap 10"):
            change_of_basis_n2(4)
