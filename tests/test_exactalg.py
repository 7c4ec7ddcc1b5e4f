"""Exact polynomial arithmetic: the integer kernel against a Fraction
reference, ring axioms, the shift expansion at x_a = x_b + u (checked
against the test-only long division), definite integration in
t = x_(n+1), and the exact helpers that live beside their consumers:
q-series expansion (``structure``) and the bracket kernel of
``brackets`` (the fold onto bracket classes before each telescoping
expansion)."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiinv.brackets import _apply_brackets, _apply_factors, _bracket_group, _fold
from quasiinv.exactalg import (
    DimensionMismatch,
    MultiPoly,
    elementary_symmetric,
    shift_coefficients,
    t_integrate_definite,
    vandermonde,
)
from quasiinv.structure import series_expand
from reference import (
    divide_exact,
    ref_add,
    ref_mul,
    ref_scale,
    ref_shift_coefficients,
    ref_t_integrate_definite,
)

NVARS = 3


def coeffs():
    return st.fractions(
        min_value=-50, max_value=50, max_denominator=12
    )


def exponents():
    return st.tuples(*(st.integers(min_value=0, max_value=4).map(int)
                       for _ in range(NVARS)))


def polys():
    return st.dictionaries(exponents(), coeffs(), max_size=5).map(
        lambda d: MultiPoly(NVARS, d)
    )


def mul_one_minus_q_power(s, j):
    """Reference: multiply a truncated series by (1 - q^j)."""
    out = list(s)
    for d in range(len(s) - 1, j - 1, -1):
        out[d] -= s[d - j]
    return tuple(out)


def x(i, n=NVARS):
    return MultiPoly.variable(n, i)


@st.composite
def shift_cases(draw):
    """(p, a, b, k): p in n <= 4 variables with exponents <= 3, two
    different variable indices a and b, and k <= 3."""
    n = draw(st.integers(2, 4))
    a, b = draw(st.permutations(range(1, n + 1)))[:2]
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n),
                                 coeffs(), max_size=4))
    return MultiPoly(n, terms), a, b, draw(st.integers(0, 3))


def merge(p, a, b):
    """p at x_a = x_b, by moving each exponent of x_a onto x_b."""
    terms = {}
    for exp, c in p.terms.items():
        key = list(exp)
        key[b - 1] += key[a - 1]
        key[a - 1] = 0
        terms[tuple(key)] = terms.get(tuple(key), 0) + c
    return MultiPoly(p.nvars, terms)


def coeff_maps(n):
    """{exponent: Fraction} maps in n variables: mixed denominators,
    negative coefficients, exponents up to 3."""
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * n),
                           coeffs().filter(bool), max_size=4)


@st.composite
def kernel_cases(draw, min_n=1):
    """(n, p, q): two coefficient maps in n variables.  q is free, the
    negation of p (their sum is zero), p with a tail negated (a sum that
    cancels in part), or a - b against p = a + b (a product whose cross
    terms cancel)."""
    n = draw(st.integers(min_n, 3))
    a, b, c = draw(coeff_maps(n)), draw(coeff_maps(n)), draw(coeff_maps(n))
    p = ref_add(a, b)
    q = draw(st.sampled_from([
        c,
        ref_scale(p, -1),
        ref_add(ref_scale(p, Fraction(-3, 7)), c),
        ref_add(a, ref_scale(b, -1)),
    ]))
    return n, p, q


def scalars():
    return st.one_of(st.integers(-6, 6), coeffs())


def assert_canonical(p: MultiPoly):
    """Integer numerators over one positive denominator, in lowest terms,
    with no zero numerator."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c != 0 for c in p.num.values())
    assert all(len(e) == p.nvars for e in p.num)
    assert math.gcd(p.den, *p.num.values()) == 1


def assert_matches(p: MultiPoly, reference: dict):
    assert_canonical(p)
    assert p.terms == reference


class TestIntegerKernel:
    """Each operation on integer numerators over one denominator agrees
    with the same operation on Fraction coefficient maps, and every result
    is in canonical form."""

    @settings(max_examples=60, deadline=None)
    @given(kernel_cases())
    def test_add_sub_neg(self, case):
        n, p, q = case
        P, Q = MultiPoly(n, p), MultiPoly(n, q)
        assert_matches(P, p)
        assert_matches(P + Q, ref_add(p, q))
        assert_matches(P - Q, ref_add(p, ref_scale(q, -1)))
        assert_matches(-P, ref_scale(p, -1))

    @settings(max_examples=60, deadline=None)
    @given(kernel_cases())
    def test_mul(self, case):
        n, p, q = case
        assert_matches(MultiPoly(n, p) * MultiPoly(n, q), ref_mul(p, q))

    @settings(max_examples=40, deadline=None)
    @given(kernel_cases(), scalars())
    def test_scalar_mul_and_constant_add(self, case, c):
        n, p, _ = case
        P = MultiPoly(n, p)
        assert_matches(P * c, ref_scale(p, c))
        assert_matches(c * P, ref_scale(p, c))
        assert_matches(P + c, ref_add(p, {(0,) * n: Fraction(c)} if c else {}))

    @settings(max_examples=40, deadline=None)
    @given(kernel_cases(min_n=3), st.sampled_from([(1, 2), (2, 1)]))
    def test_t_integrate_definite(self, case, limits):
        # the last of the n variables is t, so two limits need n >= 3
        n, p, _ = case
        lower, upper = limits
        assert_matches(t_integrate_definite(MultiPoly(n, p), lower, upper),
                       ref_t_integrate_definite(p, lower, upper))

    @settings(max_examples=40, deadline=None)
    @given(kernel_cases(min_n=2), st.permutations(range(1, 4)), st.integers(0, 4))
    def test_shift_coefficients(self, case, pair, k):
        n, p, _ = case
        a, b = [v for v in pair if v <= n][:2]
        got = shift_coefficients(MultiPoly(n, p), a, b, k)
        want = ref_shift_coefficients(p, a, b, k)
        assert len(got) == len(want) == k + 1
        for c, ref in zip(got, want):
            assert_matches(c, ref)

    @settings(max_examples=40, deadline=None)
    @given(kernel_cases())
    def test_equal_values_by_different_routes(self, case):
        n, p, q = case
        P, Q = MultiPoly(n, p), MultiPoly(n, q)
        routes = [
            (P * Fraction(3, 7)) * Fraction(7, 3),
            (P + Q) - Q,
            P * 2 - P,
            P * MultiPoly.constant(n, 1),
            MultiPoly(n, P.terms),
        ]
        for r in routes:
            assert_canonical(r)
            assert r == P and hash(r) == hash(P)
        assert P - P == MultiPoly.zero(n)
        assert hash(P - P) == hash(MultiPoly.zero(n))
        assert (P * 0).num == {} and (P * 0).den == 1


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(polys(), polys(), polys())
    def test_add_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys(), polys())
    def test_mul_associative_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40, deadline=None)
    @given(polys())
    def test_additive_inverse_and_identities(self, a):
        zero = MultiPoly.zero(NVARS)
        one = MultiPoly.constant(NVARS, 1)
        assert a - a == zero
        assert a + zero == a
        assert a * one == a
        assert a * zero == zero

    @settings(max_examples=30, deadline=None)
    @given(polys(), st.integers(min_value=0, max_value=4))
    def test_pow_matches_repeated_product(self, a, k):
        expected = MultiPoly.constant(NVARS, 1)
        for _ in range(k):
            expected = expected * a
        assert a ** k == expected


class TestBasics:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            MultiPoly.variable(2, 1) + MultiPoly.variable(3, 1)

    def test_degree_and_homogeneous(self):
        p = x(1) ** 2 * x(2) + x(3) ** 3
        assert p.degree() == 3
        assert p.is_homogeneous()
        assert not (p + x(1)).is_homogeneous()
        assert MultiPoly.zero(NVARS).degree() == -1

    def test_to_text(self):
        p = x(1) ** 2 - x(2) * MultiPoly.constant(NVARS, Fraction(1, 3))
        assert p.to_text() == "x1^2 - 1/3*x2"
        assert MultiPoly.zero(NVARS).to_text() == "0"

    def test_scalar_multiplication(self):
        p = x(1) + x(2)
        assert p * Fraction(1, 2) + p * Fraction(1, 2) == p

    @pytest.mark.parametrize("op", [
        lambda p: p * "x", lambda p: "x" * p, lambda p: p * 2.0, lambda p: p * None,
        lambda p: p + 1.5, lambda p: 1.5 + p, lambda p: p - 1.5, lambda p: p + "x",
    ], ids=["mul-str", "rmul-str", "mul-float", "mul-none", "add-float",
            "radd-float", "sub-float", "add-str"])
    def test_non_scalars_are_refused(self, op):
        # an operand that is not a polynomial must be an int or a Fraction
        with pytest.raises(TypeError):
            op(x(1) - x(2) * Fraction(1, 3))

    def test_bool_is_an_int_scalar(self):
        p = x(1) - x(2) * Fraction(1, 3)
        assert p * True == True * p == p
        assert (p * False).is_zero()
        assert p + True == p + 1


class TestDivideExact:
    """The test-only long division that the package's verdicts are checked
    against."""

    def test_hand_example(self):
        # -(x2-x1)^3 / 6 divided by (x2-x1)^3 is the constant -1/6
        d = (x(2, 2) - x(1, 2)) ** 3
        p = d * MultiPoly.constant(2, Fraction(-1, 6))
        assert divide_exact(p, d) == MultiPoly.constant(2, Fraction(-1, 6))

    def test_inexact_returns_none(self):
        assert divide_exact(x(1), x(2)) is None
        assert divide_exact(x(1) + x(2), x(1) * x(2)) is None

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(x(1), MultiPoly.zero(NVARS))

    @settings(max_examples=40, deadline=None)
    @given(polys(), polys())
    def test_product_roundtrip(self, a, b):
        if b.is_zero():
            return
        q = divide_exact(a * b, b)
        assert q == a


class TestShift:
    @settings(max_examples=80, deadline=None)
    @given(shift_cases())
    def test_divisibility_verdict_matches_division(self, case):
        p, a, b, k = case
        d = (x(a, p.nvars) - x(b, p.nvars)) ** k
        for f in (p, p * d):
            coeffs = shift_coefficients(f, a, b, k)
            assert len(coeffs) == k + 1
            divisible = all(c.is_zero() for c in coeffs[:k])
            assert divisible == (divide_exact(f, d) is not None)
        # the quotient (p d) / d = p at x_a = x_b is c_k
        assert shift_coefficients(p * d, a, b, k)[k] == merge(p, a, b)

    @settings(max_examples=60, deadline=None)
    @given(shift_cases())
    def test_expansion_sums_back(self, case):
        # exponents are at most 3, so c_0..c_3 is the whole expansion
        p, a, b, _ = case
        u = x(a, p.nvars) - x(b, p.nvars)
        coeffs = shift_coefficients(p, a, b, 3)
        assert all(e[a - 1] == 0 for c in coeffs for e in c.terms)
        total = MultiPoly.zero(p.nvars)
        for t, c in enumerate(coeffs):
            total = total + c * u ** t
        assert total == p

    @pytest.mark.parametrize("a, b", [(1, 1), (0, 2), (1, 4)])
    def test_rejects_bad_variables(self, a, b):
        with pytest.raises(ValueError):
            shift_coefficients(x(1), a, b, 2)

    @pytest.mark.parametrize("k", [-1, -2])
    def test_rejects_negative_power(self, k):
        # an empty list would read as "no coefficient is nonzero"
        with pytest.raises(ValueError, match=f"need k >= 0, got {k}"):
            shift_coefficients(x(1), 1, 2, k)


class TestSymmetricBuilders:
    def test_elementary_symmetric(self):
        assert elementary_symmetric(3, 0) == MultiPoly.constant(3, 1)
        assert elementary_symmetric(3, 1) == x(1) + x(2) + x(3)
        assert elementary_symmetric(3, 3) == x(1) * x(2) * x(3)

    def test_vandermonde(self):
        assert vandermonde(2) == x(1, 2) - x(2, 2)
        v3 = (x(1) - x(2)) * (x(1) - x(3)) * (x(2) - x(3))
        assert vandermonde(3) == v3


class TestIntegration:
    """Polynomials in n + 1 variables, the last one t = x_(n+1)."""

    def test_root_product_expansion(self):
        # prod_i (t - x_i) = sum_i (-1)^i e_i(x) t^(n-i)
        for n in range(1, 7):
            t = x(n + 1, n + 1)
            prod = MultiPoly.constant(n + 1, 1)
            for i in range(1, n + 1):
                prod = prod * (t - x(i, n + 1))
            expected = {}
            for i in range(n + 1):
                sign = -1 if i % 2 else 1
                for exp, c in elementary_symmetric(n, i).terms.items():
                    expected[exp + (n - i,)] = c * sign
            assert prod == MultiPoly(n + 1, expected)

    def test_integrate_hand_value(self):
        # int_{x1}^{x2} t (t - x1)(t - x2) dt = -(x2 - x1)^3 (x1 + x2) / 12
        t = x(3, 3)
        f = t * (t - x(1, 3)) * (t - x(2, 3))
        got = t_integrate_definite(f, lower=1, upper=2)
        z = x(2, 2) - x(1, 2)
        expected = z ** 3 * (x(1, 2) + x(2, 2)) * Fraction(-1, 12)
        assert got == expected

    def test_integrate_antisymmetry(self):
        t = x(4, 4)
        f = t ** 2 * (t - x(3, 4))
        assert t_integrate_definite(f, 1, 2) == -t_integrate_definite(f, 2, 1)

    def test_integrate_linearity(self):
        t = x(3, 3)
        f = t ** 2
        g = (t - x(1, 3)) * (t - x(2, 3))
        lhs = t_integrate_definite(f + g, 1, 2)
        rhs = t_integrate_definite(f, 1, 2) + t_integrate_definite(g, 1, 2)
        assert lhs == rhs

    def test_integrate_constant_in_t(self):
        # int_{x1}^{x3} x2 dt = x2 (x3 - x1)
        got = t_integrate_definite(x(2, 4), lower=1, upper=3)
        assert got == x(2) * (x(3) - x(1))

    @pytest.mark.parametrize("lower, upper", [(1, 1), (0, 2), (1, 3)])
    def test_integrate_rejects_bad_limits(self, lower, upper):
        with pytest.raises(ValueError):
            t_integrate_definite(x(3, 3), lower, upper)


class TestSeries:
    def test_from_exponents(self):
        # with no factor to divide by, the series is the numerator itself
        assert series_expand([0, 3, 3, 9], n=0, D=5) == (1, 0, 0, 2, 0, 0)

    def test_expand_matches_brute_force_convolution(self):
        # 1 / ((1-q)(1-q^2)(1-q^3)) through q^4 is 1 + q + 2q^2 + 3q^3 + 4q^4
        got = series_expand([0], n=3, D=4)
        D = 4
        brute = [0] * (D + 1)
        for a in range(D + 1):
            for b in range(0, D + 1, 2):
                for c in range(0, D + 1, 3):
                    if a + b + c <= D:
                        brute[a + b + c] += 1
        assert list(got) == brute == [1, 1, 2, 3, 4]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=8), min_size=1,
                    max_size=5),
           st.integers(min_value=1, max_value=4))
    def test_expand_inverts_product(self, exps, n):
        D = 10
        numerator = tuple(exps.count(d) for d in range(D + 1))
        expanded = series_expand(exps, n=n, D=D)
        back = expanded
        for i in range(1, n + 1):
            back = mul_one_minus_q_power(back, i)
        assert back == numerator


@st.composite
def bracket_groups(draw, size):
    """(supports, signed): disjoint supports of 1-based slots of a key of
    ``size``, each in a drawn order (the telescoping order), some of one
    slot, and a sign."""
    slots = draw(st.permutations(range(1, size + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, size - 1), max_size=size - 1)))
    supports = [tuple(slots[a:b]) for a, b in zip([0] + cuts, cuts + [size])]
    supports = draw(st.lists(st.sampled_from(supports), min_size=1, unique=True))
    return tuple(supports), draw(st.booleans())


@st.composite
def bracket_cases(draw, groups=1, max_size=5):
    """(q, groups): a nonempty {tuple: int} map with no zero value, keyed by
    image tuples or by exponent tuples with many ties, of at most
    ``max_size`` slots, and ``groups`` bracket groups on it."""
    size = draw(st.integers(2, max_size))
    if draw(st.booleans()):
        keys = st.permutations(range(1, size + 1)).map(tuple)
    else:
        keys = st.tuples(*[st.integers(0, 2)] * size)
    values = st.integers(-5, 5).filter(bool)
    q = draw(st.dictionaries(keys, values, min_size=1, max_size=10))
    return q, [draw(bracket_groups(size)) for _ in range(groups)]


def orbit_sum(q, supports, signed):
    """The brackets over ``supports`` applied to q term by term over every
    element of the product of their symmetric groups: the independent
    reference for the kernel."""
    out = {}
    for e, c in q.items():
        for arrangement in itertools.product(*(itertools.permutations(u)
                                               for u in supports)):
            key, sign = list(e), 1
            for u, image in zip(supports, arrangement):
                for slot, source in zip(u, image):
                    key[slot - 1] = e[source - 1]
                places = [u.index(source) for source in image]
                inversions = sum(a > b for a, b in itertools.combinations(places, 2))
                sign *= (-1) ** inversions if signed else 1
            key = tuple(key)
            out[key] = out.get(key, 0) + sign * c
    return {e: c for e, c in out.items() if c}


class TestBracketFold:
    @settings(max_examples=200, deadline=None)
    @given(bracket_cases())
    def test_fold_then_telescope_equals_telescoping_alone(self, case):
        q, [(supports, signed)] = case
        group = _bracket_group(supports, signed)
        alone = _apply_factors(q, group[2], -1 if signed else 1)
        alone = {e: c for e, c in alone.items() if c}
        assert _apply_brackets(q, [group]) == alone == orbit_sum(q, supports, signed)

    @settings(max_examples=200, deadline=None)
    @given(bracket_cases(groups=3, max_size=4))
    def test_no_zero_value_comes_out(self, case):
        q, groups = case
        out = _apply_brackets(q, [_bracket_group(*group) for group in groups])
        assert all(type(c) is int and c for c in out.values())
        for supports, signed in groups:
            q = orbit_sum(q, supports, signed)
        assert out == q

    def test_fold_sorts_each_support_decreasing(self):
        # on support {1, 2, 3}, (1, 3, 2) takes two swaps to (3, 2, 1) and
        # (2, 3, 1) one; on support {1, 3} only slots 1 and 3 are sorted
        q = {(1, 3, 2): 5, (2, 3, 1): 1, (0, 0, 1): 7}
        assert _fold(q, ((1, 2, 3),), False) == {(3, 2, 1): 6, (1, 0, 0): 7}
        assert _fold(q, ((1, 2, 3),), True) == {(3, 2, 1): 5 - 1}
        assert _fold(q, ((3, 1),), True) == {(2, 3, 1): -5 + 1, (1, 0, 0): -7}
        # merged values that cancel are dropped; one-slot supports fold nothing
        assert _fold({(0, 1): 1, (1, 0): -1}, ((1, 2),), False) == {}
        assert _fold(q, ((2,),), True) is q
