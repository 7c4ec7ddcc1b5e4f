"""Permutations, the polynomial action, group algebra arithmetic, and the
signed/unsigned subgroup sums with their telescoping factorizations."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiinv.exactalg import MultiPoly
from quasiinv.symgroup import (
    MAX_GROUP_N,
    GroupAlgebraElem,
    Perm,
    _bracket,
    act,
    bracket,
    parse_cycles,
    subgroup_perms,
    times_brackets,
)
from quasiinv.tableaux import gamma, partitions_of, standard_tableaux
from reference import convolve, ref_add, ref_convolve, ref_scale


def x(i, n=3):
    return MultiPoly.variable(n, i)


class TestPerm:
    def test_compose_convention(self):
        # (a * b)(i) = a(b(i))
        a = Perm.transposition(3, 1, 2)
        b = Perm.transposition(3, 2, 3)
        assert (a * b)(3) == a(b(3)) == 1
        assert (a * b)(1) == 2

    def test_sign_multiplicative(self):
        rng = random.Random(2)
        for _ in range(30):
            a_img = list(range(1, 6))
            b_img = list(range(1, 6))
            rng.shuffle(a_img)
            rng.shuffle(b_img)
            a, b = Perm(a_img), Perm(b_img)
            assert (a * b).sign() == a.sign() * b.sign()

    def test_sign_values(self):
        assert Perm.identity(4).sign() == 1
        assert Perm.transposition(4, 2, 4).sign() == -1
        assert Perm([2, 3, 1, 4]).sign() == 1

    def test_parse_cycles(self):
        s = parse_cycles("(1,2)(3,4)", 4)
        assert s == Perm([2, 1, 4, 3])
        assert parse_cycles("(1,2,3)", 3) == Perm([2, 3, 1])
        assert parse_cycles("", 3) == Perm.identity(3)
        with pytest.raises(ValueError):
            parse_cycles("(1,5)", 3)
        with pytest.raises(ValueError):
            parse_cycles("(1,1)", 3)

    @pytest.mark.parametrize("text", ["(1,2))", ")", ")(1,2)"])
    def test_parse_cycles_unbalanced(self, text):
        with pytest.raises(ValueError, match="unbalanced parenthesis"):
            parse_cycles(text, 3)

    @pytest.mark.parametrize("text, n, expected", [
        ("(1, 2)", 3, [2, 1, 3]),
        ("(1,2) (3,4)", 4, [2, 1, 4, 3]),
        (" ( 1 ,2 , 3 ) ", 3, [2, 3, 1]),
    ], ids=["space-after-comma", "space-between-cycles", "spaces-around-entries"])
    def test_parse_cycles_spaces(self, text, n, expected):
        assert parse_cycles(text, n) == Perm(expected)

    @pytest.mark.parametrize("text, n", [
        ("(1 2)", 12), ("(1 2)", 3), ("(1,,2)", 3), ("(,1,2,)", 3), ("()", 3),
        ("(1,2)()", 3), ("(1,+2)", 3), ("(1,\u0662)", 3),
    ], ids=["space-inside-entry-n12", "space-inside-entry-n3", "empty-entry",
            "leading-trailing-comma", "empty-cycle", "trailing-empty-cycle",
            "sign", "non-ascii-digit"])
    def test_parse_cycles_malformed_entries(self, text, n):
        # "(1 2)" must not read as the cycle (12), the identity at n = 12
        with pytest.raises(ValueError, match="comma-separated integers"):
            parse_cycles(text, n)

    def test_cycle_text_roundtrip(self):
        s = Perm([3, 1, 2, 5, 4])
        assert parse_cycles(s.cycle_text(), 5) == s


class TestAction:
    def test_variable_relabeling(self):
        # sigma P places the old exponent of x_i on x_{sigma(i)}
        s = parse_cycles("(1,2,3)", 3)
        p = x(1) ** 2 * x(2)
        assert act(s, p) == x(2) ** 2 * x(3)

    def test_action_is_homomorphism(self):
        rng = random.Random(3)
        p = x(1) ** 3 + x(2) * x(3) ** 2 - x(1) * x(2)
        for _ in range(20):
            a_img = list(range(1, 4))
            b_img = list(range(1, 4))
            rng.shuffle(a_img)
            rng.shuffle(b_img)
            a, b = Perm(a_img), Perm(b_img)
            assert act(a * b, p) == act(a, act(b, p))

    def test_symmetric_polynomial_fixed(self):
        p = x(1) + x(2) + x(3)
        for s in subgroup_perms(3, (1, 2, 3)):
            assert act(s, p) == p

    def test_vandermonde_alternates(self):
        from quasiinv.exactalg import vandermonde

        v = vandermonde(3)
        for s in subgroup_perms(3, (1, 2, 3)):
            assert act(s, v) == v * s.sign()


class TestGroupAlgebra:
    def test_convolution_matches_action(self):
        rng = random.Random(4)
        perms = subgroup_perms(3, (1, 2, 3))
        p = x(1) ** 2 + x(2) * x(3)
        for _ in range(10):
            f = GroupAlgebraElem(
                3, {s: rng.randint(-3, 3) for s in rng.sample(perms, 3)}
            )
            g = GroupAlgebraElem(
                3, {s: rng.randint(-3, 3) for s in rng.sample(perms, 3)}
            )
            assert convolve(f, g).apply(p) == f.apply(g.apply(p))

    def test_linearity_of_apply(self):
        f = bracket(3, (1, 2, 3), signed=True)
        p, q = x(1) ** 2, x(2) * x(3)
        assert f.apply(p + q) == f.apply(p) + f.apply(q)

    def test_subgroup_sum_sizes(self):
        for support in ((1, 2), (1, 2, 3)):
            e = bracket(3, support, signed=False)
            assert len(e.terms) == math.factorial(len(support))


def elements(n):
    perms = st.permutations(range(1, n + 1)).map(Perm)
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    return st.dictionaries(perms, coeffs, max_size=6).map(
        lambda terms: GroupAlgebraElem(n, terms))


class TestConvolution:
    def test_compose_keys_like_validated_perms(self):
        a, b = Perm([2, 3, 1, 4]), Perm([1, 4, 3, 2])
        assert a.compose(b) == Perm([2, 4, 1, 3])
        assert hash(a.compose(b)) == hash(Perm([2, 4, 1, 3]))

    def test_compose_and_act_at_n_1(self):
        one = Perm([1])
        assert one.compose(one) == one and type(one.compose(one).images) is tuple
        p = MultiPoly(1, {(3,): Fraction(-2, 3), (0,): 7})
        assert act(one, p) == p
        assert all(type(e) is tuple for e in act(one, p).num)
        assert GroupAlgebraElem.identity(1).apply(p) == p

    def test_products_in_s0(self):
        empty = Perm(())
        assert empty.compose(empty) == empty and type(empty.compose(empty).images) is tuple
        one = GroupAlgebraElem.identity(0)
        assert one * 1 == one == convolve(one, one)

    def test_product_of_two_elements_is_refused(self):
        # every product of two elements is a right product by brackets
        # (times_brackets); * and *= only scale
        f = GroupAlgebraElem(3, {Perm([2, 3, 1]): Fraction(2, 3)})
        g = bracket(3, (1, 2), signed=True)
        with pytest.raises(TypeError):
            f * g
        with pytest.raises(TypeError):
            f *= g
        with pytest.raises(TypeError):
            g * g
        assert f * 3 == 3 * f == f * Fraction(3) == f + f + f

    @pytest.mark.parametrize("other", [2.0, "x", None, MultiPoly.variable(3, 1)],
                             ids=["float", "str", "none", "polynomial"])
    def test_non_scalars_are_refused(self, other):
        g = bracket(3, (1, 2), signed=True)
        with pytest.raises(TypeError):
            g * other
        with pytest.raises(TypeError):
            other * g

    def test_bool_is_an_int_scalar(self):
        g = bracket(3, (1, 2), signed=True)
        assert g * True == True * g == g
        assert (g * False).is_zero()

    def test_public_constructors_still_validate(self):
        with pytest.raises(ValueError):
            Perm([1, 1, 2])
        with pytest.raises(ValueError):
            GroupAlgebraElem(3, {Perm.identity(2): 1})

    def test_non_int_images_are_refused(self):
        # 2.0 == 2, so a float image would pass a sort-only check and then
        # break cycle_text()
        for images in ([2.0, 1], [1, 2.0], [True, 2]):
            with pytest.raises(ValueError, match="not a permutation"):
                Perm(images)
        with pytest.raises(ValueError, match="not inside"):
            subgroup_perms(3, [1.0, 2])
        assert Perm([2, 1]).cycle_text() == "(1,2)"


def perm_maps(n):
    """{Perm: Fraction} maps over S_n: mixed denominators, negative
    coefficients."""
    coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    return st.dictionaries(st.permutations(range(1, n + 1)).map(Perm),
                           coeffs.filter(bool), max_size=5)


@st.composite
def map_cases(draw):
    """(n, f, g): two {Perm: Fraction} maps over S_n.  g is free, the
    negation of f (their sum is zero), f with a tail negated (a sum that
    cancels in part), or a - b against f = a + b."""
    n = draw(st.integers(1, 4))
    a, b, c = draw(perm_maps(n)), draw(perm_maps(n)), draw(perm_maps(n))
    f = ref_add(a, b)
    g = draw(st.sampled_from([
        c,
        ref_scale(f, -1),
        ref_add(ref_scale(f, Fraction(-3, 7)), c),
        ref_add(a, ref_scale(b, -1)),
    ]))
    return n, f, g


def assert_canonical(e: GroupAlgebraElem):
    """Integer numerators keyed by image tuples over one positive
    denominator, in lowest terms, with no zero numerator."""
    assert type(e.den) is int and e.den > 0
    assert all(type(c) is int and c != 0 for c in e.num.values())
    assert all(type(k) is tuple and sorted(k) == list(range(1, e.n + 1)) for k in e.num)
    assert math.gcd(e.den, *e.num.values()) == 1


def assert_matches(e: GroupAlgebraElem, reference: dict):
    assert_canonical(e)
    assert e.terms == reference
    assert all(type(p) is Perm and type(c) is Fraction for p, c in e.terms.items())


class TestSharedBase:
    """The additive structure, scaling and equality that GroupAlgebraElem
    shares with MultiPoly agree with the same operations on Fraction maps,
    and every result is in canonical form."""

    @settings(max_examples=60, deadline=None)
    @given(map_cases())
    def test_add_sub_neg(self, case):
        n, f, g = case
        F, G = GroupAlgebraElem(n, f), GroupAlgebraElem(n, g)
        assert_matches(F, f)
        assert_matches(F + G, ref_add(f, g))
        assert_matches(F - G, ref_add(f, ref_scale(g, -1)))
        assert_matches(-F, ref_scale(f, -1))

    @settings(max_examples=40, deadline=None)
    @given(map_cases(), st.one_of(st.integers(-6, 6),
                                  st.fractions(-50, 50, max_denominator=12)))
    def test_scale(self, case, c):
        n, f, _ = case
        F = GroupAlgebraElem(n, f)
        assert_matches(F * c, ref_scale(f, c))
        assert_matches(c * F, ref_scale(f, c))

    @settings(max_examples=40, deadline=None)
    @given(map_cases())
    def test_equal_values_by_different_routes(self, case):
        n, f, g = case
        F, G = GroupAlgebraElem(n, f), GroupAlgebraElem(n, g)
        routes = [
            (F * Fraction(3, 7)) * Fraction(7, 3),
            (F + G) - G,
            F * 2 - F,
            times_brackets(F, [((1,), False)]),  # [{1}] is the identity
            times_brackets(F, [((n,), True)]),
            GroupAlgebraElem(n, F.terms),
        ]
        for r in routes:
            assert_canonical(r)
            assert r == F and hash(r) == hash(F)
        zero = GroupAlgebraElem(n)
        assert F - F == zero and hash(F - F) == hash(zero)
        assert (F * 0).num == {} and (F * 0).den == 1


class TestBracketCache:
    """``bracket`` builds each (n, support, signed) once and shares it."""

    def test_equal_for_every_form_of_the_support(self):
        expected = GroupAlgebraElem._from_int(
            4, {p.images: p.sign() for p in subgroup_perms(4, (2, 3, 4))})
        forms = [[2, 3, 4], (2, 3, 4), range(2, 5), {2, 3, 4}, (4, 2, 3), [3, 4, 3, 2, 4]]
        values = [bracket(4, support, signed=True) for support in forms]
        for value in values:
            assert value == expected and value is values[0]

    def test_refusals_raise_on_every_call(self):
        assert bracket(3, (1, 2), signed=True) == bracket(3, [2, 1], signed=True)
        entries = _bracket.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="not inside"):
                bracket(3, (1, 4), signed=True)
            with pytest.raises(ValueError, match="limited to"):
                bracket(MAX_GROUP_N + 1, (1, 2), signed=True)
            with pytest.raises(ValueError, match="empty set"):
                bracket(3, (), signed=False)
            with pytest.raises(ValueError, match="integers"):
                bracket(3, (1.0, 3), signed=False)
        assert _bracket.cache_info().currsize == entries

    def test_signed_and_unsigned_differ(self):
        for support in ((1, 2), (1, 2, 3)):
            unsigned = bracket(3, support, signed=False)
            signed = bracket(3, support, signed=True)
            assert unsigned != signed
            assert set(unsigned.num.values()) == {1}
            assert set(signed.num.values()) == {-1, 1}

    def test_shared_value_is_immutable(self):
        value = bracket(3, (1, 3), signed=False)
        with pytest.raises(AttributeError):
            value.den = 2
        with pytest.raises(AttributeError):
            value.n = 4
        assert value == bracket(3, (3, 1), signed=False) and value.den == 1


class TestFactorization:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("signed", [False, True])
    def test_telescoping_product_orderings(self, n, signed):
        target = bracket(n, tuple(range(1, n + 1)), signed)
        orderings = [list(range(1, n + 1)), list(range(n, 0, -1))]
        rng = random.Random(10 * n)
        for _ in range(2):
            extra = list(range(1, n + 1))
            rng.shuffle(extra)
            orderings.append(extra)
        one = GroupAlgebraElem.identity(n)
        for order in orderings:
            assert times_brackets(one, [(order, signed)]) == target


@st.composite
def bracket_cases(draw):
    """(x, brackets): x in Q S_n for n <= 5 and one or two (support,
    signed) pairs, a support being any nonempty list of entries of 1..n,
    in any order and with repeats."""
    n = draw(st.integers(min_value=1, max_value=5))
    x = draw(elements(n))
    support = st.lists(st.integers(1, n), min_size=1, max_size=2 * n)
    brackets = draw(st.lists(st.tuples(support, st.booleans()),
                             min_size=1, max_size=2))
    return x, brackets


class TestTimesBrackets:
    """``times_brackets`` multiplies on the right by brackets through their
    telescoping factors: a transposition on the right swaps two slots of
    each image tuple."""

    @settings(max_examples=150, deadline=None)
    @given(bracket_cases())
    def test_matches_expanded_product_and_reference(self, case):
        x, brackets = case
        terms = x.terms
        for support, signed in brackets:
            terms = ref_convolve(terms, bracket(x.n, support, signed).terms)
        got = times_brackets(x, brackets)
        assert got == GroupAlgebraElem(x.n, terms)
        as_sets = [(sorted(set(support)), signed) for support, signed in brackets]
        assert got == times_brackets(x, as_sets)

    @pytest.mark.parametrize("signed", [False, True])
    def test_non_commuting_right_factor(self, signed):
        # (1,2,3) [ {1,2} ] differs from [ {1,2} ] (1,2,3): a left product
        # in place of the right one changes the result
        x = GroupAlgebraElem.from_perm(Perm([2, 3, 1]), Fraction(2, 3))
        b = bracket(3, (1, 2), signed)
        assert convolve(x, b) != convolve(b, x)
        assert times_brackets(x, [((1, 2), signed)]) == convolve(x, b)

    def test_one_element_support_and_n_1(self):
        x = GroupAlgebraElem(3, {Perm([3, 1, 2]): Fraction(-5, 4)})
        assert times_brackets(x, [((2,), True)]) == x
        one = GroupAlgebraElem.identity(1) * 7
        assert times_brackets(one, [((1,), False), ((1,), True)]) == one

    @pytest.mark.parametrize("support", [(), (0, 1), (1, 4), (1.0, 2)])
    def test_refuses_supports_outside_1_to_n(self, support):
        with pytest.raises(ValueError, match="not a nonempty subset of 1..3"):
            times_brackets(GroupAlgebraElem.identity(3), [(support, True)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gamma_squared_by_its_brackets(self, n):
        for shape in partitions_of(n):
            for t in standard_tableaux(shape):
                g = gamma(t)
                brackets = ([(col, True) for col in t.columns]
                            + [(row, False) for row in t.rows])
                scale = Fraction(shape.hook_length_count(), math.factorial(n))
                assert times_brackets(g, brackets) * scale == convolve(g, g) == g
