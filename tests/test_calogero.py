"""The deformed Laplacian L_m: exactness of the divided-difference terms,
against an independent Fraction reference, the eigen-identity on hook
basis elements, and structural properties."""

import random
from fractions import Fraction

import pytest

from quasiinv.calogero import NonPolynomialError, apply_lm, lm_eigen_check
from quasiinv.exactalg import MultiPoly, elementary_symmetric, vandermonde
from quasiinv.hookbasis import HookSpec, q_integral
from quasiinv.quasi import graded_dimension_oracle
from reference import random_homogeneous, ref_apply_lm, ref_partial_derivative


def x(i, n):
    return MultiPoly.variable(n, i)


class TestOperatorBasics:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="m >= 0"):
            apply_lm(x(1, 2), -1)

    def test_m0_is_laplacian(self):
        rng = random.Random(0)
        for _ in range(10):
            p = random_homogeneous(rng, 3, rng.randrange(0, 5))
            laplacian = MultiPoly.zero(3)
            for i in range(1, 4):
                second = ref_partial_derivative(ref_partial_derivative(p.terms, i), i)
                laplacian = laplacian + MultiPoly(3, second)
            assert apply_lm(p, 0) == laplacian

    def test_non_polynomial_input_rejected(self):
        with pytest.raises(NonPolynomialError):
            apply_lm(x(1, 2), 1)

    def test_annihilates_low_degree(self):
        for n in (2, 3):
            for m in (0, 1, 2):
                assert apply_lm(MultiPoly.constant(n, 7), m).is_zero()
                assert apply_lm(elementary_symmetric(n, 1), m).is_zero()

    def test_linearity_on_quasiinvariants(self):
        z3 = (x(2, 2) - x(1, 2)) ** 3
        e1 = elementary_symmetric(2, 1)
        a, b = z3, e1 ** 3
        combo = a * Fraction(2, 3) + b * Fraction(-5)
        assert apply_lm(combo, 1) == (
            apply_lm(a, 1) * Fraction(2, 3) + apply_lm(b, 1) * Fraction(-5)
        )

    def test_hand_value_e1_squared_n2(self):
        # L_1 (x1 + x2)^2 = 4 (Laplacian term only; the divided
        # differences of a symmetric polynomial cancel)
        got = apply_lm(elementary_symmetric(2, 1) ** 2, 1)
        assert got == MultiPoly.constant(2, 4)

    def test_lowers_degree_by_two(self):
        for n, m, d in ((2, 1, 5), (3, 1, 4)):
            for p in graded_dimension_oracle(n, m, d).basis:
                image = apply_lm(p, m)
                if not image.is_zero():
                    assert image.is_homogeneous()
                    assert image.degree() == d - 2

    def test_preserves_quasiinvariance(self):
        from quasiinv.predicate import is_quasiinvariant

        for p in graded_dimension_oracle(2, 2, 7).basis:
            image = apply_lm(p, 2)
            assert is_quasiinvariant(image, 2)


class TestEigenIdentity:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_hook_elements(self, n, m):
        for j in range(2, n + 1):
            for k in range(n - 1):
                spec = HookSpec(n=n, m=m, j=j, k=k)
                assert lm_eigen_check(spec).is_zero()

    def test_k01_images_vanish(self):
        for spec in (HookSpec(n=3, m=1, j=2, k=0), HookSpec(n=3, m=1, j=3, k=1)):
            q = q_integral(spec)
            image = apply_lm(q, 1)
            expected = MultiPoly.zero(3)
            if spec.k >= 2:
                expected = q_integral(
                    HookSpec(n=3, m=1, j=spec.j, k=spec.k - 2)
                ) * (spec.k * (spec.k - 1))
            assert image == expected

    def test_delta_power_is_eigenvector_like(self):
        # L_1 applied to Delta^3 at n = 2 stays polynomial
        d3 = vandermonde(2) ** 3
        image = apply_lm(d3, 1)
        assert image == vandermonde(2) * Fraction(0)


def lm_or_text(apply, p, m):
    """L_m p by ``apply``, or the text of the NonPolynomialError it raises."""
    try:
        return apply(p, m)
    except NonPolynomialError as exc:
        return str(exc)


def assert_matches_reference(p, m):
    got = lm_or_text(apply_lm, p, m)
    assert got == lm_or_text(ref_apply_lm, p, m), (p, m)
    return got


GRID = [(n, m) for n in (2, 3, 4) for m in (0, 1, 2)]


class TestAgainstReference:
    """``apply_lm`` builds L_m p in one pass, dividing term by term; the
    reference divides each derivative difference by the long division."""

    @pytest.mark.parametrize("n, m", GRID)
    def test_oracle_members(self, n, m):
        for d in range(min(m * n + 2, 6)):
            for p in graded_dimension_oracle(n, m, d).basis:
                assert not isinstance(assert_matches_reference(p, m), str)

    @pytest.mark.parametrize("n, m", [c for c in GRID if c != (4, 2)])
    def test_delta_power_multiples(self, n, m):
        # at n = 4, m = 2 Delta^4 has 2925 terms and the long division takes
        # seconds per polynomial; the hook elements cover that size
        rng = random.Random(10 * n + m)
        delta = vandermonde(n) ** (2 * m)
        for d in (0, 1, 2):
            p = delta * random_homogeneous(rng, n, d)
            assert not isinstance(assert_matches_reference(p, m), str)

    @pytest.mark.parametrize("n, m", GRID)
    def test_hook_elements(self, n, m):
        for j in range(2, n + 1):
            for k in range(n - 1):
                q = q_integral(HookSpec(n=n, m=m, j=j, k=k))
                assert not isinstance(assert_matches_reference(q, m), str)

    @pytest.mark.parametrize("n, m", [c for c in GRID if c[1]])
    def test_non_members_raise_the_same_text(self, n, m):
        rng = random.Random(100 * n + m)
        cases = [x(1, n), x(1, n) ** 2 * x(2, n)]
        cases += [random_homogeneous(rng, n, d) + x(n, n) ** d for d in (2, 3, 4)]
        for p in cases:
            assert isinstance(assert_matches_reference(p, m), str)

    def test_first_failing_pair_is_named(self):
        # divided differences exist at (1,2) and (1,3), not at (2,3)
        p = MultiPoly(3, {(3, 0, 0): 1, (2, 0, 1): -3, (1, 2, 0): -3,
                          (0, 3, 0): 2, (0, 2, 1): -3})
        for m in (1, 2):
            assert assert_matches_reference(p, m) == (
                "(x_2 - x_3) does not divide the derivative difference")
        assert assert_matches_reference(x(2, 3) * x(3, 3) ** 2, 1) == (
            "(x_1 - x_2) does not divide the derivative difference")
        assert assert_matches_reference(x(1, 3) * x(2, 3) * x(3, 3) ** 2, 1) == (
            "(x_1 - x_3) does not divide the derivative difference")
