"""Hook-shape basis elements: dual construction, degree contract,
elementary-symmetric recursion, limit formula, and hand-verified values."""

from fractions import Fraction

import pytest

from quasiinv import hookbasis
from quasiinv.exactalg import MultiPoly
from quasiinv.hookbasis import (
    HookSpec,
    TheoremViolationError,
    hook_basis,
    lowest_quotient,
    lowest_quotient_rhs,
    q_closed_form,
    q_integral,
    recursion_residual,
)
from quasiinv.predicate import is_quasiinvariant
from quasiinv.tableaux import hook_tableau, in_gamma_component
from reference import divide_exact, ref_q_integral, ref_recursion_residual


def x(i, n):
    return MultiPoly.variable(n, i)


def grid(n_range=(2, 3), m_range=(0, 1, 2)):
    for n in n_range:
        for m in m_range:
            for j in range(2, n + 1):
                for k in range(n - 1):
                    yield HookSpec(n=n, m=m, j=j, k=k)


class TestSpecValidation:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            HookSpec(n=1, m=0, j=2, k=0)
        with pytest.raises(ValueError):
            HookSpec(n=3, m=-1, j=2, k=0)
        with pytest.raises(ValueError):
            HookSpec(n=3, m=0, j=4, k=0)
        with pytest.raises(ValueError):
            HookSpec(n=3, m=0, j=2, k=-1)

    def test_refusals_raise_on_every_call(self):
        # a float equal to an int would find, or fill, the int's cache entry
        q_integral(HookSpec(n=3, m=1, j=2, k=1))
        entries = hookbasis._q_integral.cache_info().currsize
        products = hookbasis._integrand_product.cache_info().currsize
        bad = [(1, 0, 2, 0), (3, -1, 2, 0), (3, 0, 4, 0), (3, 0, 1, 0),
               (3, 0, 2, -1), (3, 1, 2, 1.0), (3.0, 1, 2, 1), (3, True, 2, 1)]
        for _ in range(2):
            for n, m, j, k in bad:
                with pytest.raises(ValueError):
                    q_integral(HookSpec(n=n, m=m, j=j, k=k))
        assert hookbasis._q_integral.cache_info().currsize == entries
        assert hookbasis._integrand_product.cache_info().currsize == products


class TestIntegralCache:
    def test_repeated_calls_share_one_value(self):
        spec = HookSpec(n=4, m=1, j=3, k=2)
        first = q_integral(spec)
        entries = hookbasis._q_integral.cache_info().currsize
        again = [q_integral(spec), q_integral(HookSpec(n=4, m=1, j=3, k=2))]
        assert all(q == first for q in again)
        assert hookbasis._q_integral.cache_info().currsize == entries
        assert q_integral(HookSpec(n=4, m=1, j=3, k=1)) != first

    def test_one_product_per_n_and_m(self):
        # every (j, k) at one (n, m), k past n - 2 as the recursion reads
        # them, shares one integrand product
        hookbasis._q_integral.cache_clear()
        hookbasis._integrand_product.cache_clear()
        specs = [HookSpec(n=4, m=2, j=j, k=k) for j in range(2, 5) for k in range(7)]
        for spec in specs:
            q_integral(spec)
        assert hookbasis._integrand_product.cache_info().currsize == 1
        assert hookbasis._q_integral.cache_info().currsize == len(specs)


class TestReferenceIntegral:
    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    @pytest.mark.parametrize("m", (0, 1, 2, 3))
    def test_integral_matches_reference(self, n, m):
        # every j and k <= n, which covers the k > n - 2 elements that
        # the recursion reads
        for j in range(2, n + 1):
            for k in range(n + 1):
                spec = HookSpec(n=n, m=m, j=j, k=k)
                assert q_integral(spec) == ref_q_integral(spec), spec


class TestHandValues:
    def test_n2_m1(self):
        z = x(2, 2) - x(1, 2)
        expected = z ** 3 * MultiPoly.constant(2, Fraction(-1, 6))
        assert q_integral(HookSpec(n=2, m=1, j=2, k=0)) == expected

    def test_n3_m1_value(self):
        # int_{x1}^{x2} t (t-x1)(t-x2)(t-x3) ... with k=0, m=1:
        # u-substitution gives (x2-x1)^3 (2 x3 - x1 - x2) / 12
        q = q_integral(HookSpec(n=3, m=1, j=2, k=0))
        z = x(2, 3) - x(1, 3)
        w = x(3, 3) * 2 - x(1, 3) - x(2, 3)
        assert q == z ** 3 * w * Fraction(1, 12)

    def test_m0_is_power_difference(self):
        # m = 0: int_{x1}^{xj} t^k dt = (xj^{k+1} - x1^{k+1}) / (k+1)
        for n in (2, 3, 4):
            for j in range(2, n + 1):
                for k in range(n - 1):
                    q = q_integral(HookSpec(n=n, m=0, j=j, k=k))
                    expected = (x(j, n) ** (k + 1) - x(1, n) ** (k + 1)) * Fraction(
                        1, k + 1
                    )
                    assert q == expected


class TestDualConstruction:
    @pytest.mark.parametrize("spec", list(grid(n_range=(2, 3, 4, 5))), ids=str)
    def test_closed_form_matches_integral(self, spec):
        assert q_closed_form(spec) == q_integral(spec)

    def test_degree_contract(self):
        for spec in grid():
            q = q_integral(spec)
            assert q.is_homogeneous()
            assert q.degree() == spec.m * spec.n + spec.k + 1


class TestMembership:
    @pytest.mark.parametrize("spec", list(grid()), ids=str)
    def test_component_and_quasiinvariance(self, spec):
        q = q_integral(spec)
        t = hook_tableau(spec.n, spec.j)
        assert in_gamma_component(q, t, spec.m)
        assert is_quasiinvariant(q, spec.m)

    def test_divisibility_by_v_t_power(self):
        spec = HookSpec(n=3, m=2, j=3, k=1)
        q = q_integral(spec)
        vt = x(3, 3) - x(1, 3)
        assert divide_exact(q, vt ** 5) is not None
        assert divide_exact(q, vt ** 6) is None


class TestRecursion:
    @pytest.mark.parametrize("spec",
                             [s for s in grid(m_range=(1, 2)) if s.m >= 1],
                             ids=str)
    def test_residual_vanishes(self, spec):
        assert recursion_residual(spec).is_zero()

    def test_hand_instance_n3(self):
        # Q^{1,1} = Q^{4,0} - e1 Q^{3,0} + e2 Q^{2,0} - e3 Q^{1,0} at n=3, j=2
        from quasiinv.exactalg import elementary_symmetric

        total = q_integral(HookSpec(n=3, m=1, j=2, k=1))
        acc = MultiPoly.zero(3)
        for i in range(4):
            sign = -1 if i % 2 else 1
            lower = q_integral(HookSpec(n=3, m=0, j=2, k=4 - i))
            acc = acc + elementary_symmetric(3, i) * lower * sign
        assert total == acc

    @pytest.mark.parametrize("spec", list(grid(n_range=(2, 3, 4), m_range=(1, 2, 3))),
                             ids=str)
    def test_residual_matches_reference(self, spec):
        assert recursion_residual(spec) == ref_recursion_residual(spec)

    @pytest.mark.parametrize("i", (0, 1, 3))
    def test_doubled_lower_element_is_caught(self, monkeypatch, i):
        # Q^(n-i+k, m-1) doubled in the sum leaves a nonzero residual
        spec = HookSpec(n=3, m=2, j=3, k=1)
        doubled = (spec.n, spec.m - 1, spec.j, spec.n - i + spec.k)
        exact = hookbasis.q_integral

        def q_integral_doubling(s):
            q = exact(s)
            return q * 2 if (s.n, s.m, s.j, s.k) == doubled else q

        monkeypatch.setattr(hookbasis, "q_integral", q_integral_doubling)
        assert not recursion_residual(spec).is_zero()

    def test_m0_raises(self):
        with pytest.raises(ValueError):
            recursion_residual(HookSpec(n=3, m=0, j=2, k=0))


class TestLimitFormula:
    @pytest.mark.parametrize("spec", list(grid()), ids=str)
    def test_quotient_matches_closed_form(self, spec):
        assert lowest_quotient(spec) == lowest_quotient_rhs(spec)

    def test_n3_hand_value(self):
        # quotient at n=3, m=1, j=2, k=0 is (x3 - x2)/6; the closed form is
        # (-1)^m m!^2/(2m+1)! x_j^k prod (x_j - x_i)^m = -(x2 - x3)/6
        got = lowest_quotient(HookSpec(n=3, m=1, j=2, k=0))
        assert got == (x(3, 3) - x(2, 3)) * Fraction(1, 6)

    def test_quotient_defines_limit(self):
        # dividing Q by (x_j - x_1)^(2m+1) and then setting x_1 = x_j, by
        # merging the exponent of x_1 into that of x_j, gives the limit
        spec = HookSpec(n=3, m=1, j=3, k=1)
        q = q_integral(spec)
        vt = x(3, 3) - x(1, 3)
        merged = {}
        for (e1, e2, e3), c in divide_exact(q, vt ** 3).terms.items():
            merged[(0, e2, e3 + e1)] = merged.get((0, e2, e3 + e1), 0) + c
        assert MultiPoly(3, merged) == lowest_quotient(spec)


class TestBasisBuilder:
    def test_sizes_and_degrees(self):
        for n in (2, 3, 4):
            for m in (0, 1):
                basis = hook_basis(n, m, 2, verify=True)
                assert len(basis) == n - 1
                assert [p.degree() for p in basis] == [
                    m * n + k + 1 for k in range(n - 1)
                ]

    def test_independent(self):
        from quasiinv.quasi import poly_rank

        basis = hook_basis(3, 1, 2)
        assert poly_rank(list(basis)) == 2

    @pytest.mark.parametrize("n, m, bound", [
        (5, 2, 1458), (12, 1, 214016), (9, 2, 411156), (14, 1, 1171456),
        (10, 2, 1535274), (16, 1, 6144000)])
    def test_term_bound_values(self, n, m, bound):
        assert hookbasis.basis_term_bound(n, m) == bound

    def test_term_bound_holds(self):
        for n in range(2, 7):
            for m in range(3):
                bound = hookbasis.basis_term_bound(n, m)
                for j in range(2, n + 1):
                    assert sum(len(q.num) for q in hook_basis(n, m, j)) <= bound

    def test_guard_refuses_before_building(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an element was built past the guard")

        monkeypatch.setattr(hookbasis, "_q_integral", refuse)
        monkeypatch.setattr(hookbasis, "_integrand_product", refuse)
        with pytest.raises(hookbasis.ResourceGuardError,
                           match="limited to 500000 bounded terms, got 1171456"):
            hook_basis(14, 1, 2)
        assert hookbasis.basis_term_bound(12, 1) <= hookbasis.BASIS_MAX_TERMS

    def test_violation_error_is_assertion(self):
        assert issubclass(TheoremViolationError, AssertionError)

    def test_violation_error_is_exactalgs(self):
        # cli catches it from exactalg, so a command that never builds the
        # hook basis does not load hookbasis for it
        import quasiinv.exactalg
        import quasiinv.hookbasis

        assert quasiinv.hookbasis.TheoremViolationError \
            is quasiinv.exactalg.TheoremViolationError
