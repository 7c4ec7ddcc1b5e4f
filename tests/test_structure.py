"""Hilbert series assembly, the paper's bases as Sym-bases, the
determinant degree formula, and the n = 2 change-of-basis check."""

import math

import pytest

from quasiinv import structure
from quasiinv.exactalg import elementary_symmetric, series_expand, vandermonde
from quasiinv.quasi import (
    change_of_basis_n2,
    delta_sq_chain_check,
    graded_dimension_oracle,
    is_sym_basis,
)
from quasiinv.structure import (
    HILBERT_MAX_N,
    det_degree,
    full_hilbert,
    numerator_exponent,
)
from quasiinv.tableaux import (
    Partition,
    content,
    f_lambda,
    hook_tableau,
    in_gamma_component,
    partitions_of,
    standard_tableaux,
)
from reference import paper_basis


class TestNumeratorExponents:
    def test_m0_is_cocharge(self):
        from quasiinv.tableaux import cocharge

        for shape in partitions_of(4):
            for t in standard_tableaux(shape):
                assert numerator_exponent(0, t) == cocharge(t)

    def test_hook_exponent(self):
        # hook shape [n-1,1] has content C(n,2) - n, so the shift is m*n
        for n in range(3, 6):
            for m in (1, 2):
                for j in range(2, n + 1):
                    t = hook_tableau(n, j)
                    assert numerator_exponent(m, t) == m * n + (n - j + 1)


class TestFullHilbert:
    def test_m0_coinvariant_numerator(self):
        # m = 0 gives the graded regular representation: the numerator is
        # the q-analog [n]_q! and the series is 1/(1-q)^n
        for n in (2, 3):
            D = 6
            report = full_hilbert(n, 0, D)
            binom = [math.comb(d + n - 1, n - 1) for d in range(D + 1)]
            assert list(report.total) == binom

    def test_n2_m1_numerator(self):
        report = full_hilbert(2, 1, 8)
        exps = sorted(e for _, row in report.shape_exponents for e in row)
        assert exps == [0, 3]
        assert report.total == series_expand([0, 3], n=2, D=8)

    def test_n3_m1_numerator(self):
        # numerator is 1 + 2 q^4 + 2 q^5 + q^9: one exponent per tableau,
        # weighted by the shape multiplicity f_lambda
        report = full_hilbert(3, 1, 10)
        weighted = sorted(
            e
            for parts, row in report.shape_exponents
            for e in row
            for _ in range(f_lambda(Partition(parts)))
        )
        assert weighted == [0, 4, 4, 5, 5, 9]

    def test_numerator_term_count_is_factorial(self):
        for n in range(2, 5):
            report = full_hilbert(n, 1, 4)
            count = sum(len(row) for _, row in report.shape_exponents)
            assert count == sum(f_lambda(s) for s in partitions_of(n))

    def test_oracle_agreement(self):
        for n, m, dmax in ((2, 1, 8), (2, 3, 9), (3, 1, 6)):
            report = full_hilbert(n, m, dmax)
            for d in range(dmax + 1):
                assert (
                    graded_dimension_oracle(n, m, d).dimension
                    == report.total[d]
                )

    def test_guard(self):
        with pytest.raises(ValueError):
            full_hilbert(HILBERT_MAX_N + 1, 1, 4)


def weighted_exponents(n, m):
    """The formula's numerator exponents, each counted f_lambda times."""
    return sorted(e for parts, row in full_hilbert(n, m, 0).shape_exponents
                  for e in row * f_lambda(Partition(parts)))


class TestPaperSymBasis:
    """The paper's bases at n = 2 and 3 are bases of QI_m over Sym in every
    degree (``is_sym_basis``); each generator lies in its tableau's
    component, and the generator degrees are the formula's exponents."""

    @pytest.mark.parametrize("n, m", [(2, m) for m in range(4)] + [(3, m) for m in range(5)])
    def test_certified(self, n, m):
        pairs = paper_basis(n, m)
        assert is_sym_basis([g for _, g in pairs], m)
        assert all(in_gamma_component(g, t, m) for t, g in pairs)
        assert sorted(g.degree() for _, g in pairs) == weighted_exponents(n, m)

    @pytest.mark.parametrize("m", range(5))
    def test_symmetric_multiple_in_place_of_a_generator_fails(self, m):
        # e_1 Q^(0,m)_3 has the degree, component and quasiinvariance of
        # Q^(1,m)_3, but it lies in Sym Q^(0,m)_3: only the certificate fails
        pairs = paper_basis(3, m)
        (t, q0), (t1, q1) = pairs[3], pairs[4]
        assert t == t1 and q1.degree() == q0.degree() + 1
        mutated = elementary_symmetric(3, 1) * q0
        assert in_gamma_component(mutated, t, m)
        pairs[4] = (t, mutated)
        assert not is_sym_basis([g for _, g in pairs], m)

    def test_shifted_exponent_fails(self, monkeypatch):
        # one tableau's exponent plus 1 leaves the degrees unmatched
        numerator_exponent = structure.numerator_exponent
        shifted = hook_tableau(3, 2)
        monkeypatch.setattr(structure, "numerator_exponent", lambda m, t: (
            numerator_exponent(m, t) + (t == shifted)))
        for m in range(5):
            degrees = sorted(g.degree() for _, g in paper_basis(3, m))
            assert degrees != weighted_exponents(3, m)


class TestDeterminant:
    def test_degree_formula(self):
        # sum over shapes of f^2 (C(n,2) - content) equals C(n,2) n!
        for n in range(2, 7):
            total = sum(
                f_lambda(s) ** 2 * (math.comb(n, 2) - content(s))
                for s in partitions_of(n)
            )
            assert det_degree(n) == total == math.comb(n, 2) * math.factorial(n)

    def test_change_of_basis(self):
        for m in range(5):
            matrix, determinant = change_of_basis_n2(m)
            assert determinant == vandermonde(2) ** 2
            assert matrix[0][1].is_zero() and matrix[1][0].is_zero()


class TestDeltaSqChain:
    def test_embedding_report(self):
        for n, m in ((2, 1), (3, 1)):
            report = delta_sq_chain_check(n, m, max_degree=4)
            assert report["passed"], report["failures"]
            assert report["embedded"] > 0
            assert report["chained"] > 0
