"""Hilbert series assembly, quotient dimensions,
the determinant degree formula, and the n = 2 change-of-basis check."""

import math

import pytest

from quasiinv.exactalg import series_expand, vandermonde
from quasiinv.quasi import (
    change_of_basis_n2,
    delta_sq_chain_check,
    graded_dimension_oracle,
)
from quasiinv.structure import (
    HILBERT_MAX_N,
    det_degree,
    full_hilbert,
    hook_quotient_dimension,
    numerator_exponent,
)
from quasiinv.tableaux import (
    Partition,
    content,
    f_lambda,
    hook_tableau,
    partitions_of,
    standard_tableaux,
)


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


class TestHookQuotientDimension:
    def test_one_dimensional_strip(self):
        for n, m in ((2, 1), (2, 2), (3, 1)):
            for j in range(2, n + 1):
                t = hook_tableau(n, j)
                for d in range(m * n + 1, m * n + n):
                    assert hook_quotient_dimension(n, m, d, t) == 1

    def test_zero_below_strip(self):
        t = hook_tableau(3, 2)
        for d in range(0, 4):  # below m*n + 1 = 4
            assert hook_quotient_dimension(3, 1, d, t) == 0


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
