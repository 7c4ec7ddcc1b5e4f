"""The explicit basis of the projected component for the shape [n-1, 1].

Each basis element is the definite integral of t^k prod_i (t - x_i)^m from
x_1 to x_j.  ``hook_basis`` builds it by exact symbolic integration; the
closed-form coefficient formula in the separation variable z = x_2 - x_1
(transposed to general j) is an independent second construction, used only
to cross-check the first.  The limit formula reads the quotient by
(x_j - x_1)^(2m+1) at x_1 = x_j off the expansion at x_1 = x_j + u.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, product
from operator import add

from .exactalg import (
    MultiPoly,
    ResourceGuardError,
    TheoremViolationError,
    shift_coefficients,
    t_integrate_definite,
)


# Bound on the terms of a whole basis (``basis_term_bound``).  On a 2-vCPU
# Xeon VM with Python 3.11, ``basis --n 9 --m 2`` (bound 411,156; 104,976
# terms) runs in 1.1 s, 0.4 s of it building the basis, and n = 14, m = 1
# (bound 1,171,456) builds in 0.6 s in process, while n = 16, m = 1
# (bound 6.1 M) once ran 21 s and printed 64 MB of JSON.
BASIS_MAX_TERMS = 500_000


class HookSpec:
    """Parameters of one basis element: n variables, deformation order m,
    second-row entry j, and power k."""

    __slots__ = ("n", "m", "j", "k")

    def __init__(self, n: int, m: int, j: int, k: int):
        if any(type(v) is not int for v in (n, m, j, k)):
            raise ValueError(f"n, m, j and k must be integers, got {(n, m, j, k)}")
        if n < 2:
            raise ValueError("need n >= 2")
        if m < 0 or k < 0:
            raise ValueError("m and k must be non-negative")
        if not 2 <= j <= n:
            raise ValueError(f"second-row entry {j} outside 2..{n}")
        self.n, self.m, self.j, self.k = n, m, j, k

    def __repr__(self):
        return f"HookSpec(n={self.n}, m={self.m}, j={self.j}, k={self.k})"


def q_integral(spec: HookSpec) -> MultiPoly:
    """Integrate t^k prod_i (t - x_i)^m dt from x_1 to x_j.

    Each element is integrated once per process and then shared (values
    are immutable); ``spec`` has been validated when it was built.
    """
    return _q_integral(spec.n, spec.m, spec.j, spec.k)


@functools.cache
def _integrand_product(n: int, m: int) -> MultiPoly:
    """prod_i (t - x_i)^m in n + 1 variables with t = x_(n+1), built once
    per (n, m) and shared by every element there.  It is built one factor
    (t - x_i)^m at a time, which keeps the intermediate products smaller
    than raising prod_i (t - x_i) to the m-th power."""
    t = MultiPoly.variable(n + 1, n + 1)
    integrand = MultiPoly.constant(n + 1, 1)
    for i in range(1, n + 1):
        integrand = integrand * (t - MultiPoly.variable(n + 1, i)) ** m
    return integrand


@functools.cache
def _q_integral(n: int, m: int, j: int, k: int) -> MultiPoly:
    """The elements at one (n, m) differ only in t^k and the upper limit:
    t^k times the shared product adds k to the last exponent slot of each
    term, and the result is integrated from x_1 to x_j."""
    base = _integrand_product(n, m)
    integrand = MultiPoly._from_int(
        n + 1, {(*e[:n], e[n] + k): c for e, c in base.num.items()}, base.den)
    return t_integrate_definite(integrand, lower=1, upper=j)


def q_closed_form(spec: HookSpec) -> MultiPoly:
    """Assemble the basis element from the z-expansion coefficient formula.

    For j = 2, the coefficient of z^r = (x_2 - x_1)^r is

        m! / (r (r-1) ... (r-m)) * sum over (i_3..i_n) in {0..m}^(n-2) of
        (-1)^(m + sum i_t) * prod C(m, i_t) * C(K, r - (2m+1))
        * x_1^(K - (r - (2m+1))) * prod x_t^(i_t)

    with K = k + m(n-2) - sum i_t and 2m+1 <= r <= K + 2m+1.  General j is
    the (2, j)-image of the j = 2 polynomial.  At m = 0 the only index is
    (0, ..., 0) and the sum is (x_2^(k+1) - x_1^(k+1)) / (k+1).

    The coefficients are int numerators over one denominator, the lcm of
    the falling factorials r (r-1) ... (r-m), and z^r is expanded by the
    binomial theorem in place; no integration is involved, so the result
    is an independent check of ``q_integral``.
    """
    n, m, j, k = spec.n, spec.m, spec.j, spec.k
    r_max = k + m * (n - 2) + 2 * m + 1
    falling = {r: math.perm(r, m + 1) for r in range(2 * m + 1, r_max + 1)}
    den = math.lcm(*falling.values())
    m_fact = math.factorial(m)
    num = {}
    get = num.get
    for idx in product(range(m + 1), repeat=n - 2):
        s = sum(idx)
        K = k + m * (n - 2) - s
        weight = (-1) ** (m + s) * m_fact
        for it in idx:
            weight *= math.comb(m, it)
        # the exponents of x_3..x_n, moved by (2, j); x_2's goes to slot j
        exp = [0, 0, *idx]
        exp[1], exp[j - 1] = exp[j - 1], exp[1]
        for R in range(K + 1):
            r = R + 2 * m + 1
            coeff = weight * math.comb(K, R) * (den // falling[r])
            # x_1^(K-R) z^r = sum_b C(r, b) (-1)^(r-b) x_1^(K-R+r-b) x_2^b
            for b in range(r + 1):
                exp[0], exp[j - 1] = K - R + r - b, b
                key = tuple(exp)
                c = coeff * math.comb(r, b)
                num[key] = get(key, 0) + (c if (r - b) % 2 == 0 else -c)
    return MultiPoly._from_int(n, num, den)


def recursion_residual(spec: HookSpec) -> MultiPoly:
    """Q^(k,m) minus sum_{i=0..n} (-1)^i e_i Q^(n-i+k, m-1); zero when
    the recursion holds.  The identity is asserted for every m >= 1.

    The sum is formed in one int map over the lcm of the denominators:
    each monomial of e_i, an i-subset of the variables, is added to the
    exponents of every term of the lower element in place."""
    if spec.m < 1:
        raise ValueError("recursion needs m >= 1")
    n = spec.n
    top = q_integral(spec)
    lowers = [q_integral(HookSpec(n=n, m=spec.m - 1, j=spec.j, k=n - i + spec.k))
              for i in range(n + 1)]
    den = math.lcm(top.den, *(q.den for q in lowers))
    scale = den // top.den
    acc = {e: c * scale for e, c in top.num.items()}
    get = acc.get
    for i, lower in enumerate(lowers):
        # minus (-1)^i e_i Q^(n-i+k, m-1), over den
        scale = den // lower.den if i % 2 else -(den // lower.den)
        terms = [(e, c * scale) for e, c in lower.num.items()]
        for subset in combinations(range(n), i):
            step = tuple(1 if s in subset else 0 for s in range(n))
            for e, c in terms:
                key = tuple(map(add, e, step))
                acc[key] = get(key, 0) + c
    return MultiPoly._from_int(n, acc, den)


def lowest_quotient(spec: HookSpec) -> MultiPoly:
    """Exact quotient by (x_j - x_1)^(2m+1) evaluated at x_1 = x_j.

    At x_1 = x_j + u the divisor is (-u)^(2m+1), so the value is minus the
    coefficient of u^(2m+1), once those of u^0..u^2m are seen to vanish.
    Divisibility failure would contradict the membership theorem, so it
    raises rather than returning a sentinel.
    """
    m, j = spec.m, spec.j
    coeffs = shift_coefficients(q_integral(spec), 1, j, 2 * m + 1)
    if not all(c.is_zero() for c in coeffs[:-1]):
        raise TheoremViolationError(
            f"(x_{j} - x_1)^{2 * m + 1} does not divide Q for {spec}"
        )
    return -coeffs[-1]


def lowest_quotient_rhs(spec: HookSpec) -> MultiPoly:
    """(-1)^m m!^2 / (2m+1)! * x_j^k * prod_{i != 1, j} (x_j - x_i)^m."""
    n, m, j, k = spec.n, spec.m, spec.j, spec.k
    scale = MultiPoly._from_int(n, {(0,) * n: (-1) ** m * math.factorial(m) ** 2},
                                math.factorial(2 * m + 1))
    xj = MultiPoly.variable(n, j)
    result = xj ** k * scale
    for i in range(2, n + 1):
        if i == j:
            continue
        result = result * (xj - MultiPoly.variable(n, i)) ** m
    return result


def basis_term_bound(n: int, m: int) -> int:
    """An upper bound on the terms of Q^(0,m), ..., Q^(n-2,m) together.
    In the closed form every x_t with t not in {1, j} has exponent <= m,
    and the rest of the degree mn + k + 1 splits between x_1 and x_j, so
    Q^(k,m) has at most (m+1)^(n-2) (mn + k + 2) terms."""
    return sum((m + 1) ** (n - 2) * (m * n + k + 2) for k in range(n - 1))


def hook_basis(n: int, m: int, j: int, verify: bool = False):
    """[Q^(0,m), ..., Q^(n-2,m)] for the hook tableau with second-row
    entry j, by integration; with ``verify`` the closed form and the degree
    contract are asserted as well.  A basis whose term bound exceeds
    BASIS_MAX_TERMS is refused before any element is built."""
    HookSpec(n=n, m=m, j=j, k=0)  # refuses a bad n, m or j before the guard
    bound = basis_term_bound(n, m)
    if bound > BASIS_MAX_TERMS:
        raise ResourceGuardError(
            f"basis limited to {BASIS_MAX_TERMS} bounded terms, got {bound} "
            f"for n={n}, m={m}")
    basis = []
    for k in range(n - 1):
        spec = HookSpec(n=n, m=m, j=j, k=k)
        q = q_integral(spec)
        if verify:
            if q != q_closed_form(spec):
                raise TheoremViolationError(f"dual constructions disagree for {spec}")
            if not (q.is_homogeneous() and q.degree() == m * n + k + 1):
                raise TheoremViolationError(f"degree contract failed for {spec}")
        basis.append(q)
    return basis
