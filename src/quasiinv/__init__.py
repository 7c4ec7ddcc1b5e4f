"""Exact computer algebra for the m-quasiinvariants of the symmetric group.

The package constructs the filtration QI_m of polynomial rings cut out by
the divisibility condition (x_i - x_j)^(2m+1) | (1 - (i,j)) P, realizes the
projection characterization through Young symmetrizers, builds the explicit
hook-shape basis by definite integration and by closed form, applies the
rational Calogero-Moser operator, and verifies graded dimensions against a
brute-force linear-algebra oracle.  All arithmetic is exact rational.
"""

from .exactalg import (
    DimensionMismatch,
    MultiPoly,
    elementary_symmetric,
    partial_derivative,
    series_expand,
    t_integrate_definite,
    vandermonde,
)
from .symgroup import GroupAlgebraElem, Perm, act, bracket, parse_cycles
from .tableaux import (
    Partition,
    Tableau,
    cocharge,
    content,
    f_lambda,
    gamma,
    gamma_apply,
    hook_tableau,
    standard_tableaux,
    v_t,
)
from .quasi import (
    QIWitness,
    ResourceGuardError,
    graded_dimension_oracle,
    in_gamma_component,
    is_quasiinvariant,
    theorem_main_checks,
)
from .hookbasis import (
    HookSpec,
    TheoremViolationError,
    hook_basis,
    q_closed_form,
    q_integral,
)
from .calogero import NonPolynomialError, apply_lm
from .structure import (
    HilbertReport,
    change_of_basis_n2,
    det_degree,
    full_hilbert,
    hook_quotient_dimension,
)

__all__ = [
    "DimensionMismatch",
    "GroupAlgebraElem",
    "HilbertReport",
    "HookSpec",
    "MultiPoly",
    "NonPolynomialError",
    "Partition",
    "Perm",
    "QIWitness",
    "ResourceGuardError",
    "Tableau",
    "TheoremViolationError",
    "act",
    "apply_lm",
    "bracket",
    "change_of_basis_n2",
    "cocharge",
    "content",
    "det_degree",
    "elementary_symmetric",
    "f_lambda",
    "full_hilbert",
    "gamma",
    "gamma_apply",
    "graded_dimension_oracle",
    "hook_basis",
    "hook_quotient_dimension",
    "hook_tableau",
    "in_gamma_component",
    "is_quasiinvariant",
    "parse_cycles",
    "partial_derivative",
    "q_closed_form",
    "q_integral",
    "series_expand",
    "standard_tableaux",
    "t_integrate_definite",
    "theorem_main_checks",
    "v_t",
    "vandermonde",
]

__version__ = "1.0.0"
