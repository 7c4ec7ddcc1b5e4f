"""Exact computer algebra for the m-quasiinvariants of the symmetric group.

The package constructs the filtration QI_m of polynomial rings cut out by
the divisibility condition (x_i - x_j)^(2m+1) | (1 - (i,j)) P, realizes the
projection characterization through Young symmetrizers, builds the explicit
hook-shape basis by definite integration and by closed form, applies the
rational Calogero-Moser operator, and verifies graded dimensions against a
brute-force linear-algebra oracle.  All arithmetic is exact rational.

Importing the package loads no submodule: each exported name is imported
from its home module on first access (PEP 562), so a command loads only
the layers it uses.
"""

import importlib

_HOMES = {
    "exactalg": ("DimensionMismatch", "MultiPoly", "ResourceGuardError",
                 "TheoremViolationError", "elementary_symmetric",
                 "partial_derivative", "series_expand", "t_integrate_definite",
                 "vandermonde"),
    "symgroup": ("GroupAlgebraElem", "Perm", "act", "bracket", "parse_cycles"),
    "tableaux": ("Partition", "Tableau", "cocharge", "content", "f_lambda",
                 "gamma", "gamma_apply", "hook_tableau", "in_gamma_component",
                 "standard_tableaux", "v_t"),
    "predicate": ("is_quasiinvariant",),
    "quasi": ("QIWitness", "change_of_basis_n2", "graded_dimension_oracle",
              "is_sym_basis"),
    "hookbasis": ("HookSpec", "hook_basis", "q_closed_form", "q_integral"),
    "calogero": ("NonPolynomialError", "apply_lm"),
    "structure": ("HilbertReport", "det_degree", "full_hilbert",
                  "theorem_main_checks"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)

__version__ = "1.0.0"

# The verify suites by name, here so that the CLI parser can offer them
# without loading the suites and every layer they check.
SUITES = ("groupalgebra", "thm-main", "hook", "lm", "chain")


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
