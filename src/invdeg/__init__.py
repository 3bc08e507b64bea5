"""Exact multidegrees of inverse pairs of symmetric matrices.

The package computes, entirely in exact arithmetic: the bidegree coefficient
lists of the variety of pairs (M, inverse of M) of symmetric n x n matrices
and of the boundary pairs with product zero; the algebraic degree of
semidefinite programming; ML-degrees of generic linear concentration models
together with their interpolating polynomials in n; and symbolic / rational
certificates (graph vanishing, adjugate identity, swap symmetry, span
comparison, rank witnesses) backing the combinatorial formulas.

Importing the package loads no engine. Each public name below is resolved
on first use from the submodule that defines it (``invdeg.psi``,
``invdeg.multidegree``, ...), so ``from invdeg import psi_table`` loads the
psi layer alone.
"""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "exact": (
        "InvariantViolation",
        "SkewMatrix",
        "binomial",
        "matrix_rank",
        "pfaffian",
        "pfaffian_reference",
        "sparse_rank",
    ),
    "psi": ("PsiTable", "p_alpha", "psi_pair", "psi_seq", "psi_single", "psi_table"),
    "multidegree": (
        "MultidegreeIdentityReport",
        "MultidegreeTable",
        "beta",
        "beta_vector",
        "gamma_degrees",
        "multidegree_table",
        "sdp_degree",
        "sigma_coefficients",
        "sym_dimension",
        "verify_multidegree_identity",
    ),
    "mldegree": (
        "DifferenceReport",
        "MLPolynomial",
        "finite_difference_check",
        "ml_degree",
        "ml_polynomial",
        "ml_table",
        "smallest_valid_n",
    ),
    "poly": (
        "SparsePoly",
        "SymbolicMatrix",
        "VarId",
        "det_sym",
        "determinant",
        "generic_sym_matrix",
        "mat_mul",
        "swap_sides",
        "xvar",
        "yvar",
    ),
    "symbolic": (
        "RationalSymMatrix",
        "VanishingReport",
        "adjugate",
        "adjugate_identity_holds",
        "graph_ideal_generators",
        "product_entries",
        "product_matrix",
        "spans_product_entries",
        "swap_symmetry_holds",
        "verify_graph_vanishing",
        "witness_pair_valid",
        "witness_rank_pair",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
