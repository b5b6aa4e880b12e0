"""Exact calculator and verifier for linear hyperelliptic Hodge integrals.

Computes the one-lambda-class intersection numbers D(i, k) and d(i, k) on
the hyperelliptic locus three independent ways — closed form, localization
recursion, and a direct fixed-locus graph sum — and mechanically checks the
combinatorial identities tying the routes together.  All arithmetic is
exact.
"""

from .algebra import (DensePolynomial, LaurentPolynomial, MINUS_INFINITY,
                      Rational, laurent_sum)
from .errors import DomainError, VerificationError
from .identities import (IdentityReport, P_poly, Q_poly,
                         alternating_power_sum, eqn_check, hat_root_values,
                         hat_transform, product_vanishing_sum)
from .localization import (ContributionTemplate, LocalizationGraph,
                           VertexModuli, auxiliary_integral,
                           auxiliary_integrals, contribution_template,
                           enumerate_family, graph_contribution,
                           localization_D, localization_d, vertex_integral,
                           vertex_moduli_of)
from .symmetric import elementary, gen_product, signed_convolution
from .values import (HodgeValueKey, MemoTable, base_value, closed_D, closed_d,
                     recursive_D, recursive_d, table)

__version__ = "0.1.0"

# The kernels are pure Python.  The constant stays because the benchmark's
# set-up step imports the package and prints it as its import check.
KERNEL_BACKEND = "py"

__all__ = [
    "ContributionTemplate",
    "DensePolynomial",
    "DomainError",
    "HodgeValueKey",
    "IdentityReport",
    "KERNEL_BACKEND",
    "LaurentPolynomial",
    "LocalizationGraph",
    "MINUS_INFINITY",
    "MemoTable",
    "P_poly",
    "Q_poly",
    "Rational",
    "VerificationError",
    "VertexModuli",
    "alternating_power_sum",
    "auxiliary_integral",
    "auxiliary_integrals",
    "base_value",
    "closed_D",
    "closed_d",
    "contribution_template",
    "elementary",
    "enumerate_family",
    "eqn_check",
    "gen_product",
    "graph_contribution",
    "hat_root_values",
    "hat_transform",
    "laurent_sum",
    "localization_D",
    "localization_d",
    "product_vanishing_sum",
    "recursive_D",
    "recursive_d",
    "signed_convolution",
    "table",
    "vertex_integral",
    "vertex_moduli_of",
]
