"""Exact calculator and verifier for linear hyperelliptic Hodge integrals.

Computes the one-lambda-class intersection numbers D(i, k) and d(i, k) on
the hyperelliptic locus three independent ways — closed form, localization
recursion, and a direct fixed-locus graph sum — and mechanically checks the
combinatorial identities tying the routes together.  All arithmetic is
exact.

The public API is lazy: ``import hyperhodge`` loads no submodule, and each
name below (or a submodule, such as ``hyperhodge.values``) is imported on
first use.  So a process loads only what it runs: point queries load
``values``, ``kernels`` and ``errors``, and the ``table`` command ``cli`` as
well; only the verification suites load ``algebra``.
"""

from importlib import import_module

__version__ = "0.1.0"

# The kernels are pure Python.  The constant stays because the benchmark's
# set-up step imports the package and prints it as its import check.
KERNEL_BACKEND = "py"

# public name -> the submodule that defines it
_SUBMODULES = {name: module for module, names in {
    "algebra": "DensePolynomial LaurentPolynomial Rational laurent_sum",
    "errors": "DomainError IdentityReport VerificationError",
    "identities": "P_poly Q_poly alternating_power_sum eqn_check "
                  "hat_root_values hat_transform product_vanishing_sum",
    "localization": "ContributionTemplate LocalizationGraph VertexModuli "
                    "auxiliary_integral contribution_template "
                    "enumerate_family graph_contribution localization_D "
                    "localization_d vertex_integral vertex_moduli_of",
    "symmetric": "elementary gen_product signed_convolution",
    "values": "HodgeValueKey MemoTable base_value closed_D closed_d "
              "recursive_D recursive_d table",
}.items() for name in names.split()}

__all__ = sorted([*_SUBMODULES, "KERNEL_BACKEND"])


def __getattr__(name: str):
    # PEP 562: called only for names not bound yet; an imported submodule
    # is bound by the import itself
    if name in _SUBMODULES.values():
        return import_module(f"{__name__}.{name}")
    if name in _SUBMODULES:
        return getattr(import_module(f"{__name__}.{_SUBMODULES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
