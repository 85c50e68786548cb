"""Exact computation with finite-dimensional n-ary algebras given by
matrices of structure constants: generation from binary algebras,
associativity and isomorphism checking, and solvability of the
expressibility system.

The exported names load on first use (PEP 562), so ``import trialg`` and
each CLI command import only the modules they run."""

import importlib

_EXPORTS = {
    name: module
    for module, names in (
        ("ring", "Ring RingElem prime_field polynomial_ring parse_scalar substitute"),
        ("msc", "Matrix Msc BasisChange eval_product transform basis_vector "
                "msc_to_doc msc_from_doc"),
        ("generate", "generate_nary expressibility_residual symbolic_system"),
        ("identities", "total_assoc_residuals is_totally_associative quintuple_oracle "
                       "binary_assoc_residual assoc_report"),
        ("iso", "iso_verify iso_search iso_report"),
        ("polysolve", "PolySystem SolveOutcome solve_ff_exhaustive buchberger "
                      "certify_expressibility"),
        ("catalog", "catalog_get catalog_names table1_verify totassoc_scan claims_verify "
                    "paper_replay"),
    )
    for name in names.split()
}
_MODULES = frozenset(_EXPORTS.values()) | {"cli"}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
        globals()[name] = value
        return value
    if name in _MODULES:  # trialg.catalog after a bare ``import trialg``
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
