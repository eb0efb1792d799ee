"""Exact rectangular determinants over GF(p) and the rationals, together with
the linear maps that preserve them: construction, verification, factorisation
and small-field enumeration.

Each name in `__all__` is loaded from its home module on first access (PEP 562),
so `import cullis` loads no submodule and each command pays only for what it runs.
"""

_HOMES = {
    "combinatorics": ("Injection", "KSubset", "injections", "k_subsets", "sgn_injection"),
    "determinant": ("det", "det_definition", "det_laplace", "det_minorsum", "det_product_rhs",
                    "semicyclic_shift"),
    "errors": ("BudgetExceeded", "CullisError", "EmptyResult", "FieldMismatch",
               "IndexOutOfRange", "LengthMismatch", "ParityError", "ResourceGuard",
               "ShapeError", "ShapeMismatch", "ZeroInverse"),
    "fields": ("RATIONALS", "FieldSpec", "Scalar", "gf"),
    "lambdapoly": ("LambdaPoly", "all_completions_vanish", "deg_witness", "in_radical",
                   "lambda_coeffs", "make_b_diffdiff", "make_b_diffsum", "make_b_plainsum",
                   "max_deg_over_all_A", "radical_enumerate"),
    "matrix": ("RectMatrix", "basis_matrix", "basis_selector", "hjoin", "identity", "ones",
               "rank", "random_matrix", "submatrix_drop", "submatrix_keep", "unvec", "vec",
               "zeros"),
    "preserver": ("Census", "LinearMapNK", "PreserverReport", "check_k1_form",
                  "check_sign_condition", "detn2_partner", "enumerate_preservers",
                  "factor_two_sided", "is_preserver", "make_k2_counterexample", "make_s_shift",
                  "make_singular_preserver", "make_two_sided", "s_shift_apply"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
