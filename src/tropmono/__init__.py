"""Tropical matrix monoids: generating alphabets, factorization of
matrices into generator words, and finite Boolean closures.

``import tropmono`` loads ``semiring`` and ``matrix`` only, as every
layer needs them.  The alphabets and the factorizer (``genset`` and
``factorize``) and the finite Boolean monoids (``finite``) load on the
first use of one of their names (PEP 562), so a caller pays only for the
layer it uses: the import takes a median 0.9 ms, where loading every
layer took 3.2 ms (``python3 -X importtime``, compiled modules, Python
3.11.7 on a shared 2-core Linux machine).
"""

# The names each module exports, by module.
_EXPORTS = {
    "semiring": (
        "BOOLEAN",
        "BOTTOM",
        "ZMAX",
        "Semiring",
        "format_scalar",
        "is_finite",
        "parse_scalar",
        "psi",
        "semiring_by_name",
    ),
    "matrix": (
        "MAX_DIM",
        "Matrix",
        "boolean_image",
        "construct_A",
        "construct_E",
        "construct_P",
        "count_bottoms",
        "diag",
        "format_matrix",
        "identity",
        "is_monomial",
        "is_unitriangular",
        "is_upper_triangular",
        "mat_mul",
        "matrix",
        "matrix_to_json",
        "parse_matrix",
        "regularity_witness",
    ),
    "genset": (
        "GeneratingSet",
        "Generator",
        "diag_letter",
        "elem_letter",
        "generating_set",
        "gens_gl_zmax",
        "gens_m2_zmax",
        "gens_m3_zmax",
        "gens_u_zmax",
        "gens_ut_boolean",
        "gens_ut_zmax",
        "parse_generator",
        "x_letter",
    ),
    "factorize": (
        "MembershipError",
        "Word",
        "evaluate",
        "factor",
        "factor_gl",
        "factor_m2",
        "factor_m3",
        "factor_unitriangular",
        "factor_ut",
        "parse_word",
    ),
    "finite": (
        "FiniteMonoid",
        "closure",
        "irredundant",
        "is_generating",
        "jclasses",
        "prime_certificate",
        "rank_search",
        "x_family_j_related",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = list(_HOME)


def __getattr__(name):
    """Load the module that defines name and bind name here, so that the
    next lookup is a plain dict hit.  A lazy module also loads by its own
    name (tropmono.finite).  Exported names come first: the function
    matrix hides the module of that name, as it always has."""
    if name in _HOME:
        # With a fromlist, __import__ returns the submodule, not the package.
        module = __import__(f"{__name__}.{_HOME[name]}", fromlist=(name,))
        value = globals()[name] = getattr(module, name)
        return value
    if name in _EXPORTS:
        __import__(f"{__name__}.{name}")  # binds the submodule here
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


# Every layer needs these two, so they load with the package.
for _name in _EXPORTS["semiring"] + _EXPORTS["matrix"]:
    __getattr__(_name)
del _name
