"""Exact symbolic computation in the universal algebras of Drinfeld-Yetter
diagrams: normal ordering, Hochschild cohomology, twists and gauges,
realizations on finite-dimensional Lie bialgebras and truncated Kac-Moody
Borels, and the nested-set combinatorics of diagram quotients.

The public names below are exported lazily (PEP 562): ``import dyalg``
loads no submodule, and the first access to a name imports its home module.
"""

_EXPORTS = {
    **dict.fromkeys((
        "AlgebraElement", "alpha_map", "alt", "beta_map", "compose_basis",
        "dim_formula", "embed_slots", "enumerate_basis", "face_map",
        "filter_window", "forget_split", "hochschild_d", "is_invariant",
        "kappa", "kappa_alpha", "omega", "quotient_allowed", "r_matrix",
        "rho_tilde_b", "rho_tilde_pair", "slot_permute"), "algebra"),
    **dict.fromkeys((
        "DYModuleData", "LieBialgebraData", "adjoint_module", "borel_sl2",
        "drinfeld_double", "evaluate", "tensor_module", "trivial_module",
        "validate_bialgebra", "validate_dy_module"), "bialgebra"),
    **dict.fromkeys(("cohomology_table", "decompose_cocycle"), "cohomology"),
    **dict.fromkeys((
        "build_central_family", "build_test_family", "build_unit_family",
        "check_coxeter_family"), "coxeter"),
    **dict.fromkeys((
        "Diagram", "compatible", "maximal_nested_sets", "mns_union",
        "quotient_diagram"), "diagrams"),
    **dict.fromkeys((
        "expand_to_assoc", "hochschild_target_dim", "lie_multilinear_basis"),
        "freelie"),
    **dict.fromkeys((
        "KacMoodyBorel", "build_kac_moody_borel", "symmetrizer",
        "validate_bialgebra_windowed"), "kacmoody"),
    **dict.fromkeys((
        "RootCone", "RootConeMod", "SPLIT", "Split", "TRIVIAL", "Trivial",
        "TruncationOverflow"), "monoids"),
    **dict.fromkeys((
        "MonodromyMismatch", "sl2_irrep", "solve_local_monodromy",
        "triple_exponential"), "monodromy"),
    "GradedSeries": "series",
    **dict.fromkeys(("random_term", "straighten"), "terms"),
    **dict.fromkeys((
        "GaugeObstruction", "associator_2jet", "check_associator_axioms",
        "gauge", "solve_gauge", "twist_conjugate",
        "twist_equation_residual"), "twists"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the home module of the exported ``name`` and cache the name
    here, so later accesses are plain attribute reads."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
