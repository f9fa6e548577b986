"""Integral rack homology of finite racks.

Brute force (boundary matrices reduced to Smith normal form) on one side,
closed-form rank formulas for permutation racks on the other, and explicit
certified cycle bases connecting the two.

Each public name, and each module, is imported on first access (PEP 562),
so importing the package loads none of its modules.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "chains": "Chain NotGenerating apply_boundary boundary_matrix boundary_of_monomial"
    " detection_map enumerate_basis reduce_to_start_set",
    "closed_forms": "EquivariantRanks IntPolynomial betti e2_rank e2_row equivariant_ranks"
    " free_permutation_rack_rank free_rack_rank functional_equation_check kunneth_gap"
    " poincare_series rational_series row_polynomial structure_group_rank",
    "cycles": "CycleRecipe DifferenceFactor MixedDegrees NotFixedPoint OrbitAverageFactor"
    " TerminalFactor basis_recipes cycle_basis difference_product fixed_point_square"
    " independence_certificate orbit_average",
    "homology": "HomologyGroup NotACycle homology_table is_cycle is_rational_boundary"
    " rack_homology",
    "linalg": "SmithForm SparseIntMatrix determinant matmul rational_rank smith_normal_form",
    "racks": "DEFAULT_BASIS_CAP DegreeTooLarge EmptySpec FiniteRack InfiniteOrbits NotBijective"
    " NotPermutation NotSelfDistributive OrbitDecomposition PermutationSpec as_permutation"
    " dihedral_rack orbit_decomposition permutation_rack trivial_rack validate_rack",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_MODULE_OF, *_EXPORTS]


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value
