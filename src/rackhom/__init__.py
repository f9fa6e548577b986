"""Integral rack homology of finite racks.

Brute force (boundary matrices reduced to Smith normal form) on one side,
closed-form rank formulas for permutation racks on the other, and explicit
certified cycle bases connecting the two.
"""

from .chains import (
    DEFAULT_BASIS_CAP,
    Chain,
    DegreeTooLarge,
    NotGenerating,
    apply_boundary,
    boundary_matrix,
    boundary_of_monomial,
    detection_map,
    enumerate_basis,
    reduce_to_start_set,
)
from .closed_forms import (
    EquivariantRanks,
    IntPolynomial,
    betti,
    e2_rank,
    e2_row,
    equivariant_ranks,
    free_permutation_rack_rank,
    free_rack_rank,
    functional_equation_check,
    kunneth_gap,
    poincare_series,
    rational_series,
    row_polynomial,
    structure_group_rank,
)
from .cycles import (
    CycleRecipe,
    DifferenceFactor,
    MixedDegrees,
    NotFixedPoint,
    OrbitAverageFactor,
    TerminalFactor,
    basis_recipes,
    cycle_basis,
    difference_product,
    fixed_point_square,
    independence_certificate,
    orbit_average,
)
from .homology import (
    HomologyGroup,
    NotACycle,
    homology_table,
    is_cycle,
    is_rational_boundary,
    rack_homology,
)
from .linalg import (
    SmithForm,
    SparseIntMatrix,
    determinant,
    matmul,
    rational_rank,
    smith_normal_form,
)
from .racks import (
    EmptySpec,
    FiniteRack,
    InfiniteOrbits,
    NotBijective,
    NotPermutation,
    NotSelfDistributive,
    OrbitDecomposition,
    PermutationSpec,
    as_permutation,
    dihedral_rack,
    orbit_decomposition,
    permutation_rack,
    trivial_rack,
    validate_rack,
)

__version__ = "0.1.0"
