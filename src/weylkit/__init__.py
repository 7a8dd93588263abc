"""weylkit: exact polytabloid and copolytabloid computations on free modules.

The package models the two classical endofunctor constructions on tableaux
labels -- the quotient of an exterior power by Garnir relations, and the
subspace of a symmetric power cut out by dual Garnir relations -- together
with a straightening algorithm and verification sweeps that check the
defining theorems exactly at desk scale.
"""

from .coeffs import QQ, ZZ, CoefficientRing, InputError, LinComb, integers_mod, parse_ring
from .tableaux import (
    ALL,
    COLUMN_STANDARD,
    ROW_SEMISTANDARD,
    SEMISTANDARD,
    OrderVerdict,
    Tableau,
    check_partition,
    compare_columns,
    compare_rows,
    conjugate,
    count_tableaux,
    diagram_boxes,
    enumerate_tableaux,
    partitions_of,
    partitions_up_to,
    sort_columns,
    sort_rows,
)
from .places import (
    PlacePermutation,
    Relation,
    act,
    row_orbit,
    row_stabilizer_order,
    sab_cosets_star,
    sab_orbit_row_classes,
)
from .powers import (
    ColumnTabloidElement,
    RowTabloidElement,
    SymLowerElement,
    TensorElement,
    rsym,
    sym_lower_coords,
    sym_lower_expand,
    to_row_tabloid,
    wedge_of_sym_lower,
    wedge_project,
)
from .schur import SchurRelation, apply_polytabloid_map, garnir, garnir_labels, polytabloid, verify_schur_ses
from .weyl import (
    StraighteningCertificate,
    WeylRelation,
    copolytabloid,
    dual_garnir,
    dual_garnir_double_coset,
    dual_garnir_labels,
    dual_snake,
    snake_labels,
    straighten,
    variant_relation,
    verify_weyl_kernel,
    weyl_basis,
)
from .duality import (
    DualFunctional,
    EntryMatrix,
    entry_action,
    equivariance_check,
    find_dual_basis_mismatch,
    pairing_image,
)

__version__ = "0.1.0"
