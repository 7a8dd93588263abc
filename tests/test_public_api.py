"""Every name the package has exported keeps importing, from the package and from its module.

Records kept under an old name, such as ``SchurRelation`` and
``WeylRelation``, count: callers may import them from either place.
"""

import importlib

import pytest

EXPORTS = {
    "coeffs": ("QQ", "ZZ", "CoefficientRing", "InputError", "LinComb", "integers_mod", "parse_ring"),
    "tableaux": (
        "ALL", "COLUMN_STANDARD", "ROW_SEMISTANDARD", "SEMISTANDARD", "OrderVerdict", "Tableau",
        "check_partition", "compare_columns", "compare_rows", "conjugate", "count_tableaux", "diagram_boxes",
        "enumerate_tableaux", "partitions_of", "partitions_up_to", "sort_columns", "sort_rows",
    ),
    "places": (
        "PlacePermutation", "Relation", "act", "row_orbit", "row_stabilizer_order", "sab_cosets_star",
        "sab_orbit_row_classes",
    ),
    "powers": (
        "ColumnTabloidElement", "RowTabloidElement", "SymLowerElement", "TensorElement", "rsym",
        "sym_lower_coords", "sym_lower_expand", "to_row_tabloid", "wedge_of_sym_lower", "wedge_project",
    ),
    "schur": (
        "SchurRelation", "apply_polytabloid_map", "garnir", "garnir_labels", "polytabloid", "verify_schur_ses",
    ),
    "weyl": (
        "StraighteningCertificate", "WeylRelation", "copolytabloid", "dual_garnir", "dual_garnir_double_coset",
        "dual_garnir_labels", "dual_snake", "snake_labels", "straighten", "variant_relation",
        "verify_weyl_kernel", "weyl_basis",
    ),
    "duality": (
        "DualFunctional", "EntryMatrix", "entry_action", "equivariance_check", "find_dual_basis_mismatch",
        "pairing_image",
    ),
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_export_imports_from_the_package_and_its_module(module):
    package = importlib.import_module("weylkit")
    home = importlib.import_module(f"weylkit.{module}")
    for name in EXPORTS[module]:
        assert getattr(package, name) is getattr(home, name), name


def test_both_relation_names_are_the_one_record():
    import weylkit

    assert weylkit.SchurRelation is weylkit.WeylRelation is weylkit.Relation
