import random

import pytest

from weylkit.coeffs import QQ, ZZ, LinComb, integers_mod
from weylkit.powers import (
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
from weylkit.schur import polytabloid
from weylkit.weyl import copolytabloid, dual_snake
from weylkit.tableaux import (
    ALL,
    ROW_SEMISTANDARD,
    OrderVerdict,
    Tableau,
    compare_columns,
    enumerate_tableaux,
    partitions_up_to,
    sort_columns,
    sort_rows,
)

T = Tableau


def tensor(ring, terms):
    return TensorElement(LinComb(ring, terms))


def element_from_json(obj: dict):
    """The element whose ``to_json()`` is ``obj``: the reader the JSON round-trip tests use."""
    spaces = (TensorElement, RowTabloidElement, SymLowerElement, ColumnTabloidElement)
    cls = next(cls for cls in spaces if cls.space == obj["space"])
    return cls(LinComb.from_json(obj, Tableau.from_json))


class TestRsym:
    def test_fully_symmetric_label(self):
        assert rsym(T([[1, 1], [2, 2]])) == tensor(ZZ, {T([[1, 1], [2, 2]]): 1})

    def test_four_term_expansion(self):
        got = rsym(T([[2, 1], [1, 2]]))
        assert got == tensor(
            ZZ,
            {
                T([[2, 1], [1, 2]]): 1,
                T([[1, 2], [1, 2]]): 1,
                T([[2, 1], [2, 1]]): 1,
                T([[1, 2], [2, 1]]): 1,
            },
        )

    def test_hook_with_free_row(self):
        got = rsym(T([[1, 2], [3]]))
        assert got == tensor(ZZ, {T([[1, 2], [3]]): 1, T([[2, 1], [3]]): 1})

    def test_invariant_on_row_classes_exhaustive(self):
        for shape in partitions_up_to(5):
            for m in (1, 2, 3):
                for t in enumerate_tableaux(shape, m, ALL):
                    assert rsym(t) == rsym(sort_rows(t))


class TestRowTabloidProjection:
    def test_merges_row_orbit(self):
        x = to_row_tabloid(rsym(T([[2, 1], [1, 2]])))
        assert x == RowTabloidElement(LinComb(ZZ, {T([[1, 2], [1, 2]]): 4}))

    def test_fixes_sorted_rows(self):
        t = T([[1, 2, 2], [3, 3]])
        x = to_row_tabloid(tensor(ZZ, {t: 1}))
        assert x == RowTabloidElement(LinComb(ZZ, {t: 1}))

    def test_linear(self):
        t = T([[2, 1]])
        x = tensor(ZZ, {t: 1})
        assert to_row_tabloid(x - x).is_zero


class TestWedgeProjection:
    def test_repeated_column_entry_dies(self):
        assert wedge_project(tensor(ZZ, {T([[1, 2], [1, 3]]): 1})).is_zero

    def test_single_column_swap_changes_sign(self):
        got = wedge_project(tensor(ZZ, {T([[2, 1], [1, 2]]): 1}))
        assert got == ColumnTabloidElement(LinComb(ZZ, {T([[1, 1], [2, 2]]): -1}))

    def test_fixes_column_standard(self):
        t = T([[1, 2], [2, 3]])
        assert wedge_project(tensor(ZZ, {t: 1})) == ColumnTabloidElement(LinComb(ZZ, {t: 1}))

    def test_unitriangular_over_row_semistandard_labels(self):
        for shape in partitions_up_to(4):
            for m in (2, 3):
                for t in enumerate_tableaux(shape, m, ROW_SEMISTANDARD):
                    image = wedge_project(rsym(t))
                    lead = sort_columns(t)
                    for w, coeff in image.items():
                        verdict = compare_columns(t, w)
                        if lead is not None and w == lead[1]:
                            assert verdict is OrderVerdict.INCOMPARABLE
                            assert coeff == lead[0]
                        else:
                            assert verdict is OrderVerdict.LESS

    def test_matches_coordinate_path(self):
        rng = random.Random(11)
        labels = enumerate_tableaux((2, 2), 2, ROW_SEMISTANDARD)
        for _ in range(25):
            coords = {t: rng.randint(-3, 3) for t in rng.sample(labels, 3)}
            x = SymLowerElement(LinComb(ZZ, coords))
            assert wedge_of_sym_lower(x) == wedge_project(sym_lower_expand(x))


class TestSymLowerCoords:
    def test_basis_element(self):
        t = T([[1, 2], [2, 2]])
        assert sym_lower_coords(rsym(t)) == SymLowerElement(LinComb(ZZ, {t: 1}))

    def test_example_relation_coordinates(self):
        x = rsym(T([[1, 1], [2, 2]])).scaled(2) + rsym(T([[1, 2], [1, 2]]))
        got = sym_lower_coords(x)
        assert got == SymLowerElement(
            LinComb(ZZ, {T([[1, 1], [2, 2]]): 2, T([[1, 2], [1, 2]]): 1})
        )

    def test_bare_tableau_is_rejected(self):
        x = tensor(ZZ, {T([[1, 2], [3]]): 1})
        with pytest.raises(ValueError, match="not in Sym"):
            sym_lower_coords(x)

    def test_round_trip_random_coordinates(self):
        rng = random.Random(3)
        labels = enumerate_tableaux((2, 1), 3, ROW_SEMISTANDARD)
        for _ in range(30):
            coords = {t: rng.randint(-4, 4) for t in rng.sample(labels, 4)}
            x = SymLowerElement(LinComb(ZZ, coords))
            assert sym_lower_coords(sym_lower_expand(x)) == x


class TestElementWrappers:
    def test_label_constraints(self):
        with pytest.raises(ValueError):
            RowTabloidElement(LinComb(ZZ, {T([[2, 1]]): 1}))
        with pytest.raises(ValueError):
            ColumnTabloidElement(LinComb(ZZ, {T([[1, 1], [1, 2]]): 1}))
        with pytest.raises(ValueError):
            SymLowerElement(LinComb(ZZ, {T([[2, 1]]): 1}))

    @pytest.mark.parametrize(
        "space, label, build",
        [
            (RowTabloidElement, T([[2, 1], [1]]), lambda t: polytabloid(t)),
            (SymLowerElement, T([[2, 1], [1]]), lambda t: dual_snake(t, 1, 1, 1).element),
            (ColumnTabloidElement, T([[2, 1], [1]]), lambda t: copolytabloid(t)),
        ],
        ids=["sym_upper", "sym_lower", "wedge"],
    )
    def test_builders_skip_only_the_checks_they_need_not_make(self, space, label, build):
        # The public constructor still rejects a label that is not canonical
        # for the space, while elements from the builders that skip the
        # check re-validate through it unchanged.
        with pytest.raises(ValueError):
            space(LinComb(ZZ, {label: 1}))
        checked = 0
        for shape in partitions_up_to(4):
            if len(shape) < 2:  # a dual snake needs two rows
                continue
            for t in enumerate_tableaux(shape, 3, ALL):
                x = build(t)
                assert type(x) is space
                assert space(x.lin) == x
                checked += 1
        assert checked > 100

    def test_shapes_must_agree(self):
        with pytest.raises(ValueError):
            TensorElement(LinComb(ZZ, {T([[1, 2]]): 1, T([[1], [2]]): 1}))

    def test_spaces_do_not_mix(self):
        a = tensor(ZZ, {T([[1, 2]]): 1})
        b = to_row_tabloid(a)
        with pytest.raises(TypeError):
            a + b

    def test_json_round_trip_all_spaces(self):
        t = T([[1, 2], [2, 3]])
        elements = [
            tensor(ZZ, {T([[2, 1], [2, 3]]): -2, t: 1}),
            to_row_tabloid(tensor(QQ, {t: 1})),
            ColumnTabloidElement(LinComb(integers_mod(5), {t: 3})),
            SymLowerElement(LinComb(ZZ, {sort_rows(t): 7})),
        ]
        for x in elements:
            assert element_from_json(x.to_json()) == x

    def test_change_ring(self):
        x = tensor(ZZ, {T([[1, 2]]): 3})
        assert x.change_ring(integers_mod(3)).is_zero
