"""The coset enumerators and the relations built on them against the place-permutation oracles.

Each test runs one shape of size at most 5, over every tableau with entries
at most 3 (at most 4 on shapes of size at most 4, so that A | B can hold
four distinct entries) and every Garnir or dual Garnir label of the shape.
The Garnir kernel must equal the wedge projection of the terms of the
coset representatives, and the dual Garnir kernel, which sorts only the two
rows a term changes, the sum that writes out and sorts every coset term.
"""

from collections import Counter

import pytest

from weylkit.coeffs import ZZ, LinComb
from weylkit.places import (
    left_coset_reps,
    row_stabilizer_order,
    sab_cosets_star,
    sab_orbit_row_classes,
    shuffles,
)
from weylkit.schur import _garnir_int, garnir_labels
from weylkit.tableaux import ALL, enumerate_tableaux, partitions_up_to, sort_rows
from weylkit.weyl import (
    STAR_STAR_VARIANT,
    STAR_VARIANT,
    _dual_garnir_int,
    dual_garnir_labels,
    variant_relation,
)

from place_oracles import full_arrangement_row_classes, shuffle_dual_garnir, wedge_projection

each_shape = pytest.mark.parametrize(
    "shape", list(partitions_up_to(5)), ids=lambda s: ",".join(map(str, s))
)


def every_tableau(shape):
    return enumerate_tableaux(shape, 4 if sum(shape) <= 4 else 3, ALL)


def coset_sweep(shape, labels):
    """(t, A, B, t acted on by each coset representative with its sign)."""
    tableaux = every_tableau(shape)
    for box_a, box_b in labels(shape):
        reps = [(rep, rep.sign) for rep in left_coset_reps(shape, box_a, box_b)]
        for t in tableaux:
            yield t, box_a, box_b, [(rep.act(t), sign) for rep, sign in reps]


def on_lines(lin, lines):
    """A tableau-keyed ``LinComb`` over Z as ``{lines: int}``, each label read as ``lines(label)``."""
    return {lines(u): c for u, c in lin.items()}


@each_shape
def test_garnir_relations_match_coset_representatives(shape):
    for t, box_a, box_b, acted in coset_sweep(shape, garnir_labels):
        assert list(shuffles(t.rows, box_a, box_b)) == [(u.rows, sign) for u, sign in acted]
        expected = on_lines(wedge_projection(acted), lambda u: u.columns)
        assert _garnir_int(t.columns, box_a, box_b) == expected, (t, box_a, box_b)


@each_shape
def test_star_variants_match_coset_representatives(shape):
    for t, box_a, box_b, acted in coset_sweep(shape, dual_garnir_labels):
        assert list(shuffles(t.rows, box_a, box_b)) == [(u.rows, sign) for u, sign in acted]
        tally = Counter(u for u, _ in acted)
        assert sab_cosets_star(t, box_a, box_b) == sorted(tally.items(), key=lambda kv: kv[0].sort_key)
        for kind, weight in ((STAR_VARIANT, lambda u: 1), (STAR_STAR_VARIANT, row_stabilizer_order)):
            coords = {}
            for u, mult in tally.items():
                label = sort_rows(u)
                coords[label] = coords.get(label, 0) + mult * weight(u)
            assert variant_relation(t, box_a, box_b, kind).element.lin == LinComb(ZZ, coords)


@each_shape
def test_row_classes_match_full_arrangements(shape):
    tableaux = every_tableau(shape)
    for box_a, box_b in dual_garnir_labels(shape):
        for t in tableaux:
            expected = full_arrangement_row_classes(t, box_a, box_b)
            assert sab_orbit_row_classes(t, box_a, box_b) == expected
            relation = _dual_garnir_int(t.rows, box_a, box_b)
            assert relation == {sort_rows(u).rows: i for u, i in expected}
            assert relation == on_lines(shuffle_dual_garnir(t, box_a, box_b), lambda u: u.rows), (t, box_a, box_b)
