"""The integer kernel certificates of the verify paths.

One certificate per (side, shape, m), built over Z, must give the verdict
and the ranks of Gaussian elimination over every ring, must fail every
ring through the integer membership check when a relation is broken only
by a multiple of 2, and must be reused for the second ring onwards.
"""

import dataclasses
import re
from itertools import chain, combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

import weylkit.powers as powers
import weylkit.schur as schur
import weylkit.verify as verify
import weylkit.weyl as weyl
from weylkit.coeffs import QQ, ZZ, LinComb, integers_mod, parse_ring
from weylkit.powers import ColumnTabloidElement, SymLowerElement, wedge_of_sym_lower
from weylkit.schur import SCHUR
from weylkit.tableaux import (
    ALL,
    COLUMN_STANDARD,
    ROW_SEMISTANDARD,
    SEMISTANDARD,
    Tableau,
    conjugate,
    count_tableaux,
    enumerate_tableaux,
    partitions_up_to,
)
from weylkit.verify import certificate
from weylkit.weyl import WEYL

from rank_oracle import schur_verdict, weyl_verdict
from scan_oracle import schur_scan, tableau_garnir_pivot, weyl_scan
from weight_oracles import (
    adjacent_transposition,
    column_sorted_labels,
    full_scan,
    full_snake_scan,
    relabel,
    relabel_columns,
    relabel_rows,
    sort_columns_tracking_boxes,
)

T = Tableau

RINGS = ("q", "zmod:2", "zmod:3", "z")
SIDES = {
    "schur": (schur.verify_schur_ses, schur_verdict, ("polytabloid_map", "garnir_span")),
    "weyl": (weyl.verify_weyl_kernel, weyl_verdict, ("projection", "snake_span")),
}
DIMS = {"schur": ("csyt", "ssyt", "wedge_dim"), "weyl": ("rssyt", "ssyt", "csyt")}


@pytest.mark.parametrize("side", sorted(SIDES))
@pytest.mark.parametrize("shape", tuple(partitions_up_to(5)), ids=str)
def test_certificate_matches_elimination_on_every_ring(shape, side):
    verify, oracle, (rank_key, span_key) = SIDES[side]
    # m = 4 on |λ| ≤ 3 covers the instances the lattice-z benchmark adds.
    for m in (1, 2, 3, 4) if sum(shape) <= 3 else (1, 2, 3):
        # the bases counted apart from the certificate the reports read them off
        csyt = count_tableaux(shape, m, COLUMN_STANDARD)
        counts = {
            "csyt": csyt,
            "wedge_dim": csyt,
            "rssyt": count_tableaux(shape, m, ROW_SEMISTANDARD),
            "ssyt": len(enumerate_tableaux(shape, m, SEMISTANDARD)),
        }
        for tag in RINGS:
            ring = parse_ring(tag)
            report = verify(shape, m, ring, entry_cap=None)
            ok, rank, span = oracle(shape, m, ring)
            got = (report["ok"], report["ranks"][rank_key], report["ranks"][span_key])
            assert got == (ok, rank, span), (shape, m, tag)
            assert report["dims"] == {k: counts[k] for k in DIMS[side]}, (shape, m, tag)
            if side == "weyl":
                assert report["ranks"]["expected_nullity"] == counts["rssyt"] - counts["ssyt"]


# A relation of each side, given to its line-form builder, and a label of
# its space: adding twice the label breaks the relation over Z and Q but not
# modulo 2.  ``public`` builds the same relation through the public builder.
MUTATIONS = {
    "schur": (
        "_garnir_int",
        (T([[1, 2], [3]]).columns, frozenset({(1, 1), (2, 1)}), frozenset({(1, 2)})),
        lambda: schur.garnir(T([[1, 2], [3]]), frozenset({(1, 1), (2, 1)}), frozenset({(1, 2)})),
        ColumnTabloidElement,
        T([[1, 2], [3]]),
        ((2, 1), 3),
        "garnir_relations_map_to_zero",
    ),
    "weyl": (
        "_dual_garnir_int",
        (T([[1, 2], [1, 2]]).rows, frozenset({(1, 1), (1, 2)}), frozenset({(2, 1)})),
        lambda: weyl.dual_snake(T([[1, 2], [1, 2]]), 1, 1, 1),
        SymLowerElement,
        T([[1, 1], [2, 2]]),
        ((2, 2), 2),
        "snakes_lie_in_kernel",
    ),
}


def plus_a_label(original, target, lines, c):
    """The line-form builder ``original`` with c times ``lines`` added to the relation on ``target``."""

    def patched(*args):
        rel = original(*args)
        return {**rel, lines: rel.get(lines, 0) + c} if args == target else rel

    return patched


@pytest.mark.parametrize("side", sorted(MUTATIONS))
def test_a_relation_broken_only_away_from_2_fails_modulo_2(side, monkeypatch):
    verify, oracle, (_, span_key) = SIDES[side]
    builder, target, _, space, label, (shape, m), check_name = MUTATIONS[side]
    module = schur if side == "schur" else weyl
    lines = label.rows if space is SymLowerElement else label.columns
    monkeypatch.setattr(module, builder, plus_a_label(getattr(module, builder), target, lines, 2))
    z2 = integers_mod(2)
    # Elimination over each ring sees the mutation over Q but not modulo 2,
    # where twice a label is zero.
    assert not oracle(shape, m, QQ)[0]
    assert oracle(shape, m, z2)[0]
    for ring in (z2, integers_mod(3), QQ, ZZ):
        report = verify(shape, m, ring)
        assert not report["ok"], ring
        failed = [c for c in report["checks"] if not c["ok"]]
        assert [c["name"] for c in failed] == [check_name]
        assert failed[0]["counterexample"] is not None
        assert report["ranks"][span_key] is None
    # the tableau scan finds the same counterexample, through the public builder
    line_side, tableau_scan = (SCHUR, schur_scan) if side == "schur" else (WEYL, weyl_scan)
    assert fields(certificate(line_side, shape, m)) == fields(tableau_scan(shape, m))


def test_both_sides_report_a_broken_relation_in_one_shape(monkeypatch):
    examples = {}
    for side, (builder, target, public, space, label, (shape, m), check_name) in sorted(MUTATIONS.items()):
        module = schur if side == "schur" else weyl
        rel = public()
        broken = dataclasses.replace(rel, element=rel.element + space(LinComb(ZZ, {label: 1})))
        lines = label.rows if space is SymLowerElement else label.columns
        monkeypatch.setattr(module, builder, plus_a_label(getattr(module, builder), target, lines, 1))
        report = SIDES[side][0](shape, m, ZZ)
        examples[side] = next(c for c in report["checks"] if c["name"] == check_name)["counterexample"]
        assert examples[side] == broken.to_json()
    assert list(examples["weyl"]) == ["kind", "tableau", "boxA", "boxB", "row", "cols", "element"]
    assert list(examples["schur"]) == [k for k in examples["weyl"] if k not in ("row", "cols")]


@pytest.mark.parametrize("side", sorted(SIDES))
def test_a_second_ring_builds_no_relation(side, monkeypatch):
    module, builder = (schur, "_garnir_int") if side == "schur" else (weyl, "_dual_garnir_int")
    original = getattr(module, builder)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, builder, counting)
    verify = SIDES[side][0]
    assert verify((3, 2), 3, QQ)["ok"]
    assert calls
    calls.clear()
    for tag in ("zmod:2", "zmod:3", "z"):
        assert verify((3, 2), 3, parse_ring(tag))["ok"]
    assert calls == []


def test_the_certificates_build_no_public_relation_or_image(monkeypatch):
    # The scans read relations and images on lines; a public Relation or
    # image element is built only for a counterexample, and a sweep has none.
    def refuse(*args, **kwargs):
        raise AssertionError("a passing verify built a public relation or image")

    for module, name in (
        (schur, "garnir"), (schur, "polytabloid"), (schur, "apply_polytabloid_map"),
        (weyl, "dual_snake"), (weyl, "dual_garnir"), (weyl, "copolytabloid"), (powers, "wedge_of_sym_lower"),
    ):
        monkeypatch.setattr(module, name, refuse)
    cases = [(shape, m) for shape in partitions_up_to(5) for m in (1, 2, 3)]
    for shape, m in cases + [(shape, 4) for shape in partitions_up_to(3)]:
        for verify in (schur.verify_schur_ses, weyl.verify_weyl_kernel):
            for tag in RINGS:
                report = verify(shape, m, parse_ring(tag), entry_cap=None)
                assert report["ok"], (shape, m, tag, verify.__name__)


# ---------------------------------------------------------------------------
# base change: the soundness of one integer certificate for every ring


TARGETS = (QQ, integers_mod(2), integers_mod(3), integers_mod(4), integers_mod(6))
SHAPES = tuple(partitions_up_to(5))


@st.composite
def shapes_and_labels(draw, kind=ALL):
    shape = draw(st.sampled_from(SHAPES))
    return shape, enumerate_tableaux(shape, draw(st.integers(1, 3)), kind)


@settings(max_examples=60, deadline=None)
@given(shapes_and_labels(), st.data())
def test_garnir_commutes_with_base_change(drawn, data):
    shape, labels = drawn
    boxes = list(schur.garnir_labels(shape))
    assume(boxes)
    t = data.draw(st.sampled_from(labels))
    box_a, box_b = data.draw(st.sampled_from(boxes))
    integral = schur.garnir(t, box_a, box_b).element
    for ring in TARGETS:
        assert schur.garnir(t, box_a, box_b, ring).element == integral.change_ring(ring)


@settings(max_examples=60, deadline=None)
@given(shapes_and_labels(), st.data())
def test_dual_snake_commutes_with_base_change(drawn, data):
    shape, labels = drawn
    snakes = list(weyl.snake_labels(shape))
    assume(snakes)
    t = data.draw(st.sampled_from(labels))
    snake = data.draw(st.sampled_from(snakes))
    integral = weyl.dual_snake(t, *snake).element
    for ring in TARGETS:
        assert weyl.dual_snake(t, *snake, ring).element == integral.change_ring(ring)


def _integral_element(data, space, labels):
    chosen = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=6))
    coeffs = data.draw(st.lists(st.integers(-7, 7), min_size=len(chosen), max_size=len(chosen)))
    return space(LinComb(ZZ, zip(chosen, coeffs)))


@settings(max_examples=60, deadline=None)
@given(shapes_and_labels(COLUMN_STANDARD), st.data())
def test_polytabloid_map_commutes_with_base_change(drawn, data):
    _, labels = drawn
    assume(labels)
    x = _integral_element(data, ColumnTabloidElement, labels)
    image = schur.apply_polytabloid_map(x)
    for ring in TARGETS:
        assert schur.apply_polytabloid_map(x.change_ring(ring)) == image.change_ring(ring)


@settings(max_examples=60, deadline=None)
@given(shapes_and_labels(ROW_SEMISTANDARD), st.data())
def test_wedge_projection_commutes_with_base_change(drawn, data):
    _, labels = drawn
    x = _integral_element(data, SymLowerElement, labels)
    image = wedge_of_sym_lower(x)
    for ring in TARGETS:
        assert wedge_of_sym_lower(x.change_ring(ring)) == image.change_ring(ring)


# ---------------------------------------------------------------------------
# each certificate against the full scan over every label


def fields(cert):
    return cert.bad, cert.nullity, cert.rank, cert.pivots, cert.odd_pivots, cert.odd_images


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_the_schur_certificate_matches_the_full_scan(shape):
    for m in (1, 2, 3, 4):
        assert fields(certificate(SCHUR, shape, m)) == fields(full_scan(shape, m)), m


LOCAL_SCAN_CASES = (
    [(shape, m) for shape in SHAPES for m in (1, 2, 3)]
    + [(shape, 4) for shape in partitions_up_to(3)]
    + [(shape, 4) for shape in SHAPES if sum(shape) > 3 and len(shape) > 2]
)


@pytest.mark.parametrize("shape, m", LOCAL_SCAN_CASES, ids=str)
def test_the_two_row_scan_matches_the_full_snake_scan(shape, m):
    assert fields(certificate(WEYL, shape, m)) == fields(full_snake_scan(shape, m))


# ---------------------------------------------------------------------------
# a shape with three or more lines read off the packed blocks of its two-line shapes


def test_every_pivot_and_snake_of_a_label_is_one_of_two_adjacent_rows():
    # The premises of part 5 of the certificate in weylkit.verify, on every
    # row-sorted label that is not semistandard: its pivot is the pivot of
    # the two-row label on its first rows that are not column-strict, and
    # the snakes on rows i and i+1 are the snakes of (λ_i, λ_{i+1}).
    labels = 0
    for shape in partitions_up_to(6):
        for i in range(1, len(shape)):
            on_row_i = [(1, j, jp) for row, j, jp in weyl.snake_labels(shape) if row == i]
            assert on_row_i == list(weyl.snake_labels(shape[i - 1 : i + 1])), (shape, i)
        for m in (1, 2, 3):
            for t in enumerate_tableaux(shape, m, ROW_SEMISTANDARD):
                if t.is_semistandard:
                    continue
                i = next(i for i in range(1, len(shape)) if not T(t.rows[i - 1 : i + 1]).is_semistandard)
                two_rows = T(t.rows[i - 1 : i + 1])
                pivot = weyl._two_row_pivot(*two_rows.rows)
                assert weyl._snake_pivot(t.rows) == (i, *pivot), t
                assert weyl._snake_pivot(two_rows.rows) == (1, *pivot), t
                labels += 1
    assert labels > 1000


def test_every_pivot_and_garnir_label_of_a_label_is_one_of_two_columns():
    # The premises of part 5 of the certificate in weylkit.verify on the
    # Schur side: the Garnir labels on columns a < b are those of the
    # two-column shape with columns (c_a, c_b), moved onto a and b; and on
    # every column-standard label that is not semistandard, the pivot is
    # the pivot of the two-column label on columns j and j+1, j the first
    # descent of the first row with one, moved onto those columns.
    labels = 0
    for shape in partitions_up_to(6):
        lengths = conjugate(shape)
        moved = []
        for a, b in combinations(range(1, len(lengths) + 1), 2):
            two_columns = conjugate((lengths[a - 1], lengths[b - 1]))
            for box_a, box_b in schur.garnir_labels(two_columns):
                moved.append((frozenset((i, a) for i, _ in box_a), frozenset((i, b) for i, _ in box_b)))
        assert moved == list(schur.garnir_labels(shape)), shape
        for m in (1, 2, 3):
            for t in enumerate_tableaux(shape, m, COLUMN_STANDARD):
                if t.is_semistandard:
                    continue
                i, row = next((i, row) for i, row in enumerate(t.rows, 1) if any(x > y for x, y in zip(row, row[1:])))
                j = next(j for j in range(1, len(row)) if row[j - 1] > row[j])
                pivot = schur._garnir_pivot(t.columns)
                assert pivot == (
                    frozenset((r, j) for r in range(i, lengths[j - 1] + 1)),
                    frozenset((r, j + 1) for r in range(1, i + 1)),
                ), t
                two_columns = T(T(t.columns[j - 1 : j + 1]).columns)
                assert not two_columns.is_semistandard, t
                box_a, box_b = schur._garnir_pivot(two_columns.columns)
                assert pivot == (frozenset((r, j) for r, _ in box_a), frozenset((r, j + 1) for r, _ in box_b)), t
                labels += 1
    assert labels > 1000


def _doubled_pivot_on_columns_two_and_three(original):
    # [[1,2,1],[2,3]] has its first row descent on columns 2 and 3; its
    # pivot is the pivot of [[2,1],[3]] moved onto them.  Doubling both
    # keeps the relation its two-column relation put back, and gives both
    # lead 2.
    t, two_columns = T([[1, 2, 1], [2, 3]]), T([[2, 1], [3]])
    targets = (
        (t.columns, frozenset({(1, 2), (2, 2)}), frozenset({(1, 3)})),
        (two_columns.columns, frozenset({(1, 1), (2, 1)}), frozenset({(1, 2)})),
    )
    return lambda *args: {u: 2 * c for u, c in original(*args).items()} if args in targets else original(*args)


def _broken_on_columns_one_and_three(original):
    # The relation with A all of column 1 and B column 3 on [[1,1,4],[2,2],[3]]
    # is the one on [[1,4],[2],[3]], a label of (2, 1, 1), the shape of
    # columns 1 and 3 of (3, 2, 1) and of no two adjacent columns.  Adding
    # each label to its relation keeps one the other put back, and takes
    # both out of the kernel.
    t, two_columns = T([[1, 1, 4], [2, 2], [3]]), T([[1, 4], [2], [3]])
    box_a = frozenset({(1, 1), (2, 1), (3, 1)})
    targets = {
        (t.columns, box_a, frozenset({(1, 3)})): t.columns,
        (two_columns.columns, box_a, frozenset({(1, 2)})): two_columns.columns,
    }

    def broken(*args):
        rel = original(*args)
        return {**rel, targets[args]: rel.get(targets[args], 0) + 1} if args in targets else rel

    return broken


THREE_COLUMN_MUTANTS = {
    # (the mutant of _garnir_int, the instance, the two-column shape it leaves unclean, the failing check,
    #  the label it names and its (A, B))
    "doubled_pivot_on_columns_two_and_three": (
        _doubled_pivot_on_columns_two_and_three, ((3, 2), 3), (2, 1), "garnir_lattice_is_direct_summand",
        T([[1, 2, 1], [2, 3]]), ([[1, 2], [2, 2]], [[1, 3]]),
    ),
    "broken_on_columns_one_and_three": (
        _broken_on_columns_one_and_three, ((3, 2, 1), 4), (2, 1, 1), "garnir_relations_map_to_zero",
        T([[1, 1, 4], [2, 2], [3]]), ([[1, 1], [2, 1], [3, 1]], [[1, 3]]),
    ),
}


@pytest.mark.parametrize("mutant", sorted(THREE_COLUMN_MUTANTS))
def test_a_three_column_certificate_with_a_pair_that_is_not_clean_is_the_full_scan(mutant, monkeypatch):
    """Negative controls of part 5 on the Schur side.

    The doubled pivot leaves the certificate of (2, 1), the shape of
    columns 2 and 3 of (3, 2), with an odd pivot; the broken relation
    leaves that of (2, 1, 1), the shape of columns 1 and 3 of (3, 2, 1)
    only, with a relation outside the kernel.  Either way the shape is
    scanned, gets the full scan's fields and names the label.
    """
    mutate, (shape, m), pair_shape, check_name, t, (box_a, box_b) = THREE_COLUMN_MUTANTS[mutant]
    monkeypatch.setattr(schur, "_garnir_int", mutate(schur._garnir_int))
    assert fields(certificate(SCHUR, shape, m)) == fields(full_scan(shape, m)) == fields(schur_scan(shape, m))
    assert certificate.cache_info().currsize == 1  # a failing block sends the shape to the scan, and no other
    pair = certificate(SCHUR, pair_shape, m)
    assert pair.bad is not None or pair.odd_pivots
    report = schur.verify_schur_ses(shape, m, ZZ, size_cap=None, entry_cap=None)
    failed = {c["name"]: c["counterexample"] for c in report["checks"] if not c["ok"]}
    assert list(failed) == [check_name]
    example = failed[check_name]
    assert (example["tableau"], example["boxA"], example["boxB"]) == (t.to_json(), {"boxes": box_a}, {"boxes": box_b})
    # over Q a lead of 2 is a unit, but a relation outside the kernel still fails
    assert schur.verify_schur_ses(shape, m, QQ, size_cap=None, entry_cap=None)["ok"] == (pair.bad is None)


def test_a_cold_three_column_certificate_builds_only_two_column_relations(monkeypatch):
    calls = {"_garnir_int": [], "_garnir_pivot": []}

    def recording(name, original):
        return lambda first, *rest: calls[name].append(first) or original(first, *rest)

    for name in calls:
        monkeypatch.setattr(schur, name, recording(name, getattr(schur, name)))
    cert = certificate(SCHUR, (3, 2, 1), 3)
    assert cert.bad is None and cert.pivots == cert.nullity > 0
    assert calls["_garnir_int"] and calls["_garnir_pivot"]
    assert {len(columns) for columns in calls["_garnir_int"]} == {2}
    assert {len(columns) for columns in calls["_garnir_pivot"]} == {2}
    # (3, 2, 1) alone, pushed forward from the packed blocks at k = 1, 2, 3
    # of itself and of the shapes of its column pairs: (2, 2, 1), (2, 1, 1)
    # and (2, 1)
    info, blocks = certificate.cache_info(), verify._packed_block.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
    assert (blocks.hits, blocks.misses, blocks.currsize) == (0, 12, 12)


def packed_rows(rows):
    """The packed label that ``rows`` push forward from: their distinct entries renumbered 1, 2, ... in order."""
    values = {v: i for i, v in enumerate(sorted(set(chain.from_iterable(rows))), 1)}
    return tuple(tuple(values[v] for v in row) for row in rows)


def _doubled_pivot_on_rows_two_and_three(original):
    # [[1,2],[2,3],[2]] is column-strict on rows 1-2; its pivot (2, 1, 1)
    # is local to the pivot (1, 1, 1) of [[2,3],[2]], which is [[1,2],[1]]
    # pushed forward.  Doubling both on every pushforward of these packed
    # labels keeps the snake its two-row snake put back, gives both lead 2,
    # and commutes with every order-preserving relabelling, as part 6 of
    # the certificate needs.
    t, two_rows = T([[1, 2], [2, 3], [2]]), T([[1, 2], [1]])
    targets = (
        (t.rows, frozenset({(2, 1), (2, 2)}), frozenset({(3, 1)})),
        (two_rows.rows, frozenset({(1, 1), (1, 2)}), frozenset({(2, 1)})),
    )

    def doubled(rows, box_a, box_b):
        rel = original(rows, box_a, box_b)
        return {u: 2 * c for u, c in rel.items()} if (packed_rows(rows), box_a, box_b) in targets else rel

    return doubled


def _doubled(original):
    return lambda rows: {u: 2 * c for u, c in original(rows).items()}


def _scaled_by_rows_with_a_repeat(original):
    # 2 to the number of rows with a repeated entry: a product over the
    # rows, so it still splits as part 4 needs, but the snakes no longer
    # map to zero
    def scaled(rows):
        factor = 2 ** sum(len(set(row)) < len(row) for row in rows)
        return {u: factor * c for u, c in original(rows).items()}

    return scaled


THREE_ROW_MUTANTS = {
    "dual_garnir_doubled_pivot": ("_dual_garnir_int", _doubled_pivot_on_rows_two_and_three),
    "wedge_doubled": ("_wedge_of_rsym_int", _doubled),
    "wedge_scaled_by_repeats": ("_wedge_of_rsym_int", _scaled_by_rows_with_a_repeat),
}


@pytest.mark.parametrize("mutant", sorted(THREE_ROW_MUTANTS))
def test_a_three_row_certificate_matches_the_full_snake_scan_under_a_mutant(mutant, monkeypatch):
    """Negative controls of part 5: the reduction and the full scan must agree under each mutant.

    Doubling a pivot on rows 2-3 leaves the two-row certificate of (2, 1)
    with an odd pivot, so (2, 2, 1) is scanned and names its label.
    Doubling every copolytabloid leaves the relations and pivots of the
    two-row certificates clean but fails every block on its images, so
    (2, 2, 1) is scanned and names its odd images.
    Scaling by the rows with a repeat breaks the snakes of (2, 1) and
    (2, 2, 1) alike.

    The full scan also catches a ``_snake_pivot`` that returns (i, j', j')
    in place of (i, j, j') when i >= 2 and j < j': on (2, 2, 2) at m = 3
    it reports 11 odd pivots.  The reduction never asks a shape with three
    or more rows for its pivots, so it would not; that class is now
    guarded by ``test_every_pivot_and_snake_of_a_label_is_one_of_two_adjacent_rows``.
    """
    name, mutate = THREE_ROW_MUTANTS[mutant]
    monkeypatch.setattr(weyl, name, mutate(getattr(weyl, name)))
    shape, m = (2, 2, 1), 3
    cert = certificate(WEYL, shape, m)
    assert fields(cert) == fields(full_snake_scan(shape, m))
    assert certificate.cache_info().currsize == 1  # a failing block sends the shape to the scan, and no other
    pair = certificate(WEYL, (2, 1), m)
    if mutant == "dual_garnir_doubled_pivot":
        assert pair.bad is None and pair.odd_pivots
        report = weyl.verify_weyl_kernel(shape, m, ZZ)
        failed = {c["name"]: c["counterexample"] for c in report["checks"] if not c["ok"]}
        assert list(failed) == ["snake_lattice_is_direct_summand"]
        example = failed["snake_lattice_is_direct_summand"]
        assert (example["tableau"], example["row"], example["cols"]) == (T([[1, 2], [2, 3], [2]]).to_json(), 2, [1, 1])
        assert weyl.verify_weyl_kernel(shape, m, QQ)["ok"]
    elif mutant == "wedge_doubled":
        assert pair.bad is None and not pair.odd_pivots
        assert len(cert.odd_images) == cert.rank > 0
    else:
        assert pair.bad is not None and cert.bad is not None


def test_a_three_row_certificate_builds_no_snake_once_its_two_row_shapes_are_cached(monkeypatch):
    certificate(WEYL, (2, 2), 3)
    certificate(WEYL, (2, 1), 3)
    calls = []

    def counting(name, original):
        return lambda *args: calls.append(name) or original(*args)

    for name in ("_dual_garnir_int", "_snake_pivot"):
        monkeypatch.setattr(weyl, name, counting(name, getattr(weyl, name)))
    cert = certificate(WEYL, (2, 2, 1), 3)
    assert calls == []
    assert cert.bad is None and cert.pivots == cert.nullity
    # (2, 2, 1) reads the packed blocks at k = 1, 2, 3 of its two-row
    # shapes, which their certificates built, and builds its own three
    info, blocks = certificate.cache_info(), verify._packed_block.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 3, 3)
    assert (blocks.hits, blocks.misses, blocks.currsize) == (6, 9, 9)


SIZE_SIX = tuple(shape for shape in partitions_up_to(6) if sum(shape) == 6)


@pytest.mark.parametrize("shape", SIZE_SIX, ids=str)
def test_both_local_scans_match_the_full_scans_at_size_six(shape):
    assert fields(certificate(SCHUR, shape, 3)) == fields(full_scan(shape, 3))
    assert fields(certificate(WEYL, shape, 3)) == fields(full_snake_scan(shape, 3))


@pytest.mark.parametrize("shape, m", LOCAL_SCAN_CASES + [(shape, 3) for shape in SIZE_SIX], ids=str)
def test_the_line_scans_match_the_tableau_scans(shape, m):
    assert fields(certificate(SCHUR, shape, m)) == fields(schur_scan(shape, m))
    assert fields(certificate(WEYL, shape, m)) == fields(weyl_scan(shape, m))
    assert fields(full_scan(shape, m)) == fields(schur_scan(shape, m))
    assert fields(full_snake_scan(shape, m)) == fields(weyl_scan(shape, m))


def both_theorems_hold_over_z_with_a_direct_summand_at_size_six(m):
    assert len(SIZE_SIX) == 11
    for shape in SIZE_SIX:
        for verify, lattice in (
            (schur.verify_schur_ses, "garnir_lattice_is_direct_summand"),
            (weyl.verify_weyl_kernel, "snake_lattice_is_direct_summand"),
        ):
            report = verify(shape, m, ZZ, size_cap=None, entry_cap=None)
            assert report["ok"], (shape, verify.__name__)
            assert lattice in [c["name"] for c in report["checks"]], (shape, verify.__name__)
            assert report["dims"]["ssyt"] == count_tableaux(shape, m, SEMISTANDARD), (shape, verify.__name__)


def test_both_kernel_theorems_hold_over_z_with_a_direct_summand_at_size_six():
    both_theorems_hold_over_z_with_a_direct_summand_at_size_six(3)


def test_both_kernel_theorems_hold_over_z_on_every_shape_of_size_six_at_m_six():
    # every packed block of a shape of size 6 runs, k = 1..6, where m = 3 stops at k = 3
    both_theorems_hold_over_z_with_a_direct_summand_at_size_six(6)


# ---------------------------------------------------------------------------
# the Side docstring lists its fields by hand


def undocumented_and_stale_fields(doc):
    """(the fields of ``Side`` that ``doc`` never names, the names in ``doc`` that are no field and no known name).

    A field is named in double backquotes, alone or called: ``rows`` or
    ``pairs(shape)``.  The other names the docstring may quote are the
    dataclass option ``eq`` and the two halves of ``relations``.
    """
    named = set(re.findall(r"``([A-Za-z_]\w*)", doc))
    fields_of_side = {f.name for f in dataclasses.fields(verify.Side)}
    return fields_of_side - named, named - fields_of_side - {"eq", "relation_labels", "relation"}


def test_the_side_docstring_names_every_field_and_no_other():
    doc = verify.Side.__doc__
    assert undocumented_and_stale_fields(doc) == (set(), set())
    # a removed field left in the docstring, and a field it drops, are both caught
    assert undocumented_and_stale_fields(doc + "``scan_labels(shape, m)``") == (set(), {"scan_labels"})
    assert undocumented_and_stale_fields(doc.replace("``pairs(shape)``", "pairs")) == ({"pairs"}, set())


# ---------------------------------------------------------------------------
# the scan walks each label as its own lines


@pytest.mark.parametrize("shape", ((), *SHAPES), ids=str)
def test_the_scanned_lines_are_those_of_the_tableau_enumerators_in_order(shape):
    for m in (1, 2, 3):
        assert verify._scan_lines(SCHUR, shape, m) == [t.columns for t in column_sorted_labels(shape, m)], m
        assert verify._scan_lines(WEYL, shape, m) == [t.rows for t in enumerate_tableaux(shape, m, ROW_SEMISTANDARD)], m


def test_the_garnir_pivot_on_columns_is_the_pivot_on_the_tableau():
    pivots = 0
    for shape in SHAPES:
        for m in (1, 2, 3, 4):
            for t in column_sorted_labels(shape, m):
                pivot = schur._garnir_pivot(t.columns)
                assert pivot == tableau_garnir_pivot(t), t
                pivots += pivot is not None
    assert pivots > 1000


def test_a_scan_builds_no_tableau(monkeypatch):
    def refuse(*args):
        raise AssertionError("the scan built a tableau")

    cases = [(side, shape, m) for side in (SCHUR, WEYL) for shape in SHAPES for m in (1, 2, 3)]
    for _, shape, m in cases:
        enumerate_tableaux(shape, m, SEMISTANDARD)  # the semistandard labels of part 3, enumerated once
    monkeypatch.setattr(Tableau, "__init__", refuse)
    monkeypatch.setattr(Tableau, "_fresh", refuse)
    for side, shape, m in cases:
        cert = verify.scan(side, shape, m)
        assert cert.bad is None and cert.pivots == cert.nullity, (side.command, shape, m)


def test_a_certificate_builds_only_the_labels_its_report_names(monkeypatch):
    built = []
    original = verify._label
    monkeypatch.setattr(verify, "_label", lambda side, shape, lines: built.append(lines) or original(side, shape, lines))
    for shape in SHAPES:
        for m in (1, 2, 3):
            assert schur.verify_schur_ses(shape, m, ZZ)["ok"] and weyl.verify_weyl_kernel(shape, m, ZZ)["ok"]
    assert built == []
    # garnir_plus_two of tests/failing_reports.json: one relation leaves the kernel
    certificate.cache_clear()
    verify._packed_block.cache_clear()
    builder, target, _, _, label, (shape, m), check_name = MUTATIONS["schur"]
    monkeypatch.setattr(schur, builder, plus_a_label(getattr(schur, builder), target, label.columns, 2))
    report = schur.verify_schur_ses(shape, m, ZZ)
    named = next(c for c in report["checks"] if c["name"] == check_name)["counterexample"]["tableau"]
    assert built and set(built) == {Tableau.from_json(named).columns}


# ---------------------------------------------------------------------------
# relabelling: Garnir relations and the polytabloid map commute with S_m


@st.composite
def transposed_labels(draw, labels_of):
    """A shape, labels of it from ``labels_of(shape, m)``, and an adjacent transposition of 1..m."""
    shape = draw(st.sampled_from(SHAPES))
    m = draw(st.integers(2, 4))
    return shape, labels_of(shape, m), adjacent_transposition(m, draw(st.integers(1, m - 1)))


@settings(max_examples=80, deadline=None)
@given(transposed_labels(column_sorted_labels), st.data())
def test_garnir_relations_and_zero_rules_commute_with_an_adjacent_transposition(drawn, data):
    shape, labels, swap = drawn
    boxes = list(schur.garnir_labels(shape))
    assume(boxes)
    t = data.draw(st.sampled_from(labels))
    box_a, box_b = data.draw(st.sampled_from(boxes))
    # s_i t, its columns sorted again, is a scanned label; A and B follow their entries
    u, moved = sort_columns_tracking_boxes(relabel(t, swap))
    moved_a, moved_b = frozenset(map(moved.get, box_a)), frozenset(map(moved.get, box_b))
    image = relabel_columns(schur.garnir(t, box_a, box_b).element.lin, swap)
    image_of_u = schur.garnir(u, moved_a, moved_b).element.lin
    assert image in (image_of_u, -image_of_u)
    kept = schur._relation_labels(shape)
    assert ((box_a, box_b) in kept(t.columns)) == ((moved_a, moved_b) in kept(u.columns))


@settings(max_examples=80, deadline=None)
@given(transposed_labels(lambda shape, m: enumerate_tableaux(shape, m, COLUMN_STANDARD)), st.data())
def test_polytabloid_map_commutes_with_an_adjacent_transposition(drawn, data):
    _, labels, swap = drawn
    assume(labels)
    x = _integral_element(data, ColumnTabloidElement, labels)
    relabelled = ColumnTabloidElement(relabel_columns(x.lin, swap))
    image = schur.apply_polytabloid_map(x).lin
    assert schur.apply_polytabloid_map(relabelled).lin == relabel_rows(image, swap)


def test_an_image_that_is_not_unitriangular_is_named(monkeypatch):
    # Doubling every copolytabloid keeps its leading coefficient a unit
    # except modulo 2, where the rank is no longer proved.
    original = weyl._wedge_of_rsym_int
    monkeypatch.setattr(weyl, "_wedge_of_rsym_int", lambda rows: {u: 2 * c for u, c in original(rows).items()})
    assert weyl.verify_weyl_kernel((2, 1), 2, QQ)["ok"]
    report = weyl.verify_weyl_kernel((2, 1), 2, integers_mod(2))
    failed = {c["name"]: c["counterexample"] for c in report["checks"] if not c["ok"]}
    assert set(failed) == {"projection_rank_is_ssyt_count", "snake_span_rank_is_nullity"}
    assert failed["projection_rank_is_ssyt_count"]["tableau"] == T([[1, 1], [2]]).to_json()
    assert failed["projection_rank_is_ssyt_count"]["image"] == weyl.copolytabloid(T([[1, 1], [2]])).to_json()
    assert fields(certificate(WEYL, (2, 1), 2)) == fields(weyl_scan((2, 1), 2))
    assert (report["ranks"]["projection"], report["ranks"]["snake_span"]) == (None, None)


def test_a_label_without_its_pivot_relation_is_named(monkeypatch):
    # A pivot label that is no Garnir label leaves [[2,1],[3]] without a pivot.
    t, original = T([[2, 1], [3]]), schur._garnir_pivot
    monkeypatch.setattr(schur, "_garnir_pivot", lambda u: ("no", "label") if u == t.columns else original(u))
    for ring in (QQ, ZZ):
        report = schur.verify_schur_ses((2, 1), 3, ring)
        failed = {c["name"]: c["counterexample"] for c in report["checks"] if not c["ok"]}
        assert "rank_sum_matches_wedge_dim" in failed
        assert failed["rank_sum_matches_wedge_dim"] == {"tableau": t.to_json()}
        assert report["ranks"]["garnir_span"] is None


def test_a_dropped_pivot_on_three_columns_fails_the_full_scan_on_every_ring(monkeypatch):
    # The packed blocks of (3,) read their pivots off the clean blocks of
    # (2,), so its report passes and only the full scan asks [[2,1,1]] for
    # its pivot; the report read off that scan names the label on every
    # ring.  That a pivot on three columns is one on two is
    # test_every_pivot_and_garnir_label_of_a_label_is_one_of_two_columns
    t, original = T([[2, 1, 1]]), schur._garnir_pivot
    monkeypatch.setattr(schur, "_garnir_pivot", lambda u: ("no", "label") if u == t.columns else original(u))
    assert fields(full_scan((3,), 3)) == fields(schur_scan((3,), 3))
    assert schur.verify_schur_ses((3,), 3, ZZ)["ok"]
    monkeypatch.setattr(verify, "certificate", lambda side, shape, m: verify.scan(side, shape, m))
    for ring in (QQ, ZZ):
        report = schur.verify_schur_ses((3,), 3, ring)
        failed = {c["name"]: c["counterexample"] for c in report["checks"] if not c["ok"]}
        assert failed["rank_sum_matches_wedge_dim"] == {"tableau": t.to_json()}
        assert (report["ranks"]["polytabloid_map"], report["ranks"]["garnir_span"]) == (report["dims"]["ssyt"], None)
