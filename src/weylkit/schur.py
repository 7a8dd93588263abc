"""Polytabloids, Garnir relations, and the exact sequence they generate.

The polytabloid of a tableau is the signed sum of row tabloids over all
column rearrangements; it vanishes when a column repeats an entry.  Linear
extension of ``column tabloid -> polytabloid`` is a well-defined surjection
whose kernel is spanned by the Garnir relations: signed sums over coset
representatives mixing a column subset A with a later-column subset B once
|A| + |B| exceeds the length of A's column.  This is the Weyl side of
:mod:`weylkit.weyl` read along columns instead of rows: the labels, the
label check and the kernel check are the transposes of the dual Garnir
ones, and both kinds of relation are one :class:`~weylkit.places.Relation`
record (``SchurRelation`` is its old name here), so a failed check reports
either in the same JSON shape.  ``SCHUR`` is this side's
:class:`~weylkit.verify.Side`, the data from which :mod:`weylkit.verify`
builds the certificate and the report of ``verify_schur_ses``.

A Garnir relation on (t, A, B) is zero when t repeats an entry v on
A | B: swapping the two boxes that hold v is a sign-reversing involution
on the coset terms.  A term with both copies of v in one column vanishes
in the exterior power, and a term with one copy in A's column and one in
B's meets its partner, the same column tabloid with the opposite sign.
The scan skips those relations (``_relation_labels``), and never a pivot,
whose label is column standard; like the pivot (``_garnir_pivot``), the
zero rule reads only the label's columns, the lines the scan walks.  A
Garnir relation is local to its two columns (part 4 of the certificate
in :mod:`weylkit.verify`): the relation on (t, A, B) is the one on
columns j_A and j_B of t, A and B moved onto columns 1 and 2, with t's
other columns put back in every term and projected to the exterior
power.  So the two-line shapes of part 5 are those of every pair of
columns.

Polytabloids are expanded one column at a time by the kernel
``powers.line_products``, not alternating, which this module reads but
does not define.  ``_polytabloid_int`` keeps the expansion of each label's
columns as ``{rows: int}``; on a column-standard label with two or more
columns it folds the last column into the cached expansion of the label
without it, and every other label it folds whole.  ``_garnir_int``
keeps a Garnir relation on a label's columns as ``{columns: int}``; a
tableau is built only for a public element or a counterexample, and the
map on an element labels only the nonzero part of its sum.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import prod

from .coeffs import ZZ, CoefficientRing
from .places import Relation, check_line_label, shuffles
from .tableaux import COLUMN_STANDARD, Tableau, check_partition, conjugate, sort_line
from .powers import ColumnTabloidElement, RowTabloidElement, line_products, sum_images
from .verify import Side, verify


@cache
def _polytabloid_int(columns: tuple[tuple[int, ...], ...]) -> dict:
    """The polytabloid of the label with these columns, as ``{rows: int}``; empty on a repeated column entry.

    A label with two or more columns, all strictly increasing, folds its
    last column, at sign +1, into the cached polytabloid of the label
    without it, a basis label of a smaller shape; any other label is folded
    from empty rows, one per entry of its first column.
    """
    if len(columns) > 1 and all(a < b for col in columns for a, b in zip(col, col[1:])):
        return line_products(_polytabloid_int(columns[:-1]), [((columns[-1],), (1,))], alternating=False)
    sorted_cols = [sort_line(col) for col in columns]
    if None in sorted_cols:
        return {}
    images = [((col,), (sign,)) for sign, col in sorted_cols]
    return line_products({((),) * len(columns[0]) if columns else (): 1}, images, alternating=False)


def polytabloid(t: Tableau, ring: CoefficientRing = ZZ) -> RowTabloidElement:
    """Signed column-orbit sum of row tabloids; zero on repeated column entries."""
    return RowTabloidElement._on_lines(ring, t.shape, _polytabloid_int(t.columns))


def apply_polytabloid_map(x: ColumnTabloidElement) -> RowTabloidElement:
    """Linear extension of column tabloid -> polytabloid."""
    terms = sum_images(((t.columns, c) for t, c in x.lin.unordered_items()), _polytabloid_int, {})
    return RowTabloidElement._on_lines(x.ring, x.shape, terms)


SchurRelation = Relation  # the record's old name, kept importable


def _repeats_an_entry(lines: tuple, boxes) -> bool:
    """Whether two boxes (k, p), entry p of line k, hold equal entries: on A | B, the zero rule."""
    values = [lines[k - 1][p - 1] for k, p in boxes]
    return len(set(values)) < len(values)


@cache
def _garnir_int(columns: tuple[tuple[int, ...], ...], box_a: frozenset, box_b: frozenset) -> dict:
    """The Garnir relation on (t, A, B) over Z, t given by its columns, as ``{columns: int}``; empty on a repeat."""
    box_a, box_b = frozenset((j, i) for i, j in box_a), frozenset((j, i) for i, j in box_b)
    if _repeats_an_entry(columns, box_a | box_b):
        return {}
    terms: dict = {}
    for cols, coset_sign in shuffles(columns, box_a, box_b):
        sorted_cols = [sort_line(col) for col in cols]
        if None not in sorted_cols:
            key = tuple(col for _, col in sorted_cols)
            terms[key] = terms.get(key, 0) + coset_sign * prod(sign for sign, _ in sorted_cols)
    return {key: c for key, c in terms.items() if c}


def garnir(t: Tableau, box_a: frozenset, box_b: frozenset, ring: CoefficientRing = ZZ) -> Relation:
    """The signed coset-representative sum labelled by (t, A, B)."""
    check_line_label(t, box_a, box_b, rows=False)
    element = ColumnTabloidElement._on_lines(ring, t.shape, _garnir_int(t.columns, box_a, box_b))
    return Relation("garnir", t, box_a, box_b, element)


def garnir_labels(shape):
    """All box-set pairs (A, B) admitting a Garnir relation on the shape."""
    shape = check_partition(shape)
    col_lens = conjugate(shape)
    ncols = len(col_lens)
    for ja in range(1, ncols):
        col_a = [(i, ja) for i in range(1, col_lens[ja - 1] + 1)]
        for jb in range(ja + 1, ncols + 1):
            col_b = [(i, jb) for i in range(1, col_lens[jb - 1] + 1)]
            for na in range(1, len(col_a) + 1):
                for nb in range(1, len(col_b) + 1):
                    if na + nb <= col_lens[ja - 1]:
                        continue
                    for sub_a in combinations(col_a, na):
                        for sub_b in combinations(col_b, nb):
                            yield frozenset(sub_a), frozenset(sub_b)


def _garnir_pivot(cols: tuple) -> tuple[frozenset, frozenset] | None:
    """Box sets (A, B) that straighten the first row descent t(i, j) > t(i, j+1), t the label with columns ``cols``.

    Row i is the first row with a descent, and j the first in it.  They are
    the pivot of the two-column label on columns j and j+1 of t
    (:func:`_two_column_pivot`), moved onto those columns, so the pivot of
    t is local to a pivot of two columns (part 5 of the certificate in
    :mod:`weylkit.verify`).  None when t is not column standard or has no
    row descent.
    """
    descents = [(i, j) for j in range(1, len(cols)) for i, (a, b) in enumerate(zip(*cols[j - 1 : j + 1])) if a > b]
    if not descents or any(a >= b for col in cols for a, b in zip(col, col[1:])):
        return None
    j = min(descents)[1]
    box_a, box_b = _two_column_pivot(*cols[j - 1 : j + 1])
    return frozenset((i, j) for i, _ in box_a), frozenset((i, j + 1) for i, _ in box_b)


def _two_column_pivot(left: tuple, right: tuple) -> tuple[frozenset, frozenset]:
    """Box sets (A, B) of the pivot on two strictly increasing columns, some entry of ``left`` > the one beside it.

    A runs down column 1 from the first such row i and B down column 2 to
    row i.  Every entry of A exceeds every entry of B, so the identity
    coset term is the label itself with coefficient +1, and every other
    term moves a larger entry out of column 1 and lands strictly below it
    in the column order.
    """
    i = next(i for i in range(1, len(right) + 1) if left[i - 1] > right[i - 1])
    return frozenset((r, 1) for r in range(i, len(left) + 1)), frozenset((r, 2) for r in range(1, i + 1))


def _relation_labels(shape: tuple[int, ...]):
    """The function giving the (A, B) on which a label's columns repeat no entry: those the zero rule keeps."""
    boxsets = [(a, b, frozenset((j, i) for i, j in a | b)) for a, b in garnir_labels(shape)]
    return lambda columns: [(a, b) for a, b, on_columns in boxsets if not _repeats_an_entry(columns, on_columns)]


SCHUR = Side(
    command="schur-verify",
    rows=False,
    basis=COLUMN_STANDARD,
    pairs=lambda shape: list(dict.fromkeys(conjugate(pair) for pair in combinations(conjugate(shape), 2))),
    relations=lambda shape: (_relation_labels(shape), lambda columns, boxes: _garnir_int(columns, *boxes)),
    kernel_map=lambda: _polytabloid_int,
    pivot=lambda columns: _garnir_pivot(columns),
    build=lambda t, boxes: garnir(t, *boxes),
    image=lambda s: polytabloid(s),
    checks=(
        ("membership", "garnir_relations_map_to_zero"),
        ("image", "image_rank_is_ssyt_count"),
        ("span", "rank_sum_matches_wedge_dim"),
        ("lattice", "garnir_lattice_is_direct_summand"),
    ),
    rank_keys=("polytabloid_map", "garnir_span"),
    pivots_key="garnir_certificate",
    dims=lambda shape, m, dimension, ssyt: {"csyt": dimension, "ssyt": ssyt, "wedge_dim": dimension},
)


def verify_schur_ses(
    shape,
    max_entry: int,
    ring: CoefficientRing,
    size_cap: int | None = 5,
    entry_cap: int | None = 3,
) -> dict:
    """Check rank(Garnir span) + rank(polytabloid map) = dim of the exterior power.

    Also checks that every Garnir relation maps to zero, which combined with
    the rank identity pins the kernel exactly.  All of it is read off the
    integer certificate of :mod:`weylkit.verify`, built once per
    (shape, max_entry); over the integers the ranks are rational, and the
    relation lattice is in addition a direct summand.
    """
    return verify(SCHUR, shape, max_entry, ring, size_cap, entry_cap)
