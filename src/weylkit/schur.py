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
either in the same JSON shape.  ``verify_schur_ses`` checks the kernel
description on one instance with the integer certificate of
:mod:`weylkit.verify`, over the column-sorted labels of one weight per
S_m-orbit, built once per (shape, max_entry) and shared by every ring.

A Garnir relation on (t, A, B) is zero when t repeats an entry v on
A | B: swapping the two boxes that hold v is a sign-reversing involution
on the coset terms.  A term with both copies of v in one column vanishes
in the exterior power, and a term with one copy in A's column and one in
B's meets its partner, the same column tabloid with the opposite sign.
The certificate skips those relations, and never a pivot, whose label is
column standard.  It decides each other relation on its two columns (part
5 of the certificate in :mod:`weylkit.verify`): the relation on (t, A, B)
is the one on columns j_A and j_B of t, A and B moved onto columns 1 and
2, with t's other columns put back in every term and projected to the
exterior power.

Polytabloids are expanded one column at a time by the kernel
``powers.line_products``, not alternating, which this module reads but
does not define.  ``_polytabloid_int`` keeps the expansion of each label's
columns as ``{rows: int}``, and ``_garnir_int`` a Garnir relation on a
label's columns as ``{columns: int}``; a tableau is built only for a
public element or a counterexample, and the map on an element labels
only the nonzero part of its sum.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import cache
from itertools import combinations
from math import factorial, prod

from .coeffs import ZZ, CoefficientRing
from .places import Relation, check_line_label, shuffles, stabilizer_order
from .tableaux import (
    COLUMN_STANDARD,
    ROW_SEMISTANDARD,
    SEMISTANDARD,
    Tableau,
    check_partition,
    conjugate,
    count_tableaux,
    enumerate_tableaux,
    sort_line,
    transpose,
)
from .powers import ColumnTabloidElement, RowTabloidElement, line_products, sum_images
from .verify import SizeCapExceeded as SizeCapExceeded  # the name's old home, kept importable
from .verify import KernelCertificate, check, checked_shape, kernel_certificate, report


@cache
def _polytabloid_int(columns: tuple[tuple[int, ...], ...]) -> dict:
    """The polytabloid of the label with these columns, as ``{rows: int}``; empty on a repeated column entry."""
    sorted_cols = [sort_line(col) for col in columns]
    if None in sorted_cols:
        return {}
    images = [((col,), (sign,)) for sign, col in sorted_cols]
    return line_products(len(columns[0]) if columns else 0, images, alternating=False)


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


def _garnir_pivot(t: Tableau) -> tuple[frozenset, frozenset] | None:
    """Box sets (A, B) that straighten the first row descent t(i, j) > t(i, j+1).

    A runs down column j from row i and B down column j+1 to row i.  For a
    column-standard t every entry of A exceeds every entry of B, so the
    identity coset term is t with coefficient +1, and every other term moves
    a larger entry out of column j and lands strictly below t in the column
    order.  None when t is not column standard or has no row descent.
    """
    if not t.is_column_standard:
        return None
    for i, row in enumerate(t.rows, 1):
        for j in range(1, len(row)):
            if row[j - 1] > row[j]:
                col_len = conjugate(t.shape)[j - 1]
                box_a = frozenset((r, j) for r in range(i, col_len + 1))
                box_b = frozenset((r, j + 1) for r in range(1, i + 1))
                return box_a, box_b
    return None


def _content(t: Tableau, max_entry: int) -> tuple[int, ...]:
    """The weight of t: how often it holds each of 1, ..., max_entry."""
    counts = Counter(t.reading_word)
    return tuple(counts[v] for v in range(1, max_entry + 1))


def _is_dominant(weight: tuple[int, ...]) -> bool:
    return all(a >= b for a, b in zip(weight, weight[1:]))


def _relation_labels(shape: tuple[int, ...]):
    """The function giving the (A, B) on which a label t repeats no entry: those the zero rule keeps."""
    boxsets = list(garnir_labels(shape))
    return lambda t: [(a, b) for a, b in boxsets if not _repeats_an_entry(t.rows, a | b)]


def _local_garnir(columns: tuple, boxes: tuple[frozenset, frozenset]):
    """The two-column relation the one on (t, A, B) is local to: t's columns j_A and j_B, A and B moved onto 1 and 2."""
    box_a, box_b = boxes
    cols = (columns[next(iter(box_a))[1] - 1], columns[next(iter(box_b))[1] - 1])
    return cols, (frozenset((i, 1) for i, _ in box_a), frozenset((i, 2) for i, _ in box_b))


def _garnir_scan(shape: tuple[int, ...], max_entry: int, labels, orbit_size, local) -> KernelCertificate:
    """The certificate on the Garnir relations of the column-sorted ``labels``, decided on ``local`` relations.

    The relations on each label less the zero ones of the module docstring;
    pivots on the first row descent (:func:`_garnir_pivot`), each counted
    ``orbit_size(t)`` times; and the semistandard polytabloids, whose every
    other row tabloid is above their own in the row order.
    """
    return kernel_certificate(
        labels=labels,
        relation_labels=_relation_labels(shape),
        relation=lambda columns, boxes: _garnir_int(columns, *boxes),
        kernel_image=_polytabloid_int,
        rows=False,
        pivot=_garnir_pivot,
        max_entry=max_entry,
        dimension=count_tableaux(shape, max_entry, COLUMN_STANDARD),
        semistandard=enumerate_tableaux(shape, max_entry, SEMISTANDARD),
        build=lambda t, boxes: garnir(t, *boxes),
        image=polytabloid,
        local=local,
        orbit_size=orbit_size,
    )


@cache
def _certificate(shape: tuple[int, ...], max_entry: int) -> KernelCertificate:
    """The integer certificate of the Schur side, shared by every ring.

    Garnir relations commute with relabelling the entries by S_m up to
    sign, and so does the polytabloid map; the zero rule depends only on
    which entries are equal.  So the scan covers only the column-sorted
    labels whose content weakly decreases, one weight per S_m-orbit, and
    counts each pivot with the size of its weight's orbit (part 4 of the
    certificate in :mod:`weylkit.verify`).  Each relation is decided on
    its two columns (part 5), and built only when those do not decide it.
    """
    column_sorted = [transpose(u) for u in enumerate_tableaux(conjugate(shape), max_entry, ROW_SEMISTANDARD)]
    dominant = [t for t in column_sorted if _is_dominant(_content(t, max_entry))]
    group_order = factorial(max_entry)
    return _garnir_scan(
        shape, max_entry, dominant, lambda t: group_order // stabilizer_order(_content(t, max_entry)), _local_garnir
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
    shape = checked_shape(shape, max_entry, ring, size_cap, entry_cap)
    started = time.perf_counter()
    cert = _certificate(shape, max_entry)
    rank_image, span = cert.ranks(ring)
    checks = [check("garnir_relations_map_to_zero", cert.bad is None, cert.membership_failure)]
    ranks = {"polytabloid_map": rank_image, "garnir_span": span}
    if cert.bad is None:
        checks.append(check("image_rank_is_ssyt_count", rank_image is not None, cert.image_failure(ring)))
        checks.append(check("rank_sum_matches_wedge_dim", span is not None, cert.pivot_failure(ring)))
        if ring.kind == "z":
            ranks["garnir_certificate"] = {"pivots": cert.pivots}
            checks.append(check("garnir_lattice_is_direct_summand", cert.direct_summand, cert.lattice_failure))
    instance = {"shape": list(shape), "entries": max_entry, "ring": ring.tag}
    dim = cert.rank + cert.nullity
    dims = {"csyt": dim, "ssyt": cert.rank, "wedge_dim": dim}
    return report("schur-verify", instance, dims, checks, started, ranks)
