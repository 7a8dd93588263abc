"""Copolytabloids, dual Garnir and dual snake relations, and straightening.

The copolytabloid of a tableau is the wedge projection of its row
symmetrisation.  The kernel of that projection on symmetric tensors is
spanned by the dual Garnir relations: for box sets A, B in two rows with
|A| + |B| exceeding the upper row's length, sum the row symmetrisations of
the distinct rearrangements of the entries on A | B, one term per row
class, each weighted by the index of its split row stabilizer inside its
full row stabilizer.  A class is fixed by the sub-multiset of those
entries written into A, and only the rows of A and B change; its weight
is prod_v C(n_v, a_v) over the values v in A's row, where n_v counts v in
the class's row and a_v the copies of v written into A, times the same
product for B's row.  Those weights are what make the sums land in the
kernel; the two tempting simplifications (plain coset sums, and full
row-group sums) are kept as named variants because they fail in
instructive ways.  The labels are the Garnir labels of :mod:`weylkit.schur`
transposed: rows in place of columns, and every relation here is the same
:class:`~weylkit.places.Relation` record as a Garnir relation
(``WeylRelation`` is its old name here).

Dual snake relations are the adjacent-row relations taking a right segment
of the upper row and a left segment of the lower row: each is its dual
Garnir relation with the kind and (i, j, j') added.  When the segments
are aligned with runs of equal entries, the relation has unit leading
coefficient on its own label and all other labels strictly smaller in the
row order.  ``straighten`` checks that on every snake it applies, which is
all it needs to rewrite any element into semistandard coordinates with a
certificate, and to stop.  ``WEYL`` is this side's
:class:`~weylkit.verify.Side`, the data from which :mod:`weylkit.verify`
builds the certificate and the report of ``verify_weyl_kernel``.

A dual snake is local to its two rows (part 4 of the certificate in
:mod:`weylkit.verify`): the snake (i, j, j') on t is the snake (1, j, j')
on rows i and i+1 of t, with t's other rows put back in every term.  So
the two-line shapes of part 5 are those of adjacent rows.  Like
``straighten``, the certificate reads snakes on lines from
``_dual_garnir_int``, which keeps a relation on a label's rows as
``{rows: int}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

from .coeffs import ZZ, CoefficientRing, InputError, LinComb
from .linalg import reduce_by_pivots
from .places import (
    Relation,
    check_line_label,
    class_index,
    double_coset_reps,
    row_classes,
    row_stabilizer_order,
    sab_cosets_star,
)
from .powers import ColumnTabloidElement, SymLowerElement, _wedge_of_rsym_int
from .schur import garnir_labels
from .tableaux import (
    ROW_SEMISTANDARD,
    SEMISTANDARD,
    COLUMN_STANDARD,
    Tableau,
    check_partition,
    conjugate,
    count_tableaux,
    enumerate_tableaux,
    line_order_key,
    sort_rows,
)
from .verify import Side, verify


def copolytabloid(t: Tableau, ring: CoefficientRing = ZZ) -> ColumnTabloidElement:
    """Wedge projection of the row symmetrisation of t; constant on row classes."""
    return ColumnTabloidElement._on_lines(ring, t.shape, _wedge_of_rsym_int(t.rows))


DUAL_GARNIR = "dual_garnir"
DUAL_SNAKE = "dual_snake"
STAR_VARIANT = "star"
STAR_STAR_VARIANT = "star_star"


WeylRelation = Relation  # the record's old name, kept importable


@cache
def _dual_garnir_int(rows: tuple[tuple[int, ...], ...], box_a: frozenset, box_b: frozenset) -> dict:
    """The dual Garnir relation on (t, A, B) over Z, t given by its rows, as ``{rows: int}``."""
    return {c: weight for _, _, c, weight in row_classes(rows, box_a, box_b)}


def dual_garnir(
    t: Tableau, box_a: frozenset, box_b: frozenset, ring: CoefficientRing = ZZ
) -> Relation:
    """The index-weighted row-class sum labelled by (t, A, B)."""
    check_line_label(t, box_a, box_b, rows=True)
    element = SymLowerElement._on_lines(ring, t.shape, _dual_garnir_int(t.rows, box_a, box_b))
    return Relation(DUAL_GARNIR, t, box_a, box_b, element)


def dual_garnir_double_coset(
    t: Tableau, box_a: frozenset, box_b: frozenset, ring: CoefficientRing = ZZ
) -> Relation:
    """Same element computed from brute-force double coset representatives.

    Oracle path: refuses |A| + |B| > 6.  Must agree with :func:`dual_garnir`.
    """
    members = frozenset(box_a | box_b)
    coords = {}
    for rep in double_coset_reps(t, box_a, box_b):
        u = rep.act(t)
        coords[sort_rows(u)] = class_index(u, members)
    return Relation(DUAL_GARNIR, t, box_a, box_b, SymLowerElement(LinComb(ring, coords)))


def variant_relation(
    t: Tableau,
    box_a: frozenset,
    box_b: frozenset,
    kind: str,
    ring: CoefficientRing = ZZ,
) -> Relation:
    """The two rejected alternatives to the dual Garnir relation.

    "star": one row symmetrisation per left coset representative, no
    weights.  "star_star": full row-group sums instead of symmetrisations,
    i.e. each coset term additionally scaled by its row stabilizer order.
    Neither spans the kernel -- the first fails to lie in it at all, the
    second acquires scalar factors -- but both are useful regression
    targets.
    """
    if kind not in (STAR_VARIANT, STAR_STAR_VARIANT):
        raise ValueError(f"unknown variant kind {kind!r}")
    coords: dict[Tableau, int] = {}
    for u, mult in sab_cosets_star(t, box_a, box_b):
        weight = mult if kind == STAR_VARIANT else mult * row_stabilizer_order(u)
        label = sort_rows(u)
        coords[label] = coords.get(label, 0) + weight
    return Relation(kind, t, box_a, box_b, SymLowerElement(LinComb(ring, coords)))


def snake_boxsets(shape: tuple[int, ...], i: int, j: int, jp: int) -> tuple[frozenset, frozenset]:
    """Box sets (A, B) of the snake (i, j, j') on the partition ``shape``, range-checked."""
    if not 1 <= i < len(shape):
        raise InputError("snake row index out of range")
    if not 1 <= j <= shape[i - 1]:
        raise InputError("snake start column out of range")
    if not 1 <= jp <= shape[i]:
        raise InputError("snake end column exceeds the lower row")
    if j > jp:
        raise InputError("snake columns must satisfy j <= j'")
    return _snake_boxes(shape[i - 1], i, j, jp)


def _snake_boxes(upper: int, i: int, j: int, jp: int) -> tuple[frozenset, frozenset]:
    """Box sets (A, B) of the snake (i, j, j') under an upper row of length ``upper``, unchecked."""
    return frozenset((i, r) for r in range(j, upper + 1)), frozenset((i + 1, r) for r in range(1, jp + 1))


def dual_snake(t: Tableau, i: int, j: int, jp: int, ring: CoefficientRing = ZZ) -> Relation:
    """The adjacent-row relation on a right segment of row i and a left segment of row i+1."""
    box_a, box_b = snake_boxsets(t.shape, i, j, jp)
    # (A, B) is a dual Garnir label by construction: |A| + |B| >= (λ_i - j + 1) + j > λ_i
    element = SymLowerElement._on_lines(ring, t.shape, _dual_garnir_int(t.rows, box_a, box_b))
    return Relation(DUAL_SNAKE, t, box_a, box_b, element, (i, j, jp))


def snake_labels(shape):
    """All (i, j, j') triples labelling a dual snake relation on the shape."""
    shape = check_partition(shape)
    for i in range(1, len(shape)):
        for jp in range(1, shape[i] + 1):
            for j in range(1, jp + 1):
                yield (i, j, jp)


def dual_garnir_labels(shape):
    """All box-set pairs (A, B) admitting a dual Garnir relation on the shape.

    These are the Garnir labels of the conjugate shape, transposed.
    """
    for box_a, box_b in garnir_labels(conjugate(shape)):
        yield frozenset((j, i) for i, j in box_a), frozenset((j, i) for i, j in box_b)


# ---------------------------------------------------------------------------
# straightening


@dataclass(frozen=True)
class StraighteningCertificate:
    """Result of rewriting an element into semistandard coordinates.

    ``source + sum(coeff * snake element) == coords`` holds exactly, where
    the sum runs over ``gamma`` entries (tableau, i, j, j', coeff).
    :meth:`verify` checks it on the row-symmetrised coordinates, which is
    the same as checking it on symmetric tensors: distinct row-sorted
    labels have disjoint row orbits and every row symmetrisation has all
    its coefficients 1, so expanding coordinates into tensors is injective
    over every ring.
    """

    source: SymLowerElement
    coords: SymLowerElement
    gamma: tuple[tuple[Tableau, int, int, int, object], ...]

    def gamma_combination(self) -> SymLowerElement:
        ring = self.source.ring
        pairs = ((coeff, dual_snake(t, i, j, jp).element.lin) for t, i, j, jp, coeff in self.gamma)
        return SymLowerElement(LinComb.linear_combination(ring, pairs))

    def verify(self) -> bool:
        identity = self.source.lin + self.gamma_combination().lin == self.coords.lin
        return identity and all(s.is_semistandard for s in self.coords.labels())


def _snake_pivot(rows: tuple) -> tuple[int, int, int] | None:
    """The snake (i, j, j') that :func:`straighten` applies to the label with these rows, or None on a semistandard one.

    Row i is the first whose entry in some column is >= the one below, and
    (1, j, j') is the pivot of the two-row label on rows i and i+1, so the
    pivot of t is local to a pivot of two rows (part 5 of the certificate
    in :mod:`weylkit.verify`).
    """
    i = next((i for i in range(1, len(rows)) if any(a >= b for a, b in zip(rows[i - 1], rows[i]))), None)
    return None if i is None else (i, *_two_row_pivot(rows[i - 1], rows[i]))


def _two_row_pivot(upper: tuple, lower: tuple) -> tuple[int, int]:
    """(j, j') of the pivot snake on two sorted rows, some entry of ``upper`` >= the one below it.

    The snake runs through the first such column j0.  The start column j
    walks left from j0 while the upper-row value repeats, and the end
    column j' walks right while the lower-row value repeats.  This keeps
    every value of a row wholly inside or wholly outside the chosen boxes,
    which forces a unit leading coefficient.
    """
    j0 = next(j for j in range(1, len(lower) + 1) if upper[j - 1] >= lower[j - 1])
    j = j0
    while j > 1 and upper[j - 2] == upper[j0 - 1]:
        j -= 1
    jp = j0
    while jp < len(lower) and lower[jp] == lower[j0 - 1]:
        jp += 1
    return j, jp


def straighten(x: SymLowerElement) -> StraighteningCertificate:
    """Rewrite x as semistandard coordinates modulo dual snake relations.

    :func:`~weylkit.linalg.reduce_by_pivots` on rows repeatedly clears the
    row-order-greatest label that is not semistandard with its pivot snake
    (:func:`_snake_pivot`), checked as in part 2 of the kernel certificate:
    coefficient exactly 1 on the label, and every other label strictly
    below it in the row order.  A snake that fails raises ``RuntimeError``
    naming the label.  Hence the cleared labels strictly decrease, each is
    cleared at most once, and as they are row-sorted fillings of one shape
    from a finite alphabet, the loop ends.
    """
    ring, shape = x.ring, x.shape
    key = partial(line_order_key, max_entry=max([1, *(t.max_entry for t in x.labels())]))

    def pivot(rows):
        snake = _snake_pivot(rows)
        return None if snake is None else _dual_garnir_int(rows, *_snake_boxes(len(rows[snake[0] - 1]), *snake))

    left, steps = reduce_by_pivots({t.rows: c for t, c in x.lin.unordered_items()}, pivot, key, ring)
    gamma = tuple((Tableau._fresh(rows, shape), *_snake_pivot(rows), ring.neg(c)) for rows, c in steps)
    return StraighteningCertificate(x, SymLowerElement._on_lines(ring, shape, left), gamma)


# ---------------------------------------------------------------------------
# bases and verification


def weyl_basis(shape, max_entry: int, ring: CoefficientRing = ZZ):
    """The semistandard copolytabloids, paired with their labels."""
    return [
        (s, copolytabloid(s, ring)) for s in enumerate_tableaux(shape, max_entry, SEMISTANDARD)
    ]


def _snake_relations(shape: tuple[int, ...]):
    """Every snake of the shape on every label, and the snake on a label's rows, its box sets built once."""
    snakes = list(snake_labels(shape))
    boxes = {snake: _snake_boxes(shape[snake[0] - 1], *snake) for snake in snakes}
    return (lambda rows: snakes), lambda rows, snake: _dual_garnir_int(rows, *boxes[snake])


WEYL = Side(
    command="weyl-verify",
    rows=True,
    basis=ROW_SEMISTANDARD,
    pairs=lambda shape: list(dict.fromkeys(shape[i : i + 2] for i in range(len(shape) - 1))),
    relations=_snake_relations,
    kernel_map=lambda: _wedge_of_rsym_int,
    pivot=lambda rows: _snake_pivot(rows),
    build=lambda t, snake: dual_snake(t, *snake),
    image=lambda s: copolytabloid(s),
    checks=(
        ("image", "projection_rank_is_ssyt_count"),
        ("membership", "snakes_lie_in_kernel"),
        ("span", "snake_span_rank_is_nullity"),
        ("lattice", "snake_lattice_is_direct_summand"),
    ),
    rank_keys=("projection", "snake_span", "expected_nullity"),
    pivots_key="snake_certificate",
    dims=lambda shape, m, dimension, ssyt: {
        "rssyt": dimension, "ssyt": ssyt, "csyt": count_tableaux(shape, m, COLUMN_STANDARD)
    },
)


def verify_weyl_kernel(
    shape,
    max_entry: int,
    ring: CoefficientRing,
    size_cap: int | None = 5,
    entry_cap: int | None = 3,
) -> dict:
    """Check that the dual snake relations are exactly the wedge projection kernel.

    Checks that the projection restricted to symmetric tensors (in the
    row-symmetrised / column-standard bases) has rank equal to the
    semistandard count, that every snake relation projects to zero, and
    that the snake span has rank equal to the nullity.  All three are read
    off the integer certificate of :mod:`weylkit.verify`, built once per
    (shape, max_entry); over the integers the ranks are rational, and the
    snake lattice is in addition a direct summand.
    """
    return verify(WEYL, shape, max_entry, ring, size_cap, entry_cap)
