"""The kernel certificate scan on tableaux: the oracle of the line-form scan in ``weylkit.verify``.

This is the scan as it ran before it moved onto lines.  Every relation is
a public :class:`~weylkit.places.Relation` from ``schur.garnir`` or
``weyl.dual_snake``, mapped by the public element map
(``apply_polytabloid_map`` or ``wedge_of_sym_lower``) and asked
``is_zero``; every lead is read by :func:`straighten_oracle.leading_coefficient`
in ``column_order_key`` or ``row_order_key``; and every semistandard image
is the public ``polytabloid`` or ``copolytabloid``.  The public maps are
looked up when called, so a test's patch of a line-form builder reaches
them.  :func:`schur_scan` and :func:`weyl_scan` scan every label of the
shape, with every relation built in full: the certificate that both
``verify.certificate`` and ``verify.scan`` of each side must equal.
:func:`tableau_garnir_pivot` is the Schur pivot as it read a tableau before
it moved onto a label's columns, and ``weight_oracles.column_sorted_labels``
the labels the Schur scan walked, as tableaux.
"""

import weylkit.powers as powers
import weylkit.schur as schur
import weylkit.weyl as weyl
from weylkit.tableaux import (
    COLUMN_STANDARD,
    ROW_SEMISTANDARD,
    SEMISTANDARD,
    column_order_key,
    count_tableaux,
    enumerate_tableaux,
    row_order_key,
)
from weylkit.verify import KernelCertificate

from straighten_oracle import leading_coefficient
from weight_oracles import column_sorted_labels


def tableau_garnir_pivot(t):
    """Box sets (A, B) on the first descent of the first row of t with one, or None when t is not column standard."""
    if not t.is_column_standard:
        return None
    row = next((row for row in t.rows if any(a > b for a, b in zip(row, row[1:]))), None)
    if row is None:
        return None
    j = next(j for j in range(1, len(row)) if row[j - 1] > row[j])
    box_a, box_b = schur._two_column_pivot(*t.columns[j - 1 : j + 1])
    return frozenset((i, j) for i, _ in box_a), frozenset((i, j + 1) for i, _ in box_b)


def _scan_relations(labels, relation_labels, build, kernel_map, pivot, key):
    pivots, odd = 0, []
    for t in labels:
        target = None if t.is_semistandard else pivot(t)
        found = None
        for r in relation_labels(t):
            rel = build(t, r)
            if not kernel_map(rel.element).is_zero:
                return rel, pivots, odd
            if r == target:
                found = rel
        if target is None:
            continue
        lead = None if found is None else leading_coefficient(found.element, t, key)
        if lead == 1:
            pivots += 1
        else:
            odd.append((lead, t, found))
    return None, pivots, odd


def _certificate(labels, relation_labels, build, kernel_map, pivot, key, dimension, semistandard, image, image_key):
    bad, pivots, odd_pivots = _scan_relations(labels, relation_labels, build, kernel_map, pivot, key)
    odd_images = []
    for s in semistandard:
        element = image(s)
        lead = leading_coefficient(element, s, lambda u: tuple(-v for v in image_key(u)))
        if lead != 1:
            odd_images.append((lead, s, element))
    rank = len(semistandard)
    return KernelCertificate(bad, dimension - rank, rank, pivots, tuple(odd_pivots), tuple(odd_images))


def schur_scan(shape, m):
    """The Schur certificate over every column-sorted label."""
    kept = schur._relation_labels(shape)
    return _certificate(
        labels=column_sorted_labels(shape, m),
        relation_labels=lambda t: kept(t.columns),
        build=lambda t, boxes: schur.garnir(t, *boxes),
        kernel_map=lambda x: schur.apply_polytabloid_map(x),
        pivot=lambda t: schur._garnir_pivot(t.columns),
        key=lambda u: column_order_key(u, m),
        dimension=count_tableaux(shape, m, COLUMN_STANDARD),
        semistandard=enumerate_tableaux(shape, m, SEMISTANDARD),
        image=lambda s: schur.polytabloid(s),
        image_key=lambda u: row_order_key(u, m),
    )


def weyl_scan(shape, m):
    """The Weyl certificate over every row-sorted label."""
    rssyt = enumerate_tableaux(shape, m, ROW_SEMISTANDARD)
    snakes = list(weyl.snake_labels(shape))
    return _certificate(
        labels=rssyt,
        relation_labels=lambda t: snakes,
        build=lambda t, snake: weyl.dual_snake(t, *snake),
        kernel_map=lambda x: powers.wedge_of_sym_lower(x),
        pivot=lambda t: weyl._snake_pivot(t.rows),
        key=lambda u: row_order_key(u, m),
        dimension=len(rssyt),
        semistandard=enumerate_tableaux(shape, m, SEMISTANDARD),
        image=lambda s: weyl.copolytabloid(s),
        image_key=lambda u: column_order_key(u, m),
    )
