"""The kernel certificate scan on tableaux: the oracle of the line-form scan in ``weylkit.verify``.

This is the scan as it ran before it moved onto lines.  Every relation is
a public :class:`~weylkit.places.Relation` from ``schur.garnir`` or
``weyl.dual_snake``, mapped by the public element map
(``apply_polytabloid_map`` or ``wedge_of_sym_lower``) and asked
``is_zero``; every lead is read by :func:`straighten_oracle.leading_coefficient`
in ``column_order_key`` or ``row_order_key``; and every semistandard image
is the public ``polytabloid`` or ``copolytabloid``.  The public maps are
looked up when called, so a test's patch of a line-form builder reaches
them.  :func:`schur_scan` and :func:`weyl_scan` give the certificate that
``_certificate`` of each side must equal, and with ``full`` the one its full
scan must equal.
"""

from math import factorial

import weylkit.powers as powers
import weylkit.schur as schur
import weylkit.weyl as weyl
from weylkit.places import stabilizer_order
from weylkit.tableaux import (
    COLUMN_STANDARD,
    ROW_SEMISTANDARD,
    SEMISTANDARD,
    Tableau,
    column_order_key,
    conjugate,
    count_tableaux,
    enumerate_tableaux,
    from_columns,
    row_order_key,
)
from weylkit.verify import KernelCertificate

from straighten_oracle import leading_coefficient
from weight_oracles import column_sorted_labels, is_dominant

_UNBUILT = object()


def _scan_relations(labels, relation_labels, build, kernel_map, pivot, key, orbit_size, local):
    pivots, odd = 0, []
    local_relations = {}
    for t in labels:
        target = None if t.is_semistandard else pivot(t)
        found = local_pivot = None
        for r in relation_labels(t):
            here = local(t, r)
            rel = local_relations.get(here, _UNBUILT)
            if rel is _UNBUILT:
                rel = build(*here)
                rel = local_relations[here] = rel if kernel_map(rel.element).is_zero else None
            if rel is not None:
                if r == target:
                    local_pivot = rel
                continue
            rel = build(t, r)
            if not kernel_map(rel.element).is_zero:
                return rel, pivots, odd
            if r == target:
                found = rel
        if target is None:
            continue
        lead = None
        if local_pivot is not None:
            lead = leading_coefficient(local_pivot.element, local_pivot.tableau, key)
            if lead != 1:
                found = build(t, target)
        if found is not None:
            lead = leading_coefficient(found.element, t, key)
        if lead == 1:
            pivots += orbit_size(t)
        else:
            odd.append((lead, t, found, orbit_size(t)))
    return None, pivots, odd


def _certificate(labels, relation_labels, build, kernel_map, pivot, key, dimension, semistandard, image, image_key,
                 local, orbit_size):
    bad, pivots, odd_pivots = _scan_relations(labels, relation_labels, build, kernel_map, pivot, key, orbit_size, local)
    odd_images = []
    for s in semistandard:
        element = image(s)
        lead = leading_coefficient(element, s, lambda u: tuple(-v for v in image_key(u)))
        if lead != 1:
            odd_images.append((lead, s, element))
    rank = len(semistandard)
    return KernelCertificate(bad, dimension - rank, rank, pivots, tuple(odd_pivots), tuple(odd_images))


def _own(t, r):
    return t, r


def _local_garnir(t, boxes):
    """Columns j_A and j_B of t, with A and B moved onto columns 1 and 2."""
    box_a, box_b = boxes
    cols = (t.column_entries(next(iter(box_a))[1]), t.column_entries(next(iter(box_b))[1]))
    return cols, (frozenset((i, 1) for i, _ in box_a), frozenset((i, 2) for i, _ in box_b))


def _garnir_on(label, boxes):
    """The Garnir relation on a tableau or, for a local relation, on two columns."""
    if not isinstance(label, Tableau):
        label = from_columns(conjugate(tuple(map(len, label))), label)
    return schur.garnir(label, *boxes)


def schur_scan(shape, m, full=False):
    """The Schur certificate over one weight per S_m-orbit, decided on two columns; with ``full``,
    over every column-sorted label, each relation built in full and each pivot counted once."""
    labels = column_sorted_labels(shape, m)
    if full:
        orbit_size, local = (lambda t: 1), _own
    else:
        labels = [t for t in labels if is_dominant(t, m)]
        orbit_size = lambda t: factorial(m) // stabilizer_order([t.reading_word.count(v) for v in range(1, m + 1)])
        local = _local_garnir
    return _certificate(
        labels=labels,
        relation_labels=schur._relation_labels(shape),
        build=_garnir_on,
        kernel_map=lambda x: schur.apply_polytabloid_map(x),
        pivot=schur._garnir_pivot,
        key=lambda u: column_order_key(u, m),
        dimension=count_tableaux(shape, m, COLUMN_STANDARD),
        semistandard=enumerate_tableaux(shape, m, SEMISTANDARD),
        image=lambda s: schur.polytabloid(s),
        image_key=lambda u: row_order_key(u, m),
        local=local,
        orbit_size=orbit_size,
    )


def _local_snake(t, snake):
    """Rows i and i+1 of t, and (1, j, j')."""
    i, j, jp = snake
    return t.rows[i - 1 : i + 1], (1, j, jp)


def _snake_on(label, snake):
    """The dual snake on a tableau or, for a local snake, on two rows."""
    if not isinstance(label, Tableau):
        label = Tableau._fresh(label, (len(label[0]), len(label[1])))
    return weyl.dual_snake(label, *snake)


def weyl_scan(shape, m, full=False):
    """The Weyl certificate over every row-sorted label, decided on two rows; with ``full``, built in full."""
    rssyt = enumerate_tableaux(shape, m, ROW_SEMISTANDARD)
    snakes = list(weyl.snake_labels(shape))
    return _certificate(
        labels=rssyt,
        relation_labels=lambda t: snakes,
        build=_snake_on,
        kernel_map=lambda x: powers.wedge_of_sym_lower(x),
        pivot=lambda t: weyl._snake_pivot(t.rows),
        key=lambda u: row_order_key(u, m),
        dimension=len(rssyt),
        semistandard=enumerate_tableaux(shape, m, SEMISTANDARD),
        image=lambda s: weyl.copolytabloid(s),
        image_key=lambda u: column_order_key(u, m),
        local=_own if full else _local_snake,
        orbit_size=lambda t: 1,
    )
