"""Rank oracle for the verify paths' kernel certificates.

Decides the kernel theorem of one instance the way the verify paths did
before their integer certificates: every relation is built over the ring
and must map to zero there, and the ranks of the relation span and of the
map come from Gaussian elimination (:func:`weylkit.linalg.rank_of_rows`),
over Q for the integers.  Builders are looked up when called, so the
oracle sees a test's monkeypatched builder.
"""

import weylkit.schur as schur
import weylkit.weyl as weyl
from weylkit.coeffs import QQ
from weylkit.linalg import rank_of_rows
from weylkit.powers import wedge_of_sym_lower
from weylkit.tableaux import ALL, COLUMN_STANDARD, ROW_SEMISTANDARD, SEMISTANDARD, enumerate_tableaux


def image_rank(labels, image, ring) -> int:
    """Rank over Q, or over the field, of the map sending each label u to ``image(u)``."""
    columns: dict = {}
    rows = [{columns.setdefault(l, len(columns)): c for l, c in image(u).items()} for u in labels]
    return rank_of_rows(rows, ring if ring.is_field else QQ)


def _verdict(relations, kernel_map, basis, image, ssyt, ring):
    """(ok, rank of the map, rank of the relation span or None) by elimination."""
    index = {u: k for k, u in enumerate(basis)}
    rows = []
    for rel in relations:
        if not kernel_map(rel).is_zero:
            return False, image_rank(basis, image, ring), None
        rows.append({index[u]: c for u, c in rel.items()})
    span = rank_of_rows(rows, ring if ring.is_field else QQ)
    rank = image_rank(basis, image, ring)
    return rank == len(ssyt) and span + rank == len(basis), rank, span


def schur_verdict(shape, m, ring):
    """The Garnir relations on every label against the polytabloid map."""
    relations = (
        schur.garnir(t, a, b, ring).element
        for t in enumerate_tableaux(shape, m, ALL)
        for a, b in schur.garnir_labels(shape)
    )
    csyt = enumerate_tableaux(shape, m, COLUMN_STANDARD)
    ssyt = enumerate_tableaux(shape, m, SEMISTANDARD)
    return _verdict(
        relations, schur.apply_polytabloid_map, csyt, lambda u: schur.polytabloid(u, ring), ssyt, ring
    )


def weyl_verdict(shape, m, ring):
    """The dual snake relations on every row-sorted label against the wedge projection."""
    rssyt = enumerate_tableaux(shape, m, ROW_SEMISTANDARD)
    relations = (
        weyl.dual_snake(t, *snake, ring).element for t in rssyt for snake in weyl.snake_labels(shape)
    )
    ssyt = enumerate_tableaux(shape, m, SEMISTANDARD)
    return _verdict(relations, wedge_of_sym_lower, rssyt, lambda u: weyl.copolytabloid(u, ring), ssyt, ring)
