"""Smith-form oracle for the lattice certificates of the verify paths.

Rebuilds, independently of the verify reports, the integer relation rows
that ``verify_schur_ses`` and ``verify_weyl_kernel`` certify with
unitriangular pivots, and decides the same question the slow way: the rows
span a direct summand of the expected rank exactly when all their
elementary divisors are 1 and there are that many of them.
"""

from weylkit.linalg import smith_elementary_divisors
from weylkit.schur import garnir, garnir_labels
from weylkit.tableaux import ALL, COLUMN_STANDARD, ROW_SEMISTANDARD, SEMISTANDARD, enumerate_tableaux
from weylkit.weyl import dual_snake, snake_labels


def _indexed(elements, labels):
    index = {t: k for k, t in enumerate(labels)}
    return [{index[l]: c for l, c in el.items()} for el in elements]


def weyl_relation_rows(shape, m):
    """Every dual snake relation over Z, as rows over the row-semistandard labels."""
    rssyt = enumerate_tableaux(shape, m, ROW_SEMISTANDARD)
    snakes = (dual_snake(t, i, j, jp).element for t in rssyt for i, j, jp in snake_labels(shape))
    return _indexed(snakes, rssyt), len(rssyt)


def schur_relation_rows(shape, m):
    """Every Garnir relation over Z, as rows over the column-standard labels."""
    csyt = enumerate_tableaux(shape, m, COLUMN_STANDARD)
    relations = (
        garnir(t, a, b).element
        for t in enumerate_tableaux(shape, m, ALL)
        for a, b in garnir_labels(shape)
    )
    return _indexed(relations, csyt), len(csyt)


def smith_verdict(rows, ncols, shape, m) -> bool:
    """True when the rows span a direct summand of rank ncols - #semistandard."""
    divisors = smith_elementary_divisors(rows, ncols)
    expected = ncols - len(enumerate_tableaux(shape, m, SEMISTANDARD))
    return all(d == 1 for d in divisors) and len(divisors) == expected
