"""Relabelling by S_m, and the full scans the certificates are compared with.

Garnir relations and the polytabloid map commute with relabelling the
entries; these helpers check that symmetry.  The full scans are the
oracles of both certificates: the scan of each side over every label of
the shape, with every relation built in full, which a shape with three or
more lines otherwise reads off its two-line certificates.
"""

import weylkit.verify as verify
from weylkit.coeffs import ZZ, LinComb
from weylkit.schur import SCHUR
from weylkit.tableaux import ROW_SEMISTANDARD, Tableau, conjugate, enumerate_tableaux, sort_columns, sort_rows
from weylkit.weyl import WEYL


def column_sorted_labels(shape, m):
    return [Tableau(u.columns) for u in enumerate_tableaux(conjugate(shape), m, ROW_SEMISTANDARD)]


def full_scan(shape, m):
    """The Schur certificate over every column-sorted label."""
    return verify.scan(SCHUR, shape, m)


def full_snake_scan(shape, m):
    """The Weyl certificate over every row-sorted label."""
    return verify.scan(WEYL, shape, m)


def adjacent_transposition(m, i):
    """s_i on 1, ..., m as the tuple of the images of 1, ..., m."""
    images = list(range(1, m + 1))
    images[i - 1], images[i] = i + 1, i
    return tuple(images)


def relabel(t, sigma):
    """t with every entry v replaced by sigma[v - 1]."""
    return Tableau([[sigma[v - 1] for v in row] for row in t.rows])


def relabel_columns(lin, sigma):
    """σ on column tabloids: relabel each label, then sort its columns with their sign."""
    terms = []
    for u, c in lin.unordered_items():
        sign, sorted_ = sort_columns(relabel(u, sigma))
        terms.append((sorted_, sign * c))
    return LinComb(ZZ, terms)


def relabel_rows(lin, sigma):
    """σ on row tabloids: relabel each label, then sort its rows."""
    return LinComb(ZZ, [(sort_rows(relabel(u, sigma)), c) for u, c in lin.unordered_items()])


def sort_columns_tracking_boxes(t):
    """(t with every column sorted stably, where each box's entry went)."""
    rows = [list(row) for row in t.rows]
    moved = {}
    for j, length in enumerate(conjugate(t.shape), 1):
        column = [t.rows[i][j - 1] for i in range(length)]
        order = sorted(range(length), key=column.__getitem__)
        for new, old in enumerate(order):
            rows[new][j - 1] = column[old]
            moved[(old + 1, j)] = (new + 1, j)
    return Tableau(rows), moved
