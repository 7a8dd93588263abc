"""Weights, relabelling by S_m, and the Schur certificate over every weight.

The Schur certificate scans the column-sorted labels of one weight per
S_m-orbit.  These helpers check the symmetry that makes that enough, and
give the scan over every column-sorted label, each counted once, as the
oracle the orbit scan is compared with.
"""

import weylkit.schur as schur
from weylkit.coeffs import ZZ, LinComb
from weylkit.tableaux import ROW_SEMISTANDARD, Tableau, conjugate, enumerate_tableaux, sort_columns, sort_rows, transpose


def is_dominant(t, m):
    """Whether t's content, the counts of 1, ..., m, weakly decreases."""
    content = [t.reading_word.count(v) for v in range(1, m + 1)]
    return content == sorted(content, reverse=True)


def column_sorted_labels(shape, m):
    return [transpose(u) for u in enumerate_tableaux(conjugate(shape), m, ROW_SEMISTANDARD)]


def full_scan(shape, m):
    """The Schur certificate over every column-sorted label, each pivot counted once."""
    return schur._garnir_scan(shape, m, column_sorted_labels(shape, m), lambda t: 1)


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
