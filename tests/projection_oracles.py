"""Per-label oracles for the two basis maps the line-by-line kernels now expand.

``powers._wedge_of_rsym_int`` and ``schur._polytabloid_int`` run
``powers.wedge_of_rows`` and ``schur.rows_of_columns`` on identity images,
merging equal partial states after every line.  These are the definitions
the kernels replace, bodies unchanged: the first enumerates the whole row
orbit of t and sorts each member's columns with their sign; the second
takes the product of every column's signed permutations and sorts each
resulting tableau's rows.
"""

from itertools import permutations, product

from weylkit.coeffs import ZZ, LinComb
from weylkit.places import row_orbit
from weylkit.powers import _add_wedge_term
from weylkit.tableaux import Tableau, from_columns, permutation_sign, sort_rows


def wedge_of_rsym_int(t_sorted: Tableau) -> LinComb:
    """Integer expansion of the wedge projection of one row symmetrisation."""
    terms: dict[Tableau, int] = {}
    for u in row_orbit(t_sorted):
        _add_wedge_term(terms, u, 1)
    return LinComb(ZZ, terms)


def polytabloid_int(t: Tableau) -> LinComb:
    """Integer expansion of the polytabloid of t over row-tabloid labels."""
    cols = t.columns
    if any(len(set(col)) != len(col) for col in cols):
        return LinComb.zero(ZZ)
    signed_cols = []
    for col in cols:
        k = len(col)
        signed_cols.append(
            [(tuple(col[p[i]] for i in range(k)), permutation_sign(p)) for p in permutations(range(k))]
        )
    shape = t.shape
    terms: dict[Tableau, int] = {}
    for combo in product(*signed_cols):
        sign = 1
        for _, s in combo:
            sign *= s
        label = sort_rows(from_columns(shape, [col for col, _ in combo]))
        terms[label] = terms.get(label, 0) + sign
    return LinComb(ZZ, terms)
