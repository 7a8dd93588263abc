"""Per-label oracles for the two basis maps the line kernel expands, and for the maps on g t.

``powers._wedge_of_rsym_int`` and ``schur._polytabloid_int`` run the one
line kernel ``powers.line_products`` on identity images, alternating for
the first and not for the second, merging equal partial states after
every line.  They read a label's rows and its columns and keep their
images as ``{lines: int}``: columns for the first, rows for the second.
The oracles here take the tableau and give a ``LinComb`` on tableaux, so
a test compares the two in lines.  The first oracle is the definition of
the copolytabloid on the public tensor path: the wedge projection of the
row symmetrisation of t, which enumerates the whole row orbit and sorts
each member's columns with their sign.  The second is the definition the
kernel replaced, its body unchanged: it takes the product of every
column's signed permutations and sorts each resulting tableau's rows.

The third is the left side of the equivariance check on its line images:
the same kernel, run on the images under g of a label's lines, where the
check goes through the basis images by linearity.  It binds the kernel
when it is imported, so a test that rebinds it in ``powers`` or
``schur`` leaves it as it was.
"""

from itertools import permutations, product

from weylkit.coeffs import ZZ, LinComb
from weylkit.duality import WEDGE_MAP, _lines, _part_image
from weylkit.powers import ColumnTabloidElement, SymLowerElement, line_products, rsym, wedge_project
from weylkit.tableaux import Tableau, from_columns, permutation_sign, sort_rows


def wedge_of_rsym_int(t: Tableau) -> LinComb:
    """Integer expansion of the wedge projection of one row symmetrisation."""
    return wedge_project(rsym(t)).lin


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


def mapped_action(t: Tableau, g, which: str) -> dict:
    """The map applied to g acting on the basis label t, as unreduced ``{lines: coeff}``.

    For lambda, g acts on each row of t by the divided power and the row
    images go into the columns of the exterior power; for e, g acts on
    each column of t by the exterior power and the column images go into
    the rows of the symmetric power.  A target line takes one entry from
    each source line, so there are as many target lines as the first
    source line has entries.
    """
    space = SymLowerElement.space if which == WEDGE_MAP else ColumnTabloidElement.space
    lines = _lines(t, space)
    images = [_part_image(g, space, line) for line in lines]
    return line_products({((),) * len(lines[0]) if lines else (): 1}, images, alternating=which == WEDGE_MAP)
