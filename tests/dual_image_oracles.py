"""Per-label oracles for the images of the pairing's duals.

``weylkit.duality`` reads every image off one table per (shape, m): the
transposed polytabloid matrix for :func:`pairing_image`, and one reduction
of every column-standard polytabloid for :func:`polytabloid_dual_image`.
These are the per-label definitions the tables replace.  The first
evaluates the functional dual to t's row tabloid on the polytabloid of
every column-standard u; the second reduces every such polytabloid over
the semistandard polytabloid basis again for each t.
"""

from weylkit.coeffs import QQ, ZZ, CoefficientRing, LinComb
from weylkit.powers import ColumnTabloidElement
from weylkit.schur import polytabloid
from weylkit.tableaux import COLUMN_STANDARD, Tableau, enumerate_tableaux, row_order_key, sort_rows

from straighten_oracle import leading_coefficient


def pairing_image(t: Tableau, max_entry: int, ring: CoefficientRing = ZZ) -> ColumnTabloidElement:
    """Image in the exterior power of the functional dual to t's row tabloid.

    For each column-standard u, the coefficient of u is the evaluation of
    the functional against the polytabloid of u: the coefficient of t's
    row tabloid in it, read over Z and reduced into the ring once.
    """
    canon = sort_rows(t)
    if canon.max_entry > max_entry:
        raise ValueError("tableau entries exceed the alphabet")
    csyt = enumerate_tableaux(canon.shape, max_entry, COLUMN_STANDARD)
    return ColumnTabloidElement._trusted(LinComb(ring, {u: polytabloid(u).coeff(canon) for u in csyt}))


def polytabloid_dual_image(t: Tableau, max_entry: int) -> ColumnTabloidElement:
    """Image of the functional dual to t's polytabloid, over the rationals.

    The polytabloid of a semistandard s has coefficient 1 on s and every
    other label above s in the row order, so a polytabloid reduces over the
    integers: at its least label s, subtract that coefficient times s's.
    """
    if not t.is_semistandard:
        raise ValueError("polytabloid duals are indexed by semistandard tableaux")

    def key(u):
        return row_order_key(u, max_entry)

    def reversed_key(u):
        return tuple(-v for v in key(u))

    terms = []
    for u in enumerate_tableaux(t.shape, max_entry, COLUMN_STANDARD):
        rest = polytabloid(u)
        while not rest.is_zero:
            s = min(rest.labels(), key=key)
            basis = polytabloid(s)
            if not s.is_semistandard or leading_coefficient(basis, s, reversed_key) != 1:
                raise RuntimeError("polytabloid failed to decompose over the semistandard basis")
            c = rest.coeff(s)
            if s == t:
                terms.append((u, c))
            rest = rest.combine(basis, 1, -c)
    return ColumnTabloidElement(LinComb(QQ, terms))
