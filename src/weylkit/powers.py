"""Tensor, symmetric-power and exterior-power elements on tableau labels.

Every element is a sparse linear combination of same-shape tableaux, with
labels canonical for its space:

* :class:`TensorElement` -- any tableau labels (pure tensors);
* :class:`RowTabloidElement` -- labels with rows sorted ascending, the basis
  of the upper symmetric power;
* :class:`SymLowerElement` -- row-sorted labels read as coordinates over the
  row-symmetrised basis of the space of symmetric tensors;
* :class:`ColumnTabloidElement` -- column-standard labels, the basis of the
  exterior power, with signs absorbed into coefficients.

One kernel carries line images from one side to the other,
:func:`line_products`, and expands a product of line images one line at a
time: alternating, it puts rows into the columns of the exterior power;
otherwise it puts columns into the rows of the symmetric power.  On
identity images it gives the basis maps ``_wedge_of_rsym_int``, from a
label's rows, and ``schur._polytabloid_int``, from its columns, each
cached as the kernel's ``{lines: int}``.  The fold's state after k source
lines is the image of the label's first k lines, so each map starts a
basis label with two or more lines from the cached image of the label
without its last line, a basis label of a smaller shape that a sweep
visits too, and folds that line alone; any other label, such as a CLI
request with unsorted lines, is folded whole and caches no prefix.  A
tableau is built at the API boundary only, and :func:`sum_images`
extends a basis map linearly on lines, so an element's image labels just
the nonzero part of its sum.
The kernel is multilinear in the line images, so the equivariance check
in :mod:`weylkit.duality` maps g acting on a label through those basis
maps rather than running it on g's images.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache

from .coeffs import ZZ, CoefficientRing, LinComb, _terms_to_json
from .tableaux import Tableau, from_columns, permutation_sign, sort_columns, sort_rows
from .places import multiset_permutations, row_orbit


class TableauElement:
    """Shared behavior for elements whose labels are same-shape tableaux."""

    space = "?"
    __slots__ = ("lin",)

    def __init__(self, lin: LinComb):
        shapes = {t.shape for t in lin.labels()}
        if len(shapes) > 1:
            raise ValueError("all labels of an element must share one shape")
        for t in lin.labels():
            self._check_label(t)
        self.lin = lin

    def _check_label(self, t: Tableau):
        pass

    @staticmethod
    def _label(shape: tuple[int, ...], lines: tuple) -> Tableau:
        """The tableau of the shape with these lines, unchecked: its rows, or its columns in the exterior power."""
        return Tableau._fresh(lines, shape)

    @classmethod
    def _on_lines(cls, ring: CoefficientRing, shape: tuple[int, ...], terms: dict):
        """The element of ``{lines: coeff}`` in the ring, labelling only the terms that reduce to nonzero.

        Each coefficient is reduced once, here, and the reduced terms go to
        ``LinComb`` unchecked.
        """
        label, normalize = cls._label, ring.normalize
        terms = {label(shape, lines): v for lines, c in terms.items() if (v := normalize(c)) != 0}
        return cls._trusted(LinComb._reduced(ring, terms))

    @classmethod
    def _trusted(cls, lin: LinComb):
        """An element on labels of one shape already canonical for the space, unchecked.

        For builders whose labels are canonical by construction; every
        other caller goes through the checking constructor.
        """
        x = cls.__new__(cls)
        x.lin = lin
        return x

    @classmethod
    def zero(cls, ring: CoefficientRing = ZZ):
        return cls(LinComb.zero(ring))

    @property
    def ring(self) -> CoefficientRing:
        return self.lin.ring

    @property
    def is_zero(self) -> bool:
        return self.lin.is_zero

    @property
    def shape(self):
        for t in self.lin.labels():
            return t.shape
        return None

    def coeff(self, t: Tableau):
        return self.lin.coeff(t)

    def items(self):
        """Terms ordered by their labels' rows.

        The labels share one shape, so their rows compare as their reading
        words do, and this is the order of ``Tableau.sort_key`` that
        ``LinComb.items`` sorts by, from a cheaper key.
        """
        return sorted(self.lin.unordered_items(), key=lambda term: term[0].rows)

    def labels(self):
        return self.lin.labels()

    def combine(self, other, ca=1, cb=1):
        if type(other) is not type(self):
            raise TypeError("cannot mix elements of different spaces")
        return type(self)(self.lin.combine(other.lin, ca, cb))

    def __add__(self, other):
        return self.combine(other)

    def __sub__(self, other):
        return self.combine(other, 1, -1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, c):
        return type(self)(self.lin.scaled(c))

    def change_ring(self, target: CoefficientRing):
        return type(self)(self.lin.change_ring(target))

    def __eq__(self, other):
        return type(other) is type(self) and self.lin == other.lin

    def __hash__(self):
        return hash((self.space, self.lin))

    def __repr__(self):
        return f"{type(self).__name__}({self.lin!r})"

    def to_json(self) -> dict:
        """The space, the ring and the terms in the order of :meth:`items`: ``LinComb.to_json``'s bytes."""
        return {"space": self.space, **_terms_to_json(self.ring, self.items(), Tableau.to_json)}


class TensorElement(TableauElement):
    space = "tensor"


class RowTabloidElement(TableauElement):
    space = "sym_upper"

    def _check_label(self, t):
        if not t.is_row_semistandard:
            raise ValueError("row tabloid labels must have sorted rows")


class SymLowerElement(TableauElement):
    space = "sym_lower"

    def _check_label(self, t):
        if not t.is_row_semistandard:
            raise ValueError("row-symmetrised coordinates must have sorted-row labels")


class ColumnTabloidElement(TableauElement):
    space = "wedge"
    _label = staticmethod(from_columns)

    def _check_label(self, t):
        if not t.is_column_standard:
            raise ValueError("column tabloid labels must be column standard")


# ---------------------------------------------------------------------------
# the maps


def rsym(t: Tableau, ring: CoefficientRing = ZZ) -> TensorElement:
    """Row symmetrisation: the sum of the distinct row rearrangements of t.

    The orbit's labels are distinct and share t's shape, so the element is
    one dict with every coefficient 1, reduced once.
    """
    return TensorElement._trusted(LinComb(ring, dict.fromkeys(row_orbit(t), 1)))


def to_row_tabloid(x: TensorElement) -> RowTabloidElement:
    """Project a tensor onto the upper symmetric power (sort each label's rows)."""
    return RowTabloidElement(LinComb(x.ring, ((sort_rows(t), c) for t, c in x.lin.unordered_items())))


def wedge_project(x: TensorElement) -> ColumnTabloidElement:
    """Project a tensor onto the exterior power.

    Labels with a repeated column entry vanish; all others sort to their
    column-standard form with the sign of the sorting permutation.
    """
    terms: dict = {}
    for t, c in x.lin.unordered_items():
        sorted_ = sort_columns(t)
        if sorted_ is not None:
            sign, u = sorted_
            terms[u] = terms.get(u, 0) + (c if sign == 1 else -c)
    return ColumnTabloidElement(LinComb(x.ring, terms))


def sym_lower_coords(x: TensorElement) -> SymLowerElement:
    """Coordinates of a symmetric tensor over the row-symmetrised basis.

    The coefficient of each sorted-row label is its coordinate; the element
    must be exactly the resulting combination, else it is not symmetric.
    """
    coords = [(t, c) for t, c in x.lin.items() if t.is_row_semistandard]
    out = SymLowerElement(LinComb(x.ring, coords))
    if sym_lower_expand(out) != x:
        raise ValueError("element not in Sym_λ")
    return out


def sym_lower_expand(x: SymLowerElement) -> TensorElement:
    """The symmetric tensor with the given row-symmetrised coordinates."""
    return TensorElement(x.lin.map_labels(lambda t: rsym(t).lin))


def line_products(partial: dict, images, alternating: bool) -> dict:
    """The product of line images, folded into the states of ``partial`` one source line at a time.

    ``partial`` is the start, ``{lines: coeff}``: ``{((),) * n: 1}`` for n
    empty target lines, or the image of the label's first source lines,
    which the fold extends by the rest.  ``images`` holds, for each source
    line, the ``(keys, values)`` of its image: lines and their
    coefficients.  Each distinct arrangement of a key puts its j-th entry
    into target line j, after the line's entries that are at most it.
    With ``alternating`` the targets are columns of the exterior power: an
    entry costs the sign (-1)^k, with k the number of the column's entries
    above it, and a state vanishes at its first repeated column entry.
    Without it the targets are sorted rows of the symmetric power, at no
    sign, and the sources are exterior columns, so each arrangement costs
    its own sign.  Equal partial states merge after each source line.
    Returns the nonzero terms of ``{lines: coeff}``, with the coefficients
    unreduced; ``partial`` is only read.
    """
    for keys, values in images:
        arrangements = [
            (word, v if alternating else v * permutation_sign(word))
            for key, v in zip(keys, values)
            for word in multiset_permutations(key)
        ]
        new: dict[tuple[tuple[int, ...], ...], object] = {}
        for lines, c in partial.items():
            for word, v in arrangements:
                out = list(lines)
                coeff = c * v
                for j, a in enumerate(word):
                    line = out[j]
                    pos = bisect_right(line, a)
                    if alternating:
                        if pos and line[pos - 1] == a:
                            break
                        if (len(line) - pos) % 2:
                            coeff = -coeff
                    out[j] = line[:pos] + (a,) + line[pos:]
                else:
                    key = tuple(out)
                    new[key] = new.get(key, 0) + coeff
        partial = new
    share = {}.setdefault  # equal lines of different terms become one tuple, which the caches keep
    return {tuple(map(share, lines, lines)): c for lines, c in partial.items() if c}


def sum_images(terms, image, acc: dict) -> dict:
    """``acc`` plus c * image(key) for each ``(key, c)`` of ``terms``, each image ``{lines: int}``; unreduced."""
    for key, c in terms:
        for lines, v in image(key).items():
            acc[lines] = acc.get(lines, 0) + c * v
    return acc


@cache
def _wedge_of_rsym_int(rows: tuple[tuple[int, ...], ...]) -> dict:
    """The wedge projection of the row symmetrisation of the label with these rows, as ``{columns: int}``.

    Constant on row classes, since the kernel arranges each row's multiset.
    A label with two or more rows, all sorted, folds its last row into the
    cached image of the label without it, a basis label of a smaller shape;
    any other label is folded from empty columns, one per entry of its
    first row, so an unsorted label leaves no prefix in the cache.
    """
    if len(rows) > 1 and all(a <= b for row in rows for a, b in zip(row, row[1:])):
        return line_products(_wedge_of_rsym_int(rows[:-1]), [((rows[-1],), (1,))], alternating=True)
    return line_products({((),) * len(rows[0]) if rows else (): 1}, [((row,), (1,)) for row in rows], alternating=True)


def wedge_of_sym_lower(x: SymLowerElement) -> ColumnTabloidElement:
    """Wedge projection of a symmetric tensor given by its coordinates."""
    terms = sum_images(((t.rows, c) for t, c in x.lin.unordered_items()), _wedge_of_rsym_int, {})
    return ColumnTabloidElement._on_lines(x.ring, x.shape, terms)
