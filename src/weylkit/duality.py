"""Duality pairing, matrix actions on entries, and equivariance checks.

The pairing realization works entirely in explicit bases: a functional on
the upper symmetric power is a coordinate vector over sorted-row labels,
and its image in the exterior power has, on each column-standard u, the
functional's value on the polytabloid e_u.  For the functional dual to the
row tabloid of t, that value is the coefficient of t's row tabloid in e_u:
entry (t, u) of the polytabloid matrix, whose column u is e_u over the
row-tabloid labels.  So the images of all the duals are the rows of that
matrix, and one transposition per (shape, m) gives each of them.  Each
row is kept as one ``LinComb`` over Z, immutable, so every image over Z of
its row tabloid is that row itself, and an image over another ring reduces
it once.  No tableau is built for t: its rows, sorted, are the key.  For
row-sorted t the image coincides with the copolytabloid of t, which
``pairing_image`` makes checkable instance by instance.  The functional
dual to the polytabloid of a semistandard t is read the same way, off the
matrix of the e_u's coordinates in the semistandard polytabloid basis:
its image has u's coordinate on t, so one reduction of every e_u gives
every t's image.

Group elements act as invertible matrices on the entry alphabet.  On pure
tensors the action is the multilinear one, box by box.  Each quotient or
subspace model gets its functorial action instead, computed without leaving
its own basis: the exterior power of g on each column of a column tabloid,
the symmetric power on each row of a row tabloid, and the divided power on
each row of a row-symmetrised coordinate label.  Every coefficient is an
integer polynomial in the entries of g, so the actions are exact over
every coefficient ring, Z/n included.

Each power of g on one line is computed in one place, ``_part_image``,
one factor at a time: the exterior power as g e_{c_1} ^ ... ^ g e_{c_k},
the symmetric power as g e_{r_1} ... g e_{r_k}, and the divided power read
off the symmetric one by rescaling with the stabilisers, an exact division
over every ring (see its docstring).  So one product per row and matrix
serves both powers: the first request for either power of a row stores
both on g, and the stabiliser order of each sorted line is read off its
runs of equal entries.  The product is ``_line_product``, kept apart from
the line kernel of :mod:`weylkit.powers`: its factors are single entries,
on which that kernel's loop over arrangements costs more than it saves.

The equivariance check compares, on each basis label t, the map applied
to g acting on t with g acting on the map's image of t, on tuples of
lines.  ``_map`` names, for each map, its basis labels, the space g acts
on first, its target and its label image: the copolytabloid for lambda,
from the divided powers into the exterior power, read off a label's rows,
and the polytabloid for e, from the exterior power into the symmetric
power, read off its columns.  Both are the cached ``{lines: int}`` basis
maps of :mod:`weylkit.powers` and :mod:`weylkit.schur`.  The map is
linear, so the left side is Phi(g t) = sum over s of (g t)_s Phi(s): g
acts on each line of t apart (the divided power on t's rows for lambda,
the exterior power on t's columns for e), so (g t)_s is the product over
the line positions of the coefficient of s's line in g's image of t's.
The kernel that expands the label images, ``powers.line_products``, is
multilinear in its line images, so this is the value of the kernel run on
g's images of t's lines.  The check sums the left side of every label at
once, over the sources s rather than over the labels t.  The basis labels
are every tuple of valid lines, one per position, so the sources that
some label reaches are every tuple of the lines reached at each position,
and a source reaches only basis labels.  ``_basis_lines`` reads those
lines once per (shape, m, map), for every matrix.  ``_source_rows``
transposes g's power on each position's lines into rows, and each source
is read once: one whose image Phi(s) is zero is skipped, and any other
adds Phi(s) times (g t)_s, the product of its rows, into every label t it
reaches.
The right side, g Phi(t) = sum over u of Phi(t)_u g u, acts on each
column (lambda) or row (e) of the target labels u.  It too is summed in
one pass, over the distinct targets rather than over the labels: each
label's image is read once and indexed by its targets u, and g's image of
each u is expanded once and subtracted, times Phi(t)_u, from every label
whose image reaches u.  Each label has one accumulator over Z, keyed by
column tuples (lambda) or row tuples (e): the left side is added into it
and the right side subtracted, and the first label in enumeration order
with a coefficient nonzero in the ring fails.  That is exact, since
Z -> R is additive: the reduced sides are equal exactly when every
coefficient of their difference reduces to 0.  The coefficients summed
are integers, or Fractions over Q, so one that is exactly 0 is 0 in
every ring, and only a difference with a nonzero one is reduced.  No
Tableau is built except for a witness, whose right side is then computed
apart and whose left side is read off as the difference plus the right
side, exact over Z.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import product
from math import prod
from operator import floordiv, truediv

from .coeffs import QQ, ZZ, CoefficientRing, InputError, LinComb
from .linalg import reduce_by_pivots
from .powers import (
    ColumnTabloidElement,
    RowTabloidElement,
    SymLowerElement,
    TableauElement,
    TensorElement,
    _wedge_of_rsym_int,
)
from .schur import _polytabloid_int
from .tableaux import (
    COLUMN_STANDARD,
    ROW_SEMISTANDARD,
    SEMISTANDARD,
    Tableau,
    check_partition,
    enumerate_tableaux,
    from_word,
    line_order_key,
)
from .weyl import copolytabloid


def _determinant(ring: CoefficientRing, rows) -> object:
    """Bareiss fraction-free determinant, with the ring's exact division.

    Every division in the elimination is exact in the ring of the entries:
    ``/`` on Fractions over Q, ``//`` on the integer representatives over Z
    and Z/n, whose determinant is then reduced by the caller.
    """
    divide = truediv if ring == QQ else floordiv
    n = len(rows)
    if n == 0:
        return 1
    mat = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if mat[i][k] != 0), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = divide(mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j], prev)
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def _matrix_entry(ring: CoefficientRing, value, a: int, b: int):
    """Entry (a, b) of a matrix over ``ring``, or an error that names it and the problem.

    JSON has no fractions, so over Q an entry may also be a string as the
    reports write it, such as ``"-3/4"``, read by ``parse_coeff``.
    """
    try:
        return ring.parse_coeff(value) if ring == QQ and isinstance(value, str) else ring.normalize(value)
    except ZeroDivisionError as exc:
        raise InputError(f"entry ({a}, {b}) {value!r} has a zero denominator") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"entry ({a}, {b}): {exc}") from exc


class EntryMatrix:
    """An invertible matrix acting on the entry alphabet {1..m}.

    Entry ``(a, b)`` (1-based) is the coefficient of basis vector a in the
    image of basis vector b.  Over the integers the determinant must be
    +-1; over Z/n it must be a unit; over the rationals, nonzero.

    The images of single columns and rows under the induced actions are
    memoised on the instance, since one matrix acts on many labels.
    """

    __slots__ = ("ring", "entries", "size", "_images")

    def __init__(self, ring: CoefficientRing, entries):
        if not isinstance(entries, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in entries):
            raise InputError("entry matrix must be a list of rows, each a list of entries")
        rows = tuple(
            tuple(_matrix_entry(ring, v, a, b) for b, v in enumerate(row, 1)) for a, row in enumerate(entries, 1)
        )
        m = len(rows)
        if any(len(r) != m for r in rows):
            raise InputError("entry matrix must be square")
        self.ring = ring
        self.entries = rows
        self.size = m
        self._images: dict = {}
        if not self.ring.is_unit(_determinant(ring, rows)):
            raise InputError("non-invertible entry matrix")

    @classmethod
    def identity(cls, m: int, ring: CoefficientRing = ZZ) -> "EntryMatrix":
        return cls(ring, [[1 if i == j else 0 for j in range(m)] for i in range(m)])

    @classmethod
    def permutation(cls, images: tuple[int, ...], ring: CoefficientRing = ZZ) -> "EntryMatrix":
        """Matrix sending basis vector b to basis vector images[b-1] (1-based); the images must permute 1..m."""
        m = len(images)
        if sorted(images) != list(range(1, m + 1)):
            raise InputError(f"permutation images {list(images)} are not a permutation of 1..{m}")
        rows = [[0] * m for _ in range(m)]
        for b, a in enumerate(images, 1):
            rows[a - 1][b - 1] = 1
        return cls(ring, rows)

    def entry(self, a: int, b: int):
        return self.entries[a - 1][b - 1]

    def __eq__(self, other):
        return (
            isinstance(other, EntryMatrix)
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.entries))

    def __repr__(self):
        return f"EntryMatrix({self.ring.tag}, {[list(r) for r in self.entries]})"

    def compose(self, other: "EntryMatrix") -> "EntryMatrix":
        """Matrix product self @ other: apply other first."""
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size}x{self.size} after {other.size}x{other.size}")
        m = self.size
        rows = [
            [
                sum(self.entries[a][k] * other.entries[k][b] for k in range(m))
                for b in range(m)
            ]
            for a in range(m)
        ]
        return EntryMatrix(self.ring, rows)


def _act_on_label(t: Tableau, g: EntryMatrix) -> LinComb:
    """Multilinear expansion of the entrywise action on one tableau.

    Each box's entry b goes to the entries a with g[a, b] nonzero.  One
    choice of a per box is one word, so distinct choices never merge.
    """
    images = [[(a, row[b - 1]) for a, row in enumerate(g.entries, 1) if row[b - 1] != 0] for b in t.reading_word]
    words = product(*images)
    return LinComb(g.ring, {from_word(t.shape, tuple(a for a, _ in w)): prod(v for _, v in w) for w in words})


def _ring_terms(ring: CoefficientRing, acc: dict) -> dict:
    """The nonzero terms of a dict, their values reduced into the ring."""
    return {key: v for key, value in acc.items() if (v := ring.normalize(value)) != 0}


def _line_product(g: EntryMatrix, line: tuple[int, ...], alternating: bool) -> dict:
    """The product g e_{l_1} ... g e_{l_k}, exterior when alternating, else symmetric.

    Taken one factor at a time over sorted keys, with integer
    representatives left unreduced: e_a goes in after the entries of d
    that are at most a, and in the exterior product a repeat vanishes and
    putting e_a in costs the sign of the entries of d above it.
    """
    partial: dict[tuple[int, ...], object] = {(): g.ring.one}
    for c in line:
        image = [(a, row[c - 1]) for a, row in enumerate(g.entries, 1) if row[c - 1] != 0]
        new: dict[tuple[int, ...], object] = {}
        for d, v in partial.items():
            for a, gv in image:
                pos = bisect_right(d, a)
                if alternating:
                    if pos and d[pos - 1] == a:
                        continue
                    if (len(d) - pos) % 2:
                        gv = -gv
                key = d[:pos] + (a,) + d[pos:]
                new[key] = new.get(key, 0) + v * gv
        partial = new
    return partial


def _sorted_stabilizer(line: tuple[int, ...]) -> int:
    """|Stab line| of a sorted line, the product of the factorials of its runs of equal entries.

    The i-th entry of a run multiplies the order by i.
    """
    order = run = 1
    for a, b in zip(line, line[1:]):
        run = run + 1 if a == b else 1
        order *= run
    return order


def _reduced_image(ring: CoefficientRing, partial: dict) -> tuple:
    """The lines of ``partial`` whose coefficient is nonzero in the ring, and those coefficients reduced."""
    terms = _ring_terms(ring, partial)
    return tuple(terms), tuple(terms.values())


def _part_image(g: EntryMatrix, space: str, line: tuple[int, ...]) -> tuple:
    """The power of g that acts on the space, on one of its lines, memoised on g.

    Returns the lines with a nonzero coefficient, and those coefficients
    reduced into the ring.  On a strictly increasing column of the exterior
    power these are the minors det g[d, column]; on a sorted row of the
    upper symmetric power, S(g)[s, row], the coefficient of e_s in
    g e_{r_1} ... g e_{r_k}.  On a row of row-symmetrised coordinates it is
    the divided power D(g)[s, row] = S(g)[s, row] * |Stab s| / |Stab row|:
    both D(g)[s, row] * |Stab row| and S(g)[s, row] * |Stab s| sum
    prod_i g[s_sigma(i), r_i] over every sigma in S_k.  D(g)[s, row] is an
    integer polynomial in the entries of g, so the division is exact:
    ``//`` on the integer representatives over Z and Z/n, ``/`` on
    Fractions over Q.  So one product of g on a row serves both powers:
    the first request for either stores the two, and each stabiliser order
    is read off the runs of a sorted line.
    """
    images = g._images
    image = images.get((space, line))
    if image is None:
        ring = g.ring
        if space == ColumnTabloidElement.space:
            images[space, line] = _reduced_image(ring, _line_product(g, line, alternating=True))
        else:
            partial = _line_product(g, line, alternating=False)
            stab = _sorted_stabilizer(line)
            divide = truediv if ring == QQ else floordiv
            symmetric = images[RowTabloidElement.space, line] = _reduced_image(ring, partial)
            divided = {s: divide(v * _sorted_stabilizer(s), stab) for s, v in partial.items()}
            keys, values = _reduced_image(ring, divided)
            # over Z and Q both powers are nonzero on the same lines, and then they share one tuple of them
            images[SymLowerElement.space, line] = (symmetric[0] if keys == symmetric[0] else keys, values)
        image = images[space, line]
    return image


def _lines(t: Tableau, space: str) -> tuple:
    """The lines g acts on one at a time: t's columns in the exterior power, else its rows."""
    return t.columns if space == ColumnTabloidElement.space else t.rows


def _line_images(g: EntryMatrix, space: str, lines: tuple) -> zip:
    """g acting on each of the lines apart: pairs of image lines and the product of their coefficients, unreduced."""
    images = [_part_image(g, space, line) for line in lines]
    keys = product(*(image_keys for image_keys, _ in images))
    return zip(keys, map(prod, product(*(image_values for _, image_values in images))))


def _functorial_terms(terms, g: EntryMatrix, space: str, acc: dict) -> dict:
    """``acc`` plus g acting on each line of each ``(lines, coeff)`` term apart, as ``{lines: coeff}``; unreduced."""
    for lines, c in terms:
        for key, value in _line_images(g, space, lines):
            acc[key] = acc.get(key, 0) + c * value
    return acc


def entry_action(x: TableauElement, g: EntryMatrix) -> TableauElement:
    """Entrywise matrix action on any element type, landing in the same space.

    A tensor is acted on box by box.  A column tabloid is acted on through
    the exterior power of g on each column, a row tabloid through the
    symmetric power of g on each row, and row-symmetrised coordinates
    through the divided power of g on each row.
    """
    if x.ring != g.ring:
        raise ValueError("ring mismatch")
    for t in x.labels():
        if t.max_entry > g.size:
            raise ValueError("entry matrix too small for the element's alphabet")
    if isinstance(x, TensorElement):
        return TensorElement(x.lin.map_labels(lambda t: _act_on_label(t, g)))
    if isinstance(x, (ColumnTabloidElement, RowTabloidElement, SymLowerElement)):
        terms = _functorial_terms(((_lines(t, x.space), c) for t, c in x.lin.unordered_items()), g, x.space, {})
        return type(x)._on_lines(x.ring, x.shape, terms)
    raise TypeError(f"unsupported element type {type(x).__name__}")


# ---------------------------------------------------------------------------
# the pairing


@dataclass(frozen=True)
class DualFunctional:
    """A functional on the upper symmetric power, in sorted-row coordinates."""

    lin: LinComb

    def __post_init__(self):
        for t in self.lin.labels():
            if not t.is_row_semistandard:
                raise ValueError("dual functionals are indexed by sorted-row labels")

    def evaluate(self, x: RowTabloidElement):
        ring = self.lin.ring
        if x.ring != ring:
            raise ValueError("ring mismatch")
        total = ring.zero
        for t, c in self.lin.items():
            total = ring.add(total, ring.mul(c, x.coeff(t)))
        return total


@cache
def _pairing_rows(shape: tuple[int, ...], max_entry: int) -> dict:
    """The polytabloid matrix of (shape, max_entry), transposed: {rows of a row tabloid s: LinComb over Z of u}.

    Entry (s, u) is the integer coefficient of s in the polytabloid of the
    column-standard u, read off the line form of u's polytabloid; only the
    nonzero entries are kept.  Each row is one immutable ``LinComb`` over
    Z, which every pairing image over Z of that row tabloid shares.
    """
    rows: dict[tuple[tuple[int, ...], ...], dict[Tableau, int]] = {}
    for u in enumerate_tableaux(shape, max_entry, COLUMN_STANDARD):
        for s, c in _polytabloid_int(u.columns).items():
            rows.setdefault(s, {})[u] = c
    return {s: LinComb._reduced(ZZ, row) for s, row in rows.items()}


def _check_alphabet(top: int, max_entry: int) -> None:
    """Refuse a tableau whose largest entry, ``top``, is outside {1..max_entry}."""
    if top > max_entry:
        raise InputError("tableau entries exceed the alphabet")


def pairing_image(t: Tableau, max_entry: int, ring: CoefficientRing = ZZ) -> ColumnTabloidElement:
    """Image in the exterior power of the functional dual to t's row tabloid.

    The coefficient of each column-standard u is the coefficient of t's
    row tabloid in the polytabloid of u (see the module docstring): t's
    row of the transposed polytabloid matrix, keyed by t's rows sorted.
    Over Z that row is the image itself, and over any other ring it is
    reduced once.  For row-sorted t this equals the copolytabloid of t.
    """
    rows = tuple([tuple(sorted(row)) for row in t.rows])
    _check_alphabet(max([row[-1] for row in rows], default=0), max_entry)
    image = _pairing_rows(t.shape, max_entry).get(rows)
    return ColumnTabloidElement._trusted(LinComb(ring) if image is None else image.change_ring(ring))


def _dual_coordinates(shape: tuple[int, ...], max_entry: int) -> dict:
    """Every column-standard polytabloid's semistandard coordinates, keyed by the basis label: {t: {u: coeff}}.

    The polytabloid of a semistandard s has coefficient 1 on s and every
    other label above s in the row order, so a polytabloid reduces over the
    integers (:func:`~weylkit.linalg.reduce_by_pivots`, least label first).
    A row tabloid is semistandard exactly when it is column standard, so
    the basis polytabloids are among the ones reduced.
    """

    def key(rows):
        return line_order_key(rows, max_entry)

    labels = {u.rows: u for u in enumerate_tableaux(shape, max_entry, COLUMN_STANDARD)}
    images = {rows: _polytabloid_int(u.columns) for rows, u in labels.items()}
    coordinates: dict[Tableau, dict[Tableau, int]] = {}
    for rows, u in labels.items():
        rest, steps = reduce_by_pivots(images[rows], images.get, key, ZZ, above=True)
        if rest:
            raise RuntimeError("polytabloid failed to decompose over the semistandard basis")
        for s, c in steps:
            coordinates.setdefault(labels[s], {})[u] = c
    return coordinates


def polytabloid_dual_image(t: Tableau, max_entry: int) -> ColumnTabloidElement:
    """Image of the functional dual to t's polytabloid, over the rationals.

    The functional picks out t's coefficient when a polytabloid is written
    in the semistandard polytabloid basis, so the coefficient of each
    column-standard u is u's coordinate on t (see the module docstring).
    t must be semistandard.
    """
    if not t.is_semistandard:
        raise ValueError("polytabloid duals are indexed by semistandard tableaux")
    _check_alphabet(t.max_entry, max_entry)
    return ColumnTabloidElement(LinComb(QQ, _dual_coordinates(t.shape, max_entry).get(t, {})))


def find_dual_basis_mismatch(shapes, entry_range) -> dict | None:
    """Search for a semistandard t whose polytabloid dual misses its copolytabloid.

    Returns a witness payload, or None when every checked instance agrees
    (in which case nothing is asserted about larger instances).
    """
    for shape in shapes:
        shape = check_partition(shape)
        for m in entry_range:
            coordinates = _dual_coordinates(shape, m)
            for t in enumerate_tableaux(shape, m, SEMISTANDARD):
                image = ColumnTabloidElement(LinComb(QQ, coordinates.get(t, {})))
                expected = copolytabloid(t, QQ)
                if image != expected:
                    return {
                        "shape": list(shape),
                        "entries": m,
                        "tableau": t.to_json(),
                        "dual_image": image.to_json(),
                        "copolytabloid": expected.to_json(),
                    }
    return None


# ---------------------------------------------------------------------------
# equivariance


WEDGE_MAP = "lambda"
POLYTABLOID_MAP = "e"


def _map(which: str) -> tuple:
    """The basis labels, source space, target class and line-form label image of the named map.

    The map is linear, so its label images determine it, and both sides of
    the equivariance check read them alone: the cached ``{lines: int}``
    image of a label's rows (lambda) or columns (e), shared by every check
    of the process.  Read from the module at each call, so a rebinding of
    the label image (a test's mutant or counter) is seen.
    """
    if which == WEDGE_MAP:
        return ROW_SEMISTANDARD, SymLowerElement.space, ColumnTabloidElement, _wedge_of_rsym_int
    if which == POLYTABLOID_MAP:
        return COLUMN_STANDARD, ColumnTabloidElement.space, RowTabloidElement, _polytabloid_int
    raise InputError(f"unknown map {which!r}")


@cache
def _basis_lines(shape: tuple[int, ...], max_entry: int, kind: str, space: str) -> tuple:
    """The lines that g acts on of each basis label of the kind, in enumeration order: read once per (shape, m, map)."""
    return tuple(_lines(t, space) for t in enumerate_tableaux(shape, max_entry, kind))


def _source_rows(g: EntryMatrix, space: str, basis_lines) -> dict:
    """g's power on the basis lines of one position, transposed: ``{source line: (basis lines, coefficients)}``.

    Row s holds, for each basis line b whose image under g has a term on s,
    that b and the coefficient of s in it, reduced into the ring.
    """
    rows: dict[tuple[int, ...], tuple[list, list]] = {}
    for b in basis_lines:
        for s, v in zip(*_part_image(g, space, b)):
            basis, values = rows.setdefault(s, ([], []))
            basis.append(b)
            values.append(v)
    return rows


def _left_sides(labels: list, g: EntryMatrix, space: str, image) -> dict:
    """Phi(g t) of each basis label t, summed over the sources, keyed by t's lines in the labels' order; unreduced.

    ``labels`` holds the lines of every basis label.  They are every tuple
    of valid lines, one per position, so whatever a source reaches is a
    basis label (see the module docstring).
    """
    left: dict = {lines: {} for lines in labels}
    if not left:  # the product of no tables below would still yield the empty source
        return left
    tables = [_source_rows(g, space, dict.fromkeys(position)) for position in zip(*labels)]
    for sources in product(*tables):
        terms = image(sources).items()
        if not terms:
            continue
        rows = [table[s] for table, s in zip(tables, sources)]
        targets = map(left.__getitem__, product(*(basis for basis, _ in rows)))
        reached = list(zip(targets, map(prod, product(*(values for _, values in rows)))))
        for key, v in terms:
            for acc, c in reached:
                acc[key] = acc.get(key, 0) + c * v
    return left


def _subtract_right_sides(sides: dict, g: EntryMatrix, space: str, image) -> None:
    """Subtract g Phi(t) from each label's side, keyed by t's lines, over the distinct target labels u; unreduced.

    Each label's image is read once and indexed by its targets, so g acts
    on each u once, and c times that is taken from every side whose
    image has the coefficient c on u.
    """
    reached: dict = {}
    for lines, acc in sides.items():
        for u, c in image(lines).items():
            reached.setdefault(u, []).append((acc, c))
    for u, accs in reached.items():
        for key, v in _line_images(g, space, u):
            for acc, c in accs:
                acc[key] = acc.get(key, 0) - c * v


def equivariance_counterexample(shape, max_entry: int, g: EntryMatrix, which: str):
    """First basis label where the map fails to commute with the action, or None.

    Both sides are taken over Z, one added and one subtracted in a single
    dict, which the check reduces into the ring when it is not exactly
    zero (see the module docstring).
    """
    shape = check_partition(shape)
    if g.size < max_entry:
        raise InputError("entry matrix too small for the alphabet")
    kind, space, target, image = _map(which)
    ring = g.ring
    labels = enumerate_tableaux(shape, max_entry, kind)
    sides = _left_sides(_basis_lines(shape, max_entry, kind, space), g, space, image)
    _subtract_right_sides(sides, g, target.space, image)
    for t, (lines, difference) in zip(labels, sides.items()):
        if any(difference.values()) and any(map(ring.normalize, difference.values())):
            rhs = _functorial_terms(image(lines).items(), g, target.space, {})
            lhs = {key: c + rhs.get(key, 0) for key, c in difference.items()}
            lhs, rhs = (target._on_lines(ring, shape, side).to_json() for side in (lhs, rhs))
            return {"tableau": t.to_json(), "lhs": lhs, "rhs": rhs}
    return None


def equivariance_check(shape, max_entry: int, g: EntryMatrix, which: str) -> bool:
    return equivariance_counterexample(shape, max_entry, g, which) is None
