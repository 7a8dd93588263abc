"""Place-permutation oracles: whole groups and arrangements listed one by one.

Factorially many elements, so test scale only.  The library never lists a
group; the tests compare its orbit and coset constructions with these.
"""

from itertools import permutations, product

from weylkit.coeffs import ZZ, LinComb
from weylkit.places import PlacePermutation, class_index, multiset_permutations, shuffles
from weylkit.tableaux import Tableau, check_partition, diagram_boxes, sort_columns, sort_rows


def all_place_permutations(shape):
    """Every bijection of the diagram (factorially many; test scale only)."""
    shape = check_partition(shape)
    boxes = diagram_boxes(shape)
    for images in permutations(boxes):
        yield PlacePermutation._from_images(shape, images)


def _per_line_permutations(lines, shape):
    """Place permutations that independently permute each given set of boxes."""
    per_line = [list(permutations(line)) for line in lines]
    for images_by_line in product(*per_line):
        mapping = {}
        for line, images in zip(lines, images_by_line):
            mapping.update(zip(line, images))
        yield PlacePermutation(shape, mapping)


def row_preserving_permutations(shape):
    shape = check_partition(shape)
    rows = [tuple((i, j) for j in range(1, k + 1)) for i, k in enumerate(shape, 1)]
    yield from _per_line_permutations(rows, shape)


def column_preserving_permutations(shape):
    shape = check_partition(shape)
    ncols = shape[0] if shape else 0
    cols = [
        tuple((i, j) for i in range(1, len(shape) + 1) if shape[i - 1] >= j)
        for j in range(1, ncols + 1)
    ]
    yield from _per_line_permutations(cols, shape)


def _fill_boxes(t, boxes, values):
    grid = [list(r) for r in t.rows]
    for (i, j), v in zip(boxes, values):
        grid[i - 1][j - 1] = v
    return Tableau._fresh(tuple(tuple(r) for r in grid), t.shape)


def full_arrangement_row_classes(t, box_a, box_b):
    """Row classes of every rearrangement of the entries of t on A | B.

    Lists all the distinct arrangements, groups them by row class, and
    returns per class (in class order) its least member and that member's
    split row stabilizer index.
    """
    union = tuple(sorted(box_a | box_b))
    members = frozenset(union)
    entries = [t.entry(i, j) for i, j in union]
    classes = {}
    for arrangement in multiset_permutations(entries):
        u = _fill_boxes(t, union, arrangement)
        classes.setdefault(sort_rows(u), []).append(u)
    out = []
    for canon in sorted(classes, key=lambda s: s.sort_key):
        rep = min(classes[canon], key=lambda s: s.sort_key)
        out.append((rep, class_index(rep, members)))
    return out


def wedge_projection(terms):
    """The signed tableaux ``terms`` in the exterior power over Z: columns sorted with their sign, zero on a repeat."""
    out = {}
    for u, c in terms:
        sorted_ = sort_columns(u)
        if sorted_ is not None:
            out[sorted_[1]] = out.get(sorted_[1], 0) + c * sorted_[0]
    return LinComb(ZZ, out)


def tableau_shuffles(t, box_a, box_b):
    """:func:`~weylkit.places.shuffles` on the rows of t, each term labelled as a tableau."""
    return [(Tableau._fresh(rows, t.shape), sign) for rows, sign in shuffles(t.rows, box_a, box_b)]


def shuffle_garnir(t, box_a, box_b):
    """The Garnir relation on (t, A, B) over Z: every coset term written out and column-sorted."""
    return wedge_projection(tableau_shuffles(t, box_a, box_b))


def shuffle_dual_garnir(t, box_a, box_b):
    """The dual Garnir relation on (t, A, B) over Z, from every coset term.

    With the entries on A | B sorted first, every coset term writes A and B
    ascending, so the terms landing in one row class are one tableau; each
    class is weighted by that tableau's split row stabilizer index.
    """
    union = sorted(box_a | box_b)
    ascending = _fill_boxes(t, union, sorted(t.entry(i, j) for i, j in union))
    members = frozenset(union)
    return LinComb(ZZ, {sort_rows(u): class_index(u, members) for u, _ in tableau_shuffles(ascending, box_a, box_b)})
