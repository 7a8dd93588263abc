"""Place-permutation group oracles: whole groups listed element by element.

Factorially many elements, so test scale only.  The library never lists a
group; the tests compare its orbit and coset constructions with these.
"""

from itertools import permutations, product

from weylkit.places import PlacePermutation
from weylkit.tableaux import check_partition, diagram_boxes


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
