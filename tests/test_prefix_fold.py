"""The basis maps fold a basis label's last line into the cached image of the label without it.

``powers._wedge_of_rsym_int`` on a label with two or more rows, all
sorted, and ``schur._polytabloid_int`` on one with two or more columns,
all strictly increasing, start the line kernel from the cached image of
the label without its last line, and fold that line alone.  The oracles
here are the bodies the two maps had before: every line folded from empty
target lines.  Any other label is folded whole, so it leaves one cache
entry and no prefix.
"""

from itertools import product

import pytest

import weylkit.powers as powers
import weylkit.schur as schur
from weylkit.powers import line_products
from weylkit.schur import polytabloid
from weylkit.tableaux import COLUMN_STANDARD, ROW_SEMISTANDARD, enumerate_tableaux, partitions_up_to, sort_line
from weylkit.tableaux import Tableau as T
from weylkit.weyl import copolytabloid

from test_duality import mutated

KERNELS = (powers._wedge_of_rsym_int, schur._polytabloid_int)


@pytest.fixture(autouse=True)
def cold_kernels():
    """Each test starts with both basis maps' caches empty, and leaves them so."""
    for kernel in KERNELS:
        kernel.cache_clear()
    yield
    for kernel in KERNELS:
        kernel.cache_clear()


def whole_wedge(rows):
    """The wedge projection of the row symmetrisation, every row folded from empty columns."""
    return line_products({((),) * len(rows[0]) if rows else (): 1}, [((row,), (1,)) for row in rows], alternating=True)


def whole_polytabloid(columns):
    """The polytabloid, every column sorted with its sign and folded from empty rows."""
    sorted_cols = [sort_line(col) for col in columns]
    if None in sorted_cols:
        return {}
    images = [((col,), (sign,)) for sign, col in sorted_cols]
    return line_products({((),) * len(columns[0]) if columns else (): 1}, images, alternating=False)


def one_line_labels():
    """Every line of 1 to 4 entries in {1..4}, sorted or not."""
    return [(word,) for n in range(1, 5) for word in product(range(1, 5), repeat=n)]


# map name: (kernel, its whole-fold oracle, the kind of its basis labels, a label's own lines, the prefix call)
MAPS = {
    "wedge": (powers._wedge_of_rsym_int, whole_wedge, ROW_SEMISTANDARD, "rows", "_wedge_of_rsym_int(rows[:-1])"),
    "polytabloid": (
        schur._polytabloid_int, whole_polytabloid, COLUMN_STANDARD, "columns", "_polytabloid_int(columns[:-1])"
    ),
}


def mismatches(kernel, oracle, kind, own):
    """The labels, basis labels with |λ| <= 5 and m <= 4 then the empty and one-line ones, whose images differ."""
    labels = [getattr(t, own) for shape in partitions_up_to(5) for t in enumerate_tableaux(shape, 4, kind)]
    labels += [(), *one_line_labels()]
    return [lines for lines in labels if kernel(lines) != oracle(lines)]


@pytest.mark.parametrize("name", sorted(MAPS))
def test_every_cached_image_is_the_whole_fold(name):
    kernel, oracle, kind, own, _ = MAPS[name]
    assert mismatches(kernel, oracle, kind, own) == []
    assert kernel.cache_info().hits > 0  # basis labels read their prefixes from the cache


@pytest.mark.parametrize("name", sorted(MAPS))
def test_a_last_step_from_the_empty_state_is_caught(name):
    kernel, oracle, kind, own, prefix = MAPS[name]
    mutant = mutated(kernel, prefix, f"{{((),) * len({own}[0]): 1}}")
    wrong = mismatches(mutant, oracle, kind, own)
    assert wrong
    assert min(map(len, wrong)) >= 2  # only a label with a prefix takes the last step


def test_a_label_that_is_not_a_basis_label_leaves_one_entry():
    copolytabloid(T([[2, 1], [3]]))
    assert powers._wedge_of_rsym_int.cache_info().currsize == 1
    polytabloid(T([[2, 1], [1, 3]]))
    assert schur._polytabloid_int.cache_info().currsize == 1
    assert polytabloid(T([[2, 1], [2, 3]])).is_zero  # a repeat in a sorted column: no prefix either
    assert schur._polytabloid_int.cache_info().currsize == 2


BASIS_LABELS = [[[1, 2]], [[1, 1], [2, 3]], [[1, 2, 2], [2, 3], [3]], [[1, 3, 4], [2, 4]], [[1], [2], [3], [4]]]


@pytest.mark.parametrize("rows", BASIS_LABELS, ids=str)
def test_a_cold_basis_label_with_k_lines_leaves_k_entries(rows):
    # one per prefix, its own included; a label's k lines bound what it adds
    t = T(rows)
    assert t.is_row_semistandard and t.is_column_standard
    copolytabloid(t)
    assert powers._wedge_of_rsym_int.cache_info().currsize == len(t.rows)
    polytabloid(t)
    assert schur._polytabloid_int.cache_info().currsize == len(t.columns)
