"""Partitions, Young diagrams, tableaux, and the row/column orders.

Shapes are plain tuples of weakly decreasing positive ints.  Boxes are
1-based (row, col) pairs.  A tableau is an immutable filling of a shape by
positive integers; the entry alphabet is always an initial segment {1..m}
of the naturals, with m supplied where it matters (enumeration, bases).

The comparison functions implement the multiset column/row orders on
same-shape tableaux: find the largest entry whose per-column (per-row)
content multisets differ, then the smallest column (row) where it differs;
the tableau holding that entry there is the greater one.  Tableaux whose
column (row) contents all agree are incomparable.
"""

from __future__ import annotations

import enum
from functools import cache
from itertools import chain, combinations, combinations_with_replacement, product
from math import comb
from operator import attrgetter

from .coeffs import InputError


# ---------------------------------------------------------------------------
# partitions


def check_partition(parts) -> tuple[int, ...]:
    """Validate and return a partition as a tuple."""
    shape = tuple(parts)
    for p in shape:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise InputError(f"invalid partition {shape}: parts must be positive integers")
    for a, b in zip(shape, shape[1:]):
        if a < b:
            raise InputError(f"invalid partition {shape}: parts must weakly decrease")
    return shape


def conjugate(shape) -> tuple[int, ...]:
    """The transposed partition: entry i counts the parts >= i+1."""
    shape = check_partition(shape)
    if not shape:
        return ()
    return tuple(sum(1 for p in shape if p >= i) for i in range(1, shape[0] + 1))


def diagram_boxes(shape) -> tuple[tuple[int, int], ...]:
    """All boxes (i, j), 1-based, in row-major order."""
    return tuple((i, j) for i, row_len in enumerate(shape, 1) for j in range(1, row_len + 1))


def partitions_of(n: int):
    """Partitions of n in lexicographically decreasing order."""

    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    yield from gen(n, n)


def partitions_up_to(n: int):
    """All nonempty partitions of size 1..n."""
    for k in range(1, n + 1):
        yield from partitions_of(k)


# ---------------------------------------------------------------------------
# tableaux


class Tableau:
    """An immutable filling of a Young diagram with entries in {1, 2, ...}."""

    __slots__ = ("rows", "shape", "_hash")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        shape = tuple(len(r) for r in rows)
        check_partition(shape)
        for row in rows:
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                    raise InputError(f"tableau entries must be positive integers, got {v!r}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_hash", hash(rows))

    @classmethod
    def _fresh(cls, rows: tuple[tuple[int, ...], ...], shape: tuple[int, ...]) -> "Tableau":
        """Internal constructor skipping validation: ``rows`` already canonical, ``shape`` their lengths."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_hash", hash(rows))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    @property
    def size(self) -> int:
        return sum(self.shape)

    @property
    def max_entry(self) -> int:
        return max((max(r) for r in self.rows), default=0)

    def entry(self, i: int, j: int) -> int:
        """Entry in box (i, j), 1-based."""
        return self.rows[i - 1][j - 1]

    @property
    def reading_word(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(self.rows))

    @property
    def sort_key(self):
        """Deterministic total order: reading word, then shape."""
        return (self.reading_word, self.shape)

    def column_entries(self, j: int) -> tuple[int, ...]:
        """Entries of column j, top to bottom."""
        return tuple(row[j - 1] for row in self.rows if len(row) >= j)

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Entries of every column, top to bottom."""
        rows = self.rows
        return tuple([tuple([row[j] for row in rows if len(row) > j]) for j in range(len(rows[0]))]) if rows else ()

    @property
    def is_row_semistandard(self) -> bool:
        return all(all(a <= b for a, b in zip(row, row[1:])) for row in self.rows)

    @property
    def is_column_standard(self) -> bool:
        for upper, lower in zip(self.rows, self.rows[1:]):
            if any(a >= b for a, b in zip(upper, lower)):
                return False
        return True

    @property
    def is_semistandard(self) -> bool:
        return self.is_row_semistandard and self.is_column_standard

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.sort_key < other.sort_key

    def __repr__(self):
        return f"Tableau({[list(r) for r in self.rows]})"

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, obj) -> "Tableau":
        """The tableau of a list of rows, or of an object with ``rows`` and optionally ``shape``."""
        rows = obj.get("rows") if isinstance(obj, dict) else obj
        if not isinstance(rows, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in rows):
            raise InputError('expected a list of rows, or an object with "rows": a list of rows')
        t = cls(rows)
        if isinstance(obj, dict) and "shape" in obj:
            shape = obj["shape"]
            # True == 1 and 2.0 == 2, so each part's type is checked as well as its value
            if not isinstance(shape, (list, tuple)) or tuple(shape) != t.shape or any(type(p) is not int for p in shape):
                raise InputError("tableau shape field disagrees with rows")
        return t


# ---------------------------------------------------------------------------
# orders


class OrderVerdict(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def line_order_key(lines, max_entry: int) -> tuple:
    """Sort key whose natural order agrees with the row order on the rows of labels of one shape.

    Scans entry values downward and lines first to last, recording content
    counts; lexicographic comparison of these vectors finds exactly the
    largest differing entry and the first line where it differs.  On the
    columns it gives the column order.
    """
    return tuple([line.count(v) for v in range(max_entry, 0, -1) for line in lines])


def row_order_key(t: Tableau, max_entry: int) -> tuple:
    """Sort key whose natural order agrees with the row order on one shape."""
    return line_order_key(t.rows, max_entry)


def column_order_key(t: Tableau, max_entry: int) -> tuple:
    """Column-order analogue of :func:`row_order_key`."""
    return line_order_key(t.columns, max_entry)


def _compare_by_key(order_key, t: Tableau, u: Tableau) -> OrderVerdict:
    """Verdict of t against u from their keys; equal keys (equal line contents) are incomparable."""
    if t.shape != u.shape:
        raise ValueError("shape mismatch")
    m = max(t.max_entry, u.max_entry)
    a, b = order_key(t, m), order_key(u, m)
    if a == b:
        return OrderVerdict.INCOMPARABLE
    return OrderVerdict.LESS if a < b else OrderVerdict.GREATER


def compare_columns(t: Tableau, u: Tableau) -> OrderVerdict:
    """Column order verdict for t relative to u (LESS means t < u)."""
    return _compare_by_key(column_order_key, t, u)


def compare_rows(t: Tableau, u: Tableau) -> OrderVerdict:
    """Row order verdict for t relative to u (LESS means t < u)."""
    return _compare_by_key(row_order_key, t, u)


# ---------------------------------------------------------------------------
# sorting within rows / columns


def sort_rows(t: Tableau) -> Tableau:
    """Canonical representative of t's row class: each row sorted ascending."""
    return Tableau._fresh(tuple(tuple(sorted(row)) for row in t.rows), t.shape)


def permutation_sign(seq) -> int:
    """Sign of the permutation that sorts ``seq``, a sequence of distinct values.

    That is (-1) to the number of inversions, the pairs i < j with
    seq[i] > seq[j]; for a permutation of range(n), its own sign.
    """
    inversions = sum(a > b for a, b in combinations(seq, 2))
    return -1 if inversions % 2 else 1


def sort_line(line):
    """``(sign, line sorted ascending)``, or ``None`` when the line repeats an entry.

    The sign is that of the sorting permutation, so a line read as a wedge
    of its entries equals sign times its sorted wedge, and is zero with a
    repeat.
    """
    if len(set(line)) != len(line):
        return None
    return permutation_sign(line), tuple(sorted(line))


def from_columns(shape, cols) -> Tableau:
    """The tableau of the shape with the given columns, unchecked."""
    rows = tuple([tuple([col[i] for col in cols[:row_len]]) for i, row_len in enumerate(shape)])
    return Tableau._fresh(rows, shape)


def from_word(shape, word: tuple) -> Tableau:
    """The tableau of the shape whose reading word is the tuple ``word``, unchecked."""
    rows = []
    pos = 0
    for row_len in shape:
        rows.append(word[pos : pos + row_len])
        pos += row_len
    return Tableau._fresh(tuple(rows), shape)


def sort_columns(t: Tableau):
    """Sort every column ascending, tracking the sign of the permutation used.

    Returns ``(sign, tableau)``, or ``None`` when some column repeats an
    entry (so no column-standard rearrangement exists and the alternating
    class collapses to zero).
    """
    sign = 1
    cols = []
    for col in t.columns:
        sorted_ = sort_line(col)
        if sorted_ is None:
            return None
        sign *= sorted_[0]
        cols.append(sorted_[1])
    return sign, from_columns(t.shape, cols)


# ---------------------------------------------------------------------------
# enumeration

ALL = "all"
ROW_SEMISTANDARD = "row_semistandard"
COLUMN_STANDARD = "column_standard"
SEMISTANDARD = "semistandard"

_CLASSES = (ALL, ROW_SEMISTANDARD, COLUMN_STANDARD, SEMISTANDARD)


def _iter_all(shape, m):
    for word in product(range(1, m + 1), repeat=sum(shape)):
        yield from_word(shape, word)


def _iter_row_semistandard(shape, m):
    per_row = [list(combinations_with_replacement(range(1, m + 1), k)) for k in shape]
    for rows in product(*per_row):
        yield Tableau._fresh(rows, shape)


def _iter_column_standard(shape, m):
    cols_shape = conjugate(shape)
    per_col = [list(combinations(range(1, m + 1), k)) for k in cols_shape]
    for cols in product(*per_col):
        yield from_columns(shape, cols)


def _iter_semistandard(shape, m):
    boxes = diagram_boxes(shape)
    n = len(boxes)
    grid: list[list[int]] = [[0] * k for k in shape]

    def fill(pos):
        if pos == n:
            yield Tableau._fresh(tuple(tuple(r) for r in grid), shape)
            return
        i, j = boxes[pos]
        lo = 1
        if j > 1:
            lo = max(lo, grid[i - 1][j - 2])  # weakly increasing along the row
        if i > 1:
            lo = max(lo, grid[i - 2][j - 1] + 1)  # strictly increasing down the column
        for v in range(lo, m + 1):
            grid[i - 1][j - 1] = v
            yield from fill(pos + 1)
        grid[i - 1][j - 1] = 0

    yield from fill(0)


def _check_request(shape, max_entry: int, kind: str) -> tuple[int, ...]:
    """The shape as a tuple, once the shape, the alphabet and the class are valid."""
    shape = check_partition(shape)
    if not isinstance(max_entry, int) or isinstance(max_entry, bool):
        raise InputError(f"max_entry must be an integer, got {max_entry!r}")
    if max_entry < 1:
        raise InputError("max_entry must be >= 1")
    if kind not in _CLASSES:
        raise InputError(f"unknown tableau class {kind!r}")
    return shape


@cache
def enumerate_tableaux(shape, max_entry: int, kind: str = ALL) -> tuple[Tableau, ...]:
    """All tableaux of the shape with entries in {1..max_entry}, in reading-word order.

    Every generator but the column-standard one yields that order already:
    it fills the boxes, or picks each row's entries, first to last in
    increasing order.  The column-standard labels are sorted by their rows,
    which on one shape compare as their reading words do.
    """
    shape = _check_request(shape, max_entry, kind)
    gen = {
        ALL: _iter_all,
        ROW_SEMISTANDARD: _iter_row_semistandard,
        COLUMN_STANDARD: _iter_column_standard,
        SEMISTANDARD: _iter_semistandard,
    }[kind]
    out = gen(shape, max_entry)
    return tuple(sorted(out, key=attrgetter("rows")) if kind == COLUMN_STANDARD else out)


def count_tableaux(shape, max_entry: int, kind: str = ALL) -> int:
    """Cardinality of :func:`enumerate_tableaux`, by a formula and without enumerating.

    The semistandard count is Stanley's hook-content formula: the product
    over the boxes (i, j) of (max_entry + j - i) / hook(i, j).
    """
    shape = _check_request(shape, max_entry, kind)
    if kind == ALL:
        return max_entry ** sum(shape)
    if kind == ROW_SEMISTANDARD:
        out = 1
        for k in shape:
            out *= comb(k + max_entry - 1, k)
        return out
    if kind == COLUMN_STANDARD:
        out = 1
        for k in conjugate(shape):
            out *= comb(max_entry, k)
        return out
    columns = conjugate(shape)
    contents = hooks = 1
    for i, row_len in enumerate(shape):
        for j in range(row_len):
            contents *= max_entry + j - i
            hooks *= row_len - j + columns[j] - i - 1
    return contents // hooks
