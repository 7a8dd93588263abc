"""Place permutations of a Young diagram and the coset sums built on them.

Permutations act on boxes on the right; a tableau entry at box b moves to
box b.sigma.  The Garnir, dual Garnir and star relations are all sums over
the left cosets of S_A x S_B in S_{A|B} for two box sets A and B.  The
Garnir and star relations walk those cosets with one enumerator,
:func:`shuffles`, which writes each |A|-subset of the entries on A | B
into A and the rest into B and reports the sign of that move.  The dual
Garnir relations need one term per row class only, and
:func:`row_classes` lists the classes directly, one per distinct
sub-multiset of the entries that goes into A.  Both run on a label's
lines and build no tableau.  Row orbits are listed as distinct tableaux,
never as group elements, and every stabilizer order is one
:func:`stabilizer_order`, the product of the factorials of the
multiplicities.  Every such relation, whatever its kind, is one
:class:`Relation`: a tableau, two box sets and the element they label.
:class:`PlacePermutation`, the coset representatives of
:func:`left_coset_reps` and a brute-force double-coset enumerator for small
box sets are kept as oracles for those constructions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations, product
from math import comb, factorial, prod

from .coeffs import InputError
from .tableaux import Tableau, check_partition, diagram_boxes, permutation_sign


def multiset_permutations(items):
    """Distinct permutations of a multiset, in lexicographic order."""
    seq = sorted(items)
    n = len(seq)
    if n == 0:
        yield ()
        return
    while True:
        yield tuple(seq)
        i = n - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1 :] = reversed(seq[i + 1 :])


def _box_index(shape) -> dict[tuple[int, int], int]:
    return {b: i for i, b in enumerate(diagram_boxes(shape))}


class PlacePermutation:
    """A bijection of the boxes of one Young diagram."""

    __slots__ = ("shape", "images")

    def __init__(self, shape, mapping: dict | None = None):
        self.shape = check_partition(shape)
        boxes = diagram_boxes(self.shape)
        if mapping is None:
            self.images = boxes
            return
        box_set = set(boxes)
        for src, dst in mapping.items():
            if src not in box_set or dst not in box_set:
                raise ValueError(f"box {src} -> {dst} outside the diagram of {self.shape}")
        images = tuple(mapping.get(b, b) for b in boxes)
        if len(set(images)) != len(images):
            raise ValueError("mapping is not a bijection of the diagram")
        self.images = images

    @classmethod
    def _from_images(cls, shape, images) -> "PlacePermutation":
        self = object.__new__(cls)
        self.shape = shape
        self.images = images
        return self

    @classmethod
    def identity(cls, shape) -> "PlacePermutation":
        return cls(shape)

    @classmethod
    def transposition(cls, shape, a, b) -> "PlacePermutation":
        return cls(shape, {a: b, b: a})

    @property
    def mapping(self) -> dict[tuple[int, int], tuple[int, int]]:
        return dict(zip(diagram_boxes(self.shape), self.images))

    @property
    def sign(self) -> int:
        index = _box_index(self.shape)
        return permutation_sign([index[b] for b in self.images])

    def then(self, other: "PlacePermutation") -> "PlacePermutation":
        """Composite: apply self first, then other."""
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        index = _box_index(self.shape)
        images = tuple(other.images[index[b]] for b in self.images)
        return PlacePermutation._from_images(self.shape, images)

    def inverse(self) -> "PlacePermutation":
        boxes = diagram_boxes(self.shape)
        inv = {dst: src for src, dst in zip(boxes, self.images)}
        return PlacePermutation._from_images(self.shape, tuple(inv[b] for b in boxes))

    def act(self, t: Tableau) -> Tableau:
        """Right action: the entry in box b moves to box b.self."""
        if t.shape != self.shape:
            raise ValueError("shape mismatch")
        grid = [[0] * k for k in self.shape]
        boxes = diagram_boxes(self.shape)
        for (i, j), (ni, nj) in zip(boxes, self.images):
            grid[ni - 1][nj - 1] = t.rows[i - 1][j - 1]
        return Tableau._fresh(tuple(tuple(r) for r in grid), self.shape)

    def __eq__(self, other):
        return (
            isinstance(other, PlacePermutation)
            and self.shape == other.shape
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.shape, self.images))

    def __repr__(self):
        moved = {s: d for s, d in self.mapping.items() if s != d}
        return f"PlacePermutation({self.shape}, {moved})"


def act(t: Tableau, sigma: PlacePermutation) -> Tableau:
    return sigma.act(t)


# ---------------------------------------------------------------------------
# row orbits and stabilizer orders


def row_orbit(t: Tableau) -> tuple[Tableau, ...]:
    """The distinct tableaux obtained by permuting each row of t independently."""
    per_row = [tuple(multiset_permutations(row)) for row in t.rows]
    shape = t.shape
    return tuple(Tableau._fresh(rows, shape) for rows in product(*per_row))


def stabilizer_order(values) -> int:
    """Order of the stabilizer of ``values`` under permutation: the product of the factorials of its multiplicities."""
    return prod(map(factorial, Counter(values).values()))


def row_stabilizer_order(t: Tableau) -> int:
    """Order of the row-preserving stabilizer of t: the product of its rows' stabilizer orders."""
    return prod(map(stabilizer_order, t.rows))


def _split_row_stabilizer_order(t: Tableau, members: frozenset) -> int:
    """Order of the row stabilizer of t intersected with the box-set split.

    Counts the row-preserving permutations fixing t that also preserve the
    set ``members`` (and its complement): within each row they permute the
    boxes holding one value on one side of the split among themselves, so
    the order is the product over the rows of the stabilizer order of the
    (value, side) pairs.
    """
    return prod(
        stabilizer_order([(v, (i, j) in members) for j, v in enumerate(row, 1)])
        for i, row in enumerate(t.rows, 1)
    )


def class_index(t: Tableau, members: frozenset) -> int:
    """Index of the split row stabilizer inside the full row stabilizer of t."""
    return row_stabilizer_order(t) // _split_row_stabilizer_order(t, members)


# ---------------------------------------------------------------------------
# two-line box-set sums


def check_line_label(t: Tableau, box_a: frozenset, box_b: frozenset, rows: bool) -> None:
    """Validate a Garnir label (A, B in two columns) or, with ``rows``, a dual Garnir label.

    A and B must be nonempty sets of boxes of t, each within one line (row
    or column), with A's line before B's; |A| + |B| must exceed the length
    of A's line.
    """
    axis, line = (0, "row") if rows else (1, "column")
    shape = t.shape
    if not all(1 <= i <= len(shape) and 1 <= j <= shape[i - 1] for i, j in box_a | box_b):
        raise InputError("box sets lie outside the diagram")
    if not box_a or not box_b:
        raise InputError("box sets A and B must be nonempty")
    lines_a, lines_b = {b[axis] for b in box_a}, {b[axis] for b in box_b}
    if len(lines_a) != 1 or len(lines_b) != 1:
        raise InputError(f"each box set must lie within a single {line}")
    (line_a,), (line_b,) = lines_a, lines_b
    if not line_a < line_b:
        raise InputError(f"box set A must lie in an earlier {line} than B")
    length = shape[line_a - 1] if rows else sum(1 for p in shape if p >= line_a)
    if len(box_a) + len(box_b) <= length:
        kind = "dual Garnir" if rows else "Garnir"
        raise InputError(f"invalid {kind} label: |A| + |B| must exceed the length of A's {line}")


def _written(lines: tuple, boxes, values) -> tuple:
    """``lines`` with ``values`` written into ``boxes``, in order; the box (k, p) is entry p of line k."""
    grid = [list(line) for line in lines]
    for (k, p), v in zip(boxes, values):
        grid[k - 1][p - 1] = v
    return tuple(map(tuple, grid))


def shuffles(lines: tuple, box_a: frozenset, box_b: frozenset):
    """A label's lines acted on by one representative per left coset of S_A x S_B in S_{A|B}, with its sign.

    The box (k, p) is entry p of line k: as it is on rows, transposed on
    columns.  The positions are the boxes of A | B in box order, each
    holding its entry.  For each |A|-subset S of the positions, in
    lexicographic order, the entries on S go into A and the others into B,
    each in box order: on rows, the filling of A | B by the representative
    :func:`left_coset_reps` picks for S.
    """
    union = sorted(box_a | box_b)
    values = [lines[k - 1][p - 1] for k, p in union]
    targets = sorted(box_a) + sorted(box_b)
    # Read as a word in the positions, S followed by the rest is a permutation
    # of sign (-1)^(sum(S) - C(|A|, 2)), and likewise A's positions followed
    # by B's.  The box permutation sends the first word onto the second, so
    # its sign is (-1)^(sum(S) + sum of A's positions).
    parity = sum(n for n, b in enumerate(union) if b in box_a)
    k = len(union)
    for chosen in combinations(range(k), len(box_a)):
        into = [values[n] for n in chosen] + [values[n] for n in range(k) if n not in chosen]
        yield _written(lines, targets, into), -1 if (parity + sum(chosen)) % 2 else 1


def _sub_multisets(values: tuple, k: int):
    """Each distinct k-element sub-multiset of the sorted ``values``, with the rest.

    Both come as ascending tuples, in lexicographic order of the first.
    """
    if not values:
        yield (), ()
        return
    v = values[0]
    count = values.count(v)
    later = values[count:]
    for c in range(min(k, count), max(0, k - len(later)) - 1, -1):
        for chosen, rest in _sub_multisets(later, k - c):
            yield (v,) * c + chosen, (v,) * (count - c) + rest


def _split_weight(row: tuple, part: tuple) -> int:
    """prod over values v of C(copies of v in ``row``, copies of v in ``part``)."""
    weight = 1
    for v in set(part):
        weight *= comb(row.count(v), part.count(v))
    return weight


def row_classes(rows: tuple, box_a: frozenset, box_b: frozenset):
    """One (entries into A, entries into B, class, weight) per row class of the dual Garnir label.

    The classes are those reached by rearranging the entries on A | B of
    the label with these ``rows``.  A class is fixed by the multiset of
    entries written into A: these run over the distinct |A|-sub-multisets
    of the entries on A | B, ascending and in lexicographic order, and the
    rest go into B, ascending.  Only A's row and B's row change, so the
    class, the rows each sorted, is rewritten in those two rows only.  The
    weight is :func:`class_index` of any member, prod_v C(copies of v in
    the row, copies of v written into A) in A's row times the same in B's
    row, as every other box lies outside A | B.  The label is not
    validated.
    """
    (ia,), (ib,) = {i for i, _ in box_a}, {i for i, _ in box_b}
    fixed_a = tuple(v for j, v in enumerate(rows[ia - 1], 1) if (ia, j) not in box_a)
    fixed_b = tuple(v for j, v in enumerate(rows[ib - 1], 1) if (ib, j) not in box_b)
    values = tuple(sorted(rows[i - 1][j - 1] for i, j in box_a | box_b))
    sorted_rows = [tuple(sorted(row)) for row in rows]
    for into_a, into_b in _sub_multisets(values, len(box_a)):
        sorted_rows[ia - 1] = row_a = tuple(sorted(fixed_a + into_a))
        sorted_rows[ib - 1] = row_b = tuple(sorted(fixed_b + into_b))
        weight = _split_weight(row_a, into_a) * _split_weight(row_b, into_b)
        yield into_a, into_b, tuple(sorted_rows), weight


def sab_orbit_row_classes(t: Tableau, box_a: frozenset, box_b: frozenset) -> list[tuple[Tableau, int]]:
    """Row classes of the tableaux reachable by permuting the boxes of A | B.

    Returns, in the order of the classes, the least reachable member of
    each class, which has the entries written into A and into B each
    ascending, together with the index of its split row stabilizer inside
    its full row stabilizer; the index is the same for every member.
    """
    check_line_label(t, box_a, box_b, rows=True)
    targets = sorted(box_a) + sorted(box_b)
    classes = sorted(row_classes(t.rows, box_a, box_b), key=lambda found: found[2])  # as the class tableaux sort
    return [(Tableau._fresh(_written(t.rows, targets, a + b), t.shape), weight) for a, b, _, weight in classes]


def sab_cosets_star(t: Tableau, box_a: frozenset, box_b: frozenset) -> list[tuple[Tableau, int]]:
    """Multiset of tableaux reached by one representative per left coset.

    The tableaux of :func:`shuffles` on t's rows, tallied with multiplicities.
    """
    check_line_label(t, box_a, box_b, rows=True)
    return sorted(Counter(Tableau._fresh(rows, t.shape) for rows, _ in shuffles(t.rows, box_a, box_b)).items())


def left_coset_reps(shape, box_a: frozenset, box_b: frozenset):
    """One representative per left coset of S_A x S_B in S_{A|B}.

    Cosets correspond to the subsets of A | B flowing into A; the chosen
    representative maps that subset and its complement order-preservingly.
    Oracle for :func:`shuffles`.
    """
    union = tuple(sorted(box_a | box_b))
    a_sorted = tuple(sorted(box_a))
    b_sorted = tuple(sorted(box_b))
    reps = []
    for chosen in combinations(union, len(a_sorted)):
        rest = tuple(b for b in union if b not in set(chosen))
        mapping = dict(zip(chosen, a_sorted))
        mapping.update(zip(rest, b_sorted))
        reps.append(PlacePermutation(shape, mapping))
    return reps


# ---------------------------------------------------------------------------
# brute-force double cosets (oracle path)


@cache
def _positional_double_coset_reps(
    k: int, a_positions: frozenset, pattern: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Min representatives of the double cosets stab(pattern) \\ S_k / S_A x S_B.

    Everything is positional: permutations p of range(k) send the value at
    position i to position p[i]; ``pattern`` is the tuple of entry classes
    and ``a_positions`` the positions forming A.
    """
    perms = list(permutations(range(k)))

    def act_pattern(p):
        out = [0] * k
        for i, v in enumerate(pattern):
            out[p[i]] = v
        return tuple(out)

    def mul(p, q):  # apply p, then q
        return tuple(q[p[i]] for i in range(k))

    stab = [p for p in perms if act_pattern(p) == pattern]
    side = [p for p in perms if all((p[i] in a_positions) == (i in a_positions) for i in range(k))]
    remaining = set(perms)
    reps = []
    while remaining:
        g = min(remaining)
        coset = {mul(mul(h, g), s) for h in stab for s in side}
        reps.append(min(coset))
        remaining -= coset
    return tuple(sorted(reps))


def double_coset_reps(t: Tableau, box_a: frozenset, box_b: frozenset) -> list[PlacePermutation]:
    """Brute-force double coset representatives for the two-row label (t, A, B).

    Refuses box sets with more than six boxes; this path exists to validate
    the orbit construction, not to compute with.
    """
    check_line_label(t, box_a, box_b, rows=True)
    union = tuple(sorted(box_a | box_b))
    k = len(union)
    if k > 6:
        raise InputError("double-coset oracle refuses |A| + |B| > 6")
    entries = [t.entry(i, j) for i, j in union]
    ids = {v: n for n, v in enumerate(sorted(set(entries)))}
    pattern = tuple(ids[v] for v in entries)
    a_positions = frozenset(n for n, b in enumerate(union) if b in box_a)
    reps = _positional_double_coset_reps(k, a_positions, pattern)
    out = []
    for p in reps:
        mapping = {union[i]: union[p[i]] for i in range(k)}
        out.append(PlacePermutation(t.shape, mapping))
    return out


def boxset_to_json(boxes: frozenset) -> dict:
    return {"boxes": [list(b) for b in sorted(boxes)]}


@dataclass(frozen=True)
class Relation:
    """A two-line relation: its kind, its label (t, A, B) and the element it labels.

    The kind is "garnir" (A and B in two columns, the element a column
    tabloid element), or "dual_garnir", "dual_snake", "star" or "star_star"
    (A and B in two rows, the element a :class:`~weylkit.powers.SymLowerElement`).
    A dual snake also keeps its (i, j, j').
    """

    kind: str
    tableau: Tableau
    box_a: frozenset
    box_b: frozenset
    element: object
    snake: tuple[int, int, int] | None = None

    def to_json(self) -> dict:
        """The relation as the CLI prints it and as a failed check reports it."""
        out = {
            "kind": self.kind,
            "tableau": self.tableau.to_json(),
            "boxA": boxset_to_json(self.box_a),
            "boxB": boxset_to_json(self.box_b),
        }
        if self.snake is not None:
            i, j, jp = self.snake
            out.update(row=i, cols=[j, jp])
        out["element"] = self.element.to_json()
        return out
