"""Polytabloids, Garnir relations, and the exact sequence they generate.

The polytabloid of a tableau is the signed sum of row tabloids over all
column rearrangements; it vanishes when a column repeats an entry.  Linear
extension of ``column tabloid -> polytabloid`` is a well-defined surjection
whose kernel is spanned by the Garnir relations: signed sums over coset
representatives mixing a column subset A with a later-column subset B once
|A| + |B| exceeds the first column's length.  ``verify_schur_ses`` checks
the rank bookkeeping of that kernel description on one instance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations, product

from .coeffs import ZZ, CoefficientRing, LinComb
from .linalg import leading_coefficient, rank_of_rows
from .places import boxset_to_json, left_coset_reps, permutation_parity
from .tableaux import (
    ALL,
    COLUMN_STANDARD,
    SEMISTANDARD,
    Tableau,
    check_partition,
    column_order_key,
    conjugate,
    diagram_boxes,
    enumerate_tableaux,
    sort_rows,
)
from .powers import ColumnTabloidElement, RowTabloidElement


class SizeCapExceeded(ValueError):
    pass


def _check_caps(shape, max_entry, size_cap, entry_cap):
    if size_cap is not None and sum(shape) > size_cap:
        raise SizeCapExceeded(f"size cap exceeded: |shape| = {sum(shape)} > {size_cap}")
    if entry_cap is not None and max_entry > entry_cap:
        raise SizeCapExceeded(f"size cap exceeded: entries = {max_entry} > {entry_cap}")


@cache
def _polytabloid_int(t: Tableau) -> LinComb:
    """Integer expansion of the polytabloid of t over row-tabloid labels."""
    ncols = t.shape[0] if t.shape else 0
    cols = [t.column_entries(j) for j in range(1, ncols + 1)]
    if any(len(set(col)) != len(col) for col in cols):
        return LinComb.zero(ZZ)
    signed_cols = []
    for col in cols:
        k = len(col)
        signed_cols.append(
            [(tuple(col[p[i]] for i in range(k)), permutation_parity(p)) for p in permutations(range(k))]
        )
    terms: dict[Tableau, int] = {}
    for combo in product(*signed_cols):
        sign = 1
        for _, s in combo:
            sign *= s
        rows = tuple(
            tuple(combo[j][0][i] for j in range(row_len)) for i, row_len in enumerate(t.shape)
        )
        label = sort_rows(Tableau._fresh(rows))
        terms[label] = terms.get(label, 0) + sign
    return LinComb(ZZ, terms)


def polytabloid(t: Tableau, ring: CoefficientRing = ZZ) -> RowTabloidElement:
    """Signed column-orbit sum of row tabloids; zero on repeated column entries."""
    lin = _polytabloid_int(t)
    if ring != ZZ:
        lin = lin.change_ring(ring)
    return RowTabloidElement(lin)


def apply_polytabloid_map(x: ColumnTabloidElement) -> RowTabloidElement:
    """Linear extension of column tabloid -> polytabloid."""
    pairs = ((c, _polytabloid_int(t)) for t, c in x.lin.items())
    return RowTabloidElement(LinComb.linear_combination(x.ring, pairs))


@dataclass(frozen=True)
class SchurRelation:
    tableau: Tableau
    box_a: frozenset
    box_b: frozenset
    element: ColumnTabloidElement


def _check_column_boxsets(t: Tableau, box_a: frozenset, box_b: frozenset):
    boxes = set(diagram_boxes(t.shape))
    if not (box_a <= boxes and box_b <= boxes):
        raise ValueError("box sets lie outside the diagram")
    if not box_a or not box_b:
        raise ValueError("box sets A and B must be nonempty")
    cols_a = {j for _, j in box_a}
    cols_b = {j for _, j in box_b}
    if len(cols_a) != 1 or len(cols_b) != 1:
        raise ValueError("each box set must lie within a single column")
    ja, jb = min(cols_a), min(cols_b)
    if not ja < jb:
        raise ValueError("box set A must lie in an earlier column than B")
    col_len = conjugate(t.shape)[ja - 1]
    if len(box_a) + len(box_b) <= col_len:
        raise ValueError("invalid Garnir label: |A| + |B| must exceed the length of A's column")
    return ja, jb


@cache
def _garnir_int(t: Tableau, box_a: frozenset, box_b: frozenset) -> LinComb:
    from .tableaux import sort_columns

    terms: dict[Tableau, int] = {}
    for rep in left_coset_reps(t.shape, box_a, box_b):
        u = rep.act(t)
        sorted_ = sort_columns(u)
        if sorted_ is None:
            continue
        sign, w = sorted_
        terms[w] = terms.get(w, 0) + rep.sign * sign
    return LinComb(ZZ, terms)


def garnir(t: Tableau, box_a: frozenset, box_b: frozenset, ring: CoefficientRing = ZZ) -> SchurRelation:
    """The signed coset-representative sum labelled by (t, A, B)."""
    _check_column_boxsets(t, box_a, box_b)
    lin = _garnir_int(t, box_a, box_b)
    if ring != ZZ:
        lin = lin.change_ring(ring)
    return SchurRelation(t, box_a, box_b, ColumnTabloidElement(lin))


def garnir_labels(shape):
    """All box-set pairs (A, B) admitting a Garnir relation on the shape."""
    shape = check_partition(shape)
    col_lens = conjugate(shape)
    ncols = len(col_lens)
    for ja in range(1, ncols):
        col_a = [(i, ja) for i in range(1, col_lens[ja - 1] + 1)]
        for jb in range(ja + 1, ncols + 1):
            col_b = [(i, jb) for i in range(1, col_lens[jb - 1] + 1)]
            for na in range(1, len(col_a) + 1):
                for nb in range(1, len(col_b) + 1):
                    if na + nb <= col_lens[ja - 1]:
                        continue
                    for sub_a in combinations(col_a, na):
                        for sub_b in combinations(col_b, nb):
                            yield frozenset(sub_a), frozenset(sub_b)


def _counterexample(rel: SchurRelation | None) -> dict | None:
    if rel is None:
        return None
    return {
        "tableau": rel.tableau.to_json(),
        "boxA": boxset_to_json(rel.box_a),
        "boxB": boxset_to_json(rel.box_b),
        "element": rel.element.to_json(),
    }


def _garnir_pivot(t: Tableau) -> tuple[frozenset, frozenset] | None:
    """Box sets (A, B) that straighten the first row descent t(i, j) > t(i, j+1).

    A runs down column j from row i and B down column j+1 to row i.  For a
    column-standard t every entry of A exceeds every entry of B, so each
    coset term but the identity moves a larger entry out of column j and
    lands strictly below t in the column order.
    """
    for i, row in enumerate(t.rows, 1):
        for j in range(1, len(row)):
            if row[j - 1] > row[j]:
                col_len = conjugate(t.shape)[j - 1]
                box_a = frozenset((r, j) for r in range(i, col_len + 1))
                box_b = frozenset((r, j + 1) for r in range(1, i + 1))
                return box_a, box_b
    return None


def verify_schur_ses(
    shape,
    max_entry: int,
    ring: CoefficientRing,
    size_cap: int | None = 5,
    entry_cap: int | None = 3,
) -> dict:
    """Check rank(Garnir span) + rank(polytabloid map) = dim of the exterior power.

    Also checks that every Garnir relation maps to zero, which combined with
    the rank identity pins the kernel exactly.  Over the integers the ranks
    are taken over the rationals, and the relation lattice is in addition
    shown to be a direct summand: for each column-standard label that is not
    semistandard, the Garnir relation on its first row descent must have
    coefficient +-1 on it and all its other labels strictly below it in the
    column order.
    """
    shape = check_partition(shape)
    _check_caps(shape, max_entry, size_cap, entry_cap)
    if not (ring.is_field or ring.kind == "z"):
        raise ValueError("verification needs a field or the integers")
    rank_ring = ring if ring.is_field else CoefficientRing.rationals()
    started = time.perf_counter()

    csyt = enumerate_tableaux(shape, max_entry, COLUMN_STANDARD)
    ssyt = enumerate_tableaux(shape, max_entry, SEMISTANDARD)
    rssyt_index: dict[Tableau, int] = {}
    csyt_index = {t: i for i, t in enumerate(csyt)}

    def row_index(label):
        if label not in rssyt_index:
            rssyt_index[label] = len(rssyt_index)
        return rssyt_index[label]

    image_rows = []
    for u in csyt:
        el = polytabloid(u, ring)
        image_rows.append({row_index(l): c for l, c in el.items()})
    rank_image = rank_of_rows(image_rows, rank_ring)

    def column_key(u):
        return column_order_key(u, max_entry)

    checks = []
    relation_rows = []
    bad = None
    pivots = 0
    broken = None  # a pivot relation that is not unitriangular
    for t in enumerate_tableaux(shape, max_entry, ALL):
        pivot = None
        if ring.kind == "z" and t in csyt_index and not t.is_semistandard:
            pivot = _garnir_pivot(t)
        for box_a, box_b in garnir_labels(shape):
            rel = garnir(t, box_a, box_b, ring)
            if not apply_polytabloid_map(rel.element).is_zero:
                bad = rel
                break
            relation_rows.append({csyt_index[l]: c for l, c in rel.element.items()})
            if (box_a, box_b) == pivot and broken is None:
                if leading_coefficient(rel.element, t, column_key) in (1, -1):
                    pivots += 1
                else:
                    broken = rel
        if bad:
            break
    checks.append(
        {
            "name": "garnir_relations_map_to_zero",
            "ok": bad is None,
            "counterexample": _counterexample(bad),
        }
    )

    rank_relations = rank_of_rows(relation_rows, rank_ring) if bad is None else None
    dims = {
        "csyt": len(csyt),
        "ssyt": len(ssyt),
        "wedge_dim": len(csyt),
    }
    ranks = {"polytabloid_map": rank_image, "garnir_span": rank_relations}
    if bad is None:
        checks.append(
            {"name": "image_rank_is_ssyt_count", "ok": rank_image == len(ssyt), "counterexample": None}
        )
        checks.append(
            {
                "name": "rank_sum_matches_wedge_dim",
                "ok": rank_relations + rank_image == len(csyt),
                "counterexample": None,
            }
        )
        if ring.kind == "z":
            ranks["garnir_certificate"] = {"pivots": pivots}
            checks.append(
                {
                    "name": "garnir_lattice_is_direct_summand",
                    "ok": broken is None and rank_relations == pivots,
                    "counterexample": _counterexample(broken),
                }
            )

    return {
        "command": "schur-verify",
        "instance": {"shape": list(shape), "entries": max_entry, "ring": ring.tag},
        "dims": dims,
        "ranks": ranks,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
