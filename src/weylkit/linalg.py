"""Exact linear algebra helpers for small instances: no floating point.

The verify paths compute no rank.  They read both ranks of a kernel
theorem off unitriangular certificates (see :mod:`weylkit.verify`), built
with :func:`lead`: a row whose coefficient on one label is 1 and whose
other labels all sort strictly below it (or all above), the rows that
:func:`reduce_by_pivots` straightens along (Fulton, *Young Tableaux*, §7.4).

Over the integers the same pivots certify that a relation lattice is a
direct summand.  For each label outside the semistandard basis there is
one relation with coefficient 1 on that label and every other label lower,
so the N pivot rows are unitriangular on the N non-basis columns: their
Z-span is saturated, and the basis vectors complete it to a basis of the
whole lattice.  The semistandard images bound the rational nullity by N,
so every integer relation lies in the rational span of the pivots, and by
back substitution along the unit diagonal in their Z-span, which is
therefore the whole relation lattice and a direct summand.

:func:`rank_of_rows` (incremental Gaussian elimination on sparse dict
rows over the rationals or a prime residue field) and
:func:`smith_elementary_divisors` (Smith normal form of a dense integer
matrix) decide the same questions far more slowly; the tests keep them as
the certificates' oracles.  :func:`solve_exact` (dense elimination over
the rationals) is likewise the oracle of
:func:`weylkit.duality.polytabloid_dual_image`, which instead reads t's
coordinates off one such reduction, over the integers, of every
column-standard polytabloid of the shape.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .coeffs import QQ, CoefficientRing


def _field_ops(ring: CoefficientRing):
    if ring == QQ:
        return (lambda v: Fraction(v)), (lambda v: 1 / v)
    if ring.kind == "zmod" and ring.is_field:
        p = ring.modulus
        return (lambda v: v % p), (lambda v: pow(v, -1, p))
    raise ValueError(f"rank computation needs a field, got {ring}")


def rank_of_rows(rows, ring: CoefficientRing) -> int:
    """Rank over a field of the span of sparse rows (dicts keyed by column)."""
    coerce, invert = _field_ops(ring)
    pivots: dict = {}  # pivot column -> normalized row
    rank = 0
    for raw in rows:
        row = {c: coerce(v) for c, v in raw.items()}
        row = {c: v for c, v in row.items() if v != 0}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = invert(row[col])
                if ring == QQ:
                    row = {c: v * inv for c, v in row.items()}
                else:
                    p = ring.modulus
                    row = {c: v * inv % p for c, v in row.items()}
                pivots[col] = row
                rank += 1
                break
            factor = row[col]
            if ring == QQ:
                for c, v in pivot.items():
                    nv = row.get(c, Fraction(0)) - factor * v
                    if nv == 0:
                        row.pop(c, None)
                    else:
                        row[c] = nv
            else:
                p = ring.modulus
                for c, v in pivot.items():
                    nv = (row.get(c, 0) - factor * v) % p
                    if nv == 0:
                        row.pop(c, None)
                    else:
                        row[c] = nv
    return rank


def solve_exact(columns: list[dict], target: dict) -> list[Fraction] | None:
    """Solve sum_j x_j * columns[j] = target exactly over the rationals.

    Columns and target are sparse dicts over an arbitrary hashable row key.
    Returns the coefficient list, or None when the system is inconsistent.
    Assumes the columns are linearly independent (unique solution if any).
    """
    keys = set(target)
    for col in columns:
        keys.update(col)
    key_index = {k: i for i, k in enumerate(sorted(keys, key=repr))}
    m, n = len(key_index), len(columns)
    aug = [[Fraction(0)] * (n + 1) for _ in range(m)]
    for j, col in enumerate(columns):
        for k, v in col.items():
            aug[key_index[k]][j] = Fraction(v)
    for k, v in target.items():
        aug[key_index[k]][n] = Fraction(v)

    pivot_row = 0
    pivot_cols = []
    for col in range(n):
        sel = next((r for r in range(pivot_row, m) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[pivot_row], aug[sel] = aug[sel], aug[pivot_row]
        inv = 1 / aug[pivot_row][col]
        aug[pivot_row] = [v * inv for v in aug[pivot_row]]
        for r in range(m):
            if r != pivot_row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[pivot_row])]
        pivot_cols.append(col)
        pivot_row += 1
    for r in range(pivot_row, m):
        if aug[r][n] != 0:
            return None
    solution = [Fraction(0)] * n
    for r, col in enumerate(pivot_cols):
        solution[col] = aug[r][n]
    return solution


def lead(lines, terms: dict, key, above: bool = False):
    """The coefficient of ``lines`` in ``terms`` when every other term sorts strictly below it under ``key``, else None.

    With ``above``, every other term must sort strictly above it instead.
    """
    top = key(lines)
    if any(key(u) <= top if above else key(u) >= top for u in terms if u != lines):
        return None
    return terms.get(lines, 0)


def reduce_by_pivots(terms: dict, pivot, key, ring: CoefficientRing, above: bool = False) -> tuple[dict, list]:
    """Clear ``{lines: coeff}`` terms along unitriangular pivot relations, greatest term first (least with ``above``).

    ``pivot(lines)`` is None for a term that stays, else a ``{lines: int}``
    relation whose :func:`lead` under ``key`` must be 1, or the loop raises
    ``RuntimeError``; its other terms come later, so no term is cleared
    twice.  Returns the nonzero terms left, in the ring, and each cleared
    term's ``(lines, coefficient)``, in order.
    """
    order = key if above else (lambda u: tuple(-v for v in key(u)))
    work = dict(terms)
    heap = [(order(u), u) for u in work]
    heapq.heapify(heap)
    steps = []
    while heap:
        _, lines = heapq.heappop(heap)
        coeff = work[lines]
        if coeff == 0 or (relation := pivot(lines)) is None:
            continue
        if lead(lines, relation, key, above) != 1:
            raise RuntimeError(f"the pivot relation on {[list(line) for line in lines]} does not lead with 1")
        for u, c in relation.items():
            if u not in work:
                heapq.heappush(heap, (order(u), u))
            work[u] = ring.normalize(work.get(u, 0) - coeff * c)
        steps.append((lines, coeff))
    return {u: c for u, c in work.items() if c != 0}, steps


def smith_elementary_divisors(rows: list[dict[int, int]], ncols: int) -> list[int]:
    """Nonzero elementary divisors (in divisibility order) of an integer matrix.

    Dense and slow; the verify paths use unitriangular pivots instead, and
    the tests use this as the oracle those pivots must agree with.
    """
    mat = [[0] * ncols for _ in rows]
    for r, row in enumerate(rows):
        for c, v in row.items():
            if not isinstance(v, int):
                raise TypeError("Smith form needs integer entries")
            mat[r][c] = v
    m, n = len(mat), ncols

    def find_pivot(s):
        best = None
        for i in range(s, m):
            for j in range(s, n):
                v = abs(mat[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        return best

    divisors = []
    s = 0
    while s < min(m, n):
        found = find_pivot(s)
        if found is None:
            break
        _, pi, pj = found
        mat[s], mat[pi] = mat[pi], mat[s]
        for row in mat:
            row[s], row[pj] = row[pj], row[s]
        while True:
            # clear the pivot row and column by Euclidean steps
            done = True
            for i in range(s + 1, m):
                if mat[i][s]:
                    q = mat[i][s] // mat[s][s]
                    for j in range(s, n):
                        mat[i][j] -= q * mat[s][j]
                    if mat[i][s]:
                        mat[s], mat[i] = mat[i], mat[s]
                        done = False
            for j in range(s + 1, n):
                if mat[s][j]:
                    q = mat[s][j] // mat[s][s]
                    for i in range(s, m):
                        mat[i][j] -= q * mat[i][s]
                    if mat[s][j]:
                        for row in mat:
                            row[s], row[j] = row[j], row[s]
                        done = False
            if done:
                break
        # pivot must divide the remaining block; if not, fold a bad row in and redo
        offender = None
        for i in range(s + 1, m):
            for j in range(s + 1, n):
                if mat[i][j] % mat[s][s]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(s, n):
                mat[s][j] += mat[offender][j]
            continue
        divisors.append(abs(mat[s][s]))
        s += 1
    return divisors
