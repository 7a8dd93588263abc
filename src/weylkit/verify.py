"""The parts the verify paths share: size caps, reports, ranks, and the relation check.

Both kernel checks run one loop.  For every label t of the loop and every
relation label r, build the relation on (t, r), require that it maps to
zero, and record it as a sparse row over the basis of its space; then take
the rank of the rows over Q or over the field.  Over the integers the same
loop collects the unitriangular certificate described in
:mod:`weylkit.linalg`: for each label t that is not semistandard, the
relation on the side's pivot label must have coefficient exactly 1 on t and
every other label strictly below t in the side's order.

The Weyl side runs the loop over row-sorted labels with dual snake
relations.  The Schur side is its transpose: column-sorted labels, which
are the transposes of the row-sorted labels of the conjugate shape, with
Garnir relations.  A column permutation σ sends the relation on (t, A, B)
to ± the one on (σt, σA, σB), so these labels give every Garnir relation up
to sign.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .coeffs import QQ, CoefficientRing
from .linalg import leading_coefficient, rank_of_rows
from .tableaux import check_partition


class SizeCapExceeded(ValueError):
    pass


def check_caps(shape, max_entry: int, size_cap: int | None, entry_cap: int | None) -> None:
    if size_cap is not None and sum(shape) > size_cap:
        raise SizeCapExceeded(f"size cap exceeded: |shape| = {sum(shape)} > {size_cap}")
    if entry_cap is not None and max_entry > entry_cap:
        raise SizeCapExceeded(f"size cap exceeded: entries = {max_entry} > {entry_cap}")


def checked_shape(shape, max_entry: int, ring: CoefficientRing, size_cap, entry_cap) -> tuple[int, ...]:
    """Validate a verify request and return its shape as a tuple."""
    shape = check_partition(shape)
    check_caps(shape, max_entry, size_cap, entry_cap)
    if not (ring.is_field or ring.kind == "z"):
        raise ValueError("verification needs a field or the integers")
    return shape


def check(name: str, ok: bool, counterexample=None) -> dict:
    return {"name": name, "ok": ok, "counterexample": counterexample}


def report(command: str, instance: dict, dims: dict, checks: list, started: float, ranks=None) -> dict:
    """A report on ``checks``, which passes when they all do, timed from ``started``."""
    out = {"command": command, "instance": instance, "dims": dims}
    if ranks is not None:
        out["ranks"] = ranks
    out["checks"] = checks
    out["ok"] = all(c["ok"] for c in checks)
    out["wall_time_s"] = round(time.perf_counter() - started, 6)
    return out


def image_rank(labels, image, ring: CoefficientRing) -> int:
    """Rank over Q, or over the field, of the map sending each label u to ``image(u)``."""
    columns: dict = {}
    rows = [{columns.setdefault(l, len(columns)): c for l, c in image(u).items()} for u in labels]
    return rank_of_rows(rows, ring if ring.is_field else QQ)


@dataclass(frozen=True)
class RelationSpan:
    """What :func:`relation_span` found; ``rank`` is None when ``bad`` is set."""

    bad: object  # the first relation that does not map to zero
    rank: int | None
    pivots: int
    broken: object  # the first pivot relation that is not unitriangular

    @property
    def certified(self) -> bool:
        """The relation lattice is a direct summand (over the integers)."""
        return self.broken is None and self.rank == self.pivots


def relation_span(labels, relation_labels, build, kernel_map, basis, ring, pivot, key) -> RelationSpan:
    """Build ``build(t, r)`` for every label t and relation label r, and rank them.

    Stops at the first relation whose image under ``kernel_map`` is not
    zero.  Over the integers, for each t that is not semistandard, the
    relation on ``pivot(t)`` (None for no pivot) must have coefficient 1 on
    t and every other label strictly below t under ``key``.
    """
    index = {u: k for k, u in enumerate(basis)}
    rows = []
    pivots = 0
    broken = None
    for t in labels:
        target = pivot(t) if ring.kind == "z" and not t.is_semistandard else None
        for r in relation_labels:
            rel = build(t, r)
            if not kernel_map(rel.element).is_zero:
                return RelationSpan(rel, None, pivots, broken)
            rows.append({index[u]: c for u, c in rel.element.items()})
            if r == target and broken is None:
                if leading_coefficient(rel.element, t, key) == 1:
                    pivots += 1
                else:
                    broken = rel
    return RelationSpan(None, rank_of_rows(rows, ring if ring.is_field else QQ), pivots, broken)
