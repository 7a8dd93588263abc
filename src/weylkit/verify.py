"""The parts the verify paths share: size caps, reports, and the kernel certificate.

Both kernel checks prove their theorem with one integer certificate per
(shape, max_entry), built by :func:`kernel_certificate` and reused for
every ring.  Let N be the number of labels of the domain's basis that are
not semistandard.  The certificate has six parts:

1. every relation maps to zero over the integers (a relation the scan
   skips because it is provably zero does so trivially);
2. for each of those N labels t, the relation on the side's pivot label has
   coefficient exactly 1 on t and every other label strictly below t in
   the side's order;
3. the image of each semistandard label s has coefficient exactly 1 on s
   and every other label strictly above s in the image's order;
4. parts 1 and 2 may be proved on one weight per S_m-orbit, when the
   relation family and the kernel map commute with relabelling the
   entries, and each pivot found there is counted with the size of its
   weight's orbit;
5. parts 1 and 2 may be proved on local relations, when a relation is
   its relation on some lines of its label with the other lines put back,
   and the kernel map and the order split the same way: a relation maps
   to zero when its local relation does, and has the same lead;
6. on a shape with three or more rows, parts 1 and 2 may be read off the
   certificates of its adjacent two-row shapes, when every relation is
   local to two adjacent rows and every pivot is the pivot of two adjacent
   rows, and each of those certificates is clean: no relation fails and
   every pivot has lead 1.

Relations and kernel maps are defined over the integers and commute with
base change, so over every ring R the N pivots stay independent in the
relation span, which lies in the kernel, and the semistandard images stay
independent.  Hence the nullity is at least N and the rank at least
#ssyt; as the two add up to the dimension of the domain, the rank is
#ssyt, the nullity N, and the relation span is the whole kernel.  Over the
integers the pivots in addition make the relation lattice a direct summand
(see :mod:`weylkit.linalg`).  A leading coefficient other than 1 still
proves the ranks over a ring where it is a unit (over the integers the
ranks are rational), but never the direct summand.

Part 4 is transport.  Every map here preserves content, the weight
μ ∈ N^m, so the domain, the relation span and the kernel split into weight
blocks.  Suppose relabelling the entries by σ ∈ S_m sends the relation
family onto itself up to sign, commutes with the kernel map and keeps
every skip rule's verdict.  Then σ is a Z-isomorphism from block μ to
block σμ that carries relations to ± relations and kernel to kernel, so
membership, the N_μ pivots and the direct summand on block μ carry over to
σμ.  The weights with weakly decreasing content meet every orbit once, and
the orbit of μ has m! / |Stab μ| weights.  Part 3 is checked on every
semistandard label: the order its unitriangularity is read in depends on
the order of the alphabet, which σ does not keep.

Part 5 is locality.  Say the relation on (t, r) equals, term for term,
its local relation on (u, s), where u is some lines of t, with t's other
lines put back into every term; say the kernel map of a label is the
product, in a fixed order, of maps of its parts, so that it factors as
(the map on the other lines) times (the map on u's lines); and say the
order compares two labels that differ only on u's lines as it compares
those lines.  Then the relation's image is the local relation's image
times a fixed factor, so it is zero when the local image is.  And each
term of the relation lies below t exactly when its local term lies below
u, with the same coefficients, so both have the same lead.  The scan
maps each local relation once per certificate.  It builds a relation in
full only when its local relation does not map to zero, and then decides
on the full relation, or when it is a pivot whose local lead is not 1,
and then reports the full relation as the counterexample.

Both sides run this one scan with part 5.  The Weyl side scans the
row-sorted labels with dual snakes, each label counted once (a snake
takes the largest entries of a row, so the snake family is not
S_m-stable), and decides the snake (i, j, j') on t on the snake (1, j, j')
on rows i and i+1 of t, as Weyl functors are built (Akin–Buchsbaum–Weyman,
*Schur functors and Schur complexes*, Adv. Math. 44 (1982)): the wedge
projection takes each column to the wedge of its boxes in the rows above,
in rows i and i+1, and in the rows below, and the row order compares
labels that agree outside two rows as their two-row labels (see
:mod:`weylkit.weyl`).  The Schur side is its transpose: column-sorted
labels, which are the transposes of the row-sorted labels of the
conjugate shape, with Garnir relations, each decided on its two columns.
The terms put back are projected to the exterior power, so when another
column of t repeats an entry, the relation and its put-back two-column
relation are both zero.  A column permutation σ sends the relation on
(t, A, B) to ± the one on (σt, σA, σB), so these labels give every Garnir
relation up to sign.  The Schur side also skips the relations its zero
rule proves zero, and never a pivot, and it uses part 4 (see
:mod:`weylkit.schur`).

Part 6 is part 5 applied once per pair of adjacent rows.  Let λ have k
rows, k >= 3, and let the certificate of (λ_i, λ_{i+1}) at the same m be
clean for each i < k.  That certificate scans every row-sorted label of
(λ_i, λ_{i+1}) with entries at most m, with every snake (1, j, j') on it
and no orbit reduction.  A snake (i, j, j') on a row-sorted label t of λ
is local to the snake (1, j, j') on rows i and i+1 of t, which is one of
those, so it maps to zero (part 1).  The pivot of a t that is not
semistandard is (i, j, j'): i is the first row with an entry at least the
one below it, and (1, j, j') is the pivot of rows i and i+1 of t, a
two-row label that is not semistandard, so the pivot on t has that
pivot's lead, 1 (part 2).  Hence λ has its N = #rssyt - #ssyt pivots with
lead 1, and only part 3 is left to check on it.  When some pair is not
clean, λ is scanned as before, so a failing report names what the scan
finds.  The Schur side cannot read its certificates off two columns the
same way: its orbit scan (part 4) certifies the pivots of two-column
labels only on dominant weights, so a two-column certificate says nothing
of the lead of most two-column labels' pivots.

The scan runs on lines, a label's columns on the Schur side and its rows
on the Weyl side, with relations and kernel images as ``{lines: int}``;
a public relation or image is built only for a counterexample.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

from .coeffs import QQ, ZZ, CoefficientRing, InputError
from .linalg import lead
from .powers import sum_images
from .tableaux import check_partition, line_order_key


class SizeCapExceeded(InputError):
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
        raise InputError("verification needs a field or the integers")
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


def _is_unit(lead, ring: CoefficientRing) -> bool:
    """Whether ``lead`` is a unit where the ranks over ``ring`` are taken (Q for Z)."""
    return lead is not None and (ring if ring.is_field else QQ).is_unit(lead)


@dataclass(frozen=True)
class KernelCertificate:
    """What :func:`kernel_certificate` found on one (shape, max_entry).

    ``odd_pivots`` holds (lead, label, relation, orbit size) for each label
    whose pivot relation does not have leading coefficient exactly 1, and
    ``odd_images`` holds (lead, label, image) for each semistandard label
    whose image does not have coefficient exactly 1 on it.  A lead is None
    when some other label lies on the wrong side, or when no relation
    carries the pivot label; the relation is then None too.  Both are empty
    on every instance the theorem covers.  The failure methods give
    counterexamples as JSON: a relation as its ``to_json()``, the same on
    both sides, and a pivot label no relation carries as its tableau.
    """

    bad: object  # the first relation that does not map to zero; the scan stops there
    nullity: int  # N: the basis labels that are not semistandard
    rank: int  # the semistandard labels
    pivots: int  # pivot relations with leading coefficient exactly 1, each counted with its orbit size
    odd_pivots: tuple
    odd_images: tuple

    @property
    def membership_failure(self) -> dict | None:
        return None if self.bad is None else self.bad.to_json()

    def image_failure(self, ring: CoefficientRing) -> dict | None:
        """The first semistandard label whose image is not unitriangular over ``ring``."""
        for lead, s, image in self.odd_images:
            if not _is_unit(lead, ring):
                return {"tableau": s.to_json(), "image": image.to_json()}
        return None

    def pivot_failure(self, ring: CoefficientRing) -> dict | None:
        """The first pivot whose leading coefficient is not a unit over ``ring``."""
        failed = (self._pivot(t, rel) for lead, t, rel, _ in self.odd_pivots if not _is_unit(lead, ring))
        return next(failed, None)

    @property
    def lattice_failure(self) -> dict | None:
        """The first pivot whose leading coefficient is not exactly 1."""
        return next((self._pivot(t, rel) for _, t, rel, _ in self.odd_pivots), None)

    def _pivot(self, t, rel) -> dict:
        return {"tableau": t.to_json()} if rel is None else rel.to_json()

    def ranks(self, ring: CoefficientRing) -> tuple[int | None, int | None]:
        """Ranks over ``ring`` (over Q for Z) of the map and of the relation span.

        The map's rank is #ssyt when its images are unitriangular, and the
        span's is N when in addition every relation maps to zero and the N
        pivots' leading coefficients are units; each is None otherwise.
        """
        if self.image_failure(ring) is not None:
            return None, None
        every_pivot = self.pivots + sum(size for *_, size in self.odd_pivots) == self.nullity
        proved = self.bad is None and every_pivot and self.pivot_failure(ring) is None
        return self.rank, self.nullity if proved else None

    @property
    def direct_summand(self) -> bool:
        """The relation lattice is a direct summand (over the integers)."""
        return self.ranks(ZZ)[1] is not None and self.pivots == self.nullity


def _scan_relations(labels, relation_labels, relation, maps_to_zero, own, pivot, key, build, orbit_size, local):
    """(first relation not mapping to zero, pivots with lead 1 times their orbit sizes, the other pivots)."""
    pivots, odd = 0, []
    # local (lines, r) -> its relation when that maps to zero, so that every
    # relation it is local to does too (part 5), else None
    local_relations = {}
    for t in labels:
        target = pivot(t)
        lines = getattr(t, own)
        on_target = None  # (the lines the pivot's lead is read at, the relation that decides it)
        for r in relation_labels(t):
            here = local(lines, r)
            if here not in local_relations:
                rel = relation(*here)
                local_relations[here] = rel if maps_to_zero(rel) else None
            rel = local_relations[here]
            if rel is None:
                here, rel = (lines, r), relation(lines, r)
                if not maps_to_zero(rel):
                    return build(t, r), pivots, odd
            if r == target:
                on_target = here[0], rel
        if target is None:
            continue
        leading = lead(*on_target, key) if on_target else None
        if leading != 1 and on_target:  # read it on the relation on t, which has the same lead (part 5)
            leading = lead(lines, relation(lines, target), key)
        if leading == 1:
            pivots += orbit_size(t)
        else:
            odd.append((leading, t, build(t, target) if on_target else None, orbit_size(t)))
    return None, pivots, odd


def kernel_certificate(
    labels, relation_labels, relation, kernel_image, rows, pivot, max_entry, dimension, semistandard, build, image,
    local, orbit_size=lambda t: 1,
) -> KernelCertificate:
    """Build the integer certificate of a kernel theorem on one (shape, max_entry).

    A label's own lines are its rows with ``rows``, else its columns, and
    every order is :func:`~weylkit.tableaux.line_order_key`.  Decides
    the relation on (t, r) for every label t and every relation label r in
    ``relation_labels(t)`` on its local relation ``local(lines, r)``, with
    t's own lines (part 5 of the module docstring): a hashable pair (u, s)
    whose relation ``relation(u, s)`` is built and mapped once, and
    ``lambda lines, r: (lines, r)`` makes every relation its own.  A
    relation maps to zero when the sum of ``kernel_image`` over its terms
    has every coefficient 0.  The scan stops at the first relation that
    does not; a side leaves out of ``relation_labels(t)`` only labels whose
    relation on t is zero, and never ``pivot(t)``, which is None exactly on
    the labels that need no pivot (the semistandard ones and those outside
    the basis); on every other t its relation should have coefficient 1 on
    t's own lines and every other term strictly below.  The domain has
    ``dimension`` basis labels, and ``kernel_image`` of the own lines of
    each s in ``semistandard`` should have coefficient 1 on s's other lines
    and every other term strictly above.  Only a counterexample is built in
    public form: the relation ``build(t, r)`` and the image ``image(s)``,
    whose ``to_json()`` a failed check reports.

    Each pivot of a label t counts ``orbit_size(t)`` times: 1 by default,
    or the size of the S_m-orbit of t's weight when ``labels`` holds one
    weight per orbit (part 4).  The semistandard images are checked on
    every label.
    """
    own = "rows" if rows else "columns"
    key = partial(line_order_key, max_entry=max_entry)

    def maps_to_zero(rel: dict) -> bool:
        return not any(sum_images(rel.items(), kernel_image, {}).values())

    bad, pivots, odd_pivots = _scan_relations(
        labels, relation_labels, relation, maps_to_zero, own, pivot, key, build, orbit_size, local
    )
    rank = len(semistandard)
    odd_images = semistandard_images(semistandard, kernel_image, rows, max_entry, image)
    return KernelCertificate(bad, dimension - rank, rank, pivots, tuple(odd_pivots), odd_images)


def semistandard_images(semistandard, kernel_image, rows, max_entry, image) -> tuple:
    """Part 3 of the certificate: (lead, s, ``image(s)``) for each semistandard s whose image is not unitriangular.

    The image of s is ``kernel_image`` of its own lines, its rows with
    ``rows``, else its columns; it should have coefficient 1 on s's other
    lines and every other term strictly above them in the order of
    :func:`~weylkit.tableaux.line_order_key`.
    """
    own, other = ("rows", "columns") if rows else ("columns", "rows")
    key = partial(line_order_key, max_entry=max_entry)
    odd = []
    for s in semistandard:
        leading = lead(getattr(s, other), kernel_image(getattr(s, own)), key, above=True)
        if leading != 1:
            odd.append((leading, s, image(s)))
    return tuple(odd)
