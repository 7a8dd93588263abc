"""The parts the verify paths share: size caps, reports, and the kernel certificate.

Both kernel checks prove their theorem with one integer certificate per
(shape, max_entry), built by :func:`kernel_certificate` and reused for
every ring.  Let N be the number of labels of the domain's basis that are
not semistandard.  The certificate has five parts:

1. every relation maps to zero over the integers (a relation the scan
   skips because it is provably zero does so trivially);
2. for each of those N labels t, the relation on the side's pivot label has
   coefficient exactly 1 on t and every other label strictly below t in
   the side's order;
3. the image of each semistandard label s has coefficient exactly 1 on s
   and every other label strictly above s in the image's order;
4. a relation maps to zero when its local relation does, and has the same
   lead, when it is that relation on some lines of its label with the
   other lines put back, and the kernel map and the order split the same
   way;
5. on a shape with three or more lines, parts 1 and 2 may be read off the
   certificates of its two-line shapes, when every relation is local to
   two lines and every pivot is the pivot of two adjacent lines, and each
   of those certificates is clean: no relation fails and every pivot has
   lead 1.

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

Part 4 is locality.  Say the relation on (t, r) equals, term for term,
its local relation on (u, s), where u is some lines of t, with t's other
lines put back into every term; say the kernel map of a label is the
product, in a fixed order, of maps of its parts, so that it factors as
(the map on the other lines) times (the map on u's lines); and say the
order compares two labels that differ only on u's lines as it compares
those lines.  Then the relation's image is the local relation's image
times a fixed factor, so it is zero when the local image is.  And each
term of the relation lies below t exactly when its local term lies below
u, with the same coefficients, so both have the same lead.

Both sides meet part 4 on two lines.  The Weyl side scans the row-sorted
labels with dual snakes, and the snake (i, j, j') on t is the snake
(1, j, j') on rows i and i+1 of t put back, as Weyl functors are built
(Akin–Buchsbaum–Weyman, *Schur functors and Schur complexes*, Adv. Math.
44 (1982)): the wedge projection takes each column to the wedge of its
boxes in the rows above, in rows i and i+1, and in the rows below, and the
row order compares labels that agree outside two rows as their two-row
labels (see :mod:`weylkit.weyl`).  The Schur side is its transpose:
column-sorted labels, which are the transposes of the row-sorted labels of
the conjugate shape, with Garnir relations, the one on (t, A, B) being the
one on columns j_A and j_B of t with A and B moved onto columns 1 and 2.
The terms put back are projected to the exterior power, so when another
column of t repeats an entry, the relation and its put-back two-column
relation are both zero.  A column permutation σ sends the relation on
(t, A, B) to ± the one on (σt, σA, σB), so these labels give every Garnir
relation up to sign.  The Schur side also skips the relations its zero
rule proves zero, and never a pivot (see :mod:`weylkit.schur`).

Part 5 is part 4 applied once per pair of lines.  Let λ have k >= 3 lines,
rows on the Weyl side and columns on the Schur side, and let each
certificate below, at the same m, be clean; each scans every label of its
two-line shape with entries at most m, whatever its weight, and every
relation on it.

- Membership.  A snake lies on two adjacent rows, so the Weyl side reads
  the certificates of (λ_i, λ_{i+1}) for each i < k.  A Garnir relation
  joins any two columns, so the Schur side reads those of the shapes
  with columns (c_a, c_b), for every a < b, c the column lengths of λ.  A
  relation on a label t of λ is local to the relation on the two-line
  label of its two lines, which one of those certificates scanned, so it
  maps to zero (part 1).
- Pivots.  The pivot of a t that is not semistandard is the pivot of two
  adjacent lines of t put back: on the Weyl side rows i and i+1, i the
  first row with an entry at least the one below it; on the Schur side
  columns j and j+1, j the first column of a descent in the first row
  with one.  That two-line label is not semistandard either, so its pivot
  has lead 1, and so has t's (part 2).

Hence λ has its N pivots with lead 1, and only part 3 is left to check on
it.  When some certificate is not clean, or λ has at most two lines, λ is
scanned with every relation built in full, so a failing report names what
the scan finds.  That scan needs no locality: on a shape with at most two
lines a relation's local relation is the relation itself, and a shape with
more lines is scanned only when one of its two-line shapes already failed.

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

    ``odd_pivots`` holds (lead, label, relation) for each label whose pivot
    relation does not have leading coefficient exactly 1, and
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
    pivots: int  # pivot relations with leading coefficient exactly 1
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
        failed = (self._pivot(t, rel) for lead, t, rel in self.odd_pivots if not _is_unit(lead, ring))
        return next(failed, None)

    @property
    def lattice_failure(self) -> dict | None:
        """The first pivot whose leading coefficient is not exactly 1."""
        return next((self._pivot(t, rel) for _, t, rel in self.odd_pivots), None)

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
        every_pivot = self.pivots + len(self.odd_pivots) == self.nullity
        proved = self.bad is None and every_pivot and self.pivot_failure(ring) is None
        return self.rank, self.nullity if proved else None

    @property
    def direct_summand(self) -> bool:
        """The relation lattice is a direct summand (over the integers)."""
        return self.ranks(ZZ)[1] is not None and self.pivots == self.nullity


def _scan_relations(labels, relation_labels, relation, maps_to_zero, own, pivot, key, build):
    """(first relation not mapping to zero, pivots with lead 1, the other pivots)."""
    pivots, odd = 0, []
    for t in labels:
        target = pivot(t)
        lines = getattr(t, own)
        on_target = None
        for r in relation_labels(t):
            rel = relation(lines, r)
            if not maps_to_zero(rel):
                return build(t, r), pivots, odd
            if r == target:
                on_target = rel
        if target is None:
            continue
        leading = None if on_target is None else lead(lines, on_target, key)
        if leading == 1:
            pivots += 1
        else:
            odd.append((leading, t, None if on_target is None else build(t, target)))
    return None, pivots, odd


def kernel_certificate(
    labels, relation_labels, relation, kernel_image, rows, pivot, max_entry, dimension, semistandard, build, image
) -> KernelCertificate:
    """Build the integer certificate of a kernel theorem on one (shape, max_entry).

    A label's own lines are its rows with ``rows``, else its columns, and
    every order is :func:`~weylkit.tableaux.line_order_key`.  Builds the
    relation ``relation(lines, r)`` on t's own lines for every label t and
    every relation label r in ``relation_labels(t)``; it maps to zero when
    the sum of ``kernel_image`` over its terms has every coefficient 0.
    The scan stops at the first relation that does not; a side leaves out
    of ``relation_labels(t)`` only labels whose relation on t is zero, and
    never ``pivot(t)``, which is None exactly on the labels that need no
    pivot (the semistandard ones and those outside the basis); on every
    other t its relation should have coefficient 1 on t's own lines and
    every other term strictly below.  The domain has ``dimension`` basis
    labels, and the semistandard labels are checked by
    :func:`semistandard_images`.  Only a counterexample is built in public
    form: the relation ``build(t, r)`` and the image ``image(s)``, whose
    ``to_json()`` a failed check reports.
    """
    own = "rows" if rows else "columns"
    key = partial(line_order_key, max_entry=max_entry)

    def maps_to_zero(rel: dict) -> bool:
        return not any(sum_images(rel.items(), kernel_image, {}).values())

    bad, pivots, odd_pivots = _scan_relations(labels, relation_labels, relation, maps_to_zero, own, pivot, key, build)
    rank = len(semistandard)
    odd_images = semistandard_images(semistandard, kernel_image, rows, max_entry, image)
    return KernelCertificate(bad, dimension - rank, rank, pivots, tuple(odd_pivots), odd_images)


def read_off_pairs(pairs, semistandard, dimension, kernel_image, rows, max_entry, image) -> KernelCertificate | None:
    """Part 5 of the certificate: a shape's certificate read off those of its two-line shapes, or None.

    ``pairs`` are the certificates of the two-line shapes of a shape with
    three or more lines that the module docstring names for its side.  When
    each is clean, every relation maps to zero and all N pivots have lead
    1, so only the images of ``semistandard`` are checked, as in
    :func:`kernel_certificate`; else the shape has to be scanned, and the
    result is None.
    """
    if any(pair.bad is not None or pair.odd_pivots for pair in pairs):
        return None
    rank = len(semistandard)
    odd_images = semistandard_images(semistandard, kernel_image, rows, max_entry, image)
    return KernelCertificate(None, dimension - rank, rank, dimension - rank, (), odd_images)


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
