"""The verify paths of both kernel theorems: size caps, the kernel certificate, and the report.

The two theorems are transposes of each other, and a :class:`Side` holds
all that differs between them: the Schur side ``schur.SCHUR`` and the Weyl
side ``weyl.WEYL``.  Its fields name a label's own lines, the basis, the
two-line shapes of part 5, the relations, the kernel image, the pivot,
the public builders of a counterexample, and the report's check names,
their order, and its rank and dims keys.  The rest is written once for
both sides:

- :func:`certificate` builds the integer certificate of one
  (side, shape, max_entry), cached and reused for every ring, from packed
  blocks cached per (side, shape, k) and shared by every max_entry;
- :func:`scan` is its full scan, every label and every relation;
- :func:`verify` checks the theorem over one ring and assembles the
  report off the certificate.

Let N be the number of labels of the domain's basis that are not
semistandard.  The certificate has six parts:

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
5. on a shape with three or more lines, parts 1 and 2 may be read off
   the packed blocks of its two-line shapes (part 6), when every relation
   is local to two lines and every pivot is the pivot of two adjacent
   lines, and each of those blocks is clean: no relation fails and every
   pivot has lead 1;
6. parts 1 to 3 on the labels with entries at most m may be read off the
   packed labels, those with entries exactly {1..k}, for every
   1 <= k <= min(m, |λ|).

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
certificate below, at the same m, be clean; each covers every label of
its two-line shape with entries at most m, whatever its weight, and every
relation on it.

- Membership.  A snake lies on two adjacent rows, so the Weyl side reads
  the certificates of (λ_i, λ_{i+1}) for each i < k.  A Garnir relation
  joins any two columns, so the Schur side reads those of the shapes
  with columns (c_a, c_b), for every a < b, c the column lengths of λ.  A
  relation on a label t of λ is local to the relation on the two-line
  label of its two lines, which one of those certificates covers, so it
  maps to zero (part 1).
- Pivots.  The pivot of a t that is not semistandard is the pivot of two
  adjacent lines of t put back: on the Weyl side rows i and i+1, i the
  first row with an entry at least the one below it; on the Schur side
  columns j and j+1, j the first column of a descent in the first row
  with one.  That two-line label is not semistandard either, so its pivot
  has lead 1, and so has t's (part 2).

Hence λ has its N pivots with lead 1, and only part 3 is left to check on
it.

Part 6 is the packing lemma.  Let φ be an order-preserving injection of
{1..k} into {1..m}.  Everything the certificate reads commutes with φ:

- every term of a relation or an image has its label's content.  φ keeps
  a sorted line sorted with the same sign, equal entries equal and
  distinct ones distinct, so the relation and the kernel image of φ(t) are
  those of t with φ applied to every term, and the Schur zero rule and
  both pivot rules (the Schur one compares with ``>``, the Weyl one with
  ``>=`` and ``==``) pick the same boxes on φ(t) as on t;
- :func:`~weylkit.tableaux.line_order_key` compares two labels of one
  content on the values in φ's image only, in the same order, so every
  lead is unchanged.

Every label of a shape λ that is not empty, with entries in {1..m}, is
φ(u) for exactly one packed label u, with 1 <= k <= min(m, |λ|) values,
and one φ.  The *packed block* of (side, λ, k) checks part 3 on the
packed semistandard labels with k values, and parts 1 and 2:

- on a shape with at most two lines, on the packed labels the scan walks;
- on a shape with more lines, by part 5: the block is clean only when
  the blocks at k of its two-line shapes with at least k boxes are.

The certificate on (λ, m) reads every block of λ with k <= min(m, |λ|).
A two-line shape of λ has at most |λ| boxes, so these read every block
of it with k <= min(m, its size), its certificate at m is clean by the
lemma, and part 5 gives parts 1 and 2 on λ at m.  So when every block of
λ is clean, the certificate on (λ, m) is clean: no relation fails, the N
pivots have lead 1, and the images are unitriangular; #ssyt(λ, m) is
then counted by formula, and N is the dimension minus #ssyt.  The blocks
are cached per (side, shape, k), so the cost stops growing once m passes
|λ|: the functors are natural in a free module of any rank (ABW 1982),
and for m >= |λ| the Schur algebra and its modules stabilise (Green,
*Polynomial representations of GL_n*, LNM 830, §6).  The premise is a
property of the relations, the kernel maps, the pivots and the order,
and is not checked at run time.  Else, and on the empty shape, whose one
label has no value, the certificate is :func:`scan`, every label and
every relation at m built in full, so a failing report names what the
scan finds; it needs no locality.

The scan runs on lines, a label's columns on the Schur side and its rows
on the Weyl side: it walks each label as its own lines (:func:`_scan_lines`),
whose relation labels, pivot, relations and kernel image are read off them,
the last two as ``{lines: int}``.  A tableau, and a public relation or
image, is built only for a label a report names.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations_with_replacement, product

from .coeffs import QQ, CoefficientRing, InputError
from .linalg import lead
from .powers import sum_images
from .tableaux import (
    SEMISTANDARD, Tableau, check_partition, conjugate, count_tableaux, enumerate_tableaux, from_columns, line_order_key
)


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


@dataclass(frozen=True, eq=False)
class Side:
    """What differs between the two kernel theorems; ``eq=False`` hashes a side by identity.

    A label's own lines are its rows with ``rows``, else its columns, and
    its kernel image lies in the labels on the other lines.  The domain's
    basis labels are those of kind ``basis``.

    - ``pairs(shape)``: the two-line shapes whose packed blocks a packed
      block of a shape with three or more lines reads for parts 1 and 2
      (part 5), each listed once, in the order of its first pair of lines;
    - ``relations(shape)``: (``relation_labels``, ``relation``), built once
      per scan.  ``relation_labels(lines)`` are the relation labels kept on
      the label t with these own lines: a side leaves out only labels whose
      relation on t is zero, and never ``pivot(lines)``.
      ``relation(lines, r)`` is the relation on t as ``{lines: int}``;
    - ``kernel_map()``: the function giving the kernel image of a label's
      own lines, as ``{lines: int}``, looked up once per certificate;
    - ``pivot(lines)``: the relation label of the pivot of the label with
      these own lines, None exactly on the labels that need none (the
      semistandard ones and those outside the basis);
    - ``build(t, r)`` and ``image(s)``: the public relation and image, built
      only for a counterexample;
    - the report: its ``command``; its ``checks``, (kind, name) in report
      order, the kinds "membership", "image", "span" and "lattice"; its
      ``rank_keys`` over (rank of the map, rank of the span, N) and, over
      Z, ``pivots_key``; and ``dims(shape, m, dimension, ssyt)``.

    A field that wraps a module global in a lambda looks it up when it is
    called, so a patch of that global reaches the certificate.
    """

    command: str
    rows: bool
    basis: str
    pairs: Callable
    relations: Callable
    kernel_map: Callable
    pivot: Callable
    build: Callable
    image: Callable
    checks: tuple
    rank_keys: tuple
    pivots_key: str
    dims: Callable


@dataclass(frozen=True)
class KernelCertificate:
    """What :func:`certificate` found on one (side, shape, max_entry).

    ``odd_pivots`` holds (lead, label, relation) for each label whose pivot
    relation does not have leading coefficient exactly 1, and
    ``odd_images`` holds (lead, label, image) for each semistandard label
    whose image does not have coefficient exactly 1 on it.  A lead is None
    when some other label lies on the wrong side, or when no relation
    carries the pivot label; the relation is then None too.  Both are empty
    on every instance the theorem covers.
    """

    bad: object  # the first relation that does not map to zero; the scan stops there
    nullity: int  # N: the basis labels that are not semistandard
    rank: int  # the semistandard labels
    pivots: int  # pivot relations with leading coefficient exactly 1
    odd_pivots: tuple
    odd_images: tuple


@cache
def certificate(side: Side, shape: tuple[int, ...], max_entry: int) -> KernelCertificate:
    """The integer certificate of ``side`` on one (shape, max_entry), shared by every ring.

    When the shape is not empty and every packed block of it with k up to
    max_entry and its size is clean, the certificate is theirs pushed
    forward (part 6), with #ssyt and N counted without enumerating; else
    it is :func:`scan`.
    """
    if not shape or not all(_packed_block(side, shape, k) for k in range(1, min(max_entry, sum(shape)) + 1)):
        return scan(side, shape, max_entry)
    rank = count_tableaux(shape, max_entry, SEMISTANDARD)
    nullity = count_tableaux(shape, max_entry, side.basis) - rank
    return KernelCertificate(None, nullity, rank, nullity, (), ())


@cache
def _packed_block(side: Side, shape: tuple[int, ...], k: int) -> bool:
    """Whether the packed block of ``shape`` at k is clean.

    A packed label has entries exactly {1..k}.  The block checks part 3 on
    the packed semistandard labels, and parts 1 and 2: on a shape with at
    most two lines on the packed labels of :func:`_scan_lines`, and on a
    shape with more lines by part 5, as the blocks at k of those shapes of
    ``side.pairs(shape)`` with at least k boxes.
    """
    if (len(shape) if side.rows else shape[0]) <= 2:  # its own lines: rows, or columns
        packed = [lines for lines in _scan_lines(side, shape, k) if _is_packed(lines, k)]
        bad, _, odd_pivots = _scan_relations(side, shape, packed, k)
        clean = bad is None and not odd_pivots
    else:
        clean = all(_packed_block(side, pair, k) for pair in side.pairs(shape) if k <= sum(pair))
    semistandard = [s for s in enumerate_tableaux(shape, k, SEMISTANDARD) if _is_packed(s.rows, k)]
    return clean and not _odd_images(side, semistandard, k)


def _is_packed(lines, k: int) -> bool:
    """Whether the label with these lines, its entries at most k, has entries exactly {1..k}."""
    return len({v for line in lines for v in line}) == k


def _scan_lines(side: Side, shape: tuple[int, ...], max_entry: int) -> list:
    """The labels :func:`scan` walks, as own lines: the rows of row-sorted fillings of the shape or its conjugate."""
    lengths = shape if side.rows else conjugate(shape)
    return list(product(*(combinations_with_replacement(range(1, max_entry + 1), n) for n in lengths)))


def _label(side: Side, shape: tuple[int, ...], lines) -> Tableau:
    """The tableau of ``shape`` with these own lines: built only for a label a report names."""
    return Tableau._fresh(lines, shape) if side.rows else from_columns(shape, lines)


def scan(side: Side, shape: tuple[int, ...], max_entry: int) -> KernelCertificate:
    """The certificate of ``side`` with every label of :func:`_scan_lines` scanned and every relation built."""
    bad, pivots, odd_pivots = _scan_relations(side, shape, _scan_lines(side, shape, max_entry), max_entry)
    semistandard = enumerate_tableaux(shape, max_entry, SEMISTANDARD)
    rank = len(semistandard)
    nullity = count_tableaux(shape, max_entry, side.basis) - rank
    return KernelCertificate(bad, nullity, rank, pivots, odd_pivots, _odd_images(side, semistandard, max_entry))


def _scan_relations(side: Side, shape: tuple[int, ...], labels, max_entry: int) -> tuple:
    """(the first relation not mapped to zero, the pivots with lead 1, the odd pivots) on ``labels``: parts 1 and 2.

    A relation maps to zero when the sum of the kernel images over its
    terms has every coefficient 0; the scan stops at the first that does
    not.  On every label, given by its own lines, with a pivot, the relation
    on ``side.pivot(lines)`` should have coefficient 1 on those lines and
    every other term strictly below them, in the order of
    :func:`~weylkit.tableaux.line_order_key`.
    """
    key = partial(line_order_key, max_entry=max_entry)
    relation_labels, relation = side.relations(shape)
    kernel_image = side.kernel_map()
    pivots, odd = 0, []
    for lines in labels:
        target, on_target = side.pivot(lines), None
        for r in relation_labels(lines):
            rel = relation(lines, r)
            if any(sum_images(rel.items(), kernel_image, {}).values()):
                return side.build(_label(side, shape, lines), r), pivots, tuple(odd)
            if r == target:
                on_target = rel
        if target is not None:
            leading = None if on_target is None else lead(lines, on_target, key)
            if leading == 1:
                pivots += 1
            else:
                t = _label(side, shape, lines)
                odd.append((leading, t, None if on_target is None else side.build(t, target)))
    return None, pivots, tuple(odd)


def _odd_images(side: Side, semistandard, max_entry: int) -> tuple:
    """The odd images of the ``semistandard`` labels: part 3 of the certificate.

    They are (lead, s, ``side.image(s)``) for each s whose image is not
    unitriangular.  The image of s is the kernel image of its own lines; it
    should have coefficient 1 on s's other lines and every other term
    strictly above them in the order of
    :func:`~weylkit.tableaux.line_order_key`.
    """
    own, other = ("rows", "columns") if side.rows else ("columns", "rows")
    key = partial(line_order_key, max_entry=max_entry)
    kernel_image = side.kernel_map()
    odd = []
    for s in semistandard:
        leading = lead(getattr(s, other), kernel_image(getattr(s, own)), key, above=True)
        if leading != 1:
            odd.append((leading, s, side.image(s)))
    return tuple(odd)


def _first_not_unit(odd: tuple, units: CoefficientRing):
    """The first (lead, label, relation or image) of ``odd`` whose lead is not a unit of ``units``, or None."""
    for entry in odd:
        if entry[0] is None or not units.is_unit(entry[0]):
            return entry
    return None


def _pivot_json(entry) -> dict:
    _, t, rel = entry
    return {"tableau": t.to_json()} if rel is None else rel.to_json()


def verify(side: Side, shape, max_entry: int, ring: CoefficientRing, size_cap, entry_cap) -> dict:
    """The report of ``side``'s kernel theorem on one instance over ``ring``, read off its :func:`certificate`.

    The ranks are taken over ``ring``, over Q for Z.  The map's rank is
    #ssyt when its images are unitriangular, with leads that are units;
    the span's is N when in addition every relation maps to zero and every
    one of the N pivots has a lead that is a unit.  Each is None otherwise.
    The checks after a failed membership check are left out, and over Z
    the lattice check adds that the relation lattice is a direct summand:
    every pivot has lead exactly 1.
    """
    shape = checked_shape(shape, max_entry, ring, size_cap, entry_cap)
    started = time.perf_counter()
    cert = certificate(side, shape, max_entry)
    units = ring if ring.is_field else QQ
    odd_image, odd_pivot = _first_not_unit(cert.odd_images, units), _first_not_unit(cert.odd_pivots, units)
    rank = cert.rank if odd_image is None else None
    every_pivot = cert.pivots + len(cert.odd_pivots) == cert.nullity
    proved = rank is not None and cert.bad is None and every_pivot and odd_pivot is None
    span = cert.nullity if proved else None
    ranks = dict(zip(side.rank_keys, (rank, span, cert.nullity)))
    checks = []
    for kind, name in side.checks:
        if kind == "membership":
            ok, example = cert.bad is None, None if cert.bad is None else cert.bad.to_json()
        elif kind == "image":
            ok = rank is not None
            example = None if ok else {"tableau": odd_image[1].to_json(), "image": odd_image[2].to_json()}
        elif kind == "span":
            ok, example = span is not None, None if odd_pivot is None else _pivot_json(odd_pivot)
        elif ring.kind == "z":
            ranks[side.pivots_key] = {"pivots": cert.pivots}
            ok = span is not None and cert.pivots == cert.nullity
            example = _pivot_json(cert.odd_pivots[0]) if cert.odd_pivots else None
        else:
            continue
        checks.append(check(name, ok, example))
        if kind == "membership" and not ok:
            break
    instance = {"shape": list(shape), "entries": max_entry, "ring": ring.tag}
    dims = side.dims(shape, max_entry, cert.rank + cert.nullity, cert.rank)
    return report(side.command, instance, dims, checks, started, ranks)
