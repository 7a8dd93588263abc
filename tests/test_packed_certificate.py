"""Part 6 of the kernel certificate: the certificate on (λ, m) is its packed blocks pushed forward.

A packed label has entries exactly {1..k}.  Every label with entries in
{1..m} is φ(u) for exactly one packed label u and one order-preserving
injection φ of {1..k} into {1..m}, and :func:`weylkit.verify.certificate`
reads a clean certificate off the packed blocks alone.  So:

- the premise: everything the certificate reads commutes with every φ into
  {1..7}, on every packed label with |λ| <= 5, and a mutant that breaks a
  relation only on labels that skip a value fails it;
- the oracle: the certificate equals the full scan on every (shape, m) with
  |λ| <= 5 and m <= 5, with and without each mutant that commutes with φ;
- the counts: Σ_k C(m, k)·P_k, with P_k the packed labels of a kind,
  equals ``count_tableaux``.
"""

from collections import defaultdict
from itertools import chain, combinations
from math import comb

import pytest

import weylkit.powers as powers
import weylkit.schur as schur
import weylkit.weyl as weyl
from weylkit.schur import SCHUR
from weylkit.tableaux import (
    COLUMN_STANDARD,
    ROW_SEMISTANDARD,
    SEMISTANDARD,
    Tableau,
    count_tableaux,
    enumerate_tableaux,
    line_order_key,
    partitions_up_to,
)
from weylkit.verify import _packed_block, _scan_lines, certificate, scan
from weylkit.weyl import WEYL

from test_kernel_certificate import THREE_ROW_MUTANTS, fields

T = Tableau
TARGET = 7  # every φ maps into {1..TARGET}
SIDES = {"schur": SCHUR, "weyl": WEYL}
SHAPES = ((), *partitions_up_to(5))  # the empty shape has no packed block with k >= 1
LINE_CACHES = (schur._garnir_int, schur._polytabloid_int, weyl._dual_garnir_int, powers._wedge_of_rsym_int)


@pytest.fixture(autouse=True)
def drop_line_caches():
    """Empty the relation and kernel caches after each test.

    The premise fills them with the images of some 90,000 pushed labels,
    and the oracle with every label at m = 5, which no later test reads.
    """
    yield
    for memo in LINE_CACHES:
        memo.cache_clear()


def push(lines, phi):
    """The lines with every entry v replaced by phi[v - 1]."""
    return tuple([tuple([phi[v - 1] for v in line]) for line in lines])


def push_terms(terms, phi):
    return {push(lines, phi): c for lines, c in terms.items()}


def packed(labels, k):
    """The labels, each given by its lines, whose entries are exactly {1..k}."""
    return [lines for lines in labels if set(chain.from_iterable(lines)) == set(range(1, k + 1))]


def _ranks(keys):
    """Each key's place among the distinct keys: equal for two labels exactly when every comparison is."""
    keys = list(keys)
    order = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def premise_failures(side, shape):
    """(what, packed label, φ) for each thing the certificate reads on ``shape`` that does not commute with φ.

    On every packed label of ``verify._scan_lines``, given by its own
    lines, and every φ: the relation labels kept on it, its pivot and its
    kernel image; on a shape with at most two lines, whose packed blocks
    scan relations, every relation kept on it; and, among the labels of
    each content, every comparison of ``line_order_key`` on their rows and
    on their columns.  The functions are those of ``side``, looked up at
    call time, so a test's patch reaches them.
    """
    relation_labels, relation = side.relations(shape)
    kernel_image = side.kernel_map()
    scans = (len(shape) if side.rows else sum(shape[:1])) <= 2  # at most two own lines: rows, or columns
    for k in range(1, sum(shape) + 1):
        labels = packed(_scan_lines(side, shape, k), k)
        contents = defaultdict(list)
        for own in labels:
            # the tableau whose rows are the label's own lines: its columns are the label's other lines
            contents[tuple(sorted(chain.from_iterable(own)))].append(T(own))
        groups = [(group, lines) for group in contents.values() if len(group) > 1 for lines in ("rows", "columns")]
        orders = [_ranks(line_order_key(getattr(t, lines), k) for t in group) for group, lines in groups]
        packed_data = [(lines, relation_labels(lines), side.pivot(lines)) for lines in labels]
        for phi in combinations(range(1, TARGET + 1), k):
            for lines, kept, pivot in packed_data:
                moved = push(lines, phi)
                if relation_labels(moved) != kept:
                    yield "relation labels", lines, phi
                if side.pivot(moved) != pivot:
                    yield "pivot", lines, phi
                if kernel_image(moved) != push_terms(kernel_image(lines), phi):
                    yield "kernel image", lines, phi
                if scans and any(relation(moved, r) != push_terms(relation(lines, r), phi) for r in kept):
                    yield "relation", lines, phi
            for (group, lines), order in zip(groups, orders):
                if _ranks(line_order_key(push(getattr(t, lines), phi), TARGET) for t in group) != order:
                    yield f"order on {lines}", group[0], phi


@pytest.mark.parametrize("side", sorted(SIDES))
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_everything_the_certificate_reads_commutes_with_every_order_preserving_injection(shape, side):
    assert next(premise_failures(SIDES[side], shape), None) is None


def _doubled_pivot_on_rows_two_and_three(original):
    # The form of THREE_ROW_MUTANTS["dual_garnir_doubled_pivot"] that does
    # not commute with φ: it doubles the pivots of [[1,2],[2,3],[2]] and of
    # [[2,3],[2]] only, and [[2,3],[2]] skips the value 1.
    t, two_rows = T([[1, 2], [2, 3], [2]]), T([[2, 3], [2]])
    targets = (
        (t.rows, frozenset({(2, 1), (2, 2)}), frozenset({(3, 1)})),
        (two_rows.rows, frozenset({(1, 1), (1, 2)}), frozenset({(2, 1)})),
    )
    return lambda *args: {u: 2 * c for u, c in original(*args).items()} if args in targets else original(*args)


def test_a_mutant_that_breaks_only_a_label_skipping_a_value_fails_the_premise(monkeypatch):
    # Negative control.  The packed block of (2, 1) at k = 2 holds
    # [[1,2],[1]], whose pivot is intact, so the pushed-forward certificate
    # is clean where the full scan finds the doubled pivot of [[2,3],[2]].
    monkeypatch.setattr(weyl, "_dual_garnir_int", _doubled_pivot_on_rows_two_and_three(weyl._dual_garnir_int))
    pushed, scanned = certificate(WEYL, (2, 1), 3), scan(WEYL, (2, 1), 3)
    assert pushed.bad is None and not pushed.odd_pivots
    assert [(lead, t) for lead, t, _ in scanned.odd_pivots] == [(2, T([[2, 3], [2]]))]
    assert next(premise_failures(WEYL, (2, 1)), None) == ("relation", T([[1, 2], [1]]).rows, (2, 3))


# The Weyl mutants of part 5's negative controls all commute with φ.
PHI_CLOSED = THREE_ROW_MUTANTS


@pytest.mark.parametrize("mutant", sorted(PHI_CLOSED))
def test_the_mutants_that_commute_with_every_injection_keep_the_premise(mutant, monkeypatch):
    attribute, mutate = PHI_CLOSED[mutant]
    monkeypatch.setattr(weyl, attribute, mutate(getattr(weyl, attribute)))
    for shape in partitions_up_to(4):
        assert next(premise_failures(WEYL, shape), None) is None, shape
    assert next(premise_failures(WEYL, (2, 2, 1)), None) is None


def test_the_certificate_is_the_full_scan_with_and_without_each_mutant():
    # A mutant that commutes with φ leaves the premise standing, so a block
    # that is clean proves its pushforwards clean, and one that is not sends
    # the certificate back to the scan.  One test for all of them, so the
    # mutants reuse the relations and images built without one.
    for mutant in [None, *sorted(PHI_CLOSED)]:
        certificate.cache_clear()
        _packed_block.cache_clear()
        with pytest.MonkeyPatch.context() as patch:
            if mutant is not None:
                attribute, mutate = PHI_CLOSED[mutant]
                patch.setattr(weyl, attribute, mutate(getattr(weyl, attribute)))
            for side in SIDES.values() if mutant is None else [WEYL]:
                for shape in SHAPES:
                    for m in range(1, 6):
                        got, scanned = fields(certificate(side, shape, m)), fields(scan(side, shape, m))
                        assert got == scanned, (mutant, side.command, shape, m)


@pytest.mark.parametrize("kind", (ROW_SEMISTANDARD, COLUMN_STANDARD, SEMISTANDARD))
def test_the_packed_counts_push_forward_to_every_count(kind):
    # Uncached: the labels at k = 6 would stay in memory for the session.
    enumerate_all = enumerate_tableaux.__wrapped__
    for shape in partitions_up_to(6):
        counts = [len(packed([t.rows for t in enumerate_all(shape, k, kind)], k)) for k in range(1, sum(shape) + 1)]
        for m in range(1, 8):
            assert sum(comb(m, k) * count for k, count in enumerate(counts, 1)) == count_tableaux(shape, m, kind)

