"""Acceptance suite: every criterion checked exactly, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All comparisons are exact (integer / rational / residue equality);
the only tolerances are the stated wall-clock budgets.
"""

import random
import time
from itertools import permutations as iperms

from weylkit.coeffs import QQ, ZZ, LinComb, integers_mod
from weylkit.duality import EntryMatrix, entry_action, equivariance_counterexample, pairing_image
from weylkit.powers import (
    ColumnTabloidElement,
    SymLowerElement,
    TensorElement,
    sym_lower_expand,
    wedge_of_sym_lower,
)
from weylkit.schur import verify_schur_ses
from weylkit.tableaux import (
    ALL,
    ROW_SEMISTANDARD,
    SEMISTANDARD,
    OrderVerdict,
    Tableau,
    compare_columns,
    enumerate_tableaux,
    partitions_up_to,
)
from weylkit.weyl import (
    STAR_STAR_VARIANT,
    STAR_VARIANT,
    copolytabloid,
    dual_garnir,
    dual_garnir_double_coset,
    dual_garnir_labels,
    straighten,
    variant_relation,
    verify_weyl_kernel,
)

from smith_oracle import smith_verdict, weyl_relation_rows

T = Tableau
Z2, Z3 = integers_mod(2), integers_mod(3)

SWEEP_SHAPES = tuple(partitions_up_to(5))
SWEEP_ENTRIES = (1, 2, 3)
SWEEP_RINGS = (QQ, Z2, Z3)

_cache: dict = {}


def kernel_reports():
    if "kernel" not in _cache:
        _cache["kernel"] = {
            (shape, m, ring.tag): verify_weyl_kernel(shape, m, ring)
            for shape in SWEEP_SHAPES
            for m in SWEEP_ENTRIES
            for ring in SWEEP_RINGS
        }
    return _cache["kernel"]


def report(num, ok, detail):
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_worked_example_regression():
    started = time.perf_counter()
    t = T([[1, 1], [2, 2]])
    box_a = frozenset({(1, 1), (1, 2)})
    box_b = frozenset({(2, 1)})

    rel = dual_garnir(t, box_a, box_b)
    ok = rel.element == SymLowerElement(
        LinComb(ZZ, {t: 2, T([[1, 2], [1, 2]]): 1})
    )
    ok &= sym_lower_expand(rel.element) == TensorElement(
        LinComb(
            ZZ,
            {
                t: 2,
                T([[2, 1], [1, 2]]): 1,
                T([[1, 2], [1, 2]]): 1,
                T([[2, 1], [2, 1]]): 1,
                T([[1, 2], [2, 1]]): 1,
            },
        )
    )
    ok &= wedge_of_sym_lower(rel.element).is_zero

    minus_two = ColumnTabloidElement(LinComb(ZZ, {t: -2}))
    ok &= copolytabloid(T([[2, 1], [1, 2]])) == minus_two
    ok &= copolytabloid(t) == ColumnTabloidElement(LinComb(ZZ, {t: 1}))

    star = variant_relation(t, box_a, box_b, STAR_VARIANT)
    ok &= wedge_of_sym_lower(star.element) == ColumnTabloidElement(LinComb(ZZ, {t: -3}))
    ok &= wedge_of_sym_lower(star.element.change_ring(Z3)).is_zero

    star_star = variant_relation(t, box_a, box_b, STAR_STAR_VARIANT)
    ok &= star_star.element == rel.element.scaled(2)

    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    report(1, ok, f"worked example on shape (2,2), alphabet 2 ({elapsed:.3f}s < 1s)")


def test_criterion_02_kernel_theorem_sweep():
    started = time.perf_counter()
    membership_failures = 0
    labels_checked = 0
    for shape in SWEEP_SHAPES:
        for m in SWEEP_ENTRIES:
            for t in enumerate_tableaux(shape, m, ALL):
                for box_a, box_b in dual_garnir_labels(shape):
                    rel = dual_garnir(t, box_a, box_b)
                    image = wedge_of_sym_lower(rel.element)
                    labels_checked += 1
                    if not image.is_zero:
                        membership_failures += 1
                    for ring in SWEEP_RINGS:
                        if not image.change_ring(ring).is_zero:
                            membership_failures += 1

    rank_failures = []
    for (shape, m, tag), rep in kernel_reports().items():
        expected = rep["dims"]["rssyt"] - rep["dims"]["ssyt"]
        if not (rep["ok"] and rep["ranks"]["snake_span"] == expected):
            rank_failures.append((shape, m, tag))

    elapsed = time.perf_counter() - started
    ok = membership_failures == 0 and not rank_failures and elapsed < 60.0
    report(
        2,
        ok,
        f"{labels_checked} relation labels in the kernel and snake span rank = nullity "
        f"on {len(kernel_reports())} instances ({elapsed:.1f}s < 60s)",
    )


def test_criterion_03_semistandard_basis_unitriangular():
    failures = 0
    instances = 0
    for shape in SWEEP_SHAPES:
        for m in SWEEP_ENTRIES:
            instances += 1
            ssyt = enumerate_tableaux(shape, m, SEMISTANDARD)
            for s in ssyt:
                image = copolytabloid(s)
                if image.coeff(s) != 1:
                    failures += 1
                for w, _ in image.items():
                    if w != s and compare_columns(s, w) is not OrderVerdict.LESS:
                        failures += 1
            for ring in SWEEP_RINGS:
                rep = kernel_reports()[(shape, m, ring.tag)]
                if rep["ranks"]["projection"] != len(ssyt):
                    failures += 1
    report(
        3,
        failures == 0,
        f"leading-term unitriangularity and |SSYT| = rank on {instances} instances",
    )


def test_criterion_04_straightening_soundness():
    started = time.perf_counter()
    failures = 0
    checked = 0
    for shape in SWEEP_SHAPES:
        for m in SWEEP_ENTRIES:
            labels = enumerate_tableaux(shape, m, ROW_SEMISTANDARD)
            rng = random.Random(f"{shape}:{m}")
            for _ in range(200):
                support = rng.sample(labels, min(3, len(labels)))
                coords = {t: rng.choice((-3, -2, -1, 1, 2, 3)) for t in support}
                x = SymLowerElement(LinComb(ZZ, coords))
                cert = straighten(x)
                checked += 1
                if not cert.verify():
                    failures += 1
                if not all(isinstance(c, int) for *_ignore, c in cert.gamma):
                    failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 30.0
    report(4, ok, f"{checked} random certificates exact ({elapsed:.1f}s < 30s)")


def test_criterion_05_double_coset_oracle():
    failures = 0
    checked = 0
    for shape in SWEEP_SHAPES:
        for m in SWEEP_ENTRIES:
            for t in enumerate_tableaux(shape, m, ALL):
                for box_a, box_b in dual_garnir_labels(shape):
                    if len(box_a) + len(box_b) > 5:
                        continue
                    checked += 1
                    if (
                        dual_garnir_double_coset(t, box_a, box_b).element
                        != dual_garnir(t, box_a, box_b).element
                    ):
                        failures += 1
    report(5, failures == 0, f"double-coset form agrees on {checked} labels")


def test_criterion_06_schur_side_exact_sequence():
    failures = []
    for shape in SWEEP_SHAPES:
        for m in SWEEP_ENTRIES:
            for ring in SWEEP_RINGS:
                rep = verify_schur_ses(shape, m, ring)
                rank_identity = (
                    rep["ranks"]["garnir_span"] + rep["dims"]["ssyt"] == rep["dims"]["csyt"]
                )
                if not (rep["ok"] and rank_identity):
                    failures.append((shape, m, ring.tag))
    report(6, not failures, f"relation rank + |SSYT| = |CSYT| and kernel equality, {3 * len(SWEEP_SHAPES) * len(SWEEP_ENTRIES)} instances")


def test_criterion_07_duality_theorem():
    started = time.perf_counter()
    failures = 0
    checked = 0
    for shape in partitions_up_to(4):
        for m in SWEEP_ENTRIES:
            for t in enumerate_tableaux(shape, m, ROW_SEMISTANDARD):
                checked += 1
                if pairing_image(t, m) != copolytabloid(t):
                    failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 60.0
    report(7, ok, f"pairing image equals copolytabloid on {checked} labels ({elapsed:.1f}s < 60s)")


def _random_unimodular(rng, m):
    upper = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(m)] for i in range(m)]
    lower = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0) for j in range(m)] for i in range(m)]
    perm = list(range(m))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(m)]
    pmat = [[signs[i] if perm[i] == j else 0 for j in range(m)] for i in range(m)]
    g = EntryMatrix(ZZ, upper).compose(EntryMatrix(ZZ, lower)).compose(EntryMatrix(ZZ, pmat))
    return g


def test_criterion_08_equivariance():
    started = time.perf_counter()
    failures = 0
    checked = 0
    for shape in partitions_up_to(4):
        for m in SWEEP_ENTRIES:
            matrices = [EntryMatrix.identity(m)]
            matrices += [EntryMatrix.permutation(images) for images in iperms(range(1, m + 1))]
            rng = random.Random(f"{shape}:{m}:equivariance")
            matrices += [_random_unimodular(rng, m) for _ in range(20)]
            for g in matrices:
                for which in ("lambda", "e"):
                    checked += 1
                    if equivariance_counterexample(shape, m, g, which) is not None:
                        failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 60.0
    report(8, ok, f"projection maps commute with {checked} matrix actions ({elapsed:.1f}s < 60s)")


def test_criterion_09_distinct_entry_specialization():
    failures = 0
    checked = 0
    for shape in SWEEP_SHAPES:
        n = sum(shape)
        for filling in iperms(range(1, n + 1)):
            word = iter(filling)
            t = T([[next(word) for _ in range(k)] for k in shape])
            for box_a, box_b in dual_garnir_labels(shape):
                rel = dual_garnir(t, box_a, box_b)
                checked += 1
                if any(c != 1 for _, c in rel.element.items()):
                    failures += 1
    report(9, failures == 0, f"all coefficients are 1 on {checked} injective labels")


def test_criterion_10_integral_exactness_certificate():
    failures = []
    for shape in partitions_up_to(4):
        for m in (1, 2):
            rep = verify_weyl_kernel(shape, m, ZZ)
            certificate = rep["ranks"].get("snake_certificate")
            expected = rep["dims"]["rssyt"] - rep["dims"]["ssyt"]
            unit_divisors = smith_verdict(*weyl_relation_rows(shape, m), shape, m)
            if not (rep["ok"] and certificate == {"pivots": expected} and unit_divisors):
                failures.append((shape, m))
    report(10, not failures, "snake relation matrices are unitriangular, with unit elementary divisors")
