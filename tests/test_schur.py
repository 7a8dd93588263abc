import random
from collections import Counter
from itertools import permutations as iperms

import pytest
from hypothesis import given, settings, strategies as st

import weylkit.schur as schur
from weylkit.coeffs import QQ, ZZ, LinComb, integers_mod
from weylkit.places import PlacePermutation
from weylkit.powers import ColumnTabloidElement, RowTabloidElement
from weylkit.schur import (
    apply_polytabloid_map,
    garnir,
    garnir_labels,
    polytabloid,
    verify_schur_ses,
)
from weylkit.tableaux import (
    ALL,
    COLUMN_STANDARD,
    ROW_SEMISTANDARD,
    Tableau,
    column_order_key,
    conjugate,
    enumerate_tableaux,
    from_columns,
    partitions_up_to,
    sort_columns,
    sort_rows,
)
from weylkit.verify import SizeCapExceeded, certificate

from place_oracles import column_preserving_permutations, shuffle_garnir, wedge_projection
from smith_oracle import schur_relation_rows, smith_verdict
from straighten_oracle import leading_coefficient
from weight_oracles import column_sorted_labels, full_scan

T = Tableau


def brute_polytabloid(t):
    """Oracle: literal signed sum over the whole column-preserving group."""
    terms = {}
    for sigma in column_preserving_permutations(t.shape):
        label = sort_rows(sigma.act(t))
        terms[label] = terms.get(label, 0) + sigma.sign
    return RowTabloidElement(LinComb(ZZ, terms))


class TestPolytabloid:
    def test_hook_example(self):
        got = polytabloid(T([[1, 2], [2]]))
        assert got == RowTabloidElement(
            LinComb(ZZ, {T([[1, 2], [2]]): 1, T([[2, 2], [1]]): -1})
        )

    def test_repeated_column_entry_gives_zero(self):
        assert polytabloid(T([[1, 2], [1, 3]])).is_zero
        assert polytabloid(T([[1, 1], [1, 1]])).is_zero

    def test_column_permutation_changes_sign(self):
        rng = random.Random(5)
        for shape, m in [((2, 2), 3), ((2, 1), 3), ((2, 2, 1), 2)]:
            tabs = enumerate_tableaux(shape, m, ALL)
            sigmas = list(column_preserving_permutations(shape))
            for _ in range(10):
                t = rng.choice(tabs)
                sigma = rng.choice(sigmas)
                assert polytabloid(sigma.act(t)) == polytabloid(t).scaled(sigma.sign)

    def test_matches_group_sum_oracle(self):
        for shape, m in [((2, 1), 2), ((2, 2), 2), ((3, 1), 2)]:
            for t in enumerate_tableaux(shape, m, ALL):
                assert polytabloid(t) == brute_polytabloid(t)

    def test_map_is_well_defined_on_signed_classes(self):
        # transposing one column flips the sign of the polytabloid
        t = T([[1, 2], [3, 4]])
        swapped = PlacePermutation.transposition(t.shape, (1, 1), (2, 1)).act(t)
        assert polytabloid(swapped) == polytabloid(t).scaled(-1)


class TestGarnir:
    A = frozenset({(1, 1), (2, 1)})
    B = frozenset({(1, 2)})

    def brute_garnir(self, t, box_a, box_b):
        """Oracle: enumerate the box-set group, split into left cosets, sum reps."""
        union = tuple(sorted(box_a | box_b))
        k = len(union)
        elements = []
        for images in iperms(union):
            elements.append(PlacePermutation(t.shape, dict(zip(union, images))))
        subgroup = [
            s
            for s in elements
            if all((dst in box_a) == (src in box_a) for src, dst in s.mapping.items())
        ]
        seen = set()
        terms = {}
        for tau in elements:
            coset = frozenset(tau.then(k2).images for k2 in subgroup)
            if coset in seen:
                continue
            seen.add(coset)
            sorted_ = sort_columns(tau.act(t))
            if sorted_ is None:
                continue
            sign, w = sorted_
            terms[w] = terms.get(w, 0) + tau.sign * sign
        return ColumnTabloidElement(LinComb(ZZ, terms))

    def test_square_example_three_terms_killed_by_map(self):
        t = T([[1, 2], [3, 4]])
        rel = garnir(t, self.A, self.B)
        assert len(rel.element.lin) == 3
        assert rel.element == self.brute_garnir(t, self.A, self.B)
        assert apply_polytabloid_map(rel.element).is_zero

    def test_relations_land_in_kernel_small_sweep(self):
        for shape in partitions_up_to(4):
            for m in (1, 2):
                for t in enumerate_tableaux(shape, m, ALL):
                    for box_a, box_b in garnir_labels(shape):
                        rel = garnir(t, box_a, box_b)
                        assert apply_polytabloid_map(rel.element).is_zero

    def test_matches_brute_force_on_square(self):
        for t in enumerate_tableaux((2, 2), 2, ALL):
            rel = garnir(t, self.A, self.B)
            assert rel.element == self.brute_garnir(t, self.A, self.B)

    def test_constant_tableau_relation_vanishes(self):
        rel = garnir(T([[1, 1], [1, 1]]), self.A, self.B)
        assert rel.element.is_zero

    def test_label_validation(self):
        t = T([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="exceed"):
            garnir(t, frozenset({(1, 1)}), frozenset({(1, 2)}))
        with pytest.raises(ValueError, match="earlier column"):
            garnir(t, frozenset({(1, 2), (2, 2)}), frozenset({(1, 1)}))
        with pytest.raises(ValueError, match="single column"):
            garnir(t, frozenset({(1, 1), (1, 2)}), frozenset({(2, 2)}))

    def test_label_sweep_counts(self):
        # (2, 2): columns of length 2; subsets with |A| + |B| > 2
        labels = list(garnir_labels((2, 2)))
        assert len(labels) == 5
        assert all(len(a) + len(b) > 2 for a, b in labels)


class TestVerify:
    def test_hook_over_rationals(self):
        report = verify_schur_ses((2, 1), 2, QQ)
        assert report["ok"]
        assert report["dims"] == {"csyt": 2, "ssyt": 2, "wedge_dim": 2}
        assert report["ranks"]["polytabloid_map"] == 2
        assert report["ranks"]["garnir_span"] == 0

    def test_single_box_is_injective(self):
        report = verify_schur_ses((1,), 3, QQ)
        assert report["ok"]
        assert report["ranks"]["polytabloid_map"] == 3
        assert report["ranks"]["garnir_span"] == 0

    def test_square_mod_two(self):
        report = verify_schur_ses((2, 2), 2, integers_mod(2))
        assert report["ok"]
        assert report["ranks"]["polytabloid_map"] + report["ranks"]["garnir_span"] == report["dims"]["csyt"]

    def test_integer_ring_adds_divisor_certificate(self):
        report = verify_schur_ses((2, 2), 2, ZZ)
        assert report["ok"]
        assert report["ranks"]["garnir_certificate"] == {"pivots": report["ranks"]["garnir_span"]}
        assert smith_verdict(*schur_relation_rows((2, 2), 2), (2, 2), 2)

    def test_relation_lattice_unit_divisors_sweep(self):
        for shape in partitions_up_to(4):
            for m in (1, 2):
                report = verify_schur_ses(shape, m, ZZ)
                assert report["ok"], (shape, m)
                certificate = report["ranks"]["garnir_certificate"]
                assert certificate == {"pivots": report["ranks"]["garnir_span"]}, (shape, m)
                assert smith_verdict(*schur_relation_rows(shape, m), shape, m), (shape, m)

    def test_caps(self):
        with pytest.raises(SizeCapExceeded):
            verify_schur_ses((4, 2), 2, QQ, size_cap=5)
        with pytest.raises(SizeCapExceeded):
            verify_schur_ses((2, 1), 9, QQ)

    def test_rejects_non_field_modulus(self):
        with pytest.raises(ValueError):
            verify_schur_ses((2, 1), 2, integers_mod(4))


def _up_to_sign(lin):
    return frozenset({lin, lin.scaled(-1)})


class TestColumnSortedLabels:
    """The full scan decides Garnir relations on every column-sorted label."""

    @staticmethod
    def scanned(shape, m, monkeypatch):
        """The (t, A, B) the full scan decides, with their relations, and those it skips, on the labels it scans.

        The full scan, which a certificate runs on a shape with at most two
        columns and on one whose two-column certificates are not all clean,
        decides the relation on every (A, B) that ``_relation_labels``
        keeps for t.
        """
        decided = []
        original = schur._relation_labels

        def recording(shape):
            relation_labels = original(shape)

            def recorded(columns):
                kept = relation_labels(columns)
                decided.extend((from_columns(shape, columns), box_a, box_b) for box_a, box_b in kept)
                return kept

            return recorded

        monkeypatch.setattr(schur, "_relation_labels", recording)
        cert = full_scan(shape, m)
        assert cert.bad is None and cert.pivots == cert.nullity
        every = [(t, box_a, box_b) for t in column_sorted_labels(shape, m) for box_a, box_b in garnir_labels(shape)]
        relations = {label: garnir(*label) for label in decided}
        return relations, [label for label in every if label not in relations]

    @pytest.mark.parametrize("m", (1, 2, 3))
    @pytest.mark.parametrize("shape", tuple(partitions_up_to(4)), ids=str)
    def test_relations_match_the_all_labels_loop_up_to_sign(self, shape, m, monkeypatch):
        # a column permutation sends a relation to ± one on a column-sorted label
        decided, skipped = self.scanned(shape, m, monkeypatch)
        zeros = [shuffle_garnir(*label) for label in skipped]
        assert all(lin.is_zero for lin in zeros)
        found = {_up_to_sign(rel.element.lin) for rel in decided.values()} | {_up_to_sign(lin) for lin in zeros}
        oracle = {
            _up_to_sign(shuffle_garnir(t, box_a, box_b))
            for t in enumerate_tableaux(shape, m, ALL)
            for box_a, box_b in garnir_labels(shape)
        }
        assert found == oracle

    def test_the_scan_skips_only_zero_relations_and_no_pivot(self, monkeypatch):
        skipped_in_all = 0
        for shape in partitions_up_to(5):
            for m in (1, 2, 3):
                decided, skipped = self.scanned(shape, m, monkeypatch)
                for label in skipped:
                    assert shuffle_garnir(*label).is_zero, label
                for t in enumerate_tableaux(shape, m, COLUMN_STANDARD):
                    if not t.is_semistandard:
                        assert (t, *schur._garnir_pivot(t.columns)) in decided, t
                skipped_in_all += len(skipped)
        assert skipped_in_all > 3000

    def test_the_scan_builds_no_zero_relation(self, monkeypatch):
        # the zero rule skips each relation that repeats an entry on A | B, and
        # a shape with three or more columns builds none of its own.  The
        # certificates are pushed forward from packed blocks, built once for
        # every m, so each relation kept on a packed label with k values
        # (entries exactly 1..k) of a shape with at most two columns is built
        # once, for k up to the largest m of the shape
        built = []
        original = schur._garnir_int

        def recording(columns, box_a, box_b):
            built.append(((columns, box_a, box_b), original(columns, box_a, box_b)))
            return built[-1][1]

        monkeypatch.setattr(schur, "_garnir_int", recording)
        cases = [(shape, m) for shape in partitions_up_to(5) for m in (1, 2, 3)]
        for shape, m in cases + [(shape, 4) for shape in partitions_up_to(4)]:
            certificate.cache_clear()
            assert verify_schur_ses(shape, m, ZZ, entry_cap=None)["ok"], (shape, m)
        assert not [label for label, relation in built if not relation]
        kept = [
            (t.columns, box_a, box_b)
            for shape in partitions_up_to(5)
            if shape[0] <= 2
            for k in range(1, min(4 if sum(shape) <= 4 else 3, sum(shape)) + 1)
            for t in column_sorted_labels(shape, k)
            if set(t.reading_word) == set(range(1, k + 1))
            for box_a, box_b in garnir_labels(shape)
            if len({t.entry(*box) for box in box_a | box_b}) == len(box_a | box_b)
        ]
        assert Counter(label for label, _ in built) == Counter(kept)
        assert len(built) > 50

    def test_every_pivot_has_leading_coefficient_one(self):
        checked = 0
        for shape in partitions_up_to(5):
            for m in (1, 2, 3):
                for t in enumerate_tableaux(shape, m, COLUMN_STANDARD):
                    if t.is_semistandard:
                        continue
                    rel = garnir(t, *schur._garnir_pivot(t.columns))
                    assert leading_coefficient(rel.element, t, lambda u: column_order_key(u, m)) == 1, t
                    checked += 1
        assert checked > 100
        assert schur._garnir_pivot(T([[1, 2], [1]]).columns) is None  # column-sorted, not column standard

    @pytest.mark.parametrize("ring", (QQ, ZZ), ids=str)
    def test_a_relation_outside_the_kernel_fails_the_check(self, ring, monkeypatch):
        t = T([[1, 2], [3]])
        box_a, box_b = frozenset({(1, 1), (2, 1)}), frozenset({(1, 2)})

        original = schur._garnir_int

        def corrupted(*args):
            return {t.columns: 1} if args == (t.columns, box_a, box_b) else original(*args)

        monkeypatch.setattr(schur, "_garnir_int", corrupted)
        report = verify_schur_ses((2, 1), 3, ring)
        assert not report["ok"]
        assert [c["name"] for c in report["checks"] if not c["ok"]] == ["garnir_relations_map_to_zero"]
        example = report["checks"][0]["counterexample"]
        assert (example["tableau"], example["boxA"], example["boxB"]) == (
            t.to_json(),
            {"boxes": [[1, 1], [2, 1]]},
            {"boxes": [[1, 2]]},
        )
        assert report["ranks"]["garnir_span"] is None


# ---------------------------------------------------------------------------
# locality: a Garnir relation is its two-column relation put back


THREE_COLUMN_SHAPES = [shape for shape in partitions_up_to(5) if shape[0] > 2]


def with_columns(t, ja, jb, two_columns):
    """t with columns j_A and j_B replaced by ``two_columns``."""
    cols = list(t.columns)
    cols[ja - 1], cols[jb - 1] = two_columns
    return T(T(cols).columns)


@pytest.mark.parametrize("shape", THREE_COLUMN_SHAPES, ids=str)
def test_a_relation_is_its_two_column_relation_with_the_other_columns_put_back(shape):
    checked = repeating = 0
    for m in (1, 2, 3):
        for t in column_sorted_labels(shape, m):
            for box_a, box_b in garnir_labels(shape):
                (ja,), (jb,) = {j for _, j in box_a}, {j for _, j in box_b}
                # the two-column relation: columns j_A and j_B, A and B moved onto columns 1 and 2
                columns = (t.columns[ja - 1], t.columns[jb - 1])
                local = schur._garnir_int(columns, frozenset((i, 1) for i, _ in box_a), frozenset((i, 2) for i, _ in box_b))
                put_back = wedge_projection((with_columns(t, ja, jb, u), c) for u, c in local.items())
                relation = garnir(t, box_a, box_b).element.lin
                assert relation == put_back, (t, box_a, box_b)
                if any(len(set(col)) < len(col) for j, col in enumerate(t.columns, 1) if j not in (ja, jb)):
                    assert relation.is_zero, (t, box_a, box_b)
                    repeating += 1
                checked += 1
    assert checked > repeating
    assert repeating or len(shape) == 1  # a one-row label repeats no entry in a column


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_column_order_compares_two_columns_as_their_two_column_labels(data):
    shape = data.draw(st.sampled_from(THREE_COLUMN_SHAPES))
    m = data.draw(st.integers(1, 3))
    t = data.draw(st.sampled_from(column_sorted_labels(shape, m)))
    lengths = conjugate(shape)
    ja = data.draw(st.integers(1, len(lengths) - 1))
    jb = data.draw(st.integers(ja + 1, len(lengths)))
    two_columns = column_sorted_labels(conjugate((lengths[ja - 1], lengths[jb - 1])), m)
    u, v = data.draw(st.sampled_from(two_columns)), data.draw(st.sampled_from(two_columns))
    whole = column_order_key(with_columns(t, ja, jb, u.columns), m) < column_order_key(with_columns(t, ja, jb, v.columns), m)
    assert whole == (column_order_key(u, m) < column_order_key(v, m))


def test_a_sweep_leaves_only_two_column_relations_in_the_garnir_cache(monkeypatch):
    original = schur._garnir_int
    called = set()

    def recording(columns, box_a, box_b):
        called.add((columns, box_a, box_b))
        return original(columns, box_a, box_b)

    original.cache_clear()
    monkeypatch.setattr(schur, "_garnir_int", recording)
    for shape in partitions_up_to(5):
        for m in (1, 2, 3):
            assert verify_schur_ses(shape, m, ZZ)["ok"], (shape, m)
    # every key the cache holds came from a call
    assert original.cache_info().currsize == len(called)
    assert all(len(columns) <= 2 for columns, _, _ in called)
