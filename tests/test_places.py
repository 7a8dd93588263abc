import random
from itertools import permutations
from math import factorial

import pytest

from weylkit.places import (
    PlacePermutation,
    boxset_to_json,
    double_coset_reps,
    left_coset_reps,
    class_index,
    multiset_permutations,
    row_orbit,
    row_stabilizer_order,
    _split_row_stabilizer_order,
    sab_cosets_star,
    sab_orbit_row_classes,
)
from weylkit.tableaux import Tableau, enumerate_tableaux, partitions_up_to, sort_rows

from place_oracles import (
    all_place_permutations,
    column_preserving_permutations,
    row_preserving_permutations,
)

T = Tableau

EXAMPLE_T = T([[1, 1], [2, 2]])
EXAMPLE_A = frozenset({(1, 1), (1, 2)})
EXAMPLE_B = frozenset({(2, 1)})


def brute_row_stabilizer(t):
    return [s for s in row_preserving_permutations(t.shape) if s.act(t) == t]


class TestPlacePermutation:
    def test_identity_acts_trivially(self):
        t = T([[1, 2], [3, 4]])
        assert PlacePermutation.identity(t.shape).act(t) == t

    def test_transposition_example(self):
        sigma = PlacePermutation.transposition((2, 2), (1, 1), (2, 1))
        assert sigma.act(EXAMPLE_T) == T([[2, 1], [1, 2]])
        assert sigma.sign == -1

    def test_bad_mapping_rejected(self):
        with pytest.raises(ValueError):
            PlacePermutation((2, 1), {(1, 1): (3, 3)})
        with pytest.raises(ValueError):
            PlacePermutation((2, 1), {(1, 1): (1, 2)})  # not a bijection

    def test_right_action_exhaustive_small_shapes(self):
        for shape in partitions_up_to(4):
            n = sum(shape)
            word = iter(range(1, n + 1))
            distinct = T([[next(word) for _ in range(k)] for k in shape])
            repeated = T([[1] * k for k in shape])
            perms = list(all_place_permutations(shape))
            for sigma in perms:
                for tau in perms:
                    combo = sigma.then(tau)
                    for t in (distinct, repeated):
                        assert tau.act(sigma.act(t)) == combo.act(t)

    def test_inverse_cancels(self):
        rng = random.Random(7)
        shape = (3, 2)
        perms = list(all_place_permutations(shape))
        t = T([[1, 2, 2], [3, 3]])
        for sigma in rng.sample(perms, 20):
            assert sigma.then(sigma.inverse()).act(t) == t

    def test_sign_multiplicative(self):
        perms = list(all_place_permutations((2, 1)))
        for s in perms:
            for u in perms:
                assert s.then(u).sign == s.sign * u.sign


class TestRowOrbit:
    def test_fully_stabilized_tableau(self):
        assert row_orbit(EXAMPLE_T) == (EXAMPLE_T,)

    def test_four_element_orbit(self):
        got = set(row_orbit(T([[2, 1], [1, 2]])))
        assert got == {
            T([[2, 1], [1, 2]]),
            T([[1, 2], [1, 2]]),
            T([[2, 1], [2, 1]]),
            T([[1, 2], [2, 1]]),
        }

    def test_constant_row(self):
        t = T([[2, 2, 2]])
        assert row_orbit(t) == (t,)

    def test_orbit_stabilizer_identity(self):
        for shape, m in [((2, 1), 2), ((2, 2), 2), ((3, 1), 2), ((2, 1, 1), 2)]:
            group_order = 1
            for k in shape:
                group_order *= factorial(k)
            for t in enumerate_tableaux(shape, m, "all"):
                assert len(row_orbit(t)) * row_stabilizer_order(t) == group_order

    def test_stabilizer_order_against_brute_force(self):
        for t in enumerate_tableaux((2, 2), 2, "all"):
            assert row_stabilizer_order(t) == len(brute_row_stabilizer(t))

    def test_split_stabilizer_against_brute_force(self):
        members = EXAMPLE_A | EXAMPLE_B
        for t in enumerate_tableaux((2, 2), 2, "all"):
            brute = [
                s
                for s in brute_row_stabilizer(t)
                if all((dst in members) == (src in members) for src, dst in s.mapping.items())
            ]
            assert _split_row_stabilizer_order(t, members) == len(brute)


class TestMultisetPermutations:
    def test_distinct_and_complete(self):
        items = (1, 2, 2, 3)
        got = list(multiset_permutations(items))
        assert got == sorted(set(permutations(items)))

    def test_empty(self):
        assert list(multiset_permutations(())) == [()]


class TestSabOrbitClasses:
    def test_two_by_two_example(self):
        classes = sab_orbit_row_classes(EXAMPLE_T, EXAMPLE_A, EXAMPLE_B)
        canon = {(sort_rows(u), idx) for u, idx in classes}
        assert canon == {(T([[1, 1], [2, 2]]), 2), (T([[1, 2], [1, 2]]), 1)}

    def test_representatives_lie_in_reachable_set(self):
        classes = sab_orbit_row_classes(EXAMPLE_T, EXAMPLE_A, EXAMPLE_B)
        union = sorted(EXAMPLE_A | EXAMPLE_B)
        outside = {(i, j) for i, j in [(2, 2)]}
        for u, _ in classes:
            for i, j in outside:
                assert u.entry(i, j) == EXAMPLE_T.entry(i, j)
            assert sorted(u.entry(i, j) for i, j in union) == sorted(
                EXAMPLE_T.entry(i, j) for i, j in union
            )

    def test_constant_entries_single_class(self):
        t = T([[1, 1], [1, 1]])
        classes = sab_orbit_row_classes(t, EXAMPLE_A, EXAMPLE_B)
        assert len(classes) == 1
        rep, index = classes[0]
        assert rep == t
        # oracle: count the stabilizer subgroups by explicit enumeration
        members = EXAMPLE_A | EXAMPLE_B
        full = brute_row_stabilizer(t)
        split = [
            s
            for s in full
            if all((dst in members) == (src in members) for src, dst in s.mapping.items())
        ]
        assert index == len(full) // len(split) == 2
        assert row_stabilizer_order(t) % index == 0

    def test_distinct_entries_all_indices_one(self):
        t = T([[1, 2], [3, 4]])
        for box_a, box_b in [
            (EXAMPLE_A, EXAMPLE_B),
            (frozenset({(1, 2)}), frozenset({(2, 1), (2, 2)})),
        ]:
            for _, idx in sab_orbit_row_classes(t, box_a, box_b):
                assert idx == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            sab_orbit_row_classes(EXAMPLE_T, EXAMPLE_A, frozenset({(1, 1)}))
        with pytest.raises(ValueError):
            sab_orbit_row_classes(
                EXAMPLE_T, frozenset({(1, 1), (2, 2)}), frozenset({(2, 1)})
            )


class TestSabCosetsStar:
    def test_two_by_two_example(self):
        got = {(sort_rows(u), mult) for u, mult in sab_cosets_star(EXAMPLE_T, EXAMPLE_A, EXAMPLE_B)}
        assert got == {(T([[1, 1], [2, 2]]), 1), (T([[1, 2], [1, 2]]), 2)}

    def test_distinct_entries_hit_each_coset_once(self):
        t = T([[1, 2], [3, 4]])
        got = sab_cosets_star(t, EXAMPLE_A, EXAMPLE_B)
        assert all(mult == 1 for _, mult in got)
        assert len(got) == 3  # |S_3| / (|S_2| * |S_1|)


class TestDoubleCosets:
    def test_example_has_two_cosets(self):
        reps = double_coset_reps(EXAMPLE_T, EXAMPLE_A, EXAMPLE_B)
        assert len(reps) == 2
        acted = {sort_rows(r.act(EXAMPLE_T)) for r in reps}
        assert acted == {T([[1, 1], [2, 2]]), T([[1, 2], [1, 2]])}

    def test_matches_orbit_classes_everywhere_small(self):
        box_pairs = [
            (EXAMPLE_A, EXAMPLE_B),
            (frozenset({(1, 2)}), frozenset({(2, 1), (2, 2)})),
        ]
        for t in enumerate_tableaux((2, 2), 2, "all"):
            for box_a, box_b in box_pairs:
                members = frozenset(box_a | box_b)
                via_dc = sorted(
                    (sort_rows(r.act(t)), class_index(r.act(t), members))
                    for r in double_coset_reps(t, box_a, box_b)
                )
                via_orbit = sorted(
                    (sort_rows(u), idx) for u, idx in sab_orbit_row_classes(t, box_a, box_b)
                )
                assert via_dc == via_orbit

    def test_refuses_large_box_sets(self):
        t = T([[1, 2, 3, 4], [5, 6, 7]])
        box_a = frozenset({(1, j) for j in range(1, 5)})
        box_b = frozenset({(2, j) for j in range(1, 4)})
        with pytest.raises(ValueError, match="refuses"):
            double_coset_reps(t, box_a, box_b)


class TestCosetReps:
    def test_counts_binomial(self):
        reps = left_coset_reps((2, 2), EXAMPLE_A, EXAMPLE_B)
        assert len(reps) == 3
        assert any(r == PlacePermutation.identity((2, 2)) for r in reps)

    def test_column_groups_enumerate(self):
        cols = list(column_preserving_permutations((2, 2)))
        assert len(cols) == 4


@pytest.mark.parametrize("orbit_sum", [sab_orbit_row_classes, sab_cosets_star, double_coset_reps])
@pytest.mark.parametrize(
    "box_a, box_b, reason",
    [
        (EXAMPLE_A, frozenset(), "nonempty"),
        (frozenset({(1, 1)}), frozenset({(1, 2)}), "earlier row"),
        (frozenset({(2, 1), (2, 2)}), frozenset({(1, 1)}), "earlier row"),
    ],
    ids=["empty B", "same row", "A below B"],
)
def test_two_row_sums_reject_invalid_labels(orbit_sum, box_a, box_b, reason):
    with pytest.raises(ValueError, match=reason):
        orbit_sum(EXAMPLE_T, box_a, box_b)


def test_boxset_json_round_trip():
    s = frozenset({(1, 2), (1, 1)})
    assert frozenset(tuple(box) for box in boxset_to_json(s)["boxes"]) == s
    assert boxset_to_json(s) == {"boxes": [[1, 1], [1, 2]]}
