from collections import Counter
from itertools import product
from operator import attrgetter

import pytest
from hypothesis import given, strategies as st

import weylkit.tableaux as tableaux
from weylkit.coeffs import InputError
from weylkit.tableaux import (
    ALL,
    COLUMN_STANDARD,
    ROW_SEMISTANDARD,
    SEMISTANDARD,
    OrderVerdict,
    Tableau,
    check_partition,
    column_order_key,
    compare_columns,
    compare_rows,
    conjugate,
    count_tableaux,
    diagram_boxes,
    enumerate_tableaux,
    from_word,
    line_order_key,
    partitions_up_to,
    permutation_sign,
    row_order_key,
    sort_columns,
    sort_rows,
)

T = Tableau


def _compare_by_contents(t_lines, u_lines) -> OrderVerdict:
    """The order straight from its definition, the oracle of the sort keys.

    Find the largest entry in any per-line multiset symmetric difference,
    then the first line where it differs; more copies there means greater.
    """
    best = None  # (entry, line index, sign)
    for idx, (a, b) in enumerate(zip(t_lines, u_lines)):
        ca, cb = Counter(a), Counter(b)
        for v in set(ca) | set(cb):
            da = ca[v] - cb[v]
            if da == 0:
                continue
            cand = (v, -idx)
            if best is None or cand > best[:2]:
                best = (v, -idx, da)
    if best is None:
        return OrderVerdict.INCOMPARABLE
    return OrderVerdict.GREATER if best[2] > 0 else OrderVerdict.LESS


class TestPartitions:
    def test_validation(self):
        assert check_partition((3, 2, 2)) == (3, 2, 2)
        with pytest.raises(ValueError):
            check_partition((2, 3))
        with pytest.raises(ValueError):
            check_partition((2, 0))

    def test_conjugate_examples(self):
        assert conjugate((3, 2)) == (2, 2, 1)
        assert conjugate((4,)) == (1, 1, 1, 1)
        assert conjugate(()) == ()

    def test_conjugate_is_involutive_up_to_8(self):
        for shape in partitions_up_to(8):
            assert conjugate(conjugate(shape)) == shape

    def test_conjugate_against_grid_transpose(self):
        # independent oracle: transpose the boolean diagram
        for shape in partitions_up_to(6):
            boxes = set(diagram_boxes(shape))
            transposed = {(j, i) for i, j in boxes}
            expect = []
            i = 1
            while (i, 1) in transposed:
                expect.append(max(j for a, j in transposed if a == i))
                i += 1
            assert conjugate(shape) == tuple(expect)

    def test_diagram_boxes(self):
        assert diagram_boxes((2, 1)) == ((1, 1), (1, 2), (2, 1))


class TestTableau:
    def test_shape_and_entries(self):
        t = T([[1, 2, 2], [3, 3]])
        assert t.shape == (3, 2)
        assert t.entry(2, 1) == 3
        assert t.reading_word == (1, 2, 2, 3, 3)
        assert t.column_entries(1) == (1, 3)
        assert t.column_entries(3) == (2,)

    def test_validation(self):
        with pytest.raises(ValueError):
            T([[1], [2, 3]])
        with pytest.raises(ValueError):
            T([[0, 1]])

    def test_bools_are_not_entries_or_parts(self):
        with pytest.raises(ValueError):
            T([[True, 2]])
        with pytest.raises(ValueError):
            check_partition((True,))

    def test_predicates(self):
        assert T([[1, 2, 2], [3, 3]]).is_semistandard
        assert T([[2, 1], [3, 3]]).is_column_standard
        assert not T([[2, 1], [3, 3]]).is_row_semistandard
        assert not T([[1, 2], [1, 3]]).is_column_standard

    def test_json_round_trip(self):
        t = T([[1, 2, 2], [3, 3]])
        assert Tableau.from_json(t.to_json()) == t
        assert Tableau.from_json([[1, 2], [2, 2]]) == T([[1, 2], [2, 2]])
        with pytest.raises(ValueError):
            Tableau.from_json({"shape": [2, 2], "rows": [[1, 2], [3]]})

    def test_immutability(self):
        t = T([[1]])
        with pytest.raises(AttributeError):
            t.rows = ((2,),)


def content_count_key(lines, max_entry):
    """``line_order_key`` from one dict of content counts per line, as it was first written: its oracle."""
    counts = []
    for line in lines:
        count = {}
        for v in line:
            count[v] = count.get(v, 0) + 1
        counts.append(count)
    return tuple(count.get(v, 0) for v in range(max_entry, 0, -1) for count in counts)


# the defining predicate of each class
CLASS_PREDICATES = {
    ALL: lambda t: True,
    ROW_SEMISTANDARD: attrgetter("is_row_semistandard"),
    COLUMN_STANDARD: attrgetter("is_column_standard"),
    SEMISTANDARD: attrgetter("is_semistandard"),
}


def brute_force_enumeration(shape, m, kind):
    """Every word of the alphabet filled into the shape row by row, kept by the class's predicate, by sort_key."""
    fillings = []
    for word in product(range(1, m + 1), repeat=sum(shape)):
        entries = iter(word)
        fillings.append(T([[next(entries) for _ in range(k)] for k in shape]))
    return sorted(filter(CLASS_PREDICATES[kind], fillings), key=attrgetter("sort_key"))


def enumeration_mismatches(enumerate_):
    """The (shape, m, kind) with |shape| <= 5 and m <= 3 on which ``enumerate_`` differs from the brute force."""
    return [
        (shape, m, kind)
        for shape in partitions_up_to(5)
        for m in (1, 2, 3)
        for kind in CLASS_PREDICATES
        if list(enumerate_(shape, m, kind)) != brute_force_enumeration(shape, m, kind)
    ]


class TestEnumeration:
    def brute(self, shape, m, predicate):
        return [t for t in enumerate_tableaux(shape, m, ALL) if predicate(t)]

    def test_semistandard_2x2_alphabet_2(self):
        expect = self.brute((2, 2), 2, lambda t: t.is_semistandard)
        got = enumerate_tableaux((2, 2), 2, SEMISTANDARD)
        assert list(got) == expect == [T([[1, 1], [2, 2]])]

    def test_semistandard_hook_alphabet_2(self):
        expect = self.brute((2, 1), 2, lambda t: t.is_semistandard)
        got = enumerate_tableaux((2, 1), 2, SEMISTANDARD)
        assert list(got) == expect == [T([[1, 1], [2]]), T([[1, 2], [2]])]

    def test_column_standard_needs_enough_entries(self):
        assert enumerate_tableaux((1, 1, 1), 2, COLUMN_STANDARD) == ()

    def test_every_class_matches_brute_force(self):
        cases = [((2, 1), 2), ((2, 2), 2), ((3, 1), 2), ((2, 1), 3), ((1, 1, 1), 3)]
        predicates = {
            ROW_SEMISTANDARD: lambda t: t.is_row_semistandard,
            COLUMN_STANDARD: lambda t: t.is_column_standard,
            SEMISTANDARD: lambda t: t.is_semistandard,
        }
        for shape, m in cases:
            for kind, pred in predicates.items():
                assert list(enumerate_tableaux(shape, m, kind)) == self.brute(shape, m, pred)

    def test_every_class_is_the_sorted_brute_force(self):
        assert enumeration_mismatches(enumerate_tableaux) == []

    def test_column_standard_labels_left_unsorted_are_caught(self):
        def unsorted(shape, m, kind):
            if kind == COLUMN_STANDARD:
                return tuple(tableaux._iter_column_standard(shape, m))
            return enumerate_tableaux(shape, m, kind)

        assert ((2, 1), 3, COLUMN_STANDARD) in enumeration_mismatches(unsorted)

    def test_a_generator_out_of_reading_word_order_is_caught(self, monkeypatch):
        # only the column-standard labels are sorted, so the other generators' own order is what a caller sees
        original = tableaux._iter_row_semistandard
        monkeypatch.setattr(tableaux, "_iter_row_semistandard", lambda shape, m: reversed(list(original(shape, m))))
        assert ((2,), 2, ROW_SEMISTANDARD) in enumeration_mismatches(enumerate_tableaux.__wrapped__)

    def test_sorted_and_duplicate_free(self):
        for kind in (ALL, ROW_SEMISTANDARD, COLUMN_STANDARD, SEMISTANDARD):
            tabs = enumerate_tableaux((2, 2, 1), 3, kind)
            words = [t.reading_word for t in tabs]
            assert words == sorted(words)
            assert len(set(tabs)) == len(tabs)

    def test_counts_match_enumeration(self):
        for shape, m in [((2, 1), 3), ((2, 2), 2), ((3, 2), 2), ((1, 1, 1), 3)]:
            for kind in (ALL, ROW_SEMISTANDARD, COLUMN_STANDARD, SEMISTANDARD):
                assert count_tableaux(shape, m, kind) == len(enumerate_tableaux(shape, m, kind))

    @pytest.mark.parametrize("count", (count_tableaux, enumerate_tableaux), ids=("count", "enumerate"))
    @pytest.mark.parametrize("kind", (ALL, ROW_SEMISTANDARD, COLUMN_STANDARD, SEMISTANDARD))
    @pytest.mark.parametrize("max_entry", (0, -5))
    def test_an_empty_alphabet_is_an_input_error(self, count, kind, max_entry):
        with pytest.raises(InputError, match="max_entry must be >= 1"):
            count((2, 1), max_entry, kind)

    @pytest.mark.parametrize(
        "count, max_entry, kind",
        [(count_tableaux, True, ALL), (count_tableaux, 2.5, ALL), (enumerate_tableaux, 2.5, SEMISTANDARD)],
        ids=("count-bool", "count-float", "enumerate-float"),
    )
    def test_a_non_integer_alphabet_is_an_input_error(self, count, max_entry, kind):
        with pytest.raises(InputError, match="max_entry must be an integer"):
            count((2, 1), max_entry, kind)

    @pytest.mark.parametrize("count", (count_tableaux, enumerate_tableaux), ids=("count", "enumerate"))
    def test_an_unknown_class_is_an_input_error(self, count):
        with pytest.raises(InputError, match="unknown tableau class 'bogus'"):
            count((2, 1), 2, "bogus")


class TestOrders:
    def test_equal_tableaux_are_incomparable(self):
        t = T([[1, 2], [2, 2]])
        assert compare_columns(t, t) is OrderVerdict.INCOMPARABLE
        assert compare_rows(t, t) is OrderVerdict.INCOMPARABLE

    def test_equal_column_contents_are_incomparable(self):
        t, u = T([[1, 1], [2, 2]]), T([[2, 1], [1, 2]])
        assert compare_columns(t, u) is OrderVerdict.INCOMPARABLE

    def test_single_row_example(self):
        t, u = T([[1, 2]]), T([[2, 1]])
        assert compare_columns(t, u) is OrderVerdict.LESS
        assert compare_columns(u, t) is OrderVerdict.GREATER

    def test_equal_row_contents_are_incomparable(self):
        t, u = T([[2, 1], [1, 2]]), T([[1, 2], [1, 2]])
        assert compare_rows(t, u) is OrderVerdict.INCOMPARABLE

    def test_higher_large_entry_is_row_greater(self):
        t, u = T([[1], [2]]), T([[2], [1]])
        assert compare_rows(t, u) is OrderVerdict.LESS
        assert compare_rows(u, t) is OrderVerdict.GREATER

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            compare_columns(T([[1, 2]]), T([[1], [2]]))

    def test_trichotomy_exhaustive(self):
        for shape, m in [((2, 1), 3), ((2, 2), 2), ((3, 1), 2)]:
            tabs = enumerate_tableaux(shape, m, ALL)
            for t in tabs:
                for u in tabs:
                    cc, rc = compare_columns(t, u), compare_rows(t, u)
                    flip = {
                        OrderVerdict.LESS: OrderVerdict.GREATER,
                        OrderVerdict.GREATER: OrderVerdict.LESS,
                        OrderVerdict.INCOMPARABLE: OrderVerdict.INCOMPARABLE,
                    }
                    assert compare_columns(u, t) is flip[cc]
                    assert compare_rows(u, t) is flip[rc]

    def test_incomparable_means_equal_contents(self):
        tabs = enumerate_tableaux((2, 2), 2, ALL)
        for t in tabs:
            for u in tabs:
                cols_equal = all(
                    sorted(t.column_entries(j)) == sorted(u.column_entries(j)) for j in (1, 2)
                )
                assert (compare_columns(t, u) is OrderVerdict.INCOMPARABLE) == cols_equal

    def test_sort_keys_agree_with_comparisons(self):
        for shape, m in [((2, 1), 3), ((2, 2), 2)]:
            tabs = enumerate_tableaux(shape, m, ALL)
            for t in tabs:
                for u in tabs:
                    rv = _compare_by_contents(t.rows, u.rows)
                    cv = _compare_by_contents(t.columns, u.columns)
                    assert compare_rows(t, u) is rv
                    assert compare_columns(t, u) is cv
                    rk = row_order_key(t, m), row_order_key(u, m)
                    ck = column_order_key(t, m), column_order_key(u, m)
                    assert (rv is OrderVerdict.LESS) == (rk[0] < rk[1])
                    assert (rv is OrderVerdict.INCOMPARABLE) == (rk[0] == rk[1])
                    assert (cv is OrderVerdict.LESS) == (ck[0] < ck[1])
                    assert (cv is OrderVerdict.INCOMPARABLE) == (ck[0] == ck[1])


def test_line_order_key_counts_as_the_content_dicts_do():
    for shape in partitions_up_to(5):
        for m in (1, 2, 3, 4):
            for t in enumerate_tableaux(shape, m, ALL):
                for lines in (t.rows, t.columns):
                    assert line_order_key(lines, m) == content_count_key(lines, m), lines


def cycle_count(p) -> int:
    """Number of cycles of the permutation i -> p[i] of range(len(p))."""
    seen, cycles = set(), 0
    for i in range(len(p)):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = p[i]
    return cycles


class TestSorting:
    @given(st.integers(0, 8).flatmap(lambda n: st.permutations(range(n))))
    def test_permutation_sign_is_the_cycle_type_sign(self, p):
        assert permutation_sign(p) == (-1) ** (len(p) - cycle_count(p))

    @given(
        st.sampled_from(((), *partitions_up_to(6))).flatmap(
            lambda shape: st.tuples(*(st.lists(st.integers(1, 9), min_size=k, max_size=k) for k in shape))
        )
    )
    def test_from_word_inverts_the_reading_word(self, rows):
        t = T(rows)
        u = from_word(t.shape, t.reading_word)
        assert u == t and u.shape == t.shape

    def test_sort_rows(self):
        assert sort_rows(T([[2, 1], [1, 2]])) == T([[1, 2], [1, 2]])
        t = T([[1, 2, 2], [3, 3]])
        assert sort_rows(t) == t
        col = T([[2], [1]])
        assert sort_rows(col) == col

    def test_sort_rows_idempotent_and_constant_on_row_classes(self):
        for t in enumerate_tableaux((2, 2), 2, ALL):
            s = sort_rows(t)
            assert sort_rows(s) == s
            assert s.is_row_semistandard
            assert compare_rows(s, t) is OrderVerdict.INCOMPARABLE

    def test_sort_columns_sign_against_brute_force(self):
        from place_oracles import column_preserving_permutations

        t = T([[2, 1], [1, 2]])
        matches = []
        for sigma in column_preserving_permutations(t.shape):
            u = sigma.act(t)
            if u.is_column_standard:
                matches.append((sigma.sign, u))
        assert len({u for _, u in matches}) == 1
        assert sort_columns(t) == matches[0] == (-1, T([[1, 1], [2, 2]]))

    def test_sort_columns_zero_on_repeats(self):
        assert sort_columns(T([[1, 2], [1, 3]])) is None

    def test_sort_columns_fixes_column_standard(self):
        t = T([[1, 2], [2, 3]])
        assert sort_columns(t) == (1, t)

    def test_sort_columns_zero_iff_column_repeat(self):
        for t in enumerate_tableaux((2, 2), 3, ALL):
            has_repeat = any(
                len(set(t.column_entries(j))) != len(t.column_entries(j)) for j in (1, 2)
            )
            assert (sort_columns(t) is None) == has_repeat
