import inspect
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from itertools import permutations as iperms
from operator import attrgetter

import pytest

import weylkit.duality as duality
import weylkit.powers as powers
import weylkit.schur as schur
from weylkit.coeffs import QQ, ZZ, CoefficientRing, InputError, LinComb, integers_mod, parse_ring
from weylkit.duality import (
    POLYTABLOID_MAP,
    WEDGE_MAP,
    DualFunctional,
    EntryMatrix,
    entry_action,
    equivariance_check,
    equivariance_counterexample,
    find_dual_basis_mismatch,
    pairing_image,
    polytabloid_dual_image,
)
from weylkit.linalg import solve_exact
from weylkit.places import stabilizer_order
from weylkit.powers import (
    ColumnTabloidElement,
    RowTabloidElement,
    SymLowerElement,
    TableauElement,
    TensorElement,
    rsym,
    sym_lower_coords,
    sym_lower_expand,
    to_row_tabloid,
    wedge_of_sym_lower,
    wedge_project,
)
from weylkit.schur import apply_polytabloid_map, polytabloid
from weylkit.tableaux import (
    COLUMN_STANDARD,
    ROW_SEMISTANDARD,
    SEMISTANDARD,
    Tableau,
    enumerate_tableaux,
    from_columns,
    partitions_up_to,
    sort_rows,
)
from weylkit.weyl import copolytabloid, dual_garnir, dual_garnir_labels

import dual_image_oracles as oracle
import equivariance_oracle
import projection_oracles
from row_image_oracle import arrangement_row_image, separate_row_images

T = Tableau

# every (shape, m) the per-label oracles are held to: |shape| <= 5 at m <= 3, |shape| <= 4 at m = 4
ORACLE_CASES = [(shape, m) for shape in partitions_up_to(5) for m in (1, 2, 3)] + [
    (shape, 4) for shape in partitions_up_to(4)
]


# the name in duality of each map's line-form label image, which _map reads at call time
LINE_FORM_IMAGE = {WEDGE_MAP: "_wedge_of_rsym_int", POLYTABLOID_MAP: "_polytabloid_int"}


def random_unimodular(rng, m, ring=ZZ):
    """Product of unit-diagonal triangular matrices and a signed permutation."""
    upper = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(m)] for i in range(m)]
    lower = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0) for j in range(m)] for i in range(m)]
    perm = list(range(m))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(m)]
    pmat = [[signs[i] if perm[i] == j else 0 for j in range(m)] for i in range(m)]
    product = EntryMatrix(ring, upper).compose(EntryMatrix(ring, lower)).compose(EntryMatrix(ring, pmat))
    return product


RING_UNITS = {
    "z": (1, -1),
    "q": (Fraction(1, 2), Fraction(-3), Fraction(2, 5)),
    "zmod:2": (1,),
    "zmod:4": (1, 3),
    "zmod:6": (1, 5),
}
ORACLE_RINGS = {"z": ZZ, "q": QQ, "zmod:2": integers_mod(2), "zmod:6": integers_mod(6)}


def random_invertible(rng, m, tag):
    """A random unimodular matrix times a diagonal of random units of the ring."""
    ring = parse_ring(tag)
    diag = [[rng.choice(RING_UNITS[tag]) if i == j else 0 for j in range(m)] for i in range(m)]
    return random_unimodular(rng, m, ring).compose(EntryMatrix(ring, diag))


def random_element(rng, cls, shape, m, ring):
    """Up to four basis labels of the element's space with random coefficients."""
    kind = COLUMN_STANDARD if cls is ColumnTabloidElement else ROW_SEMISTANDARD
    labels = enumerate_tableaux(shape, m, kind)
    coeffs = (1, -1, 2, 3, Fraction(1, 2)) if ring == QQ else (1, -1, 2, 3)
    chosen = rng.sample(labels, min(4, len(labels)))
    return cls(LinComb(ring, [(t, rng.choice(coeffs)) for t in chosen]))


def tensor_oracle(x, g):
    """The action through tensor representatives: expand, act box by box, project back."""
    if isinstance(x, ColumnTabloidElement):
        return wedge_project(entry_action(TensorElement(x.lin), g))
    if isinstance(x, RowTabloidElement):
        return to_row_tabloid(entry_action(TensorElement(x.lin), g))
    return sym_lower_coords(entry_action(sym_lower_expand(x), g))


class TestEntryMatrix:
    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="non-invertible"):
            EntryMatrix(ZZ, [[1, 1], [1, 1]])

    def test_integer_matrices_need_unit_determinant(self):
        with pytest.raises(ValueError, match="non-invertible"):
            EntryMatrix(ZZ, [[2, 0], [0, 1]])
        EntryMatrix(QQ, [[2, 0], [0, 1]])  # fine over the rationals

    def test_zmod_determinant_must_be_unit(self):
        EntryMatrix(integers_mod(6), [[5, 0], [0, 1]])
        with pytest.raises(ValueError, match="non-invertible"):
            EntryMatrix(integers_mod(6), [[2, 0], [0, 1]])

    def test_rational_singular_matrix_is_rejected(self):
        with pytest.raises(ValueError, match="non-invertible"):
            EntryMatrix(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])

    def test_rational_determinant_matches_leibniz(self):
        def leibniz(rows):
            n = len(rows)
            total = 0
            for p in iperms(range(n)):
                inversions = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
                term = (-1) ** inversions
                for i in range(n):
                    term *= rows[i][p[i]]
                total += term
            return total

        rng = random.Random(5)
        for _ in range(200):
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3)] for _ in range(3)]
            if rng.random() < 0.25:  # a zero pivot, so the elimination swaps rows
                rows[0][0] = Fraction(0)
            assert duality._determinant(QQ, rows) == leibniz(rows)

    def test_permutation_constructor(self):
        g = EntryMatrix.permutation((2, 1))
        assert g.entry(2, 1) == 1 and g.entry(1, 2) == 1 and g.entry(1, 1) == 0

    @pytest.mark.parametrize("images", [(0, 1), (3, 1)])
    def test_permutation_images_outside_one_to_m_are_refused(self, images):
        # (0, 1) would wrap index -1 onto the last row, and (3, 1) would index past the matrix
        with pytest.raises(InputError, match=rf"permutation images \[{images[0]}, 1\] are not a permutation of 1..2"):
            EntryMatrix.permutation(images)

    def test_random_unimodular_are_accepted(self):
        rng = random.Random(0)
        for _ in range(10):
            random_unimodular(rng, 3)


class TestEntryAction:
    def test_identity_fixes_everything(self):
        g = EntryMatrix.identity(2)
        x = rsym(T([[1, 2], [1, 2]]))
        assert entry_action(x, g) == x

    def test_single_box_matches_matrix_column(self):
        g = EntryMatrix(ZZ, [[1, 1], [0, 1]])  # upper unitriangular
        x = TensorElement(LinComb(ZZ, {T([[2]]): 1}))
        assert entry_action(x, g) == TensorElement(LinComb(ZZ, {T([[1]]): 1, T([[2]]): 1}))
        y = TensorElement(LinComb(ZZ, {T([[1]]): 1}))
        assert entry_action(y, g) == y

    def test_tensor_action_over_z6_reduces_each_product(self):
        z6 = integers_mod(6)
        g = EntryMatrix(z6, [[5, 2], [3, 5]])  # determinant 19 = 1 mod 6
        x = TensorElement(LinComb(z6, {T([[1], [2]]): 1}))
        # e_1 -> 5 e_1 + 3 e_2 in the upper box and e_2 -> 2 e_1 + 5 e_2 in the
        # lower one: 5*2 = 10, 5*5 = 25 and 3*5 = 15 reduce to 4, 1 and 3, and
        # the word (2, 1) vanishes, since 3*2 = 6.
        expected = {T([[1], [1]]): 4, T([[1], [2]]): 1, T([[2], [2]]): 3}
        assert entry_action(x, g) == TensorElement(LinComb(z6, expected))

    def test_swap_fixes_the_square_copolytabloid(self):
        g = EntryMatrix.permutation((2, 1))
        x = copolytabloid(T([[1, 1], [2, 2]]))
        # the label swaps to [[2,2],[1,1]], whose copolytabloid is the same element
        assert entry_action(x, g) == copolytabloid(T([[2, 2], [1, 1]]))
        assert entry_action(x, g) == x

    def test_monoid_action_on_random_pairs(self):
        rng = random.Random(23)
        t = T([[1, 2], [3]])
        elements = [
            rsym(t),
            RowTabloidElement(LinComb(ZZ, {t: 1, T([[1, 1], [2]]): -2})),
            SymLowerElement(LinComb(ZZ, {t: 3, T([[2, 3], [3]]): 1})),
            ColumnTabloidElement(LinComb(ZZ, {t: 1, T([[2, 1], [3]]): 2})),
        ]
        for _ in range(6):
            g, h = random_unimodular(rng, 3), random_unimodular(rng, 3)
            for x in elements:
                assert entry_action(x, g.compose(h)) == entry_action(entry_action(x, h), g)

    @pytest.mark.parametrize("tag", sorted(ORACLE_RINGS))
    def test_functorial_action_matches_tensor_oracle(self, tag):
        ring = ORACLE_RINGS[tag]
        rng = random.Random(f"oracle:{tag}")
        checked = 0
        for shape in partitions_up_to(4):
            for m in (1, 2, 3):
                g = random_invertible(rng, m, tag)
                for cls in (ColumnTabloidElement, RowTabloidElement, SymLowerElement):
                    for _ in range(2):
                        x = random_element(rng, cls, shape, m, ring)
                        acted = entry_action(x, g)
                        assert type(acted) is cls
                        assert cls(acted.lin) == acted  # built unchecked, so re-validate
                        assert acted == tensor_oracle(x, g), (shape, m, cls.__name__, x)
                        checked += 1
        assert checked == 11 * 3 * 3 * 2

    def test_sym_lower_action_round_trips(self):
        g = EntryMatrix.permutation((2, 3, 1))
        x = SymLowerElement(LinComb(ZZ, {T([[1, 1], [2, 3]]): 2}))
        acted = entry_action(x, g)
        assert isinstance(acted, SymLowerElement)
        back = entry_action(acted, EntryMatrix.permutation((3, 1, 2)))
        assert back == x

    def test_ring_mismatch(self):
        g = EntryMatrix.identity(2, QQ)
        with pytest.raises(ValueError, match="ring mismatch"):
            entry_action(rsym(T([[1, 2]])), g)

    def test_an_entry_outside_the_matrix_is_refused(self):
        with pytest.raises(ValueError, match="entry matrix too small for the element's alphabet"):
            entry_action(rsym(T([[1, 3]])), EntryMatrix.identity(2))

    def test_an_element_of_no_space_is_refused(self):
        with pytest.raises(TypeError, match="unsupported element type TableauElement"):
            entry_action(TableauElement(LinComb(ZZ, {T([[1, 2]]): 1})), EntryMatrix.identity(2))

    def test_compose_names_a_ring_mismatch(self):
        with pytest.raises(ValueError, match="ring mismatch"):
            EntryMatrix.identity(2, QQ).compose(EntryMatrix.identity(2, ZZ))

    def test_compose_names_a_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch: 2x2 after 3x3"):
            EntryMatrix.identity(2, ZZ).compose(EntryMatrix.identity(3, ZZ))


class TestRowImage:
    """The one-factor-at-a-time row kernel against the arrangement sums."""

    @pytest.mark.parametrize("tag", ("z", "q", "zmod:4", "zmod:6"))
    def test_matches_the_arrangement_sums(self, tag):
        rng = random.Random(f"rows:{tag}")
        checked = 0
        non_integral = False
        for m in (1, 2, 3, 4):
            g = random_invertible(rng, m, tag)
            non_integral |= any(getattr(v, "denominator", 1) != 1 for row in g.entries for v in row)
            for k in range(1, 6):
                for row in combinations_with_replacement(range(1, m + 1), k):
                    for space in (RowTabloidElement.space, SymLowerElement.space):
                        keys, values = duality._part_image(g, space, row)
                        divided = space == SymLowerElement.space
                        assert dict(zip(keys, values)) == arrangement_row_image(g, row, divided), (g, row)
                        checked += 1
        assert checked == 2 * (5 + 20 + 55 + 125)  # sorted rows of length 1..5 for m = 1, 2, 3, 4
        assert non_integral == (tag == "q")

    def test_divided_power_rescales_by_the_stabilisers(self):
        g = EntryMatrix(ZZ, [[1, 1], [0, 1]])
        # g e_1 . g e_2 = e_1 (e_1 + e_2): S[(1,1), (1,2)] = 1, and |Stab (1,1)| / |Stab (1,2)| = 2
        assert dict(zip(*duality._part_image(g, RowTabloidElement.space, (1, 2)))) == {(1, 1): 1, (1, 2): 1}
        assert dict(zip(*duality._part_image(g, SymLowerElement.space, (1, 2)))) == {(1, 1): 2, (1, 2): 1}


# a dense unimodular matrix of each size: no entry is zero
DENSE_BY_SIZE = {1: [[-1]], 2: [[2, 1], [1, 1]], 3: [[2, 1, 1], [1, 1, 1], [1, 1, 2]]}


def row_image_matrices(tag, m):
    """The identity, a cyclic permutation and a dense unimodular matrix of size m over the ring."""
    ring = parse_ring(tag)
    cycle = tuple(range(2, m + 1)) + (1,)
    return [EntryMatrix.identity(m, ring), EntryMatrix.permutation(cycle, ring), EntryMatrix(ring, DENSE_BY_SIZE[m])]


def sorted_rows(m, lengths=range(5)):
    """Every sorted row over {1..m} of the given lengths, 0 to 4 unless told otherwise."""
    return [row for k in lengths for row in combinations_with_replacement(range(1, m + 1), k)]


def row_image_mismatches(part_image, tag):
    """The (g, row, first power asked for) on which ``part_image`` misses the two products taken apart."""
    spaces = (RowTabloidElement.space, SymLowerElement.space)
    for m in (1, 2, 3):
        for matrix in row_image_matrices(tag, m):
            for row in sorted_rows(m):
                expected = separate_row_images(matrix, row)
                for first in spaces:
                    g = EntryMatrix(matrix.ring, matrix.entries)  # nothing memoised yet
                    part_image(g, first, row)
                    got = tuple(dict(zip(*part_image(g, space, row))) for space in spaces)
                    if got != expected:
                        yield g, row, first


class TestSharedRowProduct:
    """One product of g on a row serves the symmetric and the divided power."""

    @pytest.mark.parametrize("tag", ["z", "zmod:4", "zmod:6", "q"])
    def test_both_powers_match_the_products_taken_apart(self, tag):
        assert list(row_image_mismatches(duality._part_image, tag)) == []
        # the empty row and 3 + 6 + 10 + 15 sorted rows for m = 3; the cases hold the divided rescale to something
        assert len(sorted_rows(3)) == 35 and separate_row_images(EntryMatrix(ZZ, DENSE), (1, 2))[1][1, 1] == 4

    def test_a_rescale_with_the_stabiliser_of_the_wrong_line_is_caught(self):
        mutant = mutated(duality._part_image, "v * _sorted_stabilizer(s), stab", "v * stab, _sorted_stabilizer(s)")
        for tag in ("z", "zmod:4", "zmod:6", "q"):
            assert list(row_image_mismatches(mutant, tag)), tag

    def test_stabiliser_orders_are_read_off_the_runs(self):
        lines = sorted_rows(4, range(8))
        assert len(lines) == 330  # the empty line and every sorted line of 1 to 7 entries in {1..4}
        for line in lines:
            assert duality._sorted_stabilizer(line) == stabilizer_order(line), line

    @pytest.mark.parametrize("space", [RowTabloidElement.space, SymLowerElement.space])
    def test_one_request_stores_the_two_row_images_from_one_product(self, monkeypatch, space):
        products = []
        original = duality._line_product

        def counted(g, line, alternating):
            products.append((line, alternating))
            return original(g, line, alternating)

        monkeypatch.setattr(duality, "_line_product", counted)
        g = EntryMatrix(ZZ, DENSE)
        duality._part_image(g, space, (1, 1, 2))
        assert set(g._images) == {(RowTabloidElement.space, (1, 1, 2)), (SymLowerElement.space, (1, 1, 2))}
        # over Z both powers are nonzero on the same lines, so they keep one tuple of them
        assert g._images[RowTabloidElement.space, (1, 1, 2)][0] is g._images[SymLowerElement.space, (1, 1, 2)][0]
        duality._part_image(g, RowTabloidElement.space, (1, 1, 2))
        duality._part_image(g, SymLowerElement.space, (1, 1, 2))
        duality._part_image(g, ColumnTabloidElement.space, (1, 2))
        assert products == [((1, 1, 2), False), ((1, 2), True)]
        assert len(g._images) == 3

    def test_basis_lines_are_read_once_per_shape_alphabet_and_map(self, monkeypatch):
        for which in (WEDGE_MAP, POLYTABLOID_MAP):
            assert equivariance_check((2, 1), 3, EntryMatrix.identity(3), which)
        calls = []
        original = duality._lines
        monkeypatch.setattr(duality, "_lines", lambda t, space: calls.append(t) or original(t, space))
        for which in (WEDGE_MAP, POLYTABLOID_MAP):
            assert equivariance_check((2, 1), 3, EntryMatrix(ZZ, DENSE), which)
        assert calls == []


class TestPairing:
    def test_square_semistandard(self):
        t = T([[1, 1], [2, 2]])
        assert pairing_image(t, 2) == ColumnTabloidElement(LinComb(ZZ, {t: 1}))
        assert pairing_image(t, 2) == copolytabloid(t)

    def test_square_twisted(self):
        t = T([[1, 2], [1, 2]])
        assert pairing_image(t, 2) == ColumnTabloidElement(
            LinComb(ZZ, {T([[1, 1], [2, 2]]): -2})
        )
        assert pairing_image(t, 2) == copolytabloid(t)

    def test_matches_copolytabloid_small_sweep(self):
        for shape in partitions_up_to(3):
            for m in (1, 2, 3):
                for t in enumerate_tableaux(shape, m, ROW_SEMISTANDARD):
                    assert pairing_image(t, m) == copolytabloid(t)

    def test_row_unsorted_input_is_canonicalized(self):
        assert pairing_image(T([[2, 1], [1, 2]]), 2) == pairing_image(T([[1, 2], [1, 2]]), 2)

    def test_evaluating_on_polytabloids_gives_the_pairing_image(self):
        for t in enumerate_tableaux((2, 1), 3, ROW_SEMISTANDARD):
            functional = DualFunctional(LinComb(ZZ, {t: 1}))
            image = pairing_image(t, 3)
            for u in enumerate_tableaux((2, 1), 3, COLUMN_STANDARD):
                assert functional.evaluate(polytabloid(u)) == image.coeff(u)

    def test_evaluate_refuses_another_ring(self):
        t = T([[1, 2], [1]])
        with pytest.raises(ValueError, match="ring mismatch"):
            DualFunctional(LinComb(ZZ, {t: 1})).evaluate(polytabloid(T([[1, 2], [2]]), QQ))

    def test_functional_labels_validated(self):
        with pytest.raises(ValueError):
            DualFunctional(LinComb(ZZ, {T([[2, 1]]): 1}))

    def test_an_entry_outside_the_alphabet_is_refused(self):
        with pytest.raises(InputError, match="tableau entries exceed the alphabet"):
            pairing_image(T([[1, 3], [2]]), 2)


def drop_one_sign(table):
    """A copy of a transposed table with the first negative coefficient made positive.

    The table's rows are dicts or ``LinComb``s over Z, and the copy's rows
    are of the same type.
    """

    def mutant(shape, max_entry):
        rows = dict(table(shape, max_entry))
        for s, row in rows.items():
            terms = dict(row.unordered_items() if isinstance(row, LinComb) else row)
            for u, c in terms.items():
                if c < 0:
                    terms[u] = -c
                    rows[s] = LinComb(ZZ, terms) if isinstance(row, LinComb) else terms
                    return rows
        return rows

    return mutant


def pairing_mismatches(ring):
    """The (t, m) whose pairing image differs from the per-label oracle's."""
    return (
        (t, m)
        for shape, m in ORACLE_CASES
        for t in enumerate_tableaux(shape, m, ROW_SEMISTANDARD)
        if pairing_image(t, m, ring) != oracle.pairing_image(t, m, ring)
    )


def dual_image_mismatches():
    """The (t, m) whose polytabloid dual image differs from the per-label oracle's."""
    return (
        (t, m)
        for shape, m in ORACLE_CASES
        for t in enumerate_tableaux(shape, m, SEMISTANDARD)
        if polytabloid_dual_image(t, m) != oracle.polytabloid_dual_image(t, m)
    )


class TestPerLabelOracles:
    @pytest.mark.parametrize("tag", ["z", "q", "zmod:6"])
    def test_pairing_images_match_one_evaluation_per_label(self, tag):
        assert list(pairing_mismatches(parse_ring(tag))) == []

    def test_dual_images_match_one_reduction_per_label(self):
        assert list(dual_image_mismatches()) == []

    def test_a_transpose_that_drops_a_sign_is_caught(self, monkeypatch):
        monkeypatch.setattr(duality, "_pairing_rows", drop_one_sign(duality._pairing_rows))
        assert next(pairing_mismatches(ZZ), None) is not None

    def test_a_reduction_that_drops_a_sign_is_caught(self, monkeypatch):
        monkeypatch.setattr(duality, "_dual_coordinates", drop_one_sign(duality._dual_coordinates))
        assert next(dual_image_mismatches(), None) is not None


def image_arithmetic(x):
    """Every arithmetic a caller may do on an element, whose results are dropped."""
    return x + x, x - x, x.scaled(-3), x.change_ring(QQ)


# every (shape, m) with |shape| <= 4 at m <= 3
SHARED_ROW_CASES = [(shape, m) for shape in partitions_up_to(4) for m in (1, 2, 3)]


class TestSharedRows:
    """A pairing image over Z is its cached row itself, so what a caller does with it must not reach the cache."""

    def test_an_image_over_z_is_its_row_of_the_table(self):
        t = T([[1, 2], [1]])
        assert pairing_image(t, 2).lin is pairing_image(T([[2, 1], [1]]), 2).lin
        assert pairing_image(t, 2, QQ).lin is not pairing_image(t, 2, QQ).lin

    @pytest.mark.parametrize("image", [pairing_image, lambda t, m: copolytabloid(t)], ids=["pairing", "copolytabloid"])
    def test_arithmetic_on_an_image_leaves_the_next_call_unchanged(self, image):
        for shape, m in SHARED_ROW_CASES:
            for t in enumerate_tableaux(shape, m, ROW_SEMISTANDARD):
                first = image(t, m)
                sums = image_arithmetic(first)
                assert sums[0] == first.scaled(2) and sums[1].is_zero and sums[2] == first.scaled(-3)
                assert sums[3] == ColumnTabloidElement(LinComb(QQ, dict(first.lin.unordered_items())))
                assert image(t, m) == oracle.pairing_image(t, m) == first

    def test_arithmetic_on_the_images_leaves_the_table_unchanged(self):
        shape, m = (2, 2), 3
        before = {s: dict(row.unordered_items()) for s, row in duality._pairing_rows(shape, m).items()}
        for t in enumerate_tableaux(shape, m, ROW_SEMISTANDARD):
            image_arithmetic(pairing_image(t, m))
        assert {s: dict(row.unordered_items()) for s, row in duality._pairing_rows(shape, m).items()} == before

    def test_a_label_with_unsorted_rows_has_its_row_class_image(self):
        for shape, m in SHARED_ROW_CASES:
            for t in enumerate_tableaux(shape, m, ROW_SEMISTANDARD):
                for rows in product(*(sorted(set(iperms(row))) for row in t.rows)):
                    for tag in ("z", "zmod:6"):
                        assert pairing_image(T(rows), m, parse_ring(tag)) == oracle.pairing_image(t, m, parse_ring(tag))

    @pytest.mark.parametrize("rows", [[[3, 1], [2]], [[1, 2], [3, 1]], [[2, 2], [1]]])
    def test_an_entry_outside_the_alphabet_gives_the_same_error(self, rows):
        # the largest entry is checked on the sorted rows, wherever it stands in the unsorted ones
        m = max(map(max, rows)) - 1
        with pytest.raises(InputError) as caught:
            pairing_image(T(rows), m)
        assert str(caught.value) == "tableau entries exceed the alphabet"

    def test_the_empty_shape(self):
        for m in (1, 2):
            assert pairing_image(T([]), m) == oracle.pairing_image(T([]), m) == copolytabloid(T([]))


class TestPolytabloidDualImage:
    def test_coordinates_match_one_rational_solve_per_polytabloid(self):
        # each u's coordinates in the semistandard polytabloid basis, by dense elimination over Q
        for shape in partitions_up_to(4):
            for m in range(1, 4):
                ssyt = enumerate_tableaux(shape, m, SEMISTANDARD)
                images = [polytabloid_dual_image(t, m) for t in ssyt]
                columns = [dict(polytabloid(s).items()) for s in ssyt]
                for u in enumerate_tableaux(shape, m, COLUMN_STANDARD):
                    solution = solve_exact(columns, dict(polytabloid(u).items()))
                    assert [image.coeff(u) for image in images] == solution

    def test_a_basis_without_a_unit_diagonal_is_an_internal_error(self, monkeypatch):
        original = duality._polytabloid_int
        monkeypatch.setattr(duality, "_polytabloid_int", lambda cols: {u: 2 * c for u, c in original(cols).items()})
        with pytest.raises(RuntimeError, match="does not lead with 1"):
            polytabloid_dual_image(T([[1, 1], [2]]), 2)

    def test_a_label_outside_the_basis_is_an_internal_error(self, monkeypatch):
        # [[2, 1], [3]] is column standard, not semistandard; [[1, 2], [1]] is no basis label's pivot
        original = duality._polytabloid_int
        extra, target = T([[1, 2], [1]]).rows, T([[2, 1], [3]]).columns
        monkeypatch.setattr(
            duality, "_polytabloid_int", lambda cols: {**original(cols), extra: 1} if cols == target else original(cols)
        )
        with pytest.raises(RuntimeError, match="failed to decompose over the semistandard basis"):
            polytabloid_dual_image(T([[1, 1], [2]]), 3)

    def test_an_entry_outside_the_alphabet_is_refused(self):
        with pytest.raises(InputError, match="tableau entries exceed the alphabet"):
            polytabloid_dual_image(T([[1, 3], [2]]), 2)


# find_dual_basis_mismatch's witness payloads as json.dumps wrote them when each t was reduced on its own
WITNESS_3_2 = (
    '{"shape": [3, 2], "entries": 3, "tableau": {"shape": [3, 2], "rows": [[1, 2, 3], [2, 3]]}, '
    '"dual_image": {"space": "wedge", "ring": "q", "terms": [{"coeff": "1", "label": {"shape": [3, 2], '
    '"rows": [[1, 2, 3], [2, 3]]}}, {"coeff": "1", "label": {"shape": [3, 2], "rows": [[2, 1, 3], [3, '
    '2]]}}, {"coeff": "-1", "label": {"shape": [3, 2], "rows": [[2, 2, 1], [3, 3]]}}]}, '
    '"copolytabloid": {"space": "wedge", "ring": "q", "terms": [{"coeff": "-1", "label": {"shape": [3, 2], '
    '"rows": [[1, 2, 2], [3, 3]]}}, {"coeff": "1", "label": {"shape": [3, 2], "rows": [[1, 2, 3], [2, '
    '3]]}}, {"coeff": "-1", "label": {"shape": [3, 2], "rows": [[2, 1, 2], [3, 3]]}}, {"coeff": "1", '
    '"label": {"shape": [3, 2], "rows": [[2, 1, 3], [3, 2]]}}, {"coeff": "-2", "label": {"shape": [3, 2], '
    '"rows": [[2, 2, 1], [3, 3]]}}]}}'
)

WITNESS_2_2_1 = (
    '{"shape": [2, 2, 1], "entries": 4, "tableau": {"shape": [2, 2, 1], "rows": [[1, 3], [2, 4], [3]]}, '
    '"dual_image": {"space": "wedge", "ring": "q", "terms": [{"coeff": "1", "label": {"shape": [2, 2, 1], '
    '"rows": [[1, 3], [2, 4], [3]]}}, {"coeff": "-1", "label": {"shape": [2, 2, 1], "rows": [[2, 1], [3, '
    '3], [4]]}}]}, "copolytabloid": {"space": "wedge", "ring": "q", "terms": [{"coeff": "1", '
    '"label": {"shape": [2, 2, 1], "rows": [[1, 2], [3, 3], [4]]}}, {"coeff": "1", "label": {"shape": [2, '
    '2, 1], "rows": [[1, 3], [2, 4], [3]]}}]}}'
)


class TestNegativeControl:
    def test_no_witness_at_the_small_scale(self):
        # at this scale the two constructions happen to agree everywhere
        assert find_dual_basis_mismatch([(2, 1), (2, 2)], [2, 3]) is None

    def test_witness_exists_slightly_higher(self):
        witness = find_dual_basis_mismatch([(3, 2)], [3])
        assert witness is not None
        t = Tableau.from_json(witness["tableau"])
        assert polytabloid_dual_image(t, 3) != copolytabloid(t, QQ)

    def test_each_column_standard_polytabloid_is_expanded_once(self, monkeypatch):
        calls = []
        original = duality._polytabloid_int
        monkeypatch.setattr(duality, "_polytabloid_int", lambda columns: calls.append(columns) or original(columns))
        find_dual_basis_mismatch([(3, 2)], [3])
        # once each, not once per semistandard t (708 calls) nor once more per pivot
        csyt = enumerate_tableaux((3, 2), 3, COLUMN_STANDARD)
        assert len(calls) == len(csyt) and set(calls) == {u.columns for u in csyt}

    @pytest.mark.parametrize(
        "shapes, entries, payload",
        [
            ([(3, 2)], [3], WITNESS_3_2),
            ([(3, 2), (2, 2, 1)], [3], WITNESS_3_2),
            ([(2, 2, 1)], [3, 4], WITNESS_2_2_1),
        ],
        ids=["3,2", "3,2+2,2,1", "2,2,1-at-4"],
    )
    def test_witness_payloads_are_pinned(self, shapes, entries, payload):
        assert json.dumps(find_dual_basis_mismatch(shapes, entries)) == payload


# equivariance_counterexample's witnesses under the flipped (1, 2) minor, as json.dumps wrote them when the left
# side was the projection of entry_action's Tableau-keyed element
MINOR_SIGN_WITNESS_LAMBDA = (
    '{"tableau": {"shape": [2, 1], "rows": [[1, 1], [2]]}, "lhs": {"space": "wedge", "ring": "z", '
    '"terms": [{"coeff": "-5", "label": {"shape": [2, 1], "rows": [[1, 3], [3]]}}, {"coeff": "-2", '
    '"label": {"shape": [2, 1], "rows": [[2, 3], [3]]}}]}, "rhs": {"space": "wedge", "ring": "z", '
    '"terms": [{"coeff": "5", "label": {"shape": [2, 1], "rows": [[1, 3], [3]]}}, {"coeff": "-2", '
    '"label": {"shape": [2, 1], "rows": [[2, 3], [3]]}}]}}'
)

MINOR_SIGN_WITNESS_E = (
    '{"tableau": {"shape": [2, 1], "rows": [[1, 1], [2]]}, "lhs": {"space": "sym_upper", "ring": "z", '
    '"terms": [{"coeff": "5", "label": {"shape": [2, 1], "rows": [[1, 3], [3]]}}, {"coeff": "-2", '
    '"label": {"shape": [2, 1], "rows": [[2, 3], [3]]}}, {"coeff": "-5", "label": {"shape": [2, 1], '
    '"rows": [[3, 3], [1]]}}, {"coeff": "2", "label": {"shape": [2, 1], "rows": [[3, 3], [2]]}}]}, '
    '"rhs": {"space": "sym_upper", "ring": "z", "terms": [{"coeff": "-5", "label": {"shape": [2, 1], '
    '"rows": [[1, 3], [3]]}}, {"coeff": "-2", "label": {"shape": [2, 1], "rows": [[2, 3], [3]]}}, '
    '{"coeff": "5", "label": {"shape": [2, 1], "rows": [[3, 3], [1]]}}, {"coeff": "2", '
    '"label": {"shape": [2, 1], "rows": [[3, 3], [2]]}}]}}'
)

MINOR_SIGN_WITNESS_IDENTITY = (
    '{"tableau": {"shape": [1, 1], "rows": [[1], [2]]}, "lhs": {"space": "wedge", "ring": "z", '
    '"terms": [{"coeff": "1", "label": {"shape": [1, 1], "rows": [[1], [2]]}}]}, "rhs": {"space": "wedge", '
    '"ring": "z", "terms": [{"coeff": "-1", "label": {"shape": [1, 1], "rows": [[1], [2]]}}]}}'
)


def one_minor_flipped(original):
    """``_part_image`` with the first minor on the column (1, 2) of the exterior power negated."""

    def part_image(g, space, line):
        keys, minors = original(g, space, line)
        if (space, line) != (ColumnTabloidElement.space, (1, 2)):
            return keys, minors
        return keys, (-minors[0],) + minors[1:]

    return part_image


def undivided(original):
    """``_part_image`` with the symmetric power of g in place of the divided power."""

    def part_image(g, space, line):
        return original(g, RowTabloidElement.space if space == SymLowerElement.space else space, line)

    return part_image


# a unimodular matrix with no zero entry: every line reaches many sources
DENSE = [[2, 1, 1], [1, 1, 1], [1, 1, 2]]


class TestEquivariance:
    def test_identity_commutes(self):
        assert equivariance_check((2, 1), 2, EntryMatrix.identity(2), WEDGE_MAP)
        assert equivariance_check((2, 1), 2, EntryMatrix.identity(2), POLYTABLOID_MAP)

    def test_hook_swap_polytabloid_map(self):
        g = EntryMatrix.permutation((2, 1))
        assert equivariance_check((2, 1), 2, g, POLYTABLOID_MAP)

    def test_all_permutations_both_maps_small(self):
        for shape, m in [((2, 1), 2), ((2, 2), 2), ((1, 1), 3)]:
            for images in iperms(range(1, m + 1)):
                g = EntryMatrix.permutation(images)
                assert equivariance_counterexample(shape, m, g, WEDGE_MAP) is None
                assert equivariance_counterexample(shape, m, g, POLYTABLOID_MAP) is None

    def test_random_unimodular_matrices(self):
        rng = random.Random(41)
        for shape, m in [((2, 1), 2), ((2, 2), 2)]:
            for _ in range(5):
                g = random_unimodular(rng, m)
                assert equivariance_check(shape, m, g, WEDGE_MAP)
                assert equivariance_check(shape, m, g, POLYTABLOID_MAP)

    def test_relation_kernel_is_action_stable(self):
        rng = random.Random(6)
        shape = (2, 2)
        tabs = enumerate_tableaux(shape, 2, "all")
        for _ in range(5):
            g = random_unimodular(rng, 2)
            t = rng.choice(tabs)
            box_a, box_b = rng.choice(list(dual_garnir_labels(shape)))
            rel = dual_garnir(t, box_a, box_b)
            acted = entry_action(rel.element, g)
            assert wedge_of_sym_lower(acted).is_zero

    def test_a_wrong_minor_sign_gives_counterexamples(self, monkeypatch):
        monkeypatch.setattr(duality, "_part_image", one_minor_flipped(duality._part_image))
        g = random_unimodular(random.Random(5), 3)
        assert json.dumps(equivariance_counterexample((2, 1), 3, g, WEDGE_MAP)) == MINOR_SIGN_WITNESS_LAMBDA
        assert json.dumps(equivariance_counterexample((2, 1), 3, g, POLYTABLOID_MAP)) == MINOR_SIGN_WITNESS_E
        identity = EntryMatrix.identity(2)
        assert json.dumps(equivariance_counterexample((1, 1), 2, identity, WEDGE_MAP)) == MINOR_SIGN_WITNESS_IDENTITY

    def test_a_divided_power_without_the_stabiliser_rescale_gives_counterexamples(self, monkeypatch):
        monkeypatch.setattr(duality, "_part_image", undivided(duality._part_image))
        g = random_unimodular(random.Random(5), 3)
        assert equivariance_counterexample((2, 1), 3, g, WEDGE_MAP) is not None
        assert equivariance_counterexample((2,), 2, EntryMatrix(ZZ, [[1, 1], [0, 1]]), WEDGE_MAP) is not None
        # the symmetric power, on the polytabloid side, is untouched
        assert equivariance_counterexample((2, 1), 3, g, POLYTABLOID_MAP) is None

    @pytest.mark.parametrize("which", [WEDGE_MAP, POLYTABLOID_MAP])
    def test_label_images_are_looked_up_at_call_time(self, monkeypatch, which):
        # a mutant or a counter rebinds the line-form label image in duality, which _map must see
        calls = []
        kind, space, _, original = duality._map(which)
        monkeypatch.setattr(duality, LINE_FORM_IMAGE[which], lambda lines: calls.append(lines) or original(lines))
        assert equivariance_counterexample((2, 1), 2, EntryMatrix.identity(2), which) is None
        labels = [duality._lines(t, space) for t in enumerate_tableaux((2, 1), 2, kind)]
        # the identity sends each label to itself, so its image is read once on either side
        assert sorted(calls) == sorted(labels * 2)

    @pytest.mark.parametrize("which", [WEDGE_MAP, POLYTABLOID_MAP])
    def test_a_basis_image_scaled_by_seven_fails_over_z_only(self, monkeypatch, which):
        # 7 = 1 in Z/6, so there the scaled map is the map; over Z the swap moves the scaled label to another
        _, space, _, original = duality._map(which)
        scaled = duality._lines(T([[1, 1], [2]]), space)
        assert original(scaled)

        def seven_times_one_label(lines):
            image = original(lines)
            return {key: 7 * c for key, c in image.items()} if lines == scaled else image

        monkeypatch.setattr(duality, LINE_FORM_IMAGE[which], seven_times_one_label)
        assert equivariance_counterexample((2, 1), 2, EntryMatrix.permutation((2, 1), integers_mod(6)), which) is None
        assert equivariance_counterexample((2, 1), 2, EntryMatrix.permutation((2, 1)), which) is not None

    def test_unknown_map_rejected(self):
        with pytest.raises(InputError, match="unknown map 'bogus'"):
            equivariance_check((2, 1), 2, EntryMatrix.identity(2), "bogus")

    @pytest.mark.parametrize("which", [WEDGE_MAP, POLYTABLOID_MAP, "bogus"])
    def test_a_matrix_smaller_than_the_alphabet_is_refused_first(self, which):
        with pytest.raises(InputError, match="entry matrix too small for the alphabet"):
            equivariance_counterexample((2, 1), 3, EntryMatrix.identity(2), which)

    @pytest.mark.parametrize("which", [WEDGE_MAP, POLYTABLOID_MAP])
    def test_each_source_image_is_read_once(self, monkeypatch, which):
        # the per-label loop read a source's image again for every label that reaches it
        calls = []
        kind, space, _, original = duality._map(which)
        monkeypatch.setattr(duality, LINE_FORM_IMAGE[which], lambda lines: calls.append(lines) or original(lines))
        g = EntryMatrix(ZZ, DENSE)
        labels = [duality._lines(t, space) for t in enumerate_tableaux((2, 1), 3, kind)]
        sources = {key for lines in labels for key, _ in duality._line_images(g, space, lines)}
        reached = [{s for lines in labels for s in duality._part_image(g, space, lines[i])[0]} for i in range(2)]
        assert sources == set(product(*reached))
        assert equivariance_counterexample((2, 1), 3, g, which) is None
        assert sorted(calls) == sorted([*sources, *labels])

    def test_a_map_that_is_zero_on_every_source_reads_each_once(self, monkeypatch):
        calls = []
        _, _, _, original = duality._map(WEDGE_MAP)
        monkeypatch.setattr(duality, LINE_FORM_IMAGE[WEDGE_MAP], lambda lines: calls.append(lines) or original(lines))
        assert equivariance_counterexample((1, 1, 1, 1), 3, EntryMatrix(ZZ, DENSE), WEDGE_MAP) is None
        # 3^4 sources on the left side, then the same 3^4 basis labels on the right, every image zero
        assert len(calls) == 2 * 81 and len(set(calls)) == 81
        assert not any(map(original, calls))


# criterion 8's random unimodular matrices are multiplied by a diagonal of these units of the ring
LEFT_SIDE_UNITS = {"z": (1,), "q": (Fraction(1, 2), Fraction(2, 5)), "zmod:6": (5,)}


def left_side_matrices(tag, m):
    """Two of criterion 8's random unimodular matrices over the ring, each times a diagonal of its units."""
    ring = parse_ring(tag)
    rng = random.Random(f"left side:{tag}:{m}")
    matrices = []
    for _ in range(2):
        diag = [[rng.choice(LEFT_SIDE_UNITS[tag]) if i == j else 0 for j in range(m)] for i in range(m)]
        matrices.append(random_unimodular(rng, m, ring).compose(EntryMatrix(ring, diag)))
    return matrices


def projected_entry_action(t, g, which):
    """The map applied to g acting on the basis label t, through entry_action, keyed by columns (lambda) or rows (e)."""
    if which == WEDGE_MAP:
        image = wedge_of_sym_lower(entry_action(SymLowerElement(LinComb(g.ring, {t: 1})), g))
        return {u.columns: c for u, c in image.items()}
    image = apply_polytabloid_map(entry_action(ColumnTabloidElement(LinComb(g.ring, {t: 1})), g))
    return {u.rows: c for u, c in image.items()}


def check_left_sides(shape, m, g, which):
    """The check's left side on every basis label of the shape at alphabet m, keyed by the label's lines."""
    kind, space, _, image = duality._map(which)
    return duality._left_sides([duality._lines(t, space) for t in enumerate_tableaux(shape, m, kind)], g, space, image)


def left_side_differs(t, g, which, left):
    """Whether the per-label left side on t, read through the line-form basis images, misses an oracle.

    The oracles are the kernel run on g's images of t's lines, the
    projected entry action and ``left``, the check's left sides summed
    over the sources, each reduced into the ring.
    """
    _, space, _, image = duality._map(which)
    lines = duality._lines(t, space)
    lhs = duality._ring_terms(g.ring, equivariance_oracle.left_side(lines, g, space, image, {}))
    return (
        lhs != duality._ring_terms(g.ring, projection_oracles.mapped_action(t, g, which))
        or lhs != projected_entry_action(t, g, which)
        or lhs != duality._ring_terms(g.ring, left[lines])
    )


def left_side_mismatches(tag, which):
    """The (t, g) on which the left side of the equivariance check differs from an oracle."""
    kind = ROW_SEMISTANDARD if which == WEDGE_MAP else COLUMN_STANDARD
    for shape in partitions_up_to(4):
        for m in (1, 2, 3):
            for g in left_side_matrices(tag, m):
                left = check_left_sides(shape, m, g, which)
                for t in enumerate_tableaux(shape, m, kind):
                    if left_side_differs(t, g, which, left):
                        yield t, g


def column_form(lin):
    """A LinComb on column tabloids as the line form of the basis maps: ``{columns: coeff}``."""
    return {u.columns: c for u, c in lin.unordered_items()}


def row_form(lin):
    """A LinComb on row tabloids as the line form of the basis maps: ``{rows: coeff}``."""
    return {u.rows: c for u, c in lin.unordered_items()}


def mutated(kernel, old, new):
    """The kernel compiled again from its source with the one occurrence of ``old`` replaced by ``new``."""
    source = inspect.getsource(kernel)
    assert source.count(old) == 1
    namespace = dict(vars(inspect.getmodule(kernel)))
    exec(source.replace(old, new), namespace)
    return namespace[kernel.__name__]


class TestSourceSums:
    """The check with its left side summed over the sources against the per-label check it replaces."""

    @pytest.mark.parametrize("mutant", [None, one_minor_flipped, undivided], ids=["none", "minor-sign", "undivided"])
    @pytest.mark.parametrize("tag", sorted(LEFT_SIDE_UNITS))
    def test_the_check_matches_the_per_label_oracle(self, monkeypatch, tag, mutant):
        # |shape| <= 4 at m <= 3, two matrices of each size m and m + 1; witnesses compared as json.dumps writes them
        if mutant is not None:
            monkeypatch.setattr(duality, "_part_image", mutant(duality._part_image))
        cases = witnesses = 0
        for shape in partitions_up_to(4):
            for m in (1, 2, 3):
                for g in left_side_matrices(tag, m) + left_side_matrices(tag, m + 1):
                    for which in (WEDGE_MAP, POLYTABLOID_MAP):
                        payload = json.dumps(equivariance_counterexample(shape, m, g, which))
                        assert payload == json.dumps(equivariance_oracle.counterexample(shape, m, g, which))
                        cases += 1
                        witnesses += payload != "null"
        assert cases == 264
        assert (witnesses > 0) == (mutant is not None)


def one_value_raised(original, by):
    """``_part_image`` with ``by`` added to the first coefficient on the column (1, 2) of the exterior power."""

    def part_image(g, space, line):
        keys, values = original(g, space, line)
        if (space, line) != (ColumnTabloidElement.space, (1, 2)):
            return keys, values
        return keys, (values[0] + by,) + values[1:]

    return part_image


def counted_normalize(monkeypatch):
    """Count every ``CoefficientRing.normalize`` call from now on, on every ring; returns the list of values."""
    calls = []
    original = CoefficientRing.normalize
    monkeypatch.setattr(CoefficientRing, "normalize", lambda ring, value: calls.append(value) or original(ring, value))
    return calls


# every shape with |shape| <= 3 at m = 2, 3, each with one random unimodular matrix, on both maps
EXACT_ZERO_CASES = [
    (shape, m, which) for shape in partitions_up_to(3) for m in (2, 3) for which in (WEDGE_MAP, POLYTABLOID_MAP)
]


class TestExactZero:
    """Only a difference with a coefficient that is not exactly 0 is reduced, and every such one is."""

    def witnesses(self, monkeypatch, ring, by):
        """The check's and the oracle's witnesses on every case under the mutant, and the ``normalize`` calls made."""
        found = []
        for shape, m, which in EXACT_ZERO_CASES:
            g = random_unimodular(random.Random(m), m, ring)
            assert equivariance_counterexample(shape, m, g, which) is None  # and g's powers are memoised
            with monkeypatch.context() as patch:
                patch.setattr(duality, "_part_image", one_value_raised(duality._part_image, by))
                calls = counted_normalize(patch)
                payload = json.dumps(equivariance_counterexample(shape, m, g, which))
                assert payload == json.dumps(equivariance_oracle.counterexample(shape, m, g, which))
                found.append((payload, len(calls)))
        return found

    @pytest.mark.parametrize("n", [2, 6])
    def test_a_value_raised_by_the_modulus_is_the_same_element(self, monkeypatch, n):
        # the integer difference is no longer 0, so the check reduces it, and it reduces to 0 in Z/n
        found = self.witnesses(monkeypatch, integers_mod(n), n)
        assert {payload for payload, _ in found} == {"null"}
        assert any(calls for _, calls in found)

    @pytest.mark.parametrize("n", [2, 6])
    def test_a_value_raised_by_one_is_caught_as_the_oracle_catches_it(self, monkeypatch, n):
        found = self.witnesses(monkeypatch, integers_mod(n), 1)
        assert any(payload != "null" for payload, _ in found)

    @pytest.mark.parametrize("n", [2, 6])
    def test_a_value_raised_by_n_is_caught_over_z(self, monkeypatch, n):
        found = self.witnesses(monkeypatch, ZZ, n)
        assert any(payload != "null" for payload, _ in found)


class TestRightSideWork:
    """The right side expands each target label once, and a passing check over Z reduces nothing.

    The range is criterion 8's: |shape| <= 4 at m <= 3, the identity and
    every permutation, and two dense unimodular matrices per m.
    """

    @pytest.mark.parametrize("which", [WEDGE_MAP, POLYTABLOID_MAP])
    def test_counted_on_criterion_8s_range(self, monkeypatch, which):
        kind, space, target, image = duality._map(which)
        expansions = []
        original = duality._line_images
        monkeypatch.setattr(
            duality, "_line_images", lambda g, on, lines: expansions.append((on, lines)) or original(g, on, lines)
        )
        checks = 0
        for shape in partitions_up_to(4):
            for m in (1, 2, 3):
                targets = {u for t in enumerate_tableaux(shape, m, kind) for u in image(duality._lines(t, space))}
                permutations = [EntryMatrix.permutation(images) for images in iperms(range(1, m + 1))]
                for g in permutations + left_side_matrices("z", m):
                    expansions.clear()
                    assert equivariance_counterexample(shape, m, g, which) is None
                    assert sorted(expansions) == sorted((target.space, u) for u in targets)
                    # g's powers are memoised now, so a normalize call could come only from the final test
                    with monkeypatch.context() as patch:
                        calls = counted_normalize(patch)
                        assert equivariance_counterexample(shape, m, g, which) is None
                    assert calls == []
                    checks += 1
        # the 11 shapes with 1 <= |shape| <= 4, each at the 1 + 2 + 6 permutations and 2 dense matrices per m <= 3
        assert checks == 11 * (9 + 6)


class TestLineKernels:
    """The line kernel against the per-label expansions and the entry action it replaces."""

    def test_basis_maps_match_the_per_label_expansions(self):
        checked = 0
        for shape, m in ORACLE_CASES:
            for t in enumerate_tableaux(shape, m, ROW_SEMISTANDARD):
                assert powers._wedge_of_rsym_int(t.rows) == column_form(projection_oracles.wedge_of_rsym_int(t)), t
                checked += 1
            for u in enumerate_tableaux(shape, m, COLUMN_STANDARD):
                assert schur._polytabloid_int(u.columns) == row_form(projection_oracles.polytabloid_int(u)), u
                checked += 1
        assert checked == 2016 + 1143  # row-semistandard labels, then column-standard ones

    @pytest.mark.parametrize("tag", ["z", "q", "zmod:6"])
    def test_public_maps_relabel_the_line_forms(self, tag):
        ring = parse_ring(tag)
        checked = 0
        for shape, m in ORACLE_CASES:
            for t in enumerate_tableaux(shape, m, ROW_SEMISTANDARD):
                terms = {from_columns(shape, cols): c for cols, c in powers._wedge_of_rsym_int(t.rows).items()}
                assert copolytabloid(t, ring) == ColumnTabloidElement(LinComb(ring, terms)), t
                checked += 1
            for u in enumerate_tableaux(shape, m, COLUMN_STANDARD):
                terms = {T(rows): c for rows, c in schur._polytabloid_int(u.columns).items()}
                assert polytabloid(u, ring) == RowTabloidElement(LinComb(ring, terms)), u
                checked += 1
        assert checked == 2016 + 1143

    @pytest.mark.parametrize("which", [WEDGE_MAP, POLYTABLOID_MAP])
    @pytest.mark.parametrize("tag", sorted(LEFT_SIDE_UNITS))
    def test_left_side_matches_the_projected_entry_action(self, tag, which):
        assert list(left_side_mismatches(tag, which)) == []

    @pytest.mark.parametrize("which", [WEDGE_MAP, POLYTABLOID_MAP])
    def test_a_matrix_larger_than_the_alphabet(self, monkeypatch, which):
        # g sends the entries 1 and 2 past the alphabet, where no label of the check's own enumeration lies
        mapped = []
        kind, _, _, original = duality._map(which)
        monkeypatch.setattr(duality, LINE_FORM_IMAGE[which], lambda lines: mapped.append(lines) or original(lines))
        g = random_unimodular(random.Random(4), 4)
        for shape in partitions_up_to(3):
            assert equivariance_counterexample(shape, 2, g, which) is None
            left = check_left_sides(shape, 2, g, which)
            assert not [t for t in enumerate_tableaux(shape, 2, kind) if left_side_differs(t, g, which, left)]
        assert {max(map(max, lines)) for lines in mapped if lines} >= {3, 4}

    @pytest.mark.parametrize(
        "module, old, new, which",
        [
            (powers, "% 2:", "% 1:", WEDGE_MAP),
            (schur, "v * permutation_sign(word)", "v", POLYTABLOID_MAP),
        ],
        ids=["insertion-sign", "permutation-sign"],
    )
    def test_a_kernel_that_drops_its_sign_is_caught(self, monkeypatch, module, old, new, which):
        # the mutant is patched where the basis map reads it, with both basis maps' caches empty on either side
        caches = (powers._wedge_of_rsym_int, schur._polytabloid_int)
        if which == WEDGE_MAP:
            kind, basis_map, oracle = ROW_SEMISTANDARD, powers._wedge_of_rsym_int, projection_oracles.wedge_of_rsym_int
            lines, line_form = attrgetter("rows"), column_form
        else:
            kind, basis_map, oracle = COLUMN_STANDARD, schur._polytabloid_int, projection_oracles.polytabloid_int
            lines, line_form = attrgetter("columns"), row_form
        for cached in caches:
            cached.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(module, "line_products", mutated(powers.line_products, old, new))
                g = random_unimodular(random.Random(5), 3)
                for shape in [(1, 1), (2, 1), (2, 2), (3, 1)]:
                    assert equivariance_counterexample(shape, 3, g, which) is not None, shape
                assert next(left_side_mismatches("z", which), None) is not None
                assert any(basis_map(lines(t)) != line_form(oracle(t)) for t in enumerate_tableaux((2, 1), 3, kind))
        finally:
            for cached in caches:
                cached.cache_clear()
