import dataclasses
import random
import re
from itertools import permutations as iperms

import pytest
from hypothesis import given, settings, strategies as st

import weylkit.weyl as weyl
from weylkit.coeffs import QQ, ZZ, LinComb, integers_mod
from weylkit.linalg import smith_elementary_divisors
from weylkit.powers import (
    ColumnTabloidElement,
    SymLowerElement,
    TensorElement,
    sym_lower_expand,
    wedge_of_sym_lower,
)
from weylkit.tableaux import (
    ALL,
    ROW_SEMISTANDARD,
    SEMISTANDARD,
    Tableau,
    enumerate_tableaux,
    partitions_up_to,
    row_order_key,
    sort_rows,
)
from weylkit.verify import SizeCapExceeded
from weylkit.weyl import (
    STAR_STAR_VARIANT,
    STAR_VARIANT,
    copolytabloid,
    dual_garnir,
    dual_garnir_double_coset,
    dual_garnir_labels,
    dual_snake,
    snake_boxsets,
    snake_labels,
    straighten,
    variant_relation,
    verify_weyl_kernel,
    weyl_basis,
)

import straighten_oracle
from smith_oracle import weyl_relation_rows

T = Tableau

EX_T = T([[1, 1], [2, 2]])
EX_A = frozenset({(1, 1), (1, 2)})
EX_B = frozenset({(2, 1)})
Z2, Z3 = integers_mod(2), integers_mod(3)


def sym_lower(ring, coords):
    return SymLowerElement(LinComb(ring, coords))


def tensor_verify(cert):
    """The straightening identity checked on symmetric tensors: the oracle for ``verify``."""
    lhs = sym_lower_expand(cert.source).lin
    rhs = sym_lower_expand(cert.coords).lin
    gam = sym_lower_expand(cert.gamma_combination()).lin
    identity = lhs.combine(rhs, 1, -1).combine(gam, 1, 1).is_zero
    return identity and all(s.is_semistandard for s in cert.coords.labels())


class TestCopolytabloid:
    def test_already_standard(self):
        assert copolytabloid(EX_T) == ColumnTabloidElement(LinComb(ZZ, {EX_T: 1}))

    def test_twisted_square(self):
        got = copolytabloid(T([[2, 1], [1, 2]]))
        assert got == ColumnTabloidElement(LinComb(ZZ, {EX_T: -2}))

    def test_repeated_column_entry_is_not_zero(self):
        got = copolytabloid(T([[1, 2], [1, 2]]))
        assert got == copolytabloid(T([[2, 1], [1, 2]]))
        assert got == ColumnTabloidElement(LinComb(ZZ, {EX_T: -2}))
        assert not got.is_zero

    def test_constant_on_row_classes(self):
        for t in enumerate_tableaux((2, 2), 2, ALL):
            assert copolytabloid(t) == copolytabloid(sort_rows(t))


class TestDualGarnir:
    def test_example_coordinates(self):
        rel = dual_garnir(EX_T, EX_A, EX_B)
        assert rel.element == sym_lower(ZZ, {EX_T: 2, T([[1, 2], [1, 2]]): 1})

    def test_example_tensor_expansion_has_five_terms(self):
        rel = dual_garnir(EX_T, EX_A, EX_B)
        expanded = sym_lower_expand(rel.element)
        assert expanded == TensorElement(
            LinComb(
                ZZ,
                {
                    EX_T: 2,
                    T([[2, 1], [1, 2]]): 1,
                    T([[1, 2], [1, 2]]): 1,
                    T([[2, 1], [2, 1]]): 1,
                    T([[1, 2], [2, 1]]): 1,
                },
            )
        )

    def test_example_lies_in_kernel(self):
        rel = dual_garnir(EX_T, EX_A, EX_B)
        assert wedge_of_sym_lower(rel.element).is_zero

    def test_distinct_entries_have_unit_coefficients(self):
        for shape, m in [((2, 2), 4), ((2, 1), 3), ((3, 2), 5)]:
            n = sum(shape)
            for filling in list(iperms(range(1, m + 1), n))[:24]:
                word = iter(filling)
                t = T([[next(word) for _ in range(k)] for k in shape])
                for box_a, box_b in dual_garnir_labels(shape):
                    rel = dual_garnir(t, box_a, box_b)
                    assert all(c == 1 for _, c in rel.element.items())

    def test_kernel_membership_small_sweep(self):
        for shape in partitions_up_to(4):
            for m in (1, 2):
                for t in enumerate_tableaux(shape, m, ALL):
                    for box_a, box_b in dual_garnir_labels(shape):
                        rel = dual_garnir(t, box_a, box_b)
                        assert wedge_of_sym_lower(rel.element).is_zero

    def test_label_validation(self):
        with pytest.raises(ValueError, match="exceed"):
            dual_garnir(EX_T, frozenset({(1, 1)}), frozenset({(2, 1)}))
        with pytest.raises(ValueError, match="earlier row"):
            dual_garnir(EX_T, frozenset({(2, 1), (2, 2)}), frozenset({(1, 1)}))

    def test_ring_parameter_is_pushforward(self):
        rel_int = dual_garnir(EX_T, EX_A, EX_B, ZZ)
        rel_mod = dual_garnir(EX_T, EX_A, EX_B, Z2)
        assert rel_mod.element == rel_int.element.change_ring(Z2)


class TestDoubleCosetForm:
    def test_example_agrees(self):
        assert dual_garnir_double_coset(EX_T, EX_A, EX_B).element == dual_garnir(EX_T, EX_A, EX_B).element

    def test_agreement_sweep(self):
        for shape, m in [((2, 2), 2), ((2, 1), 2), ((3, 1), 2)]:
            for t in enumerate_tableaux(shape, m, ALL):
                for box_a, box_b in dual_garnir_labels(shape):
                    if len(box_a) + len(box_b) > 5:
                        continue
                    assert (
                        dual_garnir_double_coset(t, box_a, box_b).element
                        == dual_garnir(t, box_a, box_b).element
                    )

    def test_distinct_entries_reduce_to_coset_sum(self):
        t = T([[1, 2], [3, 4]])
        plain = dual_garnir(t, EX_A, EX_B)
        dc = dual_garnir_double_coset(t, EX_A, EX_B)
        assert dc.element == plain.element
        assert all(c == 1 for _, c in dc.element.items())
        assert len(dc.element.lin) == 3  # one term per coset of S_A x S_B

    def test_refuses_oversized_oracle(self):
        t = T([[1, 2, 3, 4], [5, 6, 7]])
        box_a = frozenset({(1, j) for j in range(1, 5)})
        box_b = frozenset({(2, j) for j in range(1, 4)})
        with pytest.raises(ValueError, match="refuses"):
            dual_garnir_double_coset(t, box_a, box_b)


class TestVariants:
    def test_star_coordinates_and_image(self):
        star = variant_relation(EX_T, EX_A, EX_B, STAR_VARIANT)
        assert star.element == sym_lower(ZZ, {EX_T: 1, T([[1, 2], [1, 2]]): 2})
        image = wedge_of_sym_lower(star.element)
        assert image == ColumnTabloidElement(LinComb(ZZ, {EX_T: -3}))

    def test_star_image_dies_in_characteristic_three(self):
        star = variant_relation(EX_T, EX_A, EX_B, STAR_VARIANT)
        assert wedge_of_sym_lower(star.element.change_ring(Z3)).is_zero
        assert not wedge_of_sym_lower(star.element.change_ring(Z2)).is_zero

    def test_star_star_doubles_the_relation(self):
        ss = variant_relation(EX_T, EX_A, EX_B, STAR_STAR_VARIANT)
        assert ss.element == dual_garnir(EX_T, EX_A, EX_B).element.scaled(2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            variant_relation(EX_T, EX_A, EX_B, "bogus")


class TestDualSnake:
    def test_example_boxsets(self):
        assert snake_boxsets((2, 2), 1, 1, 1) == (EX_A, EX_B)
        rel = dual_snake(EX_T, 1, 1, 1)
        assert rel.element == dual_garnir(EX_T, EX_A, EX_B).element
        assert rel.snake == (1, 1, 1)

    def test_maximal_snake_is_valid(self):
        box_a, box_b = snake_boxsets((2, 2), 1, 2, 2)
        assert box_a == frozenset({(1, 2)})
        assert box_b == frozenset({(2, 1), (2, 2)})
        dual_snake(EX_T, 1, 2, 2)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            dual_snake(EX_T, 2, 1, 1)  # no row below
        with pytest.raises(ValueError):
            dual_snake(EX_T, 1, 2, 1)  # j > j'
        with pytest.raises(ValueError):
            dual_snake(T([[1, 1], [2]]), 1, 1, 2)  # j' exceeds the lower row

    def test_snake_labels_sweep(self):
        assert set(snake_labels((2, 2))) == {(1, 1, 1), (1, 1, 2), (1, 2, 2)}
        assert set(snake_labels((3, 1))) == {(1, 1, 1)}
        assert set(snake_labels((4,))) == set()

    def test_run_aligned_snakes_have_unit_leading_coefficient(self):
        from weylkit.weyl import _snake_pivot

        for shape, m in [((2, 2), 3), ((3, 2), 3), ((2, 2, 1), 2)]:
            for t in enumerate_tableaux(shape, m, ROW_SEMISTANDARD):
                if not t.is_semistandard:
                    rel = dual_snake(t, *_snake_pivot(t.rows))
                    assert rel.element.coeff(t) == 1

    def test_the_pivot_runs_through_the_first_violation_along_equal_runs(self):
        from weylkit.weyl import _snake_pivot

        # First violation: 2 >= 2 at (1, 2); the upper run of 2s starts at
        # column 2 and the lower run of 2s ends at column 3.
        assert _snake_pivot(T([[1, 2, 2], [2, 2, 2]]).rows) == (1, 2, 3)
        assert _snake_pivot(T([[1, 1], [1, 2]]).rows) == (1, 1, 1)
        assert _snake_pivot(T([[1, 2], [2, 3], [2]]).rows) == (2, 1, 1)
        assert _snake_pivot(T([[1, 1], [2, 2], [3]]).rows) is None  # semistandard: no pivot


class TestStraighten:
    def test_twisted_square(self):
        x = sym_lower(ZZ, {T([[1, 2], [1, 2]]): 1})
        cert = straighten(x)
        assert cert.coords == sym_lower(ZZ, {EX_T: -2})
        assert len(cert.gamma) > 0
        assert cert.verify()

    def test_semistandard_input_is_fixed(self):
        for s in (T([]), *enumerate_tableaux((2, 2), 3, SEMISTANDARD)):
            cert = straighten(sym_lower(ZZ, {s: 1}))
            assert cert.coords == sym_lower(ZZ, {s: 1})
            assert cert.gamma == ()
            assert cert.verify()

    def test_snake_element_straightens_to_zero(self):
        rel = dual_snake(T([[1, 2], [1, 2]]), 1, 1, 1)
        cert = straighten(rel.element)
        assert cert.coords.is_zero
        assert cert.verify()

    def test_zero_input(self):
        cert = straighten(SymLowerElement(LinComb.zero(ZZ)))
        assert cert.coords.is_zero and cert.gamma == ()
        assert cert.verify()

    def test_random_certificates_and_image_preservation(self):
        rng = random.Random(17)
        for shape, m in [((2, 2), 2), ((2, 1), 3), ((3, 2), 2)]:
            labels = enumerate_tableaux(shape, m, ROW_SEMISTANDARD)
            for _ in range(20):
                coords = {
                    t: rng.randint(-3, 3)
                    for t in rng.sample(labels, min(3, len(labels)))
                }
                x = sym_lower(ZZ, coords)
                cert = straighten(x)
                assert cert.verify()
                assert all(s.is_semistandard for s in cert.coords.labels())
                assert all(isinstance(c, int) for *_rest, c in cert.gamma)
                assert wedge_of_sym_lower(cert.coords) == wedge_of_sym_lower(x)

    @pytest.mark.parametrize("ring", (ZZ, Z3, QQ), ids=("z", "zmod3", "q"))
    def test_verify_agrees_with_the_tensor_check(self, ring):
        rng = random.Random(23)
        for shape, m in [((2, 2), 2), ((2, 1), 3), ((3, 2), 2), ((2, 2, 1), 3)]:
            labels = enumerate_tableaux(shape, m, ROW_SEMISTANDARD)
            for _ in range(10):
                coords = {t: rng.randint(1, 5) for t in rng.sample(labels, min(3, len(labels)))}
                cert = straighten(sym_lower(ring, coords))
                assert cert.verify() and tensor_verify(cert)
                if not cert.gamma:
                    continue
                k = rng.randrange(len(cert.gamma))
                *label, coeff = cert.gamma[k]
                gamma = cert.gamma[:k] + ((*label, ring.add(coeff, ring.one)),) + cert.gamma[k + 1 :]
                tampered = dataclasses.replace(cert, gamma=gamma)
                assert not tampered.verify() and not tensor_verify(tampered)

    def test_rational_and_modular_inputs(self):
        x = sym_lower(QQ, {T([[1, 2], [1, 2]]): 1})
        cert = straighten(x)
        assert cert.verify()
        y = sym_lower(Z3, {T([[1, 2], [1, 2]]): 2})
        cert = straighten(y)
        assert cert.verify()

    def test_a_snake_with_a_label_above_its_own_is_refused(self, monkeypatch):
        t = T([[1, 2], [1, 2]])
        built = []
        original = weyl._dual_garnir_int

        def corrupted(rows, box_a, box_b):
            built.append(rows)
            rel = original(rows, box_a, box_b)
            # [[2, 2], [1, 1]] lies above t in the row order
            return {**rel, T([[2, 2], [1, 1]]).rows: 1} if rows == t.rows else rel

        monkeypatch.setattr(weyl, "_dual_garnir_int", corrupted)
        with pytest.raises(RuntimeError, match=re.escape("[[1, 2], [1, 2]]")):
            straighten(sym_lower(ZZ, {t: 1}))
        assert built == [t.rows]


# ---------------------------------------------------------------------------
# locality: a dual snake is its two-row snake put back


THREE_ROW_SHAPES = [shape for shape in partitions_up_to(5) if len(shape) > 2]


def with_rows(t, i, two_rows):
    """t with rows i and i+1 replaced by the two rows of ``two_rows``."""
    return T(t.rows[: i - 1] + two_rows.rows + t.rows[i + 1 :])


@pytest.mark.parametrize("shape", THREE_ROW_SHAPES, ids=str)
def test_a_snake_is_its_two_row_snake_with_the_other_rows_put_back(shape):
    for m in (1, 2, 3):
        for t in enumerate_tableaux(shape, m, ROW_SEMISTANDARD):
            for i, j, jp in snake_labels(shape):
                local = dual_snake(T(t.rows[i - 1 : i + 1]), 1, j, jp).element.lin
                put_back = LinComb(ZZ, {with_rows(t, i, u): c for u, c in local.items()})
                assert dual_snake(t, i, j, jp).element.lin == put_back, (t, i, j, jp)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_row_order_compares_two_rows_as_their_two_row_labels(data):
    shape = data.draw(st.sampled_from(THREE_ROW_SHAPES))
    m = data.draw(st.integers(1, 3))
    t = data.draw(st.sampled_from(enumerate_tableaux(shape, m, ROW_SEMISTANDARD)))
    i = data.draw(st.integers(1, len(shape) - 1))
    two_rows = enumerate_tableaux(shape[i - 1 : i + 1], m, ROW_SEMISTANDARD)
    u, v = data.draw(st.sampled_from(two_rows)), data.draw(st.sampled_from(two_rows))
    whole = row_order_key(with_rows(t, i, u), m) < row_order_key(with_rows(t, i, v), m)
    assert whole == (row_order_key(u, m) < row_order_key(v, m))


STRAIGHTENING_RINGS = (ZZ, QQ, integers_mod(4), integers_mod(6))


@st.composite
def elements_to_straighten(draw):
    shape = draw(st.sampled_from(tuple(partitions_up_to(5))))
    m = draw(st.integers(1, 3))
    ring = draw(st.sampled_from(STRAIGHTENING_RINGS))
    labels = enumerate_tableaux(shape, m, ROW_SEMISTANDARD)
    coords = draw(st.dictionaries(st.sampled_from(labels), st.integers(-7, 7), max_size=4))
    return m, sym_lower(ring, coords)


@settings(max_examples=80, deadline=None)
@given(elements_to_straighten())
def test_straightening_clears_each_label_once_over_every_ring(case):
    m, x = case
    cert = straighten(x)
    assert cert.verify()
    assert all(s.is_semistandard for s in cert.coords.labels())
    keys = [row_order_key(t, m) for t, *_ in cert.gamma]
    assert all(a > b for a, b in zip(keys, keys[1:]))


def cli_fields(cert):
    """The ``coords`` and ``gamma`` of ``weylkit straighten``'s JSON, built from ``cert`` as the CLI builds them."""
    ring = cert.source.ring
    gamma = [(t.to_json(), i, [j, jp], ring.format_coeff(c)) for t, i, j, jp, c in cert.gamma]
    return cert.coords.to_json(), gamma


def assert_straightens_as_the_tableau_loop(x):
    got, expected = straighten(x), straighten_oracle.straighten(x)
    assert got.coords == expected.coords and got.gamma == expected.gamma, x
    assert cli_fields(got) == cli_fields(expected), x


@settings(max_examples=80, deadline=None)
@given(elements_to_straighten())
def test_straightening_matches_the_tableau_loop_over_every_ring(case):
    assert_straightens_as_the_tableau_loop(case[1])


@pytest.mark.parametrize("ring", STRAIGHTENING_RINGS, ids=str)
def test_every_single_label_straightens_as_the_tableau_loop_does(ring):
    # the CLI's case: one row-sorted label with coefficient 1; entries up to 3 cover m = 1, 2, 3
    labels = [t for shape in partitions_up_to(5) for t in enumerate_tableaux(shape, 3, ROW_SEMISTANDARD)]
    for t in labels:
        assert_straightens_as_the_tableau_loop(sym_lower(ring, {t: 1}))
    assert len(labels) > 1000


class TestWeylBasis:
    def test_square_alphabet_two(self):
        basis = weyl_basis((2, 2), 2)
        assert basis == [(EX_T, ColumnTabloidElement(LinComb(ZZ, {EX_T: 1})))]

    def test_hook_alphabet_two(self):
        assert len(weyl_basis((2, 1), 2)) == 2

    def test_column_needs_three_entries(self):
        assert weyl_basis((1, 1, 1), 2) == []


class TestVerifyKernel:
    def test_square_over_rationals(self):
        report = verify_weyl_kernel((2, 2), 2, QQ)
        assert report["ok"]
        assert report["dims"] == {"rssyt": 9, "ssyt": 1, "csyt": 1}
        assert report["ranks"]["projection"] == 1
        assert report["ranks"]["snake_span"] == 8

    def test_square_in_characteristic_p(self):
        for ring in (Z2, Z3):
            report = verify_weyl_kernel((2, 2), 2, ring)
            assert report["ok"]
            assert report["ranks"]["snake_span"] == 8

    def test_single_box_injective(self):
        report = verify_weyl_kernel((1,), 3, QQ)
        assert report["ok"]
        assert report["ranks"]["projection"] == 3
        assert report["ranks"]["expected_nullity"] == 0

    def test_integer_certificate(self):
        report = verify_weyl_kernel((2, 2), 2, ZZ)
        assert report["ok"]
        assert report["ranks"]["snake_certificate"] == {"pivots": 8}
        assert smith_elementary_divisors(*weyl_relation_rows((2, 2), 2)) == [1] * 8

    def test_caps(self):
        with pytest.raises(SizeCapExceeded):
            verify_weyl_kernel((3, 2, 1), 2, QQ, size_cap=5)
        with pytest.raises(SizeCapExceeded):
            verify_weyl_kernel((2, 2), 99, QQ)

    @pytest.mark.parametrize("ring", (QQ, ZZ), ids=str)
    def test_a_snake_outside_the_kernel_fails_the_check(self, ring, monkeypatch):
        t = T([[1, 2], [1, 2]])
        snake = (t.rows, frozenset({(1, 1), (1, 2)}), frozenset({(2, 1)}))  # (1, 1, 1) on t
        original = weyl._dual_garnir_int

        def corrupted(*args):
            return {EX_T.rows: 1} if args == snake else original(*args)

        monkeypatch.setattr(weyl, "_dual_garnir_int", corrupted)
        report = verify_weyl_kernel((2, 2), 2, ring)
        assert not report["ok"]
        assert [c["name"] for c in report["checks"] if not c["ok"]] == ["snakes_lie_in_kernel"]
        example = report["checks"][1]["counterexample"]
        assert (example["tableau"], example["row"], example["cols"]) == (t.to_json(), 1, [1, 1])
        assert report["ranks"]["snake_span"] is None
