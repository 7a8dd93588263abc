import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylkit.coeffs import QQ, ZZ, LinComb, integers_mod
from weylkit.linalg import lead, rank_of_rows, reduce_by_pivots, smith_elementary_divisors, solve_exact


class TestRank:
    def test_rank_over_rationals(self):
        rows = [{0: 1, 1: 1}, {0: 1, 1: 1}, {0: 2, 1: 2}]
        assert rank_of_rows(rows, QQ) == 1
        rows = [{0: 1, 1: 1}, {0: 1, 1: -1}]
        assert rank_of_rows(rows, QQ) == 2

    def test_rank_depends_on_characteristic(self):
        rows = [{0: 1, 1: 1}, {0: 1, 1: -1}]
        assert rank_of_rows(rows, integers_mod(2)) == 1
        assert rank_of_rows(rows, integers_mod(3)) == 2

    def test_empty_and_zero_rows(self):
        assert rank_of_rows([], QQ) == 0
        assert rank_of_rows([{}, {0: 0}], QQ) == 0

    def test_requires_field(self):
        with pytest.raises(ValueError):
            rank_of_rows([{0: 1}], ZZ)
        with pytest.raises(ValueError):
            rank_of_rows([{0: 1}], integers_mod(4))

    def test_fraction_entries(self):
        rows = [{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: 3, 1: 2}]
        assert rank_of_rows(rows, QQ) == 1


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def sparse_rows(values):
    row = st.dictionaries(st.integers(0, 5), values, max_size=6)
    return st.lists(row, max_size=7)


def sympy_rank(rows, domain):
    """Rank of the dense matrix of ``rows`` (six columns) over a sympy domain."""
    from sympy.polys.matrices import DomainMatrix

    dense = [[row.get(c, 0) for c in range(6)] for row in rows]
    return DomainMatrix.from_list(dense, domain).rank() if rows else 0


@settings(max_examples=60, deadline=None)
@given(sparse_rows(st.fractions(-3, 3, max_denominator=4)))
def test_rank_over_rationals_matches_sympy(sympy, rows):
    pairs = [{c: (v.numerator, v.denominator) for c, v in row.items()} for row in rows]
    assert rank_of_rows(rows, QQ) == sympy_rank(pairs, sympy.QQ)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), sparse_rows(st.integers(-6, 6)))
def test_rank_over_prime_fields_matches_sympy(sympy, p, rows):
    assert rank_of_rows(rows, integers_mod(p)) == sympy_rank(rows, sympy.GF(p))


class TestSmith:
    def test_diagonal_normalization(self):
        assert smith_elementary_divisors([{0: 2}, {1: 3}], 2) == [1, 6]

    def test_rank_deficient(self):
        assert smith_elementary_divisors([{0: 2, 1: 4}, {0: 4, 1: 8}], 2) == [2]

    def test_identity(self):
        assert smith_elementary_divisors([{0: 1}, {1: 1}], 2) == [1, 1]

    def test_empty(self):
        assert smith_elementary_divisors([], 3) == []
        assert smith_elementary_divisors([{}], 3) == []

    def test_divisibility_chain(self):
        rows = [{0: 4, 1: 0}, {0: 0, 1: 6}]
        divisors = smith_elementary_divisors(rows, 2)
        assert divisors == [2, 12]
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0

    def test_matches_known_lattice(self):
        # rows span an index-5 sublattice of Z^2
        rows = [{0: 1, 1: 2}, {0: 2, 1: -1}]
        assert smith_elementary_divisors(rows, 2) == [1, 5]

    def test_agrees_with_sympy_invariant_factors(self):
        pytest.importorskip("sympy")
        from sympy import Matrix
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(2508)
        values = (0, 0, 0, -4, -3, -2, -1, 1, 2, 3, 4, 6)
        for _ in range(300):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            dense = [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]
            rows = [{c: v for c, v in enumerate(row) if v} for row in dense]
            expected = [abs(int(d)) for d in invariant_factors(Matrix(dense)) if d != 0]
            assert smith_elementary_divisors(rows, ncols) == expected, dense


class TestLead:
    def test_unit_on_the_greatest_label(self):
        assert lead(5, {5: 1, 3: -2, 1: 7}, key=lambda u: u) == 1

    def test_unit_on_the_least_label_above(self):
        assert lead(1, {5: -2, 3: 7, 1: 1}, key=lambda u: u, above=True) == 1

    def test_rejects_a_label_not_strictly_below(self):
        terms = {5: 1, 3: -2, 1: 7}
        assert lead(3, terms, key=lambda u: u) is None
        assert lead(5, terms, key=lambda u: u % 2) is None

    def test_rejects_a_label_not_strictly_above(self):
        terms = {5: 1, 3: -2, 1: 7}
        assert lead(3, terms, key=lambda u: u, above=True) is None
        assert lead(1, terms, key=lambda u: u % 2, above=True) is None

    @pytest.mark.parametrize("above", (False, True))
    def test_absent_label_reads_zero(self, above):
        assert lead(2, {3 if above else 1: 4}, key=lambda u: u, above=above) == 0


class TestReduceByPivots:
    # labels are tuples of lines; a label's key is its single entry
    @staticmethod
    def key(lines):
        return lines[0]

    def test_clears_the_greatest_label_first_and_keeps_the_rest(self):
        relations = {((3,),): {((3,),): 1, ((2,),): 2}, ((2,),): {((2,),): 1, ((1,),): -1}}
        left, steps = reduce_by_pivots({((3,),): 1, ((2,),): 1}, relations.get, self.key, ZZ)
        assert steps == [(((3,),), 1), (((2,),), -1)]
        assert left == {((1,),): -1}

    @pytest.mark.parametrize(
        "above, relation",
        [
            (False, {((2,),): 2, ((1,),): 1}),  # lead 2
            (False, {((2,),): 1, ((3,),): 1}),  # a term above
            (True, {((2,),): 1, ((1,),): 1}),  # a term below
        ],
        ids=("lead-2", "term-above", "term-below-with-above"),
    )
    def test_a_pivot_without_lead_one_raises(self, above, relation):
        def pivot(lines):
            return relation if lines == ((2,),) else None

        with pytest.raises(RuntimeError, match=re.escape("the pivot relation on [[2]] does not lead with 1")):
            reduce_by_pivots({((2,),): 1}, pivot, self.key, ZZ, above=above)


class TestSolve:
    def test_unique_solution(self):
        columns = [{"a": 1, "b": 0}, {"a": 1, "b": 1}]
        target = {"a": 3, "b": 2}
        assert solve_exact(columns, target) == [Fraction(1), Fraction(2)]

    def test_inconsistent(self):
        columns = [{"a": 1, "b": 1}]
        target = {"a": 1, "b": 2}
        assert solve_exact(columns, target) is None

    def test_rational_coefficients(self):
        columns = [{"a": 2}]
        target = {"a": 1}
        assert solve_exact(columns, target) == [Fraction(1, 2)]
