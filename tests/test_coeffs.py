import json
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from weylkit.coeffs import QQ, ZZ, CoefficientRing, InputError, LinComb, integers_mod, parse_ring
from weylkit.powers import SymLowerElement
from weylkit.tableaux import ROW_SEMISTANDARD, enumerate_tableaux


Z3 = integers_mod(3)


def lc(ring, terms):
    return LinComb(ring, terms)


class TestRings:
    def test_rational_canonical_form(self):
        assert QQ.normalize(Fraction(2, 4)) == Fraction(1, 2)
        assert QQ.normalize(Fraction(3, -6)) == Fraction(-1, 2)
        assert QQ.normalize(Fraction(-1, 2)).denominator == 2

    def test_zmod_residues(self):
        assert Z3.normalize(-1) == 2
        assert Z3.normalize(7) == 1
        assert Z3.add(2, 2) == 1

    def test_zmod_requires_modulus(self):
        with pytest.raises(ValueError):
            integers_mod(1)
        with pytest.raises(ValueError):
            CoefficientRing("z", 5)

    def test_integers_reject_floats_and_proper_fractions(self):
        with pytest.raises(TypeError):
            ZZ.normalize(0.5)
        with pytest.raises(TypeError):
            ZZ.normalize(Fraction(1, 2))
        assert ZZ.normalize(Fraction(4, 2)) == 2

    def test_bools_are_rejected(self):
        # True == 1, so accepting it would give equal elements unequal JSON
        for ring in (ZZ, QQ, Z3):
            with pytest.raises(TypeError):
                ring.normalize(True)
        with pytest.raises(TypeError):
            LinComb(ZZ, {"x": True})

    # Fraction() reads each of these: an Arabic-Indic 1, a padded 2, 100 and 1/10
    @pytest.mark.parametrize("value", ["\u0661", " 2 ", "1e2", Decimal("0.1")], ids=["indic", "padded", "exp", "decimal"])
    @pytest.mark.parametrize("ring", [ZZ, QQ, Z3], ids=str)
    def test_strings_and_decimals_are_rejected(self, ring, value):
        exact = "an exact element" if ring == QQ else "an element"
        with pytest.raises(TypeError, match=re.escape(f"{value!r} is not {exact} of {ring}")):
            ring.normalize(value)

    def test_rationals_take_ints_and_fractions(self):
        assert [QQ.normalize(v) for v in (3, -2, Fraction(6, 4))] == [Fraction(3), Fraction(-2), Fraction(3, 2)]
        assert all(type(QQ.normalize(v)) is Fraction for v in (3, Fraction(1, 2)))

    def test_field_detection(self):
        assert QQ.is_field
        assert integers_mod(7).is_field
        assert not integers_mod(6).is_field
        assert not ZZ.is_field

    def test_field_detection_matches_a_sieve(self):
        bound = 20_000
        composite = bytearray(bound)
        for p in range(2, bound):
            if not composite[p]:
                composite[p * p :: p] = b"\1" * len(range(p * p, bound, p))
        for n in range(2, bound):
            assert integers_mod(n).is_field == (not composite[n]), n

    def test_a_strong_pseudoprime_to_the_bases_below_41_is_not_a_field(self):
        n = 399165290221 * 798330580441
        assert n == 318665857834031151167461
        assert not integers_mod(n).is_field

    def test_moduli_past_the_exact_range_are_refused(self):
        # the least strong pseudoprime to every base 2..41
        with pytest.raises(InputError, match="too large"):
            integers_mod(3317044064679887385961981).is_field
        assert not integers_mod(3317044064679887385961980).is_field

    def test_tags_round_trip(self):
        for ring in (ZZ, QQ, Z3, integers_mod(12)):
            assert parse_ring(ring.tag) == ring

    @pytest.mark.parametrize("tag", ["zmod:1_3", "zmod:+5", "zmod: 7", "zmod:7 ", "zmod:\u0665", "zmod:", "zmod"])
    def test_a_modulus_outside_ascii_digits_is_refused(self, tag):
        with pytest.raises(InputError, match="unknown ring tag"):
            parse_ring(tag)

    def test_coeff_strings(self):
        assert QQ.format_coeff(Fraction(1, 2)) == "1/2"
        assert QQ.parse_coeff("-3/6") == Fraction(-1, 2)
        assert ZZ.parse_coeff("-4") == -4
        assert ZZ.parse_coeff("4/1") == 4
        with pytest.raises(ValueError):
            ZZ.parse_coeff("1/2")

    @pytest.mark.parametrize("tag", ["z", "q", "zmod:7"])
    @pytest.mark.parametrize(
        "text", ["1_0", "\u0665", " +3", "+3", "3 ", "\uff13", "1.5", "1e3", "", "-", "--1", "1/", "/2", "1/-2", "1/+2"]
    )
    def test_a_coefficient_outside_ascii_digits_is_refused(self, tag, text):
        with pytest.raises(ValueError, match="malformed coefficient"):
            parse_ring(tag).parse_coeff(text)

    def test_the_denominator_rules_are_unchanged(self):
        assert ZZ.parse_coeff("-4/1") == -4
        assert integers_mod(7).parse_coeff("-3/01") == 4
        assert QQ.parse_coeff("4/6") == Fraction(2, 3)
        for ring in (ZZ, integers_mod(7)):
            with pytest.raises(ValueError, match="is not an element"):
                ring.parse_coeff("1/0")
        with pytest.raises(ZeroDivisionError):
            QQ.parse_coeff("1/0")

    @pytest.mark.parametrize("tag", ["z", "q", "zmod:7"])
    def test_every_formatted_coefficient_round_trips(self, tag):
        ring = parse_ring(tag)
        values = [*range(-30, 31), 10**30, -(10**30)]
        if ring == QQ:
            values += [Fraction(n, d) for n in range(-12, 13) for d in range(1, 13)] + [Fraction(-(10**20), 3)]
        for a in values:
            text = ring.format_coeff(a)
            assert ring.parse_coeff(text) == ring.normalize(a), text

    def test_an_element_with_a_malformed_coefficient_is_refused_from_json(self):
        obj = LinComb(ZZ, {"a": 10}).to_json(lambda l: l)
        obj["terms"][0]["coeff"] = "1_0"
        with pytest.raises(ValueError, match="malformed coefficient '1_0'"):
            LinComb.from_json(obj, lambda l: l)


class TestCombine:
    def test_additive_inverse_cancels(self):
        x = lc(ZZ, {"x": 1})
        assert x.combine(x, 1, -1).is_zero

    def test_zero_operand(self):
        x = lc(ZZ, {"x": 1})
        assert x.combine(LinComb.zero(ZZ), 5, 5) == lc(ZZ, {"x": 5})

    def test_mod_three_cancellation(self):
        x = lc(Z3, {"x": 1})
        assert x.combine(x, 2, 1).is_zero

    def test_ring_mismatch(self):
        with pytest.raises(ValueError, match="ring mismatch"):
            lc(ZZ, {"x": 1}).combine(lc(QQ, {"x": 1}))


class TestMapLabels:
    def test_zero_maps_to_zero(self):
        assert LinComb.zero(ZZ).map_labels(lambda l: lc(ZZ, {l: 1})).is_zero

    def test_identity_embedding(self):
        x = lc(ZZ, {"u": 2, "v": -1})
        assert x.map_labels(lambda l: lc(ZZ, {l: 1})) == x

    def test_label_collision_collapses(self):
        x = lc(ZZ, {"u": 1, "v": 1})
        assert x.map_labels(lambda l: lc(ZZ, {"w": 1})) == lc(ZZ, {"w": 2})

    def test_integral_images_pass_to_the_ring(self):
        x = lc(Z3, {"u": 1, "v": 1})
        assert x.map_labels(lambda l: lc(ZZ, {"w": 4, l: 3})) == lc(Z3, {"w": 2})
        y = lc(QQ, {"u": Fraction(1, 2)})
        assert y.map_labels(lambda l: lc(ZZ, {"w": 3})) == lc(QQ, {"w": Fraction(3, 2)})

    def test_ring_mismatch(self):
        with pytest.raises(ValueError, match="ring mismatch"):
            lc(Z3, {"u": 1}).map_labels(lambda l: lc(QQ, {l: 1}))


class TestLinearCombination:
    def test_integral_terms_pass_to_the_ring(self):
        pairs = [(1, lc(ZZ, {"u": 4, "v": 1})), (2, lc(Z3, {"v": 1}))]
        assert LinComb.linear_combination(Z3, pairs) == lc(Z3, {"u": 1})

    def test_ring_mismatch(self):
        with pytest.raises(ValueError, match="ring mismatch"):
            LinComb.linear_combination(Z3, [(1, lc(QQ, {"u": 1}))])


class TestChangeRing:
    def test_multiple_of_three_dies_mod_three(self):
        assert lc(ZZ, {"w": 3}).change_ring(Z3).is_zero

    def test_embeds_into_rationals(self):
        assert lc(ZZ, {"w": 2}).change_ring(QQ) == lc(QQ, {"w": 2})

    def test_negative_reduces_mod_two(self):
        assert lc(ZZ, {"w": -3}).change_ring(integers_mod(2)) == lc(integers_mod(2), {"w": 1})

    def test_rejects_non_integral_source(self):
        with pytest.raises(ValueError, match="only integral elements can change ring"):
            lc(QQ, {"w": 1}).change_ring(ZZ)


small_lincombs = st.dictionaries(
    st.sampled_from("abcde"), st.integers(-5, 5), max_size=4
).map(lambda d: LinComb(ZZ, d))
small_scalars = st.integers(-4, 4)


@given(small_lincombs, small_lincombs, small_lincombs)
def test_addition_associative_commutative(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


@given(small_lincombs, small_lincombs, small_scalars, small_scalars)
def test_combine_is_bilinear(a, b, ca, cb):
    assert a.combine(b, ca, cb) == a.scaled(ca) + b.scaled(cb)


@given(small_lincombs, small_lincombs)
def test_change_ring_is_additive(a, b):
    assert (a + b).change_ring(Z3) == a.change_ring(Z3) + b.change_ring(Z3)


def test_canonical_form_serializes_identically():
    a = LinComb(ZZ, [("b", 1), ("a", 2), ("b", 1)])
    b = LinComb(ZZ, [("a", 5), ("b", 2), ("a", -3)])
    assert a == b
    dump = lambda x: json.dumps(x.to_json(lambda l: l))
    assert dump(a) == dump(b)


def test_zero_terms_never_stored():
    x = LinComb(ZZ, [("a", 1), ("a", -1), ("b", 2)])
    assert list(x.labels()) == ["b"]


def test_json_round_trip():
    for x in (
        LinComb(ZZ, {"a": -2, "b": 7}),
        LinComb(QQ, {"a": Fraction(1, 3)}),
        LinComb(Z3, {"c": 2}),
        LinComb.zero(QQ),
    ):
        obj = x.to_json(lambda l: l)
        assert LinComb.from_json(obj, lambda l: l) == x
        assert json.loads(json.dumps(obj)) == obj


def _built(ring, terms):
    """LinComb(ring, terms), or TypeError when a coefficient is rejected."""
    try:
        return LinComb(ring, terms)
    except TypeError:
        return TypeError


coefficient_values = st.one_of(
    st.integers(-30, 30),  # unreduced modulo 4 and 6, and multiples of both
    st.fractions(min_value=-6, max_value=6, max_denominator=3),  # integral ones only pass outside Q
    st.booleans(),
    st.floats(allow_nan=False),
)


@pytest.mark.parametrize("ring", [ZZ, QQ, integers_mod(4), integers_mod(6)], ids=lambda r: r.tag)
@given(terms=st.dictionaries(st.sampled_from("abcde"), coefficient_values, max_size=5))
@example(terms={"a": 12, "b": -7, "c": Fraction(8, 2)})
@example(terms={"a": 1, "b": True})
@example(terms={"a": 0.0})
def test_dict_constructor_matches_the_pairs_constructor(ring, terms):
    from_dict = _built(ring, terms)
    assert from_dict == _built(ring, list(terms.items()))
    if any(isinstance(v, (bool, float)) for v in terms.values()):
        assert from_dict is TypeError
    elif from_dict is not TypeError:
        assert all(c != 0 and ring.normalize(c) == c for _, c in from_dict.items())


@pytest.mark.parametrize("ring", [ZZ, QQ, integers_mod(6)], ids=lambda r: r.tag)
@given(pairs=st.lists(st.tuples(small_scalars, small_lincombs), max_size=5))
def test_linear_combination_matches_repeated_combine(ring, pairs):
    lifted = [(c, lin if ring == ZZ else lin.change_ring(ring)) for c, lin in pairs]
    expected = LinComb.zero(ring)
    for c, lin in lifted:
        expected = expected.combine(lin, 1, c)
    assert LinComb.linear_combination(ring, lifted) == expected
    assert LinComb.linear_combination(ring, pairs) == expected


LABELS = enumerate_tableaux((2, 1), 2, ROW_SEMISTANDARD)


@pytest.mark.parametrize("ring", [ZZ, QQ, integers_mod(6)], ids=lambda r: r.tag)
@given(parts=st.dictionaries(st.sampled_from(LABELS), st.tuples(st.integers(-30, 30), st.integers(-30, 30))))
def test_equal_combinations_hash_equal(ring, parts):
    # every label appears twice in the pair list, its coefficient split in two
    pairs = [(label, a) for label, (a, _) in parts.items()] + [(label, b) for label, (_, b) in parts.items()]
    built = [
        LinComb(ring, {label: a + b for label, (a, b) in parts.items()}),
        LinComb(ring, pairs),
        LinComb(ring, pairs[::-1]),
    ]
    for lin in built[1:]:
        assert lin == built[0] and hash(lin) == hash(built[0])
        assert hash(SymLowerElement(lin)) == hash(SymLowerElement(built[0]))
