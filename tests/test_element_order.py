"""Element output in rows order against the ``Tableau.sort_key`` order it replaced.

``TableauElement.items`` and ``to_json`` sort an element's terms by their
labels' rows.  The oracle is the generic path: ``LinComb.items``, which
sorts by ``Tableau.sort_key``, and ``LinComb.to_json(Tableau.to_json)``.
Every kind of element the CLI prints is compared with it, byte for byte,
as JSON and in each ``render_element`` format.
"""

import json
from fractions import Fraction
from functools import cache

import pytest

import weylkit.powers as powers
from weylkit.cli import render_element
from weylkit.coeffs import QQ, ZZ, LinComb, integers_mod
from weylkit.places import row_orbit
from weylkit.powers import SymLowerElement, TensorElement, rsym
from weylkit.schur import garnir, garnir_labels, polytabloid
from weylkit.tableaux import ALL, Tableau, enumerate_tableaux, partitions_up_to, sort_rows
from weylkit.weyl import (
    STAR_STAR_VARIANT,
    STAR_VARIANT,
    copolytabloid,
    dual_garnir,
    dual_garnir_double_coset,
    dual_garnir_labels,
    dual_snake,
    snake_labels,
    straighten,
    variant_relation,
)

RINGS = (ZZ, QQ, integers_mod(4))
FORMATS = ("json", "text", "latex")
SAMPLE = 10  # labels of each (shape, m): every 10th filling, and the last; relations on every 3rd of those


class SortKeyOrder:
    """An element as the generic path writes it: terms in ``Tableau.sort_key`` order, JSON from ``LinComb``."""

    def __init__(self, x):
        self.space, self.ring, self.is_zero, self.lin = x.space, x.ring, x.is_zero, x.lin

    def items(self):
        return self.lin.items()

    def to_json(self):
        return {"space": self.space, **self.lin.to_json(Tableau.to_json)}


def _fillings(shape, m):
    tabs = enumerate_tableaux(shape, m, ALL)
    return tabs[::SAMPLE] + tabs[-1:]


def _relations(t, ring):
    for box_a, box_b in garnir_labels(t.shape):
        yield garnir(t, box_a, box_b, ring)
    for box_a, box_b in dual_garnir_labels(t.shape):
        yield dual_garnir(t, box_a, box_b, ring)
        yield variant_relation(t, box_a, box_b, STAR_VARIANT, ring)
        yield variant_relation(t, box_a, box_b, STAR_STAR_VARIANT, ring)
        if len(box_a) + len(box_b) <= 6:
            yield dual_garnir_double_coset(t, box_a, box_b, ring)
    for i, j, jp in snake_labels(t.shape):
        yield dual_snake(t, i, j, jp, ring)


@cache
def corpus() -> tuple:
    """``(name, element)`` for each element the CLI prints, over |λ| ≤ 5, m ≤ 3 and the rings z, q, zmod:4.

    Each element appears as built and scaled by -3, or over Q by -2/3, so
    negative and Fraction coefficients are in it.
    """
    out = []
    for shape in partitions_up_to(5):
        for m in range(1, 4):
            for k, t in enumerate(_fillings(shape, m)):
                for ring in RINGS:
                    cert = straighten(SymLowerElement(LinComb(ring, {sort_rows(t): 1})))
                    built = [
                        ("rsym", rsym(t, ring)),
                        ("polytabloid", polytabloid(t, ring)),
                        ("copolytabloid", copolytabloid(t, ring)),
                        ("straighten input", cert.source),
                        ("straighten coords", cert.coords),
                        *((rel.kind, rel.element) for rel in (_relations(t, ring) if k % 3 == 0 else ())),
                    ]
                    scale = Fraction(-2, 3) if ring == QQ else -3
                    for kind, x in built:
                        name = f"{kind} of {t!r} over {ring}"
                        out += [(name, x), (f"{scale} * {name}", x.scaled(scale))]
    return tuple(out)


def mismatches():
    """The names of the corpus elements whose JSON or rendering differs from the sort_key path, lazily."""
    for name, x in corpus():
        old = SortKeyOrder(x)
        if json.dumps(x.to_json()) != json.dumps(old.to_json()) or any(
            render_element(x, fmt) != render_element(old, fmt) for fmt in FORMATS
        ):
            yield name


def test_every_printed_element_matches_the_sort_key_path():
    assert list(mismatches()) == []


def test_the_corpus_has_every_kind_negative_and_fraction_coefficients_and_many_terms():
    kinds = {name.split(" of ")[0].split(" * ")[-1] for name, _ in corpus()}
    assert len(kinds) == 10, kinds
    coeffs = {c for _, x in corpus() for _, c in x.items()}
    assert any(type(c) is int and c < 0 for c in coeffs)
    assert any(type(c) is Fraction and c.denominator > 1 for c in coeffs)
    assert max(len(x.lin) for _, x in corpus()) >= 20


def test_ordering_by_columns_fails_the_oracle(monkeypatch):
    def by_columns(x):
        return sorted(x.lin.unordered_items(), key=lambda term: term[0].columns)

    monkeypatch.setattr(powers.TableauElement, "items", by_columns)
    assert next(mismatches(), None) is not None


def test_relation_and_straighten_payloads_match_the_sort_key_path():
    t = Tableau([[3, 1, 2], [2, 1], [1]])
    for ring in RINGS:
        for rel in _relations(t, ring):
            old = {**rel.to_json(), "element": SortKeyOrder(rel.element).to_json()}
            assert json.dumps(rel.to_json(), indent=2) == json.dumps(old, indent=2)
        cert = straighten(SymLowerElement(LinComb(ring, {sort_rows(t): 1})))
        for x in (cert.source, cert.coords):
            assert json.dumps(x.to_json(), indent=2) == json.dumps(SortKeyOrder(x).to_json(), indent=2)


@pytest.mark.parametrize("ring", (*RINGS, integers_mod(2)), ids=str)
def test_rsym_is_the_orbit_sum(ring):
    for shape in partitions_up_to(4):
        for t in enumerate_tableaux(shape, 3, ALL):
            assert rsym(t, ring) == TensorElement(LinComb(ring, ((u, 1) for u in row_orbit(t))))
