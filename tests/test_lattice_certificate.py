"""The unitriangular lattice certificates of the verify paths over Z.

The certificate must give the Smith-form verdict on every small instance,
and must fail, naming the pivot, when one pivot relation is corrupted in a
way that leaves every rank check passing.
"""

import pytest

import weylkit.schur as schur
import weylkit.weyl as weyl
from weylkit.coeffs import QQ, ZZ
from weylkit.places import boxset_to_json
from weylkit.tableaux import Tableau, partitions_up_to

from smith_oracle import schur_relation_rows, smith_verdict, weyl_relation_rows

T = Tableau

SIDES = {
    "schur": (schur.verify_schur_ses, schur_relation_rows, "garnir"),
    "weyl": (weyl.verify_weyl_kernel, weyl_relation_rows, "snake"),
}


def _check(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


@pytest.mark.parametrize("side", sorted(SIDES))
@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("shape", tuple(partitions_up_to(4)), ids=str)
def test_certificate_verdict_matches_smith_form(shape, m, side):
    verify, relation_rows, prefix = SIDES[side]
    report = verify(shape, m, ZZ)
    certified = _check(report, f"{prefix}_lattice_is_direct_summand")["ok"]
    rows, ncols = relation_rows(shape, m)
    assert certified == smith_verdict(rows, ncols, shape, m)
    assert certified


def _doubled_at(builder, *targets):
    """The line-form ``builder`` with the relation on each of ``targets`` replaced by twice itself."""

    def corrupted(*args):
        rel = builder(*args)
        return {lines: 2 * c for lines, c in rel.items()} if args in targets else rel

    return corrupted


def test_weyl_certificate_names_a_corrupted_pivot(monkeypatch):
    # The aligned snake of [[1,2],[1,2]] is (i, j, j') = (1, 1, 1), on A the
    # top row and B the box below its first.
    t = T([[1, 2], [1, 2]])
    box_a, box_b = frozenset({(1, 1), (1, 2)}), frozenset({(2, 1)})
    monkeypatch.setattr(weyl, "_dual_garnir_int", _doubled_at(weyl._dual_garnir_int, (t.rows, box_a, box_b)))
    report = weyl.verify_weyl_kernel((2, 2), 2, ZZ)
    assert not report["ok"]
    failed = [c["name"] for c in report["checks"] if not c["ok"]]
    assert failed == ["snake_lattice_is_direct_summand"]
    example = _check(report, "snake_lattice_is_direct_summand")["counterexample"]
    assert (example["tableau"], example["row"], example["cols"]) == (t.to_json(), 1, [1, 1])
    assert weyl.verify_weyl_kernel((2, 2), 2, QQ)["ok"]


def test_schur_certificate_names_a_corrupted_pivot(monkeypatch):
    # The first row descent of [[2,1],[3]] is 2 > 1 in row 1, so A is all of
    # column 1 and B the top box of column 2.
    t = T([[2, 1], [3]])
    box_a, box_b = frozenset({(1, 1), (2, 1)}), frozenset({(1, 2)})
    monkeypatch.setattr(schur, "_garnir_int", _doubled_at(schur._garnir_int, (t.columns, box_a, box_b)))
    report = schur.verify_schur_ses((2, 1), 3, ZZ)
    assert not report["ok"]
    failed = [c["name"] for c in report["checks"] if not c["ok"]]
    assert failed == ["garnir_lattice_is_direct_summand"]
    example = _check(report, "garnir_lattice_is_direct_summand")["counterexample"]
    assert (example["tableau"], example["boxA"], example["boxB"]) == (
        t.to_json(),
        boxset_to_json(box_a),
        boxset_to_json(box_b),
    )
    assert schur.verify_schur_ses((2, 1), 3, QQ)["ok"]


def test_a_doubled_pivot_on_three_columns_fails_only_the_lattice(monkeypatch):
    # The pivot of [[2,1,1]], on its first row descent, is the pivot of
    # [[2,1]] put back.  Doubling both leaves the certificate of (2,) with an
    # odd pivot, so (3,) is scanned, and names [[2,1,1]].
    t = T([[2, 1, 1]])
    box_a, box_b = frozenset({(1, 1)}), frozenset({(1, 2)})
    doubled = _doubled_at(schur._garnir_int, (T([[2, 1]]).columns, box_a, box_b), (t.columns, box_a, box_b))
    monkeypatch.setattr(schur, "_garnir_int", doubled)
    assert schur.verify_schur_ses((3,), 3, QQ)["ok"]
    report = schur.verify_schur_ses((3,), 3, ZZ)
    failed = [c["name"] for c in report["checks"] if not c["ok"]]
    assert failed == ["garnir_lattice_is_direct_summand"]
    example = _check(report, "garnir_lattice_is_direct_summand")["counterexample"]
    assert (example["tableau"], example["boxA"], example["boxB"]) == (
        t.to_json(),
        boxset_to_json(box_a),
        boxset_to_json(box_b),
    )
