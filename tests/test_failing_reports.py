"""Byte-level pins of failing ``schur-verify`` and ``weyl-verify`` reports.

``golden_reports.json`` pins passing reports only.  Here each mutant of a
line-form builder or a pivot breaks the instances it names, and the
``json.dumps`` of every report on them over Q, Z/2 and Z, with
``wall_time_s`` taken out, must equal the string recorded in
``failing_reports.json``.  That pins what a failing report holds: its
checks and their order, the cut after a failed membership check, the
counterexamples, and the rank keys.  To record the strings again, after a
change meant to alter a report, run
``PYTHONPATH=src python tests/test_failing_reports.py``.
"""

import json
import sys
from pathlib import Path

import pytest

import weylkit.schur as schur
import weylkit.weyl as weyl
from weylkit.coeffs import parse_ring
from weylkit.powers import SymLowerElement
from weylkit.tableaux import Tableau

from test_kernel_certificate import MUTATIONS, THREE_COLUMN_MUTANTS, THREE_ROW_MUTANTS, plus_a_label

PINS = Path(__file__).with_name("failing_reports.json")
RINGS = ("q", "zmod:2", "z")


def _plus_two(side):
    builder, target, _, space, label, instance, _ = MUTATIONS[side]
    lines = label.rows if space is SymLowerElement else label.columns
    return builder, lambda original: plus_a_label(original, target, lines, 2), [instance]


def _dropped_pivot(original):
    columns = Tableau([[2, 1], [3]]).columns
    return lambda u: ("no", "label") if u == columns else original(u)


# name: (the module patched, the attribute, the mutant of it, the side's verify, the instances)
MUTANTS = {
    "garnir_plus_two": (schur, *_plus_two("schur"), schur.verify_schur_ses),
    "dual_garnir_plus_two": (weyl, *_plus_two("weyl"), weyl.verify_weyl_kernel),
    "garnir_pivot_dropped": (schur, "_garnir_pivot", _dropped_pivot, [((2, 1), 3)], schur.verify_schur_ses),
    "wedge_doubled": (weyl, *THREE_ROW_MUTANTS["wedge_doubled"], [((2, 1), 2), ((2, 2, 1), 3)], weyl.verify_weyl_kernel),
    "dual_garnir_doubled_pivot": (
        weyl, *THREE_ROW_MUTANTS["dual_garnir_doubled_pivot"], [((2, 2, 1), 3)], weyl.verify_weyl_kernel
    ),
    **{
        name: (schur, "_garnir_int", mutate, [instance], schur.verify_schur_ses)
        for name, (mutate, instance, *_) in THREE_COLUMN_MUTANTS.items()
    },
}


def reports(name, monkeypatch) -> dict:
    """``{"name shape m ring": json.dumps(report without wall_time_s)}`` on every instance of one mutant."""
    module, attribute, mutate, instances, verify = MUTANTS[name]
    monkeypatch.setattr(module, attribute, mutate(getattr(module, attribute)))
    out = {}
    for shape, m in instances:
        for tag in RINGS:
            report = verify(shape, m, parse_ring(tag), size_cap=None, entry_cap=None)
            del report["wall_time_s"]
            out[f"{name} {report['command']} {','.join(map(str, shape))} {m} {tag}"] = json.dumps(report)
    return out


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_failing_reports_match_their_pins(name, monkeypatch):
    pinned = {key: text for key, text in json.loads(PINS.read_text()).items() if key.split()[0] == name}
    got = reports(name, monkeypatch)
    assert got == pinned
    assert any(not json.loads(text)["ok"] for text in got.values())


if __name__ == "__main__":
    recorded = {}
    for name in MUTANTS:
        for module in [module for key, module in sys.modules.items() if key.startswith("weylkit.")]:
            for memo in [value for value in vars(module).values() if hasattr(value, "cache_clear")]:
                memo.cache_clear()
        with pytest.MonkeyPatch.context() as patch:
            recorded.update(reports(name, patch))
    PINS.write_text(json.dumps(recorded, indent=1) + "\n")
