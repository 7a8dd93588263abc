import json
import random
import re
import shutil
import subprocess
import sys

import pytest
from parser_oracle import build_parser as eager_build_parser
from test_powers import element_from_json

import weylkit.cli as cli
from weylkit import InputError
from weylkit.cli import build_parser, dispatch, parse_boxes, parse_shape, render_element
from weylkit.coeffs import QQ, ZZ, LinComb, integers_mod, parse_ring
from weylkit.duality import EntryMatrix
from weylkit.places import check_line_label
from weylkit.powers import (
    ColumnTabloidElement,
    RowTabloidElement,
    SymLowerElement,
    TensorElement,
)
from weylkit.tableaux import ROW_SEMISTANDARD, Tableau, check_partition, enumerate_tableaux
from weylkit.verify import check_caps
from weylkit.weyl import dual_snake

T = Tableau


# the equivariance report on lambda, shape (1,1,1,1), alphabet 3 and a dense matrix, without its wall time, as
# json.dumps wrote it when the check read each label's sources apart
DENSE_EQUIVARIANCE_REPORT = (
    '{"command": "equivariance", "instance": {"shape": [1, 1, 1, 1], "entries": 3, "ring": "z", "map": "lambda", '
    '"matrix": [[2, 1, 1], [1, 1, 1], [1, 1, 2]]}, "dims": {}, "checks": [{"name": "map_commutes_with_action", '
    '"ok": true, "counterexample": null}], "ok": true}'
)


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsers:
    def test_shape(self):
        assert parse_shape("3,2") == (3, 2)
        from weylkit.cli import CliError

        with pytest.raises(CliError, match="malformed shape"):
            parse_shape("2,3")

    def test_boxes(self):
        assert parse_boxes("(1,1),(1,2)") == frozenset({(1, 1), (1, 2)})
        from weylkit.cli import CliError

        with pytest.raises(CliError, match="malformed box set"):
            parse_boxes("1,2")

    # int() reads each of these as a number: 10, a fullwidth 2, +2, an Arabic-Indic 1
    @pytest.mark.parametrize("text", ["1_0", "\uff12,1", "+2", "\u0661"])
    def test_shape_parts_are_ascii_digits(self, capsys, text):
        code, out, err = run(capsys, "dims", "--shape", text, "--entries", "1")
        assert (code, out) == (2, "") and f"malformed shape {text!r}" in err

    def test_shape_parts_keep_their_whitespace(self):
        assert parse_shape(" 2 ,\t1\n") == (2, 1)
        assert parse_boxes(" ( 1 , 2 ),(1,1) ") == frozenset({(1, 1), (1, 2)})

    @pytest.mark.parametrize("text", ["(\u0661,1)", "(1,\uff12)"])
    def test_box_entries_are_ascii_digits(self, text):
        from weylkit.cli import CliError

        with pytest.raises(CliError, match="malformed box set"):
            parse_boxes(text)

    # each was read as a box set, the repeat dropped, until boxes had to be distinct and one comma apart
    @pytest.mark.parametrize(
        "text, detail",
        [
            ("(1,1),(2,1),(2,1)", "box (2,1) is repeated"),
            ("(2,1), ( 2 , 1 )", "box (2,1) is repeated"),
            ("(1,1)(2,1)", "expected e.g."),
            ("(1,1),,,(2,1)", "expected e.g."),
            ("(1,1),,(2,1)", "expected e.g."),
            (",(1,1),", "expected e.g."),
            ("(1,1),", "expected e.g."),
            (",(1,1)", "expected e.g."),
            ("", "expected e.g."),
        ],
    )
    def test_malformed_box_sets_exit_2(self, capsys, text, detail):
        code, out, err = run(capsys, "garnir", "--tableau", "[[1,2],[3,4]]", "--boxA", text, "--boxB", "(1,2)")
        assert (code, out) == (2, "")
        assert f"malformed box set {text!r}: {detail}" in err

    def test_boxes_may_be_spaced_around_their_commas(self):
        assert parse_boxes("\t(1,1) ,\t(2,1) , (1,2)") == frozenset({(1, 1), (2, 1), (1, 2)})


class TestDims:
    def test_hook(self, capsys):
        code, out, _ = run(capsys, "dims", "--shape", "2,1", "--entries", "2")
        assert code == 0
        assert json.loads(out) == {"ssyt": 2, "rssyt": 6, "csyt": 2}


class TestElements:
    def test_copolytabloid_example(self, capsys):
        code, out, _ = run(
            capsys, "copolytabloid", "--tableau", "[[2,1],[1,2]]", "--entries", "2"
        )
        assert code == 0
        got = element_from_json(json.loads(out))
        assert got == ColumnTabloidElement(LinComb(ZZ, {T([[1, 1], [2, 2]]): -2}))

    def test_dual_garnir_example(self, capsys):
        code, out, _ = run(
            capsys,
            "dual-garnir",
            "--shape", "2,2",
            "--tableau", "[[1,1],[2,2]]",
            "--rows", "1:2",
            "--boxA", "(1,1),(1,2)",
            "--boxB", "(2,1)",
            "--ring", "z",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "dual_garnir"
        element = element_from_json(obj["element"])
        assert element == SymLowerElement(
            LinComb(ZZ, {T([[1, 1], [2, 2]]): 2, T([[1, 2], [1, 2]]): 1})
        )

    def test_snake_and_variant_agree_with_library(self, capsys):
        code, out, _ = run(
            capsys, "snake", "--tableau", "[[1,1],[2,2]]", "--row", "1", "--cols", "1:1"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "dual_snake" and obj["cols"] == [1, 1]
        code, out, _ = run(
            capsys,
            "dual-garnir",
            "--tableau", "[[1,1],[2,2]]",
            "--boxA", "(1,1),(1,2)",
            "--boxB", "(2,1)",
            "--variant", "star",
            "--format", "text",
        )
        assert code == 0
        assert out.strip() == "rsym([[1,1],[2,2]]) + 2*rsym([[1,2],[1,2]])"

    def test_straighten_reports_verified_certificate(self, capsys):
        code, out, _ = run(
            capsys, "straighten", "--tableau", "[[2,1],[1,2]]", "--entries", "2"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["verified"] is True
        coords = element_from_json(obj["coords"])
        assert coords == SymLowerElement(LinComb(ZZ, {T([[1, 1], [2, 2]]): -2}))
        assert obj["gamma"][0]["coeff"] == "-1"

    def test_straighten_accepts_the_empty_tableau(self, capsys):
        code, out, _ = run(capsys, "straighten", "--tableau", "[]", "--entries", "1")
        assert code == 0
        assert json.loads(out)["verified"] is True


class TestRender:
    def test_zero_everywhere(self):
        zero = TensorElement(LinComb.zero(ZZ))
        for fmt in ("text", "latex"):
            assert render_element(zero, fmt) == "0"
        assert json.loads(render_element(zero, "json"))["terms"] == []

    def test_json_round_trip_random_elements(self):
        rng = random.Random(9)
        labels = enumerate_tableaux((2, 1), 3, ROW_SEMISTANDARD)
        for ring in (ZZ, QQ, integers_mod(5)):
            for _ in range(10):
                coords = {t: rng.randint(1, 4) for t in rng.sample(labels, 3)}
                x = SymLowerElement(LinComb(ZZ, coords).change_ring(ring))
                assert element_from_json(json.loads(render_element(x, "json"))) == x

    def test_latex_tabloid_markup(self):
        x = RowTabloidElement(LinComb(ZZ, {T([[1, 2], [2, 2]]): -1}))
        assert (
            render_element(x, "latex")
            == "-1\\,\\yrowtab{\\ytableaushort{{1}{2},{2}{2}}}"
        )

    def test_identical_elements_render_identically(self):
        a = SymLowerElement(LinComb(ZZ, [(T([[1, 2]]), 1), (T([[1, 1]]), 2)]))
        b = SymLowerElement(LinComb(ZZ, [(T([[1, 1]]), 2), (T([[1, 2]]), 1)]))
        assert render_element(a, "json") == render_element(b, "json")

    def test_two_term_relation_renders_deterministically(self):
        x = SymLowerElement(
            LinComb(ZZ, {T([[1, 1], [2, 2]]): 2, T([[1, 2], [1, 2]]): 1})
        )
        assert (
            render_element(x, "text")
            == "2*rsym([[1,1],[2,2]]) + rsym([[1,2],[1,2]])"
        )


class TestVerifyCommands:
    def test_weyl_verify_passes(self, capsys):
        code, out, _ = run(
            capsys, "weyl-verify", "--shape", "2,2", "--entries", "2", "--ring", "q"
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["dims"] == {"rssyt": 9, "ssyt": 1, "csyt": 1}

    def test_schur_verify_passes(self, capsys):
        code, out, _ = run(
            capsys, "schur-verify", "--shape", "2,2", "--entries", "2", "--ring", "q"
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize("command", ("schur-verify", "weyl-verify", "duality-check"))
    def test_the_empty_partition_passes(self, capsys, command):
        code, out, _ = run(capsys, command, "--shape", "", "--entries", "1")
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["instance"]["shape"] == []

    def test_duality_check_passes(self, capsys):
        code, out, _ = run(capsys, "duality-check", "--shape", "2,2", "--entries", "2")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_duality_check_reports_a_counterexample(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "copolytabloid", lambda t: ColumnTabloidElement(LinComb(ZZ, {})))
        code, out, _ = run(capsys, "duality-check", "--shape", "2,1", "--entries", "2")
        report = json.loads(out)
        assert (code, report["ok"]) == (1, False)
        [failed] = report["checks"]
        assert failed["name"] == "pairing_image_matches_copolytabloid"
        witness = failed["counterexample"]
        assert witness["tableau"] == {"shape": [2, 1], "rows": [[1, 1], [2]]}
        assert witness["copolytabloid"] == {"space": "wedge", "ring": "z", "terms": []}
        assert witness["pairing_image"]["terms"]

    def test_equivariance_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "equivariance",
            "--shape", "2,1",
            "--entries", "2",
            "--matrix", "[[0,1],[1,0]]",
            "--map", "e",
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_equivariance_report_on_a_dense_matrix_is_pinned(self, capsys):
        # lambda is 0 on every label here: no column of four entries from {1, 2, 3} is strictly increasing
        code, out, _ = run(
            capsys,
            "equivariance",
            "--shape", "1,1,1,1",
            "--entries", "3",
            "--matrix", "[[2,1,1],[1,1,1],[1,1,2]]",
            "--map", "lambda",
        )
        report = json.loads(out)
        assert code == 0 and report["ok"] is True
        del report["wall_time_s"]
        assert json.dumps(report) == DENSE_EQUIVARIANCE_REPORT

    def test_equivariance_over_the_rationals(self, capsys):
        code, out, _ = run(
            capsys,
            "equivariance",
            "--shape", "2,1",
            "--entries", "2",
            "--matrix", "[[1,1],[0,1]]",
            "--map", "e",
            "--ring", "q",
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["instance"]["matrix"] == [["1", "1"], ["0", "1"]]

    def test_reports_are_deterministic(self, capsys):
        def strip(report):
            report.pop("wall_time_s", None)
            return report

        args = ("weyl-verify", "--shape", "2,1", "--entries", "2", "--ring", "zmod:3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert strip(json.loads(out1)) == strip(json.loads(out2))


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_arguments(self, capsys):
        assert run(capsys, "dims", "--shape", "2,1")[0] == 2

    def test_malformed_tableau(self, capsys):
        code, _, err = run(capsys, "rsym", "--tableau", "[[1,2],")
        assert code == 2
        assert "malformed tableau JSON" in err

    @pytest.mark.parametrize("text", ["{}", "[1,2]", '{"rows": 5}', "null"])
    def test_tableau_json_of_the_wrong_form(self, capsys, text):
        code, out, err = run(capsys, "rsym", "--tableau", text)
        assert (code, out) == (2, "")
        assert err == (
            'error: malformed tableau JSON: expected a list of rows, or an object with "rows": a list of rows\n'
        )

    def test_bool_tableau_entry(self, capsys):
        code, out, _ = run(capsys, "rsym", "--tableau", "[[true,2]]")
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("shape", ["[2, true]", "[2.0, 1]"], ids=["bool", "float"])
    def test_bool_or_float_in_the_tableau_shape_field(self, capsys, shape):
        tableau = f'{{"rows": [[1, 2], [3]], "shape": {shape}}}'
        assert run(capsys, "copolytabloid", "--tableau", tableau) == (
            2,
            "",
            "error: malformed tableau JSON: tableau shape field disagrees with rows\n",
        )

    def test_bool_matrix_entry(self, capsys):
        code, out, err = run(
            capsys,
            "equivariance",
            "--shape", "1",
            "--entries", "2",
            "--matrix", "[[true,0],[0,1]]",
            "--map", "e",
        )
        assert (code, out) == (2, "")
        assert "bad entry matrix" in err

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ('[["1/0",0],[0,1]]', "entry (1, 1) '1/0' has a zero denominator"),
            ('[[1,"x"],[0,1]]', "entry (1, 2): malformed coefficient 'x'"),
            ('{"a":1}', "entry matrix must be a list of rows, each a list of entries"),
            ("5", "entry matrix must be a list of rows, each a list of entries"),
            ("[5]", "entry matrix must be a list of rows, each a list of entries"),
        ],
    )
    def test_matrix_errors_name_the_entry_and_the_problem(self, capsys, matrix, message):
        code, out, err = run(
            capsys,
            "equivariance",
            "--shape", "2,1",
            "--entries", "2",
            "--matrix", matrix,
            "--map", "e",
            "--ring", "q",
        )
        assert (code, out, err) == (2, "", f"error: bad entry matrix: {message}\n")

    # Fraction() read each of these over Q, as 1, 2, 100 and 1, and the report echoed the number
    @pytest.mark.parametrize("entry", ["\u0661", " 2 ", "1e2", "+1"])
    @pytest.mark.parametrize("tag", ["z", "q", "zmod:5"])
    def test_a_matrix_entry_outside_the_coefficient_form_is_refused(self, capsys, tag, entry):
        matrix = json.dumps([[entry]])
        code, out, err = run(
            capsys, "equivariance", "--shape", "1", "--entries", "1", "--ring", tag, "--map", "lambda", "--matrix", matrix
        )
        problem = f"malformed coefficient {entry!r}" if tag == "q" else f"{entry!r} is not an element of {parse_ring(tag)}"
        assert (code, out, err) == (2, "", f"error: bad entry matrix: entry (1, 1): {problem}\n")

    def test_a_rational_matrix_is_read_as_the_report_writes_it(self, capsys):
        matrix = '[["-3/4", 0, "1"], [0, 1, 0], ["2", 0, "1/2"]]'
        code, out, _ = run(
            capsys, "equivariance", "--shape", "2,1", "--entries", "3", "--ring", "q", "--map", "e", "--matrix", matrix
        )
        report = json.loads(out)
        assert code == 0 and report["ok"] is True
        assert report["instance"]["matrix"] == [["-3/4", "0", "1"], ["0", "1", "0"], ["2", "0", "1/2"]]

    def test_cap_exceeded(self, capsys):
        code, _, err = run(
            capsys, "weyl-verify", "--shape", "3,1", "--entries", "99", "--ring", "q"
        )
        assert code == 2
        assert "cap exceeded" in err

    def test_element_size_cap(self, capsys):
        code, _, err = run(capsys, "dims", "--shape", "9,8,7", "--entries", "2")
        assert code == 2
        assert "cap exceeded" in err

    def test_env_override_raises_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("WEYLKIT_MAX_SIZE", "30")
        code, out, _ = run(capsys, "dims", "--shape", "9,8,7", "--entries", "2")
        assert code == 0
        assert json.loads(out)["rssyt"] > 0

    @pytest.mark.parametrize(
        "value, problem",
        [
            ("-3", "be positive"),
            ("0", "be positive"),
            ("abc", "be an integer"),
            # int() takes each of these as 10, but the cap is in ASCII digits
            ("1_0", "be an integer"),
            ("\u0661\u0660", "be an integer"),
            ("+10", "be an integer"),
            (" 10", "be an integer"),
        ],
    )
    def test_env_override_must_be_a_positive_integer(self, capsys, monkeypatch, value, problem):
        monkeypatch.setenv("WEYLKIT_MAX_SIZE", value)
        # the default cap of 8 refuses this shape of size 9; the last four values, read by int() as 10, let it through
        code, out, err = run(capsys, "dims", "--shape", "4,3,2", "--entries", "3")
        assert (code, out) == (2, "")
        assert err == f"error: WEYLKIT_MAX_SIZE must {problem}, got {value!r}\n"

    def test_malformed_matrix_json(self, capsys):
        code, out, err = run(
            capsys, "equivariance", "--shape", "2,1", "--entries", "2", "--matrix", "[[1,0],", "--map", "e"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed matrix JSON: ")

    def test_listing_every_tableau_is_capped(self, capsys):
        code, out, err = run(capsys, "basis", "--shape", "7", "--entries", "9", "--class", "all")
        assert (code, out, err) == (2, "", "error: size cap exceeded: refusing to list more than 10^6 tableaux\n")

    def test_malformed_rows(self, capsys):
        code, out, err = run(
            capsys,
            "dual-garnir",
            "--tableau", "[[1,1],[2,2]]",
            "--rows", "1-2",
            "--boxA", "(1,1),(1,2)",
            "--boxB", "(2,1)",
        )
        assert (code, out, err) == (2, "", "error: malformed --rows '1-2': expected i:i'\n")

    # int() reads each of these as a number: an Arabic-Indic 1, +2, a padded 2, an Arabic-Indic 2, 10
    @pytest.mark.parametrize("text", ["\u0661", "+2", " 2", "\u0662", "1_0"])
    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--entries", ("dims", "--shape", "2")),
            ("--entries", ("rsym", "--tableau", "[[1,2]]")),
            ("--row", ("snake", "--tableau", "[[1,1],[2,2]]", "--cols", "1:1")),
        ],
        ids=["entries", "entries-bound", "row"],
    )
    def test_integer_flags_are_ascii_digits(self, capsys, flag, argv, text):
        code, out, err = run(capsys, *argv, flag, text)
        assert (code, out) == (2, "") and err.endswith(f": error: argument {flag}: invalid int value: {text!r}\n")

    @pytest.mark.parametrize("text", ["-1", "0"])
    def test_an_alphabet_below_one_still_reaches_its_check(self, capsys, text):
        code, out, err = run(capsys, "dims", "--shape", "2", "--entries", text)
        assert (code, out, err) == (2, "", "error: max_entry must be >= 1\n")

    def test_malformed_cols(self, capsys):
        code, out, err = run(capsys, "snake", "--tableau", "[[1,1],[2,2]]", "--row", "1", "--cols", "1")
        assert (code, out, err) == (2, "", "error: malformed --cols '1': expected j:j'\n")

    @pytest.mark.parametrize("cols", ["\u0661:2", "+1:2", "1:2_0"])
    def test_cols_outside_ascii_digits(self, capsys, cols):
        code, out, err = run(capsys, "snake", "--tableau", "[[1,1],[2,2]]", "--row", "1", "--cols", cols)
        assert (code, out, err) == (2, "", f"error: malformed --cols {cols!r}: expected j:j'\n")

    @pytest.mark.parametrize("rows", ["+1: 2", "1:\u0662"])
    def test_rows_outside_ascii_digits(self, capsys, rows):
        args = ("--tableau", "[[1,1],[2,2]]", "--rows", rows, "--boxA", "(1,1),(1,2)", "--boxB", "(2,1)")
        code, out, err = run(capsys, "dual-garnir", *args)
        assert (code, out, err) == (2, "", f"error: malformed --rows {rows!r}: expected i:i'\n")

    def test_spaces_around_a_pair_are_accepted(self, capsys):
        code, out, _ = run(capsys, "snake", "--tableau", "[[1,1],[2,2]]", "--row", "1", "--cols", " 1 : 1 ")
        assert code == 0 and json.loads(out)["cols"] == [1, 1]

    @pytest.mark.parametrize("tag", ["zmod:1_3", "zmod:+5", "zmod: 7", "zmod:\u0665"])
    def test_a_ring_modulus_outside_ascii_digits(self, capsys, tag):
        code, out, err = run(capsys, "rsym", "--tableau", "[[1,2]]", "--ring", tag)
        assert (code, out, err) == (2, "", f"error: unknown ring tag {tag!r}\n")

    def test_a_composite_modulus_is_not_a_field(self, capsys):
        # 399165290221 * 798330580441, a strong pseudoprime to every base 2..37
        code, out, err = run(
            capsys, "weyl-verify", "--shape", "2,1", "--entries", "2", "--ring", "zmod:318665857834031151167461"
        )
        assert (code, out, err) == (2, "", "error: verification needs a field or the integers\n")

    def test_tableau_entry_bound(self, capsys):
        code, _, err = run(
            capsys, "copolytabloid", "--tableau", "[[1,3],[2,4]]", "--entries", "2"
        )
        assert code == 2
        assert "exceed" in err

    def test_rows_disagreement(self, capsys):
        code, _, err = run(
            capsys,
            "dual-garnir",
            "--tableau", "[[1,1],[2,2]]",
            "--rows", "1:3",
            "--boxA", "(1,1),(1,2)",
            "--boxB", "(2,1)",
        )
        assert code == 2
        assert "disagrees" in err


def test_output_file_option(tmp_path, capsys):
    target = tmp_path / "dims.json"
    code = dispatch(["--output", str(target), "dims", "--shape", "2,1", "--entries", "2"])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text()) == {"ssyt": 2, "rssyt": 6, "csyt": 2}


BAD_STRAIGHTEN = ["straighten", "--tableau", "[[2,1]", "--entries", "2"]


def test_output_not_created_on_usage_error(tmp_path, capsys):
    target = tmp_path / "out.json"
    assert dispatch(["--output", str(target), *BAD_STRAIGHTEN]) == 2
    assert "malformed tableau" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_output_kept_on_usage_error(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("previous result\n")
    assert dispatch(["--output", str(target), *BAD_STRAIGHTEN]) == 2
    assert target.read_text() == "previous result\n"
    assert list(tmp_path.iterdir()) == [target]


def test_output_in_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    assert dispatch(["--output", str(target), "dims", "--shape", "2,1", "--entries", "2"]) == 2
    assert "cannot write --output" in capsys.readouterr().err


def test_output_naming_a_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "reports"
    target.mkdir()
    assert dispatch(["--output", str(target), "dims", "--shape", "2,1", "--entries", "2"]) == 2
    assert "cannot write --output" in capsys.readouterr().err
    assert target.is_dir() and list(target.iterdir()) == []
    assert list(tmp_path.iterdir()) == [target]


def test_output_kept_when_the_handler_raises(tmp_path, monkeypatch, capsys):
    def broken(*args):
        print("partial")
        raise RuntimeError("library bug")

    monkeypatch.setattr(cli, "count_tableaux", broken)
    target = tmp_path / "dims.json"
    target.write_text("previous result\n")
    assert dispatch(["--output", str(target), "dims", "--shape", "2,1", "--entries", "2"]) == 3
    assert capsys.readouterr().err.endswith("internal error: RuntimeError: library bug\n")
    assert target.read_text() == "previous result\n"
    assert list(tmp_path.iterdir()) == [target]


class CyclicElement(TensorElement):
    """An element whose JSON holds itself, as a library bug could build it."""

    def to_json(self):
        obj = super().to_json()
        obj["terms"].append(obj)
        return obj


def _cyclic_count(*args):
    loop = []
    loop.append(loop)
    return loop


# both encoders skip their cycle check, so a cycle ends in a RecursionError: a bug report, not a usage error
@pytest.mark.parametrize(
    "patch, argv",
    [
        pytest.param("count_tableaux", ["dims", "--shape", "2,1", "--entries", "2"], id="indented"),
        pytest.param("rsym", ["rsym", "--tableau", "[[1,2]]"], id="element"),
    ],
)
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
def test_a_payload_with_a_cycle_is_an_internal_error(tmp_path, monkeypatch, capsys, patch, argv, to_file):
    cyclic = {"count_tableaux": _cyclic_count, "rsym": lambda t, ring: CyclicElement(LinComb(ring, {t: 1}))}
    monkeypatch.setattr(cli, patch, cyclic[patch])
    target = tmp_path / "out.json"
    code, out, err = run(capsys, *(["--output", str(target)] if to_file else []), *argv)
    assert (code, out) == (3, "")
    assert "internal error: RecursionError" in err
    assert list(tmp_path.iterdir()) == []


def test_a_library_value_error_is_an_internal_error(monkeypatch, capsys):
    def broken(*args):
        raise ValueError("library bug")

    monkeypatch.setattr(cli, "copolytabloid", broken)
    code, out, err = run(capsys, "copolytabloid", "--tableau", "[[2,1],[1,2]]", "--entries", "2")
    assert (code, out) == (3, "")
    assert err.startswith("Traceback") and err.endswith("internal error: ValueError: library bug\n")


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: check_partition((1, 2)), id="check_partition"),
        pytest.param(lambda: Tableau([[0]]), id="Tableau"),
        pytest.param(lambda: Tableau.from_json({"rows": [[1]], "shape": [2]}), id="Tableau.from_json"),
        pytest.param(lambda: check_caps((3, 3), 2, 5, None), id="check_caps"),
        pytest.param(
            lambda: check_line_label(T([[1, 2], [3, 4]]), frozenset({(1, 1)}), frozenset({(1, 2)}), rows=False),
            id="check_line_label",
        ),
        pytest.param(lambda: dual_snake(T([[1, 1], [2, 2]]), 2, 1, 1), id="dual_snake"),
        pytest.param(lambda: parse_ring("zmod:x"), id="parse_ring-modulus"),
        pytest.param(lambda: parse_ring("zmod:1"), id="parse_ring-small"),
        pytest.param(lambda: EntryMatrix(ZZ, [[1, 1], [1, 1]]), id="EntryMatrix-singular"),
        pytest.param(lambda: EntryMatrix(QQ, [["1/0"]]), id="EntryMatrix-zero-denominator"),
        pytest.param(lambda: EntryMatrix(ZZ, [[True]]), id="EntryMatrix-bool"),
    ],
)
def test_validators_raise_input_errors(call):
    with pytest.raises(InputError):
        call()


def test_output_replaced_on_failed_check(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "verify_weyl_kernel", lambda *args: {"ok": False, "checks": []})
    target = tmp_path / "report.json"
    target.write_text("previous result\n")
    target.chmod(0o640)
    code = dispatch(["--output", str(target), "weyl-verify", "--shape", "2,1", "--entries", "2"])
    assert code == 1
    assert json.loads(target.read_text()) == {"ok": False, "checks": []}
    assert target.stat().st_mode & 0o777 == 0o640
    assert list(tmp_path.iterdir()) == [target]


def test_output_file_gets_default_permissions(tmp_path):
    reference = tmp_path / "reference"
    reference.write_text("")
    target = tmp_path / "dims.json"
    assert dispatch(["--output", str(target), "dims", "--shape", "2,1", "--entries", "2"]) == 0
    assert target.stat().st_mode == reference.stat().st_mode


@pytest.mark.parametrize(
    "argv",
    [
        ["copolytabloid", "--shape", "3,1", "--tableau", "[[2,1],[1,2]]", "--entries", "2"],
        ["rsym", "--tableau", "[[1,2]]", "--shape", ""],
        ["dual-garnir", "--tableau", "[[1,1],[2,2]]", "--boxA", "(1,1),(1,2)", "--boxB", "(2,1)", "--shape", ""],
    ],
    ids=["copolytabloid", "rsym-empty", "dual-garnir-empty"],
)
def test_shape_flag_validated_on_element_ops(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: --shape disagrees with the tableau\n")


def test_an_empty_shape_flag_matches_the_empty_tableau(capsys):
    assert run(capsys, "rsym", "--tableau", "[]", "--shape", "")[0] == 0


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "weylkit", "dims", "--shape", "2,2", "--entries", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"ssyt": 1, "rssyt": 9, "csyt": 1}


def test_a_closed_stdout_exits_141_without_a_traceback():
    argv = ["basis", "--shape", "3,2,1", "--entries", "5", "--class", "all"]
    with subprocess.Popen(
        [sys.executable, "-m", "weylkit", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        proc.stdout.close()  # the reader goes away before the first write
        err = proc.stderr.read()
    assert proc.returncode == 141
    assert "Traceback" not in err and "internal error" not in err


def test_module_entry_point_help_subprocess():
    def weylkit(*argv):
        return subprocess.run([sys.executable, "-m", "weylkit", *argv], capture_output=True, text=True)

    proc = weylkit("--help")
    assert proc.returncode == 0
    listed = re.findall(r"^    (\S+)", proc.stdout, re.MULTILINE)
    assert listed == list(VALID_REQUESTS)
    proc = weylkit("snake", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: weylkit snake")


# ---------------------------------------------------------------------------
# the parser against the eager oracle, which builds every subcommand's parser

VALID_REQUESTS = {
    "dims": ["--shape", "2,1", "--entries", "2"],
    "basis": ["--shape", "2,1", "--entries", "2"],
    "rsym": ["--tableau", "[[2,1],[1,2]]"],
    "polytabloid": ["--tableau", "[[2,1],[1,2]]", "--ring", "zmod:3"],
    "copolytabloid": ["--tableau", "[[2,1],[1,2]]", "--entries", "2"],
    "garnir": ["--tableau", "[[1,2],[3,4]]", "--boxA", "(1,1),(2,1)", "--boxB", "(1,2)"],
    "dual-garnir": ["--tableau", "[[1,1],[2,2]]", "--boxA", "(1,1),(1,2)", "--boxB", "(2,1)", "--rows", "1:2"],
    "snake": ["--tableau", "[[1,1],[2,2]]", "--row", "1", "--cols", "1:1"],
    "straighten": ["--tableau", "[[2,1],[1,2]]", "--entries", "2"],
    "schur-verify": ["--shape", "2,1", "--entries", "2"],
    "weyl-verify": ["--shape", "2,1", "--entries", "2", "--ring", "z"],
    "duality-check": ["--shape", "2,1", "--entries", "2"],
    "equivariance": ["--shape", "2,1", "--entries", "2", "--matrix", "[[0,1],[1,0]]", "--map", "e"],
}
CHOICE_FLAGS = {"basis": ["--class"], "dual-garnir": ["--variant", "--format"], "equivariance": ["--map"]}
CHOICE_FLAGS.update({name: ["--format"] for name in ("rsym", "polytabloid", "copolytabloid", "garnir", "snake")})
OUT = "<output file>"

PARSED_REQUESTS = [
    *([name, *argv] for name, argv in VALID_REQUESTS.items()),
    ["basis", *VALID_REQUESTS["basis"], "--cla", "row"],
    ["dual-garnir", *VALID_REQUESTS["dual-garnir"], "--var", "star", "--format", "text"],
    ["--out", OUT, "snake", *VALID_REQUESTS["snake"]],
]
ORACLE_REQUESTS = [
    *PARSED_REQUESTS,
    *([name, "--help"] for name in VALID_REQUESTS),
    *([name] for name in VALID_REQUESTS),
    *([name, *argv, "--frobnicate"] for name, argv in VALID_REQUESTS.items()),
    *([name, *VALID_REQUESTS[name], flag, "nope"] for name, flags in CHOICE_FLAGS.items() for flag in flags),
    *(["--out", OUT, name, *argv] for name, argv in VALID_REQUESTS.items()),
    ["--help"],
    [],
    ["frobnicate"],
]
_WALL_TIME = re.compile(r',\n  "wall_time_s": [-+0-9.eE]+')


def outcome(build, argv, capsys, tmp_path):
    """Exit code, stdout, stderr and ``--output`` file of one request.

    ``dispatch`` parses it with a new parser from ``build``, or with the
    process's own parser when ``build`` is None.  ``build`` replaces
    ``cli._parser``, the memo ``dispatch`` calls: once that memo holds a
    parser, ``dispatch`` never calls ``build_parser`` again.
    """
    target = tmp_path / "out.json"
    with pytest.MonkeyPatch.context() as patch:
        if build is not None:
            patch.setattr(cli, "_parser", build)
        code = dispatch([str(target) if arg == OUT else arg for arg in argv])
    captured = capsys.readouterr()
    written = target.read_text() if target.exists() else None
    target.unlink(missing_ok=True)
    return code, _WALL_TIME.sub("", captured.out), captured.err, written and _WALL_TIME.sub("", written)


@pytest.mark.parametrize("argv", ORACLE_REQUESTS, ids=" ".join)
def test_dispatch_matches_the_eager_parser(argv, monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    got = outcome(build_parser, argv, capsys, tmp_path)
    assert got == outcome(eager_build_parser, argv, capsys, tmp_path)


def test_outcome_parses_with_the_parser_it_is_given(monkeypatch, capsys, tmp_path):
    def broken():
        raise AssertionError("the eager oracle ran")

    monkeypatch.setenv("COLUMNS", "80")
    assert outcome(None, ["dims", *VALID_REQUESTS["dims"]], capsys, tmp_path)[0] == 0  # dispatch's parser is built
    with pytest.raises(AssertionError, match="the eager oracle ran"):
        outcome(broken, ["dims", *VALID_REQUESTS["dims"]], capsys, tmp_path)


SHARED_PARSER_STEPS = [
    *((80, argv) for argv in ORACLE_REQUESTS),
    (80, ["--out", OUT, "dims", *VALID_REQUESTS["dims"]]),
    (80, ["dims", *VALID_REQUESTS["dims"]]),
    (80, ["frobnicate"]),
    (80, ["dims", *VALID_REQUESTS["dims"]]),
    (80, ["--help"]),
    (120, ["--help"]),
    (120, ["snake", "--help"]),
    (80, ["--help"]),
    (80, ["snake", "--help"]),
]


def test_one_parser_serves_every_request_like_a_fresh_eager_one(monkeypatch, capsys, tmp_path):
    cli._parser.cache_clear()
    for columns, argv in SHARED_PARSER_STEPS:
        monkeypatch.setenv("COLUMNS", str(columns))
        got = outcome(None, argv, capsys, tmp_path)
        assert got == outcome(eager_build_parser, argv, capsys, tmp_path), (columns, argv)
    assert cli._parser.cache_info().currsize == 1


def test_dispatch_builds_one_parser_across_terminal_widths(monkeypatch):
    built = []

    def counting_build_parser():
        built.append(shutil.get_terminal_size().columns)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(20):
        assert dispatch(["dims", *VALID_REQUESTS["dims"]]) == 0
    monkeypatch.setenv("COLUMNS", "120")
    assert dispatch(["dims", *VALID_REQUESTS["dims"]]) == 0
    assert built == [80]


@pytest.mark.parametrize("argv", PARSED_REQUESTS, ids=" ".join)
def test_namespaces_match_the_eager_parser(argv):
    assert build_parser().parse_args(argv) == eager_build_parser().parse_args(argv)


def test_each_call_builds_a_new_parser():
    assert build_parser() is not build_parser()
