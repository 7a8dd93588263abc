import json
import random
import subprocess
import sys

import pytest

from weylkit.cli import dispatch, parse_boxes, parse_shape, render_element
from weylkit.coeffs import QQ, ZZ, LinComb, integers_mod
from weylkit.powers import (
    ColumnTabloidElement,
    RowTabloidElement,
    SymLowerElement,
    TensorElement,
    element_from_json,
)
from weylkit.tableaux import ROW_SEMISTANDARD, Tableau, enumerate_tableaux

T = Tableau


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

    def test_duality_check_passes(self, capsys):
        code, out, _ = run(capsys, "duality-check", "--shape", "2,2", "--entries", "2")
        assert code == 0
        assert json.loads(out)["ok"] is True

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

    def test_bool_tableau_entry(self, capsys):
        code, out, _ = run(capsys, "rsym", "--tableau", "[[true,2]]")
        assert (code, out) == (2, "")

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


def test_output_kept_when_the_handler_raises(tmp_path, monkeypatch):
    import weylkit.cli as cli

    def broken(*args):
        print("partial")
        raise RuntimeError("library bug")

    monkeypatch.setattr(cli, "count_tableaux", broken)
    target = tmp_path / "dims.json"
    target.write_text("previous result\n")
    with pytest.raises(RuntimeError, match="library bug"):
        dispatch(["--output", str(target), "dims", "--shape", "2,1", "--entries", "2"])
    assert target.read_text() == "previous result\n"
    assert list(tmp_path.iterdir()) == [target]


def test_output_replaced_on_failed_check(tmp_path, monkeypatch):
    import weylkit.cli as cli

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


def test_shape_flag_validated_on_element_ops(capsys):
    code = dispatch(
        ["copolytabloid", "--shape", "3,1", "--tableau", "[[2,1],[1,2]]", "--entries", "2"]
    )
    assert code == 2
    assert "disagrees" in capsys.readouterr().err


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "weylkit", "dims", "--shape", "2,2", "--entries", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"ssyt": 1, "rssyt": 9, "csyt": 1}
