import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from lifelike import boolmin
from lifelike.cli import main
from lifelike.rules import format_rule_spec, gol_truth_table

from oracles import parity_split_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_domain_error_exit_1(self, capsys):
        code, out, err = run(capsys, "static", "elem:256")
        assert code == 1
        assert "error" in err
        assert out == ""

    def test_elementary_rule_with_2d_size_exit_1(self, capsys):
        code, out, err = run(capsys, "dynamic", "elem:110", "--size", "10x10", "--runs", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_import_dynamic_of_rule_without_lattice_exit_1(self, capsys, tmp_path):
        rules_file = tmp_path / "r.txt"
        rules_file.write_text("5\n")
        code, out, err = run(
            capsys, "import", str(rules_file), "--arity", "5", "--with-dynamic", "--size", "10x10"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "target",
        [
            "5",
            "[[1]]",
            "null",
            "[1, 2, 3]",
            '"x"',
            "[1, 2, 3, 4, 5, 6, 7, true]",
            "[1, 2, 3, 4, 5, 6, 7, NaN]",
            "[1, 2, 3, 4, 5, 6, 7, Infinity]",
            "[1,2,3,4,5,6,7,nan]",
        ],
    )
    def test_search_bad_target_exit_1(self, capsys, tmp_path, target):
        out_path = tmp_path / "c.jsonl"
        code, out, err = run(
            capsys, "search", "--pop", "2", "--gens", "1", "--target", target, "--out", str(out_path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --target must be a JSON array of 8 finite numbers")
        assert err.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "argv,seed",
        [
            (("dynamic", "elem:110", "--runs", "1", "--size", "8"), "-5"),
            (("simulate", "elem:110", "--size", "8", "--steps", "1", "--out", "{tmp}/frames"), "-1"),
            (("import", "{tmp}/r.txt", "--arity", "3", "--with-dynamic", "--size", "8"), "-1"),
        ],
        ids=["dynamic", "simulate", "import"],
    )
    def test_negative_seed_exit_1(self, capsys, tmp_path, argv, seed):
        (tmp_path / "r.txt").write_text("110\n")
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, out, err = run(capsys, *argv, "--seed", seed)
        assert code == 1
        assert out == ""
        assert err == f"error: --seed must be a non-negative integer, got {seed}\n"
        assert not (tmp_path / "frames").exists()

    @pytest.mark.parametrize("arity", ["-1", "10"])
    def test_import_arity_out_of_range_exit_1_before_reading(self, capsys, tmp_path, arity):
        rules_file = tmp_path / "r.txt"
        rules_file.write_text("1\n2\n")
        with mock.patch("lifelike.catalog.import_published_rules") as import_rules:
            code, out, err = run(capsys, "import", str(rules_file), "--arity", arity)
        import_rules.assert_not_called()
        assert code == 1
        assert out == ""
        assert err == f"error: --arity must lie in [0, 9], got {arity}\n"

    @pytest.mark.parametrize("gens", ["0", "-3"])
    def test_search_without_generations_exit_1(self, capsys, tmp_path, gens):
        out_path = tmp_path / "c.jsonl"
        code, out, err = run(capsys, "search", "--gens", gens, "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.exists()


class TestStatic:
    def test_rule_94(self, capsys):
        code, out, _ = run(capsys, "static", "elem:94")
        assert code == 0
        payload = json.loads(out)
        assert payload["static"] == {
            "stability": 0.0,
            "decrease": 12.5,
            "growth": 62.5,
            "chaoticity": 25.0,
        }


class TestAnalyze:
    def test_emit_expr(self, capsys):
        code, out, _ = run(capsys, "analyze", "elem:94", "--emit-expr", "--cover-mode", "exact")
        assert code == 0
        payload = json.loads(out)
        assert payload["expression"] == "(!p & q) | (p ^ r)"
        assert payload["leaves"] == 4
        assert payload["cover_mode"] == "exact"

    def test_emit_mtable(self, capsys):
        code, out, _ = run(capsys, "analyze", "elem:94", "--emit-mtable")
        payload = json.loads(out)
        assert payload["mtable"] == [1, 4, 4, 4, 4, 2, 4, 2]

    def test_exact_mode_on_parity_split_table(self, capsys, tmp_path):
        path = tmp_path / "split.txt"
        path.write_text("".join(str(b) for b in parity_split_table(0).outputs))
        code, out, _ = run(capsys, "analyze", f"table:{path}", "--cover-mode", "exact")
        assert code == 0
        assert json.loads(out)["cover_mode"] == "exact"

    def test_moore_rule_minimized_once(self, capsys):
        spec = format_rule_spec(gol_truth_table())
        with mock.patch.object(boolmin, "minimal_form", wraps=boolmin.minimal_form) as spy:
            code, out, _ = run(capsys, "analyze", spec, "--emit-mtable")
        assert code == 0
        assert len(json.loads(out)["mtable"]) == 512
        assert spy.call_count == 1


class TestDynamic:
    def test_deterministic_stdout(self, capsys):
        args = ("dynamic", "elem:110", "--runs", "2", "--size", "40", "--steps", "10", "--seed", "5")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["params"]["seed"] == 5
        assert sum(payload["dynamic"].values()) == pytest.approx(100.0)


class TestDistance:
    def test_same_rule_zero_distance(self, capsys):
        code, out, _ = run(
            capsys,
            "distance", "elem:110", "elem:110",
            "--runs", "2", "--size", "32", "--steps", "8",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["distance"] == 0.0


class TestSimulate:
    def test_writes_images(self, capsys, tmp_path):
        out_dir = tmp_path / "frames"
        code, out, _ = run(
            capsys,
            "simulate", "elem:110",
            "--size", "32", "--steps", "8", "--seed", "0",
            "--out", str(out_dir),
        )
        assert code == 0
        payload = json.loads(out)
        assert "spacetime.ppm" in payload["files"]
        assert (out_dir / "spacetime.ppm").read_bytes().startswith(b"P6\n")

    @pytest.mark.parametrize(
        "rule,size,density",
        [
            ("elem:110", "8", "1.5"),
            ("elem:110", "8", "-1"),
            ("elem:110", "0", "0.5"),
            (format_rule_spec(gol_truth_table()), "0x0", "0.5"),
        ],
        ids=["density-above-1", "density-negative", "size-0", "size-0x0"],
    )
    def test_bad_density_or_size_exit_1(self, capsys, tmp_path, rule, size, density):
        out_dir = tmp_path / "frames"
        code, out, err = run(
            capsys, "simulate", rule,
            "--size", size, "--steps", "2", "--density", density, "--out", str(out_dir),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_2d_pattern_seed(self, capsys, tmp_path):
        pattern = tmp_path / "blinker.txt"
        pattern.write_text("00000\n01110\n00000\n")
        out_dir = tmp_path / "frames"
        spec = "table:" + str(_gol_table_file(tmp_path))
        code, out, _ = run(
            capsys,
            "simulate", spec,
            "--steps", "2", "--seed-pattern", str(pattern),
            "--out", str(out_dir),
        )
        assert code == 0
        payload = json.loads(out)
        assert "mfield-0001.ppm" in payload["files"]


class TestValidateH:
    def test_passes(self, capsys):
        code, out, err = run(capsys, "validate-h")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert "[pass]" in err


class TestSearch:
    def test_negative_keep_exit_1(self, capsys, tmp_path):
        out_path = tmp_path / "catalog.jsonl"
        code, out, err = run(
            capsys, "search", "--pop", "6", "--gens", "2", "--runs", "1", "--size", "12x12",
            "--steps", "4", "--seed", "3", "--keep", "-1", "--out", str(out_path),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**63)])
    def test_seed_out_of_range_exit_1(self, capsys, tmp_path, seed):
        out_path = tmp_path / "catalog.jsonl"
        code, out, err = run(
            capsys, "search", "--pop", "2", "--gens", "1", "--seed", seed, "--out", str(out_path)
        )
        assert code == 1
        assert out == ""
        assert err == "error: seed must lie in [0, 2**63)\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("name", ["missing/catalog.jsonl", "."])
    def test_unwritable_out_fails_before_search(self, capsys, tmp_path, name):
        with mock.patch("lifelike.search.run_ga") as run_ga:
            code, out, err = run(capsys, "search", "--out", str(tmp_path / name))
        run_ga.assert_not_called()
        assert code == 1
        assert out == ""
        assert err.startswith("error: catalog ") and err.count("\n") == 1

    def test_failed_search_keeps_existing_catalog(self, capsys, tmp_path):
        out_path = tmp_path / "catalog.jsonl"
        out_path.write_text("kept\n")
        code, _, _ = run(capsys, "search", "--seed", "-1", "--out", str(out_path))
        assert code == 1
        assert out_path.read_text() == "kept\n"

    def test_small_search_writes_catalog(self, capsys, tmp_path):
        out_path = tmp_path / "catalog.jsonl"
        args = (
            "search", "--pop", "4", "--gens", "2", "--runs", "2",
            "--size", "24x24", "--steps", "10", "--seed", "3",
            "--out", str(out_path),
        )
        code, out, _ = run(capsys, *args)
        assert code == 0
        payload = json.loads(out)
        assert payload["records"] == len(out_path.read_text().splitlines())


class TestImport:
    def test_import_to_stdout(self, capsys, tmp_path):
        rules_file = tmp_path / "rules.txt"
        rules_file.write_text("94\n110\n")
        code, out, _ = run(capsys, "import", str(rules_file), "--arity", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["rule"] == "94"


def test_cli_runs_without_networkx():
    """networkx is a test oracle only: analyze and dynamic on the Game of
    Life, run in a fresh interpreter, never import it."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = """
import contextlib, io, sys
from lifelike.cli import main
from lifelike.rules import format_rule_spec, gol_truth_table
spec = format_rule_spec(gol_truth_table())
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["analyze", spec]) == 0
    assert main(["dynamic", spec, "--runs", "2", "--size", "12x12", "--steps", "5"]) == 0
assert "networkx" not in sys.modules, "networkx was imported"
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def _gol_table_file(tmp_path):
    from lifelike.rules import gol_truth_table

    path = tmp_path / "gol.txt"
    path.write_text("".join(str(b) for b in gol_truth_table().outputs))
    return path
