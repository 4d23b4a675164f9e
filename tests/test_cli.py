import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

from lifelike import boolmin, measures, simulator
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "elem:110", "--size", "10x10", "--out", "{tmp}/frames"],
            ["dynamic", "elem:110", "--size", "10x10", "--runs", "2"],
            ["distance", "elem:110", "elem:30", "--size", "10x10", "--runs", "2"],
            ["import", "{tmp}/rules.txt", "--arity", "3", "--with-dynamic", "--size", "10x10"],
            ["simulate", "moore2d:1", "--size", "10", "--out", "{tmp}/frames"],
            ["search", "--size", "30", "--out", "{tmp}/catalog.jsonl"],
        ],
        ids=["simulate", "dynamic", "distance", "import", "simulate-moore", "search"],
    )
    def test_elementary_rule_with_2d_size_exit_1(self, capsys, tmp_path, argv):
        # Every command names a lattice of the wrong rank with one message.
        (tmp_path / "rules.txt").write_text("110\n")
        code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert code == 1
        assert out == ""
        assert err == "error: elementary rules need 1D dims (N), Moore rules 2D dims (RxC)\n"

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

    @pytest.mark.parametrize(
        "spec,expression,leaves",
        [("elem:105", "!(p ^ q ^ r)", 3), ("elem:195", "!(p ^ q)", 2)],
    )
    def test_negated_parity_prints_one_pair_of_parentheses(self, capsys, spec, expression, leaves):
        code, out, _ = run(capsys, "analyze", spec, "--emit-expr")
        assert code == 0
        payload = json.loads(out)
        assert (payload["expression"], payload["leaves"]) == (expression, leaves)

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

    def test_params_as_dynamic_reports_them(self, capsys):
        sampling = ("--runs", "2", "--size", "32", "--steps", "8", "--seed", "4")
        _, out, _ = run(capsys, "distance", "elem:110", "elem:30", *sampling)
        _, dynamic_out, _ = run(capsys, "dynamic", "elem:110", *sampling)
        params = json.loads(out)["params"]
        assert params == json.loads(dynamic_out)["params"]
        assert params["size"] == 32


# sha256 of stdout and of each written file, in stdout's `files` order,
# recorded from the implementation that kept the whole history before
# writing; streaming the frames must not change a byte.
GOLDEN_SIMULATE = {
    "elem-110": (
        ["elem:110", "--size", "32", "--steps", "8", "--seed", "0"],
        "edce28ce18399c04e061261da2b96d4eb7b1b2b82527a39168621d6e5b0883b0",
        [("spacetime.ppm", "736feeb48604b44b80b3ff1f5923790e9a4289d3f46bc307fc2c5df1f8d355f4")],
    ),
    "gol-24x24": (
        [format_rule_spec(gol_truth_table()), "--size", "24x24", "--steps", "10", "--seed", "3"],
        "35ab36a0076c6f0362740f3b9680ec2acf3bc631bdf6372614d045f697612cd3",
        [
            ("spacetime.ppm", "8a900c4ba1a76e4c5802f5a0bd543142af51e45081e3418de12956fa36ac996a"),
            ("frame-0000.ppm", "737efb4a41610500f87324a5cc80119619d49cd7e180f8de50e537f9c1d01919"),
            ("frame-0001.ppm", "85be028bfcda79a5df08adcfa07cd07bd02a1f28ebb149ace9c170e21b1f2a34"),
            ("frame-0002.ppm", "5770aea6dba91aaadf351aac303bf89789477e9ff27cbc9dff5480143b83c091"),
            ("frame-0003.ppm", "7fa04393359230a0a52ffa5384e4f42faca8219f4a1a5482f56fa2f8a8d8caa0"),
            ("frame-0004.ppm", "e8f993f715856d284555bb72a6a096da4d9767b81142d3aca2517e74b054facb"),
            ("frame-0005.ppm", "106fc0555988326510373de0e229d53d6dc03606100db405c64f825321113641"),
            ("frame-0006.ppm", "e3be6db24a1583b9b6b8b6e2452e25ae3cf85c3681eb7e8da46d9431f29de9f7"),
            ("frame-0007.ppm", "27a07dd48002be785259367c50b0e5897e47a1e73ceaf3985ef1226d7cb8998c"),
            ("frame-0008.ppm", "38ea69812ab950ab3bff3416d8ccf97335bd2f798a967cf6d7d524258c883147"),
            ("frame-0009.ppm", "ac0971cb5dcd73e518829994c0dd320efb5a25ff3da82b02b3551a11774dc895"),
            ("frame-0010.ppm", "5c1ff199c85ac07838545815fed699dc288bcf07c61f4d391a1098716ad8b6c0"),
            ("mfield-0001.ppm", "0160a80fa158b54bda0a6a92f71820714bb34439ea2281dba521398b026c5858"),
            ("mfield-0002.ppm", "20bd8a4811f613cc006014d8f7e6629e7ed536e3f630a1d0c575163cf623da70"),
            ("mfield-0003.ppm", "04d533052ad3486e1c1c968b4e04111dcb4bca3aeeba88f8817126f312ca6876"),
            ("mfield-0004.ppm", "03af6f2bb0f5fbf5030cf4bc20516925d80244da1ca1c47df685c3250b2f8bcc"),
            ("mfield-0005.ppm", "0af4e3d3e75d4b931619260fff73a7688c40bd97c31f74dfb97f2638a6801fdc"),
            ("mfield-0006.ppm", "48967e1d12fb27dd6ca3ca82d0e09d689d3af1f0f7a5031840a43deb8eaff949"),
            ("mfield-0007.ppm", "73ce913419fc5854f0e1d26d647cd798b1ed79657bf01f9e70545e1723787c31"),
            ("mfield-0008.ppm", "7b4c7cc4495b81fef3e76bbece9ac4c8a7b931f08eedec4cf3920c29dc2dc946"),
            ("mfield-0009.ppm", "f0ab7b0553a526a803134bc92bcbbf35bb0589f112673ba831b2e4fbc376c1b5"),
            ("mfield-0010.ppm", "f60d940bc9602573452477421746f359d108a07c684b3f94982d82b1d049b8d8"),
        ],
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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

    @pytest.mark.parametrize("case", GOLDEN_SIMULATE)
    def test_golden_outputs(self, capsys, tmp_path, monkeypatch, case):
        argv, stdout_digest, files = GOLDEN_SIMULATE[case]
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "simulate", *argv, "--out", "sim")
        assert (code, err) == (0, "")
        assert json.loads(out)["files"] == [name for name, _ in files]
        assert sorted(p.name for p in (tmp_path / "sim").iterdir()) == sorted(json.loads(out)["files"])
        assert _sha256(out.encode()) == stdout_digest
        for name, digest in files:
            assert _sha256((tmp_path / "sim" / name).read_bytes()) == digest, name

    def test_spacetime_shapes(self, capsys, tmp_path):
        gol = format_rule_spec(gol_truth_table())
        for rule, size, header in (("elem:90", "20", b"P6\n20 8\n"), (gol, "6x7", b"P6\n7 8\n")):
            out_dir = tmp_path / rule[:4]
            code, _, _ = run(
                capsys, "simulate", rule, "--size", size, "--steps", "7", "--out", str(out_dir)
            )
            assert code == 0
            assert (out_dir / "spacetime.ppm").read_bytes().startswith(header)

    @pytest.mark.parametrize("case", ["negative-steps", "two-row-elementary-pattern"])
    def test_rejected_before_out_is_created(self, capsys, tmp_path, case):
        out_dir = tmp_path / "frames"
        if case == "negative-steps":
            argv = [format_rule_spec(gol_truth_table()), "--size", "8x8", "--steps", "-1"]
        else:
            pattern = tmp_path / "two-rows.txt"
            pattern.write_text("0110\n1001\n")
            argv = ["elem:110", "--seed-pattern", str(pattern)]
        code, out, err = run(capsys, "simulate", *argv, "--out", str(out_dir))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "exc,line",
        [
            (MemoryError(), "error: out of memory\n"),
            (MemoryError("Unable to allocate 8.00 TiB"), "error: Unable to allocate 8.00 TiB\n"),
        ],
        ids=["bare", "numpy-message"],
    )
    def test_memory_error_exit_1(self, capsys, tmp_path, monkeypatch, exc, line):
        def random_lattice(*args):
            raise exc

        monkeypatch.setattr(simulator, "random_lattice", random_lattice)
        out_dir = tmp_path / "frames"
        code, out, err = run(capsys, "simulate", "elem:110", "--size", "8", "--out", str(out_dir))
        assert (code, out, err) == (1, "", line)
        assert not out_dir.exists()


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

    def test_1d_size_exit_1_before_a_pool(self, capsys, tmp_path):
        out_path = tmp_path / "catalog.jsonl"
        with _cpus(0, 1), _no_fork() as fork:
            code, out, err = run(
                capsys, "search", "--pop", "2", "--gens", "1", "--size", "30", "--out", str(out_path)
            )
        fork.assert_not_called()
        assert (code, out) == (1, "")
        assert err == "error: elementary rules need 1D dims (N), Moore rules 2D dims (RxC)\n"
        assert not out_path.exists()

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
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert payload["records"] == len(records)
        assert {r["metadata"]["cover_mode"] for r in records} == {"greedy"}

    def test_cover_mode_is_a_usage_error(self, capsys, tmp_path):
        # Search always minimizes with the greedy cover.
        with pytest.raises(SystemExit) as exc:
            main(["search", "--cover-mode", "greedy", "--out", str(tmp_path / "c.jsonl")])
        assert exc.value.code == 2


class TestImport:
    def test_import_to_stdout(self, capsys, tmp_path):
        rules_file = tmp_path / "rules.txt"
        rules_file.write_text("94\n110\n")
        code, out, _ = run(capsys, "import", str(rules_file), "--arity", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["rule"] == "94"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--arity", "4"), "rules of arity 4 have no lattice to evolve"),
            (("--arity", "3", "--size", "5x5"),
             "elementary rules need 1D dims (N), Moore rules 2D dims (RxC)"),
        ],
        ids=["no_lattice", "2d_dims"],
    )
    def test_with_dynamic_checks_the_lattice_before_reading(self, capsys, tmp_path, argv, message):
        # A malformed line that was read would print a skip diagnostic.
        rules_file = tmp_path / "rules.txt"
        rules_file.write_text("x\n1\n2\n")
        with _cpus(0, 1), _no_fork() as fork:
            result = run(capsys, "import", str(rules_file), *argv, "--with-dynamic")
        assert result == (1, "", f"error: {message}\n")
        fork.assert_not_called()


def _fresh_interpreter(code: str, **popen) -> subprocess.Popen:
    """Start `code` in a new Python process that imports lifelike from src/,
    its stdout block-buffered on a pipe."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, **popen
    )


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    with _fresh_interpreter(code) as proc:
        out, err = proc.communicate(timeout=120)
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def test_cli_runs_without_networkx():
    """networkx is a test oracle only: analyze and dynamic on the Game of
    Life, run in a fresh interpreter, never import it."""
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
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_no_process_pool():
    """Importing the CLI loads no process-pool package."""
    code = """
import sys
import lifelike.cli
loaded = [m for m in ("multiprocessing", "concurrent") if m in sys.modules]
assert not loaded, f"imported {loaded}"
"""
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr


SEARCH = (
    "search", "--pop", "6", "--gens", "3", "--runs", "2",
    "--size", "24x24", "--steps", "10", "--seed", "3",
)


@pytest.mark.parametrize("before", ["", "searching\n"])
def test_search_on_a_pipe_prints_its_line_once(tmp_path, before):
    """Two workers run whatever the machine; they leave through os._exit,
    so none flushes its copy of text the caller left in the stdout buffer."""
    code = f"""
import os, sys
os.sched_getaffinity = lambda pid: {{0, 1}}
from lifelike.cli import main
sys.stdout.write({before!r})
sys.exit(main({list(SEARCH) + ["--out", str(tmp_path / "c.jsonl")]!r}))
"""
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith(before)
    lines = proc.stdout[len(before):].splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["records"] == len((tmp_path / "c.jsonl").read_text().splitlines())


def _cpus(*ids):
    """Pretend this process may run on the CPUs `ids`."""
    return mock.patch.object(os, "sched_getaffinity", return_value=set(ids), create=True)


def _running(pid: int) -> bool:
    """Whether process `pid` exists and has not ended (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _left_running(pids: list[int]) -> list[int]:
    """The processes `pids` still running after up to 30 s, killed so
    that a failing test leaves nothing behind."""
    deadline = time.monotonic() + 30
    while (alive := [pid for pid in pids if _running(pid)]) and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in alive:
        os.kill(pid, signal.SIGKILL)
    return alive


def _die_in_worker():
    """A side effect that ends the process it runs in without a word, as
    the out-of-memory killer would, and fails in the test process."""
    parent = os.getpid()

    def die(*args):
        assert os.getpid() != parent, "ran in the parent"
        os.kill(os.getpid(), signal.SIGKILL)

    return die


def _no_fork():
    """Fail if a worker would be forked."""
    return mock.patch.object(os, "fork", side_effect=AssertionError("a worker was forked"))


def _count_forks():
    """Count the processes forked, forking them as usual."""
    return mock.patch.object(os, "fork", wraps=os.fork)


def _assert_no_child():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _pool_at_two_stacks():
    """Hand every stack of a dynamic measure to the map as its own job."""
    return mock.patch.object(measures, "_POOL_CELL_STEPS", 0)


KILLED = "error: a worker process was killed before it finished\n"
GOL = format_rule_spec(gol_truth_table())
# About 6e7 cell-steps, above the measure's threshold: one job per stack.
DYNAMIC_POOLED = ("dynamic", GOL, "--runs", "120", "--seed", "3")
# Two stacks of eight 100x100 lattices, run as two jobs under _pool_at_two_stacks.
DYNAMIC_TWO_STACKS = ("dynamic", GOL, "--runs", "16", "--steps", "5", "--seed", "3")

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="this platform cannot fork")


@needs_fork
def test_pooled_dynamic_loads_no_process_pool():
    """A pooled dynamic measure forks its workers without a process-pool
    package."""
    code = f"""
import contextlib, io, os, sys
os.sched_getaffinity = lambda pid: {{0, 1}}
fork = os.fork
forks = 0

def counting_fork():
    global forks
    forks += 1
    return fork()

os.fork = counting_fork
from lifelike.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({list(DYNAMIC_POOLED)!r}) == 0
assert forks == 2, forks
loaded = [m for m in ("multiprocessing", "concurrent") if m in sys.modules]
assert not loaded, f"imported {{loaded}}"
"""
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr


class TestPool:
    @needs_fork
    def test_search_forks_and_leaves_no_child(self, capsys, tmp_path):
        with _cpus(0, 1), _count_forks() as fork:
            code, out, err = run(capsys, *SEARCH, "--out", str(tmp_path / "c.jsonl"))
        assert (code, err) == (0, "")
        assert fork.call_count == 2
        _assert_no_child()

    @needs_fork
    def test_worker_error_exit_1(self, capsys, tmp_path):
        def fail(*args):
            raise measures.MeasureError(f"raised in process {os.getpid()}")

        out_path = tmp_path / "c.jsonl"
        with _cpus(0, 1), mock.patch("lifelike.search.dynamic_measure", side_effect=fail):
            code, out, err = run(capsys, *SEARCH, "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: raised in process ") and err.count("\n") == 1
        assert int(err.split()[-1]) != os.getpid()
        _assert_no_child()
        assert not out_path.exists()

    @needs_fork
    def test_killed_worker_exit_1(self, capsys, tmp_path):
        out_path = tmp_path / "c.jsonl"
        with _cpus(0, 1), mock.patch("lifelike.search.dynamic_measure", side_effect=_die_in_worker()):
            code, out, err = run(capsys, *SEARCH, "--out", str(out_path))
        assert (code, out, err) == (1, "", KILLED)
        _assert_no_child()
        assert not out_path.exists()

    @needs_fork
    def test_unpicklable_worker_error_exit_1(self, capsys, tmp_path):
        def fail(*args):
            exc = measures.MeasureError("raised with a lambda attached")
            exc.hook = lambda: None
            raise exc

        out_path = tmp_path / "c.jsonl"
        with _cpus(0, 1), mock.patch("lifelike.search.dynamic_measure", side_effect=fail):
            code, out, err = run(capsys, *SEARCH, "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err.startswith(
            "error: a worker could not send back MeasureError('raised with a lambda attached'): "
        )
        assert err.count("\n") == 1
        _assert_no_child()
        assert not out_path.exists()

    @needs_fork
    def test_sigint_to_a_worker_changes_nothing(self, capsys):
        # Ctrl-C is the parent's to handle: a worker carries on.
        parent = os.getpid()
        random_lattice = measures.random_lattice

        def interrupt(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGINT)
            return random_lattice(*args)

        with _cpus(0, 1), _pool_at_two_stacks():
            with _count_forks() as fork, mock.patch(
                "lifelike.measures.random_lattice", side_effect=interrupt
            ):
                pooled = run(capsys, *DYNAMIC_TWO_STACKS)
            assert fork.call_count == 2
            with _cpus(0):
                assert run(capsys, *DYNAMIC_TWO_STACKS) == pooled
        assert (pooled[0], pooled[2]) == (0, "")
        _assert_no_child()

    @needs_fork
    def test_killed_dynamic_worker_exit_1(self, capsys):
        with _cpus(0, 1), _pool_at_two_stacks(), mock.patch(
            "lifelike.measures.random_lattice", side_effect=_die_in_worker()
        ):
            assert run(capsys, *DYNAMIC_TWO_STACKS) == (1, "", KILLED)
        _assert_no_child()

    @needs_fork
    def test_dynamic_above_threshold_forks_once_and_is_identical(self, capsys):
        with _cpus(0, 1), _count_forks() as fork:
            pooled = run(capsys, *DYNAMIC_POOLED)
        assert fork.call_count == 2
        _assert_no_child()
        assert (pooled[0], pooled[2]) == (0, "")
        with _cpus(0), _no_fork() as fork:
            assert run(capsys, *DYNAMIC_POOLED) == pooled
        fork.assert_not_called()

    def test_dynamic_at_its_defaults_starts_no_process(self, capsys):
        with _cpus(0, 1), _no_fork() as fork:
            code, out, err = run(capsys, "dynamic", GOL)
        fork.assert_not_called()
        assert (code, err) == (0, "")
        assert json.loads(out)["params"]["runs"] == 30

    @needs_fork
    def test_distance_opens_one_pool_and_is_identical(self, capsys):
        argv = ("distance", GOL, GOL, *DYNAMIC_TWO_STACKS[2:])
        with _cpus(0, 1), _pool_at_two_stacks():
            with _count_forks() as fork:
                pooled = run(capsys, *argv)
            assert fork.call_count == 2
            with _cpus(0), _no_fork():
                assert run(capsys, *argv) == pooled
        assert (pooled[0], pooled[2]) == (0, "")
        assert json.loads(pooled[1])["distance"] == 0.0
        _assert_no_child()

    @needs_fork
    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="no /proc to read")
    def test_workers_end_with_a_killed_parent(self, tmp_path):
        # As the out-of-memory killer would: `ca` itself ends without a word.
        argv = list(SEARCH) + ["--gens", "100000", "--out", str(tmp_path / "c.jsonl")]
        code = f"""
import os
os.sched_getaffinity = lambda pid: {{0, 1}}
from lifelike import search
from lifelike.cli import main
run_ga = search.run_ga
fork = os.fork
workers = []

def fork_and_record():
    pid = fork()
    workers.append(pid)
    return pid

def report_workers(cfg, progress=None, map_fn=map):
    def progress(generation, best):
        if generation == 0:
            print(*workers, flush=True)
    return run_ga(cfg, progress, map_fn)

os.fork = fork_and_record
search.run_ga = report_workers
main({argv!r})
"""
        with _fresh_interpreter(code) as proc:
            try:
                workers = [int(pid) for pid in proc.stdout.readline().split()]
            finally:
                proc.kill()
        assert len(workers) == 2 and _left_running(workers) == []

    @needs_fork
    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="no /proc to read")
    def test_workers_end_with_a_parent_killed_mid_call(self):
        # 150 jobs of 0.8 s each are queued when `ca` is killed; a worker
        # exits after the job it is running.
        argv = list(DYNAMIC_POOLED[:3]) + ["1200"]
        code = f"""
import os, time
os.sched_getaffinity = lambda pid: {{0, 1}}
from lifelike import measures
from lifelike.cli import main
parent = os.getpid()
random_lattice = measures.random_lattice
reported = False

def slow_lattice(*args):
    global reported
    if os.getpid() != parent:
        if not reported:
            print(os.getpid(), flush=True)
            reported = True
        time.sleep(0.1)
    return random_lattice(*args)

measures.random_lattice = slow_lattice
main({argv!r})
"""
        workers = set()
        with _fresh_interpreter(code) as proc:
            try:
                while len(workers) < 2 and (line := proc.stdout.readline()):
                    workers.add(int(line))
            finally:
                proc.kill()
        assert len(workers) == 2 and _left_running(list(workers)) == []

    @pytest.mark.parametrize("serial", ["one_cpu", "no_fork"])
    def test_serial_search_is_identical(self, capsys, tmp_path, monkeypatch, serial):
        def search_in(name):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            code, out, err = run(capsys, *SEARCH, "--out", "c.jsonl")
            assert (code, err) == (0, "")
            return out, (tmp_path / name / "c.jsonl").read_bytes()

        with _cpus(0, 1):
            pooled = search_in("pooled")
        if serial == "one_cpu":
            with _cpus(0), _no_fork() as fork:
                assert search_in("serial") == pooled
            fork.assert_not_called()
        else:
            with _cpus(0, 1):
                monkeypatch.delattr(os, "fork", raising=False)
                assert search_in("serial") == pooled
        _assert_no_child()

    @needs_fork
    @pytest.mark.parametrize("dynamic", [(), ("--with-dynamic",)], ids=["static", "dynamic"])
    def test_import_is_identical_and_keeps_skip_order(self, capsys, tmp_path, dynamic):
        rules_file = tmp_path / "rules.txt"
        rules_file.write_text("94\nx\n110\n256\n30\n")
        argv = (
            "import", str(rules_file), "--arity", "3", *dynamic,
            "--size", "32", "--runs", "2", "--steps", "5",
        )
        with _cpus(0, 1), _count_forks() as fork:
            pooled = run(capsys, *argv)
        assert fork.call_count == 2
        with _cpus(0), _no_fork():
            assert run(capsys, *argv) == pooled
        code, out, err = pooled
        assert code == 0
        assert [json.loads(line)["rule"] for line in out.splitlines()] == ["94", "110", "30"]
        assert [line.split(":")[1] for line in err.splitlines()] == ["2", "4"]
        _assert_no_child()

    def test_import_of_one_rule_starts_no_process(self, capsys, tmp_path):
        rules_file = tmp_path / "rules.txt"
        rules_file.write_text("x\n110\n")
        with _cpus(0, 1), _no_fork() as fork:
            code, out, err = run(capsys, "import", str(rules_file), "--arity", "3")
        fork.assert_not_called()
        assert (code, json.loads(out)["rule"]) == (0, "110")


def _gol_table_file(tmp_path):
    from lifelike.rules import gol_truth_table

    path = tmp_path / "gol.txt"
    path.write_text("".join(str(b) for b in gol_truth_table().outputs))
    return path
