"""The benchmark's own test: the smoke mode runs every workload, the traced
runs and every correctness check at tiny sizes.

    python3 -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_runs_every_workload_correctly():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    by_workload = {line["workload"]: line for line in lines[:-1]}
    assert set(by_workload) == {"search_paper", "dynamic_gol", "analyze_auto",
                                "simulate_replicator"}
    for line in by_workload.values():
        assert line["end_to_end"]["work_items_per_s"] > 0
        assert line["per_layer"]["cli.main.self_s"] > 0
    assert by_workload["search_paper"]["per_layer"]["search.evaluate.calls"] > 0
    assert by_workload["simulate_replicator"]["per_layer"]["simulator.bytes_rendered"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "dynamic_gol",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
