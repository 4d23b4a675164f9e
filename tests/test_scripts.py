"""The scripts run end to end at tiny sizes."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_reproduce_gol_measures():
    last = run_script("reproduce_gol_measures.py", "--runs", "2", "--size", "20", "20", "--steps", "5")
    measures = json.loads(last)
    assert set(measures) == {"static", "dynamic", "self_replicator"}
    assert all(len(measures[k]) == 4 for k in ("static", "dynamic"))
    # A report, not a fidelity check: the self-replicator's greedy form has
    # a static measure 18.79 away from the published (0, 3.32, 34.96, 61.72).
    report = measures["self_replicator"]
    assert tuple(round(v, 2) for v in report["static"]) == (0.0, 13.48, 39.84, 46.68)
    assert round(report["static_distance"], 2) == 18.79
    assert len(report["dynamic"]) == 4 and report["dynamic_distance"] >= 0

