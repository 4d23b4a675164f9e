"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs `run.py --trace 0` once per seed and workload, one run at a time, and
reports per metric the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median, next to the bound in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload in BENCHMARK.json")
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    summary = {"run_seconds": benchmark["run_seconds"], "workloads": {}}
    ok = True
    for name in workloads:
        values: dict[str, list[float]] = {}
        environment = None
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(benchmark["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True,
            )
            if proc.stderr:
                print(proc.stderr, end="", file=sys.stderr)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            environment = json.loads(lines[-2])["environment"]
            ok &= proc.returncode == 0 and result["correct"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        rows = {}
        for metric, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            rows[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                            "bound": bounds[metric], "values": series}
            print(f"{name:20s} {metric:18s} median {median:12.4f}  "
                  f"spread {spread:6.3f}  bound {bounds[metric]}", flush=True)
        summary["workloads"][name] = rows
        summary["environment"] = environment
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
