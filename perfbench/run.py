"""Benchmark of lifelike, driven through its `ca` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--workload NAME]

Run from anywhere; the program under test is the `src/lifelike` next to
this directory. Load model: a closed loop with a single caller. Every
command runs in a fresh single-threaded worker interpreter (worker.py),
except the analyze_auto calls, which share one, as a batch of in-process
calls does. With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run of
a fixed command list, whose tracing overhead is measured against
untraced replays of the same commands in fresh interpreters. The line
before it records the environment and, for a traced run, each per-layer
metric with its base and sample count. --smoke runs every workload at tiny
sizes, untraced and traced twice, and checks that exact counts repeat.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import PER_LAYER, per_layer, quantile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "lifelike"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference_digests.json"

#: Seed whose command outputs are compared with the recorded reference digests.
DEFAULT_SEED = 0
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_SAMPLES = 9
#: A run stops starting work this long after it began, well inside the 180 s limit.
DEADLINE_S = 150.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_ratio": "ratio",
    "work_items_per_s": "1/s",
    "command_ms_p50": "ms",
    "command_ms_p90": "ms",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update({var: "1" for var in THREAD_VARS})
    return env


def environment() -> dict:
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "threads": {var: "1" for var in THREAD_VARS},
    }


class Runner:
    """Starts workers for one workload and keeps the run's accounting."""

    def __init__(self, workload: str, seed: int, size: str, record: bool = False) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.size_name = size
        self.size = self.workload.sizes[size]
        self.deadline = time.perf_counter() + DEADLINE_S
        self.env = worker_env()
        self.references = []
        if seed == DEFAULT_SEED and not record and REFERENCE.exists():
            stored = json.loads(REFERENCE.read_text())
            self.references = stored.get(size, {}).get(workload, [])
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.setups: list[float] = []
        self.rss_mb: list[float] = []

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def worker(self, first: int, count: int, min_count: int = 0, budget_s: float = 1e9,
               trace_path: Path | None = None) -> tuple[list[dict], dict | None]:
        """Run up to `count` commands from index `first` in one fresh
        interpreter; returns their results and the worker's final message."""
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        job = {
            "workload": self.workload.name, "seed": self.seed, "size": self.size_name,
            "first": first, "count": count, "min_count": min_count, "budget_s": budget_s,
            "trace_path": str(trace_path) if trace_path else None, "tmp": str(OUT / "tmp"),
        }
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            stdout=subprocess.PIPE, cwd=ROOT, env=self.env, text=True,
        )
        timer = threading.Timer(max(self.time_left() + 25.0, 1.0), proc.kill)
        timer.start()
        commands, done = [], None
        try:
            for line in proc.stdout:
                try:
                    message = json.loads(line)
                except ValueError:
                    message = None
                if not isinstance(message, dict):  # the program printed outside a command
                    sys.stderr.write(line)
                    continue
                if "ready" in message:
                    self.setups.append(time.perf_counter() - start)
                elif "command" in message:
                    commands.append(message)
                elif "done" in message:
                    done = message
        finally:
            timer.cancel()
            proc.stdout.close()
            proc.wait()
        for command in commands:
            self._account(command)
        if done is not None:
            self.rss_mb.append(done["rss_mb"])
        elif count:
            self.attempted += 1
            self.failed += 1
            print(f"{self.workload.name}: worker exited with {proc.returncode} "
                  f"after {len(commands)} commands", file=sys.stderr)
        return commands, done

    def _account(self, command: dict) -> None:
        index = command["command"]
        self.digests[index] = command["digest"]
        if index < len(self.references) and command["digest"] != self.references[index]:
            command["problems"].append("output differs from the reference digest")
        self.attempted += 1
        if command["problems"]:
            self.failed += 1
            print(f"{self.workload.name} command {index}: {'; '.join(command['problems'])}",
                  file=sys.stderr)

    def check_run(self, commands: list[dict]) -> None:
        """Run-level checks over the distinct commands' stdout payloads."""
        if self.workload.check_run is None:
            return
        payloads = {c["command"]: c["payload"] for c in commands if "payload" in c}
        problems = self.workload.check_run(list(payloads.values())) if payloads else []
        if problems:
            self.failed = self.attempted
            print(f"{self.workload.name}: {'; '.join(problems)}", file=sys.stderr)

    def probe_setups(self) -> None:
        while len(self.setups) < SETUP_SAMPLES and self.time_left() > 0:
            self.worker(0, 0)

    def save_references(self) -> None:
        stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        ordered = [self.digests[i] for i in range(len(self.digests))]
        stored.setdefault(self.size_name, {})[self.workload.name] = ordered
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def timed_run(runner: Runner, seconds: float) -> dict:
    """Commands in a closed loop for `seconds`; the end-to-end metrics."""
    commands = []
    if runner.workload.batch:
        commands += runner.worker(
            0, 10**6, runner.size["min_commands"], min(seconds, runner.time_left())
        )[0]
    else:
        start = time.perf_counter()
        workers = 0
        while True:
            commands += runner.worker(workers, 1)[0]
            workers += 1
            elapsed = time.perf_counter() - start
            mean = elapsed / workers
            if elapsed + mean > seconds or mean > runner.time_left():
                break
    runner.check_run(commands)
    runner.probe_setups()
    # A run without a finished command reports zeros; it is marked incorrect.
    seconds_per = [c["seconds"] for c in commands] or [0.0]
    items = sum(c["items"] for c in commands)
    return {
        "setup_s": statistics.median(runner.setups or [0.0]),
        "peak_rss_mb": max(runner.rss_mb, default=0.0),
        "ops_ok_ratio": (runner.attempted - runner.failed) / max(runner.attempted, 1),
        "work_items_per_s": items / (sum(seconds_per) or 1.0),
        "command_ms_p50": statistics.median(seconds_per) * 1000,
        "command_ms_p90": quantile(seconds_per, 90) * 1000,
    }


def traced_run(runner: Runner) -> dict:
    """The fixed command list traced, between two untraced replays of it;
    the overhead is measured against the mean of the replays."""
    count = runner.size["traced"]
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{runner.workload.name}-{runner.size_name}-seed{runner.seed}.jsonl"
    before, _ = runner.worker(0, count, count)
    traced, done = runner.worker(0, count, count, trace_path=path)
    after, _ = runner.worker(0, count, count)
    runner.check_run(before + traced + after)
    spans = [json.loads(line) for line in path.read_text().splitlines()] if done else []
    missing = (done or {}).get("missing") or []
    return per_layer(
        spans, missing,
        sum(c["seconds"] for c in traced),
        sum(c["seconds"] for c in before + after) / 2,
    )


def result_line(runner: Runner, metrics: dict, units: dict) -> dict:
    return {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if runner.attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def smoke(names: list[str], seconds: float, record: bool) -> int:
    """Every workload at tiny sizes: timed, traced twice, all checks."""
    attempted = failed = 0
    metrics = {}
    for name in names:
        runner = Runner(name, DEFAULT_SEED, "smoke", record)
        timed = timed_run(runner, seconds)
        first = traced_run(runner)
        second = traced_run(runner)
        drifted = [
            m for m, (_, _, exact) in PER_LAYER.items()
            if exact and first[m]["value"] != second[m]["value"]
        ]
        if drifted:
            runner.failed += 1
            print(f"{name}: exact counts differ between traced runs: {drifted}", file=sys.stderr)
        if record:
            runner.save_references()
        attempted += runner.attempted
        failed += runner.failed
        for metric, value in timed.items():
            metrics[f"{name}.{metric}"] = {"value": value, "unit": END_TO_END[metric]}
        print(json.dumps({"workload": name, "end_to_end": timed,
                          "per_layer": {m: v["value"] for m, v in first.items()}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload")
    parser.add_argument("--record", action="store_true",
                        help=f"store this run's output digests as the seed-{DEFAULT_SEED} reference")
    args = parser.parse_args()
    if not (SOURCE / "cli.py").is_file():
        print(f"error: no lifelike sources at {SOURCE}", file=sys.stderr)
        return 2
    if args.record and args.seed != DEFAULT_SEED:
        parser.error(f"--record needs --seed {DEFAULT_SEED}")
    if args.smoke:
        return smoke([args.workload] if args.workload else list(WORKLOADS), 1.0, args.record)
    if args.workload is None:
        parser.error("--workload is required")

    runner = Runner(args.workload, args.seed, "full", args.record)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment()}
    if args.trace:
        layers = traced_run(runner)
        detail["per_layer"] = layers
        result = result_line(runner, {m: v["value"] for m, v in layers.items()},
                             {m: unit for m, (unit, _, _) in PER_LAYER.items()})
    else:
        result = result_line(runner, timed_run(runner, args.seconds), END_TO_END)
    if args.record:
        runner.save_references()
    detail["commands"] = len(runner.digests)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
