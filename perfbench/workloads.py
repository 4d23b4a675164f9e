"""The four benchmark workloads: argv generation, work units and output checks.

Every command is a `ca` argv list. Command `index` of a workload run with
`seed` draws its inputs from its own `random.Random` stream, so a command's
inputs do not depend on how many commands a run manages to execute. The
program under test only ever sees the generated argv.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Published behavior measures of the Game of Life's dynamic vector.
GOL_DYNAMIC = {"stability": 0.0, "decrease": 75.23, "growth": 11.37, "chaoticity": 13.38}
GOL_TOLERANCE = 3.0

#: Published self-replicating Moore-neighborhood rule (lsb bit order).
SELF_REPLICATOR = (
    "moore2d:"
    "168956220003150428540506549680417619769424995409487733442556"
    "339612333081717128579374366701058219674682166161189003344417"
    "08509286446343520818184926824448"
)

ANALYZE_DENSITIES = (0.1, 0.3, 0.5, 0.7, 0.9)


def life_rule_number() -> int:
    """B3/S23 as a 512-bit rule number: bit i is the output for neighborhood
    index i, whose row-major cells are most significant first (center = cell 4)."""
    number = 0
    for idx in range(512):
        cells = [(idx >> (8 - j)) & 1 for j in range(9)]
        live = sum(cells) - cells[4]
        if live == 3 or (cells[4] and live == 2):
            number |= 1 << idx
    return number


GOL = f"moore2d:{life_rule_number()}"


def _stream(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


@dataclass(frozen=True)
class Workload:
    name: str
    #: argv(seed, index, size) -> the index-th command of a run.
    argv: Callable[[int, int, dict], list[str]]
    #: Work units one command completes (individuals, evolutions, calls, frames).
    items: Callable[[dict], int]
    #: check(argv, stdout, workdir, size) -> problems; empty when correct.
    check: Callable[[list[str], str, Path, dict], list[str]]
    #: Commands of a timed run share one interpreter (True) or each get a fresh one.
    batch: bool
    sizes: dict
    #: A batch run only stops after a whole cycle of this many commands.
    cycle: int = 1
    #: check_run(stdout payloads of the run's commands) -> problems.
    check_run: Callable[[list[dict]], list[str]] | None = None


# --- search_paper -----------------------------------------------------------

def _search_argv(seed: int, index: int, size: dict) -> list[str]:
    ga_seed = _stream("search_paper", seed, index).randrange(2**31)
    return [
        "search", "--pop", str(size["pop"]), "--gens", str(size["gens"]),
        "--runs", str(size["runs"]), "--size", size["lattice"],
        "--steps", str(size["steps"]), "--seed", str(ga_seed),
        "--out", "catalog.jsonl",
    ]


def _check_search(argv: list[str], stdout: str, workdir: Path, size: dict) -> list[str]:
    payload = json.loads(stdout)
    lines = (workdir / "catalog.jsonl").read_text().splitlines()
    if not lines:
        return ["empty catalog"]
    records = [json.loads(line) for line in lines]
    problems = []
    if payload["records"] != len(records):
        problems.append(f"stdout says {payload['records']} records, catalog has {len(records)}")
    fitness = [r["fitness"] for r in records]
    if fitness != sorted(fitness):
        problems.append("catalog not sorted by fitness")
    if payload["best_fitness"] != fitness[0]:
        problems.append("best_fitness differs from the first catalog line")
    if any(r["me"][0] != 0.0 or r["md"] is None or r["md"][0] != 0.0 for r in records):
        problems.append("catalog holds a rule with nonzero stability")
    return problems


# --- dynamic_gol ------------------------------------------------------------

def _dynamic_argv(seed: int, index: int, size: dict) -> list[str]:
    run_seed = _stream("dynamic_gol", seed, index).randrange(2**31)
    return [
        "dynamic", GOL, "--runs", str(size["runs"]), "--size", size["lattice"],
        "--steps", str(size["steps"]), "--seed", str(run_seed),
    ]


def _check_dynamic(argv: list[str], stdout: str, workdir: Path, size: dict) -> list[str]:
    dynamic = json.loads(stdout)["dynamic"]
    problems = []
    if dynamic["stability"] != 0.0:
        problems.append(f"Game of Life shows stability {dynamic['stability']}")
    if abs(sum(dynamic.values()) - 100.0) > 1e-6:
        problems.append(f"dynamic components sum to {sum(dynamic.values())}")
    return problems


def _check_dynamic_run(payloads: list[dict]) -> list[str]:
    """The run's mean dynamic vector against the published one.

    Checked over the run, not per command: a single 300-run estimate has a
    standard deviation of about 0.6 on `decrease`, whose long-run mean in
    this implementation is about 73.6, so it leaves the 3.0 band now and then.
    """
    mean = {
        key: sum(p["dynamic"][key] for p in payloads) / len(payloads) for key in GOL_DYNAMIC
    }
    return [
        f"mean dynamic {key} {mean[key]:.2f} over {len(payloads)} commands "
        f"is more than {GOL_TOLERANCE} from {ref}"
        for key, ref in GOL_DYNAMIC.items()
        if abs(mean[key] - ref) > GOL_TOLERANCE
    ]


# --- analyze_auto -----------------------------------------------------------

def _analyze_argv(seed: int, index: int, size: dict) -> list[str]:
    rng = _stream("analyze_auto", seed, index)
    density = ANALYZE_DENSITIES[index % len(ANALYZE_DENSITIES)]
    number = 0
    for bit in range(512):
        if rng.random() < density:
            number |= 1 << bit
    return ["analyze", f"moore2d:{number}", "--emit-expr"]


def _check_analyze(argv: list[str], stdout: str, workdir: Path, size: dict) -> list[str]:
    payload = json.loads(stdout)
    problems = []
    if payload["rule"] != argv[1]:
        problems.append("analyze echoed another rule")
    if payload["cover_mode"] not in ("exact", "greedy"):
        problems.append(f"cover_mode {payload['cover_mode']!r}")
    total = sum(payload["static"].values())
    if abs(total - 100.0) > 1e-6:
        problems.append(f"static components sum to {total}")
    if not payload.get("expression"):
        problems.append("no expression emitted")
    return problems


# --- simulate_replicator ----------------------------------------------------

def _simulate_argv(seed: int, index: int, size: dict) -> list[str]:
    sim_seed = _stream("simulate_replicator", seed, index).randrange(2**31)
    return [
        "simulate", SELF_REPLICATOR, "--size", size["lattice"], "--density", "0.1",
        "--steps", str(size["steps"]), "--seed", str(sim_seed), "--out", "frames",
    ]


def _ppm_shape(path: Path) -> tuple[int, int] | None:
    """(cols, rows) of a well-formed binary P6 file with maxval 255, else None."""
    data = path.read_bytes()
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6" or parts[2] != b"255":
        return None
    dims = parts[1].split(b" ")
    if len(dims) != 2 or not all(d.isdigit() for d in dims):
        return None
    cols, rows = int(dims[0]), int(dims[1])
    return (cols, rows) if len(parts[3]) == cols * rows * 3 else None


def _check_simulate(argv: list[str], stdout: str, workdir: Path, size: dict) -> list[str]:
    steps = size["steps"]
    rows, cols = (int(v) for v in size["lattice"].split("x"))
    files = sorted(p.name for p in (workdir / "frames").iterdir())
    expected = sorted(
        ["spacetime.ppm"]
        + [f"frame-{t:04d}.ppm" for t in range(steps + 1)]
        + [f"mfield-{t:04d}.ppm" for t in range(1, steps + 1)]
    )
    if files != expected or sorted(json.loads(stdout)["files"]) != expected:
        return [f"expected {len(expected)} image files, found {len(files)}"]
    problems = []
    for name in files:
        shape = _ppm_shape(workdir / "frames" / name)
        want = (cols, steps + 1) if name == "spacetime.ppm" else (cols, rows)
        if shape != want:
            problems.append(f"{name}: bad P6 file (shape {shape}, expected {want})")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search_paper", _search_argv, lambda s: s["pop"] * s["gens"], _check_search,
            batch=False,
            sizes={
                "full": {"pop": 20, "gens": 2, "runs": 10, "lattice": "100x100", "steps": 100,
                         "traced": 1},
                "smoke": {"pop": 4, "gens": 2, "runs": 2, "lattice": "24x24", "steps": 10,
                          "traced": 1},
            },
        ),
        Workload(
            "dynamic_gol", _dynamic_argv, lambda s: s["runs"], _check_dynamic,
            batch=False,
            sizes={
                "full": {"runs": 300, "lattice": "100x100", "steps": 100, "traced": 2},
                "smoke": {"runs": 30, "lattice": "100x100", "steps": 100, "traced": 1},
            },
            check_run=_check_dynamic_run,
        ),
        Workload(
            "analyze_auto", _analyze_argv, lambda s: 1, _check_analyze,
            batch=True,
            sizes={
                # min_commands: at least ten latencies lie beyond p90.
                "full": {"min_commands": 100, "traced": 40},
                "smoke": {"min_commands": 5, "traced": 5},
            },
            cycle=len(ANALYZE_DENSITIES),
        ),
        Workload(
            "simulate_replicator", _simulate_argv, lambda s: s["steps"], _check_simulate,
            batch=False,
            sizes={
                "full": {"lattice": "100x100", "steps": 300, "traced": 1},
                "smoke": {"lattice": "100x100", "steps": 5, "traced": 1},
            },
        ),
    )
}
