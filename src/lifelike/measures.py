"""Static and dynamic behavior measures, distances, and correlation.

Both measures are percentage vectors (stability, decrease, growth,
chaoticity) summing to 100, and both read a rule's `RuleProfile`. The
static measure counts behaviors over all 2^m rows of its M-coded truth
table; the dynamic measure averages behavior occurrences over evolutions
from random initial lattices, excluding the initial configuration. The
dynamic measure's evolutions are independent, so it hands them, in
stacks, to an ordered map that its caller chooses (the builtin `map` by
default, a process pool's under `ca dynamic` and `ca distance`); its
result does not depend on that map. This module keeps the sampling
protocol (the per-run streams, sampling steps and stacks) and the
statistics; `simulator.fields_at` steps the stacks.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .heval import RuleProfile
from .simulator import check_lattice, fields_at, random_lattice

_SUM_TOLERANCE = 1e-9

#: Cells evolved together in one stack by the dynamic measure: eight
#: 100x100 lattices. With the pair index a step of such a stack costs
#: about 165 us, 2 ns per cell (2 CPUs, numpy 2.4.6; 245 us with one
#: lookup per cell). Over whole serial measures of the Game of Life, median
#: ms by lattices per stack: 300 runs 381 (4: 438, 16: 372, 32: 389), 10
#: runs 11.8 (16 and 32: 10.0, when the 10 runs fit one stack). No size won
#: both, and the measure's peak memory grows with the stack. A stack is
#: also the unit of work the measure hands to a process pool.
_STACK_CELLS = 8 * 100 * 100

#: Cell-steps (the sum of k_i times the cells of a lattice) from which the
#: dynamic measure hands `map_fn` one job per stack; below it, one job holds
#: every stack, so a pool map forks nothing. Forking two workers, a first
#: call and their exit cost about 8 ms. Median `ca dynamic` wall time on
#: the Game of Life at 100x100 (about 5e5 cell-steps a run), serial against
#: one job per stack on 2 forked workers, fresh interpreters (2 CPUs, numpy
#: 2.4.6; pool wins of 12 alternating pairs): 10 runs 30 against 43 ms
#: (0/12), 30 runs 45 against 50 (4/12), 60 runs 71 against 66 (8/12), 90
#: runs 107 against 100 (10/12), 120 runs 182 against 129 (10/12), 150 runs
#: 198 against 146 (12/12), 180 runs 223 against 171 (10/12), 300 runs 345
#: against 216 (12/12). The crossover lies near 60 runs, but the pool wins
#: reliably only from 90; the threshold, at 100 runs, keeps `ca dynamic` at
#: its defaults (30 runs) free of any process.
_POOL_CELL_STEPS = 50_000_000

#: Published behavior measures of the Game of Life, used as the default
#: search target: (chaoticity, decrease, growth, stability) for the static
#: then the dynamic measure.
GOL_TARGET = (67.96, 4.68, 27.34, 0.0, 13.38, 75.23, 11.37, 0.0)


class MeasureError(ValueError):
    pass


@dataclass(frozen=True)
class BehaviorVector:
    """Behavior percentages in (stability, decrease, growth, chaoticity) order."""

    stability: float
    decrease: float
    growth: float
    chaoticity: float

    def __post_init__(self) -> None:
        for name in ("stability", "decrease", "growth", "chaoticity"):
            object.__setattr__(self, name, float(getattr(self, name)))
        values = self.as_tuple()
        if any(v < 0 for v in values):
            raise MeasureError(f"negative component in {values}")
        if abs(sum(values) - 100.0) > _SUM_TOLERANCE:
            raise MeasureError(f"components must sum to 100, got {sum(values)}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.stability, self.decrease, self.growth, self.chaoticity)

    @classmethod
    def from_counts(cls, counts: np.ndarray | list[int]) -> "BehaviorVector":
        """From per-M-code occurrence counts (length 6)."""
        counts = np.asarray(counts, dtype=np.float64)
        total = counts.sum()
        if total <= 0:
            raise MeasureError("no samples to classify")
        stability = (counts[0] + counts[5]) / total * 100
        decrease = counts[1] / total * 100
        growth = counts[4] / total * 100
        chaoticity = (counts[2] + counts[3]) / total * 100
        return cls(stability, decrease, growth, chaoticity)


@dataclass(frozen=True)
class DynamicParams:
    """Sampling protocol for the dynamic measure."""

    runs: int = 30
    dims: int | tuple[int, int] = (100, 100)
    max_steps: int = 100
    density: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise MeasureError("runs must be >= 1")
        if self.max_steps < 1:
            raise MeasureError("max_steps must be >= 1")
        if not 0.0 <= self.density <= 1.0:
            raise MeasureError("density must lie in [0, 1]")
        if self.seed < 0:  # numpy seeds are non-negative; there is no upper bound
            raise MeasureError(f"seed must be a non-negative integer, got {self.seed}")
        if not isinstance(self.dims, int) and len(self.dims) != 2:
            raise MeasureError(f"dims must be a size N or a shape (R, C), got {self.dims}")
        sizes = (self.dims,) if isinstance(self.dims, int) else self.dims
        if any(s < 3 for s in sizes):
            raise MeasureError("lattice dimensions must be >= 3")


def static_measure(profile: RuleProfile) -> BehaviorVector:
    """Behavior percentages over all rows of the M-coded truth table."""
    return BehaviorVector.from_counts(np.bincount(profile.mcodes, minlength=6))


def _run_stream(params: DynamicParams, run: int) -> tuple[np.random.Generator, int]:
    """Run `run`'s generator, positioned after its sampling step k, and k.

    Recreated where needed rather than kept: a generator costs ~3.5 kB.
    """
    rng = np.random.default_rng([params.seed, run])
    return rng, int(rng.integers(1, params.max_steps + 1))


def _evolve_stacks(
    profile: RuleProfile, params: DynamicParams, ks: np.ndarray, stacks: list[np.ndarray]
) -> np.ndarray:
    """Percentage rows of the runs in `stacks`, in the order of their
    concatenation. Each stack is an array of run indices sorted by k."""
    rows = []
    for runs in stacks:
        stack = np.stack(
            [random_lattice(params.dims, params.density, _run_stream(params, run)[0])
             for run in runs]
        )
        for codes in fields_at(stack, profile, ks[runs]):
            counts = np.bincount(codes.ravel(), minlength=6)
            rows.append(counts / counts.sum() * 100)
    return np.array(rows)


def dynamic_measure(profile: RuleProfile, params: DynamicParams, map_fn=map) -> BehaviorVector:
    """Mean per-run behavior percentages over seeded random evolutions.

    Each run i draws a sampling step k_i uniformly from [1, max_steps],
    evolves a fresh random lattice, and classifies every cell at step k_i
    (the initial lattice is never sampled). Uniform k_i gives every time
    step 1..max_steps equal expected weight across runs. Each run derives
    an independent RNG stream from (seed, run index), so results do not
    depend on evaluation order.

    Runs are evolved together: sorted by k_i (stable), in stacks of at
    most _STACK_CELLS cells, each stepped by `simulator.fields_at`, which
    yields every run's M field at its own k_i.

    The stacks go to one call of `map_fn(job, batches)`, longest first,
    which must return the results in order: one batch of every stack when
    the measure has fewer than _POOL_CELL_STEPS cell-steps, else one batch
    per stack. Percentages are stored by run index and averaged in run
    order, so the result equals evolving each run alone, whatever the map.
    The default is the builtin `map`; a caller that already runs in a pool
    worker keeps it, since pools do not nest.
    """
    check_lattice(profile.tt.arity, params.dims)
    ks = np.array([_run_stream(params, run)[1] for run in range(params.runs)])
    order = np.argsort(ks, kind="stable")
    cells = int(np.prod(params.dims))
    per_stack = max(1, _STACK_CELLS // cells)
    # A stack evolves up to its last run's k, so the last stack is the longest.
    stacks = [order[start:start + per_stack] for start in range(0, params.runs, per_stack)][::-1]
    if int(ks.sum()) * cells < _POOL_CELL_STEPS:
        batches = [stacks]
    else:
        batches = [[runs] for runs in stacks]
    job = functools.partial(_evolve_stacks, profile, params, ks)
    percentages = np.empty((params.runs, 6), dtype=np.float64)
    for batch, rows in zip(batches, map_fn(job, batches)):
        percentages[np.concatenate(batch)] = rows
    return BehaviorVector.from_counts(percentages.mean(axis=0))


def feature_vector(
    me: BehaviorVector, md: BehaviorVector
) -> tuple[float, float, float, float, float, float, float, float]:
    """Concatenated (chaoticity, decrease, growth, stability) of both measures."""
    return (
        me.chaoticity,
        me.decrease,
        me.growth,
        me.stability,
        md.chaoticity,
        md.decrease,
        md.growth,
        md.stability,
    )


def distance(a, b) -> float:
    """Euclidean distance between two feature vectors."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)))


def correlation(me, md) -> float | None:
    """Pearson correlation between the four aligned behavior components;
    None, where it is undefined, when either vector is constant.

    Accepts BehaviorVectors or plain 4-sequences (e.g. published vectors,
    whose rounded components need not sum exactly to 100).
    """
    x = np.asarray(me.as_tuple() if isinstance(me, BehaviorVector) else me, dtype=np.float64)
    y = np.asarray(md.as_tuple() if isinstance(md, BehaviorVector) else md, dtype=np.float64)
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        return None
    return float(np.corrcoef(x, y)[0, 1])
