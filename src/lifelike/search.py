"""Genetic search over 512-bit Moore-neighborhood rule chromosomes.

Fitness is the Euclidean distance between a rule's concatenated behavior
measures and a target vector (the Game of Life's published measures by
default). Rules with nonzero static stability are hard constraint
violations: they get no fitness (None), rank after every rule that has
one and never enter the emitted catalog. (A rule without static
stability has no dynamic stability either: the dynamic measure counts
only codes of the rule's M table.) Every distinct evaluated chromosome is
archived with its record.
"""
from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .catalog import CatalogRecord
from .heval import rule_profile
from .measures import (
    GOL_TARGET,
    DynamicParams,
    distance,
    dynamic_measure,
    feature_vector,
    static_measure,
)
from .rules import MOORE_ARITY, TruthTable, encode_rule_number
from .simulator import check_lattice

CHROMOSOME_BITS = 1 << MOORE_ARITY

ELITISM = 2  # best individuals copied unchanged into the next generation
TOURNAMENT = 3  # individuals drawn per tournament selection

#: The cover every chromosome is minimized with. Petrick's exact cover
#: exceeds its term budget on typical random 9-ary tables, so an exact
#: search aborts in its first generation, and `auto` falls back to this
#: cover on the same tables.
COVER_MODE = "greedy"


@dataclass(frozen=True)
class GAConfig:
    pop_size: int = 20
    generations: int = 5000
    mutation_prob: float = 0.01
    seed: int = 0
    dyn_runs: int = 10
    dyn_dims: tuple[int, int] = (100, 100)
    dyn_max_steps: int = 100
    dyn_density: float = 0.5
    keep: int = 1000
    target: tuple[float, ...] = GOL_TARGET

    def __post_init__(self) -> None:
        if self.pop_size < 2:
            raise ValueError("population must hold at least 2 individuals")
        if self.generations < 1:
            raise ValueError("the search needs at least 1 generation")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("mutation probability must lie in [0, 1]")
        if not 0 <= self.seed < 2**63:
            raise ValueError("seed must lie in [0, 2**63)")
        self.dynamic_params(0)  # checks runs, dims, steps and density
        check_lattice(MOORE_ARITY, self.dyn_dims)  # chromosomes are Moore rules
        if self.keep < 0:
            raise ValueError("keep must be >= 0")
        if len(self.target) != 8:
            raise ValueError("target must be an 8-component feature vector")

    def dynamic_params(self, chromosome_seed: int) -> DynamicParams:
        return DynamicParams(
            runs=self.dyn_runs,
            dims=self.dyn_dims,
            max_steps=self.dyn_max_steps,
            density=self.dyn_density,
            seed=chromosome_seed,
        )


def _truth_table(chromosome: np.ndarray) -> TruthTable:
    return TruthTable(MOORE_ARITY, tuple(int(b) for b in chromosome))


def _dynamic_seed(cfg: GAConfig, chromosome: np.ndarray) -> int:
    """Per-chromosome sampling seed: stable within a run, so re-evaluating
    the same individual reproduces the same dynamic measure."""
    digest = hashlib.sha256(
        cfg.seed.to_bytes(8, "little", signed=True) + chromosome.tobytes()
    ).digest()
    return int.from_bytes(digest[:8], "little")


def random_population(cfg: GAConfig, rng: np.random.Generator) -> list[np.ndarray]:
    return [rng.integers(0, 2, size=CHROMOSOME_BITS, dtype=np.uint8) for _ in range(cfg.pop_size)]


def evaluate(chromosome: np.ndarray, cfg: GAConfig, generation: int = 0) -> CatalogRecord:
    """The catalog record of a chromosome first scored in `generation`; a
    static stability violation gets neither a dynamic measure nor a
    fitness (both None).

    A pure function of its arguments, so a worker process can compute it.
    """
    tt = _truth_table(chromosome)
    profile = rule_profile(tt, COVER_MODE)
    me = static_measure(profile)
    md = fitness = None
    if me.stability == 0:
        md = dynamic_measure(profile, cfg.dynamic_params(_dynamic_seed(cfg, chromosome)))
        fitness = distance(feature_vector(me, md), cfg.target)
    metadata = {
        "seed": cfg.seed,
        "cover_mode": COVER_MODE,
        "generation_found": generation,
        "dynamic": {
            "runs": cfg.dyn_runs,
            "dims": list(cfg.dyn_dims),
            "max_steps": cfg.dyn_max_steps,
            "density": cfg.dyn_density,
        },
    }
    return CatalogRecord.from_measures(
        encode_rule_number(tt).value, MOORE_ARITY, me, md, metadata, fitness
    )


def one_point_crossover(
    a: np.ndarray, b: np.ndarray, point: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exchange prefixes of two chromosomes at bit index `point`."""
    if not 1 <= point <= CHROMOSOME_BITS - 1:
        raise ValueError(f"crossover point out of range: {point}")
    child1 = np.concatenate([a[:point], b[point:]])
    child2 = np.concatenate([b[:point], a[point:]])
    return child1, child2


def mutate(chromosome: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("mutation probability must lie in [0, 1]")
    flips = rng.random(chromosome.shape) < p
    return np.where(flips, 1 - chromosome, chromosome).astype(np.uint8)


def run_ga(cfg: GAConfig, progress=None, map_fn=map) -> list[CatalogRecord]:
    """Generational GA; returns the archive of valid rules sorted by fitness.

    Selection is seeded tournament (with elitism), variation is one-point
    crossover plus per-bit mutation. The archive holds one catalog record
    per distinct chromosome, made when it is first scored, and ranks
    chromosomes by (fitness, chromosome bytes), a missing fitness last;
    records of stability violators stay in the archive but not in the
    returned catalog.
    `progress(generation, best)` gets each generation's best record.

    Each generation's chromosomes that are not archived yet are scored with
    one call of `map_fn(job, chromosomes)`, which must return their records
    in order; pass a process pool's `map` to score them in parallel. The
    catalog does not depend on `map_fn`.
    """
    rng = np.random.default_rng(cfg.seed)
    archive: dict[bytes, CatalogRecord] = {}
    population = random_population(cfg, rng)

    def rank(key: bytes) -> tuple[float, bytes]:
        fitness = archive[key].fitness
        return (math.inf if fitness is None else fitness, key)

    for generation in range(cfg.generations):
        new = {c.tobytes(): c for c in population if c.tobytes() not in archive}
        job = functools.partial(evaluate, cfg=cfg, generation=generation)
        archive.update(zip(new, map_fn(job, list(new.values())), strict=True))
        population.sort(key=lambda chromosome: rank(chromosome.tobytes()))
        if progress is not None:
            progress(generation, archive[population[0].tobytes()])
        if generation == cfg.generations - 1:
            break
        # Chromosomes are never changed in place, so elites need no copy.
        next_population = population[:ELITISM]
        while len(next_population) < cfg.pop_size:
            # A tournament's winner is its best-ranked pick, and the
            # population is sorted by rank: its smallest index.
            parent_a = population[rng.integers(0, len(population), size=TOURNAMENT).min()]
            parent_b = population[rng.integers(0, len(population), size=TOURNAMENT).min()]
            point = int(rng.integers(1, CHROMOSOME_BITS))
            for child in one_point_crossover(parent_a, parent_b, point):
                if len(next_population) < cfg.pop_size:
                    next_population.append(mutate(child, cfg.mutation_prob, rng))
        population = next_population

    valid = sorted((key for key, record in archive.items() if record.md is not None), key=rank)
    return [archive[key] for key in valid[: cfg.keep]]
