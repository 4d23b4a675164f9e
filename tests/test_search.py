import dataclasses
import math
import os
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelike import boolmin
from lifelike.cli import _cpu_map
from lifelike.rules import gol_truth_table
from lifelike.search import (
    CHROMOSOME_BITS,
    GAConfig,
    evaluate,
    mutate,
    one_point_crossover,
    random_population,
    run_ga,
)

from oracles import DESK, DESK_DIGEST, catalog_digest

SMALL = GAConfig(
    pop_size=6,
    generations=3,
    seed=1,
    dyn_runs=2,
    dyn_dims=(24, 24),
    dyn_max_steps=15,
)

# Without mutation, crossover of a converging population repeats
# chromosomes within and across generations.
DUPLICATES = GAConfig(
    pop_size=8,
    generations=6,
    mutation_prob=0.0,
    seed=5,
    dyn_runs=2,
    dyn_dims=(24, 24),
    dyn_max_steps=15,
)

#: run_ga's catalogs pinned by digest, per configuration: a change that
#: moves a rule, a tie or a generation_found changes the digest even when
#: runs still agree with each other.
GOLDEN_CATALOGS = {
    "small": (SMALL, "be6436e4bfa39e4c"),
    "duplicates": (DUPLICATES, "e729e874a51780dd"),
    "desk": (DESK, DESK_DIGEST),
}


def chromosome(rng):
    return rng.integers(0, 2, size=CHROMOSOME_BITS, dtype=np.uint8)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GAConfig(pop_size=1)
        with pytest.raises(ValueError):
            GAConfig(mutation_prob=1.5)
        with pytest.raises(ValueError):
            GAConfig(target=(1.0, 2.0))

    @pytest.mark.parametrize(
        "field",
        [
            {"dyn_runs": 0},
            {"dyn_max_steps": 0},
            {"dyn_dims": (2, 2)},
            {"dyn_density": 1.5},
            {"dyn_dims": 30},
        ],
    )
    def test_dynamic_settings_checked_at_construction(self, field):
        with pytest.raises(ValueError):
            GAConfig(**field)

    @pytest.mark.parametrize("seed", [-1, 2**63])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match="seed"):
            GAConfig(seed=seed)

    def test_largest_seed_accepted(self):
        assert GAConfig(seed=2**63 - 1).seed == 2**63 - 1

    @pytest.mark.parametrize("generations", [0, -3])
    def test_at_least_one_generation(self, generations):
        with pytest.raises(ValueError, match="generation"):
            GAConfig(generations=generations)


class TestVariation:
    @given(st.integers(1, CHROMOSOME_BITS - 1), st.integers(0, 2**30))
    @settings(max_examples=25, deadline=None)
    def test_crossover_exchanges_prefixes(self, point, seed):
        rng = np.random.default_rng(seed)
        a, b = chromosome(rng), chromosome(rng)
        c1, c2 = one_point_crossover(a, b, point)
        assert np.array_equal(c1[:point], a[:point])
        assert np.array_equal(c1[point:], b[point:])
        assert np.array_equal(np.sort(np.concatenate([c1, c2])), np.sort(np.concatenate([a, b])))

    def test_crossover_point_bounds(self):
        rng = np.random.default_rng(0)
        a, b = chromosome(rng), chromosome(rng)
        with pytest.raises(ValueError):
            one_point_crossover(a, b, 0)
        with pytest.raises(ValueError):
            one_point_crossover(a, b, CHROMOSOME_BITS)

    def test_mutation_zero_probability_is_identity(self):
        rng = np.random.default_rng(0)
        c = chromosome(rng)
        assert np.array_equal(mutate(c, 0.0, rng), c)

    def test_mutation_one_flips_everything(self):
        rng = np.random.default_rng(0)
        c = chromosome(rng)
        assert np.array_equal(mutate(c, 1.0, rng), 1 - c)

    @given(st.integers(0, 2**30))
    @settings(max_examples=10, deadline=None)
    def test_mutation_rate_is_plausible(self, seed):
        rng = np.random.default_rng(seed)
        c = chromosome(rng)
        flipped = (mutate(c, 0.01, rng) != c).sum()
        # Binomial(512, 0.01): mean ~5, stays far below 30.
        assert flipped < 30


class TestEvaluate:
    def test_identity_like_rule_gets_no_fitness(self):
        # A constant-1 rule is fully stable statically: hard constraint.
        record = evaluate(np.ones(CHROMOSOME_BITS, dtype=np.uint8), SMALL)
        assert record.me[0] > 0
        assert record.fitness is None
        assert record.md is None

    def test_rule_minimized_once(self):
        # The Game of Life has no static stability, so both measures run.
        with mock.patch.object(boolmin, "minimal_form", wraps=boolmin.minimal_form) as spy:
            record = evaluate(gol_truth_table().as_array(), SMALL)
        assert record.md is not None
        assert spy.call_count == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_no_static_stability_means_no_dynamic_stability(self, seed):
        # The dynamic measure counts only codes of the M table, so a rule
        # valid by its static measure needs no dynamic stability check.
        record = evaluate(chromosome(np.random.default_rng(seed)), SMALL)
        assert record.me[0] == 0
        assert record.md[0] == 0 and math.isfinite(record.fitness)

    def test_reevaluation_is_reproducible(self):
        rng = np.random.default_rng(3)
        c = chromosome(rng)
        assert evaluate(c, SMALL) == evaluate(c.copy(), SMALL)


class TestRunGA:
    def test_deterministic_catalog(self):
        records_a = run_ga(SMALL)
        records_b = run_ga(SMALL)
        assert [r.to_json() for r in records_a] == [r.to_json() for r in records_b]

    def test_catalog_sorted_and_constraint_clean(self):
        records = run_ga(SMALL)
        fits = [r.fitness for r in records]
        assert fits == sorted(fits)
        for r in records:
            assert r.me[0] == 0.0  # static stability
            assert r.md[0] == 0.0  # dynamic stability
            assert math.isfinite(r.fitness)

    def test_violators_rank_after_every_fitness(self):
        # Every other new chromosome is scored as a stability violator.
        def half_violating(job, chromosomes):
            scored = [job(c) for c in chromosomes]
            return [
                dataclasses.replace(r, md=None, fitness=None, correlation=None) if i % 2 else r
                for i, r in enumerate(scored)
            ]

        best = []
        records = run_ga(
            SMALL, progress=lambda gen, r: best.append(r.fitness), map_fn=half_violating
        )
        assert None not in best
        assert records and all(math.isfinite(r.fitness) for r in records)

    def test_best_fitness_non_increasing_over_generations(self):
        best = []
        run_ga(SMALL, progress=lambda gen, ind: best.append(ind.fitness))
        assert best == sorted(best, reverse=True)

    def test_keep_truncates(self):
        cfg = GAConfig(
            pop_size=6,
            generations=3,
            seed=1,
            dyn_runs=2,
            dyn_dims=(24, 24),
            dyn_max_steps=15,
            keep=2,
        )
        assert len(run_ga(cfg)) <= 2

    def test_population_size_constant(self):
        sizes = []

        def progress(gen, best):
            sizes.append(True)

        run_ga(SMALL, progress=progress)
        assert len(sizes) == SMALL.generations

    def test_records_decode_back(self):
        records = run_ga(SMALL)
        assert records, "small search should find at least one valid rule"
        r = records[0]
        assert r.arity == 9
        assert int(r.rule) >= 0
        assert r.metadata["seed"] == SMALL.seed
        assert r.metadata["generation_found"] >= 0


_TEST_PROCESS = os.getpid()


def _die_in_worker(job):
    """End the worker without a word, as the out-of-memory killer would."""
    assert os.getpid() != _TEST_PROCESS, "ran in the test process"
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def pool_map():
    """The CLI's process-pool map with two workers, whatever the machine."""
    if not hasattr(os, "fork"):
        pytest.skip("this platform cannot fork")
    with mock.patch.object(os, "sched_getaffinity", return_value={0, 1}, create=True):
        with _cpu_map() as map_fn:
            yield map_fn


class TestMap:
    @pytest.mark.parametrize("name", ["desk", "duplicates"])
    def test_pool_catalog_is_byte_identical(self, name, pool_map):
        # Compared with the serial catalog through its pinned digest.
        cfg, digest = GOLDEN_CATALOGS[name]
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            pooled = run_ga(cfg, map_fn=pool_map)
        assert fork.call_count == 2
        assert os.waitpid(-1, os.WNOHANG) == (0, 0)  # neither worker has exited
        assert pooled and catalog_digest(pooled) == digest
        assert len({r.metadata["generation_found"] for r in pooled}) > 1

    def test_jobs_beyond_a_pipe_buffer_keep_their_order(self, pool_map):
        # 160 kB of claim words, and the results, overflow a 64 kB pipe buffer.
        jobs = range(-20_000, 20_000)
        assert pool_map(abs, jobs) == [abs(job) for job in jobs]

    def test_a_lost_worker_fails_every_later_call(self, pool_map):
        for _ in range(2):
            with pytest.raises(ChildProcessError, match="killed before it finished"):
                pool_map(_die_in_worker, [0, 1])

    def test_each_new_chromosome_scored_once_per_run(self):
        calls = []

        def recording_map(job, chromosomes):
            calls.append([c.tobytes() for c in chromosomes])
            return map(job, chromosomes)

        run_ga(DUPLICATES, map_fn=recording_map)
        scored = [key for batch in calls for key in batch]
        assert len(calls) == DUPLICATES.generations
        assert len(scored) == len(set(scored))
        assert len(scored) < DUPLICATES.pop_size * DUPLICATES.generations


class TestGoldenCatalogs:
    # Criterion 9 checks the desk catalog's digest.
    @pytest.mark.parametrize("name", ["duplicates", "small"])
    def test_catalog_digest(self, name):
        cfg, digest = GOLDEN_CATALOGS[name]
        assert catalog_digest(run_ga(cfg)) == digest
