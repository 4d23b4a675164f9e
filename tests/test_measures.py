import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelike.measures import (
    GOL_TARGET,
    BehaviorVector,
    DynamicParams,
    MeasureError,
    correlation,
    distance,
    dynamic_measure,
    feature_vector,
    static_measure,
)
from lifelike import measures
from lifelike.heval import rule_profile
from lifelike.rules import MOORE_ARITY, TruthTable, elementary, gol_truth_table
from lifelike.simulator import LatticeError

from oracles import dynamic_measure_naive

# Published (stability, decrease, growth, chaoticity) vectors, static then
# dynamic, of the search target and the four selected found rules.
PUBLISHED = {
    "target": ((0, 4.68, 27.34, 67.96), (0, 75.23, 11.37, 13.38)),
    "found-1": ((0, 4.88, 33.01, 62.11), (0, 78.88, 9.06, 12.06)),
    "found-2": ((0, 2.54, 33.01, 64.45), (0, 84.80, 5.92, 9.28)),
    "found-3": ((0, 3.91, 30.47, 65.63), (0, 90.54, 4.00, 5.53)),
    "self-replicator": ((0, 3.32, 34.96, 61.72), (0, 90.63, 3.77, 5.61)),
}


def features(me, md):
    return (me[3], me[1], me[2], me[0], md[3], md[1], md[2], md[0])


class TestBehaviorVector:
    def test_sum_must_be_100(self):
        with pytest.raises(MeasureError):
            BehaviorVector(50, 0, 0, 0)

    def test_negative_rejected(self):
        with pytest.raises(MeasureError):
            BehaviorVector(110, -10, 0, 0)

    def test_from_counts(self):
        v = BehaviorVector.from_counts([1, 1, 1, 1, 2, 2])
        assert v.stability == 37.5
        assert v.decrease == 12.5
        assert v.chaoticity == 25.0
        assert v.growth == 25.0

    def test_from_counts_empty_rejected(self):
        with pytest.raises(MeasureError):
            BehaviorVector.from_counts([0, 0, 0, 0, 0, 0])

    def test_components_are_plain_floats(self):
        v = BehaviorVector.from_counts(np.array([1, 0, 0, 0, 0, 1]))
        assert all(type(x) is float for x in v.as_tuple())


class TestStaticMeasure:
    def test_rule_94(self):
        assert static_measure(rule_profile(elementary(94))).as_tuple() == (0.0, 12.5, 62.5, 25.0)

    def test_identity_rule_fully_stable(self):
        assert static_measure(rule_profile(elementary(204))).stability == 100.0

    def test_gol_growth_exact(self):
        me = static_measure(rule_profile(gol_truth_table(), "exact"))
        assert me.stability == 0.0
        assert me.growth == pytest.approx(140 / 512 * 100)

    def test_gol_near_published(self):
        me = static_measure(rule_profile(gol_truth_table(), "exact"))
        assert me.decrease == pytest.approx(4.68, abs=2.0)
        assert me.chaoticity == pytest.approx(67.96, abs=2.0)


class TestDynamicMeasure:
    def test_identity_rule_fully_stable(self):
        params = DynamicParams(runs=3, dims=64, max_steps=20, seed=0)
        md = dynamic_measure(rule_profile(elementary(204)), params)
        assert md.as_tuple() == (100.0, 0.0, 0.0, 0.0)

    def test_deterministic_per_seed(self):
        params = DynamicParams(runs=3, dims=(20, 20), max_steps=10, seed=9)
        a = dynamic_measure(rule_profile(gol_truth_table()), params)
        b = dynamic_measure(rule_profile(gol_truth_table()), params)
        assert a == b

    def test_seed_changes_result(self):
        p1 = DynamicParams(runs=2, dims=(20, 20), max_steps=10, seed=1)
        p2 = DynamicParams(runs=2, dims=(20, 20), max_steps=10, seed=2)
        assert dynamic_measure(rule_profile(gol_truth_table()), p1) != dynamic_measure(
            rule_profile(gol_truth_table()), p2
        )

    def test_rule_94_dynamic_behavior_ordering(self):
        # From a dense random start, rule 94 settles into mostly growing
        # regions with a chaotic fringe and little decrease.
        params = DynamicParams(runs=10, dims=200, max_steps=100, seed=1)
        md = dynamic_measure(rule_profile(elementary(94)), params)
        assert md.stability == 0.0
        assert md.growth > md.chaoticity > md.decrease

    def test_1d_dims_require_elementary(self):
        params = DynamicParams(runs=1, dims=32, max_steps=5, seed=0)
        with pytest.raises(LatticeError):
            dynamic_measure(rule_profile(gol_truth_table()), params)

    def test_elementary_rule_rejects_2d_dims(self):
        params = DynamicParams(runs=2, dims=(10, 10), max_steps=5, seed=0)
        with pytest.raises(LatticeError):
            dynamic_measure(rule_profile(elementary(110)), params)

    def test_rule_without_lattice_rejected_before_sampling(self, monkeypatch):
        def no_lattice(*args):
            raise AssertionError("a lattice was drawn")

        monkeypatch.setattr(measures, "random_lattice", no_lattice)
        profile = rule_profile(TruthTable(5, tuple(int(i % 3 == 0) for i in range(32))))
        for dims in ((10, 10), 10):
            params = DynamicParams(runs=2, dims=dims, max_steps=5, seed=0)
            with pytest.raises(LatticeError):
                dynamic_measure(profile, params)

    @given(
        st.booleans(), st.integers(3, 9), st.integers(3, 9), st.integers(1, 12),
        st.integers(1, 8), st.integers(1, 3), st.integers(0, 2**30),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_runs_evolved_alone(self, moore, rows, cols, runs, max_steps, per_stack, seed):
        # A stack of `per_stack` lattices: stacks split, and runs leave mid-stack.
        rng = np.random.default_rng(seed)
        if moore:
            bits = rng.random(512) < rng.uniform(0.2, 0.8)
            profile = rule_profile(TruthTable(MOORE_ARITY, tuple(int(b) for b in bits)), "greedy")
            dims = (rows, cols)
        else:
            profile = rule_profile(elementary(int(rng.integers(256))))
            dims = rows * cols
        params = DynamicParams(runs=runs, dims=dims, max_steps=max_steps, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_STACK_CELLS", per_stack * rows * cols)
            assert dynamic_measure(profile, params) == dynamic_measure_naive(profile, params)

    def test_param_validation(self):
        with pytest.raises(MeasureError):
            DynamicParams(runs=0)
        with pytest.raises(MeasureError):
            DynamicParams(density=1.5)
        with pytest.raises(MeasureError):
            DynamicParams(dims=(2, 50))
        # A stack shape is not a lattice size: no rank-3 lattices are sampled.
        with pytest.raises(MeasureError, match=r"dims must be a size N or a shape \(R, C\)"):
            DynamicParams(dims=(4, 5, 6))

    def test_negative_seed_rejected_and_no_upper_bound(self):
        with pytest.raises(MeasureError, match="seed must be a non-negative integer, got -1"):
            DynamicParams(seed=-1)
        # search's per-chromosome seeds take all 64 bits.
        assert DynamicParams(seed=2**64 - 1).seed == 2**64 - 1


# dynamic_measure(...).as_tuple() of seeded cases, recorded from the
# engine that evolved each run alone; stacked evolution must match exactly.
GOLDEN_DYNAMIC = [
    ("gol_100x100_30runs", "gol", {"runs": 30, "dims": (100, 100), "max_steps": 100, "seed": 0},
     (0.0, 74.45266666666667, 12.673666666666666, 12.873666666666669)),
    ("gol_1run", "gol", {"runs": 1, "dims": (40, 40), "max_steps": 100, "seed": 5},
     (0.0, 82.6875, 10.4375, 6.875000000000001)),
    ("gol_13runs", "gol", {"runs": 13, "dims": (100, 100), "max_steps": 60, "seed": 11},
     (0.0, 68.30230769230769, 16.179230769230767, 15.518461538461533)),
    ("gol_max_steps_1", "gol", {"runs": 9, "dims": (30, 30), "max_steps": 1, "seed": 2},
     (0.0, 6.061728395061728, 27.246913580246908, 66.69135802469135)),
    ("gol_24x37", "gol", {"runs": 17, "dims": (24, 37), "max_steps": 50, "seed": 7},
     (0.0, 70.11791202967673, 15.023847376788549, 14.85824059353471)),
    ("gol_density_0", "gol", {"runs": 5, "dims": (20, 20), "max_steps": 10, "density": 0.0, "seed": 1},
     (0.0, 100.0, 0.0, 0.0)),
    ("gol_density_1", "gol", {"runs": 5, "dims": (20, 20), "max_steps": 10, "density": 1.0, "seed": 1},
     (0.0, 100.0, 0.0, 0.0)),
    ("elem110_48cells", "e110", {"runs": 21, "dims": 48, "max_steps": 40, "seed": 3},
     (13.095238095238097, 13.194444444444448, 55.158730158730165, 18.551587301587297)),
    ("elem30_37cells", "e30", {"runs": 19, "dims": 37, "max_steps": 30, "seed": 4},
     (15.078236130867712, 0.0, 51.920341394025606, 33.001422475106686)),
    ("elem90_3cells", "e90", {"runs": 6, "dims": 3, "max_steps": 8, "seed": 9},
     (5.555555555555556, 0.0, 66.66666666666666, 27.77777777777778)),
    ("elem54_101cells", "e54", {"runs": 40, "dims": 101, "max_steps": 100, "seed": 12},
     (19.23267326732674, 0.0, 48.836633663366335, 31.930693069306926)),
]


def _golden_tt(rule: str):
    """The truth table of a GOLDEN_DYNAMIC rule name: "gol" or "e<number>"."""
    return gol_truth_table() if rule == "gol" else elementary(int(rule[1:]))


GOLDEN_PARAMS = [
    pytest.param(rule, kwargs, expected, id=name) for name, rule, kwargs, expected in GOLDEN_DYNAMIC
]


def _reversed_map(fn, jobs):
    """Runs the jobs last first and returns their results in order."""
    return reversed([fn(job) for job in reversed(list(jobs))])


#: (_POOL_CELL_STEPS, _STACK_CELLS) of each job layout; every golden case
#: lies below the default _POOL_CELL_STEPS.
LAYOUTS = {
    "one_job": (measures._POOL_CELL_STEPS, measures._STACK_CELLS),
    "job_per_stack": (0, measures._STACK_CELLS),
    "job_per_run": (0, 1),
}


class _Recorded(Exception):
    pass


def _batches(profile, params):
    """The batches that dynamic_measure hands its map, none of them run."""
    seen = []

    def record(fn, batches):
        seen.extend(batches)
        raise _Recorded

    with pytest.raises(_Recorded):
        dynamic_measure(profile, params, record)
    return seen


class TestDynamicGolden:
    @pytest.mark.parametrize("rule,kwargs,expected", GOLDEN_PARAMS)
    def test_reproduces_recorded_vector(self, rule, kwargs, expected):
        tt = _golden_tt(rule)
        assert dynamic_measure(rule_profile(tt), DynamicParams(**kwargs)).as_tuple() == expected

    @pytest.mark.parametrize("map_fn", [map, _reversed_map], ids=["map", "reversed"])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("rule,kwargs,expected", GOLDEN_PARAMS)
    def test_any_map_and_layout_reproduces_recorded_vector(
        self, rule, kwargs, expected, layout, map_fn, monkeypatch
    ):
        pool_cell_steps, stack_cells = LAYOUTS[layout]
        monkeypatch.setattr(measures, "_POOL_CELL_STEPS", pool_cell_steps)
        monkeypatch.setattr(measures, "_STACK_CELLS", stack_cells)
        tt = _golden_tt(rule)
        md = dynamic_measure(rule_profile(tt), DynamicParams(**kwargs), map_fn)
        assert md.as_tuple() == expected

    @pytest.mark.parametrize("runs", [30, 300])
    @pytest.mark.parametrize("offset", [0, 1])
    def test_job_layout(self, runs, offset, monkeypatch):
        # One job below the threshold; at or above it one job per stack,
        # longest first, a stack evolving up to its last run's k.
        params = DynamicParams(runs=runs, seed=0)
        ks = np.array([measures._run_stream(params, run)[1] for run in range(runs)])
        cell_steps = int(ks.sum()) * 100 * 100
        monkeypatch.setattr(measures, "_POOL_CELL_STEPS", cell_steps + offset)
        batches = _batches(rule_profile(gol_truth_table()), params)
        stacks = [stack for batch in batches for stack in batch]
        assert sorted(np.concatenate(stacks).tolist()) == list(range(runs))
        assert all(len(stack) <= 8 for stack in stacks)
        assert len(stacks) == -(-runs // 8)
        assert all(list(ks[stack]) == sorted(ks[stack]) for stack in stacks)
        lasts = [ks[stack[-1]] for stack in stacks]
        assert lasts == sorted(lasts, reverse=True)
        assert len(batches) == (1 if offset else len(stacks))

    def test_threshold_splits_paper_measures_by_size(self):
        gol = rule_profile(gol_truth_table())
        assert len(_batches(gol, DynamicParams(runs=30))) == 1
        assert len(_batches(gol, DynamicParams(runs=60))) == 1
        assert len(_batches(gol, DynamicParams(runs=300))) == 38


class TestDistance:
    def test_identical_vectors(self):
        assert distance(GOL_TARGET, GOL_TARGET) == 0.0

    def test_euclidean(self):
        assert distance((0, 0), (3, 4)) == 5.0

    @given(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=8, max_size=8),
        st.lists(st.floats(0, 100, allow_nan=False), min_size=8, max_size=8),
    )
    def test_symmetry(self, a, b):
        assert distance(a, b) == distance(b, a)

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("found-1", 9.32),
            ("found-2", 13.68),
            ("found-3", 19.13),
            ("self-replicator", 21.31),
        ],
    )
    def test_published_distances(self, name, expected):
        me, md = PUBLISHED[name]
        assert distance(features(me, md), GOL_TARGET) == pytest.approx(
            expected, abs=0.02
        )


class TestCorrelation:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("target", -0.29),
            ("found-1", -0.34),
            ("found-2", -0.40),
            ("found-3", -0.42),
            ("self-replicator", -0.45),
        ],
    )
    def test_published_correlations(self, name, expected):
        me, md = PUBLISHED[name]
        assert correlation(me, md) == pytest.approx(expected, abs=0.01)

    def test_constant_vector_has_no_correlation(self):
        assert correlation((25, 25, 25, 25), (0, 50, 25, 25)) is None
        assert correlation((0, 50, 25, 25), (25, 25, 25, 25)) is None

    def test_accepts_behavior_vectors(self):
        a = BehaviorVector(0, 50, 25, 25)
        b = BehaviorVector(10, 40, 25, 25)
        assert -1.0 <= correlation(a, b) <= 1.0


class TestFeatureVector:
    def test_component_order(self):
        me = BehaviorVector(1, 2, 3, 94)
        md = BehaviorVector(5, 6, 7, 82)
        assert feature_vector(me, md) == (94, 2, 3, 1, 82, 6, 7, 5)

    def test_gol_target_matches_published_layout(self):
        me, md = PUBLISHED["target"]
        assert features(me, md) == GOL_TARGET
