import collections
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelike.heval import rule_profile
from lifelike.rules import MOORE_ARITY, TruthTable, elementary, gol_truth_table, state_of
from lifelike.simulator import (
    LatticeError,
    _pair_table,
    check_lattice,
    evolve,
    fields_at,
    load_pattern,
    m_field,
    neighborhood_index_field,
    ppm_bytes,
    random_lattice,
    render_ppm,
    step,
)

from oracles import index_field_naive, step_naive


def place(shape, cells):
    grid = np.zeros(shape, dtype=np.uint8)
    for i, j in cells:
        grid[i, j] = 1
    return grid


BLINKER = [(2, 1), (2, 2), (2, 3)]
GLIDER = [(0, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


class TestGameOfLifePatterns:
    def test_blinker_period_two(self):
        tt = gol_truth_table()
        c0 = place((5, 5), BLINKER)
        c1 = step(c0, tt)
        c2 = step(c1, tt)
        assert not np.array_equal(c0, c1)
        assert np.array_equal(c0, c2)

    def test_glider_translates_diagonally_in_four_steps(self):
        tt = gol_truth_table()
        c = place((12, 12), GLIDER)
        expected = np.roll(np.roll(c, 1, axis=0), 1, axis=1)
        for _ in range(4):
            c = step(c, tt)
        assert np.array_equal(c, expected)

    def test_block_is_still(self):
        tt = gol_truth_table()
        c = place((6, 6), [(1, 1), (1, 2), (2, 1), (2, 2)])
        assert np.array_equal(step(c, tt), c)


#: Lattice sides of the oracle tests. Sides 1 and 2 make a halo cell copy
#: the cell beside it, or the cell itself.
SIDES = st.integers(1, 9)


class TestEngines:
    @given(st.integers(0, 255), SIDES, st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_fast_matches_naive_1d(self, rule, cells, seed):
        tt = elementary(rule)
        c = random_lattice(cells, 0.5, np.random.default_rng(seed))
        assert np.array_equal(neighborhood_index_field(c), index_field_naive(c))
        assert np.array_equal(step(c, tt), step_naive(c, tt))

    @given(SIDES, SIDES, st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_fast_matches_naive_gol(self, rows, cols, seed):
        tt = gol_truth_table()
        c = random_lattice((rows, cols), 0.4, np.random.default_rng(seed))
        assert np.array_equal(neighborhood_index_field(c), index_field_naive(c))
        assert np.array_equal(step(c, tt), step_naive(c, tt))

    def test_translation_equivariance_on_torus(self):
        tt = gol_truth_table()
        c = random_lattice((16, 16), 0.3, np.random.default_rng(5))
        shifted = np.roll(np.roll(c, 3, axis=0), -2, axis=1)
        assert np.array_equal(
            step(shifted, tt), np.roll(np.roll(step(c, tt), 3, axis=0), -2, axis=1)
        )

    @pytest.mark.parametrize(
        "arity,shape,rank",
        [(3, 10, 1), (3, (10,), 1), (9, (10, 12), 2), (9, (2, 10, 12), 2)],
        ids=str,
    )
    def test_check_lattice_rank(self, arity, shape, rank):
        assert check_lattice(arity, shape) == rank

    @pytest.mark.parametrize(
        "arity,shape", [(3, (10, 10)), (3, (2, 10)), (9, 10), (9, (2, 2, 10, 10)), (5, (10, 10))],
        ids=str,
    )
    def test_check_lattice_rejects(self, arity, shape):
        if arity == 5:
            message = "rules of arity 5 have no lattice to evolve"
        else:
            message = "elementary rules need 1D dims (N), Moore rules 2D dims (RxC)"
        with pytest.raises(LatticeError) as caught:
            check_lattice(arity, shape)
        assert str(caught.value) == message

    def test_dimension_mismatch_raises(self):
        with pytest.raises(LatticeError):
            step(np.zeros((4, 4), dtype=np.uint8), elementary(90))
        with pytest.raises(LatticeError):
            step(np.zeros(8, dtype=np.uint8), gol_truth_table())

    @pytest.mark.parametrize(
        "dims,density",
        [(8, 1.5), (8, -0.1), (8, float("nan")), (0, 0.5), ((0, 0), 0.5), ((4, 0), 0.5)],
        ids=["density-1.5", "density-negative", "density-nan", "size-0", "size-0x0", "size-4x0"],
    )
    def test_random_lattice_rejects_bad_density_or_size(self, dims, density):
        with pytest.raises(LatticeError):
            random_lattice(dims, density, np.random.default_rng(0))

    def test_random_lattice_accepts_density_bounds(self):
        rng = np.random.default_rng(0)
        assert not random_lattice((1, 1), 0.0, rng).any()
        assert random_lattice(3, 1.0, rng).all()


class TestNeighborhoodIndexField:
    def test_single_live_cell_indices(self):
        c = place((3, 3), [(1, 1)])
        idx = neighborhood_index_field(c)
        # The live cell is the center (bit 4 from the top) of its own
        # neighborhood and appears once in every neighbor's index.
        assert idx[1, 1] == 1 << 4
        assert idx[0, 0] == 1 << 0  # live cell is its SE neighbor
        assert idx[2, 2] == 1 << 8  # live cell is its NW neighbor


class TestStacks:
    @given(st.integers(1, 4), SIDES, SIDES, st.integers(0, 2**30))
    @settings(max_examples=25, deadline=None)
    def test_moore_stack_matches_per_lattice_oracle(self, n, rows, cols, seed):
        tt = gol_truth_table()
        stack = (np.random.default_rng(seed).random((n, rows, cols)) < 0.5).astype(np.uint8)
        idx = neighborhood_index_field(stack, rank=2)
        nxt = step(stack, tt)
        for lattice, lattice_idx, lattice_next in zip(stack, idx, nxt):
            assert np.array_equal(lattice_idx, index_field_naive(lattice))
            assert np.array_equal(lattice_next, step_naive(lattice, tt))

    @given(st.integers(1, 4), SIDES, st.integers(0, 255), st.integers(0, 2**30))
    @settings(max_examples=25, deadline=None)
    def test_elementary_stack_matches_per_lattice_oracle(self, n, cells, rule, seed):
        tt = elementary(rule)
        stack = (np.random.default_rng(seed).random((n, cells)) < 0.5).astype(np.uint8)
        idx = neighborhood_index_field(stack, rank=1)
        for lattice, lattice_idx in zip(stack, idx):
            assert np.array_equal(lattice_idx, index_field_naive(lattice))
            assert np.array_equal(step(lattice, tt), step_naive(lattice, tt))

    def test_ambiguous_rank_rejected(self):
        with pytest.raises(LatticeError):
            neighborhood_index_field(np.zeros((2, 3, 3), dtype=np.uint8))


#: Lattice shapes of the pair kernel. Widths 1, 2 and 3 put the halo, and
#: for odd widths the dead column, beside every cell; 37x51 and 5x4 are an
#: odd and an even width.
KERNEL_SHAPES = [1, 2, 3, 4, 37, 50, (1, 1), (3, 1), (1, 2), (2, 3), (37, 51), (5, 4)]


def random_rule(rank: int, rng: np.random.Generator) -> TruthTable:
    arity = 3 if rank == 1 else MOORE_ARITY
    return TruthTable(arity, tuple(int(b) for b in rng.random(1 << arity) < rng.uniform(0.2, 0.8)))


class TestPairKernel:
    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=str)
    def test_step_index_and_m_field_match_naive(self, shape):
        rng = np.random.default_rng(sum(np.atleast_1d(shape)))
        c = random_lattice(shape, 0.5, rng)
        for _ in range(3):
            tt = random_rule(c.ndim, rng)
            profile = rule_profile(tt, "greedy")
            assert np.array_equal(neighborhood_index_field(c), index_field_naive(c))
            assert np.array_equal(step(c, tt), step_naive(c, tt))
            assert np.array_equal(m_field(c, profile), profile.mcodes[index_field_naive(c)])

    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=str)
    def test_stack_stepped_with_drop_matches_naive(self, shape):
        # Lattices leave the front of the stack at their own k, as the
        # dynamic measure's runs do; the others keep stepping like lattices
        # evolved alone.
        rng = np.random.default_rng(len(np.atleast_1d(shape)))
        profile = rule_profile(random_rule(len(np.atleast_1d(shape)), rng), "greedy")
        lattices = [random_lattice(shape, 0.5, rng) for _ in range(5)]
        ks = (1, 1, 2, 4, 4)
        # Collected first: a yielded field must not change as the stack steps on.
        fields = list(fields_at(np.stack(lattices), profile, ks))
        assert len(fields) == len(ks)
        for c, k, field in zip(lattices, ks, fields):
            for _ in range(k - 1):
                c = step_naive(c, profile.tt)
            assert np.array_equal(field, profile.mcodes[index_field_naive(c)])

    @pytest.mark.parametrize("ks", [(1, 2), (1, 2, 3, 4), (0, 1, 1), (2, 1, 3)], ids=str)
    def test_fields_at_rejects_bad_ks(self, ks):
        stack = np.zeros((3, 4, 4), np.uint8)
        with pytest.raises(ValueError, match="ks must hold"):
            next(fields_at(stack, rule_profile(gol_truth_table()), ks))

    @pytest.mark.parametrize("rank", [1, 2])
    def test_pair_tables_reject_writes(self, rank):
        rng = np.random.default_rng(rank)
        tt = random_rule(rank, rng)
        identity = np.arange(1 << tt.arity, dtype="<u2")
        for table in (tt.as_array(), rule_profile(tt, "greedy").mcodes, identity):
            pairs = _pair_table(table, rank)
            assert pairs.size == 1 << 14 and pairs.itemsize == 2 * table.itemsize
            with pytest.raises(ValueError):
                pairs[0] = 1


class TestLookupTables:
    def test_profile_mcodes_are_read_only(self):
        tt = elementary(110)
        with pytest.raises(ValueError):
            rule_profile(tt).mcodes[0] = 1
        c = random_lattice(16, 0.5, np.random.default_rng(2))
        assert np.array_equal(step(c, tt), step_naive(c, tt))


class TestMField:
    def test_state_projection_equals_step(self):
        tt = gol_truth_table()
        profile = rule_profile(tt)
        rng = np.random.default_rng(0)
        for _ in range(10):
            c = random_lattice((12, 12), rng.uniform(0.1, 0.9), rng)
            codes = m_field(c, profile)
            states = np.vectorize(state_of)(codes).astype(np.uint8)
            assert np.array_equal(states, step(c, tt))

    def test_identity_rule_is_all_stable(self):
        c = random_lattice(32, 0.5, np.random.default_rng(1))
        codes = m_field(c, rule_profile(elementary(204)))
        assert set(np.unique(codes)) <= {0, 5}


class TestEvolve:
    def test_history_lengths(self):
        pairs = list(evolve(place((6, 6), BLINKER), rule_profile(gol_truth_table()), 5))
        assert len(pairs) == 5
        assert all(frame.shape == field.shape == (6, 6) for frame, field in pairs)

    def test_frames_and_fields_match_step_and_m_field(self):
        tt = gol_truth_table()
        profile = rule_profile(tt)
        prev = random_lattice((10, 12), 0.4, np.random.default_rng(3))
        # Collected first: a yielded frame must not change as the evolution goes on.
        for frame, field in list(evolve(prev, profile, 6)):
            assert np.array_equal(field, m_field(prev, profile))
            assert np.array_equal(frame, step(prev, tt))
            prev = frame

    @given(SIDES, SIDES, st.integers(0, 6), st.integers(0, 2**30))
    @settings(max_examples=15, deadline=None)
    def test_random_moore_rule_matches_iterated_oracle(self, rows, cols, steps, seed):
        rng = np.random.default_rng(seed)
        tt = TruthTable(MOORE_ARITY, tuple(int(b) for b in rng.random(512) < rng.uniform(0.2, 0.8)))
        profile = rule_profile(tt, "greedy")
        prev = random_lattice((rows, cols), 0.5, rng)
        pairs = list(evolve(prev, profile, steps))
        assert len(pairs) == steps
        for frame, field in pairs:
            assert np.array_equal(field, profile.mcodes[index_field_naive(prev)])
            assert np.array_equal(frame, step_naive(prev, tt))
            prev = frame

    @pytest.mark.parametrize("cells", [37, 50])
    def test_m_code_3_steps_to_a_live_cell(self, cells):
        # evolve reads next states from M codes; rule 105's table holds code
        # 3 ({1, chaotic}), which the Game of Life and random Moore rules lack.
        tt = elementary(105)
        profile = rule_profile(tt)
        assert 3 in profile.mcodes
        prev = random_lattice(cells, 0.5, np.random.default_rng(cells))
        for frame, field in list(evolve(prev, profile, 8)):
            assert np.array_equal(field, profile.mcodes[index_field_naive(prev)])
            assert np.array_equal(frame, step_naive(prev, tt))
            prev = frame

    def test_input_lattice_is_not_modified(self):
        c0 = place((6, 6), BLINKER)
        kept = c0.copy()
        collections.deque(evolve(c0, rule_profile(gol_truth_table()), 3), maxlen=0)
        assert np.array_equal(c0, kept)

    def test_negative_steps_rejected(self):
        # Checked at the call, before the first step is asked for.
        with pytest.raises(ValueError):
            evolve(np.zeros(8, dtype=np.uint8), rule_profile(elementary(90)), -1)

    def test_lattice_rank_checked_at_call(self):
        with pytest.raises(LatticeError):
            evolve(np.zeros((4, 4), dtype=np.uint8), rule_profile(elementary(90)), 3)
        with pytest.raises(LatticeError):
            evolve(np.zeros(8, dtype=np.uint8), rule_profile(gol_truth_table()), 3)

    @pytest.mark.parametrize("steps", [20, 200])
    def test_peak_memory_does_not_grow_with_steps(self, steps):
        # The rule's 32 kB M-code pair table, one 64x64 lattice, its padded
        # buffer and its pair index, in uint16 and in intp (about 76 kB in
        # all), stay below 80 kB; a stored history of frames and M fields
        # would add 8 kB per step (160 kB at 20 steps, about 1.6 MB at 200).
        # The consumer keeps no pair, so only the generator's own memory is
        # measured.
        profile = rule_profile(gol_truth_table())
        c0 = random_lattice((64, 64), 0.5, np.random.default_rng(0))
        tracemalloc.start()
        try:
            collections.deque(evolve(c0, profile, steps), maxlen=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 80 * 1024


class TestPPM:
    def test_header_and_payload_size(self):
        data = ppm_bytes(np.zeros((4, 6), dtype=np.uint8), "binary")
        assert data.startswith(b"P6\n6 4\n255\n")
        assert len(data) == len(b"P6\n6 4\n255\n") + 4 * 6 * 3

    def test_binary_palette(self):
        data = ppm_bytes(np.array([[0, 1]], dtype=np.uint8), "binary")
        pixels = data.split(b"255\n", 1)[1]
        assert pixels == bytes([255, 255, 255, 0, 0, 0])

    def test_mfield_palette(self):
        data = ppm_bytes(np.array([[3]], dtype=np.uint8), "mfield")
        assert data.endswith(bytes([255, 0, 0]))

    def test_gray_levels(self):
        data = ppm_bytes(np.array([[0.5]]), "gray")
        assert data.endswith(bytes([128, 128, 128]))

    @pytest.mark.parametrize("kind", ["auto", "rgb"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown render kind"):
            ppm_bytes(np.array([[0, 1]], dtype=np.uint8), kind)

    def test_render_round_trip(self, tmp_path):
        path = tmp_path / "img.ppm"
        render_ppm(np.zeros((2, 2), dtype=np.uint8), path, "binary")
        assert path.read_bytes() == ppm_bytes(np.zeros((2, 2), dtype=np.uint8), "binary")


class TestLoadPattern:
    def test_load(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("010\n111\n")
        assert np.array_equal(load_pattern(path), [[0, 1, 0], [1, 1, 1]])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("01\n111\n")
        with pytest.raises(ValueError):
            load_pattern(path)

    def test_non_binary_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("012\n")
        with pytest.raises(ValueError):
            load_pattern(path)
