import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelike import boolmin
from lifelike.heval import DEFAULT_TABLES, HTables, eval_g_all, rule_profile, validate_h
from lifelike.rules import (
    CHAOTIC_CODES,
    DECREASE_CODES,
    GROWTH_CODES,
    M_VALUES,
    TruthTable,
    elementary,
    gol_truth_table,
    index_to_cells,
    state_of,
)

from oracles import eval_form_naive, eval_m_naive, random_table, random_tables, row_cells

m_codes = st.sampled_from(M_VALUES)
NOT = DEFAULT_TABLES.not_table
AND = DEFAULT_TABLES.and_table
OR = DEFAULT_TABLES.or_table
XOR = DEFAULT_TABLES.xor_table


def mtable(tt: TruthTable, mode: str) -> tuple[int, ...]:
    return tuple(rule_profile(tt, mode).mcodes.tolist())


class TestLeafMapping:
    def test_bits_map_to_stable_codes(self):
        assert eval_g_all(boolmin.minimal_form(TruthTable(1, (0, 1)))).tolist() == [0, 5]


class TestOperatorTables:
    @given(m_codes)
    def test_not_is_involution(self, a):
        assert NOT[NOT[a]] == a

    @given(m_codes)
    def test_not_flips_state(self, a):
        assert state_of(NOT[a]) == 1 - state_of(a)

    @given(m_codes, m_codes)
    def test_and_state_projection(self, a, b):
        assert state_of(AND[a, b]) == (state_of(a) & state_of(b))

    @given(m_codes, m_codes)
    def test_or_state_projection(self, a, b):
        assert state_of(OR[a, b]) == (state_of(a) | state_of(b))

    @given(m_codes, m_codes)
    def test_xor_state_projection(self, a, b):
        assert state_of(XOR[a, b]) == (state_of(a) ^ state_of(b))

    @given(m_codes, m_codes)
    def test_binary_tables_commute(self, a, b):
        assert AND[a, b] == AND[b, a]
        assert OR[a, b] == OR[b, a]
        assert XOR[a, b] == XOR[b, a]

    def test_stable_input_combinations(self):
        assert AND[0, 0] == 0 and AND[5, 5] == 5
        assert AND[0, 5] == 1  # the live input is destroyed: decrease
        assert OR[0, 0] == 0 and OR[5, 5] == 5
        assert OR[0, 5] == 4  # a live input survives a mixed OR: growth
        assert XOR[0, 0] == 0
        assert XOR[5, 0] == XOR[0, 5] == 4  # a 1 appears: growth
        assert XOR[5, 5] == 2  # two live inputs consumed: chaotic

    def test_and_destroying_a_live_input_reads_decrease(self):
        for a in (3, 4, 5):
            for b in (0, 1, 2):
                assert AND[a, b] == 1
                assert AND[b, a] == 1


class TestProjectionInvariant:
    @given(st.integers(0, 255), st.sampled_from(["exact", "greedy"]))
    @settings(max_examples=60, deadline=None)
    def test_state_of_m_table_reproduces_rule(self, rule, mode):
        tt = elementary(rule)
        codes = mtable(tt, mode)
        assert tuple(state_of(c) for c in codes) == tt.outputs


class TestRuleProfile:
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.1, 0.9),
        st.sampled_from(["greedy", "auto"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_nine_ary_minimization_is_sound(self, seed, density, mode):
        # The path the genetic search runs: random 512-bit Moore rules.
        bits = np.random.default_rng(seed).random(512) < density
        tt = TruthTable(9, tuple(int(b) for b in bits))
        profile = rule_profile(tt, mode)
        rows = tuple(eval_form_naive(profile.form, row_cells(9)).tolist())
        assert rows == tt.outputs
        assert tuple(state_of(c) for c in profile.mcodes.tolist()) == tt.outputs
        if mode == "greedy":
            assert profile.cover_mode == "greedy"
        else:
            assert profile.cover_mode in ("exact", "greedy")


class TestRule94:
    def test_m_table_matches_reference(self):
        assert mtable(elementary(94), "exact") == (1, 4, 4, 4, 4, 2, 4, 2)

    def test_behavior_counts(self):
        codes = mtable(elementary(94), "exact")
        groups = {
            "stability": (0, 5),
            "decrease": DECREASE_CODES,
            "growth": GROWTH_CODES,
            "chaoticity": CHAOTIC_CODES,
        }
        counts = {name: sum(c in group for c in codes) for name, group in groups.items()}
        assert counts == {"stability": 0, "decrease": 1, "growth": 5, "chaoticity": 2}


class TestEvalGAll:
    @staticmethod
    def assert_agrees_with_scalar_fold(
        tt: TruthTable, mode: str = "exact", tables: HTables = DEFAULT_TABLES
    ) -> None:
        form = boolmin.minimal_form(tt, mode)
        codes = eval_g_all(form, tables).tolist()
        for i in range(1 << tt.arity):
            assert eval_m_naive(form, index_to_cells(i, tt.arity), tables) == codes[i]

    def test_agrees_with_scalar_eval(self):
        self.assert_agrees_with_scalar_fold(elementary(110))

    def test_agrees_with_scalar_eval_on_game_of_life(self):
        self.assert_agrees_with_scalar_fold(gol_truth_table())

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(range(1, 10)),
        st.floats(0, 1),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from(["exact", "greedy", "auto"]),
    )
    def test_fold_matches_tree_walk_under_random_tables(self, arity, density, seed, split, mode):
        # Arbitrary asymmetric tables: any slip in the fold order shows.
        tt = random_table(arity, density, seed, split)
        tables = random_tables(np.random.default_rng([seed, 1]))
        try:
            self.assert_agrees_with_scalar_fold(tt, mode, tables)
        except boolmin.CoverBudgetExceeded:
            assert mode == "exact"

    def test_profile_refolds_under_other_tables(self):
        tables = random_tables(np.random.default_rng(5))
        profile = rule_profile(gol_truth_table(), "exact")
        refolded = profile.refolded(tables)
        assert refolded.form is profile.form
        assert refolded.mcodes.tolist() == rule_profile(gol_truth_table(), "exact", tables).mcodes.tolist()
        with pytest.raises(ValueError):
            refolded.mcodes[0] = 1


class TestValidateH:
    def test_all_constraints_pass(self):
        results = validate_h()
        failed = [r for r in results if not r.passed]
        assert not failed, failed

    def test_perturbed_tables_fail(self):
        # Breaking the AND table's destroyed-live-input entry must trip
        # at least one documented constraint.
        broken = DEFAULT_TABLES.replaced("and", 5, 0, 0)
        results = validate_h(broken)
        assert any(not r.passed for r in results)

    def test_perturbed_xor_chaos_fails(self):
        broken = DEFAULT_TABLES.replaced("xor", 5, 5, 0)
        results = validate_h(broken)
        assert any(not r.passed for r in results)


class TestReadOnlyTables:
    @pytest.mark.parametrize("name", ["not_table", "and_table", "or_table", "xor_table"])
    def test_default_tables_reject_assignment(self, name):
        table = getattr(DEFAULT_TABLES, name)
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 3
        with pytest.raises(ValueError):
            getattr(DEFAULT_TABLES.replaced("or", 5, 5, 4), name)[(0,) * table.ndim] = 3

    def test_tables_copy_caller_arrays(self):
        and_table = DEFAULT_TABLES.and_table.copy()
        tables = HTables(and_table=and_table)
        and_table[0, 0] = 3
        assert tables.and_table[0, 0] == 0

    def test_tables_are_uint8_m_codes(self):
        tables = HTables(and_table=DEFAULT_TABLES.and_table.astype(np.int64))
        assert tables.and_table.dtype == np.uint8
        for bad in ({"not_table": np.full(6, 6)}, {"or_table": np.zeros((6, 5))},
                    {"xor_table": np.full((6, 6), -1)}):
            with pytest.raises(ValueError, match="M codes"):
                HTables(**bad)

    def test_replaced_leaves_the_original(self):
        broken = DEFAULT_TABLES.replaced("and", 5, 0, 0)
        assert (broken.and_table[5, 0], broken.and_table[0, 5]) == (0, 0)
        assert (DEFAULT_TABLES.and_table[5, 0], DEFAULT_TABLES.and_table[0, 5]) == (1, 1)


class TestFoldOrder:
    def test_literals_fold_before_xor_factors(self):
        # In q & (p ^ r) the literal enters the AND fold first. Under
        # asymmetric tables the XOR factor first would give other codes.
        form = boolmin.minimal_form(elementary(72), "exact")
        assert form.format() == "q & (p ^ r)"
        tables = random_tables(np.random.default_rng(0))
        literal_first, factor_first = [], []
        for i in range(8):
            p, q, r = (5 * c for c in index_to_cells(i, 3))
            factor = tables.xor_table[p, r]
            literal_first.append(int(tables.and_table[q, factor]))
            factor_first.append(int(tables.and_table[factor, q]))
        assert eval_g_all(form, tables).tolist() == literal_first != factor_first
