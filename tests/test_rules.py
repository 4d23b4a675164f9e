import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lifelike.rules import (
    ELEMENTARY_ARITY,
    MOORE_ARITY,
    RuleError,
    RuleNumber,
    TruthTable,
    decode_rule_number,
    elementary,
    encode_rule_number,
    format_rule_spec,
    gol_truth_table,
    index_to_cells,
    neighborhood_index,
    parse_rule_spec,
)


class TestNeighborhoodIndex:
    def test_first_element_most_significant(self):
        assert neighborhood_index((1, 0, 0)) == 4
        assert neighborhood_index((0, 0, 1)) == 1
        assert neighborhood_index((1, 1, 1)) == 7

    def test_round_trip_all_elementary(self):
        for idx in range(8):
            assert neighborhood_index(index_to_cells(idx, 3)) == idx

    def test_rejects_non_bits(self):
        with pytest.raises(RuleError):
            neighborhood_index((0, 2, 0))

    @given(st.integers(0, 511))
    def test_round_trip_moore(self, idx):
        assert neighborhood_index(index_to_cells(idx, MOORE_ARITY)) == idx


class TestTruthTable:
    def test_rejects_wrong_length(self):
        with pytest.raises(RuleError):
            TruthTable(3, (0, 1))

    def test_rejects_non_bits(self):
        with pytest.raises(RuleError):
            TruthTable(1, (0, 2))

    def test_onset(self):
        assert elementary(90).onset == (1, 3, 4, 6)

    def test_as_array(self):
        arr = elementary(90).as_array()
        assert arr.dtype == np.uint8
        assert list(arr) == list(elementary(90).outputs)


class TestRuleNumbers:
    def test_elementary_wolfram_convention(self):
        # Rule 110: neighborhoods 110,101,100,011,010,001 map to 0,1,1,0,1,1,1,0
        tt = elementary(110)
        assert tt.outputs == (0, 1, 1, 1, 0, 1, 1, 0)

    def test_elementary_range(self):
        with pytest.raises(RuleError):
            elementary(256)
        with pytest.raises(RuleError):
            elementary(-1)

    def test_rule_number_range(self):
        with pytest.raises(RuleError):
            RuleNumber(256, ELEMENTARY_ARITY)
        RuleNumber((1 << 512) - 1, MOORE_ARITY)
        with pytest.raises(RuleError):
            RuleNumber(1 << 512, MOORE_ARITY)

    @pytest.mark.parametrize("arity", [-1, 10, 99])
    def test_arity_checked_before_the_range(self, arity):
        # 1 << (1 << 99) does not fit in memory; the arity check comes first.
        with pytest.raises(RuleError, match=f"unsupported arity {arity}"):
            RuleNumber(0, arity)

    @given(st.integers(0, 255))
    def test_decode_encode_round_trip(self, n):
        rn = RuleNumber(n, ELEMENTARY_ARITY)
        assert encode_rule_number(decode_rule_number(rn)) == rn

    @given(st.integers(0, (1 << 512) - 1), st.sampled_from(["lsb", "msb"]))
    def test_decode_encode_round_trip_moore(self, n, order):
        rn = RuleNumber(n, MOORE_ARITY)
        assert encode_rule_number(decode_rule_number(rn, order), order) == rn

    def test_bit_orders_are_reverses(self):
        rn = RuleNumber(90, ELEMENTARY_ARITY)
        lsb = decode_rule_number(rn, "lsb")
        msb = decode_rule_number(rn, "msb")
        assert lsb.outputs == tuple(reversed(msb.outputs))


class TestGameOfLife:
    def test_dead_cell_born_with_three_neighbors(self):
        tt = gol_truth_table()
        cells = [0] * 9
        for i in (0, 1, 2):
            cells[i] = 1
        assert tt.outputs[neighborhood_index(cells)] == 1

    def test_live_cell_survival_counts(self):
        tt = gol_truth_table()
        for live in range(9):
            cells = [0] * 9
            cells[4] = 1
            neighbors = [i for i in range(9) if i != 4][:live]
            for i in neighbors:
                cells[i] = 1
            expected = 1 if live in (2, 3) else 0
            assert tt.outputs[neighborhood_index(cells)] == expected

    def test_onset_size(self):
        # 140 live-output neighborhoods: C(8,3) births + center-alive survivals.
        assert len(gol_truth_table().onset) == 140


class TestRuleSpecs:
    def test_elem(self):
        assert parse_rule_spec("elem:94") == elementary(94)

    def test_elem_out_of_range(self):
        with pytest.raises(RuleError):
            parse_rule_spec("elem:256")

    def test_moore2d_round_trip(self):
        spec = format_rule_spec(gol_truth_table())
        assert spec.startswith("moore2d:")
        assert parse_rule_spec(spec) == gol_truth_table()

    def test_table_file(self, tmp_path):
        path = tmp_path / "rule.txt"
        path.write_text("01011010\n")
        assert parse_rule_spec(f"table:{path}") == elementary(90)

    def test_table_file_bad_length(self, tmp_path):
        path = tmp_path / "rule.txt"
        path.write_text("0101\n")
        with pytest.raises(RuleError):
            parse_rule_spec(f"table:{path}")

    def test_malformed_spec(self):
        for bad in ("elem", "elem:x", "moore2d:zz", "what:1"):
            with pytest.raises(RuleError):
                parse_rule_spec(bad)
