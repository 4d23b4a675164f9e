import json
import math
import re

import pytest

from lifelike.catalog import (
    CatalogError,
    CatalogRecord,
    import_published_rules,
    read_catalog,
    write_catalog,
)
from lifelike.heval import rule_profile
from lifelike.measures import (
    BehaviorVector,
    DynamicParams,
    correlation,
    dynamic_measure,
    static_measure,
)
from lifelike.rules import gol_truth_table

GOL_RULE_NUMBER = (
    "476348294852520375132009738840824718882889556423255282629108"
    "876378472743729817205343700177683429960362194923168607044012"
    "73651054628223608960"
)


def record(**overrides):
    base = dict(
        rule="94",
        arity=3,
        me=[0.0, 12.5, 62.5, 25.0],
        md=None,
        fitness=None,
        correlation=None,
        metadata={},
    )
    base.update(overrides)
    return CatalogRecord(**base)


class TestCatalogRecord:
    def test_round_trip(self):
        r = record(md=[0.0, 50.0, 25.0, 25.0], fitness=1.5, metadata={"seed": 3})
        assert CatalogRecord.from_json(r.to_json()) == r

    def test_big_rule_number_survives_json(self):
        r = record(rule=GOL_RULE_NUMBER, arity=9, me=[0.0, 6.25, 27.34375, 66.40625])
        assert CatalogRecord.from_json(r.to_json()).rule == GOL_RULE_NUMBER

    def test_vector_must_sum_to_100(self):
        with pytest.raises(CatalogError):
            record(me=[0.0, 0.0, 0.0, 50.0])

    def test_vector_length_checked(self):
        with pytest.raises(CatalogError):
            record(me=[100.0])

    def test_rule_must_decode_under_arity(self):
        with pytest.raises(CatalogError):
            record(rule="300", arity=3, me=[100.0, 0.0, 0.0, 0.0])

    def test_unknown_fields_rejected(self):
        with pytest.raises(CatalogError):
            CatalogRecord.from_json('{"rule": "94", "arity": 3, "me": [0,12.5,62.5,25], "extra": 1}')

    def test_missing_fields_rejected(self):
        with pytest.raises(CatalogError):
            CatalogRecord.from_json('{"rule": "94"}')

    def test_malformed_json_rejected(self):
        with pytest.raises(CatalogError):
            CatalogRecord.from_json("not json")

    def test_to_json_writes_no_non_standard_number(self):
        with pytest.raises(ValueError):
            record(metadata={"density": math.nan}).to_json()


class TestFromMeasures:
    ME = BehaviorVector(0.0, 12.5, 62.5, 25.0)

    def test_no_dynamic_measure_no_correlation(self):
        r = CatalogRecord.from_measures(94, 3, self.ME, None, {"seed": 3})
        assert r == record(metadata={"seed": 3})

    def test_constant_vector_no_correlation(self):
        md = BehaviorVector(25, 25, 25, 25)
        r = CatalogRecord.from_measures(94, 3, self.ME, md, {}, fitness=2.0)
        assert r.md == [25.0, 25.0, 25.0, 25.0] and r.fitness == 2.0
        assert r.correlation is None

    def test_game_of_life_correlation(self):
        profile = rule_profile(gol_truth_table())
        me = static_measure(profile)
        md = dynamic_measure(profile, DynamicParams(runs=2, dims=(24, 24), max_steps=10, seed=0))
        r = CatalogRecord.from_measures(int(GOL_RULE_NUMBER), 9, me, md, {"source": "gol"})
        assert r.correlation == correlation(me, md) and r.correlation is not None
        assert (r.rule, r.me, r.md) == (GOL_RULE_NUMBER, list(me.as_tuple()), list(md.as_tuple()))
        assert CatalogRecord.from_json(r.to_json()) == r

    def test_metadata_is_copied(self):
        metadata = {"seed": 3}
        a = CatalogRecord.from_measures(94, 3, self.ME, None, metadata)
        b = CatalogRecord.from_measures(94, 3, self.ME, None, metadata)
        assert a.metadata is not metadata and a.metadata is not b.metadata


#: A valid line's fields; each case of TestMalformedFields overrides one.
VALID_FIELDS = {"rule": "94", "arity": 3, "me": [0.0, 12.5, 62.5, 25.0]}


class TestMalformedFields:
    @pytest.mark.parametrize(
        "field",
        [
            {"rule": 94},
            {"rule": "-94"},
            {"rule": "9_4"},
            {"arity": "9"},
            {"rule": "1", "arity": True},
            {"arity": 99},
            {"me": None},
            {"me": "abcd"},
            {"me": [True, 0.0, 0.0, 99.0]},
            {"me": [float("nan"), 0.0, 0.0, 100.0]},
            {"md": 5},
            {"md": ["0", "0", "0", "100"]},
            {"fitness": "1.5"},
            {"fitness": float("inf")},
            {"fitness": float("nan")},
            {"correlation": [1.0]},
            {"correlation": float("-inf")},
            {"metadata": []},
        ],
        ids=repr,
    )
    def test_read_catalog_names_the_line(self, tmp_path, field):
        path = tmp_path / "catalog.jsonl"
        path.write_text(record().to_json() + "\n" + json.dumps({**VALID_FIELDS, **field}) + "\n")
        with pytest.raises(CatalogError, match=f"^{re.escape(str(path))}:2: "):
            read_catalog(path)


class TestCatalogIO:
    def test_write_read_round_trip(self, tmp_path):
        records = [
            record(metadata={"seed": 1}),
            record(rule="110", me=[25.0, 12.5, 37.5, 25.0]),
        ]
        path = tmp_path / "catalog.jsonl"
        write_catalog(records, path)
        assert read_catalog(path) == records

    def test_read_reports_line_numbers(self, tmp_path):
        path = tmp_path / "catalog.jsonl"
        path.write_text(record().to_json() + "\nbroken\n")
        with pytest.raises(CatalogError, match="2"):
            read_catalog(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "catalog.jsonl"
        path.write_text("\n" + record().to_json() + "\n\n")
        assert len(read_catalog(path)) == 1


class TestImportPublishedRules:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("")
        assert import_published_rules(path) == []

    def test_valid_rules_get_static_measures(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text(f"{GOL_RULE_NUMBER}\n")
        records = import_published_rules(path)
        assert len(records) == 1
        assert records[0].arity == 9
        assert records[0].me[0] == 0.0  # GoL static stability

    def test_garbage_line_skipped_with_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "rules.txt"
        path.write_text(f"{GOL_RULE_NUMBER}\nnot-a-number\n{GOL_RULE_NUMBER}\n")
        records = import_published_rules(path)
        assert len(records) == 2
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("arity", [-1, 10])  # a large arity would allocate 2^2^A bits
    def test_arity_out_of_range_raises_before_opening(self, tmp_path, arity):
        with pytest.raises(CatalogError, match=rf"arity must lie in \[0, 9\], got {arity}"):
            import_published_rules(tmp_path / "missing.txt", arity=arity)

    def test_elementary_arity(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("94\n")
        records = import_published_rules(path, arity=3)
        assert records[0].me == [0.0, 12.5, 62.5, 25.0]

    def test_dynamic_on_request(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("94\n")
        params = DynamicParams(runs=2, dims=48, max_steps=10, seed=0)
        records = import_published_rules(path, arity=3, dynamic_params=params)
        assert records[0].md is not None
        assert sum(records[0].md) == pytest.approx(100.0)
