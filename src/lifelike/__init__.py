"""Behavior-based characterization and search of binary cellular automata.

Pipeline: decode a rule number into a truth table, minimize it into a
minimal Boolean form, re-evaluate the form over a 6-valued
state/behavior code, and summarize the codes as static and dynamic
behavior measures. A genetic algorithm searches the 2D Moore-neighborhood
rule space for automata whose measures approach a target such as the
Game of Life's.
"""
from .boolmin import CoverBudgetExceeded, MinimalForm, minimal_form
from .catalog import CatalogError, CatalogRecord, import_published_rules, read_catalog, write_catalog
from .heval import DEFAULT_TABLES, HTables, RuleProfile, rule_profile, validate_h
from .measures import (
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
from .rules import (
    RuleError,
    RuleNumber,
    TruthTable,
    decode_rule_number,
    elementary,
    encode_rule_number,
    format_rule_spec,
    gol_truth_table,
    parse_rule_spec,
)
from .search import GAConfig, run_ga
from .simulator import (
    LatticeError,
    evolve,
    m_field,
    random_lattice,
    render_ppm,
    step,
)

__all__ = [
    "BehaviorVector",
    "CatalogError",
    "CatalogRecord",
    "CoverBudgetExceeded",
    "DEFAULT_TABLES",
    "DynamicParams",
    "GAConfig",
    "GOL_TARGET",
    "HTables",
    "LatticeError",
    "MeasureError",
    "MinimalForm",
    "RuleError",
    "RuleNumber",
    "RuleProfile",
    "TruthTable",
    "correlation",
    "decode_rule_number",
    "distance",
    "dynamic_measure",
    "elementary",
    "encode_rule_number",
    "evolve",
    "feature_vector",
    "format_rule_spec",
    "gol_truth_table",
    "import_published_rules",
    "m_field",
    "minimal_form",
    "parse_rule_spec",
    "random_lattice",
    "read_catalog",
    "render_ppm",
    "rule_profile",
    "run_ga",
    "static_measure",
    "step",
    "validate_h",
    "write_catalog",
]

__version__ = "0.1.0"
