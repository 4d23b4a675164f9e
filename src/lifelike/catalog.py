"""JSONL catalogs of analyzed rules and the published-rules importer.

One JSON object per line. Rule numbers are decimal strings so that 512-bit
values survive any JSON consumer.
"""
from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable

from .heval import rule_profile
from .measures import BehaviorVector, correlation, dynamic_measure, static_measure
from .rules import MOORE_ARITY, RuleError, RuleNumber, TruthTable, decode_rule_number

_VECTOR_TOLERANCE = 1e-6


class CatalogError(ValueError):
    pass


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_vector(name: str, vec) -> list[float]:
    if not isinstance(vec, (list, tuple)) or not all(map(_is_number, vec)):
        raise CatalogError(f"{name} must be a list of 4 numbers, got {vec!r}")
    vec = [float(v) for v in vec]
    if len(vec) != 4:
        raise CatalogError(f"{name} must have 4 components, got {len(vec)}")
    if not abs(sum(vec) - 100.0) <= _VECTOR_TOLERANCE:  # NaN fails too
        raise CatalogError(f"{name} must sum to 100, got {sum(vec)}")
    return vec


@dataclass
class CatalogRecord:
    """One analyzed rule: its number, behavior measures, and search context."""

    rule: str
    arity: int
    me: list[float]
    md: list[float] | None = None
    fitness: float | None = None
    correlation: float | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (isinstance(self.rule, str) and self.rule.isascii() and self.rule.isdigit()):
            raise CatalogError(f"rule must be a decimal string, got {self.rule!r}")
        if type(self.arity) is not int:
            raise CatalogError(f"arity must be an integer, got {self.arity!r}")
        try:
            RuleNumber(int(self.rule), self.arity)
        except ValueError as exc:  # RuleError, or too many digits for int
            raise CatalogError(f"invalid rule number for arity {self.arity}: {exc}")
        self.me = _check_vector("me", self.me)
        if self.md is not None:
            self.md = _check_vector("md", self.md)
        for name in ("fitness", "correlation"):
            value = getattr(self, name)
            if value is not None and not (_is_number(value) and math.isfinite(value)):
                raise CatalogError(f"{name} must be a finite number or null, got {value!r}")
        if not isinstance(self.metadata, dict):
            raise CatalogError(f"metadata must be an object, got {self.metadata!r}")

    @classmethod
    def from_measures(
        cls,
        rule: int,
        arity: int,
        me: BehaviorVector,
        md: BehaviorVector | None,
        metadata: dict[str, Any],
        fitness: float | None = None,
    ) -> "CatalogRecord":
        """The record of a measured rule: its vectors as lists and their
        correlation, None without `md` or where it is undefined. The record
        holds a copy of `metadata`, so no two records share one."""
        return cls(
            rule=str(rule),
            arity=arity,
            me=list(me.as_tuple()),
            md=None if md is None else list(md.as_tuple()),
            fitness=fitness,
            correlation=None if md is None else correlation(me, md),
            metadata=dict(metadata),
        )

    def to_json(self) -> str:
        """One line of strict JSON: NaN and infinities are never written."""
        return json.dumps(asdict(self), sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, line: str) -> "CatalogRecord":
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CatalogError(f"malformed JSON: {exc}")
        if not isinstance(data, dict):
            raise CatalogError("catalog line must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise CatalogError(f"unknown fields: {sorted(unknown)}")
        missing = {"rule", "arity", "me"} - set(data)
        if missing:
            raise CatalogError(f"missing fields: {sorted(missing)}")
        return cls(**data)


def write_catalog(records: Iterable[CatalogRecord], path: str | Path) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(record.to_json() + "\n")


def read_catalog(path: str | Path) -> list[CatalogRecord]:
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(CatalogRecord.from_json(line))
            except CatalogError as exc:
                raise CatalogError(f"{path}:{lineno}: {exc}")
    return records


def _measure(
    decoded: tuple[RuleNumber, TruthTable], cover_mode: str, dynamic_params, metadata: dict
) -> CatalogRecord:
    """The record of one decoded rule; it has no dynamic measure without
    `dynamic_params`."""
    number, tt = decoded
    profile = rule_profile(tt, cover_mode)
    me = static_measure(profile)
    md = None if dynamic_params is None else dynamic_measure(profile, dynamic_params)
    return CatalogRecord.from_measures(number.value, number.arity, me, md, metadata)


def import_published_rules(
    path: str | Path,
    bit_order: str = "lsb",
    arity: int = 9,
    dynamic_params=None,
    cover_mode: str = "greedy",
    map_fn=map,
) -> list[CatalogRecord]:
    """Decode a plain-text file of decimal rule numbers, one per line.

    Each valid line becomes a record with its static measure; pass
    `dynamic_params` to also sample the dynamic measure (off by default —
    decoding hundreds of rules should not force hundreds of simulations).
    Malformed lines are reported to sys.stderr with their line number and
    skipped; the remaining lines still produce records. An arity outside
    [0, 9] raises CatalogError before the file is opened.

    Every line is decoded first; the decoded rules are then measured, and
    their records built, with one call of `map_fn(job, rules)`, which must
    return the results in order (a process pool's `map` measures them in
    parallel).
    """
    if not 0 <= arity <= MOORE_ARITY:
        raise CatalogError(f"arity must lie in [0, {MOORE_ARITY}], got {arity}")
    decoded = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                number = RuleNumber(int(text), arity)
                tt = decode_rule_number(number, bit_order)
            except (ValueError, RuleError) as exc:
                print(f"{path}:{lineno}: skipped: {exc}", file=sys.stderr)
                continue
            decoded.append((number, tt))
    job = functools.partial(
        _measure,
        cover_mode=cover_mode,
        dynamic_params=dynamic_params,
        metadata={"source": str(path), "bit_order": bit_order, "cover_mode": cover_mode},
    )
    return list(map_fn(job, decoded))
