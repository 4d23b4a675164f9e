"""Six-valued operator tables and behavior-aware evaluation of minimal forms.

Each cell of the truth table is re-evaluated over the M code (state bit
plus behavior label) instead of plain bits: leaves map 0 -> M=0 and
1 -> M=5, and every NOT/AND/OR/XOR operator combines M codes through
fixed 6-valued tables. The state bit of the result always projects back to the
plain Boolean value; the behavior axis carries the growth / decrease /
chaoticity bookkeeping.

The binary tables follow a severity order chaotic > decrease > stable on
state-0 results, and a destroyed live input (operand states differing
under AND) reads as decrease. Each n-ary operator of a
`boolmin.MinimalForm` folds its operands left to right in the form's
order: a product's literals by variable, then its XOR factors; the
products as the form lists them; the split variables, ascending, then
the core.

`rule_profile` minimizes a rule once and M-codes its whole truth table;
the measures, the simulator, the search and the CLI all read that
profile.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import boolmin
from .boolmin import MinimalForm
from .rules import (
    CHAOTIC_CODES,
    DECREASE_CODES,
    GROWTH_CODES,
    M_VALUES,
    TruthTable,
    elementary,
    state_of,
)


def _severity(codes: Sequence[int]) -> int:
    """State-0 result code under chaotic > decrease > stable."""
    if any(c in CHAOTIC_CODES for c in codes):
        return 2
    if any(c in DECREASE_CODES for c in codes):
        return 1
    return 0


def _build_not() -> np.ndarray:
    # Involution flipping the state bit and preserving the behavior axis.
    return np.array([5 - a for a in M_VALUES], dtype=np.uint8)


def _build_and() -> np.ndarray:
    table = np.zeros((6, 6), dtype=np.uint8)
    for a in M_VALUES:
        for b in M_VALUES:
            sa, sb = state_of(a), state_of(b)
            if sa & sb:
                if a == b == 5:
                    out = 5
                elif 3 in (a, b):
                    out = 3
                else:
                    out = 4
            elif sa != sb:
                out = 1  # a live input was destroyed
            else:
                out = _severity((a, b))
            table[a, b] = out
    return table


def _build_or() -> np.ndarray:
    table = np.zeros((6, 6), dtype=np.uint8)
    for a in M_VALUES:
        for b in M_VALUES:
            if state_of(a) | state_of(b):
                table[a, b] = 5 if a == b == 5 else 4
            else:
                table[a, b] = _severity((a, b))
    return table


def _build_xor() -> np.ndarray:
    table = np.zeros((6, 6), dtype=np.uint8)
    for a in M_VALUES:
        for b in M_VALUES:
            sa, sb = state_of(a), state_of(b)
            if sa ^ sb:
                table[a, b] = 4
            elif sa and sb:
                table[a, b] = 2
            elif a in CHAOTIC_CODES or b in CHAOTIC_CODES:
                table[a, b] = 2
            else:
                table[a, b] = 0
    return table


@dataclass(frozen=True, eq=False)
class HTables:
    """Operator tables over the 6-valued M domain.

    Each table is a read-only uint8 copy of the array passed in, so no
    caller can change a table that DEFAULT_TABLES and every profile
    share. not_table has shape (6,), the others (6, 6), and every entry is
    an M code: eval_g_all reads table[a, b] at a * 6 + b of the flat table.
    """

    not_table: np.ndarray = field(default_factory=_build_not)
    and_table: np.ndarray = field(default_factory=_build_and)
    or_table: np.ndarray = field(default_factory=_build_or)
    xor_table: np.ndarray = field(default_factory=_build_xor)

    def __post_init__(self) -> None:
        for name in ("not_table", "and_table", "or_table", "xor_table"):
            table = np.array(getattr(self, name))
            shape = (6,) if name == "not_table" else (6, 6)
            if table.shape != shape or not np.isin(table, M_VALUES).all():
                raise ValueError(f"{name} must be a {shape} array of M codes 0-5")
            table = table.astype(np.uint8)
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    def replaced(self, op: str, a: int, b: int | None, value: int) -> "HTables":
        """Copy with one entry perturbed (for sensitivity checks)."""
        arrays = {
            "not": self.not_table,
            "and": self.and_table,
            "or": self.or_table,
            "xor": self.xor_table,
        }
        table = arrays[op] = arrays[op].copy()
        if op == "not":
            table[a] = value
        else:
            table[a, b] = value
            table[b, a] = value
        return HTables(arrays["not"], arrays["and"], arrays["or"], arrays["xor"])


DEFAULT_TABLES = HTables()


def _apply(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """table[a, b] for uint8 M-code arrays: one take from the flat table."""
    return table.ravel().take(a * 6 + b)


def _fold_terms(terms: Sequence[boolmin.Term], leaves: np.ndarray, tables: HTables) -> np.ndarray:
    """Or over the terms' products, each the And of its children."""
    m = len(leaves)
    # Atom rows: x_j at j, !x_j at m + j, x_a ^ x_b at 2m + a*m + b.
    pairs = _apply(tables.xor_table, leaves[:, None], leaves).reshape(m * m, -1)
    atoms = np.concatenate([leaves, tables.not_table[leaves], pairs])
    children = [
        [j if value >> (m - 1 - j) & 1 else m + j for j in range(m) if mask >> (m - 1 - j) & 1]
        + [2 * m + a * m + b for a, b in xors]
        for mask, value, xors in terms
    ]
    # Rows by falling child count, so the products that still fold at
    # child position k are a prefix.
    counts = np.array([len(c) for c in children])
    order = np.argsort(-counts, kind="stable")
    index = np.zeros((len(children), counts.max()), dtype=np.intp)
    for row, t in enumerate(order):
        index[row, : counts[t]] = children[t]
    products = atoms[index[:, 0]]
    and_flat = tables.and_table.ravel()
    for k in range(1, index.shape[1]):
        live = products[: np.count_nonzero(counts > k)]
        live *= 6
        live += atoms[index[: len(live), k]]
        and_flat.take(live, out=live)
    products = products[np.argsort(order)]
    core = products[0]
    for product in products[1:]:
        core = _apply(tables.or_table, core, product)
    return core


def eval_g_all(form: MinimalForm, tables: HTables = DEFAULT_TABLES) -> np.ndarray:
    """M codes of a minimal form for every assignment, by neighborhood index.

    Folds the form in its term order. Each product folds its children (literals by variable, then
    XOR factors) through and_table, all products one child position at a
    time; the products fold left to right through or_table; then the
    split leaves, ascending, and that core fold through xor_table, and
    not_table applies if the form is negated.
    """
    m, n = form.arity, 1 << form.arity
    leaves = (np.arange(n) >> np.arange(m - 1, -1, -1)[:, None] & 1).astype(np.uint8) * 5
    rows = list(leaves[list(form.splits)])
    if form.terms:
        rows.append(_fold_terms(form.terms, leaves, tables))
    if not rows:
        return np.full(n, 5 * form.negated, dtype=np.uint8)
    acc = rows[0]
    for row in rows[1:]:
        acc = _apply(tables.xor_table, acc, row)
    return tables.not_table[acc] if form.negated else acc


@dataclass(frozen=True, eq=False)
class RuleProfile:
    """A rule's minimal form and its M-coded truth table.

    mcodes holds one M code per neighborhood index (read-only uint8).
    """

    tt: TruthTable
    form: MinimalForm
    mcodes: np.ndarray

    @property
    def cover_mode(self) -> str:
        """The cover strategy actually used ("exact" or "greedy")."""
        return self.form.cover_mode

    def refolded(self, tables: HTables) -> "RuleProfile":
        """The same form M-coded under other operator tables."""
        return _profile(self.tt, self.form, tables)


def _profile(tt: TruthTable, form: MinimalForm, tables: HTables) -> RuleProfile:
    mcodes = eval_g_all(form, tables)
    mcodes.setflags(write=False)
    return RuleProfile(tt, form, mcodes)


def rule_profile(
    tt: TruthTable, mode: str = "auto", tables: HTables = DEFAULT_TABLES
) -> RuleProfile:
    """Minimize tt once and evaluate the result over M for every neighborhood."""
    return _profile(tt, boolmin.minimal_form(tt, mode), tables)


# --- constraint suite -------------------------------------------------------

@dataclass(frozen=True)
class ConstraintResult:
    name: str
    passed: bool
    expected: str
    actual: str


def _mcodes(rule: int, tables: HTables) -> tuple[int, ...]:
    """M-coded table of an elementary rule under an exact cover."""
    return tuple(rule_profile(elementary(rule), "exact", tables).mcodes.tolist())


def validate_h(tables: HTables = DEFAULT_TABLES) -> list[ConstraintResult]:
    """Check every documented constraint on the operator tables.

    Covers the leaf mapping, the behavior fractions of the reference
    elementary rules, the full M-coded table of rule 94, and the
    intermediate values of its 101-input evaluation.
    """
    results: list[ConstraintResult] = []

    def check(name: str, expected, actual) -> None:
        results.append(
            ConstraintResult(name, expected == actual, repr(expected), repr(actual))
        )

    leaves = tuple(rule_profile(TruthTable(1, (0, 1)), "exact", tables).mcodes.tolist())
    check("leaf mapping 0->M0, 1->M5", (0, 5), leaves)

    fractions = [
        ("rule 150 chaoticity", CHAOTIC_CODES, 150, 0.375),
        ("rule 90 chaoticity", CHAOTIC_CODES, 90, 0.25),
        ("rule 204 chaoticity", CHAOTIC_CODES, 204, 0.0),
        ("rule 204 decrease", DECREASE_CODES, 204, 0.0),
        ("rule 128 decrease", DECREASE_CODES, 128, 0.75),
        ("rule 160 decrease", DECREASE_CODES, 160, 0.5),
        ("rule 254 growth", GROWTH_CODES, 254, 0.75),
        ("rule 250 growth", GROWTH_CODES, 250, 0.5),
    ]
    for name, codes, rule, expected in fractions:
        check(name, expected, sum(c in codes for c in _mcodes(rule, tables)) / 8)

    check("rule 94 M-coded table", (1, 4, 4, 4, 4, 2, 4, 2), _mcodes(94, tables))

    # Step-by-step values of the mixed expression (q & !p) | (p ^ r) on
    # input p=1, q=0, r=1. int() keeps the printed reprs plain.
    not_p = tables.not_table[5]
    q_and_not_p = tables.and_table[0, not_p]
    p_xor_r = tables.xor_table[5, 5]
    steps = (not_p, q_and_not_p, p_xor_r, tables.or_table[q_and_not_p, p_xor_r])
    check("mixed-node walkthrough on input 101", (0, 0, 2, 2), tuple(int(v) for v in steps))

    return results
