"""Rules, neighborhoods, and number encodings for binary cellular automata.

A rule is a truth table over m neighborhood bits: m=3 for elementary
(1D, radius 1) automata and m=9 for 2D Moore-neighborhood automata.
Neighborhood bits are ordered most-significant-first; in 2D the order is
the row-major scan of the 3x3 block (NW, N, NE, W, C, E, SW, SE read as
x0..x8, with x4 the center).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

ELEMENTARY_ARITY = 3
MOORE_ARITY = 9

#: Bit-significance conventions for big-integer rule numbers.
#: "lsb": output for neighborhood index i is bit i of the rule number.
#: "msb": output for index i is bit (2^m - 1 - i).
BIT_ORDERS = ("lsb", "msb")


class RuleError(ValueError):
    """Invalid rule number, truth table, or rule-spec string."""


@dataclass(frozen=True)
class TruthTable:
    """A local transition function as 2^arity output bits.

    Public rules use arity 3 or 9; smaller arities appear internally as
    cofactors during expression minimization.
    """

    arity: int
    outputs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.arity <= MOORE_ARITY:
            raise RuleError(f"unsupported arity {self.arity}")
        if len(self.outputs) != 1 << self.arity:
            raise RuleError(
                f"expected {1 << self.arity} outputs for arity {self.arity}, "
                f"got {len(self.outputs)}"
            )
        if any(b not in (0, 1) for b in self.outputs):
            raise RuleError("outputs must be bits")

    def as_array(self) -> np.ndarray:
        return np.array(self.outputs, dtype=np.uint8)

    @property
    def onset(self) -> tuple[int, ...]:
        """Indices whose output is 1."""
        return tuple(i for i, b in enumerate(self.outputs) if b)


@dataclass(frozen=True)
class RuleNumber:
    """Arbitrary-precision rule number under a fixed arity."""

    value: int
    arity: int

    def __post_init__(self) -> None:
        if not 0 <= self.arity <= MOORE_ARITY:  # before 2^(2^arity) is computed
            raise RuleError(f"unsupported arity {self.arity}")
        if self.value < 0 or self.value >= 1 << (1 << self.arity):
            raise RuleError(
                f"rule number out of range for arity {self.arity}: {self.value}"
            )


# --- M code -----------------------------------------------------------------
#
# Six-valued alphabet pairing the next cell state with a behavior label:
#   0 {0, stable}   1 {0, decrease}   2 {0, chaotic}
#   3 {1, chaotic}  4 {1, growth}     5 {1, stable}

M_VALUES = (0, 1, 2, 3, 4, 5)
M_STATE = (0, 0, 0, 1, 1, 1)

DECREASE_CODES = (1,)
CHAOTIC_CODES = (2, 3)
GROWTH_CODES = (4,)


def state_of(m: int) -> int:
    """Next-state bit carried by an M code."""
    return M_STATE[m]


# --- neighborhood indexing --------------------------------------------------

def neighborhood_index(cells: Sequence[int]) -> int:
    """Integer value of a neighborhood bit tuple, first element most significant."""
    m = len(cells)
    value = 0
    for bit in cells:
        if bit not in (0, 1):
            raise RuleError(f"neighborhood cells must be bits, got {bit!r}")
        value = (value << 1) | bit
    return value


def index_to_cells(index: int, arity: int) -> tuple[int, ...]:
    """Inverse of neighborhood_index for a fixed arity."""
    return tuple((index >> (arity - 1 - i)) & 1 for i in range(arity))


# --- rule-number codecs -----------------------------------------------------

def decode_rule_number(rn: RuleNumber, bit_order: str = "lsb") -> TruthTable:
    """Expand a rule number into its truth table.

    Under "lsb" order, outputs[i] is bit i of the number (the Wolfram
    convention for elementary rules).
    """
    if bit_order not in BIT_ORDERS:
        raise RuleError(f"unknown bit order {bit_order!r}")
    n = 1 << rn.arity
    bits = [(rn.value >> i) & 1 for i in range(n)]
    if bit_order == "msb":
        bits.reverse()
    return TruthTable(rn.arity, tuple(bits))


def encode_rule_number(tt: TruthTable, bit_order: str = "lsb") -> RuleNumber:
    """Pack a truth table into a rule number; inverse of decode_rule_number."""
    if bit_order not in BIT_ORDERS:
        raise RuleError(f"unknown bit order {bit_order!r}")
    bits = tt.outputs if bit_order == "lsb" else tuple(reversed(tt.outputs))
    value = 0
    for i, b in enumerate(bits):
        value |= b << i
    return RuleNumber(value, tt.arity)


def elementary(rule: int) -> TruthTable:
    """Truth table of an elementary rule, 0..255."""
    if not 0 <= rule <= 255:
        raise RuleError(f"elementary rule must be in 0..255, got {rule}")
    return decode_rule_number(RuleNumber(rule, ELEMENTARY_ARITY))


@lru_cache(maxsize=1)
def gol_truth_table() -> TruthTable:
    """B3/S23 Game of Life as a 512-entry Moore-neighborhood truth table."""
    outputs = []
    for idx in range(1 << MOORE_ARITY):
        cells = index_to_cells(idx, MOORE_ARITY)
        center = cells[4]
        live = sum(cells) - center
        if center:
            outputs.append(1 if live in (2, 3) else 0)
        else:
            outputs.append(1 if live == 3 else 0)
    return TruthTable(MOORE_ARITY, tuple(outputs))


# --- rule-spec strings ------------------------------------------------------
#
# CLI grammar: elem:<0..255> | moore2d:<decimal bigint> | table:<path>
# where the table file is one line of 2^m '0'/'1' characters, index 0 first.

def parse_rule_spec(text: str, bit_order: str = "lsb") -> TruthTable:
    """Parse a rule-spec string into a truth table."""
    kind, sep, body = text.partition(":")
    if not sep:
        raise RuleError(f"malformed rule spec {text!r} (expected kind:value)")
    if kind == "elem":
        try:
            number = int(body)
        except ValueError:
            raise RuleError(f"bad elementary rule number {body!r}") from None
        return elementary(number)
    if kind == "moore2d":
        try:
            number = int(body)
        except ValueError:
            raise RuleError(f"bad 2D rule number {body!r}") from None
        return decode_rule_number(RuleNumber(number, MOORE_ARITY), bit_order)
    if kind == "table":
        path = Path(body)
        try:
            line = path.read_text().strip()
        except OSError as exc:
            raise RuleError(f"cannot read table file {body!r}: {exc}") from None
        if any(ch not in "01" for ch in line):
            raise RuleError(f"table file {body!r} must contain only 0/1")
        length = len(line)
        if length == 1 << ELEMENTARY_ARITY:
            arity = ELEMENTARY_ARITY
        elif length == 1 << MOORE_ARITY:
            arity = MOORE_ARITY
        else:
            raise RuleError(
                f"table file {body!r} has {length} bits; expected 8 or 512"
            )
        return TruthTable(arity, tuple(int(ch) for ch in line))
    raise RuleError(f"unknown rule-spec kind {kind!r}")


def format_rule_spec(tt: TruthTable, bit_order: str = "lsb") -> str:
    """Canonical rule-spec string for a truth table."""
    rn = encode_rule_number(tt, bit_order)
    if tt.arity == ELEMENTARY_ARITY:
        return f"elem:{rn.value}"
    if tt.arity == MOORE_ARITY:
        return f"moore2d:{rn.value}"
    raise RuleError(f"no rule-spec form for arity {tt.arity}")
