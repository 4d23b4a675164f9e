"""Lattice evolution, behavior fields, and image output.

Lattices are numpy uint8 arrays of 0/1 cells: 1D arrays for elementary
rules, 2D arrays for Moore-neighborhood rules. Boundaries are always
toroidal. Every update looks its cells up in a 2^m table keyed by the
packed neighborhood index, so one engine serves all rules.

The index is separable. Two rolls along the last axis give each cell a
3-bit row code (left, center, right), which is already the elementary
index; two rolls along the row axis stack the codes of the rows above,
at and below a cell into the 9-bit Moore index. The rolls act on the
trailing lattice axes only, so one call indexes a whole stack of
lattices, shape (n, N) or (n, H, W); the dynamic measure evolves its
runs that way. `evolve` indexes each frame once and reads both the next
state and the M code from that one index.

The next state is read from the rule's truth table, the M code from the
M-coded table of its `RuleProfile`, which is built once per rule and is
read-only.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .heval import RuleProfile
from .rules import ELEMENTARY_ARITY, MOORE_ARITY, TruthTable

#: Pixel colors for M codes 0..5 in rendered fields.
M_PALETTE = (
    (255, 255, 255),  # 0 {0, stable}: white
    (255, 255, 0),    # 1 {0, decrease}: yellow
    (0, 255, 0),      # 2 {0, chaotic}: green
    (255, 0, 0),      # 3 {1, chaotic}: red
    (0, 0, 255),      # 4 {1, growth}: blue
    (0, 0, 0),        # 5 {1, stable}: black
)


class LatticeError(ValueError):
    """Lattice shape incompatible with the rule arity."""


def _check_dims(c: np.ndarray, tt: TruthTable) -> int:
    """Check that c is one lattice of tt or, for a Moore rule, an (n, H, W) stack.

    Returns the rank of one lattice: 1 for elementary rules, 2 for Moore rules.
    """
    if tt.arity == ELEMENTARY_ARITY:
        if c.ndim != 1:
            raise LatticeError("elementary rules evolve 1D lattices")
        return 1
    if tt.arity == MOORE_ARITY:
        if c.ndim not in (2, 3):
            raise LatticeError("Moore-neighborhood rules evolve 2D lattices or (n, H, W) stacks")
        return 2
    raise LatticeError(f"rules of arity {tt.arity} have no lattice")


def random_lattice(
    dims: int | tuple[int, int], density: float, rng: np.random.Generator
) -> np.ndarray:
    """Random 0/1 lattice with i.i.d. live probability `density` in [0, 1];
    every dimension must be at least 1."""
    if not 0.0 <= density <= 1.0:
        raise LatticeError(f"density must lie in [0, 1], got {density}")
    if np.any(np.asarray(dims) < 1):
        raise LatticeError(f"lattice dimensions must be >= 1, got {dims}")
    return (rng.random(dims) < density).astype(np.uint8)


def neighborhood_index_field(c: np.ndarray, rank: int | None = None) -> np.ndarray:
    """Packed neighborhood index of every cell, toroidal wrap.

    The last `rank` axes of `c` form one lattice (1: elementary, 2: Moore);
    any leading axes index a stack of lattices. `rank` defaults to c.ndim,
    a single lattice.
    """
    if rank is None:
        rank = c.ndim
    if rank not in (1, 2) or c.ndim < rank:
        raise LatticeError(f"cannot index rank-{rank} lattices in a {c.ndim}D array")
    c = c.astype(np.uint16)
    row = (np.roll(c, 1, -1) << 2) | (c << 1) | np.roll(c, -1, -1)
    if rank == 1:
        return row
    return (np.roll(row, 1, -2) << 6) | (row << 3) | np.roll(row, -1, -2)


def step(c: np.ndarray, tt: TruthTable) -> np.ndarray:
    """Synchronous update of every cell on the torus (of every lattice of a stack)."""
    rank = _check_dims(c, tt)
    return np.take(tt.as_array(), neighborhood_index_field(c, rank))


def m_field(c: np.ndarray, profile: RuleProfile) -> np.ndarray:
    """M code of every cell's next step; state projection equals step(c, profile.tt)."""
    rank = _check_dims(c, profile.tt)
    return np.take(profile.mcodes, neighborhood_index_field(c, rank))


@dataclass
class EvolutionHistory:
    """Frames C^0..C^T with aligned M fields D^1..D^T."""

    frames: list[np.ndarray]
    mfields: list[np.ndarray]


def evolve(c0: np.ndarray, profile: RuleProfile, steps: int) -> EvolutionHistory:
    if steps < 0:
        raise ValueError("step count must be non-negative")
    frames = [np.array(c0, dtype=np.uint8)]
    rank = _check_dims(frames[0], profile.tt)
    states = profile.tt.as_array()
    mfields: list[np.ndarray] = []
    for _ in range(steps):
        index = neighborhood_index_field(frames[-1], rank)
        mfields.append(np.take(profile.mcodes, index))
        frames.append(np.take(states, index))
    return EvolutionHistory(frames, mfields)


def averaged_spacetime(history: EvolutionHistory) -> np.ndarray:
    """Row t = per-column mean state of frame t; time increases downward."""
    if history.frames[0].ndim != 2:
        raise LatticeError("averaged spacetime requires a 2D history")
    return np.stack([f.mean(axis=0) for f in history.frames])


def spacetime(history: EvolutionHistory) -> np.ndarray:
    """1D history stacked into a (time, space) binary matrix."""
    if history.frames[0].ndim != 1:
        raise LatticeError("raw spacetime requires a 1D history")
    return np.stack(history.frames)


# --- PPM output -------------------------------------------------------------

def ppm_bytes(array: np.ndarray, kind: str = "auto") -> bytes:
    """Binary PPM (P6) payload for a lattice, M field, or grayscale matrix.

    kind: "binary" (0 white / 1 black), "mfield" (6-color palette),
    "gray" (linear 0..1 -> 0..255), or "auto" (floats render gray,
    integer arrays with values above 1 render as M fields).
    """
    if array.ndim != 2:
        raise ValueError("PPM output requires a 2D array")
    if kind == "auto":
        if np.issubdtype(array.dtype, np.floating):
            kind = "gray"
        elif array.max(initial=0) > 1:
            kind = "mfield"
        else:
            kind = "binary"
    rows, cols = array.shape
    if kind == "gray":
        level = np.clip(np.rint(array * 255), 0, 255).astype(np.uint8)
        pixels = np.repeat(level[:, :, None], 3, axis=2)
    elif kind == "binary":
        level = np.where(array > 0, 0, 255).astype(np.uint8)
        pixels = np.repeat(level[:, :, None], 3, axis=2)
    elif kind == "mfield":
        palette = np.array(M_PALETTE, dtype=np.uint8)
        pixels = palette[array.astype(np.uint8)]
    else:
        raise ValueError(f"unknown render kind {kind!r}")
    header = f"P6\n{cols} {rows}\n255\n".encode()
    return header + pixels.tobytes()


def render_ppm(array: np.ndarray, path: str | Path, kind: str = "auto") -> None:
    Path(path).write_bytes(ppm_bytes(array, kind))


def load_pattern(path: str | Path) -> np.ndarray:
    """Read a plain-text 0/1 grid, rows newline-separated."""
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"empty pattern file {path}")
    widths = {len(line) for line in lines}
    if len(widths) != 1:
        raise ValueError(f"ragged pattern file {path}")
    if any(ch not in "01" for line in lines for ch in line):
        raise ValueError(f"pattern file {path} must contain only 0/1")
    return np.array([[int(ch) for ch in line] for line in lines], dtype=np.uint8)
