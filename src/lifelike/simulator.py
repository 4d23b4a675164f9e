"""Lattice evolution, behavior fields, and image output.

Lattices are numpy uint8 arrays of 0/1 cells: 1D arrays for elementary
rules, 2D arrays for Moore-neighborhood rules. Boundaries are always
toroidal. Every update looks its cells up in a 2^m table keyed by the
packed neighborhood index, so one engine serves all rules.

The index is separable and read at flat offsets. A `Torus` keeps its
lattice, or each lattice of a stack, in one uint8 buffer with a one-cell
toroidal halo, shape (..., N+2) or (..., H+2, W+2), whose edges copy the
opposite ones. Over the flattened buffer, offsets -1, 0 and +1 give every
cell a 3-bit row code (left, center, right), which is already the
elementary index; offsets -(W+2), 0 and +(W+2) stack the codes of the
rows above, at and below into the 9-bit Moore index. Each operation is
one contiguous pass over the whole stack, without wrap logic: positions
in the halo get an index too (at most 511), which is never read. A step
looks every position up in one pass, which yields the next buffer in the
same layout, and then refreshes its halo with 2 slice copies in 1D, 4 in
2D. `evolve` and the dynamic measure keep a `Torus` across steps, pad
only once, and read both the next state and the M code from one index
per step; a stack sheds its leading lattices as a contiguous slice.
`evolve` yields each frame and M field as it is stepped and keeps no
history.

The next state is read from the rule's truth table, the M code from the
M-coded table of its `RuleProfile`, which is built once per rule and is
read-only.
"""
from __future__ import annotations

from collections.abc import Iterator
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


class Torus:
    """Lattices on the torus, held in a wrap-padded uint8 buffer.

    The last `rank` axes of `c` form one lattice (1: elementary, 2: Moore);
    any leading axes index a stack of lattices, each with its own halo.
    """

    def __init__(self, c: np.ndarray, rank: int) -> None:
        if rank not in (1, 2) or c.ndim < rank:
            raise LatticeError(f"cannot index rank-{rank} lattices in a {c.ndim}D array")
        lead = c.ndim - rank
        self.rank = rank
        self._inner = (Ellipsis,) + (slice(1, -1),) * rank
        self.buf = np.empty(c.shape[:lead] + tuple(s + 2 for s in c.shape[lead:]), np.uint8)
        self.buf[self._inner] = c
        self._wrap()

    def _wrap(self) -> None:
        """Copy every lattice's edges into the opposite halo, corners included."""
        buf = self.buf
        buf[..., 0] = buf[..., -2]
        buf[..., -1] = buf[..., 1]
        if self.rank == 2:
            buf[..., 0, :] = buf[..., -2, :]
            buf[..., -1, :] = buf[..., 1, :]

    def interior(self, a: np.ndarray) -> np.ndarray:
        """View of the lattice cells of `a`, an array shaped like the buffer."""
        return a[self._inner]

    def index(self) -> np.ndarray:
        """Neighborhood index of every buffer position, shaped like the buffer.

        Interior positions hold their cell's packed index; halo positions
        hold some index below the table size.
        """
        f = self.buf.reshape(-1)
        # Rows of positions [1, size - 1). uint8 multiply-add: numpy has
        # no SIMD loop for a uint8 shift.
        row = f[:-2] * np.uint8(4)
        row += f[1:-1]
        row += f[1:-1]
        row += f[2:]
        if self.rank == 1:
            index = np.empty(f.size, np.uint8)
            index[1:-1] = row
            index[:1] = index[-1:] = 0
            return index.reshape(self.buf.shape)
        w = self.buf.shape[-1]
        top = row[:-2 * w] * np.uint8(8)
        top += row[w:-w]
        # Positions [w + 1, size - w - 1) hold every interior cell.
        index = np.empty(f.size, np.uint16)
        moore = index[w + 1:f.size - w - 1]
        np.left_shift(top, 3, out=moore, dtype=np.uint16)
        moore += row[2 * w:]
        index[:w + 1] = index[f.size - w - 1:] = 0
        return index.reshape(self.buf.shape)

    def advance(self, states: np.ndarray, index: np.ndarray, drop: int = 0) -> None:
        """Step every lattice by looking `index` up in `states`.

        `index` comes from `index()` on the current buffer; the first
        `drop` lattices of a stack leave it instead of stepping.
        """
        # A new array, not `out=` into the old buffer: numpy's take is
        # slower with `out`, and the halo is refreshed either way.
        self.buf = np.take(states, index[drop:])
        self._wrap()


def neighborhood_index_field(c: np.ndarray, rank: int | None = None) -> np.ndarray:
    """Packed neighborhood index of every cell, toroidal wrap.

    The last `rank` axes of `c` form one lattice (1: elementary, 2: Moore);
    any leading axes index a stack of lattices. `rank` defaults to c.ndim,
    a single lattice.
    """
    torus = Torus(c, c.ndim if rank is None else rank)
    return torus.interior(torus.index())


def step(c: np.ndarray, tt: TruthTable) -> np.ndarray:
    """Synchronous update of every cell on the torus (of every lattice of a stack)."""
    rank = _check_dims(c, tt)
    return np.take(tt.as_array(), neighborhood_index_field(c, rank))


def m_field(c: np.ndarray, profile: RuleProfile) -> np.ndarray:
    """M code of every cell's next step; state projection equals step(c, profile.tt)."""
    rank = _check_dims(c, profile.tt)
    return np.take(profile.mcodes, neighborhood_index_field(c, rank))


def evolve(
    c0: np.ndarray, profile: RuleProfile, steps: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (C^t, D^t) for t = 1..steps, one step at a time.

    C^t is the lattice after t steps from c0, and D^t the M field read
    from the index of C^{t-1}. Both arrays are new and never touched
    again by the generator, which keeps only the current lattice, so
    memory does not grow with `steps`. The step count and the lattice shape are
    checked at the call, before any step runs.
    """
    if steps < 0:
        raise ValueError("step count must be non-negative")
    c0 = np.asarray(c0, dtype=np.uint8)
    return _evolve(Torus(c0, _check_dims(c0, profile.tt)), profile, steps)


def _evolve(
    torus: Torus, profile: RuleProfile, steps: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    states = profile.tt.as_array()
    for _ in range(steps):
        index = torus.index()
        torus.advance(states, index)
        yield torus.interior(torus.buf).copy(), np.take(profile.mcodes, torus.interior(index))


# --- PPM output -------------------------------------------------------------

def ppm_bytes(array: np.ndarray, kind: str) -> bytes:
    """Binary PPM (P6) payload for a lattice, M field, or grayscale matrix.

    kind: "binary" (0 white / 1 black), "mfield" (6-color palette) or
    "gray" (linear 0..1 -> 0..255).
    """
    if array.ndim != 2:
        raise ValueError("PPM output requires a 2D array")
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


def render_ppm(array: np.ndarray, path: str | Path, kind: str) -> None:
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
