"""Lattice evolution, behavior fields, and image output.

Lattices are numpy uint8 arrays of 0/1 cells: 1D arrays for elementary
rules, 2D arrays for Moore-neighborhood rules (`check_lattice`).
Boundaries are always toroidal. Every update looks its cells up in a
table keyed by the packed neighborhood index, so one engine serves all
rules, and each lookup yields two horizontally adjacent cells.

A torus (`_Torus`) keeps its lattice, or each lattice of a stack, in one
uint8 buffer with a one-cell toroidal halo, shape (..., w) or (..., H+2,
w), whose edges copy the opposite ones. The row width w is N+2 or W+2
rounded up to even: an odd width gets one dead column after the halo, so
every row, and every lattice of a stack, is a whole number of cell
pairs. The dead column holds 0 or 1 and is never read by a lattice cell.

Over the flattened buffer f, every position p gets a 3-bit column code:
v[p] = 4 f[p-w] + 2 f[p] + f[p+w] in 2D (rows above, at and below), and
v = f in 1D. Viewed as little-endian uint16 words, V[k] holds v[2k] in
bits 0-2 and v[2k+1] in bits 8-10. The pair index

    idx[k] = V[k] | V[k-1] >> 5 | V[k+1] << 11

keeps v[2k] in bits 0-2, v[2k-1] in bits 3-5, v[2k+1] in bits 8-10 and
v[2k+2] in bits 11-13; uint16 wrap-around drops the rest. Those are the
left, own and right column codes of cells 2k and 2k+1, so a 2^14-entry
pair table (`_pair_table`) holds the entries of both cells: byte 0 for
cell 2k, byte 1 for cell 2k+1. The first and last pair of a pass leave
out the missing neighbour word; that is exact, because each holds at
most one lattice cell, whose neighbours are all present. Each operation is one
contiguous pass over the whole stack without wrap logic: halo and dead
positions get an index too, which is never read. The index is widened
into an intp array the torus keeps, so `np.take` reads it without a
copy of its own. A step gathers every pair in one `take`, which yields
the next buffer in the same layout, and then refreshes the halo with 2
slice copies in 1D, 4 in 2D. `evolve` and `fields_at` keep a torus
across steps and pad only once; a stack sheds its leading lattices as a
contiguous slice. `evolve` yields each frame and M field as it is
stepped and keeps no history.

The next state is read from the rule's truth table, the M code from the
M-coded table of its `RuleProfile`, which is built once per rule and is
read-only. `evolve` gathers only M codes: a code of 3 or more carries
next state 1. `fields_at` gathers M codes for the lattices due at a step
and next states for the rest.
"""
from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .heval import RuleProfile
from .rules import ELEMENTARY_ARITY, M_STATE, MOORE_ARITY, TruthTable

#: Pixel colors for M codes 0..5 in rendered fields.
M_PALETTE = (
    (255, 255, 255),  # 0 {0, stable}: white
    (255, 255, 0),    # 1 {0, decrease}: yellow
    (0, 255, 0),      # 2 {0, chaotic}: green
    (255, 0, 0),      # 3 {1, chaotic}: red
    (0, 0, 255),      # 4 {1, growth}: blue
    (0, 0, 0),        # 5 {1, stable}: black
)

#: M codes below it carry next state 0, the others 1.
_FIRST_LIVE_CODE = M_STATE.index(1)


class LatticeError(ValueError):
    """Lattice shape incompatible with the rule arity."""


def check_lattice(arity: int, shape: int | tuple[int, ...]) -> int:
    """Rank of a lattice of size N or shape `shape` under rules of `arity`
    (1: elementary, 2: Moore, which also take (n, R, C) stacks)."""
    if arity not in (ELEMENTARY_ARITY, MOORE_ARITY):
        raise LatticeError(f"rules of arity {arity} have no lattice to evolve")
    rank = 1 if arity == ELEMENTARY_ARITY else 2
    ndim = 1 if isinstance(shape, int) else len(shape)
    if ndim != rank and (rank, ndim) != (2, 3):
        raise LatticeError("elementary rules need 1D dims (N), Moore rules 2D dims (RxC)")
    return rank


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


def _pair_table(table: np.ndarray, rank: int) -> np.ndarray:
    """Read-only table of both cells' entries of `table` for every pair index.

    `table` holds one entry per neighborhood index of rank-`rank` lattices
    (2^3 in 1D, 2^9 in 2D), as uint8 or little-endian uint16. Entry k of
    the result, twice as wide, holds the entry of the left cell of pair
    index k in its low half and that of the right cell in its high half.
    """
    if rank == 1:
        # Column codes are the cells themselves: only bit 0 is ever set.
        bit = np.arange(8) & 1
        cols = table.reshape(2, 2, 2)[np.ix_(bit, bit, bit)]
    else:
        # Code bits (top, middle, bottom) of the left, own and right column,
        # from the row-major bits (NW, N, NE, W, C, E, SW, S, SE).
        cols = table.reshape((2,) * 9).transpose(0, 3, 6, 1, 4, 7, 2, 5, 8).reshape(8, 8, 8)
    # cols[l, c, r]: the entry of a cell whose left, own and right column
    # codes are l, c, r. Axes of a pair index, most significant first:
    # v[2k+2], v[2k+1], bits 6-7 (always 0), v[2k-1], v[2k].
    cells = np.empty((8, 8, 4, 8, 8, 2), table.dtype)
    cells[..., 0] = cols.transpose(2, 0, 1)[None, :, None]
    cells[..., 1] = cols.transpose(2, 1, 0)[:, :, None, None, :]
    pairs = cells.reshape(-1).view(f"<u{2 * table.itemsize}")
    pairs.setflags(write=False)
    return pairs


class _Torus:
    """Lattices on the torus, held in a wrap-padded uint8 buffer.

    The last `rank` axes of `c` form one lattice (1: elementary, 2: Moore);
    any leading axes index a stack of lattices, each with its own halo.
    """

    def __init__(self, c: np.ndarray, rank: int) -> None:
        if rank not in (1, 2) or c.ndim < rank:
            raise LatticeError(f"cannot index rank-{rank} lattices in a {c.ndim}D array")
        lead = c.ndim - rank
        self.rank = rank
        self._dims = c.shape[lead:]
        self._inner = (Ellipsis,) + tuple(slice(1, s + 1) for s in self._dims)
        width = self._dims[-1] + 2 + self._dims[-1] % 2
        rows = tuple(s + 2 for s in self._dims[:-1])
        self.buf = np.zeros(c.shape[:lead] + rows + (width,), np.uint8)
        self.buf[self._inner] = c
        self._wrap()
        # The pair index is widened into this array, which np.take reads as
        # it is; it would copy any other dtype into a new intp array. Made
        # and freed every step, that copy cost about 40 page faults per step
        # of eight 100x100 lattices, as glibc handed its memory back.
        self._index = np.empty(self.buf.size // 2, np.intp)

    def _wrap(self) -> None:
        """Copy every lattice's edges into the opposite halo, corners included."""
        buf = self.buf
        cols = self._dims[-1]
        buf[..., 0] = buf[..., cols]
        buf[..., cols + 1] = buf[..., 1]
        if self.rank == 2:
            rows = self._dims[0]
            buf[..., 0, :] = buf[..., rows, :]
            buf[..., rows + 1, :] = buf[..., 1, :]

    def interior(self, a: np.ndarray) -> np.ndarray:
        """View of the lattice cells of `a`, an array shaped like the buffer."""
        return a[self._inner]

    def pair_index(self) -> np.ndarray:
        """Pair index of every two buffer positions, shaped like the buffer
        with half as many columns.

        Pairs holding a lattice cell get its packed pair index; the others
        some index below 2^14. The intp array is the torus's own, which the
        next call overwrites.
        """
        f = self.buf.reshape(-1)
        w = self.buf.shape[-1]
        if self.rank == 1:
            codes, edge = f, 0
        else:
            # Column codes of positions [w, size - w), which hold every
            # lattice cell. uint8 multiply-add: numpy has no SIMD loop for
            # a uint8 shift.
            codes = f[:-2 * w] * np.uint8(4)
            codes += f[w:-w]
            codes += f[w:-w]
            codes += f[2 * w:]
            edge = w // 2
        words = codes.view("<u2")
        pairs = np.empty_like(words)
        np.left_shift(words[1:], 11, out=pairs[:-1])
        pairs[-1] = 0
        pairs |= words
        pairs[1:] |= words[:-1] >> 5
        index = self._index[:f.size // 2]
        index[edge:index.size - edge] = pairs
        index[:edge] = index[index.size - edge:] = 0
        return index.reshape(self.buf.shape[:-1] + (w // 2,))

    def lookup(self, pairs: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Entries of `pairs` (from `_pair_table`) at `index` (from
        `pair_index`), one per buffer position: an array shaped like the
        buffer, or like its leading lattices when `index` is sliced."""
        return np.take(pairs, index).view(f"<u{pairs.itemsize // 2}")

    def advance(self, buf: np.ndarray) -> None:
        """Make `buf`, next states shaped like the buffer, the lattices.

        `buf` comes from `lookup` on the current buffer's index; a stack
        sheds its first lattices when that index was sliced past them.
        """
        self.buf = buf
        self._wrap()


def neighborhood_index_field(c: np.ndarray, rank: int | None = None) -> np.ndarray:
    """Packed neighborhood index of every cell, toroidal wrap.

    The last `rank` axes of `c` form one lattice (1: elementary, 2: Moore);
    any leading axes index a stack of lattices. `rank` defaults to c.ndim,
    a single lattice. Read through the pair table of the identity table.
    """
    rank = c.ndim if rank is None else rank
    arity = ELEMENTARY_ARITY if rank == 1 else MOORE_ARITY
    return _cell_entries(c, rank, np.arange(1 << arity, dtype="<u2"))


def _cell_entries(c: np.ndarray, rank: int, table: np.ndarray) -> np.ndarray:
    """Entry of `table` for every cell of the rank-`rank` lattices of c."""
    torus = _Torus(c, rank)
    return torus.interior(torus.lookup(_pair_table(table, rank), torus.pair_index())).copy()


def step(c: np.ndarray, tt: TruthTable) -> np.ndarray:
    """Synchronous update of every cell on the torus (of every lattice of a stack)."""
    return _cell_entries(c, check_lattice(tt.arity, c.shape), tt.as_array())


def m_field(c: np.ndarray, profile: RuleProfile) -> np.ndarray:
    """M code of every cell's next step; state projection equals step(c, profile.tt)."""
    return _cell_entries(c, check_lattice(profile.tt.arity, c.shape), profile.mcodes)


def evolve(
    c0: np.ndarray, profile: RuleProfile, steps: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (C^t, D^t) for t = 1..steps, one step at a time.

    C^t is the lattice after t steps from c0, and D^t the M field read
    from C^{t-1}. Both arrays are new and never touched again by the
    generator, which keeps only the current lattice, so memory does not
    grow with `steps`. The step count and the lattice shape are checked at
    the call, before any step runs.
    """
    if steps < 0:
        raise ValueError("step count must be non-negative")
    c0 = np.asarray(c0, dtype=np.uint8)
    rank = check_lattice(profile.tt.arity, c0.shape)
    return _evolve(_Torus(c0, rank), _pair_table(profile.mcodes, rank), steps)


def _evolve(
    torus: _Torus, mcode_pairs: np.ndarray, steps: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    for _ in range(steps):
        codes = torus.lookup(mcode_pairs, torus.pair_index())
        torus.advance((codes >= _FIRST_LIVE_CODE).view(np.uint8))
        yield torus.interior(torus.buf).copy(), torus.interior(codes).copy()


def fields_at(stack: np.ndarray, profile: RuleProfile, ks) -> Iterator[np.ndarray]:
    """Yield the M field of each lattice of `stack` at its own step k, in
    stack order: D^k of `evolve`, read from the lattice after k - 1 steps.

    `ks` holds one k >= 1 per lattice, in non-decreasing order. At each
    step the stack is pair-indexed once; the lattices due gather their M
    codes and leave the stack, the others gather their next states. Each
    field is a view that the generator never touches again.
    """
    ks = np.asarray(ks)
    if ks.shape != stack.shape[:1] or np.any(ks < 1) or np.any(np.diff(ks) < 0):
        raise ValueError("ks must hold one step k >= 1 per lattice, in non-decreasing order")
    rank = check_lattice(profile.tt.arity, stack.shape[1:])
    torus = _Torus(stack, rank)
    state_pairs = _pair_table(profile.tt.as_array(), rank)
    mcode_pairs = _pair_table(profile.mcodes, rank)
    gone = 0
    for t in range(1, int(ks.max(initial=0)) + 1):
        index = torus.pair_index()
        # The lattices due at step t lead the stack.
        due = int(np.searchsorted(ks, t, side="right")) - gone
        if due:
            yield from torus.interior(torus.lookup(mcode_pairs, index[:due]))
            gone += due
        torus.advance(torus.lookup(state_pairs, index[due:]))


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
