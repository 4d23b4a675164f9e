"""Per-cell reference engines that the vectorized simulator and the
M-code evaluator are checked against, and seeded tables and catalogs that
more than one test file needs."""
import hashlib

import numpy as np

from lifelike import boolmin
from lifelike.heval import HTables, RuleProfile
from lifelike.measures import BehaviorVector, DynamicParams
from lifelike.rules import TruthTable, neighborhood_index
from lifelike.search import GAConfig
from lifelike.simulator import random_lattice

#: Row-major offsets of the 2D Moore neighborhood, most significant first.
MOORE_OFFSETS = tuple((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1))


def index_field_naive(c: np.ndarray) -> np.ndarray:
    """Packed neighborhood index of every cell of one lattice, per-cell Python loop."""
    out = np.zeros(c.shape, dtype=np.int64)
    if c.ndim == 1:
        n = c.shape[0]
        for x in range(n):
            out[x] = neighborhood_index((int(c[(x - 1) % n]), int(c[x]), int(c[(x + 1) % n])))
        return out
    rows, cols = c.shape
    for i in range(rows):
        for j in range(cols):
            cells = [int(c[(i + di) % rows, (j + dj) % cols]) for di, dj in MOORE_OFFSETS]
            out[i, j] = neighborhood_index(cells)
    return out


def step_naive(c: np.ndarray, tt: TruthTable) -> np.ndarray:
    """Reference engine: per-cell Python loop over one lattice."""
    outputs = np.array(tt.outputs, dtype=np.uint8)
    return outputs[index_field_naive(c)]


def dynamic_measure_naive(profile: RuleProfile, params: DynamicParams) -> BehaviorVector:
    """Reference dynamic measure: each run evolved alone by the per-cell engine.

    Run i draws its sampling step k from the (seed, i) stream, then its
    initial lattice; its cells are classified from the index of step k.
    """
    states = np.array(profile.tt.outputs, dtype=np.uint8)
    percentages = []
    for run in range(params.runs):
        rng = np.random.default_rng([params.seed, run])
        k = int(rng.integers(1, params.max_steps + 1))
        c = random_lattice(params.dims, params.density, rng)
        for _ in range(k - 1):
            c = states[index_field_naive(c)]
        counts = np.bincount(profile.mcodes[index_field_naive(c)].ravel(), minlength=6)
        percentages.append(counts / counts.sum() * 100)
    return BehaviorVector.from_counts(np.array(percentages).mean(axis=0))


def _products_naive(form: boolmin.MinimalForm, cells):
    """Per term, its product's children: literal (value, negated) pairs by
    variable, then (a, b) XOR factors."""
    m = form.arity
    for mask, value, xors in form.terms:
        literals = [
            (cells[j], not value >> (m - 1 - j) & 1) for j in range(m) if mask >> (m - 1 - j) & 1
        ]
        yield literals, [(cells[a], cells[b]) for a, b in xors]


def row_cells(arity: int) -> list[np.ndarray]:
    """Cell j of every neighborhood index 0 .. 2^arity - 1, as one bool
    array per variable: `index_to_cells` of every row at once."""
    rows = np.arange(1 << arity)
    return [(rows >> (arity - 1 - j) & 1).astype(bool) for j in range(arity)]


def eval_form_naive(form: boolmin.MinimalForm, cells):
    """Boolean value of a form: the split variables XOR the OR of the
    products, negated if the form is.

    `cells` holds one neighborhood's 0/1 values (`index_to_cells`), which
    gives one value, or one bool array per variable (`row_cells`), which
    gives a bool array of every row's value.
    """
    core = np.zeros(np.broadcast_shapes(*map(np.shape, cells)), bool)
    for literals, factors in _products_naive(form, cells):
        product = True
        for bit, negated in literals:
            product = product & (bit != negated)
        for a, b in factors:
            product = product & (a != b)
        core = core | product
    acc = core ^ form.negated
    for j in form.splits:
        acc = acc ^ cells[j]
    return acc


def eval_m_naive(form: boolmin.MinimalForm, cells, tables: HTables) -> int:
    """M code of one neighborhood: a scalar fold of the form over the
    operator tables.

    Leaves read bit 0 as M=0 and bit 1 as M=5. Each product folds its
    literals, then its XOR factors, through the AND table; the products
    fold left to right through the OR table; the split variables, then
    that core, through the XOR table; then the NOT table if negated. A
    form with neither splits nor terms is the constant 5 * negated.
    """
    operands = [5 * cells[j] for j in form.splits]
    core = None
    for literals, factors in _products_naive(form, cells):
        children = [int(tables.not_table[5 * bit]) if neg else 5 * bit for bit, neg in literals]
        children += [int(tables.xor_table[5 * a, 5 * b]) for a, b in factors]
        product = children[0]
        for child in children[1:]:
            product = int(tables.and_table[product, child])
        core = product if core is None else int(tables.or_table[core, product])
    if core is not None:
        operands.append(core)
    if not operands:
        return 5 * form.negated
    acc = operands[0]
    for operand in operands[1:]:
        acc = int(tables.xor_table[acc, operand])
    return int(tables.not_table[acc]) if form.negated else acc


def cube_key(cube: boolmin.Cube, arity: int) -> tuple[int, ...]:
    """Per-variable digits 0/1/2 of a (mask, value) cube, don't-care sorting last."""
    mask, value = cube
    digits = []
    for j in range(arity):
        bit = 1 << (arity - 1 - j)
        digits.append((value >> (arity - 1 - j)) & 1 if mask & bit else 2)
    return tuple(digits)


def covers(cube: boolmin.Cube, minterm: int) -> bool:
    mask, value = cube
    return (minterm & mask) == value


def random_tables(rng: np.random.Generator) -> HTables:
    """Operator tables with arbitrary entries in 0..5, asymmetric in general."""
    binary = rng.integers(0, 6, size=(3, 6, 6), dtype=np.uint8)
    return HTables(rng.integers(0, 6, size=6, dtype=np.uint8), *binary)


def random_table(arity: int, density: float, seed: int, split: bool) -> TruthTable:
    """A random table; with split, x_j ^ g for a random variable j."""
    rng = np.random.default_rng(seed)
    if not split:
        return TruthTable(arity, tuple(int(b) for b in rng.random(1 << arity) < density))
    g = (rng.random(1 << (arity - 1)) < density).reshape((2,) * (arity - 1))
    bits = np.stack([g, ~g], axis=int(rng.integers(arity)))
    return TruthTable(arity, tuple(int(b) for b in bits.ravel()))


def parity_split_table(seed: int) -> TruthTable:
    """x0 ^ g for a seeded sparse 8-input g (density 0.08).

    Exact covering of the whole 512-row table exceeds the Petrick budget;
    covering g alone stays well inside it.
    """
    g = np.random.default_rng(seed).random(256) < 0.08
    return TruthTable(9, tuple(int(b) for b in np.concatenate([g, ~g])))


def petrick_naive(primes, tt: TruthTable) -> tuple[boolmin.Cube, ...]:
    """Minimum cover of tt's on-set by Petrick's method over frozenset
    products, each expansion pruned by an O(n^2) absorption scan.

    The reference for boolmin.minimal_cover's "exact" mode: the same
    tie-break (fewest primes, fewest literals, smallest cube_key list), the
    same per-component expansion order, and CoverBudgetExceeded with the
    same message once an expansion exceeds EXACT_BUDGET terms.
    """
    arity = tt.arity
    ordered = sorted(primes, key=lambda p: cube_key(p, arity))
    hitmap = {m: [i for i, p in enumerate(ordered) if covers(p, m)] for m in tt.onset}
    essential = {hits[0] for hits in hitmap.values() if len(hits) == 1}
    remaining = [m for m in tt.onset if not essential.intersection(hitmap[m])]

    def cover_key(term: frozenset[int]) -> tuple:
        cubes = [ordered[i] for i in sorted(term)]
        return (
            len(cubes),
            sum(mask.bit_count() for mask, _ in cubes),
            tuple(cube_key(c, arity) for c in cubes),
        )

    chosen = set(essential)
    for component in _components_naive(remaining, hitmap):
        products: set[frozenset[int]] = {frozenset()}
        for minterm in sorted(component, key=lambda m: len(hitmap[m])):
            expanded = {term | {i} for term in products for i in hitmap[minterm]}
            if len(expanded) > boolmin.EXACT_BUDGET:
                raise boolmin.CoverBudgetExceeded(
                    f"Petrick product exceeded {boolmin.EXACT_BUDGET} terms"
                )
            products = _absorb(expanded)
        chosen |= min(products, key=cover_key)
    return tuple(ordered[i] for i in sorted(chosen))


def _components_naive(minterms, hitmap) -> list[list[int]]:
    """Sorted minterm groups linked through shared covering primes."""
    comps = []
    left = set(minterms)
    while left:
        comp = {min(left)}
        while True:
            primes = {i for m in comp for i in hitmap[m]}
            grown = {m for m in left if primes.intersection(hitmap[m])}
            if grown == comp:
                break
            comp = grown
        comps.append(sorted(comp))
        left -= comp
    return comps


def _absorb(terms: set[frozenset[int]]) -> set[frozenset[int]]:
    """The inclusion-minimal terms."""
    kept: set[frozenset[int]] = set()
    for term in sorted(terms, key=len):
        if not any(other <= term for other in kept):
            kept.add(term)
    return kept


def prime_implicants_qm(tt: TruthTable) -> frozenset[boolmin.Cube]:
    """Complete prime implicant set of the on-set (Quine-McCluskey).

    The reference for boolmin.prime_implicants: cubes merge level by level,
    and a cube that merges with no same-mask neighbour is prime.
    """
    onset = tt.onset
    if not onset:
        raise ValueError("constant-0 table has no implicants")
    full = (1 << tt.arity) - 1
    # level maps cube mask -> set of values; merge same-mask cubes whose
    # values differ in exactly one cared bit.
    level: dict[int, set[int]] = {full: set(onset)}
    primes: set[boolmin.Cube] = set()
    while level:
        nxt: dict[int, set[int]] = {}
        merged: dict[int, set[int]] = {mask: set() for mask in level}
        for mask, values in level.items():
            for value in values:
                for j in range(tt.arity):
                    bit = 1 << j
                    if not mask & bit or value & bit:
                        continue
                    if value | bit in values:
                        merged[mask].update((value, value | bit))
                        nxt.setdefault(mask & ~bit, set()).add(value)
        for mask, values in level.items():
            for value in values - merged[mask]:
                primes.add((mask, value))
        level = nxt
    return frozenset(primes)


#: The configuration of acceptance criterion 9 (desk-scale search), and the
#: digest of the catalog that `run_ga` returns for it.
DESK = GAConfig(
    pop_size=8,
    generations=30,
    seed=2024,
    dyn_runs=5,
    dyn_dims=(50, 50),
    dyn_max_steps=50,
)
DESK_DIGEST = "5f7e9a7ed2213588"


def catalog_digest(records) -> str:
    """First 16 hex digits of the sha256 of a catalog's JSON lines."""
    text = "".join(r.to_json() + "\n" for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
