"""Minimal mixed-operator Boolean forms of truth tables.

Pipeline: a table that is x ^ g for some variable x (Shannon parity
split, lowest x first) becomes x ^ minimize(g) without being covered;
any other table goes through prime implicants read off one (3,)*m cube
array, in cube_key order -> minimum sum-of-products cover (Petrick's
method exactly, or a deterministic greedy fallback for large instances)
-> XOR extraction (pairwise rewrites of complementary literal pairs,
chosen each round by the in-tree maximum-cardinality matching of
`matching`).

A cube is one (mask, value) pair of ints from the prime implicants to
the XOR terms. Covering reads a bool primes x minterms coverage matrix;
Petrick's products are int bitmasks over prime indices, kept an antichain
of inclusion-minimal terms. XOR extraction keeps (mask, value, xors)
terms, xors a sorted tuple of (a, b) variable pairs, and tests merges only
inside (mask, xors) buckets.

The minimizer stops at a `MinimalForm`, the one representation of a
minimized rule: the split variables, a negation bit and the extracted
terms. `heval` folds M tables straight from it, and it prints and counts
its own literals. Forms are canonical: each product lists its literals
by variable, then its XOR factors, and the products come sorted by
`_product_key` with duplicates removed, so identical truth tables always
minimize to identical forms.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .matching import max_cardinality_matching
from .rules import TruthTable

#: Variable display names for elementary (arity 3) rules.
ELEMENTARY_NAMES = ("p", "q", "r")

#: Cap on Petrick product terms before exact covering gives up.
EXACT_BUDGET = 2_000

#: Accepted `mode` values of minimal_form.
COVER_MODES = ("exact", "greedy", "auto")


class CoverBudgetExceeded(RuntimeError):
    """Exact cover search exceeded its work budget."""


#: A cube (mask, value) over neighborhood-index bit positions: mask has a
#: 1 on every cared-about bit, value fixes those bits and is 0 elsewhere.
#: Variable j of an arity-m rule sits at bit position m-1-j (matching
#: neighborhood_index), and mask.bit_count() is its literal count. The
#: cube_key of a cube lists one digit per variable: its fixed bit, or 2
#: where it is free. Primes and covers come in cube_key order.
Cube = tuple[int, int]

#: A product term (mask, value, xors): a cube and a sorted tuple of
#: (a, b) variable pairs, one factor a ^ b each.
Term = tuple[int, int, tuple[tuple[int, int], ...]]


# --- implicants -------------------------------------------------------------

def prime_implicants(tt: TruthTable) -> tuple[Cube, ...]:
    """Complete prime implicant set of the on-set, read off the cube lattice.

    Axis j of the (3,)*m array is variable j: digit 0 or 1 fixes x_j, digit
    2 frees it. imp marks the cubes holding only on-set minterms (the
    digit-2 slice along an axis is the AND of its 0 and 1 slices); a prime
    is an implicant that stops being one when any fixed variable is freed.
    np.argwhere walks the array in row-major order, so the primes come
    sorted by cube_key.
    """
    if not tt.onset:
        raise ValueError("constant-0 table has no implicants")
    m = tt.arity
    imp = tt.as_array().astype(bool).reshape((2,) * m)
    for j in range(m):
        imp = np.concatenate([imp, imp.take([0], axis=j) & imp.take([1], axis=j)], axis=j)
    prime = imp.copy()
    for j in range(m):
        prime[(slice(None),) * j + (slice(0, 2),)] &= ~imp.take([2, 2], axis=j)
    digits = np.argwhere(prime)  # one row per prime, column j for variable j
    bits = 1 << np.arange(m - 1, -1, -1)
    masks, values = ((digits < 2) @ bits).tolist(), ((digits == 1) @ bits).tolist()
    return tuple(zip(masks, values))


def minimal_cover(
    primes: Sequence[Cube],
    tt: TruthTable,
    mode: str = "exact",
) -> tuple[Cube, ...]:
    """Select a cover of tt's on-set from its prime implicants, which
    come in cube_key order, as prime_implicants returns them.

    mode="exact" finds a minimum-cardinality cover via Petrick's method
    (ties: fewest literals, then lexicographically smallest cube list) on
    each connected component of the cyclic core, with products as int
    bitmasks over prime indices. It raises CoverBudgetExceeded when one
    expansion, before absorption, has more than EXACT_BUDGET terms.
    minimal_form's "auto" then retries with mode="greedy".
    mode="greedy" takes the deterministic largest-gain set cover: each
    pick is the first prime (in cube_key order) of largest gain.

    Both modes read one bool matrix, coverage[i, minterm], over the primes
    in cube_key order and all 2^arity minterms, False off the on-set.
    ValueError: the primes do not cover the on-set, or mode is unknown.
    """
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown cover mode {mode!r}")
    masks, values = np.array(primes, dtype=np.uint16).reshape(-1, 2).T
    onset = tt.as_array().astype(bool)
    minterms = np.arange(1 << tt.arity, dtype=np.uint16)
    coverage = ((minterms & masks[:, None]) == values[:, None]) & onset
    if (coverage.any(axis=0) != onset).any():
        raise ValueError("primes do not cover the on-set")

    if mode == "greedy":
        chosen: list[int] = []
        gains = coverage.sum(axis=1)
        uncovered = onset.copy()
        while uncovered.any():
            best = int(np.argmax(gains))
            newly = coverage[best] & uncovered
            chosen.append(best)
            uncovered &= ~newly
            gains -= coverage[:, newly].sum(axis=1)
        return tuple(primes[i] for i in sorted(chosen))

    # Essential primes are forced into every cover.
    hitmap = {m: np.flatnonzero(coverage[:, m]).tolist() for m in tt.onset}
    essential = {hits[0] for hits in hitmap.values() if len(hits) == 1}
    covered = coverage[sorted(essential)].any(axis=0)
    remaining = [m for m in tt.onset if not covered[m]]

    # Petrick's method on the cyclic core, run independently per connected
    # component (minterms linked through shared primes). A product is an
    # int bitmask over prime indices; products stay an antichain, the
    # inclusion-minimal terms of each expansion.
    chosen = set(essential)
    for component in _components(remaining, hitmap):
        products = {0}
        for minterm in sorted(component, key=lambda m: len(hitmap[m])):
            hits = hitmap[minterm]
            expanded = {t | 1 << i for t in products for i in hits}
            if len(expanded) > EXACT_BUDGET:
                raise CoverBudgetExceeded(f"Petrick product exceeded {EXACT_BUDGET} terms")
            products = _expand_minimal(products, hits)

        def cover_key(term: int) -> tuple:
            # Ascending prime indices compare as the cube_key lists do.
            indices = _bit_indices(term)
            return (len(indices), sum(primes[i][0].bit_count() for i in indices), indices)

        chosen.update(_bit_indices(min(products, key=cover_key)))
    return tuple(primes[i] for i in sorted(chosen))


def _bit_indices(term: int) -> list[int]:
    """Ascending indices of the set bits of term."""
    indices = []
    while term:
        low = term & -term
        indices.append(low.bit_length() - 1)
        term ^= low
    return indices


def _components(minterms: Sequence[int], hitmap: dict[int, list[int]]) -> list[list[int]]:
    """Group minterms connected through shared covering primes.

    One union-find pass joins the primes each minterm hits; a minterm's
    group is its first prime's root. Groups come in order of their
    smallest minterm, each in the order of minterms.
    """
    parent: dict[int, int] = {}

    def find(i: int) -> int:
        root = parent.setdefault(i, i)
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    for m in minterms:
        first, *rest = hitmap[m]
        root = find(first)
        for i in rest:
            parent[find(i)] = root
    groups: dict[int, list[int]] = {}
    for m in minterms:
        groups.setdefault(find(hitmap[m][0]), []).append(m)
    return list(groups.values())


def _expand_minimal(products: set[int], hits: list[int]) -> set[int]:
    """Inclusion-minimal terms of {t | 1<<i : t in products, i in hits}.

    products must be an antichain. A product that already hits a prime
    in hits is minimal as it is, and absorbs its own extensions. An
    extension p | 1<<i of a product p that hits none can only be absorbed
    by a hitting product q with i in q and q & ~(1<<i) a subset of p, so
    it is tested against those remainders only.
    """
    hitmask = sum(1 << i for i in hits)
    kept = {t for t in products if t & hitmask}
    remainders = {i: [q & ~(1 << i) for q in kept if q >> i & 1] for i in hits}
    result = set(kept)
    for p in products - kept:
        outside = ~p
        for i in hits:
            if all(r & outside for r in remainders[i]):
                result.add(p | 1 << i)
    return result


# --- XOR extraction ---------------------------------------------------------

def _term_key(term: tuple, arity: int) -> tuple:
    """Sort key of a (mask, value, xors) term: its (variable, bit) literals
    in variable order, then its sorted XOR pairs."""
    mask, value, xors = term
    literals = tuple(
        (j, value >> (arity - 1 - j) & 1) for j in range(arity) if mask >> (arity - 1 - j) & 1
    )
    return (literals, xors)


def _mergeable(v1: int, v2: int) -> bool:
    """Values of one (mask, xors) bucket that read X&a&!b and X&!a&b."""
    d = v1 ^ v2
    return d.bit_count() == 2 and (v1 & d).bit_count() == 1


def _merge_pair(t1: tuple, t2: tuple, arity: int) -> tuple:
    """X&a&!b | X&!a&b -> X&(a^b): drop a and b from the cube, add the pair."""
    mask, v1, xors = t1
    d = v1 ^ t2[1]
    pair = (arity - d.bit_length(), arity - (d & -d).bit_length())
    return (mask & ~d, v1 & ~d, tuple(sorted(xors + (pair,))))


def _merge_complementary(terms: list[tuple], arity: int) -> list[tuple]:
    """Rewrite complementary-pair products into XOR factors.

    Only terms with the same mask and XOR pairs can merge, so pairs are
    tested inside (mask, xors) buckets. Each round takes a maximum
    matching of the mergeable-pair graph (a greedy first-fit scan strands
    pairs and loses XOR factors on large symmetric covers) from
    matching.max_cardinality_matching; rounds repeat until no pair
    merges. Terms are kept canonically sorted, so the matching, and with
    it the form, is deterministic. Each term's sort key is computed once,
    when the term is created.
    """
    keyed = sorted((_term_key(t, arity), t) for t in terms)
    while True:
        buckets: dict[tuple, list[int]] = {}
        for i, (_, (mask, _, xors)) in enumerate(keyed):
            buckets.setdefault((mask, xors), []).append(i)
        edges = [
            (i, j)
            for bucket in buckets.values()
            for i, j in combinations(bucket, 2)
            if _mergeable(keyed[i][1][1], keyed[j][1][1])
        ]
        if not edges:
            return [t for _, t in keyed]
        matched: set[int] = set()
        merged: list[tuple] = []
        for i, j in max_cardinality_matching(len(keyed), edges):
            t = _merge_pair(keyed[i][1], keyed[j][1], arity)
            merged.append((_term_key(t, arity), t))
            matched.update((i, j))
        keyed = sorted(merged + [p for k, p in enumerate(keyed) if k not in matched])


def _product_key(term: Term, arity: int) -> tuple:
    """Sort key of a product, the one definition of product order.

    A product is its literals x_j / !x_j by variable, then one (a ^ b)
    factor per XOR pair. The key is (0 for a lone literal, else 1), then
    the in-order variable indices, then a structural tag. Literals come
    first, within a product as before any compound product, so XOR factors
    sit at the tail of products, where published mixed-operator rule forms
    place them; the 6-valued fold order downstream depends on it.
    """
    mask, value, xors = term
    seq = [j for j in range(arity) if mask >> (arity - 1 - j) & 1]
    tags = [f"x{j}" if value >> (arity - 1 - j) & 1 else f"!x{j}" for j in seq]
    for a, b in xors:
        seq += (a, b)
        tags.append(f"(x{a}^x{b})")
    if len(tags) > 1:
        return (1, tuple(seq), "(" + "&".join(tags) + ")")
    return (1 if xors else 0, tuple(seq), tags[0])


def xor_extract(sop: Sequence[Cube], arity: int) -> tuple[Term, ...]:
    """Rewrite a minimal SOP cover into mixed-operator product terms.

    Each (mask, value) cube becomes a (mask, value, xors) term: the cube
    and a sorted tuple of (a, b) variable pairs, one factor a ^ b each.
    Pairwise rewrites (a & !b) | (!a & b) -> a ^ b over complementary
    literal pairs run to a fixpoint. The terms come back sorted by
    _product_key, duplicates removed.
    """
    terms = _merge_complementary([(mask, value, ()) for mask, value in sop], arity)
    return tuple(dict.fromkeys(sorted(terms, key=lambda t: _product_key(t, arity))))


@dataclass(frozen=True)
class MinimalForm:
    """A minimized truth table, the one representation of a minimized rule.

    It reads splits[0] ^ splits[1] ^ ... ^ core, negated when `negated`
    is set, where core is the Or of `terms`' products, or the constant 0
    without terms. `splits` are the parity-split variables, ascending;
    each term is a (mask, value, xors) cube whose product is its literals
    in variable order, then one a ^ b factor per pair in xors. `terms`
    come in _product_key order, which is the order heval folds them in
    and `format` prints them. `cover_mode` is the cover mode actually used
    ("exact" or "greedy").
    """

    arity: int
    splits: tuple[int, ...]
    negated: bool
    terms: tuple[Term, ...]
    cover_mode: str

    @property
    def leaf_count(self) -> int:
        """Number of variable leaves (literal count) of the printed form."""
        return len(self.splits) + sum(
            mask.bit_count() + 2 * len(xors) for mask, _, xors in self.terms
        )

    def format(self) -> str:
        """Render in the CLI grammar: `(!p & q) | (p ^ r)`.

        Elementary rules use p, q, r; other arities use x0..x8. A compound
        operand of an n-ary operator is parenthesized, and so is a
        compound form under its negation: `!(p ^ q ^ r)`.
        """
        m = self.arity
        names = ELEMENTARY_NAMES if m == 3 else tuple(f"x{j}" for j in range(m))
        products = [
            _join(
                [
                    names[j] if value >> (m - 1 - j) & 1 else "!" + names[j]
                    for j in range(m)
                    if mask >> (m - 1 - j) & 1
                ]
                + [f"{names[a]} ^ {names[b]}" for a, b in xors],
                " & ",
            )
            for mask, value, xors in self.terms
        ]
        operands = [names[j] for j in self.splits] + ([_join(products, " | ")] if products else [])
        if not operands:
            return str(int(self.negated))
        text = _join(operands, " ^ ")
        if not self.negated:
            return text
        return f"!({text})" if " " in text else "!" + text


def _join(parts: list[str], op: str) -> str:
    """parts joined by op, each compound part (one holding a space) in
    parentheses; a lone part as it is."""
    if len(parts) == 1:
        return parts[0]
    return op.join(f"({part})" if " " in part else part for part in parts)


def _split_form(sub: MinimalForm, var: int) -> MinimalForm:
    """x_var ^ sub, sub's variables from var on shifted up by one.

    The shift keeps every order: variable indices are single digits, so
    _product_key tags compare as before.
    """
    m = sub.arity + 1
    low = (1 << (m - 1 - var)) - 1  # index bits of the variables after var

    def bits(x: int) -> int:
        return (x & ~low) << 1 | (x & low)

    def index(j: int) -> int:
        return j + (j >= var)

    terms = tuple(
        (bits(mask), bits(value), tuple((index(a), index(b)) for a, b in xors))
        for mask, value, xors in sub.terms
    )
    splits = (var, *map(index, sub.splits))
    return MinimalForm(m, splits, sub.negated, terms, sub.cover_mode)


def _minimal_form(tt: TruthTable, mode: str) -> MinimalForm:
    used = "greedy" if mode == "greedy" else "exact"
    m = tt.arity
    if not any(tt.outputs) or all(tt.outputs):
        return MinimalForm(m, (), bool(tt.outputs[0]), (), used)
    # Axis j of the (2,)*m view is variable j (index bit m-1-j): index 0
    # along it is the cofactor x_j = 0, other variables in order. Every
    # variable the cofactor splits on also splits tt, so it lies above var
    # and the form's splits come out ascending.
    table = tt.as_array().reshape((2,) * m)
    for var in range(m):
        f0 = table.take(0, axis=var)
        if (f0 != table.take(1, axis=var)).all():
            sub = _minimal_form(TruthTable(m - 1, tuple(f0.ravel().tolist())), mode)
            return _split_form(sub, var)
    primes = prime_implicants(tt)
    try:
        cover = minimal_cover(primes, tt, used)
    except CoverBudgetExceeded:
        if mode != "auto":
            raise
        used = "greedy"
        cover = minimal_cover(primes, tt, used)
    return MinimalForm(m, (), False, xor_extract(cover, m), used)


def minimal_form(tt: TruthTable, mode: str = "auto") -> MinimalForm:
    """Minimal mixed-operator form of a truth table.

    mode: "exact" | "greedy" | "auto" (exact within EXACT_BUDGET, then
    greedy). A parity split x ^ g is taken before any covering, so only
    g is covered.
    """
    if mode not in COVER_MODES:
        raise ValueError(f"unknown cover mode {mode!r}")
    return _minimal_form(tt, mode)

