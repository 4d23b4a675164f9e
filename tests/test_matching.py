"""The in-tree blossom matching returns networkx's matching, pair for pair.

networkx is a test oracle only (the `dev` extra); without it these tests
skip.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelike.matching import max_cardinality_matching

nx = pytest.importorskip("networkx")


def networkx_matching(n, edges):
    """The matching XOR extraction took from networkx: nodes 0..n-1 added
    first, then the edges in sorted order."""
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(sorted(edges))
    return {frozenset(pair) for pair in nx.max_weight_matching(graph, maxcardinality=True)}


def check(n, edges):
    edges = sorted({(min(v, w), max(v, w)) for v, w in edges if v != w})
    pairs = max_cardinality_matching(n, edges)
    assert pairs == sorted(pairs)
    assert all(v < w for v, w in pairs)
    assert {frozenset(pair) for pair in pairs} == networkx_matching(n, edges)


@st.composite
def random_graphs(draw, max_n=40):
    """Graphs on up to max_n vertices with edge density 0.05 to 0.6."""
    n = draw(st.integers(0, max_n))
    density = draw(st.sampled_from([0.05, 0.1, 0.2, 0.4, 0.6]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return n, [(v, w) for v in range(n) for w in range(v + 1, n) if rng.random() < density]


@st.composite
def swap_graphs(draw):
    """A (mask, xors) bucket: equal-popcount values, joined wherever two
    differ by a transposition of one set and one clear bit."""
    arity = draw(st.integers(3, 9))
    ones = draw(st.integers(1, arity - 1))
    pool = [v for v in range(1 << arity) if v.bit_count() == ones]
    values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40, unique=True))
    edges = [
        (i, j)
        for i in range(len(values))
        for j in range(i + 1, len(values))
        if (values[i] ^ values[j]).bit_count() == 2
    ]
    return len(values), edges


@st.composite
def odd_cycle_chains(draw):
    """Odd cycles linked by single edges, with isolated vertices between:
    nested and adjacent blossoms."""
    n, edges = 0, []
    for length in draw(st.lists(st.sampled_from([3, 5, 7]), min_size=1, max_size=5)):
        cycle = list(range(n, n + length))
        edges += list(zip(cycle, cycle[1:] + cycle[:1]))
        if n:
            edges.append((n - 1 - draw(st.integers(0, 1)), n))
        n += length + draw(st.integers(0, 2))
    return n, edges


class TestAgainstNetworkx:
    @settings(max_examples=300, deadline=None)
    @given(random_graphs())
    def test_random_graphs(self, graph):
        check(*graph)

    @settings(max_examples=150, deadline=None)
    @given(random_graphs(max_n=12))
    def test_small_dense_graphs(self, graph):
        check(*graph)

    @settings(max_examples=200, deadline=None)
    @given(swap_graphs())
    def test_swap_graphs(self, graph):
        check(*graph)

    @settings(max_examples=100, deadline=None)
    @given(odd_cycle_chains())
    def test_odd_cycle_chains(self, graph):
        check(*graph)

    @pytest.mark.parametrize(
        "n, edges",
        [
            (0, []),
            (1, []),
            (4, []),
            (3, [(0, 1), (1, 2), (0, 2)]),
            (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
            (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]),
            # A pentagon with a pendant path: augmenting through a blossom.
            (7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5), (5, 6)]),
            # Isolated vertices 0, 3 and 6 around two triangles.
            (8, [(1, 2), (2, 4), (1, 4), (5, 7), (7, 1)]),
            # Petersen graph.
            (10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
        ],
    )
    def test_named_graphs(self, n, edges):
        check(n, edges)
