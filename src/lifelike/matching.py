"""Maximum-cardinality matching on a general graph.

`max_cardinality_matching` is Edmonds' blossom method as NetworkX 3.6.1
runs it in ``max_weight_matching(G, maxcardinality=True)``: the
primal-dual form of Zvi Galil, "Efficient Algorithms for Finding Maximum
Matching in Graphs" (ACM Computing Surveys, 1986), in code that derives
from Joris van Rantwijk's mwmatching.py (2008). This is a port of that
function, specialised to the graphs XOR extraction builds: vertices
0..n-1, every edge of weight 1, no self-loops, maximum cardinality on.

With every weight 1, every vertex dual starts at 1, so every edge starts
tight (zero slack) and is allowable when scanned. Labeling then either
finds an augmenting path, or stops with no edge between different
S-blossoms and no T-blossom, where the delta search finds nothing and the
matching is final. So no dual ever changes, and every blossom is an
S-blossom with zero dual that the end of its stage expands. The port
keeps what runs (labeling from the single vertices, blossom shrinking and
augmentation) and drops the duals, slacks, least-slack edges, T-blossom
expansion and the optimum verification. tests/test_matching.py checks it
against NetworkX.

A graph usually has many maximum matchings, and the one returned fixes
the expression tree built from it. The port keeps every iteration order
that breaks a tie in NetworkX on a graph built with
``add_nodes_from(range(n))`` and ``add_edges_from(sorted(edges))``:
single vertices labeled in ascending order, neighbours scanned in
ascending order, a LIFO queue of S-vertices, and blossom leaves in
NetworkX's stack order. Isolated vertices stay in the graph, as they do
in NetworkX.

NetworkX is distributed with the 3-clause BSD license:

   Copyright (c) 2004-2025, NetworkX Developers
   Aric Hagberg <hagberg@lanl.gov>
   Dan Schult <dschult@colgate.edu>
   Pieter Swart <swart@lanl.gov>
   All rights reserved.

   Redistribution and use in source and binary forms, with or without
   modification, are permitted provided that the following conditions are
   met:

     * Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

     * Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

     * Neither the name of the NetworkX Developers nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""
from __future__ import annotations

from typing import Iterable


def max_cardinality_matching(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Maximum-cardinality matching of the graph on vertices 0..n-1.

    edges are distinct (v, w) pairs with v != w. Returns the matched pairs
    (v, w), v < w, in ascending order: the matching NetworkX's
    max_weight_matching(G, maxcardinality=True) returns for the same graph.
    Recursion goes as deep as blossoms nest, which is below n / 2.
    """
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for v, w in edges:
        neighbors[v].append(w)
        neighbors[w].append(v)
    for nbrs in neighbors:
        nbrs.sort()
    # mate[v] is v's partner, or -1 while v is single. The helpers below
    # read the per-stage state that each stage of the loop binds afresh.
    mate = [-1] * n

    def leaves(b: int) -> list[int]:
        """The vertices of blossom b, in NetworkX's stack order."""
        found = []
        stack = list(childs[b])
        while stack:
            t = stack.pop()
            if t < n:
                found.append(t)
            else:
                stack.extend(childs[t])
        return found

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from S-vertices v and w: the base vertex of a new
        blossom, or -1 when an augmenting path was found."""
        path = []
        base = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                # b's base is single; stop tracing this path.
                v = -1
            else:
                # Step back through b's mate, a T-vertex.
                v = labeledge[labeledge[b][0]][0]
            # Alternate between both paths.
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, v: int, w: int) -> None:
        """Shrink the odd cycle through S-vertices v and w and this base
        into a new S-blossom; queue its T-vertices, which turn S."""
        bb, bv, bw = inblossom[base], inblossom[v], inblossom[w]
        b = len(label)
        blossomparent[bb] = b
        path = []
        edges_ = [(v, w)]
        # Trace back from v to the base.
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edges_.append(labeledge[bv])
            bv = inblossom[labeledge[bv][0]]
        path.append(bb)
        path.reverse()
        edges_.reverse()
        # Trace back from w to the base.
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edges_.append((labeledge[bw][1], labeledge[bw][0]))
            bw = inblossom[labeledge[bw][0]]
        label.append(1)
        labeledge.append(labeledge[bb])
        blossomparent.append(None)
        blossombase.append(base)
        childs.append(path)
        blossomedges.append(edges_)
        for u in leaves(b):
            if label[inblossom[u]] == 2:
                queue.append(u)
            inblossom[u] = b

    def augment_blossom(b: int, v: int) -> None:
        """Swap matched and unmatched edges along the alternating path
        through blossom b from vertex v to the base."""
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= n:
            augment_blossom(t, v)
        subs, sub_edges = childs[b], blossomedges[b]
        j = subs.index(t)
        if j & 1:
            # Odd start: go forward and wrap.
            j -= len(subs)
            jstep = 1
        else:
            # Even start: go backward.
            jstep = -1
        while j != 0:
            j += jstep
            t = subs[j]
            if jstep == 1:
                w, x = sub_edges[j]
            else:
                x, w = sub_edges[j - 1]
            if t >= n:
                augment_blossom(t, w)
            j += jstep
            t = subs[j]
            if t >= n:
                augment_blossom(t, x)
            mate[w] = x
            mate[x] = w

    def augment_matching(v: int, w: int) -> None:
        """Swap matched and unmatched edges along the augmenting path
        through S-vertices v and w between two single vertices."""
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    # Reached a single vertex.
                    break
                s, j = labeledge[labeledge[bs][0]]
                mate[j] = s

    # Each stage finds one augmenting path, or ends the search. Blossoms
    # live for one stage; they are numbered n, n+1, ... as created.
    while True:
        # inblossom[v] is v's top-level blossom (v itself if trivial).
        inblossom = list(range(n))
        # Per vertex or blossom b: label[b] is None (free), 1 (S), 2 (T)
        # or 5 (S, breadcrumb of scan_blossom); labeledge[b] = (v, w), w
        # inside b, is the edge b got its label through, None for a
        # single base; blossomparent[b] is b's immediate parent blossom,
        # None at top level; blossombase[b] is b's base vertex.
        label: list[int | None] = [None] * n
        labeledge: list[tuple[int, int] | None] = [None] * n
        blossomparent: list[int | None] = [None] * n
        blossombase = list(range(n))
        # Per blossom b (None for vertices): childs[b] lists its
        # sub-blossoms from the base round the blossom, and
        # blossomedges[b][i] = (v, w) joins v in childs[b][i] to w in
        # childs[b][i + 1], wrapping.
        childs: list[list[int] | None] = [None] * n
        blossomedges: list[list[tuple[int, int]] | None] = [None] * n
        # Newly discovered S-vertices, taken last in first out.
        queue = [v for v in range(n) if mate[v] == -1]
        for v in queue:
            label[v] = 1

        augmented = False
        while queue and not augmented:
            v = queue.pop()
            for w in neighbors[v]:
                bv = inblossom[v]
                bw = inblossom[w]
                if bv == bw:
                    # Internal to a blossom.
                    continue
                if label[bw] is None:
                    # (C1) w is free, so matched and trivial: label it T
                    # and its mate S.
                    x = mate[w]
                    label[w] = 2
                    labeledge[w] = (v, w)
                    label[x] = 1
                    labeledge[x] = (w, x)
                    queue.append(x)
                elif label[bw] == 1:
                    # (C2) w is an S-vertex in another blossom.
                    base = scan_blossom(v, w)
                    if base != -1:
                        add_blossom(base, v, w)
                    else:
                        augment_matching(v, w)
                        augmented = True
                        break
        if not augmented:
            return [(v, mate[v]) for v in range(n) if v < mate[v]]
