"""The rows-only engine: Decomposition, the split of a graph that is not
a ring graph, and the branch-and-bound searches its prime pieces reach.

The split is the cograph frame of Corneil, Perl and Stewart (1985),
components and co-components (the components of the complement, found
by a mask BFS over ``~adj[u]``), one piece per part; it and every search
run on an explicit stack, so none recurses once per vertex.
``invariants.split_of`` imports this module the first time it splits a
graph that is not a ring graph, so no ring graph loads it.
"""

from __future__ import annotations

from collections import Counter

from .graphs import (
    MultipartiteProfile,
    SimpleGraph,
    bit_indices,
    connected_parts,
    lazy_property,
    recognize_complete_multipartite,
)
from .invariants import (
    INFINITY,
    ExtendedNat,
    VertexBoundError,
    multipartite_hamiltonian,
    multipartite_planar,
)


SMALL = "small"
PRIME = "prime"
UNION = "union"
JOIN = "join"
_NON_EDGE = "non-edge"


class Decomposition:
    """A graph split into components and co-components, one piece per
    part, down to pieces that split no further.

    Piece 0 is the whole graph.  A disconnected piece is a ``union`` of
    its components and a connected piece whose complement is disconnected
    a ``join`` of its co-components, ``parts[i]`` their pieces by least
    vertex.  A piece of at most two vertices is ``small`` when it is a
    clique and ``non-edge`` otherwise, and a larger piece that neither
    split divides is ``prime``.  A component is connected and a
    co-component co-connected, so each child tries only the other split.
    Children come after their parent, so a reverse pass over the pieces
    meets every child before its parent.

    ``components`` and ``co_components`` are the graph's own, as sorted
    (part size, count) pairs; a disconnected graph has one co-component,
    all of it.  This is the rows-only engine for graphs from
    ``graph_from_edges``, ``graph_from_json`` and ``SimpleGraph``; a ring
    graph is split by RingSplit in closed form.

    Clique and chromatic numbers are the largest part's over a union and
    the sum over a join.  The domination number is the sum over the
    components; a join is dominated by one vertex iff some part is a
    single vertex (a co-connected part of two or more vertices has no
    vertex adjacent to all of it), and otherwise by two.  Only prime
    pieces reach a search, run on the whole graph's rows within the
    piece's vertex mask.  Girth, eccentricities, planarity and
    hamiltonicity read the component count and co-components first, and
    only a graph they leave open reaches a BFS or a refusal.
    """

    def __init__(self, g: SimpleGraph):
        n = g.n
        self.graph = g
        self.kinds: list[str] = [_NON_EDGE if n == 2 and not g.edge_count else SMALL]
        self.masks: list[int] = [(1 << n) - 1]
        self.parts: list[tuple[int, ...]] = [()]
        # an explicit stack: a threshold graph's tree is n levels deep
        stack = [(0, (UNION, JOIN))]
        while stack:
            i, tries = stack.pop()
            mask = self.masks[i]
            if mask.bit_count() <= 2:
                continue
            for kind in tries:
                split = connected_parts(g.adj, mask, kind == JOIN)
                if len(split) > 1:
                    break
            else:
                self.kinds[i] = PRIME
                continue
            self.kinds[i] = kind
            self.parts[i] = tuple(range(len(self.masks), len(self.masks) + len(split)))
            other = (JOIN,) if kind == UNION else (UNION,)
            pair = SMALL if kind == UNION else _NON_EDGE
            for part in split:
                stack.append((len(self.masks), other))
                self.kinds.append(pair if part.bit_count() == 2 else SMALL)
                self.masks.append(part)
                self.parts.append(())
        if n == 2:
            # two vertices are two components or two co-components
            kind, sizes = (UNION if self.kinds[0] == _NON_EDGE else JOIN), [1, 1]
        else:
            kind, sizes = self.kinds[0], [self.masks[j].bit_count() for j in self.parts[0]]
        sized = sorted(Counter(sizes).items())
        whole = [(n, 1)] if n else []
        self.components = sized if kind == UNION else whole
        self.co_components = sized if kind == JOIN else whole
        self.component_count = sum(count for _, count in self.components)

    @lazy_property
    def multipartite(self) -> MultipartiteProfile:
        """The graph's complete multipartite profile, from its co-components;
        planarity, hamiltonicity and a thm-3.7 fail witness read this one."""
        return recognize_complete_multipartite(self.graph, self.co_components)

    @lazy_property
    def _prime_cliques(self) -> dict[int, tuple[int, int]]:
        """(order, vertex mask) of a maximum clique of every prime piece."""
        return {
            i: _clique_search(self.graph.adj, self.masks[i])
            for i, kind in enumerate(self.kinds)
            if kind == PRIME
        }

    @lazy_property
    def _clique_orders(self) -> list[int]:
        """The order of a maximum clique of every piece."""
        out = [0] * len(self.masks)
        for i in reversed(range(len(self.masks))):
            kind = self.kinds[i]
            if kind == SMALL:
                out[i] = self.masks[i].bit_count()
            elif kind == _NON_EDGE:
                out[i] = 1
            elif kind == PRIME:
                out[i] = self._prime_cliques[i][0]
            elif kind == UNION:
                out[i] = max(out[j] for j in self.parts[i])
            else:
                out[i] = sum(out[j] for j in self.parts[i])
        return out

    @property
    def clique_order(self) -> int:
        return self._clique_orders[0]

    @lazy_property
    def clique(self) -> tuple[int, int]:
        """(order, vertex mask) of a maximum clique, from the root down: a
        union's first part of largest clique, a join's every part."""
        orders = self._clique_orders
        clique = 0
        stack = [0]
        while stack:
            i = stack.pop()
            kind, mask = self.kinds[i], self.masks[i]
            if kind == UNION:
                stack.append(max(self.parts[i], key=orders.__getitem__))
            elif kind == JOIN:
                stack.extend(self.parts[i])
            elif kind == PRIME:
                clique |= self._prime_cliques[i][1]
            elif kind == _NON_EDGE:
                clique |= mask & -mask
            else:
                clique |= mask
        return orders[0], clique

    @lazy_property
    def chromatic(self) -> int:
        orders = self._clique_orders
        colors = [0] * len(self.masks)
        for i in reversed(range(len(self.masks))):
            kind = self.kinds[i]
            if kind == PRIME:
                colors[i] = _chromatic_search(self.graph.adj, self.masks[i], orders[i])
            elif kind == UNION:
                colors[i] = max(colors[j] for j in self.parts[i])
            elif kind == JOIN:
                colors[i] = sum(colors[j] for j in self.parts[i])
            else:
                colors[i] = orders[i]
        return colors[0]

    @lazy_property
    def domination(self) -> int:
        components = self.parts[0] if self.kinds[0] == UNION else (0,)
        return sum(map(self._dominate, components))

    def _dominate(self, i: int) -> int:
        """The domination number of piece i, a connected piece."""
        kind = self.kinds[i]
        if kind == SMALL:
            # a clique is dominated by any one of its vertices
            return 1 if self.masks[i] else 0
        if kind == _NON_EDGE:
            return 2
        if kind == JOIN:
            return 1 if any(self.masks[j].bit_count() == 1 for j in self.parts[i]) else 2
        return _domination_search(self.graph.adj, self.masks[i])

    @lazy_property
    def isolated_count(self) -> int:
        # the one-vertex components, counted by size
        return dict(self.components).get(1, 0)

    @lazy_property
    def girth(self) -> ExtendedNat:
        """Length of a shortest cycle, INFINITY for forests.

        A graph is a forest iff it has n - (component count) edges.
        Otherwise any edge u < v whose endpoint rows share a neighbor closes
        a triangle, and no simple graph has a shorter cycle.  Only
        triangle-free graphs with a cycle reach the per-root BFS: a non-tree
        edge (u, v) seen from root r closes a walk of length dist[u] +
        dist[v] + 1 containing a cycle no longer than itself, and for r on a
        shortest cycle the bound is attained.  A cyclic join is read off its
        co-components: three of them, or one holding an edge, give a
        triangle, and two independent ones K_{a,b}, of girth 4 (a star is a
        forest).
        """
        g = self.graph
        if g.edge_count == g.n - self.component_count:
            return INFINITY
        if sum(count for _, count in self.co_components) > 1:
            return 4 if len(self.multipartite.part_sizes) == 2 else 3
        adj = g.adj
        for u in range(g.n):
            row = adj[u]
            for v in bit_indices(row >> (u + 1) << (u + 1)):
                if row & adj[v]:
                    return 3
        best: ExtendedNat = INFINITY
        for root in range(g.n):
            dist = [-1] * g.n
            parent = [-1] * g.n
            dist[root] = 0
            frontier = [root]
            while frontier:
                nxt = []
                for u in frontier:
                    if 2 * dist[u] >= best:
                        continue
                    for v in bit_indices(adj[u]):
                        if dist[v] == -1:
                            dist[v] = dist[u] + 1
                            parent[v] = u
                            nxt.append(v)
                        elif v != parent[u]:
                            cand = dist[u] + dist[v] + 1
                            if cand < best:
                                best = cand
                frontier = nxt
        return best

    @lazy_property
    def eccentricities(self) -> tuple[ExtendedNat, ExtendedNat]:
        """(diameter, radius).

        A disconnected graph has both INFINITY.  A single vertex has
        eccentricity 0.  A join of co-components is read off the split: two
        vertices of different co-components are adjacent, and a co-component
        of two or more vertices is co-connected, so each of its vertices
        misses one of them and reaches it in two steps.  The diameter is
        therefore 1 iff every co-component is a single vertex, and the
        radius 1 iff some co-component is, both 2 otherwise.

        Only a graph that is connected and co-connected runs one BFS per
        root, with the frontier and the visited set as masks
        (direction-optimizing BFS, Beamer, Asanovic and Patterson, SC'12).
        While the frontier has no more vertices than the unvisited set, a
        level is expanded top-down by OR-ing the frontier's rows; after
        that, bottom-up by keeping the unvisited vertices whose row meets
        the frontier.
        """
        g = self.graph
        if g.n <= 1:
            return 0, 0
        if self.component_count > 1:
            return INFINITY, INFINITY
        if sum(count for _, count in self.co_components) > 1:
            sizes = [size for size, _ in self.co_components]
            return (1 if max(sizes) == 1 else 2), (1 if min(sizes) == 1 else 2)
        adj = g.adj
        full = (1 << g.n) - 1
        ecc: list[int] = []
        for root in range(g.n):
            seen = frontier = 1 << root
            depth = 0
            while seen != full:
                unseen = full ^ seen
                nxt = 0
                if frontier.bit_count() <= unseen.bit_count():
                    for u in bit_indices(frontier):
                        nxt |= adj[u]
                    nxt &= unseen
                else:
                    for v in bit_indices(unseen):
                        if adj[v] & frontier:
                            nxt |= 1 << v
                seen |= nxt
                frontier = nxt
                depth += 1
            ecc.append(depth)
        return max(ecc), min(ecc)

    @lazy_property
    def planar(self) -> bool:
        """Exact planarity, for the classes decided in closed form.

        Graphs on at most 4 vertices and graphs of cyclomatic number
        m - n + c at most 3 are planar: a subdivision of K5 or K3,3 has
        cyclomatic number 6 or 4, and no subgraph exceeds its graph's.
        That covers forests (every unity product graph) and cycles.  The
        edge bound 3n - 6 rejects; complete multipartite graphs (every
        complement) use the classification.  Any other graph is refused
        with VertexBoundError.
        """
        g = self.graph
        m = g.edge_count
        if g.n <= 4 or m - g.n + self.component_count <= 3:
            return True
        if m > 3 * g.n - 6:
            return False
        profile = self.multipartite
        if profile.valid:
            return multipartite_planar(profile.part_sizes)
        raise VertexBoundError("planarity", g.n)

    @lazy_property
    def hamiltonian(self) -> bool:
        """Exact hamiltonicity, for the classes decided in closed form.

        Graphs on fewer than 3 vertices and disconnected graphs (every unity
        product graph of more than one unit) are not Hamiltonian; complete
        multipartite graphs (every complement) use the closed form, which
        also settles those with a vertex of degree below 2.  Of the rest,
        graphs with such a vertex or fewer than n edges are not Hamiltonian,
        and those with exactly n edges have every degree 2, so they are
        cycles and Hamiltonian.  Any other graph is refused with
        VertexBoundError.
        """
        g = self.graph
        if g.n < 3 or self.component_count != 1:
            return False
        profile = self.multipartite
        if profile.valid:
            return multipartite_hamiltonian(profile.part_sizes)
        if g.edge_count < g.n or any(g.degree(v) < 2 for v in range(g.n)):
            return False
        if g.edge_count == g.n:
            return True
        raise VertexBoundError("hamiltonicity", g.n)


def _clique_search(adj: tuple[int, ...], mask: int) -> tuple[int, int]:
    """(order, vertex mask) of a maximum clique of the subgraph induced on
    ``mask``.

    Branch and bound with a greedy-coloring bound (MCQ, Tomita and Seki,
    2003) on an explicit stack of frames, each a clique and the candidates
    adjacent to all of it, colored greedily.  A frame branches on its
    candidates in reverse color order and is dropped once its size plus
    the color of its next candidate cannot beat the best clique.
    """

    def color_sort(rest: int) -> list[tuple[int, int]]:
        order = []
        color = 0
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append((v, color))
                rest &= ~(1 << v)
                avail &= rest & ~adj[v]
        return order

    best_size = best = 0
    # clique, its size, candidates not yet branched on, their colored order
    stack = [[0, 0, mask, color_sort(mask)]]
    while stack:
        frame = stack[-1]
        clique, size, candidates, order = frame
        if not candidates and size > best_size:
            best_size, best = size, clique
        if not order or size + order[-1][1] <= best_size:
            stack.pop()
            continue
        v, _ = order.pop()
        frame[2] = candidates & ~(1 << v)
        below = candidates & adj[v]
        stack.append([clique | 1 << v, size + 1, below, color_sort(below)])
    return best_size, best


def _chromatic_search(adj: tuple[int, ...], mask: int, lower: int) -> int:
    """Fewest colors of a proper coloring of the subgraph induced on
    ``mask``, which has a clique of ``lower`` vertices.

    DSATUR branch and bound (Brélaz, 1979) on an explicit stack of colored
    vertices.  The next vertex is an uncolored one with the most distinct
    colors among its neighbors, then the most neighbors, then the least
    index; it tries each color in use that no neighbor has and one new
    color, lowest first.  The first descent is greedy DSATUR, the upper
    bound; after it a color is tried only if it and the colors in use stay
    fewer than the best found, and the search stops at ``lower`` colors.
    """
    rows = {v: adj[v] & mask for v in bit_indices(mask)}
    # saturation times the vertex count, plus the rank by degree, then
    # by least index: the highest priority is the next vertex to color
    step = len(rows)
    ranked = sorted(rows, key=lambda v: (rows[v].bit_count(), -v))
    priority = {v: rank for rank, v in enumerate(ranked)}
    uncolored = mask
    color: dict[int, int] = {}
    classes = [0]  # the vertex mask of each color in use, then of a new color
    best = len(rows) + 1  # more colors than any coloring needs
    stack: list[tuple[int, list[int]]] = []  # a vertex and the colors it has left to try
    while True:
        if uncolored:
            v = max(rows.keys() - color.keys(), key=priority.__getitem__)
            stack.append((v, [c for c in range(len(classes)) if not rows[v] & classes[c]]))
        else:
            best = len(classes) - 1
            if best <= lower:
                return best
        # the deepest vertex with a color left that beats the best takes it
        while stack:
            v, free = stack[-1]
            if v in color:
                c = color.pop(v)
                classes[c] ^= 1 << v
                for u in bit_indices(rows[v] & uncolored):
                    if not rows[u] & classes[c]:
                        priority[u] -= step
                uncolored |= 1 << v
                if not classes[c]:
                    classes.pop()  # v opened color c, which is the new color again
            if free and free[0] < best - 1 and len(classes) <= best:
                c = color[v] = free.pop(0)
                if c == len(classes) - 1:
                    classes.append(0)
                uncolored ^= 1 << v
                for u in bit_indices(rows[v] & uncolored):
                    if not rows[u] & classes[c]:
                        priority[u] += step
                classes[c] |= 1 << v
                break
            stack.pop()
        else:
            return best


def _domination_search(adj: tuple[int, ...], mask: int) -> int:
    """Fewest vertices whose closed neighborhoods cover the subgraph
    induced on ``mask``.

    A greedy cover gives the upper bound.  Branch and bound on an explicit
    stack of (undominated mask, set size) then picks an undominated vertex
    with the fewest closed neighbors and branches on each of them.  k
    more vertices dominate at most the k largest gains (undominated
    vertices each one would dominate) together, so a branch is dropped
    when its size plus the fewest largest gains that reach the
    undominated count cannot beat the best.
    """
    closed = {v: adj[v] & mask | 1 << v for v in bit_indices(mask)}
    undominated, best = mask, 0
    while undominated:
        w = max(closed, key=lambda v: ((closed[v] & undominated).bit_count(), -v))
        undominated &= ~closed[w]
        best += 1
    stack = [(mask, 0)]
    while stack:
        undominated, size = stack.pop()
        if not undominated:
            best = min(best, size)
            continue
        gains = sorted(((row & undominated).bit_count() for row in closed.values()), reverse=True)
        left, need = undominated.bit_count(), 0
        while left > 0:
            left -= gains[need]
            need += 1
        if size + need >= best:
            continue
        pivot = min(bit_indices(undominated), key=lambda v: closed[v].bit_count())
        for w in reversed([*bit_indices(closed[pivot])]):
            stack.append((undominated & ~closed[w], size + 1))
    return best
