"""Exact graph invariants.

All solvers are exact.  Every invariant of a report is a field of the
graph's split.  A ring graph, s*K1 + p*K2 or its complement K_{1^s,2^p},
is split by RingSplit, which states every field in closed form from n,
s and its ``complemented`` flag, with no BFS, no row and no tuple of
parts.  Every other graph is split by Decomposition, the rows-only
engine, into components and co-components (the components of the
complement, found by a mask BFS over ``~adj[u]``), the cograph frame of
Corneil, Perl and Stewart (1985), one piece per part, on an explicit
stack, so it never recurses once per vertex; its fields are computed on
first read.
Domination, clique and chromatic numbers combine over the pieces: over
a union by maximum or by sum, over a join by sum, and a join is
dominated by one vertex or two.
Only prime pieces, connected and co-connected, reach a search: branch
and bound for clique, coloring (DSATUR) and domination, each run on the
piece's vertex mask in place and on an explicit stack, each meant for
small pieces.  No ring graph reaches a search.

InvariantReport is the one handle per graph that ``analyze``, ``survey``
and the claim checks read: it makes the graph's split once, on first
need (``split_of``), and computes each invariant on its first read
through the module solver of that name, which reads the split's field.
``full_report`` computes and checks every field.

On a Decomposition, girth and eccentricity work on the split and on
whole adjacency rows: girth settles forests by their edge count, a join
by its co-components and the others with a triangle by one row AND per
edge, and runs a per-root BFS only on triangle-free cyclic graphs that
are not joins; eccentricities are read off the split for a union (all
infinite) or a join (1 or 2, from the co-component sizes), and only a
connected and co-connected graph runs a direction-switching BFS over
vertex masks.  Planarity and hamiltonicity are decided in closed form
for forests and complete multipartite graphs (told apart by the edge
count against the co-component sizes), plus graphs that small size or
an edge or degree count settles; any other graph is refused with
VertexBoundError.

Values that can be infinite (girth, diameter, radius) use ``math.inf``;
``fmt_extended`` renders them as ``"inf"``.
"""

from __future__ import annotations

import math
from collections import Counter

from .graphs import (
    MultipartiteProfile,
    SimpleGraph,
    bit_indices,
    complement,
    connected_parts,
    flat_json,
    lazy_property,
    recognize_complete_multipartite,
)

INFINITY = math.inf

# Extended natural number: a nonnegative int, or INFINITY.
ExtendedNat = int | float


class VertexBoundError(Exception):
    """The graph is outside the classes an invariant decides in closed form."""

    def __init__(self, invariant: str, n: int):
        super().__init__(
            f"{invariant}: graph on {n} vertices is outside the classes "
            "decided in closed form"
        )
        self.invariant = invariant
        self.n = n


def fmt_extended(value: ExtendedNat) -> str:
    return "inf" if value == INFINITY else str(int(value))


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

        Graphs on at most 4 vertices and forests (every unity product graph)
        are planar; the edge bound 3n - 6 rejects; complete multipartite
        graphs (every complement) use the classification.  Any other graph
        is refused with VertexBoundError.
        """
        g = self.graph
        m = g.edge_count
        if g.n <= 4 or m == g.n - self.component_count:
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
        and any other graph is refused with VertexBoundError.
        """
        g = self.graph
        if g.n < 3 or self.component_count != 1:
            return False
        profile = self.multipartite
        if profile.valid:
            return multipartite_hamiltonian(profile.part_sizes)
        if g.edge_count < g.n or any(g.degree(v) < 2 for v in range(g.n)):
            return False
        raise VertexBoundError("hamiltonicity", g.n)


class RingSplit:
    """The split of a ring graph, s*K1 + p*K2 or its complement
    K_{1^s,2^p}, in closed form from n, s and ``complemented``: every
    field Decomposition answers, as plain attributes made by arithmetic,
    with no BFS, no row and no tuple of parts.  s is n - 2p, with p the
    unity product graph's seeded edge count.

    The unity product graph's components are s single vertices and p
    edges, (1, s) and (2, p), its co-component all of it (K2 alone is a
    join of two vertices).  It is a planar forest, never hamiltonian, and
    its diameter and radius are infinite, except on K2 (1) and on at most
    one vertex (0).

    The complement's components and co-components are the other way round
    (2K1, K2's complement, is two isolated vertices).  Its clique and
    chromatic numbers are s + p, one vertex per part, and its domination
    number 1 with a single vertex, else 2 (each vertex misses its mate),
    or n below 2.  Its girth is 3 from three parts on, which hold a
    triangle; of two parts only C4 (p = 2) has a cycle, of girth 4.  Its
    diameter is 1 with no pair, else 2, and its radius 1 with a single
    vertex, else 2.  It is planar iff it has at most three parts, or four
    with at most one pair (``multipartite_planar``), and hamiltonian iff
    n >= 3 and no part holds more than half the vertices: n >= 4, or K3
    (``multipartite_hamiltonian``).
    """

    def __init__(self, g: SimpleGraph):
        n = g.n
        self.graph = g
        pairs = n * (n - 1) // 2 - g.edge_count if g.complemented else g.edge_count
        singles = n - 2 * pairs
        runs = [(size, count) for size, count in ((1, singles), (2, pairs)) if count]
        lone_pair = runs == [(2, 1)]
        whole = [(1, 2)] if lone_pair else [(n, 1)] if n else []
        if g.complemented:
            parts = singles + pairs
            self.components, self.co_components = whole, runs
            self.clique_order = self.chromatic = parts
            self.domination = 1 if singles else min(n, 2)
            self.isolated_count = 2 if lone_pair else int(n == 1)
            self.girth = 3 if parts > 2 else 4 if pairs == 2 else INFINITY
            self.eccentricities = (
                (0, 0) if n <= 1 else (INFINITY, INFINITY) if lone_pair
                else (2 if pairs else 1, 1 if singles else 2)
            )
            self.planar = parts <= 3 or parts == 4 and pairs <= 1
            self.hamiltonian = n >= 4 or n == 3 and not pairs
        else:
            self.components, self.co_components = runs, whole
            self.clique_order = self.chromatic = 2 if pairs else min(n, 1)
            self.domination = singles + pairs
            self.isolated_count = singles
            self.girth = INFINITY
            self.eccentricities = (0, 0) if n <= 1 else (1, 1) if lone_pair else (INFINITY, INFINITY)
            self.planar, self.hamiltonian = True, False
        self.component_count = sum(count for _, count in self.components)

    multipartite = Decomposition.multipartite

    @lazy_property
    def clique(self) -> tuple[int, int]:
        """(order, vertex mask) of a maximum clique, Decomposition's, read
        off the mate array: the complement's single vertices and the lesser
        of each pair; the least edge of the unity product graph, or vertex 0."""
        mate = self.graph.mate
        if self.graph.complemented:
            mask = sum([1 << u for u, v in enumerate(mate) if u <= v])
        else:
            u = next((u for u, v in enumerate(mate) if u != v), 0)
            mask = 1 << u | 1 << mate[u] if mate else 0
        return self.clique_order, mask


def split_of(g: SimpleGraph) -> Decomposition | RingSplit:
    """g's split: in closed form for a ring graph, else from its rows."""
    return RingSplit(g) if g.paired else Decomposition(g)


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


def girth(g: SimpleGraph, split: Decomposition | RingSplit | None = None) -> ExtendedNat:
    """Length of a shortest cycle, INFINITY for forests.

    ``split``, here and below, is g's split (``split_of``), which an
    InvariantReport passes so that its fields share one."""
    return (split or split_of(g)).girth


def eccentricity_profile(
    g: SimpleGraph, split: Decomposition | RingSplit | None = None
) -> tuple[ExtendedNat, ExtendedNat]:
    """(diameter, radius)."""
    return (split or split_of(g)).eccentricities


def domination_number(g: SimpleGraph, split: Decomposition | RingSplit | None = None) -> int:
    """Minimum size of a set whose closed neighborhoods cover the graph."""
    return (split or split_of(g)).domination


def max_clique(g: SimpleGraph, split: Decomposition | RingSplit | None = None) -> tuple[int, int]:
    """(order, vertex mask) of a maximum clique."""
    return (split or split_of(g)).clique


def clique_number(g: SimpleGraph, split: Decomposition | RingSplit | None = None) -> int:
    """Order of a maximum clique (1 for nonempty edgeless graphs)."""
    return (split or split_of(g)).clique_order


def chromatic_number(g: SimpleGraph, split: Decomposition | RingSplit | None = None) -> int:
    """Fewest colors of a proper vertex coloring."""
    return (split or split_of(g)).chromatic


def is_planar(g: SimpleGraph, split: Decomposition | RingSplit | None = None) -> bool:
    """Exact planarity of a ring graph; any graph outside the classes
    decided in closed form is refused with VertexBoundError."""
    return (split or split_of(g)).planar


def is_hamiltonian(g: SimpleGraph, split: Decomposition | RingSplit | None = None) -> bool:
    """Exact hamiltonicity of a ring graph; any graph outside the classes
    decided in closed form is refused with VertexBoundError."""
    return (split or split_of(g)).hamiltonian


def multipartite_planar(part_sizes: tuple[int, ...]) -> bool:
    """Planarity of a complete multipartite graph, by classification.

    With parts sorted descending: one part is always planar; two parts
    iff the second part is at most 2; three parts iff the sizes are
    (n,1,1), (2,2,1) or (2,2,2); four parts iff (1,1,1,1) or (2,1,1,1);
    five or more parts never (they contain K5).
    """
    parts = sorted(part_sizes, reverse=True)
    m = len(parts)
    if m <= 1:
        return True
    if m == 2:
        return parts[1] <= 2
    if m == 3:
        return (parts[1] == 1) or parts == [2, 2, 1] or parts == [2, 2, 2]
    if m == 4:
        return parts == [1, 1, 1, 1] or parts == [2, 1, 1, 1]
    return False


def multipartite_hamiltonian(part_sizes: tuple[int, ...]) -> bool:
    """Hamiltonicity of a complete multipartite graph: no part may
    exceed all others combined; cycles need at least 3 vertices."""
    n = sum(part_sizes)
    return n >= 3 and 2 * max(part_sizes) <= n


# the report fields past the graph's size and components, in report
# order: one survey column each for the graph and its complement
SURVEY_FIELDS = (
    "girth", "diameter", "radius", "domination_number",
    "chromatic_number", "clique_number", "planar", "hamiltonian",
)


class InvariantReport:
    """The invariants of one graph, each computed on its first read.

    The report owns the graph's split, made when a field first needs it,
    RingSplit for a ring graph and Decomposition for any other, and hands
    it to the solvers that read it.  girth,
    diameter and radius are extended naturals; everything else is finite.
    ``check`` computes every field and asserts their consistency.
    """

    _FIELDS = ("n", "edge_count", "component_count", "isolated_count", "connected", *SURVEY_FIELDS)

    def __init__(self, g: SimpleGraph):
        self.graph = g

    @lazy_property
    def split(self) -> Decomposition | RingSplit:
        return split_of(self.graph)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count

    @property
    def component_count(self) -> int:
        return self.split.component_count

    @lazy_property
    def isolated_count(self) -> int:
        return self.split.isolated_count

    @property
    def connected(self) -> bool:
        return self.component_count <= 1

    @lazy_property
    def girth(self) -> ExtendedNat:
        return girth(self.graph, self.split)

    @lazy_property
    def _eccentricities(self) -> tuple[ExtendedNat, ExtendedNat]:
        return eccentricity_profile(self.graph, self.split)

    @property
    def diameter(self) -> ExtendedNat:
        return self._eccentricities[0]

    @property
    def radius(self) -> ExtendedNat:
        return self._eccentricities[1]

    @lazy_property
    def domination_number(self) -> int:
        return domination_number(self.graph, self.split)

    @lazy_property
    def chromatic_number(self) -> int:
        return chromatic_number(self.graph, self.split)

    @lazy_property
    def clique_number(self) -> int:
        return clique_number(self.graph, self.split)

    @lazy_property
    def planar(self) -> bool:
        return is_planar(self.graph, self.split)

    @lazy_property
    def hamiltonian(self) -> bool:
        return is_hamiltonian(self.graph, self.split)

    def complement(self) -> InvariantReport:
        """The complement graph's report, its split made afresh (split_of)."""
        return InvariantReport(complement(self.graph))

    def check(self) -> InvariantReport:
        """Compute every field, in report order, and assert consistency."""
        for name in self._FIELDS:
            getattr(self, name)
        assert self.radius <= self.diameter
        assert self.clique_number <= self.chromatic_number
        assert self.connected == (self.component_count <= 1)
        if self.hamiltonian:
            assert self.connected and self.n >= 3
        return self

    def text(self, name: str) -> str:
        """One field as the text report and the survey print it."""
        value = getattr(self, name)
        if isinstance(value, bool):
            return "true" if value else "false"
        return fmt_extended(value)

    def to_json_dict(self) -> dict:
        out: dict = {}
        for name in self._FIELDS:
            value = getattr(self, name)
            out[name] = "inf" if value == INFINITY else value
        return out

    def to_json(self) -> str:
        return flat_json(self.to_json_dict(), 0) + "\n"

    def to_text(self) -> str:
        """Two-column aligned table, fixed field order."""
        rows = [(name, self.text(name)) for name in self._FIELDS]
        width = max(len(name) for name, _ in rows)
        vwidth = max(len(text) for _, text in rows)
        lines = [f"{name:<{width}}  {text:>{vwidth}}" for name, text in rows]
        return "\n".join(lines) + "\n"


def full_report(g: SimpleGraph) -> InvariantReport:
    """The report of one graph with every field computed and checked."""
    return InvariantReport(g).check()
