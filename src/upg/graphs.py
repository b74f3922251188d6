"""Simple undirected graphs with packed bitmask adjacency rows.

Row ``adj[v]`` is an int whose set bits are the neighbors of ``v``.
Includes the unity product graph construction, complement, the two
structure recognizers the claim checks rely on, and DOT/JSON export.

``SimpleGraph(...)``, ``graph_from_edges`` and ``graph_from_json`` check
their rows for loops, missing vertices and asymmetry.  The two ring
graph builders skip that check, since their rows hold by construction,
and seed the edge count they already know: ``unity_product_graph``
points each unit's row at its inverse, an involution, so the graph is
s*K1 + p*K2 with p edges, and ``complement`` flips the off-diagonal bits
of a valid graph's rows, leaving C(n, 2) - m edges.  Both also leave
the labels unmade: the unity product graph names its units, and the
complement hands the same namer on, only when ``labels`` is first read,
as only the exports and claim witnesses do.  A graph whose rows
have at most one bit each (``is_matching``) is such a union of K1's and
K2's; the invariants' Decomposition reads its split off the rows in C,
derives its complement's from it, and passes the co-components to
``recognize_complete_multipartite`` as (size, count) pairs.

Export is streamed: ``dot_chunks`` and ``json_chunks`` yield one piece
per adjacency row, joined from precomputed per-vertex strings, so no
Python object is made per edge.  A row with one later neighbor (every
unity product graph row) indexes its string; a row whose later
neighbors are every vertex up to the last but at most one (every
complement row, K_{1^s,2^p}) slices the strings and deletes that one;
any other row's binary digits select them in C.  ``export_dot`` and
``export_json`` join those pieces.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from itertools import compress
from typing import NamedTuple

from .rings import UnitGroup


class lazy_property:
    """A method read once, as an attribute.

    The first read stores the value in the instance dict, where later
    reads find it ahead of this non-data descriptor.  Unlike
    ``functools.cached_property`` on Python 3.11 it takes no lock, and it
    writes the dict directly, so it works on frozen dataclasses and keeps
    a value set there beforehand.
    """

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def bit_indices(mask: int):
    """Yield the indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class SimpleGraph:
    """Immutable simple graph: no loops, no parallel edges."""

    n: int
    labels: tuple[str, ...]
    adj: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != self.n or len(self.adj) != self.n:
            raise ValueError("label/adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
            if row & ~full:
                raise ValueError(f"adjacency row {v} references missing vertices")
        # Symmetry over whichever of edges and non-edges is fewer.  The
        # direction must be one for all rows: checking each row its own way
        # would let the edge 0 -> 1 of adj = (0b10, 0) through.
        if 2 * self.edge_count <= self.n * (self.n - 1) // 2:
            for v, row in enumerate(self.adj):
                for u in bit_indices(row):
                    if not self.adj[u] >> v & 1:
                        raise ValueError(f"asymmetric edge ({v}, {u})")
        else:
            for v, row in enumerate(self.adj):
                for u in bit_indices(full & ~row & ~(1 << v)):
                    if self.adj[u] >> v & 1:
                        raise ValueError(f"asymmetric edge ({u}, {v})")

    @classmethod
    def _trusted(
        cls, n: int, make_labels, adj: tuple[int, ...], edge_count: int
    ) -> SimpleGraph:
        """A graph whose rows the caller built loop-free, in range and
        symmetric, with ``edge_count`` edges; nothing is checked.  Its
        labels are ``make_labels()``, called on the first read."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, adj=adj, edge_count=edge_count, _make_labels=make_labels)
        return g

    def __getattr__(self, name: str):
        # reached only while a trusted graph's labels are unmade; they are
        # stored in the instance dict, so == and hash read them as a field
        if name != "labels" or "_make_labels" not in self.__dict__:
            raise AttributeError(name)
        labels = self.__dict__["labels"] = tuple(self.__dict__["_make_labels"]())
        return labels

    @lazy_property  # in the instance dict, so == and hash still see only the fields
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in bit_indices(row):
                out.append((u, v))
        return out


def graph_from_edges(vertices, edges, labels=None) -> SimpleGraph:
    """Build a graph from an edge list.

    ``vertices`` is a vertex count or a label sequence; explicit labels
    may also be passed separately.  Unlabeled vertices get their index.
    """
    if isinstance(vertices, int):
        n = vertices
        names = tuple(str(i) for i in range(n)) if labels is None else tuple(labels)
    else:
        n = len(vertices)
        names = tuple(vertices)
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return SimpleGraph(n=n, labels=names, adj=tuple(adj))


def unity_product_graph(ug: UnitGroup) -> SimpleGraph:
    """Graph on the units; x and y are adjacent iff x != y and x * y = unity.

    Vertices follow the unit order of ``ug`` (element-index order) and are
    labeled by element names.  Each row holds the unit's inverse unless
    the unit is self-inverse; inversion is an involution, so the rows are
    symmetric and the graph has one edge per two non-self-inverse units.
    """
    index_of = {x: i for i, x in enumerate(ug.units)}
    adj = []
    for i, x in enumerate(ug.units):
        j = index_of[ug.inverse_of[x]]
        adj.append(0 if j == i else 1 << j)
    n = len(adj)
    names = partial(map, ug.ring.element_name, ug.units)
    return SimpleGraph._trusted(n, names, tuple(adj), (n - adj.count(0)) // 2)


def complement(g: SimpleGraph) -> SimpleGraph:
    """Complement on the same vertex set, preserving labels.

    Row v is ``full ^ adj[v] ^ (1 << v)``, which is loop-free and
    symmetric because ``g`` is.
    """
    full = (1 << g.n) - 1
    adj = tuple([full ^ row ^ (1 << v) for v, row in enumerate(g.adj)])
    names = vars(g).get("_make_labels") or partial(tuple, g.labels)
    return SimpleGraph._trusted(g.n, names, adj, g.n * (g.n - 1) // 2 - g.edge_count)


def is_matching(adj: tuple[int, ...]) -> bool:
    """True when no row has two bits: the graph is a union of K1's and K2's."""
    return max(map(int.bit_count, adj), default=0) <= 1


def is_complete(g: SimpleGraph) -> bool:
    return g.edge_count == g.n * (g.n - 1) // 2


def connected_parts(adj: tuple[int, ...], mask: int, complemented: bool = False) -> list[int]:
    """Components of the subgraph induced on ``mask``, as vertex masks
    ordered by least vertex; with ``complemented``, the components of its
    complement (the co-components), found without building it.

    A mask BFS per part, over the rows ``adj[u]`` or ``~adj[u]``.  A level
    stops reading rows as soon as it has reached every vertex not yet in
    the part, so a part that spans the rest of the mask costs a few rows.
    """
    flip = -1 if complemented else 0  # row ^ -1 == ~row
    parts = []
    while mask:
        part = frontier = mask & -mask
        while frontier:
            missing = mask ^ part
            reach = 0
            for u in bit_indices(frontier):
                reach |= adj[u] ^ flip
                if reach & missing == missing:
                    break
            frontier = reach & missing
            part |= frontier
        parts.append(part)
        mask ^= part
    return parts


class StructureDecomposition(NamedTuple):
    """Outcome of matching-structure recognition.

    valid is True when every vertex has degree <= 1; then the graph is
    isolated * K1 + pairs * K2.  Counts are zeroed when invalid.
    """

    isolated: int
    pairs: int
    valid: bool


def decompose_matching_structure(g: SimpleGraph) -> StructureDecomposition:
    """Recognize a disjoint union of K1's and K2's: no row has two bits."""
    if not is_matching(g.adj):
        return StructureDecomposition(isolated=0, pairs=0, valid=False)
    return StructureDecomposition(isolated=g.adj.count(0), pairs=g.edge_count, valid=True)


class MultipartiteProfile(NamedTuple):
    """Outcome of complete-multipartite recognition.

    valid is True when the graph is complete multipartite; part_sizes is
    then the sorted (ascending) tuple of part sizes, empty when invalid.
    """

    part_sizes: tuple[int, ...]
    valid: bool


def recognize_complete_multipartite(
    g: SimpleGraph, co_components: Iterable[tuple[int, int]] | None = None
) -> MultipartiteProfile:
    """Detect complete multipartite graphs.

    A graph is complete multipartite iff each of its co-components (the
    components of its complement) is an independent set; the parts are
    those co-components.  Two vertices of different co-components are
    adjacent, so the graph has (n^2 - sum of |P|^2) / 2 edges between its
    co-components P, and exactly that many edges in all iff no
    co-component holds an edge.  The test reads no row: no complement is
    built, and none is searched when the caller passes the co-components
    as (size, count) pairs, ``count`` co-components of ``size`` vertices
    each, so that the sum is over the pairs, not the parts.  Callers must
    pass the graph's true co-components; any other partition gives a
    meaningless answer.
    """
    if co_components is None:
        parts = connected_parts(g.adj, (1 << g.n) - 1, complemented=True)
        co_components = Counter(map(int.bit_count, parts)).items()
    sized = sorted(co_components)
    if 2 * g.edge_count != g.n * g.n - sum([count * size * size for size, count in sized]):
        return MultipartiteProfile(part_sizes=(), valid=False)
    sizes: tuple[int, ...] = ()
    for size, count in sized:
        sizes += (size,) * count
    return MultipartiteProfile(part_sizes=sizes, valid=True)


# maps the ASCII digits of format(row, "b") to selector bytes for compress
_BIT_SELECTOR = bytes.maketrans(b"01", b"\x00\x01")


def _later_neighbor_tails(g: SimpleGraph, tails: list[str]):
    """Yield (u, tails[v] for each neighbor v > u, ascending) per row with one.

    A row whose later neighbors run from u + 1 to its last one with at
    most one vertex missing, as every complement row of a ring graph
    does, is a slice of ``tails`` with that one entry deleted.  Any other
    row with several is decoded in C: its binary digits, reversed, select
    from ``tails[u + 1:]``; compress stops at the highest set bit.
    """
    for u, row in enumerate(g.adj):
        later = row >> (u + 1)
        if not later:
            continue
        if later & (later - 1) == 0:
            # one later neighbor, as in every unity product graph row,
            # is cheaper to index than to decode
            yield u, (tails[u + later.bit_length()],)
            continue
        span = later.bit_length()
        gaps = later ^ ((1 << span) - 1)  # the non-neighbors before the last neighbor
        if gaps & (gaps - 1) == 0:
            run = tails[u + 1 : u + 1 + span]
            if gaps:
                del run[gaps.bit_length() - 1]
            yield u, run
        else:
            selector = format(later, "b").encode().translate(_BIT_SELECTOR)[::-1]
            yield u, compress(tails[u + 1 :], selector)


def dot_chunks(g: SimpleGraph):
    """Yield export_dot's text in pieces: the vertex lines, then one per row."""
    quoted = [f'"{_dot_escape(label)}"' for label in g.labels]
    yield "graph {\n" + "".join(f"  {q};\n" for q in quoted)
    tails = [f" -- {q};\n" for q in quoted]
    for u, later in _later_neighbor_tails(g, tails):
        head = f"  {quoted[u]}"
        yield head + head.join(later)
    yield "}\n"


def export_dot(g: SimpleGraph) -> str:
    """Deterministic DOT rendering: vertex lines first, then sorted edges."""
    return "".join(dot_chunks(g))


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def json_chunks(g: SimpleGraph):
    """Yield export_json's text in pieces, byte for byte json.dumps(indent=2).

    The labels go through json.dumps; n, the edge pairs and the braces
    are written in that layout, one piece per adjacency row.
    """
    labels = json.dumps(list(g.labels), separators=(",\n    ", ": "))  # C encoder, indent=2 layout
    labels = f"[\n    {labels[1:-1]}\n  ]" if g.n else "[]"
    yield f'{{\n  "n": {g.n},\n  "labels": {labels},\n  "edges": ['
    tails = [f"{v}\n    ]" for v in range(g.n)]
    sep = "\n"  # before the first pair; ",\n" before every later one
    for u, later in _later_neighbor_tails(g, tails):
        head = f"    [\n      {u},\n      "
        yield sep + head + (",\n" + head).join(later)
        sep = ",\n"
    yield "\n  ]\n}\n" if sep == ",\n" else "]\n}\n"


def export_json(g: SimpleGraph) -> str:
    """JSON document {n, labels, edges} with edges ascending, u < v."""
    return "".join(json_chunks(g))


def graph_from_json(text: str) -> SimpleGraph:
    """Inverse of export_json; validates shape and edge ranges."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("graph document must be a JSON object")
    for key in ("n", "labels", "edges"):
        if key not in doc:
            raise ValueError(f"graph document missing key {key!r}")
    n = doc["n"]
    labels = doc["labels"]
    edges = doc["edges"]
    # JSON true/false load as bool, a subclass of int; neither is a count or an id
    if type(n) is not int or n < 0:
        raise ValueError("n must be a nonnegative integer")
    if not isinstance(labels, list) or len(labels) != n:
        raise ValueError("labels must list one string per vertex")
    if not isinstance(edges, list):
        raise ValueError("edges must be a list of pairs")
    pairs = []
    for e in edges:
        if not isinstance(e, list) or len(e) != 2 or not all(type(v) is int for v in e):
            raise ValueError(f"bad edge entry {e!r}")
        pairs.append((e[0], e[1]))
    return graph_from_edges([str(x) for x in labels], pairs)
