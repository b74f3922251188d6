"""Simple undirected graphs with packed bitmask adjacency rows.

Row ``adj[v]`` is an int whose set bits are the neighbors of ``v``.
Includes the unity product graph construction, complement, the two
structure recognizers the claim checks rely on, and DOT/JSON export.

``SimpleGraph(...)``, ``graph_from_edges`` and ``graph_from_json`` check
their rows.  A ring graph (``paired``) is held as its counts instead:
n units, p inverse pairs, so s*K1 + p*K2, or K_{1^s,2^p} with
``complemented`` set, split in closed form by the invariants.  Made
from the unit group on first read are its ``mate`` array, vertex u's
entry the index of its unit's inverse; its rows, read by ``degree``,
``has_edge``, == and the general solvers; and its labels, the units'.

Export is streamed, with no Python object per edge: ``dot_chunks`` and
``json_chunks`` write a unity product graph's edges in one list
comprehension over the pairs u < mate[u], any other graph's one row at a
time.  Row u is one ``str.join`` of the names of its later neighbors,
whose separator closes the previous edge and opens the next from u, so
each edge's bytes are copied once.  Complement row u is every later
vertex but mate[u]; only a graph without an array has its rows decoded,
their binary digits selecting the names in C.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable
from functools import partial
from itertools import compress
from typing import NamedTuple

from .rings import FiniteRing, UnitGroup


class lazy_property:
    """A method read once, as an attribute.

    The first read stores the value in the instance dict, where later
    reads find it ahead of this non-data descriptor.  Unlike
    ``functools.cached_property`` on Python 3.11 it takes no lock, and it
    writes the dict directly, so it works on a class that refuses
    assignment, as SimpleGraph does, and keeps a value set there beforehand.
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


class SimpleGraph:
    """Immutable simple graph: no loops, no parallel edges.

    Its value is ``(n, labels, adj)``: == and hash read those three, repr
    shows them, and no attribute is set or deleted once it is made.
    """

    # a ring graph's, in its instance dict; not fields, so == never reads them
    paired = False
    complemented = False

    def __init__(self, n: int, labels: tuple[str, ...], adj: tuple[int, ...]):
        self.__dict__.update(n=n, labels=labels, adj=adj)
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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.labels, self.adj) == (other.n, other.labels, other.adj)

    def __hash__(self) -> int:
        return hash((self.n, self.labels, self.adj))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n!r}, labels={self.labels!r}, adj={self.adj!r})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def _trusted(cls, n: int, make_labels, edge_count: int, **held) -> SimpleGraph:
        """A graph whose rows or counts (``held``) the caller built valid,
        unchecked; its labels are ``make_labels()``, called on first read."""
        g = object.__new__(cls)
        g.__dict__.update(held, n=n, edge_count=edge_count, _make_labels=make_labels)
        return g

    def __getattr__(self, name: str):
        # reached only while a trusted graph's labels or a ring graph's rows are
        # unmade; stored in the instance dict, == and hash read them as fields
        held = self.__dict__
        if name == "labels" and "_make_labels" in held:
            value = tuple(held["_make_labels"]())
        elif name == "adj" and self.paired:
            # row u is {u, mate[u]} less u, or every vertex less those two
            full = (1 << self.n) - 1 if self.complemented else 0
            value = tuple([(full or 1 << u) ^ (1 << u | 1 << v) for u, v in enumerate(self.mate)])
        else:
            raise AttributeError(name)
        held[name] = value
        return value

    @lazy_property  # in the instance dict, so == and hash still see only the fields
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    # a ring graph's mate array, made on first read; None for any other graph
    mate = lazy_property(lambda g: tuple(g._make_mate()) if g.paired else None)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        if self.paired and not self.complemented:
            return [(u, v) for u, v in enumerate(self.mate) if u < v]
        return [(u, v) for u in range(self.n) for v in bit_indices(self.adj[u] >> u + 1 << u + 1)]


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


def ring_graph(ring: FiniteRing, n: int, pairs: int, unit_group) -> SimpleGraph:
    """The unity product graph of a ring with n units, ``pairs`` inverse
    pairs among them.  Its mate array (made in C) and labels come from
    ``unit_group()``, a UnitGroup, on first read; vertices are in unit
    (element-index) order."""

    def mate():
        ug = unit_group()
        index_of = dict(zip(ug.units, range(n)))
        return map(index_of.__getitem__, map(ug.inverse_of.__getitem__, ug.units))

    names = ring.unit_names or (lambda: map(ring.element_name, unit_group().units))
    return SimpleGraph._trusted(n, names, pairs, paired=True, _make_mate=mate)


def unity_product_graph(ug: UnitGroup) -> SimpleGraph:
    """Graph on the units; x and y are adjacent iff x != y and x * y = unity:
    the ``ring_graph`` of ug's counts."""
    n, s = ug.counts()
    return ring_graph(ug.ring, n, (n - s) // 2, lambda: ug)


def complement(g: SimpleGraph) -> SimpleGraph:
    """Complement on the same vertex set, preserving labels: a ring graph
    with ``complemented`` flipped, sharing its mate array, or else the
    rows ``full ^ adj[v] ^ (1 << v)``."""
    names = vars(g).get("_make_labels") or partial(tuple, g.labels)
    m = g.n * (g.n - 1) // 2 - g.edge_count
    if g.paired:
        mate = partial(getattr, g, "mate")  # one array for both graphs
        return SimpleGraph._trusted(
            g.n, names, m, paired=True, complemented=not g.complemented, _make_mate=mate
        )
    full = (1 << g.n) - 1
    adj = tuple([full ^ row ^ (1 << v) for v, row in enumerate(g.adj)])
    return SimpleGraph._trusted(g.n, names, m, adj=adj)


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
    if max(map(int.bit_count, g.adj), default=0) > 1:
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


def _edge_pieces(g: SimpleGraph, names: list[str], head: str, sep: str, tail: str, drop: int = 0):
    """Yield, in nonempty pieces, head + names[u] + sep + names[v] + tail
    for every edge u < v, ascending, less the first ``drop`` characters: a
    unity product graph's in one piece, any other graph's one piece per
    row and then the last tail.  Row u joins ``names[u:]``, first entry
    blanked, less mate[u] for a complement, or, without a mate array, as
    selected in C by the row's binary digits, reversed.  The separator is
    the previous edge's tail and then head + names[u] + sep, so each edge
    is copied once; the first piece is cut of the tail that opens it.
    """
    mate = g.mate
    if mate is not None and not g.complemented:
        pairs = enumerate(mate)
        text = "".join([f"{head}{names[u]}{sep}{names[v]}{tail}" for u, v in pairs if u < v])
        if text:
            yield text[drop:]
        return
    cut = len(tail) + drop
    for u in range(g.n):
        if mate is not None:
            row = names[u:]
            if mate[u] > u:
                del row[mate[u] - u]
        elif row := g.adj[u] >> u:  # | 1 keeps names[u], the entry blanked
            selector = format(row | 1, "b").encode().translate(_BIT_SELECTOR)[::-1]
            row = list(compress(names[u:], selector))
        else:
            continue
        if len(row) > 1:
            row[0] = ""
            yield (tail + head + names[u] + sep).join(row)[cut:]
            cut = 0
    if not cut:
        yield tail


def dot_chunks(g: SimpleGraph):
    """Yield export_dot's text in pieces: the vertex lines, then the edges."""
    labels = g.labels
    text = "".join(labels)
    if "\\" in text or '"' in text:
        labels = [label.replace("\\", "\\\\").replace('"', '\\"') for label in labels]
    quoted = [f'"{label}"' for label in labels]
    lines = ";\n  ".join(quoted)
    yield f"graph {{\n  {lines};\n" if quoted else "graph {\n"
    yield from _edge_pieces(g, quoted, "  ", " -- ", ";\n")
    yield "}\n"


def export_dot(g: SimpleGraph) -> str:
    """Deterministic DOT rendering: vertex lines first, then sorted edges."""
    return "".join(dot_chunks(g))


def flat_json(value: dict | list, depth: int) -> str:
    """json.dumps(value, indent=2) as written ``depth`` levels deep, for a
    dict or list of scalars: the C encoder, which indent would turn off,
    with the newline and indent carried by its item separator.  Items are
    not checked: a nested value is not laid out as indent=2 would."""
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    pad = "\n" + "  " * (depth + 1)
    text = json.dumps(value, separators=("," + pad, ": "))
    return f"{text[0]}{pad}{text[1:-1]}{pad[:-2]}{text[-1]}"


def json_chunks(g: SimpleGraph):
    """Yield export_json's text in pieces, byte for byte json.dumps(indent=2).

    The labels go through flat_json; n, the edge pairs and the braces
    are written in that layout.  Every pair is written after a comma,
    which the first piece drops.
    """
    yield f'{{\n  "n": {g.n},\n  "labels": {flat_json(list(g.labels), 1)},\n  "edges": ['
    names = list(map(str, range(g.n)))
    yield from _edge_pieces(g, names, ",\n    [\n      ", ",\n      ", "\n    ]", drop=1)
    yield "\n  ]\n}\n" if g.edge_count else "]\n}\n"


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
