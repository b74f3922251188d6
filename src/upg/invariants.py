"""Exact graph invariants.

All solvers are exact.  Every invariant of a report is a field of the
graph's split.  A ring graph, s*K1 + p*K2 or its complement K_{1^s,2^p},
is split by RingSplit, which states every field in closed form from n,
s and its ``complemented`` flag, with no BFS, no row and no tuple of
parts.  Every other graph is split by Decomposition, the rows-only
engine in ``rows.py``, which ``split_of`` imports the first time it
splits such a graph; no ring graph loads it.

InvariantReport is the one handle per graph that ``analyze``, ``survey``
and the claim checks read: it makes the graph's split once, on first
need (``split_of``), and computes each invariant on its first read
through the module solver of that name, which reads the split's field.
``full_report`` computes and checks every field.  Planarity and
hamiltonicity of a complete multipartite graph are decided here by
classification (``multipartite_planar``, ``multipartite_hamiltonian``);
a graph outside the classes a split decides in closed form is refused
with VertexBoundError.

Values that can be infinite (girth, diameter, radius) use ``math.inf``;
``fmt_extended`` renders them as ``"inf"``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .graphs import (
    MultipartiteProfile,
    SimpleGraph,
    complement,
    flat_json,
    lazy_property,
    recognize_complete_multipartite,
)

if TYPE_CHECKING:
    from .rows import Decomposition

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

    @lazy_property
    def multipartite(self) -> MultipartiteProfile:
        return recognize_complete_multipartite(self.graph, self.co_components)

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
    if g.paired:
        return RingSplit(g)
    from .rows import Decomposition

    return Decomposition(g)


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
