import importlib.util
import os
import subprocess
import sys
import types
from collections import Counter
from itertools import combinations
from pathlib import Path
from random import Random

import pytest

import upg.cli
import upg.graphs
import upg.invariants
from upg.claims import RingContext, default_rings
from upg.graphs import (
    SimpleGraph,
    bit_indices,
    complement,
    connected_parts,
    graph_from_edges,
    unity_product_graph,
)
from upg.invariants import (
    INFINITY,
    JOIN,
    PRIME,
    SMALL,
    UNION,
    Decomposition,
    InvariantReport,
    VertexBoundError,
    _chromatic_search,
    _clique_search,
    _domination_search,
    chromatic_number,
    clique_number,
    domination_number,
    eccentricity_profile,
    fmt_extended,
    full_report,
    girth,
    is_hamiltonian,
    is_planar,
    max_clique,
    multipartite_hamiltonian,
    multipartite_planar,
)
from upg.rings import parse_ring_spec, units

from oracles import (
    SPLIT_FIELDS,
    assert_matches_reference,
    brute_chromatic,
    brute_chromatic_assignments,
    brute_clique,
    brute_domination,
    brute_girth,
    brute_hamiltonian,
    pairing_graph,
    random_graph,
    reference_chromatic_search,
    reference_clique_search,
    reference_domination_search,
    reference_eccentricity_profile,
    reference_girth,
    reference_is_planar,
    reference_report_json,
)
from oracles import _has_k33_subdivision, _has_k5_subdivision


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return graph_from_edges(n, list(combinations(range(n), 2)))


def complete_multipartite(*parts):
    offsets = []
    total = 0
    for size in parts:
        offsets.append(list(range(total, total + size)))
        total += size
    edges = []
    for i, a in enumerate(offsets):
        for b in offsets[i + 1:]:
            edges.extend((u, v) for u in a for v in b)
    return graph_from_edges(total, edges)


PETERSEN = graph_from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)


def decided(decider, g):
    """decider(g), or None when the graph is outside its closed forms."""
    try:
        return decider(g)
    except VertexBoundError:
        return None


def subdivide_all(g):
    """Replace every edge by a length-2 path through a fresh vertex."""
    edges = []
    extra = g.n
    for u, v in g.edges():
        edges.append((u, extra))
        edges.append((extra, v))
        extra += 1
    return graph_from_edges(extra, edges)


def test_girth_known():
    assert girth(cycle(5)) == 5
    assert girth(cycle(17)) == 17
    assert girth(path(6)) == INFINITY
    assert girth(complete(4)) == 3
    assert girth(complete_multipartite(3, 3)) == 4
    assert girth(PETERSEN) == 5
    assert girth(graph_from_edges(1, [])) == INFINITY
    # chord splits C6 into two C4s
    g = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
    assert girth(g) == 4
    assert girth(subdivide_all(complete(4))) == 6


def test_eccentricity_known():
    assert eccentricity_profile(cycle(6)) == (3, 3)
    assert eccentricity_profile(path(4)) == (3, 2)
    assert eccentricity_profile(complete(5)) == (1, 1)
    assert eccentricity_profile(graph_from_edges(1, [])) == (0, 0)
    star = graph_from_edges(6, [(0, i) for i in range(1, 6)])
    assert eccentricity_profile(star) == (2, 1)
    assert eccentricity_profile(graph_from_edges(3, [(0, 1)])) == (INFINITY, INFINITY)


def test_domination_known():
    assert domination_number(complete(6)) == 1
    assert domination_number(cycle(5)) == 2
    assert domination_number(cycle(9)) == 3
    assert domination_number(path(4)) == 2
    assert domination_number(PETERSEN) == 3
    assert domination_number(graph_from_edges(7, [(0, 1), (2, 3)])) == 5
    assert domination_number(graph_from_edges(3, [])) == 3


def test_domination_many_pairs():
    # 40 disjoint edges; per-component decomposition keeps this instant
    g = graph_from_edges(80, [(2 * i, 2 * i + 1) for i in range(40)])
    assert domination_number(g) == 40


def test_clique_known():
    assert clique_number(complete(7)) == 7
    assert clique_number(cycle(5)) == 2
    assert clique_number(complete_multipartite(2, 2, 2)) == 3
    assert clique_number(PETERSEN) == 2
    assert clique_number(graph_from_edges(4, [])) == 1
    size, mask = max_clique(complete(3))
    assert size == 3 and mask == 0b111


def test_chromatic_known():
    assert chromatic_number(complete(6)) == 6
    assert chromatic_number(cycle(5)) == 3
    assert chromatic_number(cycle(6)) == 2
    assert chromatic_number(PETERSEN) == 3
    assert chromatic_number(graph_from_edges(5, [])) == 1
    assert chromatic_number(complete_multipartite(2, 2, 2)) == 3
    # wheel over an odd cycle
    wheel = graph_from_edges(
        6, [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)]
    )
    assert chromatic_number(wheel) == 4


def test_planarity_known():
    # K5 minus an edge (K_{2,1,1,1}) and the octahedron are planar
    k5e = graph_from_edges(5, [e for e in combinations(range(5), 2) if e != (3, 4)])
    closed_form = [
        (complete(4), True),
        (complete(5), False),
        (complete(6), False),
        (complete_multipartite(3, 3), False),
        (complete_multipartite(2, 3), True),
        (path(20), True),
        (k5e, True),
        (complete_multipartite(2, 2, 2), True),
    ]
    for g, expected in closed_form:
        assert is_planar(g) == reference_is_planar(g) == expected, g
    # a cycle is neither a forest nor complete multipartite
    assert reference_is_planar(cycle(12))
    assert decided(is_planar, cycle(12)) is None


def test_planarity_subdivisions():
    cases = [
        (subdivide_all(complete(5)), False),
        (subdivide_all(complete_multipartite(3, 3)), False),
        (subdivide_all(complete(4)), True),
        (PETERSEN, False),
    ]
    for g, expected in cases:
        assert reference_is_planar(g) == expected, g
        assert decided(is_planar, g) in (expected, None), g
    # Petersen has no K5 subdivision (3-regular) but has a K33 subdivision
    assert not _has_k5_subdivision(PETERSEN)
    assert _has_k33_subdivision(PETERSEN)


def test_planarity_multipartite_closed_form_matches_search():
    # all complete multipartite graphs on at most 9 vertices
    def profiles(total, smallest):
        if total == 0:
            yield ()
            return
        for first in range(smallest, total + 1):
            for rest in profiles(total - first, first):
                yield (first, *rest)

    for n in range(1, 10):
        for parts in profiles(n, 1):
            g = complete_multipartite(*parts)
            expected = reference_is_planar(g)
            assert multipartite_planar(tuple(sorted(parts))) == expected, parts


def test_hamiltonian_multipartite_closed_form_matches_brute():
    def profiles(total, smallest):
        if total == 0:
            yield ()
            return
        for first in range(smallest, total + 1):
            for rest in profiles(total - first, first):
                yield (first, *rest)

    for n in range(1, 9):
        for parts in profiles(n, 1):
            g = complete_multipartite(*parts)
            assert multipartite_hamiltonian(tuple(sorted(parts))) == brute_hamiltonian(g), parts


def test_hamiltonian_known():
    # 3x3 grid is bipartite with odd order
    grid = graph_from_edges(
        9,
        [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
        + [(r * 3 + c, (r + 1) * 3 + c) for r in range(2) for c in range(3)],
    )
    closed_form = [
        (complete(4), True),
        (complete_multipartite(3, 3), True),
        (complete_multipartite(4, 3), False),
        (path(5), False),
        (complete(2), False),
        (graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]), False),
    ]
    for g, expected in closed_form:
        assert is_hamiltonian(g) == brute_hamiltonian(g) == expected, g
    others = [
        (cycle(5), True),
        (PETERSEN, False),  # classic non-hamiltonian 3-regular graph
        (grid, False),
        (subdivide_all(complete(3)), True),  # C6
    ]
    for g, expected in others:
        assert brute_hamiltonian(g) == expected, g
        assert decided(is_hamiltonian, g) in (expected, None), g


def test_vertex_bounds():
    # outside the closed-form classes a graph is refused at any size
    with pytest.raises(VertexBoundError) as exc:
        is_planar(cycle(30))
    assert exc.value.invariant == "planarity" and exc.value.n == 30
    assert "closed form" in str(exc.value)

    with pytest.raises(VertexBoundError) as exc:
        is_hamiltonian(cycle(70))
    assert exc.value.invariant == "hamiltonicity" and exc.value.n == 70
    assert "closed form" in str(exc.value)


def test_solvers_match_oracles_randomized():
    rng = Random(20260817)
    for trial in range(120):
        n = rng.randrange(1, 10)
        g = random_graph(n, rng.random(), rng)
        assert domination_number(g) == brute_domination(g), (trial, g)
        assert clique_number(g) == brute_clique(g), (trial, g)
        assert chromatic_number(g) == brute_chromatic(g), (trial, g)
        assert girth(g) == brute_girth(g), (trial, g)


def relabeled(g, order):
    """g with vertex v renamed order[v]."""
    return graph_from_edges(g.n, [(order[u], order[v]) for u, v in g.edges()])


def disjoint_union(parts):
    edges, offset = [], 0
    for part in parts:
        edges += [(offset + u, offset + v) for u, v in part.edges()]
        offset += part.n
    return graph_from_edges(offset, edges)


def join(parts):
    union = disjoint_union(parts)
    edges, offset = union.edges(), 0
    for i, part in enumerate(parts):
        rest = sum(p.n for p in parts[i + 1:])
        later = range(offset + part.n, offset + part.n + rest)
        edges += [(u, v) for u in range(offset, offset + part.n) for v in later]
        offset += part.n
    return graph_from_edges(offset, edges)


def random_nested(depth, combine, rng):
    """A union or join (alternating by level, ``depth`` levels) of one
    nested graph and one or two random pieces on one to four vertices."""
    if depth == 0:
        return random_graph(rng.randrange(1, 5), rng.random(), rng)
    parts = [random_nested(depth - 1, join if combine is disjoint_union else disjoint_union, rng)]
    for _ in range(rng.randrange(1, 3)):
        parts.append(random_graph(rng.randrange(1, 5), rng.random(), rng))
    rng.shuffle(parts)
    return combine(parts)


def induced(g, mask):
    """The subgraph of g induced on mask, its vertices renumbered in order."""
    position = {v: k for k, v in enumerate(bit_indices(mask))}
    edges = [(position[u], position[v]) for u, v in g.edges() if u in position and v in position]
    return graph_from_edges(len(position), edges)


def test_decomposition_solvers_match_references_randomized():
    # Random graphs, then unions and joins nested three or four levels
    # deep and relabeled at random, so pieces are not index ranges.  The
    # former prime-piece searches, run on the whole graph, check every
    # graph; brute_clique and brute_chromatic (O(2^n) and O(3^n) steps)
    # those on at most 11 vertices, and brute_domination those on at
    # most 14.  The in-place searches also run on a random vertex mask of
    # every graph, against the former searches on the induced subgraph.
    rng = Random(20261018)
    cases = [random_graph(rng.randrange(1, 15), rng.random(), rng) for _ in range(1000)]
    # larger prime pieces, where the chromatic number is often above the
    # clique number
    cases += [random_graph(rng.randrange(15, 23), rng.uniform(0.2, 0.8), rng) for _ in range(400)]
    while len(cases) < 1800:
        g = random_nested(rng.choice((3, 4)), rng.choice((disjoint_union, join)), rng)
        if g.n <= 14:
            order = list(range(g.n))
            rng.shuffle(order)
            cases.append(relabeled(g, order))
    paths = Counter()
    for trial, g in enumerate(cases):
        omega, clique = max_clique(g)
        assert clique.bit_count() == omega, (trial, g)
        assert all(g.adj[v] & clique == clique ^ 1 << v for v in bit_indices(clique)), (trial, g)
        whole = reference_clique_search(g)
        assert omega == clique_number(g) == whole[0], (trial, g)
        chi = chromatic_number(g)
        assert chi == reference_chromatic_search(g, whole), (trial, g)
        if g.n <= 11:
            assert omega == brute_clique(g) and chi == brute_chromatic(g), (trial, g)
        gamma = domination_number(g)
        assert gamma == reference_domination_search(g), (trial, g)
        if g.n <= 14:
            assert gamma == brute_domination(g), (trial, g)
        paths.update(set(Decomposition(g).kinds))
        paths["chi > omega"] += chi > omega

        mask = rng.randrange(1 << g.n)
        sub = induced(g, mask)
        order, local = reference_clique_search(sub)
        vertices = list(bit_indices(mask))
        clique = sum(1 << vertices[k] for k in bit_indices(local))
        assert _clique_search(g.adj, mask) == (order, clique), (trial, g, mask)
        chi = reference_chromatic_search(sub, (order, local))
        assert _chromatic_search(g.adj, mask, order) == chi, (trial, g, mask)
        assert _domination_search(g.adj, mask) == reference_domination_search(sub), (trial, g, mask)
    # every path of the decomposition ran, in at least 100 graphs each,
    # and as many graphs need more colors than their clique number
    assert min(paths[PRIME], paths[UNION], paths[JOIN], paths["chi > omega"]) >= 100, paths


# a piece's kind in the complement, for pieces of two or more vertices
FLIPPED = {UNION: JOIN, JOIN: UNION, SMALL: "non-edge", "non-edge": SMALL, PRIME: PRIME}


def test_split_reads_match_references_randomized():
    # Eccentricities read off the split against the BFS reference, and the
    # complement's split against the graph's: the same pieces with every
    # kind flipped, components and co-components swapped.  Random graphs,
    # nested unions and joins relabeled at random, and every graph on at
    # most two vertices.
    rng = Random(20261018)
    cases = [random_graph(rng.randrange(1, 15), rng.random(), rng) for _ in range(600)]
    for _ in range(300):
        g = random_nested(rng.choice((2, 3)), rng.choice((disjoint_union, join)), rng)
        order = list(range(g.n))
        rng.shuffle(order)
        cases.append(relabeled(g, order))
    cases += [graph_from_edges(n, []) for n in (0, 1, 2)] + [graph_from_edges(2, [(0, 1)])]
    shapes = Counter()
    for trial, g in enumerate(cases):
        split = Decomposition(g)
        expected = reference_eccentricity_profile(g)[:2]
        assert eccentricity_profile(g, split) == eccentricity_profile(g) == expected, (trial, g)
        built = Decomposition(complement(g))
        assert (built.masks, built.parts) == (split.masks, split.parts), (trial, g)
        flipped = [
            kind if mask.bit_count() < 2 else FLIPPED[kind]
            for kind, mask in zip(split.kinds, split.masks)
        ]
        assert built.kinds == flipped, (trial, g)
        assert (built.components, built.co_components) == (split.co_components, split.components)
        if split.component_count > 1:
            shapes["disconnected"] += 1
        elif built.component_count > 1:
            shapes["join"] += 1
        else:
            shapes["connected and co-connected"] += 1
    assert len(shapes) == 3 and min(shapes.values()) >= 100, shapes


def random_runs(combine, rng):
    """A union or join of up to nine single vertices, up to nine
    two-vertex parts (edges under a union, non-edges under a join) and up
    to two larger parts, prime or nested, its vertices relabeled at
    random."""
    other = join if combine is disjoint_union else disjoint_union
    pair = graph_from_edges(2, [(0, 1)] if combine is disjoint_union else [])
    parts = [graph_from_edges(1, [])] * rng.randrange(10) + [pair] * rng.randrange(10)
    for _ in range(rng.randrange(3)):
        parts.append(rng.choice((path(4), cycle(5), random_nested(1, other, rng))))
    rng.shuffle(parts)
    g = combine(parts)
    order = list(range(g.n))
    rng.shuffle(order)
    return relabeled(g, order)


def assert_split_matches_reference(g, split):
    assert_matches_reference(split)
    order, clique = max_clique(g, split)
    assert clique.bit_count() == order == clique_number(g, split), g
    assert all(g.adj[v] & clique == clique ^ 1 << v for v in bit_indices(clique)), g


def test_runs_expand_to_reference_split_randomized():
    # Unions and joins of many one- and two-vertex parts beside prime and
    # nested ones: the split of the graph and of its complement, one piece
    # per part, is the reference split, and omega, chi and gamma combined
    # over the pieces are the searches' on the whole graph.
    rng = Random(20261019)
    shapes = Counter()
    for trial in range(300):
        g = random_runs(disjoint_union if trial % 2 else join, rng)
        comp = complement(g)
        split = Decomposition(g)
        for h, h_split in ((g, split), (comp, Decomposition(comp))):
            assert_split_matches_reference(h, h_split)
        whole = reference_clique_search(g)
        assert clique_number(g, split) == whole[0], (trial, g)
        assert chromatic_number(g, split) == reference_chromatic_search(g, whole), (trial, g)
        assert domination_number(g, split) == reference_domination_search(g), (trial, g)
        small = Counter(
            (split.kinds[i], split.masks[i].bit_count())
            for i in split.parts[0]
            if split.masks[i].bit_count() <= 2
        )
        shapes.update((split.kinds[0], kind) for (kind, _), count in small.items() if count > 1)
        shapes[PRIME] += PRIME in split.kinds
    # several one- or two-vertex parts of each kind under both splits, and prime pieces
    for kind, part in ((UNION, SMALL), (JOIN, SMALL), (JOIN, "non-edge")):
        assert shapes[kind, part] >= 50, shapes
    assert shapes[PRIME] >= 50, shapes


def test_split_is_reference_split():
    # one piece per part, as the reference numbers them: the graphs on at
    # most two vertices, then random graphs, sparse ones with many single
    # vertices and two-vertex parts among them
    rng = Random(2501)
    cases = [graph_from_edges(n, []) for n in (0, 1, 2)] + [graph_from_edges(2, [(0, 1)])]
    for _ in range(400):
        cases.append(random_graph(rng.randrange(3, 16), rng.choice((0.1, 0.5, 0.9)), rng))
    for g in cases:
        assert_matches_reference(Decomposition(g))


def test_ring_graph_splits_expand_to_reference():
    # The unity product graph and its complement of every default ring up
    # to Z/200 and a few others, each split from its rows.
    specs = ("gf:2^3", "gf:3^2", "gf:2^6", "bool:3", "prod:(zmod:4,zmod:4)")
    rings = default_rings(zmod_max=200) + [parse_ring_spec(spec) for spec in specs]
    for ring in rings:
        g = unity_product_graph(units(ring))
        comp = complement(g)
        for h in (g, comp):
            assert_split_matches_reference(h, Decomposition(h))


@pytest.mark.parametrize("spec", ["zmod:4096", "gf:2^12", "bool:12", "prod:(zmod:64,zmod:64)"])
def test_ring_graph_split_is_three_pieces_without_bfs(spec, monkeypatch, capsys):
    # A ring graph at the order cap is split in closed form into at most
    # three pieces, the whole graph and a run of each part size, with no
    # BFS and no row: no field of either report, nor analyze of the
    # complement, runs connected_parts or makes the graph's rows.
    g = unity_product_graph(units(parse_ring_spec(spec)))

    def refuse(*args):
        raise AssertionError("connected_parts called")

    monkeypatch.setattr(upg.graphs, "connected_parts", refuse)
    monkeypatch.setattr(upg.invariants, "connected_parts", refuse)
    upg_report = InvariantReport(g)
    for report in (upg_report, upg_report.complement()):
        split = report.split
        assert len(split.components) + len(split.co_components) <= 3, spec
        report.check()
        assert "adj" not in vars(report.graph), spec
    argv = ["analyze", "--ring", spec, "--graph", "complement", "--format", "json"]
    assert upg.cli.main(argv) == 0
    assert capsys.readouterr().out == upg_report.complement().check().to_json()


def test_ring_split_matches_rows_engine():
    # Every pairing of s self-inverse units and p inverse pairs with
    # s + 2p <= 24, the empty graph, K1, 2K1 and K2 among them, its units
    # in index order and shuffled: the closed-form split of the unity
    # product graph, of the complement from its report's complement() and
    # of the complement built directly gives the answers of the
    # Decomposition of the same graph rebuilt from rows, with no row made,
    # and every report field is the rebuilt graph's
    rng = Random(2310)
    for singles in range(25):
        for pairs in range((24 - singles) // 2 + 1):
            for shuffle in (None, rng):
                g = pairing_graph(singles, pairs, shuffle)
                upg_report = InvariantReport(g)
                reports = (upg_report, upg_report.complement(), InvariantReport(complement(g)))
                for report in reports:
                    h, split = report.graph, report.split
                    case = (singles, pairs, h.complemented)
                    edges = [e for e in combinations(range(h.n), 2) if h.mate[e[0]] == e[1]]
                    if h.complemented:
                        edges = [e for e in combinations(range(h.n), 2) if e not in edges]
                    rows = graph_from_edges(h.n, edges)
                    built = Decomposition(rows)
                    for field in SPLIT_FIELDS:
                        assert getattr(split, field) == getattr(built, field), (case, field)
                    order, clique = max_clique(h, split)
                    assert clique.bit_count() == order, case
                    assert all(rows.adj[v] & clique == clique ^ 1 << v for v in bit_indices(clique))
                    assert report.check().to_json() == full_report(rows).to_json(), case
                    assert "adj" not in vars(h), case


@pytest.mark.parametrize("spec", ["zmod:1", "zmod:2", "zmod:3", "zmod:24", "gf:2^5", "bool:3"])
def test_complement_report_matches_full_report(spec):
    g = unity_product_graph(units(parse_ring_spec(spec)))
    report = InvariantReport(g).complement()
    assert report.graph == complement(g)
    assert report.check().to_json() == full_report(complement(g)).to_json()


def test_report_json_matches_indent_layout():
    # to_json writes json.dumps(indent=2)'s bytes through the C encoder:
    # both reports of every default-sweep ring, and loaded graphs with a
    # finite girth (K4, C4, K3 + K1) and with none (P4, 3 K1, the empty one)
    reports = []
    for ring in default_rings():
        ctx = RingContext(ring)
        reports += [ctx.upg_report, ctx.comp_report]
    graphs = [
        graph_from_edges(4, list(combinations(range(4), 2))),
        graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        graph_from_edges(4, [(0, 1), (1, 2), (0, 2)]),
        graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        graph_from_edges(3, []),
        graph_from_edges(0, []),
    ]
    reports += map(InvariantReport, graphs)
    girths = Counter()
    for report in reports:
        assert report.to_json() == reference_report_json(report), report.graph
        girths[report.girth == INFINITY] += 1
    assert min(girths.values()) >= 3, girths


def test_clique_and_chromatic_of_matching_complement_at_2100_vertices():
    # K_{2,...,2} with 1050 parts: the former recursive clique search
    # raised RecursionError past about 1000 clique vertices
    g = complement(graph_from_edges(2100, [(2 * i, 2 * i + 1) for i in range(1050)]))
    assert max_clique(g)[0] == clique_number(g) == chromatic_number(g) == 1050
    assert domination_number(g) == 2


def threshold_graph(n):
    """Vertex 0, then each vertex v > 0 joined to every earlier vertex
    when v is odd and to none when v is even: the cotree alternates a
    union and a join at every level, so it is about n levels deep."""
    dominating = sum(1 << v for v in range(1, n, 2))
    rows = [
        (((1 << v) - 1) if dominating >> v & 1 else 0) | (dominating >> (v + 1) << (v + 1))
        for v in range(n)
    ]
    return SimpleGraph(n=n, labels=tuple(map(str, range(n))), adj=tuple(rows))


@pytest.mark.parametrize("n", [2001, 2002])
def test_threshold_graph_cotree_thousands_deep(n):
    g = threshold_graph(n)
    assert g.edge_count == sum(range(1, n, 2))  # v odd: one edge to each earlier vertex
    deco = Decomposition(g)
    depth = [0] * len(deco.kinds)
    for i, parts in enumerate(deco.parts):
        for j in parts:
            depth[j] = depth[i] + 1
    assert max(depth) >= n - 2
    # closed forms: the dominating vertices and vertex 0 form a maximum
    # clique, and threshold graphs are perfect; the last dominating vertex
    # dominates everything before it, and later vertices are isolated
    dominating = len(range(1, n, 2))
    last = max(range(1, n, 2))
    assert clique_number(g, deco) == chromatic_number(g, deco) == dominating + 1
    assert domination_number(g, deco) == 1 + (n - 1 - last)


def test_full_report_at_order_cap_under_low_recursion_limit():
    # Code that recursed once per vertex or clique member would fail here:
    # the gf:2^12 complement has a 2048-vertex maximum clique.  Ring graphs
    # never reach a prime-piece search, so the prime graphs after them
    # guard the searches: a cycle, a path's complement, and the join of a
    # cycle on the even vertices with a path's complement on the odd ones,
    # whose prime pieces are not index ranges, and that join's complement.
    # Last, a 5-wheel (ω 3, χ 4) with a 60-vertex path hung on a rim
    # vertex: a coloring search that let the path vertices retry colors
    # after the rim opened the fourth would run through 2^59 colorings,
    # and a domination bound by the single largest gain took about a
    # minute on it.
    script = (
        "import sys\n"
        "from upg.graphs import complement, graph_from_edges, unity_product_graph\n"
        "from upg.invariants import chromatic_number, clique_number, domination_number, full_report\n"
        "from upg.rings import parse_ring_spec, units\n"
        "sys.setrecursionlimit(200)\n"
        "g = unity_product_graph(units(parse_ring_spec('gf:2^12')))\n"
        "for h in (g, complement(g)):\n"
        "    r = full_report(h)\n"
        "    print(r.clique_number, r.chromatic_number, r.domination_number)\n"
        "c = graph_from_edges(301, [(i, (i + 1) % 301) for i in range(301)])\n"
        "print(chromatic_number(c), domination_number(c))\n"
        "p = complement(graph_from_edges(400, [(i, i + 1) for i in range(399)]))\n"
        "print(clique_number(p), chromatic_number(p), domination_number(p))\n"
        "k = 101\n"
        "even, odd = range(0, 2 * k, 2), range(1, 2 * k, 2)\n"
        "w = graph_from_edges(2 * k, [(u, v) for u in even for v in odd]\n"
        "    + [(even[i], even[(i + 1) % k]) for i in range(k)]\n"
        "    + [(odd[i], odd[j]) for i in range(k) for j in range(i + 2, k)])\n"
        "for h in (w, complement(w)):\n"
        "    print(clique_number(h), chromatic_number(h), domination_number(h))\n"
        "m = 60\n"
        "wheel = [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]\n"
        "h = graph_from_edges(6 + m, wheel + [(1, 6)] + [(i, i + 1) for i in range(6, 5 + m)])\n"
        "print(clique_number(h), chromatic_number(h), domination_number(h))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert res.stderr == ""
    assert res.returncode == 0
    assert res.stdout == (
        "2 2 2048\n2048 2048 1\n"
        "3 101\n"
        "200 200 2\n"
        "53 54 2\n50 51 36\n"
        "3 4 21\n"
    )
    # about a thousand colored vertices deep
    assert chromatic_number(cycle(999)) == 3



@pytest.mark.parametrize("m", [1, 2, 7, 15, 24, 30])
def test_domination_of_wheel_with_path_matches_reference(m):
    # one prime piece: a 5-wheel with an m-vertex path hung on a rim vertex
    wheel = [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]
    h = graph_from_edges(6 + m, wheel + [(1, 6)] + [(i, i + 1) for i in range(6, 5 + m)])
    assert Decomposition(h).kinds[0] == PRIME
    assert domination_number(h) == reference_domination_search(h)

def random_forest(n, rng):
    """Random forest: each later vertex hangs off an earlier one or starts a tree."""
    return graph_from_edges(n, [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8])


def random_complete_multipartite(n, rng):
    """Complete multipartite graph over a random partition, parts interleaved."""
    part = [rng.randrange(rng.randrange(1, n + 1)) for _ in range(n)]
    return graph_from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if part[u] != part[v]])


def test_planarity_and_hamiltonicity_refuse_or_agree_randomized():
    # Each decider either refuses or matches its exhaustive reference;
    # forests and complete multipartite graphs, the two ring graph
    # shapes, are never refused.
    rng = Random(20261106)
    cases = [("random", random_graph(rng.randrange(1, 11), rng.random(), rng)) for _ in range(1200)]
    cases += [("forest", random_forest(rng.randrange(1, 11), rng)) for _ in range(200)]
    cases += [("multipartite", random_complete_multipartite(rng.randrange(1, 11), rng)) for _ in range(200)]
    tally = Counter()
    for kind, g in cases:
        for decider, reference in ((is_planar, reference_is_planar), (is_hamiltonian, brute_hamiltonian)):
            answer = decided(decider, g)
            if answer is None:
                assert kind == "random", (decider.__name__, kind, g)
            else:
                assert answer == reference(g), (decider.__name__, kind, g)
            tally[decider.__name__, answer is not None] += 1
    for name in ("is_planar", "is_hamiltonian"):
        assert min(tally[name, True], tally[name, False]) >= 100, tally


def random_bipartite_graph(n, p, rng):
    """Random graph with every edge across a random two-sided split, so it
    has no odd cycle and, once cyclic, sends girth to its BFS fallback."""
    side = [rng.random() < 0.5 for _ in range(n)]
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if side[u] != side[v] and rng.random() < p
    ]
    return graph_from_edges(n, edges)


def test_girth_and_eccentricity_match_bfs_reference_randomized():
    rng = Random(20261018)
    forests = disconnected = triangle_free_cyclic = 0
    for trial in range(1500):
        n = rng.randrange(1, 15)
        density = rng.choice((0.05, 0.15, 0.3, 0.5, 0.7, 0.9)) * rng.uniform(0.5, 1.1)
        if trial % 3 == 0:
            g = random_bipartite_graph(n, density, rng)
        else:
            g = random_graph(n, density, rng)
        expected = reference_girth(g)
        assert girth(g) == expected == brute_girth(g), (trial, g)
        assert eccentricity_profile(g) == reference_eccentricity_profile(g)[:2], (trial, g)
        forests += expected == INFINITY
        disconnected += len(connected_parts(g.adj, (1 << g.n) - 1)) > 1
        triangle_free_cyclic += 3 < expected < INFINITY
    # every branch of both solvers was exercised
    assert min(forests, disconnected, triangle_free_cyclic) >= 100, (
        forests, disconnected, triangle_free_cyclic
    )


@pytest.mark.parametrize("singles,pairs", [(1, 511), (2, 2045)])
def test_metrics_at_order_cap_shapes(singles, pairs, monkeypatch):
    # s*K1 + p*K2 is the UPG of gf:2^10 (1, 511) and of a prime near the
    # order cap (2, 2045), built without a unit scan.  The complement's
    # construction, not girth or eccentricity, takes most of this test.
    g = graph_from_edges(
        singles + 2 * pairs,
        [(singles + 2 * i, singles + 2 * i + 1) for i in range(pairs)],
    )
    assert girth(g) == INFINITY
    assert eccentricity_profile(g) == (INFINITY, INFINITY)
    comp = complement(g)
    assert girth(comp) == 3
    assert eccentricity_profile(comp) == (2, 1)
    # the same shapes as ring graphs are reported in closed form: both
    # reports check with no tuple of parts made and no classification run
    expected = [full_report(h).to_json() for h in (g, comp)]

    def refuse(part_sizes):
        raise AssertionError("multipartite classification called")

    monkeypatch.setattr(upg.invariants, "multipartite_planar", refuse)
    monkeypatch.setattr(upg.invariants, "multipartite_hamiltonian", refuse)
    upg_report = InvariantReport(pairing_graph(singles, pairs))
    comp_report = upg_report.complement()
    assert [r.check().to_json() for r in (upg_report, comp_report)] == expected
    assert "multipartite" not in vars(comp_report.split)
    assert "adj" not in vars(comp_report.graph)


def test_chromatic_matches_assignment_search_tiny():
    rng = Random(4)
    for _ in range(40):
        n = rng.randrange(1, 7)
        g = random_graph(n, rng.random(), rng)
        k = chromatic_number(g)
        assert brute_chromatic_assignments(g, k)
        if k > 1:
            assert not brute_chromatic_assignments(g, k - 1)


def test_report_consistency_and_rendering():
    g = unity_product_graph(units(parse_ring_spec("zmod:11")))
    rep = full_report(g)
    assert rep.n == 10
    assert rep.girth == INFINITY
    assert rep.diameter == INFINITY and rep.radius == INFINITY
    assert rep.domination_number == 6
    assert rep.chromatic_number == 2 and rep.clique_number == 2
    assert rep.planar and not rep.hamiltonian
    text = rep.to_text()
    assert "girth" in text and "inf" in text
    assert text.endswith("\n")
    doc = rep.to_json_dict()
    assert doc["girth"] == "inf"
    assert doc["edge_count"] == 4

    comp = full_report(complement(g))
    assert comp.domination_number == 1
    assert comp.chromatic_number == 6 and comp.clique_number == 6
    assert comp.girth == 3 and comp.diameter == 2 and comp.radius == 1
    assert not comp.planar and comp.hamiltonian


def test_report_empty_and_single():
    empty = full_report(graph_from_edges(0, []))
    assert empty.n == 0 and empty.connected
    single = full_report(graph_from_edges(1, []))
    assert single.diameter == 0 and single.radius == 0
    assert single.chromatic_number == 1
    assert not single.hamiltonian
    assert single.planar


def test_fmt_extended():
    assert fmt_extended(INFINITY) == "inf"
    assert fmt_extended(7) == "7"
    assert fmt_extended(0) == "0"


def test_benchmark_tracer_wraps_and_restores_solvers(capsys):
    # bench/spans.py wraps the solvers by name; a renamed or deleted one
    # would break `bench/run.py --trace 1`.
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name in spans.SOLVERS:
        assert isinstance(getattr(upg.invariants, name, None), types.FunctionType), name

    modules = [m for name, m in sys.modules.items() if name == "upg" or name.startswith("upg.")]
    before = [(m, attr, value) for m in modules for attr, value in vars(m).items()]
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = [(m, attr, value) for m, attr, value in before if getattr(m, attr) is not value]
        assert upg.cli.main(["analyze", "--ring", "zmod:7", "--graph", "complement"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    wrapped = {attr for m, attr, _ in patched if m is upg.invariants}
    assert set(spans.SOLVERS) <= wrapped
    assert tracer.counts["invariants.planar_calls"] == tracer.counts["invariants.hamiltonian_calls"] == 1
    for m, attr, value in patched:
        assert getattr(m, attr) is value, (m.__name__, attr)
