import json
from collections import Counter
from itertools import combinations
from pathlib import Path
from random import Random

import pytest

from upg.claims import default_rings
from upg.graphs import (
    SimpleGraph,
    complement,
    connected_parts,
    decompose_matching_structure,
    dot_chunks,
    export_dot,
    export_json,
    flat_json,
    graph_from_edges,
    graph_from_json,
    is_complete,
    json_chunks,
    lazy_property,
    recognize_complete_multipartite,
    unity_product_graph,
)
from upg.invariants import INFINITY, Decomposition, InvariantReport, girth
from upg.rings import boolean_ring, parse_ring_spec, units, zmod

from oracles import (
    SPLIT_FIELDS,
    assert_matches_reference,
    bench_workloads,
    random_graph,
    random_join,
    reference_export_dot,
    reference_export_json,
    reference_girth,
    reference_recognize_complete_multipartite,
)

TABLE_Z4 = Path(__file__).parent / "data" / "table_z4.json"


def labeled_edges(g: SimpleGraph) -> set[frozenset[str]]:
    return {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}


def upg_of(spec: str) -> SimpleGraph:
    return unity_product_graph(units(parse_ring_spec(spec)))


def test_golden_zmod11_edges():
    g = upg_of("zmod:11")
    assert g.n == 10
    assert labeled_edges(g) == {
        frozenset(("2", "6")),
        frozenset(("3", "4")),
        frozenset(("5", "9")),
        frozenset(("7", "8")),
    }
    assert complement(g).edge_count == 41


def test_golden_zmod16_edges():
    g = upg_of("zmod:16")
    assert g.n == 8
    assert labeled_edges(g) == {frozenset(("3", "11")), frozenset(("5", "13"))}
    assert complement(g).edge_count == 26


def test_unity_vertex_is_isolated():
    for spec in ("zmod:11", "zmod:16", "gf:2^3", "prod:(zmod:3,zmod:3)"):
        g = upg_of(spec)
        v = g.labels.index("1") if "1" in g.labels else 0
        assert g.degree(v) == 0


def test_upg_is_matching():
    # every vertex has degree at most 1: inverses are unique
    for n in range(2, 40):
        g = upg_of(f"zmod:{n}")
        assert all(g.degree(v) <= 1 for v in range(g.n))
        assert decompose_matching_structure(g).valid


def test_boolean_ring_graph_trivial():
    g = unity_product_graph(units(boolean_ring(3)))
    assert g.n == 1
    assert g.edge_count == 0
    assert g.labels == ("(1,1,1)",)


def test_simple_graph_validation():
    with pytest.raises(ValueError):
        SimpleGraph(2, ("a", "b"), (0b01, 0b00))  # loop at 0
    with pytest.raises(ValueError):
        SimpleGraph(2, ("a", "b"), (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        SimpleGraph(2, ("a",), (0, 0))  # label count
    with pytest.raises(ValueError):
        SimpleGraph(1, ("a",), (0b10,))  # out of range bit


def test_simple_graph_symmetry_check_matches_brute_force():
    # __post_init__ walks edges or non-edges, whichever is fewer; both
    # walks must reject exactly the asymmetric loop-free digraphs
    rng = Random(41)
    outcomes = {(dense, ok): 0 for dense in (False, True) for ok in (False, True)}
    for _ in range(20000):
        n = rng.randint(2, 9)
        p = rng.random()
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        for _ in range(rng.choice((0, 0, 1, 2))):  # flip single arcs
            u, v = rng.sample(range(n), 2)
            adj[u] ^= 1 << v
        symmetric = all(
            (adj[u] >> v & 1) == (adj[v] >> u & 1) for u in range(n) for v in range(n)
        )
        try:
            SimpleGraph(n, tuple(map(str, range(n))), tuple(adj))
            accepted = True
        except ValueError as exc:
            assert str(exc).startswith("asymmetric edge")
            accepted = False
        assert accepted == symmetric, adj
        dense = sum(row.bit_count() for row in adj) > n * (n - 1) // 2
        outcomes[dense, accepted] += 1
    assert min(outcomes.values()) >= 1000, outcomes


def test_graph_from_edges_normalizes():
    g = graph_from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1
    assert g.edges() == [(0, 1)]
    with pytest.raises(ValueError):
        graph_from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(2, [(0, 5)])


def test_edges_sorted():
    g = graph_from_edges(5, [(3, 4), (0, 2), (1, 2), (0, 1)])
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (3, 4)]


def test_complement_involution():
    rng = Random(13)
    for _ in range(25):
        g = random_graph(rng.randrange(1, 10), rng.random(), rng)
        assert complement(complement(g)) == g


def test_complement_edge_counts():
    rng = Random(5)
    for _ in range(25):
        n = rng.randrange(1, 12)
        g = random_graph(n, rng.random(), rng)
        assert g.edge_count + complement(g).edge_count == n * (n - 1) // 2


def test_is_complete():
    assert is_complete(graph_from_edges(3, [(0, 1), (0, 2), (1, 2)]))
    assert is_complete(graph_from_edges(1, []))
    assert not is_complete(graph_from_edges(3, [(0, 1)]))


def test_connected_parts_order():
    g = graph_from_edges(6, [(1, 4), (2, 3)])
    masks = connected_parts(g.adj, 0b111111)
    # ordered by least contained vertex
    assert masks == [0b000001, 0b010010, 0b001100, 0b100000]


def test_connected_parts_match_union_find_randomized():
    # parts of an induced subgraph and of its complement against a
    # union-find over the vertex pairs inside the mask
    rng = Random(20261020)
    for _ in range(400):
        g = random_graph(rng.randrange(1, 13), rng.random(), rng)
        mask = rng.randrange(1 << g.n)
        for complemented in (False, True):
            root = list(range(g.n))

            def find(v):
                while root[v] != v:
                    v = root[v]
                return v

            inside = [v for v in range(g.n) if mask >> v & 1]
            for i, u in enumerate(inside):
                for v in inside[i + 1:]:
                    if g.has_edge(u, v) != complemented:
                        root[find(u)] = find(v)
            groups = {}
            for v in inside:
                groups[find(v)] = groups.get(find(v), 0) | 1 << v
            expected = sorted(groups.values(), key=lambda part: part & -part)
            assert connected_parts(g.adj, mask, complemented) == expected, (g, mask)
        full = (1 << g.n) - 1
        assert connected_parts(g.adj, full, True) == connected_parts(complement(g).adj, full)


def test_decompose_matching_structure():
    g = graph_from_edges(6, [(0, 1), (2, 3)])
    deco = decompose_matching_structure(g)
    assert (deco.isolated, deco.pairs, deco.valid) == (2, 2, True)

    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    deco = decompose_matching_structure(p3)
    assert not deco.valid
    assert (deco.isolated, deco.pairs) == (0, 0)


def test_recognize_complete_multipartite():
    # K_{2,2,1}
    g = complement(graph_from_edges(5, [(0, 1), (2, 3)]))
    profile = recognize_complete_multipartite(g)
    assert profile.valid and profile.part_sizes == (1, 2, 2)

    k4 = complement(graph_from_edges(4, []))
    assert recognize_complete_multipartite(k4).part_sizes == (1, 1, 1, 1)

    edgeless = graph_from_edges(3, [])
    assert recognize_complete_multipartite(edgeless).part_sizes == (3,)

    c5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert not recognize_complete_multipartite(c5).valid

    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    assert recognize_complete_multipartite(p3).valid  # K_{2,1}
    assert recognize_complete_multipartite(p3).part_sizes == (1, 2)


def test_decompose_matching_structure_matches_degree_scan_randomized():
    rng = Random(20261018)
    for trial in range(300):
        g = random_graph(rng.randrange(0, 12), rng.choice((0.05, 0.1, 0.2, 0.5)), rng)
        degrees = [g.degree(v) for v in range(g.n)]
        deco = decompose_matching_structure(g)
        assert deco.valid == (max(degrees, default=0) <= 1), (trial, g)
        if deco.valid:
            assert (deco.isolated, deco.pairs) == (degrees.count(0), degrees.count(1) // 2)


def test_recognize_complete_multipartite_matches_row_scan_randomized():
    # Complete multipartite graphs over random partitions, each also with
    # one edge added inside a part or removed between parts (near misses),
    # and random graphs; with the co-components found, passed in one pair
    # per part, or passed in as the split's runs.
    rng = Random(20261018)
    cases = [random_graph(rng.randrange(0, 12), rng.random(), rng) for _ in range(400)]
    for _ in range(300):
        n = rng.randrange(1, 12)
        part = [rng.randrange(rng.randrange(1, n + 1)) for _ in range(n)]
        pairs = list(combinations(range(n), 2))
        across = {(u, v) for u, v in pairs if part[u] != part[v]}
        cases.append(graph_from_edges(n, across))
        inside = [e for e in pairs if e not in across]
        if inside:
            cases.append(graph_from_edges(n, across | {rng.choice(inside)}))
        if across:
            cases.append(graph_from_edges(n, across - {rng.choice(sorted(across))}))
    valid = Counter()
    for trial, g in enumerate(cases):
        co_components = connected_parts(g.adj, (1 << g.n) - 1, complemented=True)
        expected = reference_recognize_complete_multipartite(g, co_components)
        sized = [(part.bit_count(), 1) for part in co_components]
        assert recognize_complete_multipartite(g, sized) == expected, (trial, g)
        split = Decomposition(g)
        assert recognize_complete_multipartite(g, split.co_components) == expected, (trial, g)
        assert recognize_complete_multipartite(g) == expected, (trial, g)
        valid[expected.valid] += 1
    assert min(valid.values()) >= 300, valid


def test_ring_complements_are_complete_multipartite():
    for spec in ("zmod:16", "zmod:24", "gf:2^3", "gf:3^2", "prod:(zmod:4,zmod:4)"):
        g = upg_of(spec)
        deco = decompose_matching_structure(g)
        profile = recognize_complete_multipartite(complement(g))
        assert profile.valid
        expected = tuple(sorted([1] * deco.isolated + [2] * deco.pairs))
        assert profile.part_sizes == expected


def test_trusted_ring_graphs_pass_the_public_check():
    # unity_product_graph and complement skip SimpleGraph's row checks and
    # seed edge_count; the checked constructor must accept the same rows,
    # the seeded count must be the rows' own, and the UPG's split, whose
    # components are read off its one-bit rows, must match the BFS split
    test_rings = ("gf:2^3", "gf:3^2", "bool:3", "prod:(zmod:4,zmod:4)", f"table:@{TABLE_Z4}")
    rings = default_rings(zmod_max=200) + [parse_ring_spec(spec) for spec in test_rings]
    for ring in rings:
        g = unity_product_graph(units(ring))
        for h in (g, complement(g)):
            assert SimpleGraph(h.n, h.labels, h.adj) == h, ring.label
            assert h.edge_count == sum(row.bit_count() for row in h.adj) // 2, ring.label
        assert_matches_reference(Decomposition(g))


def test_mate_split_matches_reference():
    # a ring graph and its complement are split in closed form, with no
    # row; the Decomposition of the same graph on its rows must agree, and
    # be the reference split, and the isolated vertex count read
    # off the split must be the rows' count of empty rows
    rings = default_rings() + [zmod(n) for n in range(1, 301)]
    for ring in rings:
        g = unity_product_graph(units(ring))
        for h in (g, complement(g)):
            report = InvariantReport(h)
            split, isolated = report.split, report.isolated_count
            read = [getattr(split, field) for field in SPLIT_FIELDS]
            assert "adj" not in vars(h), ring.label
            rows = Decomposition(h)
            assert read == [getattr(rows, field) for field in SPLIT_FIELDS], ring.label
            assert_matches_reference(rows)
            assert isolated == h.adj.count(0), ring.label


def test_join_girth_matches_reference():
    # a cyclic join's girth is read off its co-components: 3 with three
    # or more, or with an edge inside one; 4 for K_{a,b}; a star is a forest
    rng = Random(2210)
    cases = [random_join((1, b), 0, rng) for b in range(1, 8)]
    cases += [random_join((a, b), 0, rng) for a in range(2, 6) for b in range(a, 7)]
    for _ in range(300):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
        cases.append(random_join(sizes, rng.choice((0.0, 0.2, 0.6, 1.0)), rng))
    found = Counter()
    for g in cases:
        split = Decomposition(g)
        assert sum(count for _, count in split.co_components) > 1, g
        found[girth(g, split)] += 1
        assert girth(g, split) == reference_girth(g), g
    assert set(found) == {3, 4, INFINITY} and min(found.values()) >= 7, found


def _bench_build_specs() -> list[str]:
    workloads = bench_workloads()
    specs = [workloads.oracle.spec(ring) for ring in workloads.BUILD_RING]
    return specs + [f"zmod:{n}" for n in workloads.BUILD_DENSE]


def test_mate_exports_match_reference():
    # both graphs of every benchmark build ring and default-sweep ring are
    # exported off the mate array, byte for byte the per-edge exporters'
    rings = [parse_ring_spec(spec) for spec in _bench_build_specs()] + default_rings()
    for ring in rings:
        g = unity_product_graph(units(ring))
        for h in (g, complement(g)):
            dot, doc = export_dot(h), export_json(h)
            assert "adj" not in vars(h), ring.label
            assert dot == reference_export_dot(h), ring.label
            assert doc == reference_export_json(h), ring.label


def test_lazy_property_stores_once_and_keeps_seeded_values():
    # stored in the instance dict of a frozen dataclass (the row check
    # reads edge_count), outside the fields that == and hash see
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    assert vars(g)["edge_count"] == g.edge_count == 2
    assert hash(g) == hash(SimpleGraph(g.n, g.labels, g.adj))
    # a value seeded into the dict, as the trusted builders do, is read as is
    h = complement(g)
    vars(h)["edge_count"] = -1
    assert h.edge_count == -1
    assert isinstance(SimpleGraph.edge_count, lazy_property)
    calls = []

    class Probe:
        @lazy_property
        def value(self):
            calls.append(1)
            return len(calls)

    probe = Probe()
    assert (probe.value, probe.value, len(calls)) == (1, 1, 1)
    report = InvariantReport(g)
    assert report.split is report.split and report.girth == report.girth


def test_matching_split_matches_reference_randomized():
    rng = Random(20261018)
    for n in range(41):
        for _ in range(10):
            order = rng.sample(range(n), n)
            pairs = rng.randint(0, n // 2)
            edges = [(order[2 * i], order[2 * i + 1]) for i in range(pairs)]
            assert_matches_reference(Decomposition(graph_from_edges(n, edges)))


def test_complement_at_order_cap_gf4096():
    # 4095 units, one self-inverse: the complement of K1 + 2047 K2
    g = complement(upg_of("gf:2^12"))
    assert g.n == 4095
    assert g.edge_count == 4095 * 4094 // 2 - 2047
    assert recognize_complete_multipartite(g).part_sizes == (1,) + (2,) * 2047


def test_export_dot_golden():
    g = graph_from_edges(3, [(0, 2)], labels=("a", "b", "c"))
    assert export_dot(g) == 'graph {\n  "a";\n  "b";\n  "c";\n  "a" -- "c";\n}\n'


def test_export_dot_escapes_quotes():
    g = graph_from_edges(1, [], labels=('sa"y',))
    assert '\\"' in export_dot(g)


# characters the escaping and the JSON encoder treat specially
LABEL_ALPHABET = ('"', "\\", "\u00e9", "\n", "{", "}", ",", " ", "a", "7", "\U0001f600", "]")


def _random_label(rng: Random) -> str:
    return "".join(rng.choice(LABEL_ALPHABET) for _ in range(rng.randrange(0, 5)))


def _one_gap_graph(n: int, rng: Random) -> SimpleGraph:
    """A random graph in which each vertex u's later neighbors run from
    u + 1 to a last one, often before n - 1, with no vertex missing or
    one: the first, a middle or the last before the end."""
    edges = []
    for u in range(n - 1):
        later = list(range(u + 1, rng.randrange(u + 1, n) + 1))
        gaps = [None, 0, len(later) - 2]
        if len(later) > 3:
            gaps.append(rng.randrange(1, len(later) - 2))
        gap = rng.choice(gaps) if len(later) > 2 else None
        edges += [(u, v) for i, v in enumerate(later) if i != gap]
    labels = [_random_label(rng) for _ in range(n)]
    return graph_from_edges(n, edges, labels)


def _slice_rows(g: SimpleGraph) -> Counter:
    """Tally the rows with two or more later neighbors and at most one
    non-neighbor before the last, by where that gap is."""
    kinds = Counter()
    for u, row in enumerate(g.adj):
        later = [v for v in range(u + 1, g.n) if row >> v & 1]
        if len(later) < 2:
            continue
        missing = [v for v in range(u + 1, later[-1]) if v not in later]
        if len(missing) > 1:
            continue
        if not missing:
            kinds["no gap"] += 1
        elif missing[0] == u + 1:
            kinds["first gap"] += 1
        elif missing[0] == later[-1] - 1:
            kinds["last gap"] += 1
        else:
            kinds["middle gap"] += 1
        kinds["ends early"] += later[-1] < g.n - 1
    return kinds


def _export_cases():
    rng = Random(55)
    for n in range(15):
        yield graph_from_edges(n, [])
        yield complement(graph_from_edges(n, []))
    for _ in range(300):
        n = rng.randrange(0, 15)
        g = random_graph(n, rng.random(), rng)
        labels = [_random_label(rng) for _ in range(n)]
        yield SimpleGraph(n=n, labels=tuple(labels), adj=g.adj)
    for _ in range(60):
        yield _one_gap_graph(rng.randrange(2, 71), rng)
    specs = [f"zmod:{n}" for n in range(1, 201)]
    specs += ["gf:2^5", "gf:3^3", "gf:7^2", "bool:1", "bool:5", f"table:@{TABLE_Z4}"]
    for spec in specs:
        g = upg_of(spec)
        yield g
        yield complement(g)


def test_streamed_export_matches_reference():
    # byte equality with the former per-edge exporters, over edgeless,
    # complete, random and ring graphs, with labels that need escaping
    seen = Counter()
    slices = Counter()
    for g in _export_cases():
        doc = export_json(g)
        assert export_dot(g) == reference_export_dot(g), g
        assert doc == reference_export_json(g), g
        assert graph_from_json(doc) == g
        seen["edgeless"] += g.edge_count == 0
        seen["complete"] += g.n > 1 and is_complete(g)
        seen["empty label"] += "" in g.labels
        seen.update(c for c in '"\\\n\u00e9' if any(c in label for label in g.labels))
        slices += _slice_rows(g)
    assert len(seen) == 7 and min(seen.values()) >= 30, seen
    # rows exported as a slice of every later vertex but at most one
    assert len(slices) == 5 and min(slices.values()) >= 200, slices


def test_export_streams_one_chunk_per_row():
    # complements and graphs without a mate array stream one chunk per row
    # with a later neighbor, then the last tail and the closing, and no
    # empty chunk; the random graphs' first rows have no later neighbor, so
    # the cut of the first piece falls past row 0
    rng = Random(29)
    cases = [complement(upg_of(f"zmod:{n}")) for n in range(1, 201)]
    cases.append(complement(upg_of("gf:2^5")))
    for _ in range(100):
        n = rng.randrange(2, 16)
        lead = rng.randrange(1, n)
        g = random_graph(n - lead, rng.random(), rng)
        cases.append(graph_from_edges(n, [(u + lead, v + lead) for u, v in g.edges()]))
    shapes = Counter()
    for g in cases:
        later = [row >> u + 1 for u, row in enumerate(g.adj)]
        counts = [row.bit_count() for row in later if row]
        shapes["first row edgeless"] += bool(later) and not later[0] and bool(counts)
        shapes["complement"] += g.complemented and bool(counts)
        for chunks, reference, mark in (
            (dot_chunks, reference_export_dot, " -- "),
            (json_chunks, reference_export_json, "["),
        ):
            pieces = list(chunks(g))
            assert "" not in pieces, g
            assert "".join(pieces) == reference(g), g
            assert len(pieces) == len(counts) + (3 if counts else 2), g
            assert [piece.count(mark) for piece in pieces[1 : 1 + len(counts)]] == counts, g
    assert min(shapes.values()) >= 50, shapes


def test_json_labels_block_matches_indent_layout():
    # the labels go through json's C encoder, with the indent=2 layout in
    # its item separator: quotes, backslashes, non-ASCII, control
    # characters and commas, one label or many, and no vertex at all
    labels = ('say "hi"', "back\\slash", "\u00e9\U0001f600", "tab\t", "\x00\x1f\x7f\n", "a,b", ", ", "")
    cases = [graph_from_edges(0, [])]
    cases += [graph_from_edges(1, [], labels=(label,)) for label in labels]
    cases.append(graph_from_edges(len(labels), [(0, 1)], labels=labels))
    for g in cases:
        assert export_json(g) == reference_export_json(g), g.labels
    assert export_json(cases[0]) == '{\n  "n": 0,\n  "labels": [],\n  "edges": []\n}\n'


def test_flat_json_matches_indent_layout_at_depth():
    # the one writer of indent=2 bytes through the C encoder: dicts and
    # lists of scalars, empty or not, as json.dumps lays them out that deep
    values = ([], {}, ["a"], {"n": 0}, [1.5, True, None, "\u00e9"], {"x": "inf", "y": False})
    for value in values:
        for depth in range(4):
            expected = json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)
            assert flat_json(value, depth) == expected


def test_json_round_trip():
    rng = Random(99)
    for _ in range(20):
        g = random_graph(rng.randrange(1, 9), rng.random(), rng)
        assert graph_from_json(export_json(g)) == g


def test_json_round_trip_ring_graph():
    g = upg_of("zmod:13")
    back = graph_from_json(export_json(g))
    assert back == g
    assert export_json(back) == export_json(g)


def test_graph_from_json_rejects_bad_documents():
    with pytest.raises((ValueError, AssertionError, KeyError)):
        graph_from_json("[]")
    with pytest.raises((ValueError, AssertionError, KeyError)):
        graph_from_json('{"n": 2, "labels": ["a", "b"]}')
    # JSON true/false load as bool, a subclass of int: not a count or a
    # vertex id; floats and strings are not vertex ids either
    for doc in (
        '{"n": 2, "labels": ["a", "b"], "edges": [[true, false]]}',
        '{"n": true, "labels": ["a"], "edges": []}',
        '{"n": 2, "labels": ["a", "b"], "edges": [[0.0, 1.0]]}',
        '{"n": 2, "labels": ["a", "b"], "edges": [[0, "1"]]}',
    ):
        with pytest.raises(ValueError):
            graph_from_json(doc)
