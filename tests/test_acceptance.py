"""Acceptance gate: nine end-to-end criteria, one test each.

Each test prints ``criterion N: pass (…s)`` and enforces its wall-clock
budget.  Criteria 4-6 share a memoized per-ring context so repeated
invariant computation does not distort the timings.
"""

import os
import subprocess
import sys
import time
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from random import Random

from upg.claims import (
    FAIL,
    default_rings,
    lookup,
    run_sweep,
)
from upg.graphs import (
    SimpleGraph,
    complement,
    decompose_matching_structure,
    graph_from_edges,
    is_complete,
    unity_product_graph,
)
from upg.invariants import (
    INFINITY,
    VertexBoundError,
    chromatic_number,
    clique_number,
    domination_number,
    eccentricity_profile,
    girth,
    is_hamiltonian,
    is_planar,
    multipartite_hamiltonian,
)
from upg.rings import is_prime, units, zmod

from oracles import (
    brute_chromatic,
    brute_clique,
    brute_domination,
    brute_hamiltonian,
    prime_power,
    random_graph,
    reference_is_planar,
    self_inverse_count,
)


class Budget:
    def __init__(self, number: int, seconds: float):
        self.number = number
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"criterion {self.number}: pass ({elapsed:.2f}s)")
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded {self.seconds}s: {elapsed:.2f}s"
            )
        else:
            print(f"criterion {self.number}: fail ({elapsed:.2f}s)")
        return False


def labeled_edges(g: SimpleGraph) -> set[frozenset[str]]:
    return {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}


@lru_cache(maxsize=None)
def ring_graphs(n: int):
    ug = units(zmod(n))
    g = unity_product_graph(ug)
    return ug, g, complement(g)


SRC = str(Path(__file__).resolve().parent.parent / "src")
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "upg", *args], capture_output=True, text=True, env=CLI_ENV
    )


def test_criterion_1_golden_graphs():
    with Budget(1, 1.0):
        _, g11, c11 = ring_graphs(11)
        assert g11.n == 10
        assert labeled_edges(g11) == {
            frozenset(("2", "6")),
            frozenset(("3", "4")),
            frozenset(("5", "9")),
            frozenset(("7", "8")),
        }
        assert c11.edge_count == 41
        _, g16, c16 = ring_graphs(16)
        assert g16.n == 8
        assert labeled_edges(g16) == {
            frozenset(("3", "11")),
            frozenset(("5", "13")),
        }
        assert c16.edge_count == 26


def test_criterion_2_divisors_of_24_edgeless():
    with Budget(2, 1.0):
        for n in (2, 3, 4, 6, 8, 12, 24):
            _, g, _ = ring_graphs(n)
            assert g.edge_count == 0, n
        _, g5, _ = ring_graphs(5)
        assert labeled_edges(g5) == {frozenset(("2", "3"))}


def test_criterion_3_isolated_vertex_counts():
    with Budget(3, 5.0):
        for p in range(3, 98):
            if not is_prime(p):
                continue
            ug, g, _ = ring_graphs(p)
            assert self_inverse_count(ug) == 2, p
            assert sum(1 for v in range(g.n) if g.degree(v) == 0) == 2, p
        for m in (3, 4, 5, 6):
            ug, g, _ = ring_graphs(2**m)
            assert self_inverse_count(ug) == 4, m
            assert sum(1 for v in range(g.n) if g.degree(v) == 0) == 4, m


def test_criterion_4_metric_invariants_zmod_2_60():
    with Budget(4, 30.0):
        for n in range(2, 61):
            ug, g, comp = ring_graphs(n)
            if len(ug) < 2:
                continue
            assert girth(g) == INFINITY, n
            assert eccentricity_profile(g) == (INFINITY, INFINITY), n
            cd, cr = eccentricity_profile(comp)
            assert cr == 1, n
            assert cd in (1, 2), n
            assert (cd == 1) == is_complete(comp), n
            if len(ug) > 3:
                assert girth(comp) == 3, n


def test_criterion_5_domination_and_coloring():
    with Budget(5, 60.0):
        for n in range(2, 61):
            ug, g, comp = ring_graphs(n)
            if len(ug) < 2:
                continue
            deco = decompose_matching_structure(g)
            assert deco.valid, n
            assert domination_number(g) == deco.isolated + deco.pairs, n
            assert domination_number(comp) == 1, n
            assert chromatic_number(g) in (1, 2), n
            assert clique_number(g) in (1, 2), n
            if deco.pairs == 0:
                # edgeless case: the stated count m tallies 1-cliques
                assert clique_number(g) == 1, n
                assert len([v for v in range(g.n) if g.degree(v) == 0]) == len(ug), n
        verdicts = run_sweep([lookup("thm-5.4")], default_rings())
        assert all(v.outcome != FAIL for v in verdicts)
        for p in range(3, 32):
            if not is_prime(p):
                continue
            _, _, comp = ring_graphs(p)
            assert chromatic_number(comp) == (p + 1) // 2, p
            assert clique_number(comp) == (p + 1) // 2, p


def _prime_powers(limit):
    for q in range(2, limit + 1):
        try:
            yield prime_power(q)
        except ValueError:
            pass


# Z/1, every GF(q) up to 256, bool:7..10, a table ring and three rings at
# the order cap, on top of the default sweep over Z/2..Z/200
CRITERION_6_INCLUDE = [
    "zmod:1",
    *(f"gf:{p}^{k}" for p, k in _prime_powers(256)),
    *(f"bool:{k}" for k in range(7, 11)),
    f"table:@{Path(__file__).parent / 'data' / 'table_z4.json'}",
    "gf:2^12",
    "zmod:4093",
    "bool:12",
]


def test_criterion_6_planarity_and_hamiltonicity():
    # Ring graphs are never refused: the UPG is s*K1 + p*K2 and its
    # complement the complete multipartite K_{1^s, 2^p}.
    with Budget(6, 60.0):
        for ring in default_rings(zmod_max=200, include=CRITERION_6_INCLUDE):
            ug = units(ring)
            g = unity_product_graph(ug)
            comp = complement(g)
            deco = decompose_matching_structure(g)
            parts = (1,) * deco.isolated + (2,) * deco.pairs
            assert is_planar(g), ring.label
            assert not is_hamiltonian(g), ring.label
            assert is_planar(comp) == (len(ug) <= 4), ring.label
            assert is_hamiltonian(comp) == multipartite_hamiltonian(parts), ring.label


FIXTURES = []


def _fixture(g):
    assert g.n <= 12
    FIXTURES.append(g)
    return g


_fixture(graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))  # C5
_fixture(graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)]))  # C6
_fixture(graph_from_edges(3, [(0, 1), (1, 2)]))  # P3
_fixture(graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]))  # P4
_fixture(graph_from_edges(5, list(combinations(range(5), 2))))  # K5
_fixture(graph_from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)]))  # K33
_fixture(
    graph_from_edges(5, [e for e in combinations(range(5), 2) if e != (3, 4)])
)  # K5 minus an edge
_fixture(
    complement(graph_from_edges(6, [(0, 1), (2, 3), (4, 5)]))
)  # octahedron
_fixture(
    graph_from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
    )
)  # Petersen
_fixture(graph_from_edges(6, [(0, i) for i in range(1, 6)]))  # star
_fixture(graph_from_edges(7, [(0, 1), (2, 3)]))  # 2K2 + 3K1
_fixture(graph_from_edges(1, []))
_fixture(graph_from_edges(4, []))
for _n in (5, 7, 8, 11, 12, 13):
    _ug = units(zmod(_n))
    _g = unity_product_graph(_ug)
    if _g.n <= 12:
        _fixture(_g)
        _fixture(complement(_g))


def test_criterion_7_oracle_equivalence():
    with Budget(7, 60.0):
        rng = Random(1729)
        cases = list(FIXTURES)
        for _ in range(100):
            cases.append(random_graph(rng.randrange(1, 10), rng.random(), rng))
        for g in cases:
            assert domination_number(g) == brute_domination(g), g
            assert chromatic_number(g) == brute_chromatic(g), g
            assert clique_number(g) == brute_clique(g), g
            # outside the closed forms the deciders refuse, never guess
            try:
                assert is_hamiltonian(g) == brute_hamiltonian(g), g
            except VertexBoundError:
                pass
            try:
                assert is_planar(g) == reference_is_planar(g), g
            except VertexBoundError:
                pass


def test_criterion_8_cli_verdicts():
    with Budget(8, 60.0):
        res = run_cli("verify", "--claims", "thm-6.4", "--include", "gf:2^2")
        assert res.returncode == 1
        assert "P3" in res.stdout

        res = run_cli("verify", "--claims", "thm-3.6", "--zmod-max", "120")
        assert res.returncode == 0
        gap_lines = [
            line for line in res.stdout.splitlines()
            if line.strip().startswith("hypothesis_gap Z/105")
        ]
        assert len(gap_lines) == 1
        assert "isolated=8" in gap_lines[0]


def test_criterion_9_full_sweep_deterministic():
    with Budget(9, 120.0):
        first = run_cli("verify", "--claims", "all")
        second = run_cli("verify", "--claims", "all")
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr == ""
        assert first.returncode == second.returncode
        # json and csv forms are deterministic too
        fj = run_cli("verify", "--claims", "all", "--format", "json")
        sj = run_cli("verify", "--claims", "all", "--format", "json")
        assert fj.stdout == sj.stdout
