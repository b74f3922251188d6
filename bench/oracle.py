"""Output checks for the benchmark, independent of the ``upg`` package.

Every ring the benchmark asks about is described by a nested tuple:
``("zmod", n)``, ``("gf", p, k)``, ``("bool", k)`` or
``("prod", (ring, ring, ...))``.  From that description alone, by plain
integer arithmetic, the oracle counts the units ``u`` and the
self-inverse units ``s``; the other ``p = (u - s) / 2`` units form
inverse pairs.  The unity product graph is then ``s*K1 + p*K2`` and its
complement is the complete multipartite graph ``K_{1^s, 2^p}``, so every
invariant ``analyze`` reports and every count ``build`` emits has a
closed form in ``s`` and ``p``.

Each check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import json
import math

INF = "inf"

# The verdict tally of `verify --claims all --zmod-max 100`: 120 rings x 26
# claims.  The fails are findings of the paper and are pinned one by one.
SWEEP_TALLY = {
    "pass": 2069,
    "fail": 8,
    "hypothesis_gap": 30,
    "not_applicable": 1013,
    "skipped": 0,
}
SWEEP_FAILS = frozenset(
    {
        ("prop-3.1", "Z/18"),
        ("prop-3.1", "Z/30"),
        ("prop-4.1-2", "Z/2 × Z/2 × Z/3"),
        ("prop-4.1-2", "Z/2 × Z/4"),
        ("prop-4.1-2", "Z/3 × Z/3"),
        ("prop-4.1-2", "Z/4 × Z/4"),
        ("thm-6.4", "GF(4)"),
        ("thm-6.4", "GF(4) × Z/2"),
    }
)
SWEEP_RINGS = 120
SWEEP_CLAIMS = 26


def spec(ring: tuple) -> str:
    """The CLI ring spec for a ring description."""
    family = ring[0]
    if family == "zmod":
        return f"zmod:{ring[1]}"
    if family == "gf":
        return f"gf:{ring[1]}^{ring[2]}"
    if family == "bool":
        return f"bool:{ring[1]}"
    return "prod:(" + ",".join(spec(part) for part in ring[1]) + ")"


def unit_counts(ring: tuple) -> tuple[int, int]:
    """(units, self-inverse units) of a ring description.

    Z/n: x is a unit iff gcd(x, n) = 1, self-inverse iff x^2 = 1 mod n.
    GF(q): the q - 1 nonzero elements; x^2 = 1 has the roots +1 and -1,
    which coincide in characteristic 2.  Boolean rings: only the unity.
    Products: both counts are multiplicative over the factors.
    """
    family = ring[0]
    if family == "zmod":
        n = ring[1]
        units = [x for x in range(n) if math.gcd(x, n) == 1]
        return len(units), sum(1 for x in units if x * x % n == 1 % n)
    if family == "gf":
        q = ring[1] ** ring[2]
        return q - 1, 1 if ring[1] == 2 else 2
    if family == "bool":
        return 1, 1
    units, self_inverse = 1, 1
    for part in ring[1]:
        u, s = unit_counts(part)
        units *= u
        self_inverse *= s
    return units, self_inverse


def expected_edges(units: int, self_inverse: int, graph: str) -> int:
    pairs = (units - self_inverse) // 2
    if graph == "upg":
        return pairs
    return units * (units - 1) // 2 - pairs


def expected_report(units: int, self_inverse: int, graph: str) -> dict:
    """The `analyze --format json` document for s*K1 + p*K2 or its complement."""
    s = self_inverse
    p = (units - s) // 2
    n = units
    edges = expected_edges(units, s, graph)
    if graph == "upg":
        components = s + p
        connected = components <= 1
        girth = INF
        diameter = radius = n - 1 if connected else INF
        domination = s + p
        chromatic = clique = 2 if p else 1
        planar = True
        hamiltonian = False
    else:
        parts = s + p
        # one part of size two and nothing else: two isolated vertices
        connected = not (s == 0 and p == 1)
        components = 1 if connected else 2
        if parts >= 3:
            girth = 3
        elif s == 0 and p == 2:
            girth = 4  # K_{2,2} is the 4-cycle
        else:
            girth = INF
        if not connected:
            diameter = radius = INF
        elif n == 1:
            diameter = radius = 0
        elif p == 0:
            diameter = radius = 1
        else:
            diameter, radius = 2, 1 if s else 2
        domination = 1 if s else 2
        chromatic = clique = parts
        # five parts contain K5; K_{2,2,1,1} has 13 > 3*6 - 6 edges
        planar = parts <= 3 or (parts == 4 and p <= 1)
        # no part may exceed half of the vertices
        hamiltonian = n >= 3 and (p == 0 or n >= 4)
    return {
        "n": n,
        "edge_count": edges,
        "component_count": components,
        "isolated_count": s if graph == "upg" else (n if edges == 0 else 0),
        "connected": connected,
        "girth": girth,
        "diameter": diameter,
        "radius": radius,
        "domination_number": domination,
        "chromatic_number": chromatic,
        "clique_number": clique,
        "planar": planar,
        "hamiltonian": hamiltonian,
    }


def check_report(text: str, units: int, self_inverse: int, graph: str) -> str | None:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    expected = expected_report(units, self_inverse, graph)
    if doc != expected:
        wrong = sorted(k for k in expected.keys() | doc.keys() if doc.get(k) != expected.get(k))
        return "report differs on " + ", ".join(
            f"{k} (got {doc.get(k)!r}, want {expected.get(k)!r})" for k in wrong
        )
    return None


def check_dot(text: str, vertices: int, edges: int) -> str | None:
    lines = text.split("\n")
    if lines[0] != "graph {" or lines[-2:] != ["}", ""]:
        return "DOT output is not one 'graph { ... }' block ending in a newline"
    body = lines[1:-2]
    edge_lines = sum(1 for line in body if " -- " in line)
    vertex_lines = len(body) - edge_lines
    if (vertex_lines, edge_lines) != (vertices, edges):
        return (
            f"DOT has {vertex_lines} vertices and {edge_lines} edges, "
            f"want {vertices} and {edges}"
        )
    return None


def check_graph_json(text: str, vertices: int, edges: int) -> str | None:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"graph is not JSON: {exc}"
    if not isinstance(doc, dict) or set(doc) != {"n", "labels", "edges"}:
        return "graph JSON does not have exactly the keys n, labels, edges"
    if doc["n"] != vertices or len(doc["labels"]) != vertices:
        return f"graph JSON has n={doc['n']} and {len(doc['labels'])} labels, want {vertices}"
    pairs = doc["edges"]
    if len(pairs) != edges:
        return f"graph JSON has {len(pairs)} edges, want {edges}"
    previous = (-1, -1)
    for pair in pairs:
        # strictly ascending pairs with u < v < n are distinct simple edges
        u, v = pair
        if not (0 <= u < v < vertices and (u, v) > previous):
            return f"graph JSON edge {pair!r} is out of range or out of order"
        previous = (u, v)
    return None


def check_sweep(text: str) -> tuple[str | None, int]:
    """Check `verify --format csv` output; returns (reason, verdict count)."""
    lines = text.split("\n")
    if lines[0] != "claim_id,ring,outcome,witness" or lines[-1] != "":
        return "sweep CSV lacks its header or final newline", 0
    tally = dict.fromkeys(SWEEP_TALLY, 0)
    fails = set()
    rings = set()
    claims = set()
    for line in lines[1:-1]:
        fields = line.split(",", 3)
        if len(fields) != 4 or fields[2] not in tally:
            return f"bad sweep row {line!r}", 0
        claim_id, ring, outcome, _ = fields
        tally[outcome] += 1
        rings.add(ring)
        claims.add(claim_id)
        if outcome == "fail":
            fails.add((claim_id, ring))
    verdicts = len(lines) - 2
    if tally != SWEEP_TALLY:
        return f"sweep tally {tally}, want {SWEEP_TALLY}", verdicts
    if fails != SWEEP_FAILS:
        return f"sweep fails {sorted(fails ^ SWEEP_FAILS)} differ from the pinned set", verdicts
    if (len(rings), len(claims)) != (SWEEP_RINGS, SWEEP_CLAIMS):
        return f"sweep covers {len(rings)} rings x {len(claims)} claims", verdicts
    return None, verdicts
