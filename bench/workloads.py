"""Seeded operation lists for the benchmark workloads.

Each workload is a list of ``Op``: one argv for ``upg.cli.main`` plus
what the oracle needs to check its output.  The program sees only the
argv lists.

The cost of an operation is set by the ring's order (the unit scan is
quadratic in it), its unit count (the graphs have that many vertices)
and its family (the cost of one multiplication).  So each workload is a
fixed list of slots, and the seed varies only what keeps that cost: the
order of the operations, and for a product slot Z/a x Z/b a
factorisation Z/x x Z/y of the same order with the same unit and
self-inverse unit counts, in either factor order.  The unity product
graph is s*K1 + p*K2 for s self-inverse units and p inverse pairs (see
``oracle.py``), so every seed offers the layers the same work; drawing
Z/m of nearly the same order instead spread the latency percentiles
from seed to seed by the unit scan's cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracle


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect_exit: int
    output: str  # "csv", "report", "dot" or "json"
    ring: tuple | None = None  # oracle ring description; None for the sweep
    graph: str = ""


SWEEP_ZMOD_MAX = 100
SWEEP_ARGV = ("verify", "--claims", "all", "--zmod-max", str(SWEEP_ZMOD_MAX), "--format", "csv")

# analyze: Z/n with n <= 160, GF(q) with q <= 81, bool:k with k <= 8 and
# Z/a x Z/b with up to 96 units; both graphs of each ring.  The two rings
# with 120 units (Z/143 and Z/11 x Z/13) took over a third of a pass and
# left the operations around p90 too few samples in a run.
ANALYZE_ZMOD = (2, 4, 7, 10, 15, 18, 22, 26, 33, 40, 45, 52, 64, 75, 88, 104, 124, 146, 153)
ANALYZE_GF = ((2, 1), (2, 2), (5, 1), (2, 3), (3, 2), (13, 1), (2, 4), (5, 2), (3, 3), (2, 5), (2, 6), (3, 4))
ANALYZE_BOOL = (1, 2, 4, 6, 7, 8)
ANALYZE_PRODUCTS = ((2, 3), (3, 4), (2, 9), (4, 5), (4, 7), (3, 20), (5, 9), (4, 17), (4, 25), (5, 17), (7, 17))

# build_ring: structured rings of order 125..343; products are drawn in
# either factor order
BUILD_RING = (
    ("gf", 5, 3),
    ("gf", 2, 7),
    ("gf", 3, 5),
    ("gf", 2, 8),
    ("gf", 7, 3),
    ("bool", 7),
    ("bool", 8),
    ("prod", (("zmod", 5), ("zmod", 25))),
    ("prod", (("zmod", 8), ("zmod", 16))),
    ("prod", (("zmod", 4), ("gf", 2, 5))),
    ("prod", (("zmod", 2), ("gf", 2, 6))),
    ("prod", (("gf", 2, 2), ("gf", 2, 5))),
    ("prod", (("gf", 2, 4), ("zmod", 16))),
    ("prod", (("gf", 2, 4), ("gf", 2, 4))),
    ("prod", (("gf", 5, 2), ("zmod", 5))),
    ("prod", (("zmod", 9), ("gf", 3, 3))),
    ("prod", (("zmod", 3), ("gf", 3, 4))),
    ("prod", (("gf", 3, 2), ("gf", 3, 3))),
    ("prod", (("gf", 7, 2), ("zmod", 7))),
    ("prod", (("gf", 11, 2), ("zmod", 2))),
    ("prod", (("bool", 3), ("zmod", 16))),
)

# build_dense: complements of Z/n with 216..448 units, each n once as DOT
# and once as JSON; phi(n) / n > 0.7, so the graph layer, not the unit
# scan, dominates
BUILD_DENSE = (247, 287, 371, 391, 407, 437, 473, 481, 493)


def _product_draw(rng: random.Random, a: int, b: int) -> tuple:
    order = a * b
    counts = oracle.unit_counts(("prod", (("zmod", a), ("zmod", b))))
    candidates = [
        (x, order // x)
        for x in range(2, order // 2 + 1)
        if order % x == 0 and oracle.unit_counts(("prod", (("zmod", x), ("zmod", order // x)))) == counts
    ]
    x, y = rng.choice(candidates)
    return ("prod", (("zmod", x), ("zmod", y)))


def _analyze_ops(ring: tuple) -> list[Op]:
    return [
        Op(("analyze", "--ring", oracle.spec(ring), "--graph", graph, "--format", "json"), 0, "report", ring, graph)
        for graph in ("upg", "complement")
    ]


def analyze(seed: int) -> list[Op]:
    rng = random.Random(seed)
    rings = [("zmod", n) for n in ANALYZE_ZMOD]
    rings += [("gf", p, k) for p, k in ANALYZE_GF]
    rings += [("bool", k) for k in ANALYZE_BOOL]
    rings += [_product_draw(rng, a, b) for a, b in ANALYZE_PRODUCTS]
    ops = [op for ring in rings for op in _analyze_ops(ring)]
    rng.shuffle(ops)
    return ops


def build_ring(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for ring in BUILD_RING:
        if ring[0] == "prod":
            ring = ("prod", tuple(rng.sample(ring[1], len(ring[1]))))
        ops.append(Op(("build", "--ring", oracle.spec(ring), "--graph", "upg"), 0, "dot", ring, "upg"))
    rng.shuffle(ops)
    return ops


def build_dense(seed: int) -> list[Op]:
    rng = random.Random(seed)
    by_format = []
    for fmt in ("dot", "json"):
        rings = [("zmod", n) for n in BUILD_DENSE]
        rng.shuffle(rings)
        by_format.append([(ring, fmt) for ring in rings])
    ops = []
    for ring, fmt in (pair for pairs in zip(*by_format) for pair in pairs):
        argv = ("build", "--ring", oracle.spec(ring), "--graph", "complement", "--format", fmt)
        ops.append(Op(argv, 0, fmt, ring, "complement"))
    return ops


def sweep(seed: int) -> list[Op]:
    # the sweep covers a fixed ring family; the seed has nothing to draw
    return [Op(SWEEP_ARGV, 1, "csv")]


WORKLOADS = {
    "sweep": sweep,
    "analyze": analyze,
    "build_ring": build_ring,
    "build_dense": build_dense,
}


def generate(name: str, seed: int) -> list[Op]:
    return WORKLOADS[name](seed)
