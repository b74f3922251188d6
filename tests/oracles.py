"""Brute-force reference implementations for cross-checking solvers.

Deliberately dumb and independent of the package internals: subset
enumeration, submask dynamic programming and permutation search.  Only
usable on small graphs.  ``reference_girth`` and
``reference_eccentricity_profile`` are the former list-based BFS solvers,
kept as the differential reference for the bit-parallel ones and for
the girth read off a join's co-components (on ``random_join`` graphs),
and
``reference_units`` is the former unit-group scan, the reference for the
per-family inverse hooks; ``self_inverse_count`` and
``inverse_pair_count`` count a unit group's K1s and K2s from its inverse
map.  ``reference_gf_mul`` is the former schoolbook GF(p^k) product,
over its own modulus search, and ``reference_gf_inverses`` the former
walk of candidate generators, the reference for the exp/log tables of
``gf``; ``reference_gf_add`` is the digitwise sum mod p, the reference
for the packed-vector ``add``, and ``reference_gf_generator`` the former
Lagrange search over schoolbook powers, the reference for the generator
that ``gf`` finds by walking candidates; ``reference_gf_name`` and
``reference_product_name`` are the former one-element-at-a-time namers,
the reference for the name lists that ``gf`` and ``direct_product``
build in one ``product`` and for the unit names a ring graph's labels
come from.
``reference_is_planar`` is the former K5/K3,3 subdivision
search, the reference for the closed-form planarity of forests and
complete multipartite graphs.  ``reference_export_dot`` and
``reference_export_json`` are the former exporters, built from one
Python object per edge, the reference for the streamed ones, which
write a ring graph's edges off its mate array.
``reference_recognize_complete_multipartite`` is the former row scan of
each co-component, the reference for the edge-count test.
``reference_clique_search``, ``reference_chromatic_search`` (DSATUR
bound, then exact k-colorability) and ``reference_domination_search``
are the former recursive prime-piece searches, run on whole graphs, the
reference for the in-place searches on explicit stacks.
``reference_decomposition`` is the split, one piece per part, that
finds the components of every graph by mask BFS;
``assert_matches_reference`` checks a Decomposition against it.
``pairing_graph`` is the unity product graph of a stand-in unit group
with s self-inverse units and p inverse pairs, and ``SPLIT_FIELDS`` the
answers a split gives, every report field among them, on which a ring
graph's closed-form split is checked against the rows-only
Decomposition.
``reference_report_json`` is the former report writer, json.dumps with
indent=2, the reference for the separator layout of ``to_json``; the
labels block of ``export_json`` is checked against
``reference_export_json`` the same way.  ``reference_main`` is the former
``cli.main``, which parsed every call from the top, the subcommand's
parser nested inside, the reference for the plain ``--option value``
parse read off the subcommand's actions; ``run_main``
captures one call of either.
``reference_residues`` is the former ``cyclic_residues``, a walk of the
additive orbit of unity, one ``add`` per element: the reference for
``is_cyclic``, which reads the characteristic instead.
``reference_prop_31_hypothesis`` is prop-3.1's former hypothesis, a walk
of the units' canonical residues up to the first composite one, the
reference for the rule the claim now decides it by.
``reference_sweep`` is the former sweep, ring by ring with one
``ClaimVerdict`` per verdict, and ``reference_render`` the former
renderers, each building its whole output, JSON by json.dumps with
indent=2: the reference for the per-claim pairs of ``run_sweep`` and
the chunked renderers.  ``bench_module`` loads a module of the
benchmark by name (``bench_workloads`` the workload lists, which some
tests reuse).
"""

import contextlib
import importlib
import io
import json
import math
import sys
from collections import Counter
from itertools import chain, combinations, permutations
from pathlib import Path
from random import Random

from upg import cli
from upg.claims import (
    FAIL,
    HYPOTHESIS_GAP,
    NOT_APPLICABLE,
    PASS,
    SKIPPED,
    Claim,
    ClaimVerdict,
    RingContext,
    claims_by_id,
)
from upg.graphs import (
    MultipartiteProfile,
    SimpleGraph,
    bit_indices,
    connected_parts,
    graph_from_edges,
    unity_product_graph,
)
from upg.invariants import JOIN, PRIME, SMALL, UNION, VertexBoundError
from upg.rings import FiniteRing, NoUnityError, UnitGroup, zmod

INFINITY = math.inf


def brute_domination(g: SimpleGraph) -> int:
    full = (1 << g.n) - 1
    if g.n == 0:
        return 0
    closed = [g.adj[v] | (1 << v) for v in range(g.n)]
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            covered = 0
            for v in subset:
                covered |= closed[v]
            if covered == full:
                return size
    raise AssertionError("unreachable")


def brute_clique(g: SimpleGraph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for subset in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
                return size
    return best


def brute_chromatic(g: SimpleGraph) -> int:
    """Submask DP: fewest independent sets covering all vertices."""
    if g.n == 0:
        return 0
    full = (1 << g.n) - 1
    independent = [True] * (full + 1)
    for mask in range(full + 1):
        rest = mask
        ok = True
        while rest and ok:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if g.adj[v] & rest:
                ok = False
        independent[mask] = ok
    best = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        candidates = []
        sub = mask
        while sub:
            if sub & low and independent[sub]:
                candidates.append(best[mask & ~sub])
            sub = (sub - 1) & mask
        best[mask] = 1 + min(candidates)
    return best[full]


def brute_chromatic_assignments(g: SimpleGraph, k: int) -> bool:
    """Literal k-coloring search by assignment enumeration; tiny n only."""
    colors = [0] * g.n

    def assign(v: int) -> bool:
        if v == g.n:
            return True
        for c in range(k):
            if all(not (g.adj[v] >> u & 1) or colors[u] != c for u in range(v)):
                colors[v] = c
                if assign(v + 1):
                    return True
        return False

    return assign(0)


def brute_hamiltonian(g: SimpleGraph) -> bool:
    if g.n < 3:
        return False
    if g.n <= 8:
        verts = list(range(1, g.n))
        for perm in permutations(verts):
            cycle = (0, *perm, 0)
            if all(g.has_edge(cycle[i], cycle[i + 1]) for i in range(g.n)):
                return True
        return False
    # Held-Karp reachability over subsets containing vertex 0
    full = (1 << g.n) - 1
    reach = [0] * (full + 1)
    reach[1] = 1
    for mask in range(1, full + 1):
        if not mask & 1:
            continue
        ends = reach[mask]
        if not ends:
            continue
        rest = ends
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            nxt = g.adj[u] & ~mask
            while nxt:
                v = (nxt & -nxt).bit_length() - 1
                nxt &= nxt - 1
                reach[mask | (1 << v)] |= 1 << v
    return bool(reach[full] & g.adj[0])


def brute_girth(g: SimpleGraph):
    """Shortest cycle via per-edge removal plus BFS between endpoints."""
    best = float("inf")
    for u, v in g.edges():
        dist = _bfs_without_edge(g, u, v)
        if dist[v] >= 0:
            best = min(best, dist[v] + 1)
    return best


def _bfs_without_edge(g: SimpleGraph, src: int, skip: int) -> list[int]:
    dist = [-1] * g.n
    dist[src] = 0
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            nbrs = g.adj[x]
            if x == src:
                nbrs &= ~(1 << skip)
            if x == skip:
                nbrs &= ~(1 << src)
            while nbrs:
                y = (nbrs & -nbrs).bit_length() - 1
                nbrs &= nbrs - 1
                if dist[y] < 0:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


def _bfs_dist(g: SimpleGraph, root: int) -> list[int]:
    """BFS distances from root; unreachable vertices get -1."""
    dist = [-1] * g.n
    dist[root] = 0
    frontier = [root]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in bit_indices(g.adj[u]):
                if dist[v] == -1:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def reference_girth(g: SimpleGraph):
    """Length of a shortest cycle, INFINITY for forests.

    BFS from every root; a non-tree edge (u, v) seen from root r closes a
    walk of length dist[u] + dist[v] + 1 containing a cycle no longer than
    itself, and for r on a shortest cycle the bound is attained.
    """
    best = INFINITY
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
                for v in bit_indices(g.adj[u]):
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


def reference_eccentricity_profile(g: SimpleGraph):
    """(diameter, radius, eccentricities) from one list-based BFS per vertex.

    In a disconnected graph every eccentricity is INFINITY.  A single
    vertex has eccentricity 0.
    """
    if g.n == 0:
        return 0, 0, []
    ecc = []
    for v in range(g.n):
        dist = _bfs_dist(g, v)
        ecc.append(INFINITY if -1 in dist else max(dist))
    return max(ecc), min(ecc), ecc


def reference_recognize_complete_multipartite(
    g: SimpleGraph, co_components: list[int] | None = None
) -> MultipartiteProfile:
    """Detect complete multipartite graphs.

    A graph is complete multipartite iff each of its co-components (the
    components of its complement) is an independent set; the parts are
    those co-components.  No complement is built, and none is searched
    when the caller passes the co-components as vertex masks.
    """
    if co_components is None:
        co_components = connected_parts(g.adj, (1 << g.n) - 1, complemented=True)
    sizes = []
    for part in co_components:
        if any(g.adj[v] & part for v in bit_indices(part)):
            return MultipartiteProfile(part_sizes=(), valid=False)
        sizes.append(part.bit_count())
    return MultipartiteProfile(part_sizes=tuple(sorted(sizes)), valid=True)


def reference_is_planar(g: SimpleGraph) -> bool:
    """Planarity by Kuratowski's theorem: no subdivided K5 and no
    subdivided K3,3, found by exhaustive search over branch vertices and
    internally disjoint paths.  The former fallback of ``is_planar``,
    kept as the reference for its closed forms; small graphs only."""
    return not _has_k5_subdivision(g) and not _has_k33_subdivision(g)


def _find_paths(
    g: SimpleGraph, a: int, b: int, blocked: int
):
    """Yield masks of internal vertices of simple a-b paths avoiding blocked."""
    if g.has_edge(a, b):
        yield 0

    def walk(u: int, used: int):
        for v in bit_indices(g.adj[u] & ~blocked & ~used):
            if g.has_edge(v, b):
                yield used | (1 << v)
            yield from walk(v, used | (1 << v))

    yield from walk(a, 0)


def _embed_pairs(g: SimpleGraph, pairs: list[tuple[int, int]], blocked: int) -> bool:
    """Pack internally disjoint paths joining each pair, internal vertices
    outside blocked and outside each other."""
    if not pairs:
        return True
    (a, b), rest = pairs[0], pairs[1:]
    for internal in _find_paths(g, a, b, blocked):
        if _embed_pairs(g, rest, blocked | internal):
            return True
    return False


def _has_k5_subdivision(g: SimpleGraph) -> bool:
    nodes = [v for v in range(g.n) if g.degree(v) >= 4]
    for branch in combinations(nodes, 5):
        blocked = 0
        for v in branch:
            blocked |= 1 << v
        pairs = [(a, b) for a, b in combinations(branch, 2)]
        if _embed_pairs(g, pairs, blocked):
            return True
    return False


def _has_k33_subdivision(g: SimpleGraph) -> bool:
    nodes = [v for v in range(g.n) if g.degree(v) >= 3]
    for branch in combinations(nodes, 6):
        blocked = 0
        for v in branch:
            blocked |= 1 << v
        # bipartitions of 6 branch vertices into two triples, first fixed
        for mates in combinations(branch[1:], 2):
            side_a = (branch[0],) + mates
            side_b = tuple(v for v in branch if v not in side_a)
            pairs = [(a, b) for a in side_a for b in side_b]
            if _embed_pairs(g, pairs, blocked):
                return True
    return False


def reference_domination_search(g: SimpleGraph) -> int:
    """Minimum size of a set whose closed neighborhoods cover the graph.

    Dominating sets split over connected components, so each component is
    solved on its own: greedy upper bound, then branch and bound picking
    an undominated vertex with the fewest candidate dominators.
    """
    if g.n == 0:
        return 0
    closed = [g.adj[v] | (1 << v) for v in range(g.n)]
    full = (1 << g.n) - 1
    return sum(_dominate_component(closed, mask) for mask in connected_parts(g.adj, full))


def _dominate_component(closed: list[int], comp: int) -> int:
    vertices = list(bit_indices(comp))
    if len(vertices) == 1:
        return 1

    # greedy upper bound
    dominated = 0
    greedy = 0
    while dominated != comp:
        best_v = max(
            vertices, key=lambda v: ((closed[v] & comp & ~dominated).bit_count(), -v)
        )
        dominated |= closed[best_v]
        greedy += 1

    best = greedy

    def lower_bound(undominated: int) -> int:
        gain = max((closed[v] & undominated).bit_count() for v in vertices)
        return -(-undominated.bit_count() // gain)

    def search(dominated: int, size: int) -> None:
        nonlocal best
        undominated = comp & ~dominated
        if not undominated:
            if size < best:
                best = size
            return
        if size + lower_bound(undominated) >= best:
            return
        pivot = min(bit_indices(undominated), key=lambda v: closed[v].bit_count())
        for w in bit_indices(closed[pivot]):
            search(dominated | closed[w], size + 1)

    search(0, 0)
    return best


def reference_clique_search(g: SimpleGraph) -> tuple[int, int]:
    """(order, vertex mask) of a maximum clique.

    Branch and bound with a greedy-coloring bound: vertices of the
    candidate set are colored greedily and expanded in reverse color
    order; a branch dies when size + color bound cannot beat the best.
    """
    if g.n == 0:
        return 0, 0
    best_size = 0
    best_mask = 0

    def color_sort(candidates: int) -> list[tuple[int, int]]:
        order = []
        color = 0
        rest = candidates
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append((v, color))
                avail &= ~g.adj[v]
                avail &= ~(1 << v)
                rest &= ~(1 << v)
        return order

    def expand(current: int, size: int, candidates: int) -> None:
        nonlocal best_size, best_mask
        if not candidates:
            if size > best_size:
                best_size = size
                best_mask = current
            return
        order = color_sort(candidates)
        cands = candidates
        for v, bound in reversed(order):
            if size + bound <= best_size:
                return
            expand(current | (1 << v), size + 1, cands & g.adj[v])
            cands &= ~(1 << v)

    expand(0, 0, (1 << g.n) - 1)
    return best_size, best_mask


def _dsatur_greedy(g: SimpleGraph) -> tuple[int, list[int]]:
    """Greedy DSATUR coloring; returns (color count, coloring)."""
    if g.n == 0:
        return 0, []
    color = [-1] * g.n
    neighbor_colors: list[set[int]] = [set() for _ in range(g.n)]
    for _ in range(g.n):
        v = max(
            (u for u in range(g.n) if color[u] == -1),
            key=lambda u: (len(neighbor_colors[u]), g.degree(u), -u),
        )
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        color[v] = c
        for u in bit_indices(g.adj[v]):
            neighbor_colors[u].add(c)
    return max(color) + 1, color


def _k_colorable(g: SimpleGraph, k: int, clique_mask: int) -> bool:
    """Exact backtracking k-colorability with a precolored maximum clique."""
    color = [-1] * g.n
    used = 0
    for v in bit_indices(clique_mask):
        color[v] = used
        used += 1
    if used > k:
        return False

    def admissible(v: int) -> list[int]:
        banned = {color[u] for u in bit_indices(g.adj[v]) if color[u] != -1}
        top = min(k, max([color[u] for u in range(g.n) if color[u] != -1], default=-1) + 2)
        return [c for c in range(top) if c not in banned]

    def pick() -> int | None:
        best_v, best_key = None, None
        for v in range(g.n):
            if color[v] != -1:
                continue
            sat = len({color[u] for u in bit_indices(g.adj[v]) if color[u] != -1})
            key = (-sat, -g.degree(v), v)
            if best_key is None or key < best_key:
                best_v, best_key = v, key
        return best_v

    def solve() -> bool:
        v = pick()
        if v is None:
            return True
        for c in admissible(v):
            color[v] = c
            if solve():
                return True
            color[v] = -1
        return False

    return solve()


def reference_chromatic_search(g: SimpleGraph, clique: tuple[int, int]) -> int:
    """Exact chromatic number via the clique lower bound, DSATUR upper
    bound, and backtracking k-colorability between them; ``clique`` is
    (order, vertex mask) of a maximum clique of g."""
    if g.n == 0:
        return 0
    lb, clique_mask = clique
    ub, _ = _dsatur_greedy(g)
    for k in range(lb, ub):
        if _k_colorable(g, k, clique_mask):
            return k
    return ub


def reference_units(ring: FiniteRing) -> UnitGroup:
    """The unit group found by trying every product x * y."""
    if ring.unity is None:
        raise NoUnityError(ring.label)
    e = ring.unity
    inverse_of: dict[int, int] = {}
    for x in range(ring.order):
        if x in inverse_of:
            continue
        for y in range(ring.order):
            if ring.mul(x, y) == e:
                inverse_of[x] = y
                inverse_of[y] = x
                break
    members = tuple(sorted(inverse_of))
    return UnitGroup(ring=ring, units=members, inverse_of=inverse_of)


def reference_residues(ring: FiniteRing) -> tuple[int, ...] | None:
    """For a ring isomorphic to Z/order, each element index mapped to its
    k with element = k.unity, else None: the additive orbit of unity is
    walked, one ``add`` per element, stopping at the first repeat."""
    if ring.unity is None:
        return None
    residue = [-1] * ring.order
    acc = ring.zero
    for k in range(ring.order):
        if residue[acc] != -1:
            return None
        residue[acc] = k
        acc = ring.add(acc, ring.unity)
    if acc != ring.zero:
        return None
    return tuple(residue)


def reference_prop_31_hypothesis(ring: FiniteRing, unit_indices) -> bool:
    """Whether the ring is isomorphic to Z/n with no composite canonical
    residue among the units at ``unit_indices``, walked in order and
    stopping at the first composite; composites are found by trial
    division."""
    residues = reference_residues(ring)
    if residues is None:
        return False
    composite = (k for k in map(residues.__getitem__, unit_indices) if k >= 4)
    return not any(any(k % d == 0 for d in range(2, math.isqrt(k) + 1)) for k in composite)


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k for a prime p, p found by trying every divisor
    up to q; ValueError when q is no prime power."""
    for p in range(2, q + 1):
        if q % p == 0:
            rest, k = q, 0
            while rest % p == 0:
                rest //= p
                k += 1
            if rest != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, k
    raise ValueError(f"{q} is not a prime power")


def self_inverse_count(ug: UnitGroup) -> int:
    """Number of units equal to their own inverse."""
    return sum(1 for x in ug.units if ug.inverse_of[x] == x)


def inverse_pair_count(ug: UnitGroup) -> int:
    """Number of unordered pairs {x, y}, x != y, with x * y = unity."""
    return (len(ug.units) - self_inverse_count(ug)) // 2


def _digits(x: int, p: int, k: int) -> list[int]:
    """The k base-p digits of x, least significant first."""
    out = []
    for _ in range(k):
        x, d = divmod(x, p)
        out.append(d)
    return out


def _poly_rem(num: list[int], monic: list[int], p: int) -> list[int]:
    """Remainder of num by a monic polynomial over GF(p), coefficients
    low first, padded to the divisor's degree."""
    num = [c % p for c in num]
    d = len(monic) - 1
    for top in range(len(num) - 1, d - 1, -1):
        c = num[top]
        if c:
            for j, m in enumerate(monic):
                num[top - d + j] = (num[top - d + j] - c * m) % p
    return (num + [0] * d)[:d]


def reference_is_irreducible(f: list[int], p: int) -> bool:
    """True when no monic polynomial of degree 1 .. k//2 divides the monic
    f of degree k over GF(p), by trial division by every one."""
    k = len(f) - 1
    divisors = (_digits(m, p, d) + [1] for d in range(1, k // 2 + 1) for m in range(p**d))
    return all(any(_poly_rem(f, g, p)) for g in divisors)


def _reference_modulus(p: int, k: int) -> list[int]:
    """The first monic irreducible of degree k, counting up the index of
    its lower coefficients."""
    for low in range(p**k):
        f = _digits(low, p, k) + [1]
        if reference_is_irreducible(f, p):
            return f
    raise AssertionError(f"no irreducible of degree {k} over GF({p})")


def reference_gf_mul(p: int, k: int):
    """GF(p^k) multiplication on base-p digit indices: the schoolbook
    product of the two polynomials, reduced by long division by the
    smallest monic irreducible of degree k."""
    modulus = _reference_modulus(p, k)

    def mul(a: int, b: int) -> int:
        da, db = _digits(a, p, k), _digits(b, p, k)
        conv = [0] * (2 * k - 1)
        for i, ca in enumerate(da):
            for j, cb in enumerate(db):
                conv[i + j] += ca * cb
        return sum(c * p**i for i, c in enumerate(_poly_rem(conv, modulus, p)))

    return mul


def reference_gf_add(p: int, k: int):
    """GF(p^k) addition on base-p digit indices: each digit pair summed
    mod p."""

    def add(a: int, b: int) -> int:
        pairs = zip(_digits(a, p, k), _digits(b, p, k))
        return sum((x + y) % p * p**i for i, (x, y) in enumerate(pairs))

    return add


def reference_gf_generator(p: int, k: int) -> int:
    """The first index g >= p that Lagrange's test accepts as a primitive
    element of GF(p^k): g^((q-1)/r) != 1 for every prime r dividing q - 1,
    each power taken by square and multiply over the schoolbook product."""
    mul, order = reference_gf_mul(p, k), p**k
    primes = [
        r for r in range(2, order) if (order - 1) % r == 0 and all(r % d for d in range(2, r))
    ]

    def power(a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = mul(result, a)
            a = mul(a, a)
            e >>= 1
        return result

    return next(
        g for g in range(p, order) if all(power(g, (order - 1) // r) != 1 for r in primes)
    )


def reference_gf_inverses(p: int, k: int) -> dict[int, int]:
    """Each unit of GF(p^k) mapped to its inverse, by walking the powers
    of 2, 3, ... until one has order q - 1, then g^i -> g^(q-1-i)."""
    mul, order = reference_gf_mul(p, k), p**k
    for g in range(2, order):
        powers = [1]
        x = g
        while x != 1:
            powers.append(x)
            x = mul(x, g)
        if len(powers) == order - 1:
            return {x: powers[-i] for i, x in enumerate(powers)}
    raise AssertionError(f"GF({order}) has no primitive element")


def reference_gf_name(x: int, p: int, k: int) -> str:
    """The name of index x of GF(p^k): its polynomial, highest term first,
    built one digit at a time."""
    digits = _digits(x, p, k)
    terms = []
    for i in range(len(digits) - 1, -1, -1):
        c = digits[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("x" if c == 1 else f"{c}x")
        else:
            terms.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
    return "+".join(terms) if terms else "0"


def reference_product_name(x: int, components) -> str:
    """The name of index x of a direct product, given each component as
    (order, name function), the first most significant: x decoded by
    mixed radix into one index per component, their names joined."""
    names = []
    for order, name in reversed(components):
        x, part = divmod(x, order)
        names.append(name(part))
    return "(" + ",".join(reversed(names)) + ")"


def reference_export_dot(g: SimpleGraph) -> str:
    """Deterministic DOT rendering: vertex lines first, then sorted edges."""
    lines = ["graph {"]
    for v in range(g.n):
        lines.append(f'  "{_dot_escape(g.labels[v])}";')
    for u, v in g.edges():
        lines.append(f'  "{_dot_escape(g.labels[u])}" -- "{_dot_escape(g.labels[v])}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def reference_export_json(g: SimpleGraph) -> str:
    """JSON document {n, labels, edges} with edges ascending, u < v."""
    doc = {
        "n": g.n,
        "labels": list(g.labels),
        "edges": [[u, v] for u, v in g.edges()],
    }
    return json.dumps(doc, indent=2) + "\n"


def random_graph(n: int, p: float, rng: Random) -> SimpleGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


def reference_decomposition(g: SimpleGraph) -> dict:
    """components, co_components, kinds, masks and parts of the split,
    with the components of every graph found by connected_parts."""
    non_edge = "non-edge"
    adj = g.adj
    full = (1 << g.n) - 1
    components = connected_parts(adj, full)
    co_components = connected_parts(adj, full, complemented=True) if len(components) <= 1 else [full]
    kinds = [non_edge if g.n == 2 and not adj[0] else SMALL]
    masks = [full]
    parts: list[tuple[int, ...]] = [()]
    top = {UNION: components, JOIN: co_components}
    stack = [(0, (UNION, JOIN))]
    while stack:
        i, tries = stack.pop()
        mask = masks[i]
        if mask.bit_count() <= 2:
            continue
        for kind in tries:
            split = top[kind] if i == 0 else connected_parts(adj, mask, kind == JOIN)
            if len(split) > 1:
                break
        else:
            kinds[i] = PRIME
            continue
        kinds[i] = kind
        other = (JOIN,) if kind == UNION else (UNION,)
        small = SMALL if kind == UNION else non_edge
        first = len(masks)
        parts[i] = tuple(range(first, first + len(split)))
        for part in split:
            stack.append((len(masks), other))
            kinds.append(small if part.bit_count() == 2 else SMALL)
            masks.append(part)
            parts.append(())
    return {
        "components": components,
        "co_components": co_components,
        "kinds": kinds,
        "masks": masks,
        "parts": parts,
    }


def assert_matches_reference(split) -> None:
    """A split's kinds, masks and parts are ``reference_decomposition``'s,
    and its sorted (size, count) components and co-components count the
    sizes of the reference's."""
    g = split.graph
    ref = reference_decomposition(g)
    assert (split.kinds, split.masks, split.parts) == (ref["kinds"], ref["masks"], ref["parts"]), g
    for field in ("components", "co_components"):
        sized = sorted(Counter(map(int.bit_count, ref[field])).items())
        assert getattr(split, field) == sized, (field, g)


def reference_report_json(report) -> str:
    """InvariantReport.to_json as json's indent=2 encoder writes it."""
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


def reference_main(argv) -> int:
    """cli.main parsing from the top: parse_args, then the subcommand."""
    parser, _ = cli._build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except cli._CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code


def run_main(main, argv) -> tuple:
    """(exit code, stdout, stderr) of one call; a SystemExit gives the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def bench_module(name: str):
    """The benchmark's ``bench/<name>.py``; bench modules import each other
    by name, so ``bench`` is on the path while it loads."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(bench)


def bench_workloads():
    """The benchmark's ``bench/workloads.py``, whose ring lists the tests
    reuse."""
    return bench_module("workloads")


def _reference_evaluate(claim: Claim, ctx: RingContext) -> ClaimVerdict:
    label = ctx.ring.label
    if ctx.ring.unity is None:
        return ClaimVerdict(claim.claim_id, label, SKIPPED, {"reason": "ring has no unity element"})
    try:
        if not claim.applicable(ctx):
            return ClaimVerdict(claim.claim_id, label, NOT_APPLICABLE, None)
        outcome, witness = claim.check(ctx)
    except VertexBoundError as exc:
        reason = f"{exc.invariant} refused: graph outside the closed-form classes"
        return ClaimVerdict(claim.claim_id, label, SKIPPED, {"reason": reason})
    return ClaimVerdict(claim.claim_id, label, outcome, witness)


def reference_sweep(claims, rings) -> list[ClaimVerdict]:
    """run_sweep as it was: one ClaimVerdict per claim and ring, made ring
    by ring in label order, kept in one list per claim id."""
    by_claim = {claim_id: [] for claim_id in sorted({claim.claim_id for claim in claims})}
    for ring in sorted(rings, key=lambda r: r.label):
        ctx = RingContext(ring)
        for claim in claims:
            by_claim[claim.claim_id].append(_reference_evaluate(claim, ctx))
    return list(chain.from_iterable(by_claim.values()))


_OUTCOME_ORDER = (PASS, FAIL, HYPOTHESIS_GAP, NOT_APPLICABLE, SKIPPED)


def _reference_witness_text(witness) -> str:
    if not witness:
        return ""
    return "; ".join(f"{key}={witness[key]}" for key in witness).replace(",", ";")


def _reference_summary(verdicts) -> dict[str, int]:
    counts = {outcome: 0 for outcome in _OUTCOME_ORDER}
    for v in verdicts:
        counts[v.outcome] += 1
    return counts


def _reference_by_claim(verdicts) -> list:
    by_claim: dict[str, list] = {}
    for v in verdicts:
        by_claim.setdefault(v.claim_id, []).append(v)
    return sorted(by_claim.items())


def reference_render(verdicts, fmt: str) -> str:
    """The former render_text, render_json or render_csv of a verdict list,
    as one string."""
    registry = claims_by_id()
    if fmt == "csv":
        lines = ["claim_id,ring,outcome,witness"]
        lines += [
            f"{v.claim_id},{v.ring_label},{v.outcome},{_reference_witness_text(v.witness)}"
            for v in verdicts
        ]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        claims_doc = []
        for claim_id, rows in _reference_by_claim(verdicts):
            claim = registry.get(claim_id)
            claims_doc.append(
                {
                    "claim_id": claim_id,
                    "statement": claim.statement if claim else "",
                    "counts": _reference_summary(rows),
                    "verdicts": [
                        {
                            "ring": v.ring_label,
                            "outcome": v.outcome,
                            "witness": dict(v.witness) if v.witness else None,
                        }
                        for v in rows
                    ],
                }
            )
        doc = {"summary": _reference_summary(verdicts), "claims": claims_doc}
        return json.dumps(doc, indent=2) + "\n"
    lines = []
    for claim_id, rows in _reference_by_claim(verdicts):
        counts = _reference_summary(rows)
        lines.append(f"{claim_id}: " + "  ".join(f"{o} {counts[o]}" for o in _OUTCOME_ORDER))
        claim = registry.get(claim_id)
        if claim is not None:
            lines.append(f"  {claim.statement}")
        for v in rows:
            if v.outcome in (FAIL, HYPOTHESIS_GAP, SKIPPED):
                lines.append(f"  {v.outcome} {v.ring_label}: {_reference_witness_text(v.witness)}")
    totals = _reference_summary(verdicts)
    total_text = "  ".join(f"{o} {totals[o]}" for o in _OUTCOME_ORDER)
    lines.append(f"summary: verdicts {len(verdicts)}  {total_text}")
    return "\n".join(lines) + "\n"


def random_join(part_sizes, inner: float, rng: Random) -> SimpleGraph:
    """The join of independent sets of the given sizes, every pair of
    vertices in different parts adjacent, with each pair inside a part
    made an edge with probability ``inner``."""
    part_of = [i for i, size in enumerate(part_sizes) for _ in range(size)]
    n = len(part_of)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if part_of[u] != part_of[v] or rng.random() < inner
    ]
    return graph_from_edges(n, edges)


SPLIT_FIELDS = (
    "components", "co_components", "component_count", "multipartite",
    "domination", "clique_order", "chromatic", "clique", "isolated_count",
    "girth", "eccentricities", "planar", "hamiltonian",
)


def pairing_graph(singles: int, pairs: int, rng: Random | None = None) -> SimpleGraph:
    """The unity product graph of a unit group of singles + 2 * pairs
    units, the first ``singles`` self-inverse and the rest inverse to
    their neighbor, in index order or shuffled by ``rng``; its ring is
    Z/n, which only names the units."""
    n = singles + 2 * pairs
    order = list(range(n))
    if rng is not None:
        rng.shuffle(order)
    inverse_of = {u: u for u in order[:singles]}
    rest = order[singles:]
    for u, v in zip(rest[::2], rest[1::2]):
        inverse_of[u], inverse_of[v] = v, u
    ug = UnitGroup(ring=zmod(max(n, 1)), units=tuple(range(n)), inverse_of=inverse_of)
    return unity_product_graph(ug)
