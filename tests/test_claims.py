import json
import math
from collections import Counter
from pathlib import Path
from random import Random

import pytest

from upg.claims import (
    FAIL,
    HYPOTHESIS_GAP,
    NOT_APPLICABLE,
    PASS,
    SKIPPED,
    Claim,
    RingContext,
    UnknownClaimError,
    builtin_claims,
    claims_by_id,
    default_rings,
    lookup,
)
import upg.invariants
import upg.rows
from upg.graphs import complement, graph_from_edges, recognize_complete_multipartite
from upg.invariants import InvariantReport, VertexBoundError
from upg.rings import is_cyclic, parse_ring_spec, zmod
from upg.sweep import ClaimVerdict, render_csv, render_json, render_text, run_sweep

from oracles import (
    prime_power,
    random_graph,
    random_join,
    reference_prop_31_hypothesis,
    reference_units,
)

DATA = Path(__file__).parent / "data"

EXPECTED_IDS = {
    "thm-3.1", "thm-3.2", "thm-3.3", "thm-3.4", "thm-3.5", "thm-3.6", "thm-3.7",
    "prop-3.1", "prop-3.2-2", "prop-3.3-2",
    "thm-4.1", "thm-4.2", "thm-4.3", "thm-4.4", "thm-4.5", "prop-4.1-2",
    "thm-5.1", "prop-5.2", "thm-5.3", "thm-5.4", "thm-5.5", "thm-5.7",
    "thm-6.1", "thm-6.2", "thm-6.3", "thm-6.4",
}


def sweep_one(claim_id, rings):
    return run_sweep([lookup(claim_id)], rings)


def zmods(lo, hi):
    return [zmod(n) for n in range(lo, hi + 1)]


def test_registry_ids_stable():
    claims = builtin_claims()
    assert len(claims) == 26
    ids = [c.claim_id for c in claims]
    assert len(set(ids)) == 26
    assert set(ids) == EXPECTED_IDS
    assert all(c.statement for c in claims)


def test_lookup():
    assert lookup("thm-6.4").claim_id == "thm-6.4"
    with pytest.raises(UnknownClaimError):
        lookup("thm-99.1")
    assert set(claims_by_id()) == EXPECTED_IDS


def test_pinned_applicability_examples():
    assert lookup("thm-3.4").applicable(RingContext(zmod(2))) is False
    assert lookup("prop-3.2-2").applicable(RingContext(zmod(12))) is True
    outcome, witness = lookup("thm-6.2").check(RingContext(zmod(7)))
    assert outcome == PASS and witness is None


def test_thm41_all_pass_zmod_range():
    verdicts = sweep_one("thm-4.1", zmods(2, 60))
    assert len(verdicts) == 59
    assert all(v.outcome == PASS for v in verdicts)


def test_prop31_fails_exactly_18_and_30():
    verdicts = sweep_one("prop-3.1", zmods(2, 60))
    fails = [v.ring_label for v in verdicts if v.outcome == FAIL]
    assert fails == ["Z/18", "Z/30"]
    by_label = {v.ring_label: v for v in verdicts}
    assert "inverse" in str(by_label["Z/18"].witness)
    # composite units take the ring out of the hypothesis, never to fail
    assert by_label["Z/45"].outcome == NOT_APPLICABLE


def test_prop31_hypothesis_matches_residue_walk():
    # prop-3.1 decides its hypothesis by q^2 >= n, q the least prime not
    # dividing n; the former walk of the units' residues is the reference,
    # on every Z/n up to the order cap (units by gcd) and on every ring of
    # the default sweep, cyclic or not (units by the all-products scan)
    claim = lookup("prop-3.1")
    for n in range(1, 4097):
        ring = zmod(n)
        residues = (k for k in range(n) if math.gcd(k, n) == 1)
        assert claim.applicable(RingContext(ring)) == reference_prop_31_hypothesis(ring, residues), n
    rings = default_rings()
    cyclic = {ring.label for ring in rings if is_cyclic(ring)}
    assert {"GF(2)", "GF(13)", "Z/2 × Z/3", "Z/60"} <= cyclic and "GF(4)" not in cyclic
    applicable = set()
    for ring in rings:
        want = reference_prop_31_hypothesis(ring, reference_units(ring).units)
        assert claim.applicable(RingContext(ring)) == want, ring.label
        applicable |= {ring.label} if want else set()
    assert {"Z/24", "Z/30", "GF(3)", "Z/2 × Z/3"} <= applicable and "GF(7)" not in applicable


def brute_isolated_pairs(n):
    """Independent residue arithmetic: square roots of 1 and phi."""
    s = sum(1 for x in range(n) if x * x % n == 1 % n)
    phi = sum(1 for x in range(n) if math.gcd(x, n) == 1)
    return s, (phi - s) // 2


def test_thm36_gap_set_matches_arithmetic():
    verdicts = sweep_one("thm-3.6", zmods(2, 120))
    assert len(verdicts) == 119
    for v in verdicts:
        n = int(v.ring_label.split("/")[1])
        s, t = brute_isolated_pairs(n)
        expected = HYPOTHESIS_GAP if (t > 0 and s not in (2, 4)) else PASS
        assert v.outcome == expected, (n, s, t)
    gap105 = next(v for v in verdicts if v.ring_label == "Z/105")
    assert gap105.outcome == HYPOTHESIS_GAP
    assert gap105.witness["isolated"] == 8


def test_thm37_gaps_mirror_thm36():
    rings = zmods(2, 80)
    outcomes36 = {v.ring_label: v.outcome for v in sweep_one("thm-3.6", rings)}
    outcomes37 = {v.ring_label: v.outcome for v in sweep_one("thm-3.7", rings)}
    assert outcomes36 == outcomes37


def test_girth_claims_gap_at_three_units():
    ring = parse_ring_spec("gf:2^2")
    for claim_id in ("thm-4.2", "thm-4.3"):
        verdicts = sweep_one(claim_id, [ring])
        assert verdicts[0].outcome == HYPOTHESIS_GAP
        assert verdicts[0].witness["units"] == 3


def test_thm64_fails_on_gf4_with_path_witness():
    verdicts = sweep_one("thm-6.4", [parse_ring_spec("gf:2^2")])
    assert verdicts[0].outcome == FAIL
    assert "P3" in str(verdicts[0].witness)
    assert verdicts[0].witness["units"] == 3



def graph(n, *edges):
    return graph_from_edges(n, edges)


EMPTY = graph(0)
TWO_K1 = graph(2)
THREE_K1 = graph(3)
P3 = graph(3, (0, 1), (1, 2))
P4 = graph(4, (0, 1), (1, 2), (2, 3))
K3 = graph(3, (0, 1), (1, 2), (0, 2))
K4 = graph(4, *((u, v) for u in range(4) for v in range(u + 1, 4)))
K5 = graph(5, *((u, v) for u in range(5) for v in range(u + 1, 5)))
K1_K2 = graph(3, (1, 2))
TWO_K1_K2 = graph(4, (2, 3))
THREE_K1_K2 = graph(5, (3, 4))

# (claim id, ring spec, UPG stand-in, complement stand-in, forced UPG report
# fields, outcome, witness items in order).  A stand-in replaces the ring's
# own report; the complement's report otherwise comes from the UPG in use.
# Wherever a check reads the K1/K2 counts, the UPG is a disjoint union of
# K1s and K2s, so any way of counting them agrees.
WITNESS_CASES = [
    ("thm-3.1", "zmod:5", K1_K2, None, {}, FAIL,
     [("expected", "trivial graph K1"), ("computed", "3 vertices 1 edges")]),
    ("thm-3.2", "zmod:5", P3, None, {}, FAIL,
     [("expected", "disconnected"), ("computed", "connected"), ("components", 1)]),
    ("thm-3.3", "zmod:5", None, TWO_K1, {}, FAIL,
     [("expected", "connected"), ("computed", "disconnected")]),
    ("thm-3.4", "zmod:8", None, None, {}, FAIL,
     [("expected", 2), ("computed", 4), ("quantity", "isolated vertices")]),
    ("thm-3.5", "zmod:5", TWO_K1_K2, None, {}, FAIL,
     [("expected", 4), ("computed", 2), ("quantity", "isolated vertices")]),
    ("thm-3.6", "zmod:5", P3, None, {}, FAIL,
     [("expected", "disjoint union of K1 and K2"), ("computed", "vertex of degree above 1")]),
    ("thm-3.6", "zmod:5", THREE_K1_K2, None, {}, HYPOTHESIS_GAP,
     [("isolated", 3), ("pairs", 1),
      ("detail", "no stated branch covers this square-root-of-unity count")]),
    ("thm-3.7", "zmod:5", TWO_K1_K2, P4, {}, FAIL,
     [("expected", "complete multipartite with parts (1, 1, 2)"),
      ("computed", "not complete multipartite")]),
    ("thm-3.7", "zmod:5", TWO_K1_K2, K4, {}, FAIL,
     [("expected", "complete multipartite with parts (1, 1, 2)"),
      ("computed", "parts (1, 1, 1, 1)")]),
    ("thm-3.7", "zmod:5", THREE_K1_K2, None, {}, HYPOTHESIS_GAP,
     [("isolated", 3), ("pairs", 1),
      ("detail", "no stated multipartite shape covers this part profile")]),
    ("prop-3.1", "zmod:18", None, None, {}, FAIL,
     [("expected", "every unit self-inverse"), ("computed", "5 inverse is 11")]),
    ("prop-3.2-2", "zmod:5", None, None, {}, FAIL,
     [("expected", "edgeless"), ("computed", "edge 2-3")]),
    ("prop-3.3-2", "zmod:5", None, None, {}, FAIL,
     [("expected", "complete graph"), ("computed", "5 edges on 4 vertices")]),
    ("thm-4.1", "zmod:5", K3, None, {}, FAIL,
     [("expected", "inf"), ("computed", "3"), ("quantity", "girth")]),
    ("thm-4.2", "zmod:5", None, None, {}, FAIL,
     [("expected", "inf"), ("computed", "3"), ("quantity", "complement girth")]),
    ("thm-4.2", "gf:2^2", None, None, {}, HYPOTHESIS_GAP,
     [("units", 3), ("complement_girth", "inf"),
      ("detail", "no girth statement covers rings with exactly three units")]),
    ("thm-4.3", "zmod:3", None, None, {}, FAIL,
     [("expected", 3), ("computed", "inf"), ("quantity", "complement girth")]),
    ("thm-4.3", "gf:2^2", None, None, {}, HYPOTHESIS_GAP,
     [("units", 3), ("complement_girth", "inf"),
      ("detail", "no girth statement covers rings with exactly three units")]),
    ("thm-4.4", "zmod:5", P3, None, {}, FAIL,
     [("expected", "diameter inf and radius inf"), ("computed", "diameter 2 radius 1")]),
    ("thm-4.5", "zmod:3", None, None, {}, FAIL,
     [("expected", "diameter 2 and radius 1"), ("computed", "diameter 1 radius 1")]),
    ("prop-4.1-2", "zmod:8", None, P3, {}, FAIL,
     [("expected", "diameter 1 and radius 1"), ("computed", "diameter 2 radius 1"),
      ("direction", "forward")]),
    ("prop-4.1-2", "prod:(zmod:2,zmod:4)", None, None, {}, FAIL,
     [("expected", "ring isomorphic to Z/n with n over 2 dividing 24"),
      ("computed", "Z/2 × Z/4"), ("direction", "converse")]),
    ("thm-5.1", "zmod:5", K1_K2, None, {"domination_number": 3}, FAIL,
     [("expected", 2), ("computed", 3), ("quantity", "domination number")]),
    ("prop-5.2", "zmod:7", None, None, {}, FAIL,
     [("expected", "unit count in {2 4 8}"), ("computed", 6), ("quantity", "unit count")]),
    ("prop-5.2", "zmod:5", None, None, {}, FAIL,
     [("expected", "complement chromatic 4 and clique 4"),
      ("computed", "chromatic 3 clique 3")]),
    ("thm-5.3", "zmod:5", None, TWO_K1, {}, FAIL,
     [("expected", 1), ("computed", 2), ("quantity", "complement domination number")]),
    ("thm-5.4", "zmod:5", THREE_K1, None, {}, FAIL,
     [("expected", "clique number 1 with 4 one-cliques"),
      ("computed", "clique number 1 with 3 components")]),
    ("thm-5.5", "zmod:5", EMPTY, None, {}, FAIL,
     [("expected", 1), ("computed", 0), ("quantity", "chromatic number")]),
    ("thm-5.7", "zmod:9", None, None, {}, FAIL,
     [("expected", "complement chromatic 4 and clique 5"),
      ("computed", "chromatic 4 clique 4")]),
    ("thm-6.1", "zmod:5", K5, None, {}, FAIL,
     [("expected", "planar"), ("computed", "nonplanar")]),
    ("thm-6.2", "zmod:5", None, K5, {}, FAIL,
     [("expected", "planar"), ("computed", "nonplanar"), ("direction", "forward"),
      ("units", 4)]),
    ("thm-6.2", "zmod:7", None, TWO_K1, {}, FAIL,
     [("expected", "at most 4 units"), ("computed", 6), ("direction", "converse")]),
    ("thm-6.3", "zmod:5", K3, None, {}, FAIL,
     [("expected", "not hamiltonian"), ("computed", "hamiltonian")]),
    ("thm-6.4", "gf:2^2", None, None, {}, FAIL,
     [("expected", "hamiltonian"), ("computed", "not hamiltonian"), ("direction", "forward"),
      ("units", 3), ("structure", "complement is the path P3 which has no hamiltonian cycle")]),
    ("thm-6.4", "zmod:5", None, P4, {}, FAIL,
     [("expected", "hamiltonian"), ("computed", "not hamiltonian"), ("direction", "forward"),
      ("units", 4)]),
    ("thm-6.4", "zmod:3", None, K3, {}, FAIL,
     [("expected", "more than 2 units"), ("computed", 2), ("direction", "converse")]),
]


def test_witness_cases_cover_every_claim():
    assert {case[0] for case in WITNESS_CASES} == EXPECTED_IDS


@pytest.mark.parametrize(
    "claim_id,spec,upg,comp,fields,outcome,witness",
    WITNESS_CASES,
    ids=[f"{case[0]}-{i}" for i, case in enumerate(WITNESS_CASES)],
)
def test_fail_and_gap_witnesses_pinned(claim_id, spec, upg, comp, fields, outcome, witness):
    ctx = RingContext(parse_ring_spec(spec))
    if upg is not None:
        ctx.upg_report = InvariantReport(upg)
    if comp is not None:
        ctx.comp_report = InvariantReport(comp)
    for name, value in fields.items():
        # a report field forced to a wrong value, as from a faulty solver
        setattr(ctx.upg_report, name, value)
    got_outcome, got_witness = lookup(claim_id).check(ctx)
    assert (got_outcome, list(got_witness.items())) == (outcome, witness)


def test_thm37_decided_as_by_part_sizes():
    # the co-component rule agrees with comparing the recognized part sizes
    # against (1,) * s + (2,) * p, on every split of up to 7 vertices into
    # s singles and p pairs, against complete multipartite complements of
    # every part profile and random graphs
    rng = Random(37)
    seen = Counter()
    for n in range(8):
        comps = [random_graph(n, rng.random(), rng) for _ in range(30)]
        for _ in range(30):
            sizes = [rng.randint(1, 3) for _ in range(n)]
            while sum(sizes) > n:
                sizes.pop()
            comps.append(random_join(sizes + [1] * (n - sum(sizes)), 0.0, rng))
        for pairs in range(n // 2 + 1):
            ctx = RingContext(zmod(5))
            ctx.upg_report = InvariantReport(graph(n, *((2 * i, 2 * i + 1) for i in range(pairs))))
            for comp in comps:
                ctx.comp_report = InvariantReport(comp)
                profile = recognize_complete_multipartite(comp)
                expected = (1,) * (n - 2 * pairs) + (2,) * pairs
                held = profile.valid and profile.part_sizes == expected
                outcome, _ = lookup("thm-3.7").check(ctx)
                assert (outcome == FAIL) != held, (n, pairs, comp)
                seen[held] += 1
    assert min(seen.values()) >= 100, seen


ZERO_FAIL_IDS = (
    "thm-3.1", "thm-3.2", "thm-3.3", "thm-3.4", "thm-3.5",
    "thm-4.1", "thm-4.4", "thm-4.5",
    "thm-5.1", "thm-5.3", "thm-5.5",
    "thm-6.1", "thm-6.3",
)


def test_default_sweep_zero_fail_claims():
    rings = default_rings()
    verdicts = run_sweep([lookup(cid) for cid in ZERO_FAIL_IDS], rings)
    fails = [(v.claim_id, v.ring_label) for v in verdicts if v.outcome == FAIL]
    assert fails == []


def test_default_sweep_every_claim_applies_somewhere():
    rings = default_rings()
    verdicts = run_sweep(builtin_claims(), rings)
    applied = {v.claim_id for v in verdicts if v.outcome in (PASS, FAIL, HYPOTHESIS_GAP)}
    assert applied == EXPECTED_IDS


def test_default_sweep_known_fail_profile():
    rings = default_rings()
    verdicts = run_sweep(builtin_claims(), rings)
    fails = sorted(
        (v.claim_id, v.ring_label) for v in verdicts if v.outcome == FAIL
    )
    assert fails == [
        ("prop-3.1", "Z/18"),
        ("prop-3.1", "Z/30"),
        ("prop-4.1-2", "Z/2 × Z/2 × Z/3"),
        ("prop-4.1-2", "Z/2 × Z/4"),
        ("prop-4.1-2", "Z/3 × Z/3"),
        ("prop-4.1-2", "Z/4 × Z/4"),
        ("thm-6.4", "GF(4)"),
        ("thm-6.4", "GF(4) × Z/2"),
    ]
    assert all(v.witness is not None for v in verdicts if v.outcome == FAIL)


def test_default_rings_families_and_dedupe():
    labels = [r.label for r in default_rings()]
    assert len(labels) == len(set(labels))
    # Z/2 .. Z/60, the fields of order up to 16, bool:2 .. bool:6 (bool:1
    # is Z/2, dropped as a duplicate) and the six products, in that order
    assert labels == [
        *(f"Z/{n}" for n in range(2, 61)),
        *(f"GF({q})" for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)),
        *(" × ".join(["Z/2"] * k) for k in range(2, 7)),
        "Z/2 × Z/3",
        "Z/2 × Z/4",
        "Z/3 × Z/3",
        "Z/2 × Z/2 × Z/3",
        "Z/4 × Z/4",
        "GF(4) × Z/2",
    ]
    # an include that duplicates a default collapses
    with_dup = default_rings(include=["gf:2^2", "zmod:7"])
    assert len(with_dup) == len(default_rings())
    fresh = default_rings(include=["zmod:101"])
    assert "Z/101" in [r.label for r in fresh]


def test_run_sweep_sorted():
    verdicts = run_sweep(
        [lookup("thm-4.1"), lookup("thm-3.2")], [zmod(5), zmod(3), zmod(8)]
    )
    keys = [(v.claim_id, v.ring_label) for v in verdicts]
    assert keys == sorted(keys)


def test_run_sweep_order_is_claim_id_then_ring_label():
    # labels sort as strings ("Z/10" before "Z/9"); a repeated claim or
    # label keeps the ring-major order of evaluation, as a stable sort of
    # every verdict by (claim_id, ring_label) would
    claims = [lookup("thm-4.1"), lookup("prop-3.1"), lookup("thm-3.2"), lookup("prop-3.1")]
    rings = [zmod(9), zmod(10), parse_ring_spec("gf:2^2"), zmod(18), zmod(10), zmod(2)]
    verdicts = run_sweep(claims, rings)
    evaluated = [run_sweep([c], [r])[0] for r in rings for c in claims]
    assert verdicts == sorted(evaluated, key=lambda v: (v.claim_id, v.ring_label))
    assert [(v.claim_id, v.ring_label) for v in verdicts[:7]] == [
        ("prop-3.1", "GF(4)"),
        ("prop-3.1", "GF(4)"),
        ("prop-3.1", "Z/10"),
        ("prop-3.1", "Z/10"),
        ("prop-3.1", "Z/10"),
        ("prop-3.1", "Z/10"),
        ("prop-3.1", "Z/18"),
    ]
    assert [v.outcome for v in verdicts[6:8]] == [FAIL, FAIL]
    assert run_sweep(claims, []) == []
    assert run_sweep([], rings) == []


@pytest.mark.parametrize("outcome", [FAIL, HYPOTHESIS_GAP, SKIPPED])
def test_verdict_without_witness_refused(outcome):
    with pytest.raises(ValueError, match=f"^{outcome} verdict of thm-4.1 on Z/5 has no witness$"):
        ClaimVerdict("thm-4.1", "Z/5", outcome, None)
    verdict = ClaimVerdict("thm-4.1", "Z/5", outcome, {"reason": "r"})
    with pytest.raises(ValueError):
        verdict._replace(witness=None)


@pytest.mark.parametrize("outcome", [PASS, NOT_APPLICABLE])
def test_verdict_fields_read_by_name(outcome):
    verdict = ClaimVerdict("thm-4.1", "Z/5", outcome, None)
    assert verdict.claim_id == "thm-4.1"
    assert verdict.ring_label == "Z/5"
    assert verdict.outcome == outcome
    assert verdict.witness is None
    assert verdict == ClaimVerdict(claim_id="thm-4.1", ring_label="Z/5", outcome=outcome, witness=None)
    assert verdict._replace(ring_label="Z/7").ring_label == "Z/7"
    claim = lookup("thm-4.1")
    assert (claim.claim_id, claim.statement) == claim[:2]


def test_no_unity_ring_skipped():
    ring = parse_ring_spec(f"table:@{DATA / 'nounity.json'}")
    verdicts = run_sweep(builtin_claims(), [ring])
    assert len(verdicts) == 26
    assert all(v.outcome == SKIPPED for v in verdicts)
    assert all("unity" in str(v.witness["reason"]) for v in verdicts)


def test_vertex_bound_skipped():
    def refuse(ctx):
        raise VertexBoundError("hamiltonicity", 99)

    claim = Claim("custom-refuse", "always refuses", lambda ctx: True, refuse)
    verdicts = run_sweep([claim], [zmod(5)])
    assert verdicts[0].outcome == SKIPPED
    reason = verdicts[0].witness["reason"]
    assert "hamiltonicity" in reason and "closed-form" in reason
    assert "bound" not in reason


SOLVERS = (
    "girth",
    "eccentricity_profile",
    "domination_number",
    "clique_number",
    "chromatic_number",
    "is_planar",
    "is_hamiltonian",
)


def test_structural_claims_reach_no_solver(monkeypatch):
    # Any solver call would turn into a skipped verdict.
    for name in SOLVERS:
        def refuse(g, *args, name=name):
            raise VertexBoundError(name, g.n)

        monkeypatch.setattr(upg.invariants, name, refuse)
    claims = [lookup(c) for c in ("thm-3.1", "thm-3.6", "prop-3.1", "prop-3.2-2")]
    verdicts = run_sweep(claims, default_rings())
    assert len(verdicts) == 4 * len(default_rings())
    outcomes = Counter(v.outcome for v in verdicts)
    assert outcomes[SKIPPED] == 0 and outcomes[PASS] > 0, outcomes


def test_sweep_builds_two_splits_and_solves_once_per_graph(monkeypatch):
    # Two splits are made per ring, both in closed form: the unity product
    # graph's, and the complement's through its report's complement().  No
    # Decomposition is built.  Each solver runs at most once per graph, and
    # no multipartite profile is recognized: planarity and hamiltonicity
    # are closed forms, and thm-3.7 passes on the co-components alone.
    calls = Counter()
    solved = {}  # keeps every solved graph alive, so their ids stay distinct
    made = []

    def refuse(self, g):
        raise AssertionError("Decomposition built")

    class CountedRingSplit(upg.invariants.RingSplit):
        def __init__(self, g):
            made.append(g)
            super().__init__(g)

    monkeypatch.setattr(upg.rows.Decomposition, "__init__", refuse)
    monkeypatch.setattr(upg.invariants, "RingSplit", CountedRingSplit)
    for name in SOLVERS:
        def counted(g, *args, solver=getattr(upg.invariants, name), name=name):
            solved[id(g)] = g
            calls[name, id(g)] += 1
            return solver(g, *args)

        monkeypatch.setattr(upg.invariants, name, counted)
    recognize = upg.invariants.recognize_complete_multipartite

    def recognized(g, *args):
        calls["recognize", id(g)] += 1
        return recognize(g, *args)

    monkeypatch.setattr(upg.invariants, "recognize_complete_multipartite", recognized)
    for ring in default_rings():
        made.clear()
        calls.clear()
        solved.clear()
        verdicts = run_sweep(builtin_claims(), [ring])
        assert SKIPPED not in {v.outcome for v in verdicts}, ring.label
        assert len(made) == 2, ring.label
        assert made[1].adj == complement(made[0]).adj, ring.label
        assert {g.adj for g in solved.values()} <= {made[0].adj, made[1].adj}, ring.label
        assert len(solved) <= 2, ring.label
        assert max(calls.values()) == 1, (ring.label, calls)
        assert {name for name, _ in calls} == set(SOLVERS), ring.label


@pytest.mark.parametrize("q", [12, 18, 6, 0, 1])
def test_prime_power_rejection_names_input(q):
    with pytest.raises(ValueError, match=rf"^{q} is not a prime power$"):
        prime_power(q)


def test_render_text():
    verdicts = run_sweep([lookup("thm-6.4")], [parse_ring_spec("gf:2^2"), zmod(5)])
    text = "".join(render_text(verdicts))
    assert text.endswith("\n")
    assert "thm-6.4" in text
    assert "fail GF(4)" in text
    assert "summary:" in text
    assert "".join(render_text(verdicts)) == text


def test_render_json():
    verdicts = run_sweep([lookup("thm-3.6")], [zmod(8), zmod(40)])
    doc = json.loads("".join(render_json(verdicts)))
    assert doc["summary"]["pass"] == 1
    assert doc["summary"]["hypothesis_gap"] == 1
    claim_doc = doc["claims"][0]
    assert claim_doc["claim_id"] == "thm-3.6"
    assert {v["ring"] for v in claim_doc["verdicts"]} == {"Z/8", "Z/40"}
    gap = next(v for v in claim_doc["verdicts"] if v["outcome"] == HYPOTHESIS_GAP)
    assert gap["witness"]["isolated"] == 8


def test_render_csv_schema():
    verdicts = run_sweep([lookup("thm-6.4")], [parse_ring_spec("gf:2^2"), zmod(5)])
    csv = "".join(render_csv(verdicts))
    lines = csv.splitlines()
    assert lines[0] == "claim_id,ring,outcome,witness"
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.count(",") == 3  # fields stay comma free
    assert csv.endswith("\n")


def test_renders_accept_empty():
    assert "".join(render_csv([])) == "claim_id,ring,outcome,witness\n"
    doc = json.loads("".join(render_json([])))
    assert doc["claims"] == [] and doc["summary"]["pass"] == 0
    text = "".join(render_text([]))
    assert "summary:" in text


def test_gap_and_fail_witnesses_always_present():
    rings = default_rings()
    verdicts = run_sweep(builtin_claims(), rings)
    for v in verdicts:
        if v.outcome in (FAIL, HYPOTHESIS_GAP, SKIPPED):
            assert v.witness, (v.claim_id, v.ring_label)


def test_statement_vocabulary_is_self_contained():
    for claim in builtin_claims():
        low = claim.statement.lower()
        assert "spec" not in low and "paper" not in low and "section" not in low
