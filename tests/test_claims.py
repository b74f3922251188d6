import json
import math
from collections import Counter
from pathlib import Path

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
    prime_power,
    render_csv,
    render_json,
    render_text,
    run_sweep,
)
import upg.invariants
from upg.graphs import complement
from upg.invariants import VertexBoundError
from upg.rings import parse_ring_spec, zmod

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
    assert "Z/2" in labels and "Z/60" in labels
    assert "GF(16)" in labels and "GF(4)" in labels
    assert "Z/2 × Z/2 × Z/2 × Z/2 × Z/2 × Z/2" in labels
    assert "Z/4 × Z/4" in labels
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
    # One split is built, the unity product graph's; the complement's is
    # derived from it by complemented().
    calls = Counter()
    solved = {}  # keeps every solved graph alive, so their ids stay distinct
    built, derived = [], []

    class CountedDecomposition(upg.invariants.Decomposition):
        def __init__(self, g):
            built.append(g)
            super().__init__(g)

        def complemented(self, adj):
            derived.append(adj)
            return super().complemented(adj)

    monkeypatch.setattr(upg.invariants, "Decomposition", CountedDecomposition)
    for name in SOLVERS:
        def counted(g, *args, solver=getattr(upg.invariants, name), name=name):
            solved[id(g)] = g
            calls[name, id(g)] += 1
            return solver(g, *args)

        monkeypatch.setattr(upg.invariants, name, counted)
    for ring in default_rings():
        built.clear()
        derived.clear()
        calls.clear()
        solved.clear()
        verdicts = run_sweep(builtin_claims(), [ring])
        assert SKIPPED not in {v.outcome for v in verdicts}, ring.label
        assert len(built) == len(derived) == 1, ring.label
        assert derived[0] == complement(built[0]).adj, ring.label
        assert {g.adj for g in solved.values()} <= {built[0].adj, derived[0]}, ring.label
        assert len(solved) <= 2, ring.label
        assert max(calls.values()) == 1, (ring.label, calls)
        assert {name for name, _ in calls} == set(SOLVERS), ring.label


@pytest.mark.parametrize("q", [12, 18, 6, 0, 1])
def test_prime_power_rejection_names_input(q):
    with pytest.raises(ValueError, match=rf"^{q} is not a prime power$"):
        prime_power(q)


def test_render_text():
    verdicts = run_sweep([lookup("thm-6.4")], [parse_ring_spec("gf:2^2"), zmod(5)])
    text = render_text(verdicts)
    assert text.endswith("\n")
    assert "thm-6.4" in text
    assert "fail GF(4)" in text
    assert "summary:" in text
    assert render_text(verdicts) == text


def test_render_json():
    verdicts = run_sweep([lookup("thm-3.6")], [zmod(8), zmod(40)])
    doc = json.loads(render_json(verdicts))
    assert doc["summary"]["pass"] == 1
    assert doc["summary"]["hypothesis_gap"] == 1
    claim_doc = doc["claims"][0]
    assert claim_doc["claim_id"] == "thm-3.6"
    assert {v["ring"] for v in claim_doc["verdicts"]} == {"Z/8", "Z/40"}
    gap = next(v for v in claim_doc["verdicts"] if v["outcome"] == HYPOTHESIS_GAP)
    assert gap["witness"]["isolated"] == 8


def test_render_csv_schema():
    verdicts = run_sweep([lookup("thm-6.4")], [parse_ring_spec("gf:2^2"), zmod(5)])
    csv = render_csv(verdicts)
    lines = csv.splitlines()
    assert lines[0] == "claim_id,ring,outcome,witness"
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.count(",") == 3  # fields stay comma free
    assert csv.endswith("\n")


def test_renders_accept_empty():
    assert render_csv([]) == "claim_id,ring,outcome,witness\n"
    doc = json.loads(render_json([]))
    assert doc["claims"] == [] and doc["summary"]["pass"] == 0
    text = render_text([])
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
