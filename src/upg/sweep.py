"""Sweeps of claims over rings, and their text, JSON and CSV reports.

``run_sweep`` evaluates claims across ring families and reports
pass/fail/not_applicable/hypothesis_gap verdicts; fails and gaps always
carry a witness.  A ring without unity is skipped before any hypothesis
runs, and a solver refusal on a custom claim becomes a skipped verdict.
The three renderers stream a sweep one claim at a time.

``verify`` imports this module when it runs, so no ring-graph command
loads it.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from operator import attrgetter, itemgetter
from typing import NamedTuple

from . import invariants as inv
from .claims import (
    FAIL,
    HYPOTHESIS_GAP,
    NOT_APPLICABLE,
    PASS,
    SKIPPED,
    Claim,
    RingContext,
    Witness,
    claims_by_id,
)
from .graphs import flat_json, lazy_property
from .rings import FiniteRing

_WITNESSED = frozenset((FAIL, HYPOTHESIS_GAP, SKIPPED))
_NOT_APPLICABLE = (NOT_APPLICABLE, None)
_NO_UNITY = (SKIPPED, {"reason": "ring has no unity element"})


class _Verdict(NamedTuple):
    claim_id: str
    ring_label: str
    outcome: str
    witness: Witness | None


class ClaimVerdict(_Verdict):
    """The outcome of one claim on one ring; a fail, a hypothesis gap or
    a skip carries a witness, or is refused with ValueError."""

    __slots__ = ()

    def __new__(cls, claim_id: str, ring_label: str, outcome: str, witness: Witness | None):
        if witness is None and outcome in _WITNESSED:
            raise ValueError(f"{outcome} verdict of {claim_id} on {ring_label} has no witness")
        return tuple.__new__(cls, (claim_id, ring_label, outcome, witness))

    @classmethod
    def _make(cls, iterable):  # so that _replace keeps the rule too
        return cls(*iterable)


def run_sweep(claims: Sequence[Claim], rings: Sequence[FiniteRing]) -> Sweep:
    """Evaluate every claim against every ring.

    Rings without unity and solver refusals (a graph outside the classes
    decided in closed form) yield skipped verdicts with a reason;
    everything else is pass, fail, hypothesis_gap or not_applicable.
    Result is sorted by (claim id, ring label), with no sort: each claim
    id keeps a list of its checks' own (outcome, witness) pairs, and the
    rings are taken in label order, ties in the order given, so a claim
    named twice interleaves per ring.
    """
    rings = sorted(rings, key=attrgetter("label"))
    by_claim: dict[str, list] = {claim_id: [] for claim_id in sorted({c.claim_id for c in claims})}
    steps = [(c.claim_id, c.applicable, c.check, by_claim[c.claim_id].append) for c in claims]
    for ring in rings:
        if ring.unity is None:
            for *_, append in steps:
                append(_NO_UNITY)
            continue
        ctx = RingContext(ring)
        for claim_id, applicable, check, append in steps:
            try:
                pair = check(ctx) if applicable(ctx) else _NOT_APPLICABLE
            except inv.VertexBoundError as exc:
                reason = f"{exc.invariant} refused: graph outside the closed-form classes"
                pair = SKIPPED, {"reason": reason}
            if pair[1] is None and pair[0] in _WITNESSED:
                ClaimVerdict(claim_id, ring.label, *pair)  # refused: no witness
            append(pair)
    labels = [ring.label for ring in rings]
    named = Counter(c.claim_id for c in claims)
    # labels are sorted, so a claim named k times has each one k times in a row
    return Sweep(_block(i, sorted(labels * named[i]), p) for i, p in by_claim.items() if p)


_OUTCOME_ORDER = (PASS, FAIL, HYPOTHESIS_GAP, NOT_APPLICABLE, SKIPPED)


def _block(claim_id: str, labels: list[str], pairs: list) -> tuple:
    """One claim id's verdicts: (claim id, ring labels, pairs, counts)."""
    tally = Counter(map(itemgetter(0), pairs))
    return claim_id, labels, pairs, {o: tally[o] for o in _OUTCOME_ORDER}


class Sweep(Sequence):
    """run_sweep's verdicts as one block per claim id: its ring labels
    beside its (outcome, witness) pairs.  A row becomes a ClaimVerdict
    only when it is read; the renderers read the blocks."""

    def __init__(self, blocks: Iterable[tuple]):
        self.blocks = list(blocks)

    def __len__(self) -> int:
        return sum(len(pairs) for _, _, pairs, _ in self.blocks)

    def __iter__(self) -> Iterator[ClaimVerdict]:
        for claim_id, labels, pairs, _ in self.blocks:
            for label, (outcome, witness) in zip(labels, pairs):
                yield ClaimVerdict(claim_id, label, outcome, witness)

    def __getitem__(self, index):
        return self._rows[index]

    @lazy_property
    def _rows(self) -> list[ClaimVerdict]:
        return list(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


def _blocks(verdicts: Sequence[ClaimVerdict]) -> list[tuple]:
    """A sweep's blocks, or the verdicts grouped by claim id, ids sorted,
    each group in order."""
    if isinstance(verdicts, Sweep):
        return verdicts.blocks
    by_claim: dict[str, list[ClaimVerdict]] = {}
    for v in verdicts:
        by_claim.setdefault(v.claim_id, []).append(v)
    return [
        _block(claim_id, [v.ring_label for v in rows], [(v.outcome, v.witness) for v in rows])
        for claim_id, rows in sorted(by_claim.items())
    ]


def _witness_text(witness: Witness | None) -> str:
    text = "; ".join(f"{key}={value}" for key, value in (witness or {}).items())
    return text.replace(",", ";")


def summarize(verdicts: Sequence[ClaimVerdict]) -> dict[str, int]:
    blocks = _blocks(verdicts)
    return {o: sum(counts[o] for *_, counts in blocks) for o in _OUTCOME_ORDER}


def _count_text(counts: dict[str, int]) -> str:
    return "  ".join(f"{o} {counts[o]}" for o in _OUTCOME_ORDER)


def render_text(verdicts: Sequence[ClaimVerdict]) -> Iterator[str]:
    """Grouped plain-text report, one chunk per claim: its counts, its
    statement, then its non-pass detail; a summary line ends it."""
    registry = claims_by_id()
    for claim_id, labels, pairs, counts in _blocks(verdicts):
        claim = registry.get(claim_id)
        lines = [f"{claim_id}: {_count_text(counts)}"] + ([f"  {claim.statement}"] if claim else [])
        rows = zip(labels, pairs)
        lines += [f"  {o} {label}: {_witness_text(w)}" for label, (o, w) in rows if o in _WITNESSED]
        yield "\n".join(lines) + "\n"
    yield f"summary: verdicts {len(verdicts)}  {_count_text(summarize(verdicts))}\n"


def _witness_json(witness: dict) -> str:
    """A witness as json.dumps(witness, indent=2) writes it five levels deep."""
    if any(isinstance(v, (dict, list, tuple)) for v in witness.values()):
        return json.dumps(witness, indent=2).replace("\n", "\n" + "  " * 5)
    return flat_json(witness, 5)


def render_json(verdicts: Sequence[ClaimVerdict]) -> Iterator[str]:
    """The summary, then each claim's statement, counts and verdicts, laid
    out as json.dumps(doc, indent=2) lays them out: the summary head, then
    one chunk per claim, and the closing brackets."""
    registry = claims_by_id()
    scalar = functools.cache(json.dumps)  # labels and outcomes repeat
    row = '        {\n          "ring": %s,\n          "outcome": %s,\n'
    row += '          "witness": %s\n        }'
    yield f'{{\n  "summary": {flat_json(summarize(verdicts), 1)},\n  "claims": '
    sep = "[\n"
    for claim_id, labels, pairs, counts in _blocks(verdicts):
        claim = registry.get(claim_id)
        rows = ",\n".join(
            row % (scalar(label), scalar(o), _witness_json(dict(w)) if w else "null")
            for label, (o, w) in zip(labels, pairs)
        )
        yield (
            f'{sep}    {{\n      "claim_id": {scalar(claim_id)},\n      "statement": '
            f'{scalar(claim.statement if claim else "")},\n      "counts": {flat_json(counts, 3)},\n'
            f'      "verdicts": [\n{rows}\n      ]\n    }}'
        )
        sep = ",\n"
    yield "[]\n}\n" if sep == "[\n" else "\n  ]\n}\n"


def render_csv(verdicts: Sequence[ClaimVerdict]) -> Iterator[str]:
    """Flat CSV, claim_id,ring,outcome,witness with comma-free fields: the
    header, then one chunk per claim."""
    yield "claim_id,ring,outcome,witness\n"
    for claim_id, labels, pairs, _ in _blocks(verdicts):
        yield "".join(
            f"{claim_id},{label},{o},{_witness_text(w) if w else ''}\n"
            for label, (o, w) in zip(labels, pairs)
        )
