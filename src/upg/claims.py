"""Claims about unity product graphs, and sweeps of them over rings.

A Claim binds a hypothesis (``applicable``) and a conclusion (``check``)
over one ring, both read from the ring's RingContext.  Sweeps evaluate
claims across ring families and report
pass/fail/not_applicable/hypothesis_gap verdicts; fails and gaps
always carry a witness.  A ring without unity is skipped before any
hypothesis runs, so no hypothesis or check tests for unity.  The harness
computes graph truth and compares: a false conclusion is reported as
fail, never suppressed.

The paper's 26 claims live in ``paper.py``, which ``builtin_claims``
imports on its first call, so a caller that never reads the registry
never loads it.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from operator import attrgetter, itemgetter
from typing import NamedTuple

from . import invariants as inv
from .graphs import flat_json, lazy_property, ring_graph
from .rings import (
    DEFAULT_ORDER_CAP,
    FiniteRing,
    UnitGroup,
    family,
    is_boolean,
    is_cyclic,
    parse_ring_spec,
    unit_counts,
    units,
    zmod,
)

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not_applicable"
HYPOTHESIS_GAP = "hypothesis_gap"
SKIPPED = "skipped"

Witness = Mapping[str, object]


class UnknownClaimError(KeyError):
    """A claim id filter referenced an unregistered id."""

    def __init__(self, claim_id: str):
        super().__init__(claim_id)
        self.claim_id = claim_id


class RingContext:
    """Lazy per-ring state shared by all claim checks.

    The unity product graph and its complement each have one
    InvariantReport, ``upg_report`` and ``comp_report``, whose fields are
    computed on first read, so a claim touches only the invariants it
    needs and structural claims never reach a solver.  The graph is made
    from the ring's ``unit_counts``, and the unit group only when its
    vertices are read.  ``isolated`` and ``pairs`` are the unity product
    graph's K1 and K2 counts when it is a disjoint union of them, as every
    one is.  Every field is kept from its first read on, since each claim
    reads the counts again.
    """

    def __init__(self, ring: FiniteRing):
        self.ring = ring

    @lazy_property
    def unit_group(self) -> UnitGroup:
        return units(self.ring)

    @lazy_property
    def counts(self) -> tuple[int, int]:
        return unit_counts(self.ring)

    @lazy_property
    def unit_count(self) -> int:
        return self.counts[0]

    @lazy_property
    def upg_report(self) -> inv.InvariantReport:
        n, s = self.counts
        return inv.InvariantReport(ring_graph(self.ring, n, (n - s) // 2, lambda: self.unit_group))

    @lazy_property
    def comp_report(self) -> inv.InvariantReport:
        return self.upg_report.complement()

    @lazy_property
    def isolated(self) -> int:
        return self.upg_report.isolated_count

    @lazy_property
    def pairs(self) -> int:
        return self.upg_report.edge_count

    @lazy_property
    def cyclic(self) -> bool:
        return is_cyclic(self.ring)

    @lazy_property
    def boolean(self) -> bool:
        # a boolean ring has one unit; the counts rule out the rest unscanned
        return self.counts[0] == 1 and is_boolean(self.ring)


class Claim(NamedTuple):
    """One verifiable statement over a single finite ring.

    ``applicable`` decides whether the hypothesis covers the ring (it may
    also admit known boundary rings so ``check`` can report a gap);
    ``check`` is only invoked when applicable and returns an outcome with
    an optional witness.  Both are called only on rings with unity.
    """

    claim_id: str
    statement: str
    applicable: Callable[[RingContext], bool]
    check: Callable[[RingContext], "tuple[str, Witness | None]"]


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


def builtin_claims() -> tuple[Claim, ...]:
    """All registered claims, in registry order; ids are stable."""
    from .paper import CLAIMS

    return CLAIMS


def claims_by_id() -> dict[str, Claim]:
    return {c.claim_id: c for c in builtin_claims()}


def lookup(claim_id: str) -> Claim:
    try:
        return claims_by_id()[claim_id]
    except KeyError:
        raise UnknownClaimError(claim_id) from None


_DEFAULT_PRODUCT_SPECS = (
    "prod:(zmod:2,zmod:3)",
    "prod:(zmod:2,zmod:4)",
    "prod:(zmod:3,zmod:3)",
    "prod:(zmod:2,zmod:2,zmod:3)",
    "prod:(zmod:4,zmod:4)",
    "prod:(gf:2^2,zmod:2)",
)

DEFAULT_ZMOD_MAX = 60
DEFAULT_BOOL_MAX = 6


def default_rings(
    *,
    zmod_max: int = DEFAULT_ZMOD_MAX,
    order_cap: int = DEFAULT_ORDER_CAP,
    include: Sequence[str] = (),
) -> list[FiniteRing]:
    """The default sweep families plus any extra ring specs.

    Modular rings 2..zmod_max, fields of order up to 16, boolean rings up
    to 2^6, and a fixed selection of direct products.  Duplicate labels
    are dropped, first occurrence wins.
    """
    rings: list[FiniteRing] = []
    rings.extend(zmod(n, order_cap=order_cap) for n in range(2, zmod_max + 1))
    rings.extend(family("gf", 16, order_cap=order_cap))
    rings.extend(family("bool", DEFAULT_BOOL_MAX, order_cap=order_cap))
    rings.extend(parse_ring_spec(s, order_cap=order_cap) for s in _DEFAULT_PRODUCT_SPECS)
    rings.extend(parse_ring_spec(s, order_cap=order_cap) for s in include)
    seen: set[str] = set()
    unique = []
    for ring in rings:
        if ring.label not in seen:
            seen.add(ring.label)
            unique.append(ring)
    return unique


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
