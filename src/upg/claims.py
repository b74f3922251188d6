"""Claims about unity product graphs, and the rings they are checked on.

A Claim binds a hypothesis (``applicable``) and a conclusion (``check``)
over one ring, both read from the ring's RingContext.  A ring without
unity is skipped before any hypothesis runs, so no hypothesis or check
tests for unity.  The harness computes graph truth and compares: a false
conclusion is reported as fail, never suppressed.

The paper's 26 claims live in ``paper.py``, which ``builtin_claims``
imports on its first call, so a caller that never reads the registry
never loads it.  Sweeps of claims over rings and their reports live in
``sweep.py``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import NamedTuple

from . import invariants as inv
from .graphs import lazy_property, ring_graph
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


def __getattr__(name: str):
    # bench/spans.py wraps these four as upg.claims names; this forwarding is
    # deleted once ROADMAP item 1 points the tracer at upg.sweep
    if name in ("run_sweep", "render_text", "render_json", "render_csv"):
        from . import sweep

        return getattr(sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
