"""The paper's 26 claims about unity product graphs, in registry order.

Each claim binds a hypothesis (``applicable``) and a conclusion
(``check``) over one ring, side by side in one registry entry; a
conclusion that is a single comparison is written there as one
``_verdict`` call, and an "exactly when" statement as one ``_iff`` call,
whose fail names the direction (forward or converse) that broke.  Only
prop-3.1's fail witness, which names a unit and its inverse, builds a
ring's unit group.

Trichotomy-style claims (the K1/K2 structure splits on the count of
square roots of unity) emit hypothesis_gap for rings outside every
stated branch, as do the girth statements at exactly three units and
the hamiltonicity equivalence at exactly three units.

``claims.builtin_claims`` imports this module on its first call, so a
caller that never reads the registry never loads it.
"""

from __future__ import annotations

from itertools import count

from . import invariants as inv
from .claims import FAIL, HYPOTHESIS_GAP, PASS, Claim, RingContext
from .graphs import is_complete
from .rings import is_prime

_P3 = "complement is the path P3 which has no hamiltonian cycle"


def _divides_24(n: int) -> bool:
    return n >= 1 and 24 % n == 0


def _cyclic_over_2_dividing_24(ctx: RingContext) -> bool:
    """The ring is isomorphic to Z/n with n above 2 dividing 24."""
    return ctx.cyclic and ctx.ring.order > 2 and _divides_24(ctx.ring.order)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def _no_composite_unit(ctx: RingContext) -> bool:
    """Z/n with no composite unit residue: the least composite prime to n
    is q^2, for q the least prime not dividing n."""
    n = ctx.ring.order
    return ctx.cyclic and next(q for q in count(2) if n % q and is_prime(q)) ** 2 >= n


def _every_ring(ctx: RingContext) -> bool:
    return True


def _fail(expected: object, computed: object, **extra: object):
    witness: dict[str, object] = {"expected": expected, "computed": computed}
    witness.update(extra)
    return FAIL, witness


def _verdict(holds: bool, expected: object, computed: object, **extra: object):
    """Pass when the conclusion holds, else fail with the given witness."""
    return (PASS, None) if holds else _fail(expected, computed, **extra)


def _iff(hypothesis, conclusion, forward, converse, **extra):
    """The check of "hypothesis exactly when conclusion", all functions of
    the context.  A fail names the direction that broke, with the
    (expected, computed) pair of ``forward`` and each ``extra`` field not
    None, or of ``converse``; no witness is made for a pass."""

    def check(ctx: RingContext):
        holds = hypothesis(ctx)
        if holds == conclusion(ctx):
            return PASS, None
        if not holds:
            return _fail(*converse(ctx), direction="converse")
        fields = {key: value for key, field in extra.items() if (value := field(ctx)) is not None}
        return _fail(*forward(ctx), direction="forward", **fields)

    return check


def _diameter_radius(report: inv.InvariantReport) -> str:
    return f"diameter {report.text('diameter')} radius {report.text('radius')}"


def _eccentricities_are(report: inv.InvariantReport, diameter, radius):
    """Pass when the report's diameter and radius are these, else fail."""
    if report.diameter == diameter and report.radius == radius:
        return PASS, None
    expected = f"diameter {inv.fmt_extended(diameter)} and radius {inv.fmt_extended(radius)}"
    return _fail(expected, _diameter_radius(report))


def _girth_is(report: inv.InvariantReport, expected: inv.ExtendedNat, quantity: str):
    """Pass when the report's girth is ``expected``, else fail."""
    if report.girth == expected:
        return PASS, None
    shown = "inf" if expected == inv.INFINITY else expected
    return _fail(shown, report.text("girth"), quantity=quantity)


def _k1_k2_branches(ctx: RingContext, detail: str):
    """Pass for mK1, or for two or four K1s beside the K2s; else a gap."""
    if ctx.pairs == 0 or ctx.isolated in (2, 4):
        return PASS, None
    return HYPOTHESIS_GAP, {"isolated": ctx.isolated, "pairs": ctx.pairs, "detail": detail}


def _check_trichotomy(ctx: RingContext):
    # Degrees sum to 2m, and every vertex that is not isolated has degree
    # at least 1, so every degree is at most 1 iff 2m is the count of
    # vertices that are not isolated.
    if 2 * ctx.pairs != ctx.upg_report.n - ctx.isolated:
        return _fail("disjoint union of K1 and K2", "vertex of degree above 1")
    return _k1_k2_branches(ctx, "no stated branch covers this square-root-of-unity count")


def _check_multipartite_form(ctx: RingContext):
    # K_{1^s,2^p} iff the co-components are s singles and p pairs: a
    # co-connected pair is a non-edge, so no part holds an edge; the part
    # tuples are built only for a fail witness
    split, s, p = ctx.comp_report.split, ctx.isolated, ctx.pairs
    if split.co_components != [(size, count) for size, count in ((1, s), (2, p)) if count]:
        profile = split.multipartite
        expected = (1,) * s + (2,) * p
        return _fail(
            f"complete multipartite with parts {expected}",
            f"parts {profile.part_sizes}" if profile.valid else "not complete multipartite",
        )
    return _k1_k2_branches(ctx, "no stated multipartite shape covers this part profile")


def _check_self_inverse_units(ctx: RingContext):
    if ctx.pairs == 0:
        return PASS, None
    ug = ctx.unit_group
    for x in ug.units:
        y = ug.inverse_of[x]
        if y != x:
            return _fail(
                "every unit self-inverse",
                f"{ctx.ring.element_name(x)} inverse is {ctx.ring.element_name(y)}",
            )
    return PASS, None


def _check_upg_edgeless(ctx: RingContext):
    upg = ctx.upg_report.graph
    if upg.edge_count == 0:
        return PASS, None
    u, v = upg.edges()[0]
    return _fail("edgeless", f"edge {upg.labels[u]}-{upg.labels[v]}")


def _check_comp_girth(ctx: RingContext, expected: inv.ExtendedNat):
    """The complement's girth against ``expected``; no girth statement
    covers exactly three units."""
    comp = ctx.comp_report
    if ctx.unit_count == 3:
        return HYPOTHESIS_GAP, {
            "units": 3,
            "complement_girth": comp.text("girth"),
            "detail": "no girth statement covers rings with exactly three units",
        }
    return _girth_is(comp, expected, "complement girth")


def _check_upg_clique(ctx: RingContext):
    upg = ctx.upg_report
    if ctx.pairs >= 1:
        return _verdict(upg.clique_number == 2, 2, upg.clique_number, quantity="clique number")
    # edgeless case: every vertex is its own 1-clique; the stated count m
    # tallies those cliques, while the standard clique number is 1
    return _verdict(
        upg.clique_number == 1 and upg.component_count == ctx.unit_count,
        f"clique number 1 with {ctx.unit_count} one-cliques",
        f"clique number {upg.clique_number} with {upg.component_count} components",
    )


def _check_prop_52(ctx: RingContext):
    m = ctx.unit_count
    if m not in (2, 4, 8):
        return _fail("unit count in {2 4 8}", m, quantity="unit count")
    comp = ctx.comp_report
    return _verdict(
        comp.chromatic_number == m and comp.clique_number == m,
        f"complement chromatic {m} and clique {m}",
        f"chromatic {comp.chromatic_number} clique {comp.clique_number}",
    )



CLAIMS: tuple[Claim, ...] = (
    Claim(
        "thm-3.1",
        "The unity product graph of a boolean ring (every element idempotent) "
        "is the trivial graph on one vertex.",
        lambda ctx: ctx.boolean,
        lambda ctx: _verdict(
            ctx.upg_report.n == 1 and ctx.upg_report.edge_count == 0,
            "trivial graph K1",
            f"{ctx.upg_report.n} vertices {ctx.upg_report.edge_count} edges",
        ),
    ),
    Claim(
        "thm-3.2",
        "A unity product graph with at least two vertices is disconnected.",
        lambda ctx: ctx.unit_count >= 2,
        lambda ctx: _verdict(
            ctx.upg_report.component_count >= 2,
            "disconnected",
            "connected",
            components=ctx.upg_report.component_count,
        ),
    ),
    Claim(
        "thm-3.3",
        "A complement unity product graph with at least two vertices is connected.",
        lambda ctx: ctx.unit_count >= 2,
        lambda ctx: _verdict(ctx.comp_report.connected, "connected", "disconnected"),
    ),
    Claim(
        "thm-3.4",
        "Over a ring of odd prime order, the unity product graph has exactly "
        "two isolated vertices.",
        lambda ctx: ctx.ring.order % 2 == 1 and is_prime(ctx.ring.order),
        lambda ctx: _verdict(ctx.isolated == 2, 2, ctx.isolated, quantity="isolated vertices"),
    ),
    Claim(
        "thm-3.5",
        "Over the integers modulo 2^m with m at least 3, the unity product "
        "graph has exactly four isolated vertices.",
        lambda ctx: ctx.cyclic
        and ctx.ring.order >= 8
        and _is_power_of_two(ctx.ring.order),
        lambda ctx: _verdict(ctx.isolated == 4, 4, ctx.isolated, quantity="isolated vertices"),
    ),
    Claim(
        "thm-3.6",
        "The unity product graph is 2K1 + (m-2)K2, or 4K1 + (m-4)K2, or mK1, "
        "where m counts the mutual-inverse sets.",
        _every_ring,
        _check_trichotomy,
    ),
    Claim(
        "thm-3.7",
        "The complement unity product graph is complete multipartite with "
        "parts of size 2 and either two or four parts of size 1, or is the "
        "complete graph when every unit is self-inverse.",
        _every_ring,
        _check_multipartite_form,
    ),
    Claim(
        "prop-3.1",
        "If a ring isomorphic to Z/n has no composite canonical residue "
        "among its units, every unit is its own inverse.",
        _no_composite_unit,
        _check_self_inverse_units,
    ),
    Claim(
        "prop-3.2-2",
        "Over Z/n with n above 1 dividing 24, the unity product graph is "
        "edgeless.",
        lambda ctx: ctx.cyclic and ctx.ring.order > 1 and _divides_24(ctx.ring.order),
        _check_upg_edgeless,
    ),
    Claim(
        "prop-3.3-2",
        "Over Z/n with n above 2 dividing 24, the complement unity product "
        "graph is complete.",
        _cyclic_over_2_dividing_24,
        lambda ctx: _verdict(
            is_complete(ctx.comp_report.graph),
            "complete graph",
            f"{ctx.comp_report.edge_count} edges on {ctx.comp_report.n} vertices",
        ),
    ),
    Claim(
        "thm-4.1",
        "The unity product graph is acyclic: its girth is infinite.",
        _every_ring,
        lambda ctx: _girth_is(ctx.upg_report, inv.INFINITY, "girth"),
    ),
    Claim(
        "thm-4.2",
        "With at most two units the complement unity product graph has "
        "infinite girth (boundary: exactly three units is not covered).",
        lambda ctx: ctx.unit_count <= 3,
        lambda ctx: _check_comp_girth(ctx, inv.INFINITY),
    ),
    Claim(
        "thm-4.3",
        "With more than three units the complement unity product graph has "
        "girth 3 (boundary: exactly three units is not covered).",
        lambda ctx: ctx.unit_count >= 3,
        lambda ctx: _check_comp_girth(ctx, 3),
    ),
    Claim(
        "thm-4.4",
        "With at least two units, the unity product graph has infinite "
        "diameter and infinite radius.",
        lambda ctx: ctx.unit_count >= 2,
        lambda ctx: _eccentricities_are(ctx.upg_report, inv.INFINITY, inv.INFINITY),
    ),
    Claim(
        "thm-4.5",
        "When the complement unity product graph is not complete, its "
        "diameter is 2 and its radius is 1.",
        lambda ctx: not is_complete(ctx.comp_report.graph),
        lambda ctx: _eccentricities_are(ctx.comp_report, 2, 1),
    ),
    Claim(
        "prop-4.1-2",
        "The complement unity product graph has diameter 1 and radius 1 "
        "exactly when the ring is isomorphic to Z/n with n above 2 dividing "
        "24 (restricted to finite rings).",
        _every_ring,
        _iff(
            _cyclic_over_2_dividing_24,
            lambda ctx: ctx.comp_report.diameter == 1 and ctx.comp_report.radius == 1,
            lambda ctx: ("diameter 1 and radius 1", _diameter_radius(ctx.comp_report)),
            lambda ctx: ("ring isomorphic to Z/n with n over 2 dividing 24", ctx.ring.label),
        ),
    ),
    Claim(
        "thm-5.1",
        "The domination number of the unity product graph equals the number "
        "of mutual-inverse sets (self-inverse units plus inverse pairs).",
        _every_ring,
        lambda ctx: _verdict(
            ctx.upg_report.domination_number == ctx.isolated + ctx.pairs,
            ctx.isolated + ctx.pairs,
            ctx.upg_report.domination_number,
            quantity="domination number",
        ),
    ),
    Claim(
        "prop-5.2",
        "Over Z/n with n above 2 dividing 24, the complement unity product "
        "graph has chromatic and clique number equal to the unit count, one "
        "of 2, 4 or 8.",
        _cyclic_over_2_dividing_24,
        _check_prop_52,
    ),
    Claim(
        "thm-5.3",
        "The complement unity product graph has domination number 1.",
        _every_ring,
        lambda ctx: _verdict(
            ctx.comp_report.domination_number == 1,
            1,
            ctx.comp_report.domination_number,
            quantity="complement domination number",
        ),
    ),
    Claim(
        "thm-5.4",
        "The clique number of the unity product graph is 2 when an inverse "
        "pair exists; in the edgeless case every vertex is a 1-clique (the "
        "stated value m counts those cliques; the standard clique number is 1).",
        _every_ring,
        _check_upg_clique,
    ),
    Claim(
        "thm-5.5",
        "The chromatic number of the unity product graph is 1 when edgeless "
        "and 2 otherwise.",
        _every_ring,
        lambda ctx: _verdict(
            ctx.upg_report.chromatic_number == (1 if ctx.pairs == 0 else 2),
            1 if ctx.pairs == 0 else 2,
            ctx.upg_report.chromatic_number,
            quantity="chromatic number",
        ),
    ),
    Claim(
        "thm-5.7",
        "Over a field of prime order at least 5, the complement unity "
        "product graph has chromatic number equal to its vertex count minus "
        "the number of size-2 parts, and clique number (p+1)/2.",
        lambda ctx: ctx.ring.order >= 5 and is_prime(ctx.ring.order),
        lambda ctx: _verdict(
            ctx.comp_report.chromatic_number == ctx.unit_count - ctx.pairs
            and ctx.comp_report.clique_number == (ctx.ring.order + 1) // 2,
            f"complement chromatic {ctx.unit_count - ctx.pairs} "
            f"and clique {(ctx.ring.order + 1) // 2}",
            f"chromatic {ctx.comp_report.chromatic_number} "
            f"clique {ctx.comp_report.clique_number}",
        ),
    ),
    Claim(
        "thm-6.1",
        "The unity product graph is planar.",
        _every_ring,
        lambda ctx: _verdict(ctx.upg_report.planar, "planar", "nonplanar"),
    ),
    Claim(
        "thm-6.2",
        "The complement unity product graph is planar exactly when the ring "
        "has at most four units.",
        _every_ring,
        _iff(
            lambda ctx: ctx.unit_count <= 4,
            lambda ctx: ctx.comp_report.planar,
            lambda ctx: ("planar", "nonplanar"),
            lambda ctx: ("at most 4 units", ctx.unit_count),
            units=lambda ctx: ctx.unit_count,
        ),
    ),
    Claim(
        "thm-6.3",
        "The unity product graph is never hamiltonian.",
        _every_ring,
        lambda ctx: _verdict(not ctx.upg_report.hamiltonian, "not hamiltonian", "hamiltonian"),
    ),
    Claim(
        "thm-6.4",
        "The complement unity product graph is hamiltonian exactly when the "
        "ring has more than two units.",
        _every_ring,
        _iff(
            lambda ctx: ctx.unit_count > 2,
            lambda ctx: ctx.comp_report.hamiltonian,
            lambda ctx: ("hamiltonian", "not hamiltonian"),
            lambda ctx: ("more than 2 units", ctx.unit_count),
            units=lambda ctx: ctx.unit_count,
            structure=lambda ctx: _P3 if ctx.isolated == 1 and ctx.pairs == 1 else None,
        ),
    ),
)
