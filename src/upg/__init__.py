"""Unity product graphs of finite commutative rings.

Vertices are the units of the ring; two distinct units are adjacent
exactly when their product is the unity element.  The package builds
these graphs and their complements, computes exact invariants, and
verifies structural claims over configurable ring families.
"""

from .claims import (
    FAIL,
    HYPOTHESIS_GAP,
    NOT_APPLICABLE,
    PASS,
    SKIPPED,
    Claim,
    RingContext,
    UnknownClaimError,
    builtin_claims,
    default_rings,
    lookup,
)
from .graphs import (
    SimpleGraph,
    complement,
    decompose_matching_structure,
    export_dot,
    export_json,
    graph_from_edges,
    graph_from_json,
    recognize_complete_multipartite,
    ring_graph,
    unity_product_graph,
)
from .invariants import (
    INFINITY,
    InvariantReport,
    VertexBoundError,
    chromatic_number,
    clique_number,
    domination_number,
    eccentricity_profile,
    full_report,
    girth,
    is_hamiltonian,
    is_planar,
    max_clique,
)
from .rings import (
    DEFAULT_ORDER_CAP,
    FiniteRing,
    NoUnityError,
    OrderCapError,
    RingAxiomError,
    RingError,
    RingSpecError,
    UnitGroup,
    boolean_ring,
    characteristic,
    direct_product,
    gf,
    is_boolean,
    is_cyclic,
    parse_ring_spec,
    unit_counts,
    units,
    zmod,
)

__version__ = "0.1.0"

# loaded on first use: only verify sweeps, and only a table: spec reads tables
_SWEEP_NAMES = {"ClaimVerdict", "Sweep", "render_csv", "render_json", "render_text", "run_sweep"}
_TABLE_NAMES = {"table_ring", "table_ring_from_json"}


def __getattr__(name: str):
    if name in _SWEEP_NAMES:
        from . import sweep as module
    elif name in _TABLE_NAMES:
        from . import tables as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
