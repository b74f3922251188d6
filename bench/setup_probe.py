"""One set-up, timed in a fresh interpreter: import upg, generate the
workload's argv list and resolve every ring it names.  Prints the seconds.

Usage: python3 bench/setup_probe.py SRC_DIR WORKLOAD SEED
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import upg.cli  # noqa: E402,F401
from upg.claims import default_rings  # noqa: E402
from upg.rings import parse_ring_spec  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

ops = workloads.generate(sys.argv[2], int(sys.argv[3]))
if sys.argv[2] == "sweep":
    rings = default_rings(zmod_max=workloads.SWEEP_ZMOD_MAX)
    if len(rings) != oracle.SWEEP_RINGS:
        sys.exit(f"the sweep family has {len(rings)} rings, want {oracle.SWEEP_RINGS}")
else:
    for spec in sorted({oracle.spec(op.ring) for op in ops}):
        parse_ring_spec(spec)
print(time.perf_counter() - start)
