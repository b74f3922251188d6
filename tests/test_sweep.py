"""The sweep core against its reference: run_sweep's per-claim pairs and
the chunked renderers print what the former ring-by-ring sweep and
whole-output renderers printed, byte for byte, through the library and
through ``verify``; the witness rule, the memory of a sweep at the order
cap and the benchmark tracer's verdict counts are pinned here too."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from upg import cli
from upg.claims import (
    FAIL,
    HYPOTHESIS_GAP,
    PASS,
    Claim,
    builtin_claims,
    default_rings,
    lookup,
)
from upg.invariants import VertexBoundError
from upg.rings import parse_ring_spec, zmod
from upg.sweep import Sweep, render_csv, render_json, render_text, run_sweep

from oracles import bench_module, reference_render, reference_sweep, run_main

DATA = Path(__file__).parent / "data"
SRC = str(Path(__file__).resolve().parent.parent / "src")
FORMATS = ("text", "json", "csv")
RENDERERS = {"text": render_text, "json": render_json, "csv": render_csv}


def rendered(verdicts, fmt: str) -> str:
    return "".join(RENDERERS[fmt](verdicts))


def refuse(ctx):
    raise VertexBoundError("hamiltonicity", 99)


REFUSING = Claim("custom-refuse", "always refuses", lambda ctx: ctx.ring.order > 4, refuse)
# a witness with nested values, which the builtin claims never give
NESTED = Claim(
    "custom-nested",
    "gaps with nested witness values",
    lambda ctx: True,
    lambda ctx: (HYPOTHESIS_GAP, {"parts": [1, (2, 3)], "shape": {"ring": ctx.ring.label}, "x": 1.5}),
)
NO_UNITY = f"table:@{DATA / 'nounity.json'}"

# the repeated claims and labels of the order test in test_claims.py
REPEATED = (
    [lookup("thm-4.1"), lookup("prop-3.1"), lookup("thm-3.2"), lookup("prop-3.1")],
    [zmod(9), zmod(10), parse_ring_spec("gf:2^2"), zmod(18), zmod(10), zmod(2)],
)
LIBRARY_CASES = {
    "repeated": REPEATED,
    "refusal": (
        [REFUSING, lookup("thm-6.4"), REFUSING],
        [zmod(7), parse_ring_spec(NO_UNITY), zmod(3), parse_ring_spec("gf:2^2")],
    ),
    "nested-witness": ([NESTED, lookup("thm-3.6")], [zmod(8), zmod(40), parse_ring_spec("gf:2^2")]),
    "no-rings": (list(builtin_claims()), []),
    "no-claims": ([], [zmod(5)]),
    "no-unity": (list(builtin_claims()), [parse_ring_spec(NO_UNITY), zmod(4)]),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_CASES))
def test_run_sweep_and_renderers_match_reference(case):
    claims, rings = LIBRARY_CASES[case]
    want = reference_sweep(claims, rings)
    sweep = run_sweep(claims, rings)
    assert isinstance(sweep, Sweep)
    assert list(sweep) == want
    assert len(sweep) == len(want)
    assert [sweep[i] for i in range(-len(want), len(want))] == want + want
    for fmt in FORMATS:
        text = reference_render(want, fmt)
        assert rendered(sweep, fmt) == text, fmt
        # a plain list is grouped into the same blocks
        assert rendered(want, fmt) == text, fmt


CLI_CASES = [
    [],
    ["--zmod-max", "300"],
    ["--include", "prod:(zmod:2,zmod:24)"],
    ["--include", "prod:(zmod:4,zmod:6)"],
    ["--include", "prod:(bool:4,zmod:3)"],
    ["--include", NO_UNITY],
    ["--claims", "thm-6.4,prop-3.1,thm-3.6", "--zmod-max", "40"],
]


@pytest.mark.parametrize("extra", CLI_CASES, ids=lambda extra: " ".join(extra)[-40:] or "default")
def test_verify_matches_reference(extra):
    args = dict(zip(extra[::2], extra[1::2]))
    claims = builtin_claims()
    if "--claims" in args:
        claims = [lookup(claim_id) for claim_id in args["--claims"].split(",")]
    rings = default_rings(
        zmod_max=int(args.get("--zmod-max", 60)),
        include=[args["--include"]] if "--include" in args else [],
    )
    want = reference_sweep(claims, rings)
    want_code = 1 if any(v.outcome == FAIL for v in want) else 0
    for fmt in FORMATS:
        code, out, err = run_main(cli.main, ["verify", *extra, "--format", fmt])
        assert (code, err) == (want_code, ""), fmt
        assert out == reference_render(want, fmt), fmt


@pytest.mark.parametrize("outcome", [FAIL, HYPOTHESIS_GAP])
def test_witness_rule_holds_on_the_sweep_path(outcome, monkeypatch):
    unwitnessed = Claim("custom-bare", "no witness", lambda ctx: True, lambda ctx: (outcome, None))
    message = f"^{outcome} verdict of custom-bare on Z/3 has no witness$"  # Z/3 sorts first
    claims = [lookup("thm-4.1"), unwitnessed]
    rings = [zmod(5), zmod(3)]
    with pytest.raises(ValueError, match=message):
        run_sweep(claims, rings)
    with pytest.raises(ValueError, match=message):
        "".join(render_csv(run_sweep(claims, rings)))
    # verify refuses it too, on the first default ring in label order
    monkeypatch.setattr(cli, "builtin_claims", lambda: tuple(claims))
    with pytest.raises(ValueError, match=message.replace("Z/3", re.escape("GF(11)"))):
        run_main(cli.main, ["verify", "--zmod-max", "5", "--format", "csv"])
    passing = Claim("custom-bare", "passes", lambda ctx: True, lambda ctx: (PASS, None))
    assert [v.outcome for v in run_sweep([passing], rings)] == [PASS, PASS]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_at_the_order_cap_holds_no_verdicts(fmt):
    # verify --zmod-max 4096 once held 107,023 ClaimVerdicts and its whole
    # output, and its peak RSS grew 29 MB (csv) or 48 MB (json) over
    # `import upg.cli`; the sweep now keeps each check's own (outcome,
    # witness) pair, mostly a shared constant, and every format is written
    # one claim at a time: 11.6 MB of growth for csv on Linux with CPython
    # 3.11, so 16 MB leaves room without letting a list of verdicts or the
    # whole output back in
    resource = pytest.importorskip("resource")
    script = (
        "import os, resource\n"
        "import upg.cli\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"argv = ['verify', '--claims', 'all', '--zmod-max', '4096', '--format', '{fmt}']\n"
        "code = upg.cli.main(argv + ['--out', os.devnull])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    code, grown_kb = res.stdout.split()
    assert code == "1"  # the paper's known fails
    assert int(grown_kb) < 16 * 1024, grown_kb  # ru_maxrss is in KiB on Linux


def test_benchmark_tracer_counts_every_verdict(capsys):
    # the benchmark's tracer wraps run_sweep and the renderers by name in
    # every upg module, and counts the outcomes of what run_sweep returns:
    # verify must call them, or the traced counts read 0
    spans = bench_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["verify", "--claims", "all", "--format", "csv"])
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out
    assert code == 1
    rows = out.count("\n") - 1
    assert rows == 26 * len(default_rings())
    counts = {outcome: tracer.counts[f"claims.{outcome}"] for outcome in spans.OUTCOMES}
    assert sum(counts.values()) == rows
    assert counts["fail"] == out.count(",fail,") == 8
    assert tracer.self_s["claims.sweep_self"] > 0
    assert "claims.render" in tracer.self_s
