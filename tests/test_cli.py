import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

import upg.invariants
from upg import cli, rings
from upg.graphs import SimpleGraph
from upg.invariants import VertexBoundError

from oracles import bench_workloads, reference_main, run_main

DATA = Path(__file__).parent / "data"

GOLDEN_Z11_DOT = """graph {
  "1";
  "2";
  "3";
  "4";
  "5";
  "6";
  "7";
  "8";
  "9";
  "10";
  "2" -- "6";
  "3" -- "4";
  "5" -- "9";
  "7" -- "8";
}
"""


# Subprocesses import this checkout's `upg`, whatever PYTHONPATH the
# test run itself was given.
SRC = str(Path(__file__).resolve().parent.parent / "src")
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "upg", *args], capture_output=True, text=True, env=CLI_ENV
    )


def test_build_dot_golden():
    res = run_cli("build", "--ring", "zmod:11", "--graph", "upg")
    assert res.returncode == 0
    assert res.stdout == GOLDEN_Z11_DOT  # dot is the default format
    assert res.stderr == ""


def test_build_json():
    res = run_cli("build", "--ring", "zmod:16", "--graph", "upg", "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["n"] == 8
    edges = {frozenset((doc["labels"][u], doc["labels"][v])) for u, v in doc["edges"]}
    assert edges == {frozenset(("3", "11")), frozenset(("5", "13"))}


def test_build_bool3_single_vertex():
    res = run_cli("build", "--ring", "bool:3", "--graph", "upg")
    assert res.returncode == 0
    assert res.stdout == 'graph {\n  "(1,1,1)";\n}\n'


def test_analyze_complement_zmod16():
    res = run_cli("analyze", "--ring", "zmod:16", "--graph", "complement")
    assert res.returncode == 0
    lines = dict(
        line.rsplit(None, 1) for line in res.stdout.splitlines()
    )
    assert lines["edge_count"] == "26"
    assert lines["diameter"] == "2"
    assert lines["radius"] == "1"
    assert lines["planar"] == "false"
    assert lines["hamiltonian"] == "true"


def test_analyze_zmod1():
    res = run_cli("analyze", "--ring", "zmod:1", "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["n"] == 1
    assert doc["diameter"] == 0
    assert doc["girth"] == "inf"


def test_analyze_upg_infinite_metrics():
    res = run_cli("analyze", "--ring", "zmod:24", "--graph", "upg", "--format", "json")
    doc = json.loads(res.stdout)
    assert doc["diameter"] == "inf" and doc["radius"] == "inf"
    assert doc["edge_count"] == 0


def test_bad_spec_exit_2():
    # integers are ASCII decimal: no sign but "-", no "_", no other digits
    specs = (
        "zmod:0", "zmod:x", "mystery:1", "gf:6", "zmod:-3",
        "zmod:\u0663", "zmod:1_0", "zmod:+5", "zmod:\uff11\uff12", "gf:2^+3", "gf:\u00b2",
        "bool:\u0663", "zmod:", "zmod:--3", "zmod:" + "9" * 5000,
    )
    for spec in specs:
        res = run_cli("build", "--ring", spec)
        assert res.returncode == 2, spec
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, spec
        assert res.stdout == ""
        if spec == "zmod:-3":
            assert "must be positive" in res.stderr


def test_prod_nesting_beyond_bound_exit_2():
    # deep enough to have overflowed the recursive parser
    spec = "prod:(" * 600 + "zmod:2" + ")" * 600
    res = run_cli("build", "--ring", spec)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "nested deeper than" in res.stderr and "Traceback" not in res.stderr


def test_prod_nesting_at_bound_builds():
    depth = rings.MAX_PROD_NESTING
    spec = "prod:(" * depth + "zmod:3" + ")" * depth
    res = run_cli("build", "--ring", spec, "--format", "json")
    assert res.returncode == 0
    assert res.stderr == ""
    doc = json.loads(res.stdout)
    assert doc["labels"] == ["(" * depth + x + ")" * depth for x in ("1", "2")]
    assert doc["edges"] == []


def test_table_json_boolean_entry_exit_2(tmp_path):
    doc = json.loads((DATA / "table_z4.json").read_text())
    doc["mul"][1][1] = True
    path = tmp_path / "bool_entry.json"
    path.write_text(json.dumps(doc))
    res = run_cli("build", "--ring", f"table:@{path}")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and "mul[1][1] = True" in res.stderr



@pytest.mark.parametrize("case", ["label-int", "names-int", "names-ints", "not-utf8", "row-int"])
def test_table_json_bad_document_exit_2(tmp_path, case):
    doc = json.loads((DATA / "table_z4.json").read_text())
    if case == "row-int":
        doc["add"] = [0, 1, 2, 3]
    elif case == "label-int":
        doc["label"] = 5
    elif case == "names-int":
        doc["element_names"] = 5
    elif case == "names-ints":
        doc["element_names"] = [0, 1, 2, 3]
    else:
        doc["label"] = "T\u00e4"
    path = tmp_path / "bad.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
    for command in ("build", "--ring"), ("analyze", "--ring"), ("verify", "--include"):
        res = run_cli(*command, f"table:@{path}")
        assert res.returncode == 2, (command, res.stderr)
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
        assert "Traceback" not in res.stderr


def test_table_json_nested_too_deep_exit_2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    res = run_cli("build", "--ring", f"table:@{path}")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
    assert "nested too deeply" in res.stderr


def test_build_at_order_cap_gf4096():
    # UPG of GF(2^12): only 1 is self-inverse, so 2047 edges
    res = run_cli("build", "--ring", "gf:2^12", "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["n"] == 4095
    assert len(doc["edges"]) == 2047


def _limit_address_space():
    # runs in the child only, between fork and exec
    import resource

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


# sha256 of the complement of the unity product graph of gf:2^12, by format
CAP_COMPLEMENT_DIGESTS = {
    "json": "7c70a6dd7a399468fca085d48d1283123df37b3120542b66f7459c7a233c6fd8",
    "dot": "f0700de9f0191dbea06ff9981b3c6838432e92e24e261a2f144a37c562c77a18",
}


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_build_complement_at_order_cap_gf4096_in_1gib(fmt):
    # 8.4 M edges; the export is streamed row by row, so it fits in an
    # address space far smaller than the document (~297 MB JSON, ~470 MB
    # DOT), and its bytes are pinned as they stream
    pytest.importorskip("resource")
    argv = ["build", "--ring", "gf:2^12", "--graph", "complement", "--format", fmt]
    proc = subprocess.Popen(
        [sys.executable, "-m", "upg", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CLI_ENV,
        preexec_fn=_limit_address_space,
    )
    newlines, last, digest = 0, b"", hashlib.sha256()
    while chunk := proc.stdout.read(1 << 20):
        newlines += chunk.count(b"\n")
        digest.update(chunk)
        last = chunk
    stderr = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    assert proc.wait() == 0
    assert stderr == b""
    n, m = 4095, 4095 * 4094 // 2 - 2047
    assert newlines == (n + 4 * m + 7 if fmt == "json" else n + m + 2)
    assert last.endswith(b"}\n")
    assert digest.hexdigest() == CAP_COMPLEMENT_DIGESTS[fmt]


def test_over_cap_exit_2():
    res = run_cli("build", "--ring", "zmod:9999")
    assert res.returncode == 2
    assert "cap" in res.stderr


@pytest.mark.parametrize(
    "spec", ["gf:2^99999999999", "bool:99999999999", "gf:1000000000000000000000000000057"]
)
def test_huge_ring_spec_exits_2_at_once(spec):
    # rejected on size before the power is built or a primality test runs
    res = subprocess.run(
        [sys.executable, "-m", "upg", "analyze", "--ring", spec],
        capture_output=True, text=True, env=CLI_ENV, timeout=10,
    )
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: ring spec {spec!r}: ring order ")
    assert res.stderr.endswith(" exceeds cap 4096\n") and res.stderr.count("\n") == 1


def test_order_cap_flag():
    res = run_cli("build", "--ring", "zmod:50", "--order-cap", "10")
    assert res.returncode == 2
    res = run_cli("build", "--ring", "zmod:50", "--order-cap", "50")
    assert res.returncode == 0


def test_no_unity_exit_3(capsys):
    spec = f"table:@{DATA / 'nounity.json'}"
    for command in ("build", "analyze"):
        for graph in ("upg", "complement"):
            assert cli.main([command, "--ring", spec, "--graph", graph]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: ring 2Z/4Z has no unity element\n"


def test_table_ring_analyze():
    res = run_cli(
        "analyze", "--ring", f"table:@{DATA / 'table_z4.json'}", "--format", "json"
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["n"] == 2


def test_verify_fail_exit_1_with_witness():
    res = run_cli("verify", "--claims", "thm-6.4", "--include", "gf:2^2")
    assert res.returncode == 1
    assert "P3" in res.stdout
    assert "fail GF(4)" in res.stdout


def test_verify_pass_exit_0():
    res = run_cli("verify", "--claims", "thm-4.1", "--zmod-max", "30")
    assert res.returncode == 0
    assert "fail 0" in res.stdout


def test_verify_gap_does_not_fail_exit():
    res = run_cli("verify", "--claims", "thm-3.6", "--zmod-max", "105")
    assert res.returncode == 0
    assert "hypothesis_gap Z/105" in res.stdout


def test_verify_unknown_claim_exit_2():
    res = run_cli("verify", "--claims", "thm-1.99")
    assert res.returncode == 2
    assert "unknown claim id" in res.stderr


def test_verify_bad_include_exit_2():
    res = run_cli("verify", "--claims", "thm-4.1", "--include", "zmod:bogus")
    assert res.returncode == 2


def test_verify_multiple_claims_and_includes():
    res = run_cli(
        "verify",
        "--claims", "thm-4.1,thm-5.3",
        "--zmod-max", "10",
        "--include", "zmod:62",
        "--include", "zmod:63,prod:(zmod:5,zmod:5)",
        "--format", "csv",
    )
    assert res.returncode == 0
    rows = res.stdout.splitlines()
    assert rows[0] == "claim_id,ring,outcome,witness"
    rings = {row.split(",")[1] for row in rows[1:]}
    assert {"Z/62", "Z/63", "Z/5 × Z/5"} <= rings
    claims = {row.split(",")[0] for row in rows[1:]}
    assert claims == {"thm-4.1", "thm-5.3"}


def test_verify_claim_ids_split_on_commas(capsys):
    # ids are split on every comma, parentheses or not; empty ids are
    # skipped and a repeated id is checked once
    def verify(claims_arg):
        code = cli.main(["verify", "--claims", claims_arg, "--zmod-max", "6", "--format", "csv"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    single = verify("thm-3.1")
    assert single[0] == 0 and single[2] == ""
    assert len(single[1].splitlines()) == 1 + len(cli.default_rings(zmod_max=6))
    assert verify("thm-3.1,") == single
    assert verify(",thm-3.1,,") == single
    assert verify("thm-3.1,thm-3.1") == single
    pair = verify("thm-3.2,thm-3.1,thm-3.2")
    assert pair == verify("thm-3.1,thm-3.2")
    assert pair[1].count("thm-3.2,Z/6,") == 1
    assert verify("thm-3.1(") == (2, "", "error: unknown claim id 'thm-3.1('\n")
    assert verify(",") == (2, "", "error: no claim ids given\n")
    assert verify("") == (2, "", "error: no claim ids given\n")


# Rings at the order cap, with (s, p): s self-inverse units and p pairs of
# mutually inverse ones, so the unity product graph is s*K1 + p*K2 and its
# complement K_{1^s, 2^p}.
CAP_RINGS = {
    "zmod:4093": (2, 2045),
    "gf:2^12": (1, 2047),
    "gf:3^7": (2, 1092),
    "bool:12": (1, 0),
}


@pytest.mark.parametrize("graph", ["upg", "complement"])
@pytest.mark.parametrize("spec", CAP_RINGS)
def test_analyze_at_order_cap_closed_forms(spec, graph):
    s, p = CAP_RINGS[spec]
    res = run_cli("analyze", "--ring", spec, "--graph", graph, "--format", "json")
    assert res.returncode == 0
    assert res.stderr == ""
    doc = json.loads(res.stdout)
    assert doc["n"] == s + 2 * p
    if graph == "upg":
        # omega = chi = 2 with an edge, else 1; one dominator per component
        expected = (2 if p else 1, 2 if p else 1, s + p)
    else:
        # one vertex per part in a clique; a self-inverse unit is adjacent
        # to every other unit, and without one any two parts dominate
        expected = (s + p, s + p, 1 if s else 2)
    assert (doc["clique_number"], doc["chromatic_number"], doc["domination_number"]) == expected


def test_verify_includes_at_order_cap():
    res = run_cli(
        "verify", "--claims", "all", "--include", "zmod:4093", "--include", "gf:2^12",
        "--include", "bool:12", "--format", "csv",
    )
    # exit 1: the pinned paper fails of the default sweep
    assert res.returncode == 1
    assert res.stderr == ""
    rows = [line.split(",") for line in res.stdout.splitlines()[1:]]
    labels = {rings.parse_ring_spec(spec).label for spec in ("zmod:4093", "gf:2^12", "bool:12")}
    assert {ring for _, ring, *_ in rows} >= labels
    assert "skipped" not in {outcome for _, _, outcome, *_ in rows}


def test_verify_json_format():
    res = run_cli("verify", "--claims", "thm-5.7", "--zmod-max", "13", "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["claims"][0]["claim_id"] == "thm-5.7"
    assert doc["summary"]["fail"] == 0


def test_verify_deterministic():
    args = ("verify", "--claims", "thm-5.7,thm-6.2", "--zmod-max", "13")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_survey_zmod_max_2():
    res = run_cli("survey", "--family", "zmod", "--max", "2")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("ring,order,units,isolated,pairs,upg_girth")
    assert lines[1].startswith("Z/1,1,1,1,0,")
    assert lines[2].startswith("Z/2,2,1,1,0,")


def test_survey_bool_all_single_unit():
    res = run_cli("survey", "--family", "bool", "--max", "5")
    assert res.returncode == 0
    rows = res.stdout.splitlines()[1:]
    assert len(rows) == 5
    assert all(row.split(",")[2] == "1" for row in rows)


def test_survey_zmod11_row_values():
    res = run_cli("survey", "--family", "zmod", "--max", "11")
    header = res.stdout.splitlines()[0].split(",")
    row = dict(zip(header, res.stdout.splitlines()[-1].split(",")))
    assert row["ring"] == "Z/11"
    assert row["upg_domination_number"] == "6"
    assert row["comp_clique_number"] == "6"
    assert row["upg_girth"] == "inf"
    assert row["comp_hamiltonian"] == "true"


def test_survey_gf_prime_powers():
    res = run_cli("survey", "--family", "gf", "--max", "9")
    rings = [row.split(",")[0] for row in res.stdout.splitlines()[1:]]
    assert rings == ["GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(8)", "GF(9)"]


def test_survey_over_cap_exit_4(capsys):
    res = run_cli("survey", "--family", "bool", "--max", "13")
    assert res.returncode == 4
    assert "bound" in res.stderr
    # each family stops at its first ring over the cap, before any row
    cases = [
        (["zmod", "17", "--order-cap", "16"], 17, 16),
        (["gf", "17", "--order-cap", "16"], 17, 16),
        (["bool", "5", "--order-cap", "16"], 32, 16),
        (["gf", "4099"], 4099, 4096),
        # the first ring over the cap stops the loop, however far --max goes
        (["gf", "100000000"], 4099, 4096),
        (["zmod", "100000000000"], 4097, 4096),
        (["bool", "100000000000"], 8192, 4096),
    ]
    for (family, maximum, *cap), order, limit in cases:
        start = time.perf_counter()
        assert cli.main(["survey", "--family", family, "--max", maximum, *cap]) == 4
        assert time.perf_counter() - start < 5.0, (family, maximum)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: survey bound violation: ring order {order} exceeds cap {limit}\n"
        )


def test_survey_deterministic():
    first = run_cli("survey", "--family", "zmod", "--max", "24")
    second = run_cli("survey", "--family", "zmod", "--max", "24")
    assert first.stdout == second.stdout


def test_usage_errors_exit_2():
    assert run_cli().returncode == 2
    assert run_cli("build").returncode == 2  # --ring required
    assert run_cli("build", "--ring", "zmod:5", "--format", "text").returncode == 2
    assert run_cli("survey", "--family", "zmod", "--max", "5", "--format", "json").returncode == 2
    assert run_cli("analyze", "--ring", "zmod:5", "--graph", "both").returncode == 2


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "graph.dot"
    res = run_cli("build", "--ring", "zmod:11", "--out", str(target))
    assert res.returncode == 0
    assert res.stdout == ""
    assert target.read_text() == GOLDEN_Z11_DOT


def test_out_into_missing_directory_exit_2(tmp_path):
    target = tmp_path / "missing" / "graph.dot"
    res = run_cli("build", "--ring", "zmod:7", "--out", str(target))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert str(target) in res.stderr and "No such file or directory" in res.stderr
    assert not target.parent.exists()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
def test_out_to_full_device_exit_2():
    # the write error may only surface when the file is closed
    res = run_cli("build", "--ring", "zmod:7", "--out", "/dev/full")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: cannot write '/dev/full': No space left on device\n"


@pytest.mark.parametrize(
    "args",
    [
        ("build", "--ring", "zmod:7"),
        ("build", "--ring", "gf:2^10", "--graph", "complement", "--format", "json"),
    ],
)
def test_closed_stdout_exit_2(args):
    # small output fails at the final flush, large output mid-stream
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "upg", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=CLI_ENV,
        )
    finally:
        os.close(write_end)
    assert res.returncode == 2
    assert res.stderr == "error: cannot write to stdout: Broken pipe\n"


STDOUT_FAILURE_COMMANDS = {
    "build": ("build", "--ring", "zmod:7"),
    "analyze": ("analyze", "--ring", "zmod:7"),
    "verify": ("verify",),
    "survey": ("survey", "--family", "zmod", "--max", "5"),
}


@pytest.mark.parametrize(
    "redirect,reason",
    [(">/dev/full", "No space left on device"), (">&-", "Bad file descriptor")],
    ids=["full", "closed"],
)
@pytest.mark.parametrize("command", STDOUT_FAILURE_COMMANDS)
def test_failed_stdout_write_exit_2(command, redirect, reason):
    # a failed write is exit 2 with one line on every subcommand; for
    # verify, exit 1 would claim that the paper failed on some ring.  The
    # shell points descriptor 1 at /dev/full, or closes it before the
    # interpreter starts (sys.stdout is then None)
    if redirect == ">/dev/full" and not Path("/dev/full").exists():
        pytest.skip("no /dev/full")
    res = subprocess.run(
        ["sh", "-c", f'exec "$0" -m upg "$@" {redirect}', sys.executable,
         *STDOUT_FAILURE_COMMANDS[command]],
        capture_output=True, text=True, env=CLI_ENV,
    )
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == f"error: cannot write to stdout: {reason}\n"


CLOSED_STDERR_ERRORS = {
    "build": (("build", "--ring", "zmod:7", "--out", "/nonexistent/x"), 2),
    "analyze": (("analyze", "--ring", "table:@/nonexistent.json"), 2),
    "verify": (("verify", "--claims", "nope"), 2),
    "survey": (("survey", "--family", "zmod", "--max", "5000"), 4),
}


@pytest.mark.parametrize("command", CLOSED_STDERR_ERRORS)
def test_closed_stderr_keeps_exit_code(command):
    # the one error line has nowhere to go; the documented code still
    # tells what went wrong (1 would read as a failed claim), and the
    # line is not written to stdout instead (sys.stderr is then None)
    args, code = CLOSED_STDERR_ERRORS[command]
    res = subprocess.run(
        ["sh", "-c", 'exec "$0" -m upg "$@" 2>&-', sys.executable, *args],
        capture_output=True, text=True, env=CLI_ENV,
    )
    assert res.returncode == code
    assert res.stdout == ""


def _table_with_non_ascii_names(tmp_path: Path) -> str:
    doc = {
        "order": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]], "zero": 0,
        "element_names": ["n\u00fcl", "\u00fcn"],
    }
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(doc))
    return f"table:@{path}"


def test_unencodable_stdout_exit_2(tmp_path):
    # a label stdout's encoding lacks is a write error, not a traceback and
    # not exit 1, which means a failing verdict
    spec = _table_with_non_ascii_names(tmp_path)
    res = subprocess.run(
        [sys.executable, "-m", "upg", "build", "--ring", spec],
        capture_output=True, text=True, env={**CLI_ENV, "PYTHONIOENCODING": "ascii"},
    )
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: cannot write to stdout: '\\xfc' has no ascii encoding\n"


def test_unencodable_out_file_exit_2(tmp_path):
    # --out is written in the locale's encoding, ASCII in the C locale
    # once UTF-8 mode and locale coercion are off
    env = {**CLI_ENV, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    env.pop("PYTHONIOENCODING", None)
    probe = subprocess.run(
        [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
        capture_output=True, text=True, env=env,
    )
    try:
        "\u00fc".encode(probe.stdout.strip())
    except (LookupError, UnicodeEncodeError):
        pass
    else:
        pytest.skip(f"the C locale encodes non-ASCII here ({probe.stdout.strip()})")
    spec = _table_with_non_ascii_names(tmp_path)
    out = tmp_path / "g.dot"
    res = subprocess.run(
        [sys.executable, "-m", "upg", "build", "--ring", spec, "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: cannot write {str(out)!r}: ")
    assert res.stderr.endswith(" has no ascii encoding\n") and res.stderr.count("\n") == 1


def test_negative_zmod_max_exit_2():
    res = run_cli("verify", "--zmod-max", "-5")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "--zmod-max: must not be negative: -5" in res.stderr


def test_negative_survey_max_exit_2():
    res = run_cli("survey", "--family", "zmod", "--max", "-1")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "--max: must not be negative: -1" in res.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("build", "--ring", "zmod:2"),
        ("analyze", "--ring", "zmod:2"),
        ("verify",),
        ("survey", "--family", "zmod", "--max", "3"),
    ],
    ids=lambda args: args[0],
)
def test_negative_order_cap_exit_2(args, capsys):
    # once taken as a cap below every ring: exit 2 as "ring order 2
    # exceeds cap -1" for verify, exit 4 as a bound violation for survey
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, "--order-cap", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--order-cap: must not be negative: -1" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ("survey", "--family", "zmod", "--max", "1_0"),
        ("survey", "--family", "zmod", "--max", "+8"),
        ("survey", "--family", "zmod", "--max", "\u0663"),
        ("verify", "--zmod-max", "1_0"),
        ("verify", "--zmod-max", "+8"),
        ("verify", "--zmod-max", "9" * 5000),  # more digits than int() converts
        ("analyze", "--ring", "zmod:3", "--order-cap", "\u0663"),
        ("build", "--ring", "zmod:3", "--order-cap", "+8"),
        ("survey", "--family", "gf", "--max", "8", "--order-cap", "1_0"),
        ("verify", "--order-cap", " "),
    ],
)
def test_integer_options_take_ascii_digits_only(args, capsys):
    # the integers a ring spec refuses exit 2 here too, as --ring zmod:1_0 does
    with pytest.raises(SystemExit) as exc:
        cli.main(list(args))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"invalid int value: {args[-1]!r}\n")


def test_integer_options_take_surrounding_whitespace(capsys):
    assert cli.main(["survey", "--family", "zmod", "--max", " 7 ", "--order-cap", "\t64\n"]) == 0
    padded = capsys.readouterr().out
    assert cli.main(["survey", "--family", "zmod", "--max", "7", "--order-cap", "64"]) == 0
    assert capsys.readouterr().out == padded


def test_console_script_matches_module():
    # The `upg` console script declared in pyproject.toml must print the
    # same bytes as `python -m upg`. Run its entry point the way the
    # generated script does, so no install is needed.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["upg"]
    module, _, attr = target.partition(":")
    launcher = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())"
    args = ("build", "--ring", "zmod:11")
    via_script = subprocess.run(
        [sys.executable, "-c", launcher, *args],
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )
    assert via_script.returncode == 0
    assert via_script.stderr == ""
    assert via_script.stdout == GOLDEN_Z11_DOT
    assert via_script.stdout == run_cli(*args).stdout


@pytest.mark.skipif(shutil.which("upg") is None, reason="upg console script not installed")
def test_installed_console_script_matches_module():
    # An installed `upg` on PATH may come from another checkout; comparing
    # it with this checkout's `python -m upg` catches a stale install.
    args = ("build", "--ring", "zmod:11")
    via_script = subprocess.run(
        [shutil.which("upg"), *args], capture_output=True, text=True
    )
    assert via_script.returncode == 0
    assert via_script.stdout == GOLDEN_Z11_DOT
    assert via_script.stdout == run_cli(*args).stdout


def test_analyze_vertex_bound_exit_4(monkeypatch, capsys):
    def refuse(g, *args):
        raise VertexBoundError("planarity", g.n)

    monkeypatch.setattr(upg.invariants, "is_planar", refuse)
    for graph in ("upg", "complement"):
        code = cli.main(["analyze", "--ring", "zmod:16", "--graph", graph])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "planarity" in captured.err and "Z/16" in captured.err
        assert "closed form" in captured.err and "bound" not in captured.err


def test_survey_vertex_bound_exit_4(monkeypatch, capsys):
    def refuse(g, *args):
        raise VertexBoundError("hamiltonicity", g.n)

    monkeypatch.setattr(upg.invariants, "is_hamiltonian", refuse)
    code = cli.main(["survey", "--family", "zmod", "--max", "5"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: survey bound violation: hamiltonicity on ring Z/1: graph on 1 "
        "vertices is outside the classes decided in closed form\n"
    )


def survey_specs(family, maximum):
    """The specs of the rings `survey` lists, in its row order."""
    if family != "gf":
        return [f"{family}:{n}" for n in range(1, maximum + 1)]
    specs = []
    for q in range(2, maximum + 1):
        p = min(d for d in range(2, q + 1) if q % d == 0)
        k = round(math.log(q, p))
        if p**k == q:
            specs.append(f"gf:{p}^{k}")
    return specs


@pytest.mark.parametrize("family, maximum", [("zmod", 40), ("gf", 32), ("bool", 6)])
def test_survey_cells_match_analyze(family, maximum, capsys):
    # one value-to-text rule: each survey cell is analyze's field, as text
    assert cli.main(["survey", "--family", family, "--max", str(maximum)]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",")
    specs = survey_specs(family, maximum)
    assert len(lines) == len(specs) + 1
    for spec, line in zip(specs, lines[1:]):
        row = dict(zip(header, line.split(",")))
        assert row["ring"] == rings.parse_ring_spec(spec).label
        docs = {}
        for prefix, graph in (("upg", "upg"), ("comp", "complement")):
            args = ["analyze", "--ring", spec, "--graph", graph, "--format", "json"]
            assert cli.main(args) == 0
            docs[prefix] = json.loads(capsys.readouterr().out)
        assert row["units"] == str(docs["upg"]["n"]) == str(docs["comp"]["n"])
        assert row["isolated"] == str(docs["upg"]["isolated_count"])
        assert row["pairs"] == str(docs["upg"]["edge_count"])
        for column, cell in row.items():
            prefix, _, name = column.partition("_")
            if prefix in docs:
                value = docs[prefix][name]
                assert cell == (str(value).lower() if isinstance(value, bool) else str(value)), (
                    row["ring"], column,
                )


# SHA-256 of the stdout of each command, and its exit code: verify exits 1
# for the known paper fails (prop-3.1 on Z/18 and Z/30, the prop-4.1-2
# converse on four products, thm-6.4 on GF(4) and GF(4) x Z/2).
GOLDEN_DIGESTS = [
    (
        "verify --claims all --format csv",
        1,
        "41c773b06a271f638dff2a7162441116c9fbbd03f39c868af316e77066aa723d",
    ),
    (
        "verify --claims all --zmod-max 200 --format csv",
        1,
        "826b2afccd8938babdaeca70b69536d7c3f279e09fa03b1de30b77660a87ddfd",
    ),
    (
        "survey --family zmod --max 60",
        0,
        "c0d0902ffde7098ced821be45b9f6151f83e9acb2247c8c6fb05bb57d0b9d13e",
    ),
    (
        "survey --family gf --max 256",
        0,
        "6b51e8ec4b3af7d929b3cd9a73ddbef78dd2509a6fd4eb25cc2b0211e9bb0bab",
    ),
    (
        "survey --family bool --max 8",
        0,
        "5dacf803f5fc51228a2ffdc212814a82b902bb3fd942a062af6394c48267046f",
    ),
    (
        "survey --family zmod --max 600",
        0,
        "baa4528c8f19da8956dc8786e0d534c03f0b7d14010337468bd59553920aa3c9",
    ),
    (
        "analyze --ring zmod:4096 --graph upg --format json",
        0,
        "4d6d8468b802f37162ab9a36711d6908c7eb820561eb5736f14c12b98a8a4177",
    ),
    (
        "analyze --ring zmod:4096 --graph complement --format json",
        0,
        "3e3e8642d602e58d78203089a25fbc1dd55f97c606d269908713361416c10a56",
    ),
    (
        "analyze --ring gf:2^12 --graph upg --format json",
        0,
        "ec23719a3c037b3cd0034b005bbf925d6c0cc1c12eeb3b372ae936828a02697d",
    ),
    (
        "analyze --ring gf:2^12 --graph complement --format json",
        0,
        "c37795bb59b9d9e7112e9272257ff4b73dcb9b925ff6d8007a46cda583954666",
    ),
    # GF(p^k) and product element names; GF(512)'s field has no primitive
    # element of degree <= 1
    (
        "build --ring gf:7^3",
        0,
        "191763c3721f407b93f49b1e2697e9adfc2be193fbfca2246c5c58c8737c43e0",
    ),
    (
        "build --ring gf:2^9",
        0,
        "f97cff964a768e791ee123d462b117d027e64d8ff7c95c719f99085ca2e8ec8c",
    ),
    (
        "build --ring prod:(gf:2^4,gf:2^4) --format json",
        0,
        "40ee711c9d1c0738d8ccd07462f237e58d3ecf7978824bf76ee1ef4c651bf7eb",
    ),
    (
        "build --ring prod:(zmod:2,gf:11^2)",
        0,
        "482807ca769b29244feebf49d4ce6b5640ca718f30ea68bb9a7593f5e2dbe0c0",
    ),
    # dense export: every complement row is each later vertex but at most one
    (
        "build --ring zmod:493 --graph complement",
        0,
        "7c08b9f983d619063c1d992ba26f4c1c81a225526c25d08deeded252e81bb729",
    ),
    (
        "build --ring zmod:493 --graph complement --format json",
        0,
        "5093d991a8910e19a4fedde8945ac0b84ef05232f0dd8f7593e64fe93e059566",
    ),
]


# the same for whole families at the order cap; their md5s are ec36b6cf,
# 6a9ed4ce and 344889e6
FAMILY_DIGESTS = [
    (
        "survey --family zmod --max 4096",
        0,
        "b8f76b13285b0fe048e9707b6f43d788ec40dd50521350149c366a45d73e0d90",
    ),
    (
        "survey --family gf --max 4096",
        0,
        "058e85a0cc6b4e6b7a3e205d7d93e507b8493ff7fa79ebb46c0e372144c5d1d8",
    ),
    (
        "verify --claims all --zmod-max 4096 --format csv",
        1,
        "e525e1757a2f8003a0048eb83e68d232e7449f2013982b0ceba683e33a345f75",
    ),
]


@pytest.mark.parametrize(
    "command,code,digest",
    GOLDEN_DIGESTS + FAMILY_DIGESTS,
    ids=[c.replace(" --", "-").replace(" ", "-") for c, _, _ in GOLDEN_DIGESTS + FAMILY_DIGESTS],
)
def test_golden_output_digests(command, code, digest, capsys):
    assert cli.main(command.split()) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest


# pyproject.toml declares requires-python >= 3.10: that floor and the later
# releases must print the same bytes as the interpreter under test
FLOOR_COMMANDS = (
    "verify --claims all --format csv",
    "build --ring gf:7^3",
    "build --ring prod:(zmod:2,gf:11^2)",
)


def _interpreter_env() -> dict[str, str]:
    env = {**os.environ, "PYTHONPATH": SRC}
    pyenv = shutil.which("pyenv")
    if pyenv is not None:
        # pyenv's shims run only the versions it has selected; select every
        # installed one, so that each pythonX.Y shim finds its interpreter
        bare = subprocess.run([pyenv, "versions", "--bare"], capture_output=True, text=True)
        if bare.returncode == 0 and bare.stdout.split():
            env["PYENV_VERSION"] = ":".join(bare.stdout.split())
    return env


SUPPORTED_PYTHONS = ("python3.10", "python3.12", "python3.13")


def _interpreter(python: str) -> tuple[str, dict[str, str]]:
    """An installed interpreter's path and an environment it starts in; the
    test is skipped when it is absent or does not start."""
    exe = shutil.which(python)
    if exe is None:
        pytest.skip(f"{python} is not installed")
    env = _interpreter_env()
    if subprocess.run([exe, "-c", ""], capture_output=True, env=env).returncode != 0:
        pytest.skip(f"{python} does not start")
    return exe, env


@pytest.mark.parametrize("python", SUPPORTED_PYTHONS)
def test_supported_pythons_print_golden_bytes(python):
    exe, env = _interpreter(python)
    cases = [case for case in GOLDEN_DIGESTS if case[0] in FLOOR_COMMANDS]
    assert len(cases) == len(FLOOR_COMMANDS)
    for command, code, digest in cases:
        res = subprocess.run([exe, "-m", "upg", *command.split()], capture_output=True, env=env)
        assert res.returncode == code, (command, res.stderr)
        assert res.stderr == b""
        assert hashlib.sha256(res.stdout).hexdigest() == digest, command


# a valid call of each subcommand, then calls whose usage, help or error
# comes from the top-level parser or from argparse's nested parse
VALID_CALLS = (
    ("build", "--ring", "zmod:5"),
    ("analyze", "--ring", "gf:2^3", "--graph", "complement", "--format", "json"),
    ("verify", "--claims", "thm-6.2", "--zmod-max", "6"),
    ("survey", "--family", "bool", "--max", "3"),
)
PARSE_PARITY_CALLS = VALID_CALLS + (
    (),
    ("-h",),
    ("--help",),
    ("build", "-h"),
    ("analyze", "-h"),
    ("verify", "-h"),
    ("survey", "-h"),
    ("anal", "--ring", "zmod:5"),
    ("build", "--ring", "zmod:5", "extra"),
    ("build", "--", "--ring", "zmod:5"),
    ("build",),
    ("analyze", "--ring", "zmod:5", "--graph", "both"),
    ("analyze", "--ring", "zmod:12", "--gr", "complement"),
    ("analyze", "--ring", "zmod:5", "--order-cap", "-1"),
    ("--order-cap", "5", "build", "--ring", "zmod:5"),
    # boundary cases of the plain --option value reading
    ("analyze", "--ring", "zmod:5", "--ring", "zmod:12"),
    ("verify", "--claims", "thm-6.2", "--zmod-max", "4", "--include", "zmod:9",
     "--include", "gf:4,bool:2"),
    ("analyze", "--ring", ""),
    ("analyze", "--ring", "-5"),
    ("analyze", "--ring=zmod:5"),
    ("build", "--ring", "zmod:5", "--graph", "nope"),
    ("survey", "--family", "zmod", "--max", "3.0"),
)

# --opt=--: argparse before 3.13 reads the value as [] and neither converts
# nor checks it, and the nested parse then fails in the subcommand or
# reads the wrong value; 3.13 reads "--".  Every version's main must give
# 3.13's exit code, stdout and last stderr line, pinned here.
RING_DASH = "error: ring spec '--': malformed ring spec '--'"
DASH_VALUE_CALLS = {
    ("build", "--ring=--"): (2, "", RING_DASH),
    ("analyze", "--ring=--"): (2, "", RING_DASH),
    ("verify", "--claims=--"): (2, "", "error: unknown claim id '--'"),
    ("verify", "--claims", "thm-6.2", "--include=--"): (
        2, "", "error: bad ring spec: malformed ring spec '--'"
    ),
    ("build", "--ring", "zmod:5", "--out=--"): (0, "", ""),  # the file "--"
    ("survey", "--family", "bool", "--max", "2", "--out=--"): (0, "", ""),
    ("build", "--ring", "zmod:5", "--order-cap=--"): (
        2, "", "upg build: error: argument --order-cap: invalid int value: '--'"
    ),
    ("survey", "--family=--", "--max", "3"): (
        2, "", "upg survey: error: argument --family: invalid choice: '--' "
        "(choose from 'zmod', 'gf', 'bool')",
    ),
}


def _pinned(outcome) -> tuple:
    """(exit code, stdout, last stderr line) of one call's outcome."""
    code, out, err = outcome
    return code, out, (err.splitlines() or [""])[-1]


# the parity table, run by another interpreter: one JSON line per call,
# [argv, main's outcome, the reference's outcome or the name of what it raised]
PARITY_SCRIPT = """
import json, sys
from oracles import reference_main, run_main
from upg import cli
def reference(argv):
    try:
        return run_main(reference_main, argv)
    except Exception as exc:
        return type(exc).__name__
for argv in json.loads(sys.argv[1]):
    print(json.dumps([argv, run_main(cli.main, argv), reference(argv)]))
"""


def test_main_matches_nested_parse():
    for argv in PARSE_PARITY_CALLS:
        code, out, err = run_main(cli.main, argv)
        assert (code, out, err) == run_main(reference_main, argv), argv
        assert code in (0, 2) and (out or err), argv


def test_valid_calls_skip_the_nested_parse(monkeypatch):
    nested, parsed = [], []
    nested_call = argparse._SubParsersAction.__call__
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def recorded(self, parser, namespace, values, option_string=None):
        nested.append(values)
        return nested_call(self, parser, namespace, values, option_string)

    def recorded_parse(self, args=None, namespace=None):
        parsed.append(list(args))
        return parse_known_args(self, args, namespace)

    monkeypatch.setattr(argparse._SubParsersAction, "__call__", recorded)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recorded_parse)
    workloads = bench_workloads()
    ops = [workloads.generate(name, 1)[0] for name in workloads.WORKLOADS]
    calls = [(argv, 0) for argv in VALID_CALLS] + [(op.argv, op.expect_exit) for op in ops]
    for argv, code in calls:
        assert run_main(cli.main, argv)[0] == code, argv
    assert nested == [] and parsed == []
    # a call with an argument left over is parsed again, from the top
    leftover = ("build", "--ring", "zmod:5", "extra")
    assert run_main(cli.main, leftover)[0] == 2
    assert nested == [list(leftover)]
    assert parsed[0] == list(leftover)


def test_include_default_is_never_mutated(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_include_specs", lambda values: seen.append(values) or [])
    first = ("verify", "--claims", "thm-6.2", "--zmod-max", "3", "--include", "zmod:9")
    assert run_main(cli.main, first)[0] == 0
    assert run_main(cli.main, first[:-2])[0] == 0
    assert seen == [["zmod:9"], []]
    _, commands = cli._build_parser()
    assert commands["verify"]._option_string_actions["--include"].default == []


# one call for each reason the plain parse hands a call to argparse
PLAIN_REJECTS = {
    "no subcommand first": ("--order-cap", "5", "build", "--ring", "zmod:5"),
    "odd token count": ("build", "--ring", "zmod:5", "extra"),
    "unknown option": ("build", "--rings", "zmod:5"),
    "abbreviation": ("analyze", "--ring", "zmod:12", "--gr", "complement"),
    "--opt=value": ("analyze", "--ring=zmod:5", "--graph=upg"),
    "--": ("build", "--ring", "zmod:5", "--", "x"),
    "takes no value": ("build", "--help", "x"),
    "dash-leading value": ("analyze", "--ring", "-5"),
    "type refused": ("survey", "--family", "zmod", "--max", "3.0"),
    "choice refused": ("analyze", "--ring", "zmod:5", "--graph", "nope"),
    "required missing": ("survey", "--family", "zmod"),
}


def _differential_corpus(seed: int, size: int, out: str) -> list[tuple[str, ...]]:
    """Seeded argvs over the four subcommands: mostly plain --option value
    pairs (required options first drawn, values valid or not), some bent
    into a shape only argparse reads.  No value is "--" in --opt=-- form,
    which every argparse before 3.13 reads its own way."""
    _, commands = cli._build_parser()
    pools = {
        "ring": ("zmod:5", "gf:2^3", "bool:2", "prod:(zmod:2,zmod:3)", "zmod:1", "zmod:5000",
                 "table:@/nonexistent.json", "nope", ""),
        "order_cap": ("64", "8", "1_0", "x", " 9 "),
        "claims": ("all", "thm-6.2", "thm-6.2,prop-3.1", "nope", "", ","),
        "zmod_max": ("0", "4", "6", "x"),
        "include": ("zmod:9", "gf:4", "zmod:2,bool:2", "nope", ""),
        "max": ("0", "3", "5", "3.0"),
    }
    rng = Random(seed)
    corpus = []
    for _ in range(size):
        name = rng.choice(sorted(commands))
        sub = commands[name]
        actions = [a for a in sub._actions if a.option_strings and a.nargs is None]
        chosen = [a for a in actions if a.required and rng.random() < 0.9]
        chosen += rng.sample(actions, rng.randrange(4))
        argv = [name]
        for action in chosen:
            if action.dest == "out":
                value = out
            elif rng.random() < 0.05:
                value = rng.choice(("-1", "-x", "--", "--ring"))
            else:
                value = rng.choice([*(action.choices or pools[action.dest]), "nope"])
            argv += [action.option_strings[0], value]
        bend = rng.random()
        if bend < 0.05 and len(argv) > 1:
            i = rng.randrange(1, len(argv), 2)  # --opt=value
            if argv[i + 1] != "--":
                argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        elif bend < 0.10 and len(argv) > 1:
            i = rng.randrange(1, len(argv), 2)  # an abbreviation
            argv[i] = argv[i][: rng.randrange(3, len(argv[i]) + 1)]
        elif bend < 0.14:
            del argv[rng.randrange(len(argv))]
        elif bend < 0.18:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(("--", "-h", "--nope", "x")))
        corpus.append(tuple(argv))
    return corpus


def test_plain_parse_matches_argparse(monkeypatch, tmp_path):
    # the differential check of the plain --option value parse: every call
    # gives the parse from the top's exit code and bytes, and every call it
    # reads gives the subparser's own Namespace.  A bent call may still
    # write a file; it lands in tmp_path
    monkeypatch.chdir(tmp_path)
    _, commands = cli._build_parser()
    for argv in PLAIN_REJECTS.values():
        sub = commands.get(argv[0])
        assert sub is None or cli._plain_args(sub, list(argv[1:])) is None, argv
    corpus = _differential_corpus(31, 2000, str(tmp_path / "out")) + list(PLAIN_REJECTS.values())
    plain = 0
    for argv in corpus:
        assert run_main(cli.main, argv) == run_main(reference_main, argv), argv
        sub = commands.get(argv[0]) if argv else None
        args = cli._plain_args(sub, list(argv[1:])) if sub else None
        if args is not None:
            plain += 1
            assert vars(args) == vars(sub.parse_args(argv[1:])), argv
    assert plain >= 200


def test_dash_values_read_as_python_313_reads_them(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for argv, pinned in DASH_VALUE_CALLS.items():
        assert _pinned(run_main(cli.main, argv)) == pinned, argv
        if "--out=--" in argv:
            written = (tmp_path / "--").read_text()
            assert written == run_main(cli.main, argv[:-1])[1], argv


@pytest.mark.parametrize("python", SUPPORTED_PYTHONS)
def test_supported_pythons_match_nested_parse(python, tmp_path):
    # argparse's handling of "--", abbreviations and leftover arguments
    # has changed between releases: the one-parse path must match each,
    # and give the --opt=-- calls 3.13's outcome, which is its nested parse's
    exe, env = _interpreter(python)
    env["PYTHONPATH"] = os.pathsep.join((SRC, str(Path(__file__).resolve().parent)))
    calls = PARSE_PARITY_CALLS + tuple(DASH_VALUE_CALLS)
    res = subprocess.run(
        [exe, "-c", PARITY_SCRIPT, json.dumps(calls)],
        capture_output=True, text=True, env=env, cwd=tmp_path,  # --out=-- writes ./--
    )
    assert res.returncode == 0 and res.stderr == "", res.stderr
    rows = [json.loads(line) for line in res.stdout.splitlines()]
    assert [tuple(argv) for argv, _, _ in rows] == list(calls)
    for argv, got, want in rows:
        if tuple(argv) not in DASH_VALUE_CALLS:
            assert got == want, argv
            continue
        assert _pinned(got) == DASH_VALUE_CALLS[tuple(argv)], (python, argv)
        if python == "python3.13":
            assert got == want, argv


def test_build_computes_no_split(monkeypatch, capsys):
    # build reads the UPG's rows and exports them or their complement; no
    # split of either graph is made on the way
    def refuse(self, g):
        raise AssertionError("Decomposition built")

    monkeypatch.setattr(upg.invariants.Decomposition, "__init__", refuse)
    prefix = "build --ring zmod:493 --graph complement"
    pinned = [case for case in GOLDEN_DIGESTS if case[0].startswith(prefix)]
    assert len(pinned) == 2  # DOT and JSON
    for command, code, digest in pinned:
        assert cli.main(command.split()) == code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_analyze_survey_and_verify_build_no_decomposition(monkeypatch, capsys):
    # a ring graph is split in closed form: every pinned analyze (of both
    # graphs), survey and verify prints its bytes with no Decomposition built
    def refuse(self, g):
        raise AssertionError("Decomposition built")

    monkeypatch.setattr(upg.invariants.Decomposition, "__init__", refuse)
    pinned = [case for case in GOLDEN_DIGESTS if not case[0].startswith("build")]
    graphs = {command.split()[4] for command, _, _ in pinned if command.startswith("analyze")}
    assert {command.split()[0] for command, _, _ in pinned} == {"analyze", "survey", "verify"}
    assert graphs == {"upg", "complement"}
    for command, code, digest in pinned:
        assert cli.main(command.split()) == code, command
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, command


def test_sweep_and_analyze_name_no_graph_vertex(monkeypatch, capsys):
    # only build and the exports read a ring graph's labels: the claim
    # sweep names just the units its two prop-3.1 fail witnesses print
    # ("5 inverse is 11"), and the invariant reports name none
    asked = []

    def recorded(ring):
        def name(x):
            asked.append((ring.label, x))
            return ring.element_name(x)

        def unit_names():
            asked.append((ring.label, "units"))
            return ring.unit_names()

        return replace(ring, element_name=name, unit_names=ring.unit_names and unit_names)

    commands = [
        f"analyze --ring {spec} --graph {graph}"
        for spec in ("gf:2^6", "bool:8", "prod:(zmod:4,zmod:9)")
        for graph in ("upg", "complement")
    ]
    named = {}
    for command in commands:
        assert cli.main(command.split()) == 0
        named[command] = capsys.readouterr().out
    sweep_rings = cli.default_rings
    monkeypatch.setattr(cli, "default_rings", lambda **kw: list(map(recorded, sweep_rings(**kw))))
    monkeypatch.setattr(
        cli, "parse_ring_spec", lambda spec, order_cap: recorded(rings.parse_ring_spec(spec))
    )
    command, code, digest = GOLDEN_DIGESTS[0]
    assert command == "verify --claims all --format csv"
    assert cli.main(command.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest
    assert sorted(asked) == [("Z/18", 5), ("Z/18", 11), ("Z/30", 7), ("Z/30", 13)]
    asked.clear()
    for command in commands:
        assert cli.main(command.split()) == 0
        assert capsys.readouterr().out == named[command], command
    assert asked == []


def test_sweep_survey_and_analyze_build_no_ring_graph_rows(monkeypatch):
    # a ring graph's invariants are read off its mate array: with every
    # read of adjacency rows refused, the default sweep prints its pinned
    # bytes, and survey and analyze print what they print with rows allowed
    commands = [
        ["survey", "--family", family, "--max", str(top)]
        for family, top in (("zmod", 60), ("gf", 64), ("bool", 6))
    ]
    commands += [list(op.argv) for op in bench_workloads().analyze(1)]
    assert len(commands) == 3 + 2 * 48  # both graphs of the 48 analyze rings
    printed = [run_main(cli.main, argv) for argv in commands]

    def refuse(self):
        raise AssertionError("adjacency rows read")

    monkeypatch.setattr(SimpleGraph, "adj", property(refuse), raising=False)
    command, code, digest = GOLDEN_DIGESTS[0]
    assert command == "verify --claims all --format csv"
    got, out, err = run_main(cli.main, command.split())
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    for argv, want in zip(commands, printed):
        assert run_main(cli.main, argv) == want, argv


def _patch_units(monkeypatch, replacement) -> None:
    """Put ``replacement`` in place of rings.units in every upg module."""
    original = rings.units
    for name, module in list(sys.modules.items()):
        if (name == "upg" or name.startswith("upg.")) and vars(module).get("units") is original:
            monkeypatch.setattr(module, "units", replacement)


def test_analyze_and_survey_build_no_unit_group(monkeypatch):
    # a ring graph is made from the ring's unit counts: with unit groups
    # and the GF(p^k) modulus search refused, every pinned analyze and
    # survey prints its bytes, and the benchmark's analyze calls print
    # what they print with both allowed
    pinned = [
        case for case in GOLDEN_DIGESTS + FAMILY_DIGESTS
        if case[0].startswith(("analyze", "survey"))
    ]
    assert len(pinned) == 4 + 6  # four analyze calls, six surveys
    commands = [list(op.argv) for seed in (1, 2) for op in bench_workloads().analyze(seed)]
    printed = [run_main(cli.main, argv) for argv in commands]

    def refuse(*args):
        raise AssertionError("unit group or GF(p^k) modulus built")

    _patch_units(monkeypatch, refuse)
    monkeypatch.setattr(rings, "_smallest_irreducible", refuse)
    for command, code, digest in pinned:
        got, out, err = run_main(cli.main, command.split())
        assert (got, err) == (code, ""), command
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, command
    for argv, want in zip(commands, printed):
        assert run_main(cli.main, argv) == want, argv


def test_default_sweep_builds_no_gf_table(monkeypatch):
    # is_boolean rules out a ring with more than one unit from its unit
    # counts, so the default sweep prints its pinned bytes with no GF(p^k)
    # modulus searched
    def refuse(*args):
        raise AssertionError("GF(p^k) modulus built")

    monkeypatch.setattr(rings, "_smallest_irreducible", refuse)
    command, code, digest = GOLDEN_DIGESTS[0]
    assert command == "verify --claims all --format csv"
    got, out, err = run_main(cli.main, command.split())
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_default_sweep_builds_unit_groups_for_prop31_fails_only(monkeypatch):
    # every claim reads unit counts, save prop-3.1's fail witness, which
    # names a unit and its inverse
    built = []
    original = rings.units

    def recorded(ring):
        built.append(ring.label)
        return original(ring)

    _patch_units(monkeypatch, recorded)
    command, code, digest = GOLDEN_DIGESTS[0]
    assert command == "verify --claims all --format csv"
    got, out, err = run_main(cli.main, command.split())
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert built == ["Z/18", "Z/30"]


def _oracle_reason(oracle, op, out: str) -> str | None:
    """What bench/oracle.py finds wrong with one operation's output."""
    if op.output == "csv":
        return oracle.check_sweep(out)[0]
    units, self_inverse = oracle.unit_counts(op.ring)
    if op.output == "report":
        return oracle.check_report(out, units, self_inverse, op.graph)
    check = oracle.check_dot if op.output == "dot" else oracle.check_graph_json
    return check(out, units, oracle.expected_edges(units, self_inverse, op.graph))


def test_benchmark_operations_pass_their_oracle(monkeypatch):
    # every operation of the four benchmark workloads, seeds 1 and 2, run
    # once as the benchmark runs it: in process, output captured, with its
    # expected exit code, nothing on stderr and output its oracle accepts;
    # and no Decomposition built, since every graph they read is a ring
    # graph, split in closed form
    def refuse(self, g):
        raise AssertionError("Decomposition built")

    monkeypatch.setattr(upg.invariants.Decomposition, "__init__", refuse)
    workloads = bench_workloads()
    ops = {
        op.argv: op
        for name in workloads.WORKLOADS
        for seed in (1, 2)
        for op in workloads.generate(name, seed)
    }
    assert {op.output for op in ops.values()} == {"csv", "report", "dot", "json"}
    for op in ops.values():
        code, out, err = run_main(cli.main, op.argv)
        assert (code, err) == (op.expect_exit, ""), op.argv
        assert _oracle_reason(workloads.oracle, op, out) is None, op.argv


def test_default_sweep_walks_no_zmod(monkeypatch, capsys):
    # every family states its characteristic and unit counts, so no claim
    # walks an additive orbit, and only is_boolean's scan of a ring with
    # one unit multiplies: the default sweep and a sweep of rings at the
    # order cap print their pinned bytes with no add call, and mul calls
    # on rings with u = 1 alone
    calls, one_unit = [], set()

    def counted(ring):
        if ring.unity is not None and rings.unit_counts(ring)[0] == 1:
            one_unit.add(ring.label)

        def add(a, b):
            calls.append(("add", ring.label))
            return ring.add(a, b)

        def mul(a, b):
            calls.append(("mul", ring.label))
            return ring.mul(a, b)

        return replace(ring, add=add, mul=mul)

    sweep_rings = cli.default_rings
    monkeypatch.setattr(cli, "default_rings", lambda **kw: list(map(counted, sweep_rings(**kw))))
    include = (
        "verify --claims all --include zmod:4093 --include gf:2^12 --include bool:12"
        " --include prod:(zmod:64,zmod:63) --format csv",
        1,
        "aee3b7f9d8691880e8486eface7ed43ad0da55b7e626558437ea9dd6fa9e6a8d",
    )
    assert GOLDEN_DIGESTS[0][0] == "verify --claims all --format csv"
    for command, code, digest in (GOLDEN_DIGESTS[0], include):
        assert cli.main(command.split()) == code
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest
    assert [call for call in calls if call[0] == "add"] == []
    multiplied = {label for _, label in calls}
    assert " × ".join(["Z/2"] * 12) in multiplied
    assert multiplied <= one_unit


def test_main_in_process_smoke(capsys):
    code = cli.main(["verify", "--claims", "thm-6.2", "--zmod-max", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "thm-6.2" in out
