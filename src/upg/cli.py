"""Command line interface.

Subcommands:
  build    emit a unity product graph (or its complement) as DOT or JSON
  analyze  print the exact invariant report for one graph
  verify   sweep claims over ring families and report verdicts
  survey   one CSV row of invariants per ring in a family

Exit codes: 0 success (verify: no failing verdict), 1 verify found at
least one fail, 2 usage error, bad ring spec, unknown claim id, or any
failed write to stdout or the --out file (a broken pipe, a full device,
a closed descriptor, or a character its encoding lacks), 3 ring has no
unity element, 4 a survey family over the order cap.

Output is deterministic: rerunning a command byte-identically reproduces
it.  Everything ends with a newline; no CSV field holds a comma or line break.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from collections.abc import Iterable
from contextlib import nullcontext

from . import claims as claims_mod
from . import invariants as inv
from .claims import FAIL, RingContext, UnknownClaimError, builtin_claims, default_rings, lookup
from .graphs import dot_chunks, json_chunks
from .rings import (
    DEFAULT_ORDER_CAP,
    FAMILIES,
    FiniteRing,
    OrderCapError,
    RingError,
    decimal_int,
    family,
    parse_ring_spec,
    split_top_level,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NO_UNITY = 3
EXIT_BOUND = 4


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _emit(output: str | Iterable[str], out: str | None) -> None:
    """Write one text, or its chunks as they come, to stdout or the --out
    file; any failed write exits 2 with one line and leaves FILE as it was."""
    chunks = (output,) if isinstance(output, str) else output
    tmp = None
    try:
        real = out and os.path.realpath(out)
        new = real and not os.path.exists(real)
        dir_writable = real and os.access(os.path.dirname(real), os.W_OK)
        if dir_writable and (new or os.path.isfile(real) and os.access(real, os.W_OK)):
            # a new sibling ("x" clobbers nothing) replaces FILE whole at the end
            target = open(f"{real}.{os.getpid()}.tmp", "x")
            tmp = target.name
            if not new:
                os.chmod(tmp, os.stat(real).st_mode & 0o7777)
        else:  # stdout, a device, a FIFO, a read-only FILE: opened as they are
            target = nullcontext(sys.stdout) if out is None else open(out, "w")
        with target as fh:
            if fh is None:  # stdout was closed before start
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
        if tmp:
            os.replace(tmp, real)
    except (OSError, UnicodeEncodeError) as exc:
        if tmp:
            os.remove(tmp)
        if out is None and sys.stdout is not None:
            # point the descriptor at devnull, so the interpreter's final
            # flush of what is left raises nothing
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        where = "to stdout" if out is None else repr(out)
        reason = exc.strerror if isinstance(exc, OSError) else _unencodable(exc)
        raise _CliError(EXIT_USAGE, f"cannot write {where}: {reason}") from None


def _unencodable(exc: UnicodeEncodeError) -> str:
    return f"{exc.object[exc.start : exc.end]!r} has no {exc.encoding} encoding"


def _non_negative_int(text: str) -> int:
    """An integer spelled as in a ring spec (``decimal_int``), not negative."""
    try:
        value = decimal_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _resolve_ring(spec: str, order_cap: int) -> FiniteRing:
    try:
        return parse_ring_spec(spec, order_cap=order_cap)
    except RingError as exc:
        # covers malformed specs, order cap violations and axiom failures
        raise _CliError(EXIT_USAGE, f"ring spec {spec!r}: {exc}") from None


def _graph_report(ring: FiniteRing, graph: str) -> inv.InvariantReport:
    """The report of the ring's unity product graph, or of its complement,
    from the ring's RingContext; exit 3 when it has no unity."""
    if ring.unity is None:
        raise _CliError(EXIT_NO_UNITY, f"ring {ring.label} has no unity element")
    ctx = RingContext(ring)
    return ctx.comp_report if graph == "complement" else ctx.upg_report


def cmd_build(args: argparse.Namespace) -> int:
    g = _graph_report(_resolve_ring(args.ring, args.order_cap), args.graph).graph
    # streamed, so a cap-size graph is never held as one document
    _emit(dot_chunks(g) if args.format == "dot" else json_chunks(g), args.out)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    report = _graph_report(_resolve_ring(args.ring, args.order_cap), args.graph).check()
    text = report.to_text() if args.format == "text" else report.to_json()
    _emit(text, args.out)
    return EXIT_OK


def _selected_claims(claims_arg: str):
    """The claims named by a comma separated id list, each once, in the
    order first named; empty ids are skipped."""
    if claims_arg == "all":
        return builtin_claims()
    selected = []
    for claim_id in dict.fromkeys(filter(None, claims_arg.split(","))):
        try:
            selected.append(lookup(claim_id))
        except UnknownClaimError:
            raise _CliError(EXIT_USAGE, f"unknown claim id {claim_id!r}") from None
    if not selected:
        raise _CliError(EXIT_USAGE, "no claim ids given")
    return tuple(selected)


def _include_specs(values) -> list[str]:
    specs: list[str] = []
    for value in values or ():
        specs.extend(s for s in split_top_level(value) if s)
    return specs


def cmd_verify(args: argparse.Namespace) -> int:
    from .sweep import render_csv, render_json, render_text, run_sweep, summarize

    selected = _selected_claims(args.claims)
    try:
        rings = default_rings(
            zmod_max=args.zmod_max,
            order_cap=args.order_cap,
            include=_include_specs(args.include),
        )
    except RingError as exc:
        raise _CliError(EXIT_USAGE, f"bad ring spec: {exc}") from None
    verdicts = run_sweep(selected, rings)
    renderer = {"text": render_text, "json": render_json, "csv": render_csv}[args.format]
    # every format comes one claim at a time, so no whole output is held
    _emit(renderer(verdicts), args.out)
    return EXIT_FAIL if summarize(verdicts)[FAIL] else EXIT_OK


def cmd_survey(args: argparse.Namespace) -> int:
    try:
        rings = family(args.family, args.max, order_cap=args.order_cap)
    except OrderCapError as exc:
        raise _CliError(EXIT_BOUND, f"survey bound violation: {exc}") from None
    header = ["ring", "order", "units", "isolated", "pairs"]
    header += [f"upg_{c}" for c in inv.SURVEY_FIELDS]
    header += [f"comp_{c}" for c in inv.SURVEY_FIELDS]
    lines = [",".join(header)]
    for ring in rings:
        ctx = RingContext(ring)
        row = [ring.label, str(ring.order), str(ctx.unit_count), str(ctx.isolated), str(ctx.pairs)]
        for report in (ctx.upg_report, ctx.comp_report):
            row.extend(map(report.check().text, inv.SURVEY_FIELDS))
        lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def _get_values(self, action, arg_strings):
        # before 3.13, argparse drops the "--" of --opt=--: read it, as 3.13 does
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


@functools.cache  # one tree per process; parsing leaves it unchanged
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="upg",
        description="Unity product graphs of finite commutative rings: "
        "build graphs, compute exact invariants, verify claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--order-cap",
            type=_non_negative_int,
            default=DEFAULT_ORDER_CAP,
            help="largest ring order accepted (default %(default)s)",
        )
        p.add_argument("--out", help="write output to this file instead of stdout")

    for name, summary, formats, func in (
        ("build", "emit a graph as DOT or JSON", ("dot", "json"), cmd_build),
        ("analyze", "print the invariant report", ("text", "json"), cmd_analyze),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--ring", required=True, help="ring spec, e.g. zmod:16")
        p.add_argument("--graph", choices=("upg", "complement"), default="upg")
        p.add_argument("--format", choices=formats, default=formats[0])
        common(p)
        p.set_defaults(func=func)

    p_verify = sub.add_parser("verify", help="sweep claims over ring families")
    p_verify.add_argument(
        "--claims",
        default="all",
        help="comma separated claim ids, or 'all' (default)",
    )
    p_verify.add_argument(
        "--zmod-max",
        type=_non_negative_int,
        default=claims_mod.DEFAULT_ZMOD_MAX,
        help="sweep Z/n for n up to this bound (default %(default)s)",
    )
    p_verify.add_argument(
        "--include",
        action="append",
        default=[],
        metavar="SPECS",
        help="extra ring specs, comma separated; repeatable",
    )
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_survey = sub.add_parser("survey", help="per-ring invariant CSV for a family")
    p_survey.add_argument("--family", choices=FAMILIES, required=True)
    p_survey.add_argument(
        "--max",
        type=_non_negative_int,
        required=True,
        help="zmod: largest modulus; gf: largest field order; bool: most factors",
    )
    p_survey.add_argument("--format", choices=("csv",), default="csv")
    common(p_survey)
    p_survey.set_defaults(func=cmd_survey)

    return parser, sub.choices


_ONE_VALUE = (argparse._StoreAction, argparse._AppendAction)


def _plain_args(sub: argparse.ArgumentParser, pairs: list[str]) -> argparse.Namespace | None:
    """The Namespace of a call made only of exact ``--option value`` pairs,
    read off the subparser's own actions through its own type and choices
    checks; None for any other shape or any value those checks refuse."""
    if len(pairs) % 2:
        return None
    defaults = {a.dest: a.default for a in sub._actions if a.default is not argparse.SUPPRESS}
    args, seen = argparse.Namespace(**(sub._defaults | defaults)), set()
    for option, text in zip(pairs[::2], pairs[1::2]):
        action = sub._option_string_actions.get(option)
        if type(action) not in _ONE_VALUE or action.nargs is not None or text.startswith("-"):
            return None
        try:
            value = sub._get_value(action, text)
            sub._check_value(action, value)
        except argparse.ArgumentError:
            return None
        if type(action) is argparse._AppendAction:  # a fresh list, as argparse makes
            value = [*(getattr(args, action.dest) or ()), value]
        setattr(args, action.dest, value)
        seen.add(action)
    return None if any(a.required and a not in seen for a in sub._actions) else args


def main(argv=None) -> int:
    """Run one command line (argv: strings, sys.argv[1:] by default).  Plain
    ``--option value`` pairs after a subcommand are read off its actions; any
    other call is parsed from the top, so argparse writes every message, and
    reads ``--opt=--`` as 3.13 does on every version (``_Parser``)."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = commands.get(argv[0]) if argv else None
    args = (_plain_args(sub, argv[1:]) if sub else None) or parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        try:  # as argparse writes its own: a closed stderr loses the line, not the code
            sys.stderr.write(f"error: {exc.message}\n")
        except (AttributeError, OSError):
            pass
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
