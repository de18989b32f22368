"""Command-line surface for the invariant calculators.

Commands: hilbert, series, degree, generators, coh-sym, coh-wedge,
coh-canonical, coh-line, tangent-cone, cone, sweep, validate.  Every number
is emitted exactly (rationals as "p/q", big integers as decimal strings) and
output is byte-identical across runs of the same request.

Exit codes: 0 success; 1 failed validation; 2 usage or domain errors
(including unknown flags); 3 internal consistency failures.

The parser is built once per process and shared by every ``run``.  A command
line whose first word names a command is parsed by that command's own parser
alone; any other (empty, ``--help``, an unknown word, an option first) goes to
the top-level parser.  Either way the namespace, usage message and help text
are those of the top-level parser.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, TextIO

from .cohomology import (
    TABLE_PARAMS,
    LineBundleClass,
    canonical_twist_table,
    line_bundle_table,
    sym_secant_table,
    wedge_secant_table,
)
from .errors import DomainError, SecantInvError, UsageError
from .exactmath import QPolynomial
from .secant_core import (
    _MAX_ORDER,
    _MAX_TWIST,
    SecantInstance,
    _admit,
    _refuse,
    canonical_h0,
    generator_count,
    hilbert_function,
    hilbert_polynomial,
    hilbert_series,
    variety_degree,
)
from .tangent_geometry import cone_over_secant, tangent_cone_at

FORMATS = ("text", "json", "csv", "latex")
# Admission limit: the most grid cells one sweep may request.
_MAX_SWEEP_CELLS = 10_000


def latex_rational(value: Fraction) -> str:
    """A nonnegative rational in LaTeX."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"\\frac{{{value.numerator}}}{{{value.denominator}}}"


def latex_polynomial(poly: QPolynomial) -> str:
    return poly.spell(latex_rational, lambda n: "t" if n == 1 else f"t^{{{n}}}", " ")


_LATEX_ESCAPES = str.maketrans(
    {c: "\\" + c for c in "&%$#_{}"}
    | {"\\": "\\textbackslash{}", "~": "\\textasciitilde{}", "^": "\\textasciicircum{}"}
)


def _tabular(columns: str, head: Sequence[str], rows) -> str:
    """A LaTeX tabular with column spec ``columns``, an optional header row
    ``head`` (raw LaTeX) and body ``rows``, whose cells are escaped."""
    lines = [f"\\begin{{tabular}}{{{columns}}}"]
    if head:
        lines.append(" & ".join(head) + " \\\\")
    for row in rows:
        lines.append(" & ".join(str(cell).translate(_LATEX_ESCAPES) for cell in row) + " \\\\")
    lines.append("\\end{tabular}")
    return _lines(lines)


def _csv(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _lines(lines) -> str:
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Document:
    """A command's result: its JSON payload, the layout that renders the
    payload in the other formats, the lines ``run`` writes to stderr beside
    it, and the exit code it returns."""

    payload: dict
    layout: Callable[[dict, str], str]
    notes: tuple[str, ...] = ()
    exit_code: int = 0

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.payload, indent=2, sort_keys=True) + "\n"
        return self.layout(self.payload, fmt)


# --- layouts: (payload, fmt) -> document, for every format but json --------

def _scalar_layout(payload: dict, fmt: str) -> str:
    if fmt == "csv":
        return _csv([("key", "value"), ("value", payload["value"])])
    return payload["value"] + "\n"


def _polynomial_layout(payload: dict, fmt: str) -> str:
    if fmt == "csv":
        return _csv([("power", "coefficient"), *enumerate(payload["coefficients"])])
    poly = QPolynomial.from_strings(payload["coefficients"])
    return _lines([latex_polynomial(poly) if fmt == "latex" else str(poly)])


def _series_layout(payload: dict, fmt: str) -> str:
    krull_dim = payload["krull_dim"]
    if fmt == "csv":
        rows = [(f"numerator[{power}]", c) for power, c in enumerate(payload["numerator"])]
        return _csv([("key", "value"), *rows, ("krull_dim", krull_dim)])
    numerator = QPolynomial.from_strings(payload["numerator"])
    if fmt == "latex":
        return _lines([f"\\frac{{{latex_polynomial(numerator)}}}{{(1 - t)^{{{krull_dim}}}}}"])
    return _lines([f"numerator = {numerator}", f"krull_dim = {krull_dim}"])


def _table_layout(payload: dict, fmt: str) -> str:
    rows = [(e["i"], e["l"], e["dim"]) for e in payload["entries"]]
    if fmt == "csv":
        return _csv([("i", "l", "dim"), *rows])  # a missing twist is an empty cell
    shown = [(i, "-" if twist is None else twist, dim) for i, twist, dim in rows]
    if fmt == "latex":
        return _tabular("rrr", ("i", "\\ell", "h^i"), shown)
    family, params = payload["family"], payload["params"]
    return _lines([
        f"family {family}",
        *(f"{key} = {params[key]}" for key in TABLE_PARAMS[family]),
        "i  l  dim",
        *(f"{i:<2} {twist:<2} {dim}" for i, twist, dim in shown),
    ])


def _flatten_json(prefix: str, value):
    """(dotted key, value) pairs of the leaves of a JSON value, keys sorted;
    null and booleans keep their JSON spelling."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten_json(f"{prefix}.{key}" if prefix else key, value[key])
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _flatten_json(f"{prefix}[{index}]", item)
    else:
        yield prefix, json.dumps(value) if value is None or isinstance(value, bool) else str(value)


def _record_layout(payload: dict, fmt: str) -> str:
    flat = list(_flatten_json("", payload))
    if fmt == "csv":
        return _csv([("key", "value"), *flat])
    if fmt == "latex":
        return _tabular("ll", (), flat)
    return _lines(f"{key} = {value}" for key, value in flat)


def _sweep_layout(payload: dict, fmt: str) -> str:
    rows = [(c["genus"], c["degree"], c["order"], c["value"]) for c in payload["cells"]]
    if fmt == "csv":
        return _csv([("genus", "degree", "order", "value"), *rows])
    if fmt == "latex":
        return _tabular("rrrr", ("g", "d", "k", "value"), rows)
    return _lines([
        f"{'g':>3} {'d':>4} {'k':>3}  {payload['invariant']}",
        *(f"{g:>3} {d:>4} {k:>3}  {value}" for g, d, k, value in rows),
    ])


_CHECK_COLUMNS = ("name", "status", "seconds", "detail")


def _validate_layout(payload: dict, fmt: str) -> str:
    checks = payload["checks"]
    rows = [(c["name"], c["status"], f"{c['seconds']:.3f}", c["detail"]) for c in checks]
    if fmt == "csv":
        return _csv([_CHECK_COLUMNS, *rows])
    if fmt == "latex":
        return _tabular("llrl", _CHECK_COLUMNS, rows)
    total = sum(c["seconds"] for c in checks)
    return _lines([
        *(f"{status}  {name:<45} {seconds:>8}s" + (f"  [{detail}]" if detail else "")
          for name, status, seconds, detail in rows),
        f"{payload['passed']} passed, {payload['failed']} failed in {total:.3f}s",
    ])


# --- argument plumbing ------------------------------------------------------

def _range_argument(text: str) -> range:
    """Inclusive integer range "a:b", or a single integer "a"."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            value = int(parts[0])
            return range(value, value + 1)
        if len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
            if hi < lo:
                raise ValueError
            return range(lo, hi + 1)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected an inclusive range 'a:b' or a single integer, got {text!r}"
    )


def _add_instance_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--genus", type=int, required=True)
    parser.add_argument("--degree", type=int, required=True)
    parser.add_argument("--order", type=int, required=True)


class _HelpRequested(Exception):
    """``--help`` was given; the one argument is the help text."""


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as :class:`UsageError`, so that it gets the
    one ``error: usage: <message>`` line instead of argparse's usage block
    on the process's stderr, and ``--help`` as :class:`_HelpRequested`, so
    that ``run`` writes the text like any document.  Subparsers inherit the
    class; the top-level parser's ``commands`` maps each command name to its
    subparser."""

    commands: dict[str, argparse.ArgumentParser]

    def error(self, message: str):
        raise UsageError(message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


def build_parser() -> _Parser:
    """The command-line parser, built on first use and shared by every run.

    A plain function around the cached builder, so that the benchmark's
    tracer, which wraps plain functions only, still counts and times it."""
    return _build_parser()


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="secantinv",
        description="Exact invariants of secant varieties of smooth projective curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    for name, help_text in (
        ("hilbert", "Hilbert polynomial of the secant variety"),
        ("series", "Hilbert series numerator and Krull dimension"),
        ("degree", "degree of the secant variety"),
        ("generators", "minimal generators of the defining ideal"),
    ):
        _add_instance_options(sub.add_parser(name, help=help_text))

    p = sub.add_parser("coh-sym", help="cohomology of symmetric powers of the secant sheaf")
    _add_instance_options(p)
    p.add_argument("--twist", type=int, required=True)

    p = sub.add_parser("coh-wedge", help="cohomology of exterior powers of the secant sheaf")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--points", type=int, required=True,
                   help="size of the symmetric product")
    p.add_argument("--twist", type=int, required=True,
                   help="exterior power, between 1 and points")
    p.add_argument("--degree-of-L", type=int, required=True, dest="degree_of_l")
    p.add_argument("--degree-of-M", type=int, required=True, dest="degree_of_m")
    p.add_argument("--h1-of-L", type=int, default=None, dest="h1_of_l")
    p.add_argument("--h1-of-M", type=int, default=None, dest="h1_of_m")
    p.add_argument("--h1-of-LM", type=int, default=None, dest="h1_of_lm")

    p = sub.add_parser("coh-canonical", help="canonical-twisted cohomology dimensions")
    _add_instance_options(p)
    p.add_argument("--twist", type=int, required=True)

    p = sub.add_parser("coh-line", help="cohomology of the N/T line bundles on a symmetric product")
    p.add_argument("--family", choices=("N", "T"), required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--degree", type=int, required=True, help="degree of the line bundle")
    p.add_argument("--h1-of-L", type=int, default=None, dest="h1_of_l")

    p = sub.add_parser("tangent-cone", help="tangent-cone descriptor at a singular stratum")
    _add_instance_options(p)
    p.add_argument("--stratum", type=int, required=True)

    p = sub.add_parser("cone", help="cone over the secant variety with a linear vertex")
    _add_instance_options(p)
    p.add_argument("--vertex-count", type=int, required=True, dest="vertex_count")

    p = sub.add_parser("sweep", help="evaluate an invariant over a parameter grid")
    p.add_argument("--genus-range", type=_range_argument, required=True, dest="genus_range")
    p.add_argument("--degree-range", type=_range_argument, required=True, dest="degree_range")
    p.add_argument("--order-range", type=_range_argument, required=True, dest="order_range")
    p.add_argument(
        "--invariant",
        choices=("degree", "generators", "canonical-h0", "hilbert"),
        required=True,
    )
    p.add_argument("--twist", type=int, default=1,
                   help="twist for --invariant hilbert (default 1)")

    sub.add_parser("validate", help="run the full self-validation catalogue")

    for p in sub.choices.values():  # every command writes one document
        p.add_argument("--format", choices=FORMATS, default="text")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write the document to PATH instead of stdout")
    return parser


# --- command handlers -------------------------------------------------------

def _instance(args: argparse.Namespace) -> SecantInstance:
    return SecantInstance(args.genus, args.degree, args.order)


def _handle_coh_wedge(args) -> Document:
    bundle = LineBundleClass.from_degree(args.genus, args.degree_of_l, args.h1_of_l)
    twisting = LineBundleClass.from_degree(args.genus, args.degree_of_m, args.h1_of_m)
    product = None
    if args.h1_of_lm is not None:
        product = LineBundleClass.from_degree(
            args.genus, args.degree_of_l + args.degree_of_m, args.h1_of_lm
        )
    table = wedge_secant_table(args.points, args.twist, bundle, twisting, product)
    return Document(table.to_json_dict(), _table_layout)


def _handle_coh_line(args) -> Document:
    bundle = LineBundleClass.from_degree(args.genus, args.degree, args.h1_of_l)
    table = line_bundle_table(args.family, args.points, bundle)
    return Document(table.to_json_dict(), _table_layout)


def _handle_sweep(args) -> Document:
    invariant = {
        "degree": variety_degree,
        "generators": generator_count,
        "canonical-h0": canonical_h0,
        "hilbert": lambda inst: hilbert_function(inst, args.twist),
    }[args.invariant]
    grid = (args.genus_range, args.degree_range, args.order_range)
    requested = math.prod(r.stop - r.start for r in grid)  # len() overflows past 2**63
    if requested > _MAX_SWEEP_CELLS:
        _refuse("sweep grid has {} cells, more than the maximum {maximum}",
                ("sweep grid cell count", requested), maximum=_MAX_SWEEP_CELLS)
    # a cell past a limit is skipped, so the limits every cell shares are checked first
    _admit("order", args.order_range[-1], limit=_MAX_ORDER, limit_name="maximum order")
    if args.invariant == "hilbert":
        _admit("twist", args.twist, 0, _MAX_TWIST,
               "twist {} must be nonnegative for --invariant hilbert")
    cells = []
    notes = []
    for g in args.genus_range:
        for d in args.degree_range:
            for k in args.order_range:
                try:
                    value = invariant(SecantInstance(g, d, k))
                except UsageError as exc:
                    notes.append(f"skip: genus {g} degree {d} order {k}: {exc}")
                    continue
                cells.append((g, d, k, value))
    if not cells:
        raise DomainError("sweep grid contains no valid instances")
    payload = {
        "invariant": args.invariant,
        "cells": [{"genus": g, "degree": d, "order": k, "value": str(value)}
                  for g, d, k, value in cells],
    }
    if args.invariant == "hilbert":
        payload["twist"] = args.twist
    return Document(payload, _sweep_layout, notes=tuple(notes))


def _handle_validate(args) -> Document:
    from .validation import run_catalogue

    results = run_catalogue()
    failed = sum(not r.passed for r in results)
    checks = [{"name": r.name, "status": "PASS" if r.passed else "FAIL",
               "seconds": round(r.seconds, 3), "detail": r.detail} for r in results]
    return Document({"checks": checks, "passed": len(results) - failed, "failed": failed},
                    _validate_layout, exit_code=1 if failed else 0)


_HANDLERS = {
    "hilbert": lambda args: Document(
        {"coefficients": hilbert_polynomial(_instance(args)).to_strings()}, _polynomial_layout),
    "series": lambda args: Document(hilbert_series(_instance(args)).to_json_dict(), _series_layout),
    "degree": lambda args: Document({"value": str(variety_degree(_instance(args)))}, _scalar_layout),
    "generators": lambda args: Document(
        {"value": str(generator_count(_instance(args)))}, _scalar_layout),
    "coh-sym": lambda args: Document(
        sym_secant_table(_instance(args), args.twist).to_json_dict(), _table_layout),
    "coh-wedge": _handle_coh_wedge,
    "coh-canonical": lambda args: Document(
        canonical_twist_table(_instance(args), args.twist).to_json_dict(), _table_layout),
    "coh-line": _handle_coh_line,
    "tangent-cone": lambda args: Document(
        tangent_cone_at(_instance(args), args.stratum).to_json_dict(), _record_layout),
    "cone": lambda args: Document(
        cone_over_secant(_instance(args), args.vertex_count).to_json_dict(), _record_layout),
    "sweep": _handle_sweep,
    "validate": _handle_validate,
}


def _write_out(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it, so that
    a failed write leaves no partial document."""
    temporary = f"{path}.{os.getpid()}.tmp"
    created = False
    try:
        with open(temporary, "x", encoding="utf-8", newline="") as handle:
            created = True
            handle.write(text)
        os.replace(temporary, path)
    except OSError as exc:
        if created:
            os.unlink(temporary)
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_stream(out: TextIO, text: str) -> None:
    """Write ``text`` to ``run``'s stdout and flush it, so that a closed pipe
    is reported here rather than at interpreter exit."""
    try:
        out.write(text)
        out.flush()
    except OSError as exc:
        raise UsageError(f"cannot write stdout: {exc.strerror or exc}") from exc


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace, usage error or help text that ``build_parser().parse_args``
    gives for ``argv``.  A command line that starts with a command name goes
    straight to that command's parser, which the top-level parser would hand
    the rest to anyway, so it is parsed once instead of twice."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def run(argv: Sequence[str], stdout: Optional[TextIO] = None,
        stderr: Optional[TextIO] = None) -> int:
    """Parse and execute one request; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        try:
            args = _parse(list(argv))
        except _HelpRequested as request:
            _write_stream(out, request.args[0])
            return 0
        document = _HANDLERS[args.command](args)
        rendered = document.render(args.format)
        if args.out:
            _write_out(args.out, rendered)
        for note in document.notes:
            print(note, file=err)
        if not args.out:
            _write_stream(out, rendered)
    except SecantInvError as exc:
        print(f"error: {exc.code}: {exc}", file=err)
        return exc.exit_code
    return document.exit_code


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError:
        # run has reported the failed write; what is still buffered goes to
        # the null device, so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
