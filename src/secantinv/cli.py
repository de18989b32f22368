"""Command-line surface for the invariant calculators.

Commands: hilbert, series, degree, generators, coh-sym, coh-wedge,
coh-canonical, coh-line, tangent-cone, cone, sweep, validate.  Every number
is emitted exactly (rationals as "p/q", big integers as decimal strings) and
output is byte-identical across runs of the same request.

Exit codes: 0 success; 1 failed validation; 2 usage or domain errors
(including unknown flags); 3 internal consistency failures.

How a line is parsed: one table holds each command's help line, options
and handler.  A well-formed line (a command name, then pairs of an exact
long flag and its value, each flag once, every required flag given, no value
starting with ``-`` unless it is ``-`` and ASCII digits, and every value
converted and among its choices) is read straight from that table, with no
argparse.  Every other line (help, an abbreviation, ``--flag=value``, ``--``,
a repeated flag, any usage error, a line that names no command) goes to the
top-level argparse parser, built from the same table once per process.
Both paths give the same namespace; help is laid out for 80 columns on any
terminal.
"""

from __future__ import annotations

import functools
import io
import math
import os
import sys
from types import SimpleNamespace
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
from .exactmath import _Frozen, _spell
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


def latex_rational(magnitude: str) -> str:
    """A nonnegative rational, given as its "p/q" or "p" string, in LaTeX."""
    numerator, slash, denominator = magnitude.partition("/")
    return f"\\frac{{{numerator}}}{{{denominator}}}" if slash else magnitude


def latex_polynomial(coefficients: Sequence[str]) -> str:
    """The polynomial whose wire strings are ``coefficients`` in LaTeX."""
    return _spell(coefficients, latex_rational, lambda n: "t" if n == 1 else f"t^{{{n}}}", " ")


_LATEX_ESCAPES = str.maketrans(
    {c: "\\" + c for c in "&%$#_{}"}
    | {"\\": "\\textbackslash{}", "~": "\\textasciitilde{}", "^": "\\textasciicircum{}"}
)
_LATEX_SPECIALS = frozenset("&%$#_{}\\~^")


def _tabular(columns: str, head: Sequence[str], rows) -> str:
    """A LaTeX tabular with column spec ``columns``, an optional header row
    ``head`` (raw LaTeX) and body ``rows``, whose cells are escaped."""
    lines = [f"\\begin{{tabular}}{{{columns}}}"]
    if head:
        lines.append(" & ".join(head) + " \\\\")
    for row in rows:  # a cell with no special character skips the translation
        lines.append(" & ".join([text if _LATEX_SPECIALS.isdisjoint(text)
                                 else text.translate(_LATEX_ESCAPES) for text in map(str, row)])
                     + " \\\\")
    lines.append("\\end{tabular}")
    return _lines(lines)


def _csv(rows) -> str:
    import csv  # here, so that only a csv document loads it

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _lines(lines) -> str:
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    """``payload`` as ``json.dumps(payload, indent=2, sort_keys=True)`` spells
    it, for a value of dicts with string keys, lists, tuples, strings, ints,
    floats, booleans and None."""
    from json.encoder import encode_basestring_ascii as quote  # only a json document loads json

    def spelled(value, indent: str) -> str:  # ``indent``: the break and indent of value's line
        if isinstance(value, str):
            return quote(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float):  # json spells the non-finite floats its own way
            text = float.__repr__(value)
            return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
        inner = indent + "  "
        if isinstance(value, dict):
            items = [f"{quote(key)}: {spelled(value[key], inner)}" for key in sorted(value)]
            return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
        items = [spelled(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"

    return spelled(payload, "\n")


class Document(_Frozen):
    """A command's result: its JSON payload, the layout that renders the
    payload in the other formats, the lines ``run`` writes to stderr beside
    it, and the exit code it returns."""

    payload: dict
    layout: Callable[[dict, str], str]
    notes: tuple[str, ...]
    exit_code: int

    def __init__(self, payload: dict, layout: Callable[[dict, str], str],
                 notes: tuple[str, ...] = (), exit_code: int = 0) -> None:
        self.__dict__.update(payload=payload, layout=layout, notes=notes, exit_code=exit_code)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return _json(self.payload) + "\n"
        return self.layout(self.payload, fmt)


# --- layouts: (payload, fmt) -> document, for every format but json --------

def _scalar_layout(payload: dict, fmt: str) -> str:
    if fmt == "csv":
        return _csv([("key", "value"), ("value", payload["value"])])
    return payload["value"] + "\n"


def _polynomial_layout(payload: dict, fmt: str) -> str:
    if fmt == "csv":
        return _csv([("power", "coefficient"), *enumerate(payload["coefficients"])])
    coefficients = payload["coefficients"]
    return _lines([latex_polynomial(coefficients) if fmt == "latex" else _spell(coefficients)])


def _series_layout(payload: dict, fmt: str) -> str:
    krull_dim = payload["krull_dim"]
    if fmt == "csv":
        rows = [(f"numerator[{power}]", c) for power, c in enumerate(payload["numerator"])]
        return _csv([("key", "value"), *rows, ("krull_dim", krull_dim)])
    numerator = payload["numerator"]
    if fmt == "latex":
        return _lines([f"\\frac{{{latex_polynomial(numerator)}}}{{(1 - t)^{{{krull_dim}}}}}"])
    return _lines([f"numerator = {_spell(numerator)}", f"krull_dim = {krull_dim}"])


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


def _flatten_json(prefix: str, value, flat: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """``flat`` with the (dotted key, value) pairs of the leaves of a JSON
    value appended, keys sorted; null and booleans keep their JSON spelling."""
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten_json(f"{prefix}.{key}" if prefix else key, value[key], flat)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _flatten_json(f"{prefix}[{index}]", item, flat)
    elif value is None:
        flat.append((prefix, "null"))
    elif isinstance(value, bool):
        flat.append((prefix, "true" if value else "false"))
    else:
        flat.append((prefix, str(value)))
    return flat


def _record_layout(payload: dict, fmt: str) -> str:
    flat = _flatten_json("", payload, [])
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


# --- the option table -------------------------------------------------------

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
    import argparse  # only to word the refusal the argparse way

    raise argparse.ArgumentTypeError(
        f"expected an inclusive range 'a:b' or a single integer, got {text!r}"
    )


# The options of a command map each flag to the keywords argparse's
# ``add_argument`` takes for it, dest and type always given: ``_build_parser``
# passes them on as they are, and ``_read`` reads a well-formed line from them
# directly.  A type of None keeps the word as it is.

def _required(dest: str, type=int, **more) -> dict:
    return {"dest": dest, "type": type, "required": True, **more}


def _optional(dest: str, default=None, type=int, **more) -> dict:
    return {"dest": dest, "type": type, "default": default, **more}


_INSTANCE = {"--genus": _required("genus"), "--degree": _required("degree"),
             "--order": _required("order")}

_DOCUMENT_OPTIONS = {  # every command writes one document
    "--format": _optional("format", "text", type=None, choices=FORMATS),
    "--out": _optional("out", type=None, metavar="PATH",
                       help="write the document to PATH instead of stdout"),
}


class _HelpRequested(Exception):
    """``--help`` was given; the one argument is the help text."""


def build_parser():
    """The argparse parser, built for the first line that needs it and
    shared by every run after.

    A plain function around the cached builder, so that the benchmark's
    tracer, which wraps plain functions only, still counts and times it."""
    return _build_parser()


@functools.cache
def _build_parser():
    """The argparse parser of the command table: the only reader of a line
    that ``_read`` leaves, and of ``--help``.  Help is laid out for 80
    columns, whatever the terminal's width."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Raises a bad command line as :class:`UsageError`, so that it gets
        the one ``error: usage: <message>`` line instead of argparse's usage
        block on the process's stderr, and ``--help`` as
        :class:`_HelpRequested`, so that ``run`` writes the text like any
        document.  Every subparser is of this class."""

        def error(self, message: str):
            raise UsageError(message)

        def print_help(self, file=None):
            raise _HelpRequested(self.format_help())

    class _TopParser(_Parser):
        """The top-level parser.  A line that starts with ``--`` and goes on
        is refused with the message argparse gives it on 3.11 to 3.13.0, on
        every interpreter: the argparse of 3.13.13 drops the ``--`` and runs
        the command after it."""

        def parse_known_args(self, args=None, namespace=None):
            if args and args[0] == "--" and len(args) > 1:
                choices = ", ".join(map(repr, _COMMANDS))
                self.error(f"argument command: invalid choice: '--' (choose from {choices})")
            return super().parse_known_args(args, namespace)

    layout = functools.partial(argparse.HelpFormatter, width=78)  # as COLUMNS=80 gives
    parser = _TopParser(
        prog="secantinv",
        description="Exact invariants of secant varieties of smooth projective curves.",
        formatter_class=layout,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, options, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text, formatter_class=layout)
        for flag, keywords in options.items():
            command.add_argument(flag, **keywords)
    return parser


# --- command handlers -------------------------------------------------------

def _instance(args) -> SecantInstance:
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


# --- the command table ------------------------------------------------------

# Every command's help line, its options, in the order its parser lists them,
# and its handler, which turns the parsed arguments into a Document.
_COMMANDS = {name: (help_text, {**options, **_DOCUMENT_OPTIONS}, handler)
             for name, help_text, options, handler in (
    ("hilbert", "Hilbert polynomial of the secant variety", _INSTANCE, lambda args: Document(
        {"coefficients": hilbert_polynomial(_instance(args)).to_strings()}, _polynomial_layout)),
    ("series", "Hilbert series numerator and Krull dimension", _INSTANCE,
     lambda args: Document(hilbert_series(_instance(args)).to_json_dict(), _series_layout)),
    ("degree", "degree of the secant variety", _INSTANCE,
     lambda args: Document({"value": str(variety_degree(_instance(args)))}, _scalar_layout)),
    ("generators", "minimal generators of the defining ideal", _INSTANCE, lambda args: Document(
        {"value": str(generator_count(_instance(args)))}, _scalar_layout)),
    ("coh-sym", "cohomology of symmetric powers of the secant sheaf",
     {**_INSTANCE, "--twist": _required("twist")}, lambda args: Document(
        sym_secant_table(_instance(args), args.twist).to_json_dict(), _table_layout)),
    ("coh-wedge", "cohomology of exterior powers of the secant sheaf", {
        "--genus": _required("genus"),
        "--points": _required("points", help="size of the symmetric product"),
        "--twist": _required("twist", help="exterior power, between 1 and points"),
        "--degree-of-L": _required("degree_of_l"),
        "--degree-of-M": _required("degree_of_m"),
        "--h1-of-L": _optional("h1_of_l"),
        "--h1-of-M": _optional("h1_of_m"),
        "--h1-of-LM": _optional("h1_of_lm"),
    }, _handle_coh_wedge),
    ("coh-canonical", "canonical-twisted cohomology dimensions",
     {**_INSTANCE, "--twist": _required("twist")}, lambda args: Document(
        canonical_twist_table(_instance(args), args.twist).to_json_dict(), _table_layout)),
    ("coh-line", "cohomology of the N/T line bundles on a symmetric product", {
        "--family": _required("family", type=None, choices=("N", "T")),
        "--points": _required("points"),
        "--genus": _required("genus"),
        "--degree": _required("degree", help="degree of the line bundle"),
        "--h1-of-L": _optional("h1_of_l"),
    }, _handle_coh_line),
    ("tangent-cone", "tangent-cone descriptor at a singular stratum",
     {**_INSTANCE, "--stratum": _required("stratum")}, lambda args: Document(
        tangent_cone_at(_instance(args), args.stratum).to_json_dict(), _record_layout)),
    ("cone", "cone over the secant variety with a linear vertex",
     {**_INSTANCE, "--vertex-count": _required("vertex_count")}, lambda args: Document(
        cone_over_secant(_instance(args), args.vertex_count).to_json_dict(), _record_layout)),
    ("sweep", "evaluate an invariant over a parameter grid", {
        "--genus-range": _required("genus_range", type=_range_argument),
        "--degree-range": _required("degree_range", type=_range_argument),
        "--order-range": _required("order_range", type=_range_argument),
        "--invariant": _required("invariant", type=None,
                                 choices=("degree", "generators", "canonical-h0", "hilbert")),
        "--twist": _optional("twist", 1, help="twist for --invariant hilbert (default 1)"),
    }, _handle_sweep),
    ("validate", "run the full self-validation catalogue", {}, _handle_validate),
)}


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


def _read(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse gives a well-formed ``argv``, read straight from
    the command table; None for any other line.  Well-formed: a command name,
    then pairs of an exact flag and its value, each flag once and every
    required one given, no value starting with ``-`` unless it is ``-`` and
    ASCII digits, and every value converted and among its choices."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None or not len(argv) % 2:
        return None
    options = entry[1]
    values = {}
    for flag, word in zip(argv[1::2], argv[2::2]):
        option = options.get(flag)
        if option is None or option["dest"] in values:
            return None
        if word[:1] == "-" and not (word[1:].isdigit() and word[1:].isascii()):
            return None
        convert, choices = option["type"], option.get("choices")
        try:
            value = word if convert is None else convert(word)
        except Exception:  # whatever a converter raises, argparse is the one to report it
            return None
        if choices is not None and value not in choices:
            return None
        values[option["dest"]] = value
    for option in options.values():
        if option["dest"] not in values:
            if "required" in option:
                return None
            values[option["dest"]] = option["default"]
    return SimpleNamespace(command=argv[0], **values)


def _parse(argv: list[str]):
    """The namespace, usage error or help text that ``build_parser().parse_args``
    gives for ``argv``: read by ``_read`` without argparse if the line is
    well-formed, else by argparse."""
    return _read(argv) or build_parser().parse_args(argv)


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
        document = _COMMANDS[args.command][2](args)
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
