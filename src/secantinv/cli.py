"""Command-line surface for the invariant calculators.

Commands: hilbert, series, degree, generators, coh-sym, coh-wedge,
coh-canonical, coh-line, tangent-cone, cone, sweep, validate.  Every number
is emitted exactly (rationals as "p/q", big integers as decimal strings) and
output is byte-identical across runs of the same request.

Exit codes: 0 success; 1 failed validation; 2 usage or domain errors
(including unknown flags); 3 internal consistency failures.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, TextIO

from .cohomology import (
    CohomologyTable,
    LineBundleClass,
    canonical_twist_table,
    line_bundle_table,
    sym_secant_table,
    wedge_secant_table,
)
from .errors import DomainError, SecantInvError, UsageError
from .exactmath import QPolynomial, format_rational
from .secant_core import (
    HilbertSeries,
    SecantInstance,
    canonical_h0,
    generator_count,
    hilbert_function,
    hilbert_polynomial,
    hilbert_series,
    variety_degree,
)
from .tangent_geometry import cone_over_secant, tangent_cone_at

FORMATS = ("text", "json", "csv", "latex")

def latex_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


def latex_polynomial(poly: QPolynomial) -> str:
    if poly.is_zero:
        return "0"
    parts: list[str] = []
    for power in range(poly.degree, -1, -1):
        c = poly.coefficient(power)
        if c == 0:
            continue
        if power == 0:
            body = latex_rational(abs(c))
        else:
            t = "t" if power == 1 else f"t^{{{power}}}"
            body = t if abs(c) == 1 else f"{latex_rational(abs(c))} {t}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts)


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
    return "\n".join(lines)


@dataclass(frozen=True)
class Document:
    """A fully rendered result: one payload per output format, the lines
    ``run`` writes to stderr beside it, and the exit code it returns."""

    json_payload: dict
    csv_rows: tuple[tuple[str, ...], ...]  # the header row first
    text_body: str
    latex_body: str
    notes: tuple[str, ...] = ()
    exit_code: int = 0

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.json_payload, indent=2, sort_keys=True) + "\n"
        if fmt == "csv":
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows(self.csv_rows)
            return buffer.getvalue()
        if fmt == "latex":
            return self.latex_body + "\n"
        return self.text_body + "\n"


def _scalar_document(value: int) -> Document:
    text = str(value)
    return Document(
        json_payload={"value": text},
        csv_rows=(("key", "value"), ("value", text)),
        text_body=text,
        latex_body=text,
    )


def _polynomial_document(poly: QPolynomial) -> Document:
    return Document(
        json_payload={"coefficients": poly.to_strings()},
        csv_rows=(("power", "coefficient"), *(
            (str(power), format_rational(c)) for power, c in enumerate(poly.coefficients)
        )),
        text_body=str(poly),
        latex_body=latex_polynomial(poly),
    )


def _series_document(series: HilbertSeries) -> Document:
    rows = [
        (f"numerator[{power}]", format_rational(c))
        for power, c in enumerate(series.numerator.coefficients)
    ]
    rows.append(("krull_dim", str(series.krull_dim)))
    return Document(
        json_payload=series.to_json_dict(),
        csv_rows=(("key", "value"), *rows),
        text_body=(
            f"numerator = {series.numerator}\nkrull_dim = {series.krull_dim}"
        ),
        latex_body=(
            f"\\frac{{{latex_polynomial(series.numerator)}}}"
            f"{{(1 - t)^{{{series.krull_dim}}}}}"
        ),
    )


def _table_document(table: CohomologyTable) -> Document:
    rows = table.csv_rows()
    shown = [(i, twist or "-", dim) for i, twist, dim in rows]
    text_lines = [f"family {table.family}"]
    text_lines += [f"{key} = {value}" for key, value in table.params]
    text_lines.append("i  l  dim")
    text_lines += [f"{i:<2} {twist:<2} {dim}" for i, twist, dim in shown]
    return Document(
        json_payload=table.to_json_dict(),
        csv_rows=(("i", "l", "dim"), *rows),
        text_body="\n".join(text_lines),
        latex_body=_tabular("rrr", ("i", "\\ell", "h^i"), shown),
    )


def _flatten_json(prefix: str, value, out: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten_json(f"{prefix}.{key}" if prefix else key, value[key], out)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _flatten_json(f"{prefix}[{index}]", item, out)
    elif value is None:
        out.append((prefix, "null"))
    elif isinstance(value, bool):
        out.append((prefix, "true" if value else "false"))
    else:
        out.append((prefix, str(value)))


def _record_document(payload: dict) -> Document:
    flat: list[tuple[str, str]] = []
    _flatten_json("", payload, flat)
    return Document(
        json_payload=payload,
        csv_rows=(("key", "value"), *flat),
        text_body="\n".join(f"{key} = {value}" for key, value in flat),
        latex_body=_tabular("ll", (), flat),
    )


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


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as :class:`UsageError`, so that it gets the
    one ``error: usage: <message>`` line instead of argparse's usage block
    on the process's stderr.  Subparsers inherit the class."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every run.

    A plain function around the cached builder, so that the benchmark's
    tracer, which wraps plain functions only, still counts and times it."""
    return _build_parser()


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="secantinv",
        description="Exact invariants of secant varieties of smooth projective curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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


def _handle_hilbert(args) -> Document:
    return _polynomial_document(hilbert_polynomial(_instance(args)))


def _handle_series(args) -> Document:
    return _series_document(hilbert_series(_instance(args)))


def _handle_degree(args) -> Document:
    return _scalar_document(variety_degree(_instance(args)))


def _handle_generators(args) -> Document:
    return _scalar_document(generator_count(_instance(args)))


def _handle_coh_sym(args) -> Document:
    return _table_document(sym_secant_table(_instance(args), args.twist))


def _handle_coh_wedge(args) -> Document:
    bundle = LineBundleClass.from_degree(args.genus, args.degree_of_l, args.h1_of_l)
    twisting = LineBundleClass.from_degree(args.genus, args.degree_of_m, args.h1_of_m)
    product = None
    if args.h1_of_lm is not None:
        product = LineBundleClass.from_degree(
            args.genus, args.degree_of_l + args.degree_of_m, args.h1_of_lm
        )
    return _table_document(wedge_secant_table(args.points, args.twist, bundle, twisting, product))


def _handle_coh_canonical(args) -> Document:
    return _table_document(canonical_twist_table(_instance(args), args.twist))


def _handle_coh_line(args) -> Document:
    bundle = LineBundleClass.from_degree(args.genus, args.degree, args.h1_of_l)
    return _table_document(line_bundle_table(args.family, args.points, bundle))


def _handle_tangent_cone(args) -> Document:
    return _record_document(tangent_cone_at(_instance(args), args.stratum).to_json_dict())


def _handle_cone(args) -> Document:
    return _record_document(cone_over_secant(_instance(args), args.vertex_count).to_json_dict())


def _handle_sweep(args) -> Document:
    invariant = {
        "degree": variety_degree,
        "generators": generator_count,
        "canonical-h0": canonical_h0,
        "hilbert": lambda inst: hilbert_function(inst, args.twist),
    }[args.invariant]
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
    cells.sort()
    payload = {
        "invariant": args.invariant,
        "cells": [{"genus": g, "degree": d, "order": k, "value": str(value)}
                  for g, d, k, value in cells],
    }
    if args.invariant == "hilbert":
        payload["twist"] = args.twist
    rows = tuple(tuple(map(str, cell)) for cell in cells)
    text_lines = [f"{'g':>3} {'d':>4} {'k':>3}  {args.invariant}"]
    text_lines += [f"{g:>3} {d:>4} {k:>3}  {value}" for g, d, k, value in cells]
    return Document(
        json_payload=payload,
        csv_rows=(("genus", "degree", "order", "value"), *rows),
        text_body="\n".join(text_lines),
        latex_body=_tabular("rrrr", ("g", "d", "k", "value"), rows),
        notes=tuple(notes),
    )


def _handle_validate(args) -> Document:
    from .validation import run_catalogue

    results = run_catalogue()
    failed = sum(not r.passed for r in results)
    head = ("name", "status", "seconds", "detail")
    rows = tuple((r.name, "PASS" if r.passed else "FAIL", f"{r.seconds:.3f}", r.detail)
                 for r in results)
    text_lines = [
        f"{status}  {name:<45} {seconds:>8}s" + (f"  [{detail}]" if detail else "")
        for name, status, seconds, detail in rows
    ]
    total = sum(r.seconds for r in results)
    text_lines.append(f"{len(rows) - failed} passed, {failed} failed in {total:.3f}s")
    return Document(
        json_payload={
            "checks": [dict(zip(head, row), seconds=round(r.seconds, 3))
                       for row, r in zip(rows, results)],
            "passed": len(rows) - failed,
            "failed": failed,
        },
        csv_rows=(head, *rows),
        text_body="\n".join(text_lines),
        latex_body=_tabular("llrl", head, rows),
        exit_code=1 if failed else 0,
    )


_HANDLERS = {
    "hilbert": _handle_hilbert,
    "series": _handle_series,
    "degree": _handle_degree,
    "generators": _handle_generators,
    "coh-sym": _handle_coh_sym,
    "coh-wedge": _handle_coh_wedge,
    "coh-canonical": _handle_coh_canonical,
    "coh-line": _handle_coh_line,
    "tangent-cone": _handle_tangent_cone,
    "cone": _handle_cone,
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


def run(argv: Sequence[str], stdout: Optional[TextIO] = None,
        stderr: Optional[TextIO] = None) -> int:
    """Parse and execute one request; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out):  # where --help prints
            args = build_parser().parse_args(list(argv))
        document = _HANDLERS[args.command](args)
        rendered = document.render(args.format)
        if args.out:
            _write_out(args.out, rendered)
    except SystemExit as exc:  # --help prints its text and exits 0
        return int(exc.code or 0)
    except SecantInvError as exc:
        print(f"error: {exc.code}: {exc}", file=err)
        return exc.exit_code
    for note in document.notes:
        print(note, file=err)
    if not args.out:
        out.write(rendered)
    return document.exit_code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
