"""Digests of the command line's bytes, and of the engine's values, over
fixed request sets.

Each command-line set is a fixed sequence of argument lists.  Every request
runs through the in-process ``secantinv.cli.run``, and the set's digest is
the sha256 of ``repr((argv, exit_code, stdout, stderr))``, encoded as UTF-8,
over its requests in order.  A change that keeps every byte keeps every
digest; ``DIGESTS`` holds the values of today's engine.  The sets:

* ``series``: 30,648 ``series``, ``tangent-cone`` (every stratum) and
  ``cone`` (vertex counts 0..3) requests in all four formats, on g <= 6,
  k <= 12, d = 2g+2k+1..+7, looped in that order, then (5, 1000, 200) and
  (30, 1000, 200) at strata 0, 1, 199, 200; about 7 s.
* ``instances``: 3,200 ``hilbert``, ``degree``, ``generators``, ``coh-sym``
  (twists -1, 0, 1, 3) and ``coh-canonical`` (twists 0, 1, 2) requests in
  all four formats, on g <= 3, k <= 4, d = 2g+2k..+3.
* ``sweeps``: 144 sweeps in all four formats, four invariants over genus
  ranges 0:3, 1:2, 2:4 and order ranges 0:4, 2:5, 4:5, then three text
  ``hilbert`` sweeps at twists 0, 1, 7.
* ``refusals``: 720 requests in text and JSON that give each integer option
  of ten commands the values -1, 0, 201, 1001, 10**6+1, 10**9+1,
  +-(10**4300 - 1) and +-10**4000, then 30 text sweeps whose ranges end at
  those values.
* ``tables``: 1,440 successful ``coh-wedge`` and ``coh-line`` requests in all
  four formats, on g <= 3 and 1..4 points: ``coh-wedge`` at every twist
  1..points over five (deg L, deg M) pairs, ``coh-line`` for both families
  at up to six degrees.  A degree in the special range 0..2g-2 gets
  ``--h1-of-*`` = max(0, g-1-degree) + 1; any other degree gets none.
* ``engine``: 693 instances, g 0..6, k 0..8, d = 2g+2k+1..2g+2k+11, looped
  in that order.  Each adds one line to the sha256, in UTF-8: the monomial
  coefficients of ``hilbert_polynomial``, comma-separated, then ``|``, then
  the node values, comma-separated, then a newline.
* ``box``: 16 sweeps over the ROADMAP's reference box, ``--genus-range
  0:6 --degree-range 1:60 --order-range 0:8``, four invariants (``hilbert``
  at its default twist 1), each in all four formats; about 0.7 s.
* ``cohomology``: 6,552 ``coh-sym`` (twists 0, 1, 2, 10**6) and
  ``coh-canonical`` (twists 1, 2, 10**6) requests in all four formats, on
  g <= 8, k <= 12, d = 2g+2k+1 and 2g+2k+2, looped in that order; about 0.5 s.
* ``rational``: 126 ``lagrange_interpolate`` calls off the engine's route,
  on 1..12, 20 and 30 nodes of nine kinds: rational abscissae, abscissae and
  ordinates of mixed types (int, ``Fraction``, string, float, bool), and
  evenly spaced abscissae (integer steps 1, 2, -3 and rational steps 2/3
  and -5/4).  Each adds one line to the sha256, in UTF-8: the result's
  wire strings, comma-separated, then ``|``, then its values at eight fixed
  rational points, comma-separated, then a newline; about 0.15 s.

``instances``, ``sweeps``, ``refusals``, ``tables``, ``engine``, ``box``,
``cohomology`` and ``rational`` take about 2.5 s together, and
``tests/test_request_digests.py`` pins them.

Usage, from the repository root::

    PYTHONPATH=src python scripts/request_digests.py [SET ...]

prints ``name requests exit-0-count sha256`` for each named set, or for
every set, and exits 1 if a digest differs from ``DIGESTS``.
"""

from __future__ import annotations

import hashlib
import io
import sys
from fractions import Fraction
from typing import Callable, Iterator

from secantinv import (SecantInstance, cli, format_rational, hilbert_polynomial,
                       lagrange_interpolate, node_values)

FORMATS = ("text", "json", "csv", "latex")

# A set yields its records in order: the line it adds to the sha256, and
# whether it counts as succeeded.
Records = Callable[[], Iterator[tuple[str, bool]]]

DIGESTS = {
    "series": "a9ec80d12ca4643434c52ac17090334fd853a8a43511f207e4b6a78d2733f1b1",
    "instances": "cabadfbe741c5403efd8dd16462ec9c60dd47535942ea93a1df14e6ae830acd3",
    "sweeps": "a1d4474914f699380dd5ef607d3d7603ff7606c04b6c7c24c1ee8eecdd3d09af",
    "refusals": "c9e8b4b4d04c64e0e186fededfac6b4b142615bd3716f44eb905c243b83e62dd",
    "tables": "d475d841187195fdd54260452205bda7be4191bb2ebe20f354ee24b897c15934",
    "engine": "c603f12f03582f4284cf60bbcc6eb098a6fd5741e33eedcaae846da04873f8fc",
    "box": "1d0c82e37504d981e5441bc0ab4caf36a4a027d969a80202b10b54e39a480b8f",
    "cohomology": "2a684b4cfe987302c0babb7730648f3ea5679e2a1c5b4d3031ddd51aaf7526df",
    "rational": "79a5b61da3b503b89d3905289b6b72fb84aee78e24ccfb6d32db116b3b4b339b",
}


def _instance(genus: int, degree: int, order: int) -> list[str]:
    return ["--genus", str(genus), "--degree", str(degree), "--order", str(order)]


def series_requests() -> Iterator[list[str]]:
    instances = [(g, d, k, range(k + 1)) for g in range(7) for k in range(13)
                 for d in range(2 * g + 2 * k + 1, 2 * g + 2 * k + 8)]
    instances += [(5, 1000, 200, (0, 1, 199, 200)), (30, 1000, 200, (0, 1, 199, 200))]
    for g, d, k, strata in instances:
        base = _instance(g, d, k)
        for fmt in FORMATS:
            yield ["series", *base, "--format", fmt]
        for stratum in strata:
            for fmt in FORMATS:
                yield ["tangent-cone", *base, "--stratum", str(stratum), "--format", fmt]
        for vertices in range(4):
            for fmt in FORMATS:
                yield ["cone", *base, "--vertex-count", str(vertices), "--format", fmt]


def instance_requests() -> Iterator[list[str]]:
    for g in range(4):
        for k in range(5):
            for d in range(2 * g + 2 * k, 2 * g + 2 * k + 4):
                base = _instance(g, d, k)
                for command in ("hilbert", "degree", "generators"):
                    for fmt in FORMATS:
                        yield [command, *base, "--format", fmt]
                for command, twists in (("coh-sym", (-1, 0, 1, 3)), ("coh-canonical", (0, 1, 2))):
                    for twist in twists:
                        for fmt in FORMATS:
                            yield [command, *base, "--twist", str(twist), "--format", fmt]


def cohomology_requests() -> Iterator[list[str]]:
    for g in range(9):
        for k in range(13):
            for d in (2 * g + 2 * k + 1, 2 * g + 2 * k + 2):
                base = _instance(g, d, k)
                for command, twists in (("coh-sym", (0, 1, 2, 10**6)),
                                        ("coh-canonical", (1, 2, 10**6))):
                    for twist in twists:
                        for fmt in FORMATS:
                            yield [command, *base, "--twist", str(twist), "--format", fmt]


def sweep_requests() -> Iterator[list[str]]:
    for invariant in ("degree", "generators", "canonical-h0", "hilbert"):
        for genera in ("0:3", "1:2", "2:4"):
            for orders in ("0:4", "2:5", "4:5"):
                for fmt in FORMATS:
                    yield ["sweep", "--genus-range", genera, "--degree-range", "3:16",
                           "--order-range", orders, "--invariant", invariant, "--format", fmt]
    for twist in ("0", "1", "7"):
        yield ["sweep", "--genus-range", "0:2", "--degree-range", "5:30", "--order-range", "0:6",
               "--invariant", "hilbert", "--twist", twist]


def box_requests() -> Iterator[list[str]]:
    for invariant in ("degree", "generators", "canonical-h0", "hilbert"):
        for fmt in FORMATS:
            yield ["sweep", "--genus-range", "0:6", "--degree-range", "1:60", "--order-range", "0:8",
                   "--invariant", invariant, "--format", fmt]


def refusal_requests() -> Iterator[list[str]]:
    values = ["-1", "0", "201", "1001", "1000001", "1000000001", "9" * 4300, "-" + "9" * 4300,
              str(10**4000), "-" + str(10**4000)]
    instance = {"--genus": "2", "--degree": "9", "--order": "1"}
    commands = {command: instance for command in ("hilbert", "series", "degree", "generators")}
    commands["coh-sym"] = commands["coh-canonical"] = {**instance, "--twist": "2"}
    commands["tangent-cone"] = {**instance, "--stratum": "0"}
    commands["cone"] = {**instance, "--vertex-count": "1"}
    commands["coh-line"] = {"--family": "N", "--points": "2", "--genus": "2", "--degree": "9"}
    commands["coh-wedge"] = {"--genus": "2", "--points": "3", "--twist": "1",
                             "--degree-of-L": "9", "--degree-of-M": "9"}
    for command, options in commands.items():
        for option in options:
            if option == "--family":
                continue
            for value in values:
                for fmt in ("text", "json"):
                    argv = {**options, option: value}
                    yield [command, *(item for pair in argv.items() for item in pair),
                           "--format", fmt]
    for value in values:
        for option in ("--genus-range", "--degree-range", "--order-range"):
            ranges = {"--genus-range": "0:2", "--degree-range": "5:9", "--order-range": "0:2",
                      option: f"0:{value}"}
            yield ["sweep", *(item for pair in ranges.items() for item in pair),
                   "--invariant", "degree"]


def _h1(option: str, genus: int, degree: int) -> list[str]:
    """``[option, h1]`` for a degree in the special range 0..2g-2, and
    nothing for any other degree, which forces its h1."""
    if 0 <= degree <= 2 * genus - 2:
        return [option, str(max(0, genus - 1 - degree) + 1)]
    return []


def table_requests() -> Iterator[list[str]]:
    for g in range(4):
        for points in range(1, 5):
            for deg_l, deg_m in ((2 * g + 1, 2 * g - 1), (2 * g + 2, -1), (2 * g - 1, 0), (0, 0),
                                 (2 * g - 2, 2 * g - 2)):
                bundles = ["--degree-of-L", str(deg_l), *_h1("--h1-of-L", g, deg_l),
                           "--degree-of-M", str(deg_m), *_h1("--h1-of-M", g, deg_m),
                           *_h1("--h1-of-LM", g, deg_l + deg_m)]
                for twist in range(1, points + 1):
                    for fmt in FORMATS:
                        yield ["coh-wedge", "--genus", str(g), "--points", str(points),
                               "--twist", str(twist), *bundles, "--format", fmt]
            for family in ("N", "T"):
                for degree in dict.fromkeys((-1, 0, g - 1, 2 * g - 2, 2 * g - 1, 2 * g + 2)):
                    for fmt in FORMATS:
                        yield ["coh-line", "--family", family, "--points", str(points),
                               "--genus", str(g), "--degree", str(degree),
                               *_h1("--h1-of-L", g, degree), "--format", fmt]


def engine_records() -> Iterator[tuple[str, bool]]:
    for g in range(7):
        for k in range(9):
            for d in range(2 * g + 2 * k + 1, 2 * g + 2 * k + 12):
                inst = SecantInstance(g, d, k)
                yield (",".join(hilbert_polynomial(inst).to_strings()) + "|"
                       + ",".join(map(str, node_values(inst).entries)) + "\n"), True


def _spelled(value: Fraction, kind: int) -> object:
    """``value`` as one of the types an interpolation node may carry, by
    ``kind``: int or bool where it is whole, else float where that is
    exact, else a string; or the ``Fraction`` itself."""
    if kind == 0:
        if value.denominator == 1:
            return bool(value) if value in (0, 1) else int(value)
        return float(value) if value.denominator in (2, 4, 8) else str(value)
    return str(value) if kind == 1 else value


def rational_records() -> Iterator[tuple[str, bool]]:
    points = [Fraction(-7, 3), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(5, 4),
              Fraction(3), Fraction(22, 7), Fraction(-40, 9)]
    for size in (*range(1, 13), 20, 30):
        js = range(size)
        ordinates = [Fraction((-1) ** j * (3 * j + 1), 2 * j + 5) for j in js]
        node_sets = [
            [(Fraction(j * j + 1, j + 2), y) for j, y in zip(js, ordinates)],
            [(Fraction(-j * j - 3, 2 * j + 5), Fraction(j * j * j - 4 * j + 2)) for j in js],
            [(_spelled(Fraction(3 * j - 7, 2), j % 3), _spelled(y, (j + 1) % 3))
             for j, y in zip(js, ordinates)],
            [(_spelled(Fraction(5 - 2 * j, 4), j % 3), _spelled(Fraction(j % 2), j % 3))
             for j in js],
            [(j - 3, j * j * j - 5 * j + 1) for j in js],
            [(2 * j - 5, y) for j, y in zip(js, ordinates)],
            [(7 - 3 * j, 2 * j * j - 11) for j in js],
            [(Fraction(1, 2) + Fraction(2, 3) * j, Fraction(j * j - 3, 5)) for j in js],
            [(Fraction(3, 7) - Fraction(5, 4) * j, y) for j, y in zip(js, ordinates)],
        ]
        for nodes in node_sets:
            poly = lagrange_interpolate(nodes)
            yield (",".join(poly.to_strings()) + "|"
                   + ",".join(format_rational(poly(x)) for x in points) + "\n"), True


def _responses(requests: Callable[[], Iterator[list[str]]]) -> Records:
    """The records of a command-line set: each request's repr line, and
    whether it exits 0."""
    def records() -> Iterator[tuple[str, bool]]:
        for argv in requests():
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(argv, stdout=out, stderr=err)
            yield repr((argv, code, out.getvalue(), err.getvalue())), code == 0
    return records


SETS: dict[str, Records] = {
    "series": _responses(series_requests),
    "instances": _responses(instance_requests),
    "sweeps": _responses(sweep_requests),
    "refusals": _responses(refusal_requests),
    "tables": _responses(table_requests),
    "engine": engine_records,
    "box": _responses(box_requests),
    "cohomology": _responses(cohomology_requests),
    "rational": rational_records,
}


def digest(name: str) -> tuple[int, int, str]:
    """(records, records that succeeded, sha256) of the named set: for a
    command-line set, its requests and those that exit 0."""
    sha = hashlib.sha256()
    count = succeeded = 0
    for record, ok in SETS[name]():
        sha.update(record.encode())
        count += 1
        succeeded += ok
    return count, succeeded, sha.hexdigest()


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - set(SETS))
    if unknown:
        print(f"unknown set {', '.join(unknown)}; the sets are {', '.join(SETS)}", file=sys.stderr)
        return 2
    same = True
    for name in names or SETS:
        count, succeeded, value = digest(name)
        same &= value == DIGESTS[name]
        print(name, count, succeeded, value)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
