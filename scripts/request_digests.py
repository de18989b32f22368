"""Digests of the command line's bytes over fixed request sets.

Each set is a fixed sequence of argument lists.  Every request runs through
the in-process ``secantinv.cli.run``, and the set's digest is the sha256 of
``repr((argv, exit_code, stdout, stderr))``, encoded as UTF-8, over its
requests in order.  A change that keeps every byte keeps every digest;
``DIGESTS`` holds the values of today's engine.  The sets:

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

``instances``, ``sweeps`` and ``refusals`` take about 1 s together, and
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
from typing import Callable, Iterator

from secantinv import cli

FORMATS = ("text", "json", "csv", "latex")

DIGESTS = {
    "series": "a9ec80d12ca4643434c52ac17090334fd853a8a43511f207e4b6a78d2733f1b1",
    "instances": "cabadfbe741c5403efd8dd16462ec9c60dd47535942ea93a1df14e6ae830acd3",
    "sweeps": "a1d4474914f699380dd5ef607d3d7603ff7606c04b6c7c24c1ee8eecdd3d09af",
    "refusals": "c9e8b4b4d04c64e0e186fededfac6b4b142615bd3716f44eb905c243b83e62dd",
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


SETS: dict[str, Callable[[], Iterator[list[str]]]] = {
    "series": series_requests,
    "instances": instance_requests,
    "sweeps": sweep_requests,
    "refusals": refusal_requests,
}


def digest(name: str) -> tuple[int, int, str]:
    """(requests, requests that exit 0, sha256) of the named set."""
    sha = hashlib.sha256()
    count = succeeded = 0
    for argv in SETS[name]():
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(argv, stdout=out, stderr=err)
        sha.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
        count += 1
        succeeded += code == 0
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
