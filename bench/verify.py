"""Output checks for every benchmark op, run after the timed loop.

Values are checked three ways:

* against the independent oracles of ``tests/oracles.py`` (Eagon-Northcott
  for genus 0, Riemann-Roch on the symmetric square for order 1) and the
  curve's own Riemann-Roch for order 0;
* against structural facts that hold for every instance: chi at twists
  0..k+1, ``Q(0) = 1``, ``Q(1) = degree`` and ``Q >= 0`` for every series,
  table shapes, sweep skip lines, and closed forms for the line-bundle and
  Kunneth tables.  Where no oracle covers an instance, degrees, generator
  counts and chi values are derived from the library's chi once it has
  passed these checks, so a CLI value must agree with the engine;
* for the default seed, against golden digests recorded from the program
  (``golden.json``).

An op is ``ok``, ``failed`` (it broke the documented exit-code or error-line
contract; the known defects land here) or ``wrong`` (it returned a value
the checks refute, or failed in an undocumented way).
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import re
from fractions import Fraction
from pathlib import Path

from workloads import DEFECT_RECURSION, ROOT, Outcome, Request, run_in_process

ERROR_LINE = re.compile(r"error: ([a-z0-9-]+): \S.*")
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 0


def load_oracles():
    """``tests/oracles.py`` imported by path, unchanged."""
    spec = importlib.util.spec_from_file_location("bench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def digest_outcome(outcome: Outcome, status: str) -> str:
    """Digest of an op's output.  A failed op digests only its exit code,
    since a traceback names the frames of whoever called the program."""
    if status != "ok":
        return digest_text(f"failed\0{outcome.rc}")
    return digest_text(f"{outcome.rc}\0{outcome.stdout}\0{outcome.stderr}")


def digest_deep(result) -> str:
    if isinstance(result, Exception):
        return digest_text(f"raised\0{type(result).__name__}")
    poly, series, degree, generators = result
    return digest_text(f"{poly.to_strings()}\0{series.to_json_dict()}\0{degree}\0{generators}")


def same_output(first, again) -> bool:
    """Whether a repeat of an op gave the output of its first run.  A CLI
    request that crashed is compared by exit code only, since a traceback
    may name memory addresses."""
    if isinstance(first, Outcome) and isinstance(again, Outcome):
        if first.rc in (0, 2):
            return first == again
        return first.rc == again.rc
    return digest_deep(first) == digest_deep(again)


def error_problem(outcome: Outcome, code: str | None) -> str | None:
    """Why ``outcome`` is not a documented usage error (exit 2, empty stdout,
    exactly one ``error: <code>: <message>`` line), or None if it is."""
    if outcome.rc != 2:
        return f"exit {outcome.rc}, expected 2"
    if outcome.stdout:
        return "stdout not empty on error"
    lines = outcome.stderr.split("\n")
    if len(lines) != 2 or lines[1] != "":
        return f"stderr has {len(lines) - 1} lines, expected one error line"
    match = ERROR_LINE.fullmatch(lines[0])
    if match is None:
        return f"malformed error line {lines[0]!r}"
    if code is not None and match.group(1) != code:
        return f"error code {match.group(1)}, expected {code}"
    return None


def _flags(argv: tuple[str, ...]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _range(text: str) -> range:
    lo, _, hi = text.partition(":")
    return range(int(lo), int(hi or lo) + 1)


def _sweep_grid(flags: dict[str, str]) -> tuple[list, list]:
    """Valid and skipped (g, d, k) cells of a sweep, in the sweep's order:
    d >= 2g+2k+1 is required, and d >= 2g+2k+2 for generator counts."""
    extra = 2 if flags["invariant"] == "generators" else 1
    valid, skipped = [], []
    for g in _range(flags["genus-range"]):
        for d in _range(flags["degree-range"]):
            for k in _range(flags["order-range"]):
                (valid if d >= 2 * g + 2 * k + extra else skipped).append((g, d, k))
    return valid, skipped


def _sym(n: int, j: int) -> int:
    """Dimension of the j-th symmetric power of an n-space."""
    return 0 if j < 0 else (math.comb(n + j - 1, j) if n else int(j == 0))


def _wedge(n: int, j: int) -> int:
    return math.comb(n, j) if j >= 0 else 0


def _poly_at(coeffs, t) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


class Checker:
    """Checks outputs.  Where no oracle covers an instance, expected values
    come from ``program_chi(g, d, k)``, the library's Hilbert polynomial
    coefficients, after that polynomial itself passes :meth:`chi_problems`."""

    def __init__(self, program_chi) -> None:
        self.oracles = load_oracles()
        self.program_chi = program_chi
        self._genus0: dict[tuple[int, int], list[int]] = {}
        self._chi: dict[tuple[int, int, int], list[Fraction]] = {}

    # -- oracles -------------------------------------------------------------

    def _genus0_values(self, d: int, k: int) -> list[int]:
        """Eagon-Northcott Hilbert function at twists 1..2k+2."""
        if (d, k) not in self._genus0:
            self._genus0[(d, k)] = [
                self.oracles.genus0_hilbert_function(d, k, n) for n in range(1, 2 * k + 3)
            ]
        return self._genus0[(d, k)]

    def oracle_chi(self, g: int, d: int, k: int, t: int) -> Fraction | None:
        """chi(t) from an oracle, or None when no oracle covers (g, k)."""
        if k == 0:
            return Fraction(d * t + 1 - g)
        if k == 1:
            return Fraction(self.oracles.order1_chi(g, d, t))
        if g == 0:
            values = self._genus0_values(d, k)
            if 1 <= t <= len(values):
                return Fraction(values[t - 1])
            xs = range(1, len(values) + 1)  # Lagrange form through the oracle values
            total = Fraction(0)
            for i, xi in enumerate(xs):
                term = Fraction(values[i])
                for xj in xs:
                    if xj != xi:
                        term *= Fraction(t - xj, xi - xj)
                total += term
            return total
        return None

    def oracle_degree(self, g: int, d: int, k: int) -> int | None:
        if k == 0:
            return d
        if k == 1:
            return self.oracles.order1_degree(g, d)
        if g == 0:
            values = self._genus0_values(d, k)
            n = 2 * k + 1
            return sum((-1) ** (n - j) * math.comb(n, j) * values[j] for j in range(n + 1))
        return None

    def oracle_generators(self, g: int, d: int, k: int) -> int | None:
        if g == 0:
            return self.oracles.genus0_generators(d, k)
        if k <= 1:
            return math.comb(d - g + k + 2, k + 2) - int(self.oracle_chi(g, d, k, k + 2))
        return None

    def checked_chi(self, g: int, d: int, k: int) -> list[Fraction]:
        if (g, d, k) not in self._chi:
            coeffs = list(self.program_chi(g, d, k))
            problems = self.chi_problems(g, d, k, coeffs)
            if problems:
                raise ValueError(f"library chi for {(g, d, k)}: {'; '.join(problems)}")
            self._chi[(g, d, k)] = coeffs
        return self._chi[(g, d, k)]

    def degree(self, g: int, d: int, k: int) -> int:
        known = self.oracle_degree(g, d, k)
        if known is not None:
            return known
        return int(self.checked_chi(g, d, k)[-1] * math.factorial(2 * k + 1))

    def generators(self, g: int, d: int, k: int) -> int:
        known = self.oracle_generators(g, d, k)
        if known is not None:
            return known
        return math.comb(d - g + k + 2, k + 2) - int(_poly_at(self.checked_chi(g, d, k), k + 2))

    def chi_at(self, g: int, d: int, k: int, t: int) -> Fraction:
        known = self.oracle_chi(g, d, k, t)
        return known if known is not None else _poly_at(self.checked_chi(g, d, k), t)

    # -- values ----------------------------------------------------------------

    def chi_problems(self, g: int, d: int, k: int, coeffs: list[Fraction]) -> list[str]:
        out = []
        if len(coeffs) != 2 * k + 2 or coeffs[-1] <= 0:
            out.append(f"chi has {len(coeffs)} coefficients, expected 2k+2 with positive lead")
            return out
        if _poly_at(coeffs, 0) != 1 - math.comb(g + k, k + 1):
            out.append("chi(0) != 1 - C(g+k, k+1)")
        for t in range(1, k + 2):
            if _poly_at(coeffs, t) != math.comb(d - g + t, t):
                out.append(f"chi({t}) != C(d-g+{t}, {t})")
        twists = range(1, 2 * k + 3) if g == 0 and k > 1 else range(-2, 4)
        for t in twists:
            expected = self.oracle_chi(g, d, k, t)
            if expected is not None and _poly_at(coeffs, t) != expected:
                out.append(f"chi({t}) disagrees with the oracle")
                break
        return out

    def series_problems(self, numerator: list[Fraction], krull: int, expected_krull: int,
                        degree: int) -> list[str]:
        out = []
        if krull != expected_krull:
            out.append(f"krull_dim {krull}, expected {expected_krull}")
        if not numerator or numerator[0] != 1:
            out.append("series Q(0) != 1")
        if any(c.denominator != 1 or c < 0 for c in numerator):
            out.append("series Q has a negative or non-integer coefficient")
        if sum(numerator) != degree:
            out.append(f"series Q(1) = {sum(numerator)}, degree is {degree}")
        return out

    def deep_problems(self, op: tuple[int, int, int], result) -> list[str]:
        if isinstance(result, Exception):
            return [f"raised {type(result).__name__}: {result}"]
        g, d, k = op
        poly, series, degree, generators = result
        coeffs = list(poly.coefficients)
        out = self.chi_problems(g, d, k, coeffs)
        if degree != coeffs[-1] * math.factorial(2 * k + 1):
            out.append("degree != (2k+1)! * lead(chi)")
        known = self.oracle_degree(g, d, k)
        if known is not None and degree != known:
            out.append("degree disagrees with the oracle")
        out += self.series_problems(list(series.numerator.coefficients), series.krull_dim,
                                    2 * k + 2, degree)
        expected = math.comb(d - g + k + 2, k + 2) - _poly_at(coeffs, k + 2)
        known = self.oracle_generators(g, d, k)
        if generators != expected or generators < 0 or (known is not None and generators != known):
            out.append(f"generator count {generators} is wrong")
        return out

    # -- CLI payloads ----------------------------------------------------------

    def payload_problems(self, argv: tuple[str, ...], payload: dict, stderr: str) -> list[str]:
        command, flags = argv[0], _flags(argv)
        if command == "sweep":
            return self.sweep_problems(flags, payload, stderr)
        if stderr:
            return ["stderr not empty"]
        if "order" in flags and "degree" in flags:
            g, d, k = int(flags["genus"]), int(flags["degree"]), int(flags["order"])
        if command == "hilbert":
            return self.chi_problems(g, d, k, [Fraction(c) for c in payload["coefficients"]])
        if command == "series":
            return self.series_problems([Fraction(c) for c in payload["numerator"]],
                                        payload["krull_dim"], 2 * k + 2, self.degree(g, d, k))
        if command == "degree":
            value = int(payload["value"])
            return [] if value == self.degree(g, d, k) else [f"degree {value} is wrong"]
        if command == "generators":
            value = int(payload["value"])
            return [] if value == self.generators(g, d, k) else [f"generators {value} is wrong"]
        if command == "tangent-cone":
            return self.tangent_problems(g, d, k, int(flags["stratum"]), payload)
        if command == "cone":
            m = int(flags["vertex-count"])
            series = payload["series"]
            out = [] if payload["vertex_count"] == m and payload["instance"] == {
                "genus": g, "degree": d, "order": k} else ["cone header is wrong"]
            return out + self.series_problems([Fraction(c) for c in series["numerator"]],
                                              series["krull_dim"], 2 * k + 2 + m,
                                              self.degree(g, d, k))
        return self.table_problems(command, flags, payload)

    def tangent_problems(self, g, d, k, s, payload) -> list[str]:
        numerator = [Fraction(c) for c in payload["series"]["numerator"]]
        krull = payload["series"]["krull_dim"]
        out = []
        if (payload["stratum"], payload["vertex_proj_dim"], payload["cone_proj_dim"]) != (
                s, 2 * s, 2 * k):
            out.append("tangent-cone dimensions are wrong")
        if s == k:
            if payload["base"] is not None or payload["multiplicity"] != "1" or numerator != [1]:
                out.append("smooth-point descriptor is wrong")
            return out + self.series_problems(numerator, krull, 2 * k + 1, 1)
        base = (g, d - 2 * s - 2, k - s - 1)
        if payload["base"] != {"genus": base[0], "degree": base[1], "order": base[2]}:
            out.append("tangent-cone base is wrong")
        if payload["base_is_fano"] != (g == 0):
            out.append("base_is_fano is wrong")
        multiplicity = self.degree(*base)
        if payload["multiplicity"] != str(multiplicity):
            out.append("multiplicity != degree of the base")
        return out + self.series_problems(numerator, krull, 2 * k + 1, multiplicity)

    def table_problems(self, command: str, flags: dict, payload: dict) -> list[str]:
        dims = {(e["i"], e["l"]): int(e["dim"]) for e in payload["entries"]}
        if any(v < 0 for v in dims.values()):
            return ["negative dimension"]
        expected = self.expected_table(command, flags)
        if set(dims) != set(expected):
            return [f"{command} table has entries {sorted(dims, key=str)}"]
        return [f"{command} entry {key} = {dims[key]}, expected {value}"
                for key, value in expected.items() if dims[key] != value]

    def expected_table(self, command: str, flags: dict) -> dict:
        """Entry key -> expected dim."""
        g = int(flags["genus"])
        if command in ("coh-sym", "coh-canonical"):
            d, k, t = int(flags["degree"]), int(flags["order"]), int(flags["twist"])
            out = {}
            for i in range(k + 2):
                if command == "coh-sym":
                    if t == 0:
                        out[(i, t)] = math.comb(g, i)
                    elif i == k + 1 or math.comb(g, i) == 0:
                        out[(i, t)] = 0
                    else:
                        out[(i, t)] = math.comb(g, i) * int(self.chi_at(g, d, k - i, t))
                elif i >= 2 or (i == 1 and k == 0):
                    out[(i, t)] = 0
                else:
                    out[(i, t)] = -int(self.chi_at(g, d, k - i, -t))
            return out
        m = int(flags["points"])
        if command == "coh-line":
            deg = int(flags["degree"])
            h0 = max(0, deg - g + 1)
            h1 = h0 - (deg - g + 1)
            if flags["family"] == "N":
                return {(i, None): _wedge(h0, m - i) * _sym(h1, i) for i in range(m + 1)}
            return {(i, None): _sym(h0, m - i) * _wedge(h1, i) for i in range(m + 1)}
        # coh-wedge: the Kunneth convolution written out with math.comb
        t = int(flags["twist"])
        deg_l, deg_m = int(flags["degree-of-L"]), int(flags["degree-of-M"])
        h0m = max(0, deg_m - g + 1) if "h1-of-M" not in flags else (
            deg_m - g + 1 + int(flags["h1-of-M"]))
        h1m = h0m - (deg_m - g + 1)
        h0p = max(0, deg_l + deg_m - g + 1)
        h1p = h0p - (deg_l + deg_m - g + 1)
        return {(i, t): sum(_sym(h0m, m - t - p) * _sym(h1p, i - p) * _wedge(h1m, p)
                            * _wedge(h0p, t - (i - p)) for p in range(i + 1))
                for i in range(m + 1)}

    def sweep_problems(self, flags: dict, payload: dict, stderr: str) -> list[str]:
        invariant = flags["invariant"]
        twist = int(flags.get("twist", 1))
        valid, skipped = _sweep_grid(flags)
        lines = stderr.splitlines()
        if len(lines) != len(skipped) or any(
                not line.startswith(f"skip: genus {g} degree {d} order {k}: ")
                for line, (g, d, k) in zip(lines, skipped)):
            return ["sweep skip lines do not match the invalid cells"]
        cells = payload["cells"]
        if [(c["genus"], c["degree"], c["order"]) for c in cells] != valid:
            return ["sweep cells do not match the valid cells"]
        if payload["invariant"] != invariant:
            return ["sweep invariant is wrong"]
        for cell in cells:
            g, d, k, value = cell["genus"], cell["degree"], cell["order"], int(cell["value"])
            if invariant == "degree":
                expected = self.degree(g, d, k)
            elif invariant == "generators":
                expected = self.generators(g, d, k)
            elif invariant == "canonical-h0":
                expected = math.comb(g + k, k + 1)
            elif twist <= k + 1:
                expected = math.comb(d - g + twist, twist)
            else:
                expected = self.chi_at(g, d, k, twist)
            if value != expected:
                return [f"sweep cell {(g, d, k)} = {value} is wrong"]
        return []


def defect_status(request: Request, outcome: Outcome) -> tuple[str, str]:
    """A known-defect request is ``ok`` once it either gives the documented
    usage error or, for the order-200 degree, the right degree: the maximal
    minors of a (k+2) x (d-k) Hankel matrix cut out a variety of degree
    C(d-k, k+1).  Anything else is ``failed``, as it is at this commit."""
    if error_problem(outcome, None) is None:
        return "ok", ""
    if request.argv == DEFECT_RECURSION and outcome.rc == 0:
        expected = math.comb(1000 - 200, 201)
        if outcome.stdout == f"{expected}\n" and not outcome.stderr:
            return "ok", ""
        return "wrong", "order-200 degree is wrong"
    last = outcome.stderr.strip().splitlines()[-1:] or [""]
    return "failed", f"known defect: exit {outcome.rc}, {last[0][:80]}"


def load_golden() -> dict:
    if GOLDEN_PATH.exists():
        return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    return {}


def with_format(argv: tuple[str, ...], fmt: str) -> tuple[str, ...]:
    i = argv.index("--format")
    return argv[:i + 1] + (fmt,) + argv[i + 2:]


class CliChecks:
    """Status of one CLI op: the documented outcome, then for valid requests
    byte-identity with an in-process run of the same request and checks of
    its JSON payload.  Repeated requests are checked once and must repeat
    exactly."""

    def __init__(self, checker: Checker) -> None:
        self.checker = checker
        self.first: dict[tuple[str, ...], tuple[str, str, str]] = {}

    def status(self, request: Request, outcome: Outcome) -> tuple[str, str]:
        raw = digest_text(f"{outcome.rc}\0{outcome.stdout}\0{outcome.stderr}")
        if request.argv in self.first:
            status, problem, first_raw = self.first[request.argv]
            return (status, problem) if raw == first_raw else ("wrong", "repeat differs")
        status, problem = self._status(request, outcome)
        self.first[request.argv] = (status, problem, raw)
        return status, problem

    def _status(self, request: Request, outcome: Outcome) -> tuple[str, str]:
        if request.expect == "defect":
            return defect_status(request, outcome)
        if request.expect.startswith("error:"):
            problem = error_problem(outcome, request.expect[len("error:"):])
            return ("wrong", problem) if problem else ("ok", "")
        if outcome.rc != 0:
            last = outcome.stderr.strip().splitlines()[-1:] or [""]
            return "wrong", f"exit {outcome.rc}: {last[0][:100]}"
        argv = request.argv
        if run_in_process(argv) != outcome:
            return "wrong", "output differs from an in-process run of the same request"
        document = outcome.stdout
        if _flags(argv).get("format", "text") != "json":
            argv = with_format(argv, "json")
            document = run_in_process(argv).stdout
        try:
            payload = json.loads(document)
            problems = self.checker.payload_problems(argv, payload, outcome.stderr)
        except (KeyError, ValueError, TypeError) as exc:
            problems = [f"unreadable payload: {type(exc).__name__}: {exc}"]
        return ("wrong", "; ".join(problems)) if problems else ("ok", "")


def sweep_cells(argv: tuple[str, ...]) -> int:
    """Valid cells of a sweep request, the work unit of ``grid_sweep``."""
    return len(_sweep_grid(_flags(argv))[0])


def verify_results(name: str, seed: int, results: list) -> dict:
    """Status, digest and work units (0 unless the op verified) of every
    (op, result) pair, with the golden digests applied for the default seed."""
    import secantinv

    def program_chi(g, d, k):
        return secantinv.hilbert_polynomial(secantinv.SecantInstance(g, d, k)).coefficients

    checker = Checker(program_chi)
    cli_checks = CliChecks(checker)
    statuses, problems, digests, units, codes = [], [], [], [], {}
    for i, (op, result) in enumerate(results):
        if name == "deep_order":
            found = checker.deep_problems(op, result)
            status, problem = ("wrong", "; ".join(found)) if found else ("ok", "")
            digest = digest_deep(result)
        else:
            status, problem = cli_checks.status(op, result)
            digest = digest_outcome(result, status)
            codes[str(result.rc)] = codes.get(str(result.rc), 0) + 1
        statuses.append(status)
        digests.append(digest)
        if problem:
            problems.append(f"op {i}: {problem}")
        units.append(0 if status != "ok" else sweep_cells(op.argv) if name == "grid_sweep" else 1)

    golden = load_golden().get(name) if seed == DEFAULT_SEED else None
    if golden:
        for i, digest in enumerate(digests):
            if i < len(golden) and digest != golden[i]:
                statuses[i] = "wrong"
                units[i] = 0
                problems.append(f"op {i}: digest differs from the golden digest")
    return {
        "units": units,
        "statuses": statuses,
        "ok": statuses.count("ok"),
        "failed": statuses.count("failed"),
        "wrong": statuses.count("wrong"),
        "problems": problems[:20],
        "digests": digests,
        "golden": "checked" if golden else "none",
        "exit_codes": codes,
    }
