"""Recorded mutants of the package, each with the request that must kill it.

Each entry of ``MUTANTS`` is one deliberate slip in the package: a name, a
file under ``src/``, an exact text that occurs once in that file, the text
that replaces it, and its killer, a command line with the exit code and the
stderr it must give on the mutated package.  For each mutant the script
copies ``src/`` into a temporary directory, makes the one replacement there,
and runs the killer as ``python -m secantinv.cli`` on the copy.  A mutant
is killed when the exit code and stderr are exactly the killer's.  Each
killer is first run on the unmutated package, where it must exit 0, so that
a killer which fails anyway kills nothing.  Nothing under ``src/`` changes.

The first two entries are slips that the dual-route guard must catch.  Its
two routes are chi's two integer differencing kernels, so they are the same
slip in each, D_3 + 1 at order 3: one in the closed form's loop, one at
column 3 of ``lagrange_interpolate``'s ``int`` front.  The third flips a
sign in the expansion of a Newton form into monomials, which the
expansion's certificate must catch.  The fourth spells a wire string as an
unreduced numerator over the common denominator, which only the ``validate``
catalogue sees: its killer exits 1 with the report on stdout and nothing on
stderr.

Usage, from the repository root::

    python scripts/mutants.py

prints ``name killed`` or ``name SURVIVED: ...`` for each mutant, and exits
1 if a mutant survives, if its text does not occur exactly once, or if a
killer fails on the unmutated package.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    argv: tuple[str, ...]
    code: int
    stderr: str


_MISMATCH_AT_2_30_3 = dict(
    argv=("degree", "--genus", "2", "--degree", "30", "--order", "3"),
    code=3,
    stderr="error: internal-mismatch: closed form and interpolant disagree "
           "for (g, d, k) = (2, 30, 3)\n",
)

MUTANTS = (
    Mutant(
        name="closed-form-d3-plus-1",
        file="secantinv/secant_core.py",
        old="differences.append(row[0])",
        new="differences.append(row[0] + (len(differences) == 3))",
        **_MISMATCH_AT_2_30_3,
    ),
    Mutant(
        name="int-front-column-3-plus-1",
        file="secantinv/exactmath.py",
        old="differences[i] = current - previous",
        new="differences[i] = current - previous + (order == 3 and i == 3)",
        **_MISMATCH_AT_2_30_3,
    ),
    Mutant(
        name="newton-sign-slip",
        file="secantinv/exactmath.py",
        old="poly[j] = carry - a * c",
        new="poly[j] = carry + a * c",
        argv=("hilbert", "--genus", "2", "--degree", "30", "--order", "3"),
        code=3,
        stderr="error: internal-mismatch: the monomial and Newton forms of a polynomial differ\n",
    ),
    Mutant(
        name="wire-unreduced",
        file="secantinv/exactmath.py",
        old="return tuple(map(format_rational, self.coefficients))",
        new='return tuple(f"{n}/{self.denominator}" for n in self.numerators)',
        argv=("validate",),
        code=1,
        stderr="",
    ),
)


def occurrences(mutant: Mutant, src: Path = SRC) -> int:
    """How often the mutant's text occurs in its file under ``src``."""
    return (src / mutant.file).read_text().count(mutant.old)


def _run(src: Path, argv: tuple[str, ...]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "secantinv.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stderr


def verdict(mutant: Mutant) -> str | None:
    """None if the killer kills the mutant, or why it does not."""
    count = occurrences(mutant)
    if count != 1:
        return f"its text occurs {count} times in {mutant.file}, not once"
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = copy / mutant.file
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        got = _run(copy, mutant.argv)
    if got != (mutant.code, mutant.stderr):
        return f"exit {got[0]}, stderr {got[1]!r}"
    return None


def main() -> int:
    ok = True
    for argv in dict.fromkeys(mutant.argv for mutant in MUTANTS):
        code, stderr = _run(SRC, argv)
        if code != 0:
            print(f"killer {' '.join(argv)} fails unmutated: exit {code}, stderr {stderr!r}")
            ok = False
    for mutant in MUTANTS:
        why = verdict(mutant)
        print(f"{mutant.name} killed" if why is None else f"{mutant.name} SURVIVED: {why}")
        ok &= why is None
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
