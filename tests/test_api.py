import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import secantinv

# sha256 of "\n".join(secantinv.__all__), recorded when the package listed its
# public names by hand; the per-module lists must add up to the same API.
_ALL_DIGEST = "51e008516f534e5c08fe832cec9b5dc56b062f86660fd4fe03fe624c6c8eb969"
_LAYERS = {"errors", "exactmath", "secant_core", "cohomology", "tangent_geometry"}


def test_all_is_49_distinct_sorted_names():
    names = secantinv.__all__
    assert len(names) == len(set(names)) == 49
    assert names == sorted(names)


def test_every_name_resolves():
    for name in secantinv.__all__:
        assert hasattr(secantinv, name), name


def test_all_digest_is_unchanged():
    digest = hashlib.sha256("\n".join(secantinv.__all__).encode()).hexdigest()
    assert digest == _ALL_DIGEST


def test_star_imports_leak_no_other_public_name():
    # A fresh interpreter: other tests import more submodules into the package.
    script = (
        "import secantinv\n"
        "print(*sorted(n for n in vars(secantinv) if not n.startswith('_')"
        " or n == '__version__'))"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, check=True)
    extra = set(result.stdout.split()) - set(secantinv.__all__)
    assert extra == _LAYERS | {"__version__"}


ROOT = Path(__file__).resolve().parent.parent


def _bench_import_modules() -> tuple[str, ...]:
    """``IMPORT_MODULES`` of ``bench/run.py``, read from its source."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "IMPORT_MODULES" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no IMPORT_MODULES")


def test_importing_the_cli_loads_every_module_the_benchmark_times():
    """The benchmark times ``import secantinv.cli`` under ``python -X
    importtime``, with ``PYTHONPATH=src``, and reports one
    ``import.<module>_ms`` metric for each of its ``IMPORT_MODULES``.  A
    module the CLI does not load at import drops its metric: were
    ``tangent_geometry`` imported lazily, a run would still print
    ``"correct": true``, but its verdict would hold 53 metrics, without
    ``import.tangent_geometry_ms``, one of the 54 per-layer names
    ``BENCHMARK.json`` declares.  So the start-up cost of the star imports
    in ``__init__.py``, which load every layer for every command, waits on
    ROADMAP item 2, the package's own instrument, to time imports another
    way."""
    modules = _bench_import_modules()
    assert len(modules) == 6
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-X", "importtime", "-c", "import secantinv.cli"],
                            capture_output=True, text=True, env=env, cwd=ROOT, check=True)
    imported = {line.split("|")[-1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")}
    assert set(modules) <= imported, sorted(set(modules) - imported)
