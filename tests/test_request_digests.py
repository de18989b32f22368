"""The command line's bytes, and the engine's values, over the fixed
request sets of ``scripts/request_digests.py``, pinned by digest.  The
30,648-request ``series`` set takes about 7 s, so it runs from the script
only."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "request_digests.py"


@pytest.fixture(scope="module")
def recipe():
    spec = importlib.util.spec_from_file_location("request_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, count, succeeded", [
    ("instances", 3200, 1840),
    ("sweeps", 147, 147),
    ("refusals", 750, 131),
    ("tables", 1440, 1440),
    ("engine", 693, 693),
    ("box", 16, 16),
    ("cohomology", 6552, 6552),
    ("rational", 126, 126),
])
def test_request_set_keeps_its_bytes(recipe, name, count, succeeded):
    assert recipe.digest(name) == (count, succeeded, recipe.DIGESTS[name])
