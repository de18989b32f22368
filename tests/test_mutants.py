"""The mutant catalogue of ``scripts/mutants.py`` stays applicable: each
entry's text occurs exactly once in its file under ``src/``, so that the
script mutates the code it names, and no recorded entry drops out.  CI runs
the script itself, which applies each mutant to a copy of ``src/`` and runs
its killer."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"


def _load():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CATALOGUE = _load()


@pytest.mark.parametrize("mutant", CATALOGUE.MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_text_occurs_once_in_src(mutant):
    assert mutant.new != mutant.old
    assert CATALOGUE.occurrences(mutant) == 1
    assert [other.name for other in CATALOGUE.MUTANTS].count(mutant.name) == 1


def test_catalogue_holds_every_recorded_mutant():
    """The two guard slips, the Newton expansion's sign slip, which its
    certificate catches, and the unreduced wire spelling, which only
    ``validate`` catches; each killer fails, with exit 1 or 3."""
    assert [mutant.name for mutant in CATALOGUE.MUTANTS] == [
        "closed-form-d3-plus-1", "int-front-column-3-plus-1", "newton-sign-slip",
        "wire-unreduced"]
    assert [mutant.code for mutant in CATALOGUE.MUTANTS] == [3, 3, 3, 1]
