"""The mutant table in tools/mutants.py: each row edits one site that exists.

A refactor that moves a mutated site must update its row, and in doing so
decide again which tests kill it."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_each_mutant_edits_one_site_that_occurs_once():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in mutants.MUTANTS:
        assert (ROOT / mutant.path).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.old != mutant.new, mutant.name
        assert mutant.tests and all((ROOT / test).is_file() for test in mutant.tests), mutant.name
