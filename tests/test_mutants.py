"""The mutant list of tools/mutants.py stays applicable to the source."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_each_mutants_old_text_occurs_once_in_its_file():
    mutants = _mutants()
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert m.old != m.new, m.name
        assert (ROOT / m.file).read_text().count(m.old) == 1, m.name
        assert m.tests and all((ROOT / t).is_file() for t in m.tests), m.name
