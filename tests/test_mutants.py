import importlib.util
from pathlib import Path


def test_catalogued_mutants_match_the_sources():
    # every snippet of scripts/mutants.py occurs exactly once in src/ and every
    # test it names exists, so code that moves takes its mutants along
    path = Path(__file__).resolve().parents[1] / "scripts" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants", path)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.CATALOGUE
    assert mutants.misplaced() == []
