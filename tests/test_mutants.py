"""The mutant list of ``tools/mutants.py`` names lines that exist."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutated_line_occurs_once_in_its_file():
    # or once within the function a mutant names
    mutants = load_mutants()
    sources = {path.name: path.read_text()
               for path in (ROOT / "src" / "iontrap").glob("*.py")}
    for mutant in mutants.MUTANTS:
        name, line, replacement, reason = mutant[:4]
        found = [f for f, text in sources.items()
                 if line in text.split("\n")]
        assert found == [name], (line, found)
        assert len(mutants.occurrences(sources[name], mutant)) == 1, mutant
        assert replacement != line and reason
