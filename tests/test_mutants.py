"""The mutant list of ``tools/mutants.py`` names lines that exist."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutated_line_occurs_once_in_its_file():
    sources = {path.name: path.read_text().split("\n")
               for path in (ROOT / "src" / "iontrap").glob("*.py")}
    for name, line, replacement, reason in load_mutants():
        found = [f for f, lines in sources.items() if line in lines]
        assert found == [name], (line, found)
        assert sources[name].count(line) == 1, line
        assert replacement != line and reason
