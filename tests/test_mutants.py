"""Every mutant in ``tests/mutants.py`` still names one snippet of ``src/``.

Running ``tests/mutants.py`` refuses a mutant whose ``old`` snippet does
not occur exactly once, but only when someone runs it; this keeps a
refactor that moves a mutated line from leaving the mutant behind.
"""
import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_snippet_occurs_exactly_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert mutant.old != mutant.new
    assert text.count(mutant.old) == 1, (
        f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times in "
        f"{mutant.path}; re-point the mutant at the line's new form")
