"""Acceptance gate: every criterion runs at its pinned tolerance and prints
one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Each check's name must be the one at its position in the README's
"Acceptance suite" list, so the list cannot drift from the suite."""

import re
from pathlib import Path

import pytest

from nlgames.selftest import ACCEPTANCE_CHECKS

README = Path(__file__).parents[1] / "README.md"


def _readme_check_names() -> list[tuple[int, str]]:
    """(number, name) of each `N. **name**` item of the README's list."""
    section = README.read_text().split("\n## Acceptance suite\n", 1)[1].split("\n## ", 1)[0]
    return [(int(num), name) for num, name in re.findall(r"^(\d+)\. \*\*(.+?)\*\*", section, re.M)]


def test_readme_lists_one_item_per_check():
    assert [num for num, _ in _readme_check_names()] == list(range(1, len(ACCEPTANCE_CHECKS) + 1))


@pytest.mark.parametrize(
    "position, check", enumerate(ACCEPTANCE_CHECKS), ids=[c.__name__ for c in ACCEPTANCE_CHECKS]
)
def test_acceptance(position, check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    assert result.name == _readme_check_names()[position][1]
