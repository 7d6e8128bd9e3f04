"""The mutant table stays applicable as the code it mutates changes.

The battery itself (``python -m tests.support.mutants``) runs in its own
CI job; this only checks, in milliseconds, that every row's text occurs
exactly once in its file and that every test it names exists.
"""

from __future__ import annotations

import pytest

from tests.support.mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda row: row.name)
def test_row_applies_and_names_existing_tests(mutant):
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.source) == 1
    assert mutant.selection
    for node in mutant.selection:
        path, _, name = node.partition("::")
        assert f"def {name}(" in (ROOT / path).read_text(encoding="utf-8")
