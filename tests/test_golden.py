"""Reports of a fixed set of commands, outside `timing`, equal the recordings.

Re-record with `python3 tests/record_golden.py` only when a report is meant
to change.
"""

import json

import pytest

from record_golden import GOLDEN, golden_path, run


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden(name):
    expected = json.loads(golden_path(name).read_text())
    assert expected["argv"] == GOLDEN[name]
    assert run(GOLDEN[name]) == expected
