"""The test-id comparison of ``tools/premerge.py``'s Tier-1 step."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("premerge", ROOT / "tools" / "premerge.py")
premerge = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(premerge)

# the shape of ``pytest --collect-only -q`` output, with a collection error
THEIRS = """tests/test_a.py::test_kept
tests/test_a.py::TestB::test_param[dt-0]
tests/test_a.py::TestB::test_param[xi = 2]
tests/sub/test_c.py::test_gone

ERROR tests/test_d.py::test_x - ImportError
4 tests collected, 1 error in 0.50s
"""
OURS = """tests/test_a.py::test_kept
tests/test_a.py::TestB::test_param[dt-0]
tests/test_a.py::test_new

1 test collected in 0.10s
"""


def test_ids_are_the_lines_that_name_a_test():
    assert premerge.collected_ids(OURS) == {
        "tests/test_a.py::test_kept",
        "tests/test_a.py::TestB::test_param[dt-0]",
        "tests/test_a.py::test_new",
    }


def test_removed_tests_are_those_only_rev_collects():
    assert premerge.removed_tests(THEIRS, OURS) == [
        "tests/sub/test_c.py::test_gone",
        "tests/test_a.py::TestB::test_param[xi = 2]",
    ]
    assert premerge.removed_tests(OURS, OURS) == []
