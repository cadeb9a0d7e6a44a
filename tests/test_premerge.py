"""The test-id comparison of ``tools/premerge.py``'s Tier-1 step and its
report of the benchmark's files."""

import importlib.util
import subprocess
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


def test_benchmark_changes_are_the_benchmark_files_that_differ(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tmp_path, check=True, capture_output=True)

    files = ("perfbench/kept.py", "perfbench/edited.py", "perfbench/gone.py", "BENCHMARK.json", "src/x.py", ".gitignore")
    for name in files:
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text("perfbench/.work/\n" if name == ".gitignore" else "a\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    assert premerge.benchmark_changes("HEAD", tmp_path) == []
    (tmp_path / "perfbench/edited.py").write_text("b\n")
    (tmp_path / "perfbench/gone.py").unlink()
    (tmp_path / "perfbench/new.py").write_text("a\n")
    (tmp_path / "perfbench/.work").mkdir()
    (tmp_path / "perfbench/.work/record.json").write_text("{}\n")
    (tmp_path / "src/x.py").write_text("b\n")
    assert premerge.benchmark_changes("HEAD", tmp_path) == ["perfbench/edited.py", "perfbench/gone.py", "perfbench/new.py"]
    (tmp_path / "BENCHMARK.json").write_text("{}\n")
    git("add", "-A")
    git("commit", "-q", "-m", "change")
    assert premerge.benchmark_changes("HEAD", tmp_path) == []
    assert premerge.benchmark_changes("HEAD~1", tmp_path) == [
        "BENCHMARK.json",
        "perfbench/edited.py",
        "perfbench/gone.py",
        "perfbench/new.py",
    ]
