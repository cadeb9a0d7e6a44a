"""The checks a change reruns before it merges, as one command.

    python3 tools/premerge.py REV OUT [--numeric]

runs, from the checkout this script is in:

* ``byte_matrix``: ``tools/byte_matrix.py OUT/matrix --against REV``; it
  passes when the seed-7 ``SHA256SUMS`` equal REV's and every preset run
  of both trees exits 0. With ``--numeric`` it passes that flag on, and
  files whose hashes differ pass when they are within its bounds;
* ``key_matrix``: ``tools/key_matrix.py OUT/keys``; it passes when every
  key a preset declares it reads moves an artifact byte of every matrix
  config, or is allowed not to, and the last line is ``key_matrix: ok``;
* ``tier-1``: the ROADMAP Tier-1 command, ``python -m pytest -q
  --continue-on-collection-errors`` with ``src`` on ``PYTHONPATH``, its
  JUnit report in ``OUT/tier-1.xml``; it passes when pytest exits 0 and
  no test of the scipy comparisons (``SCIPY_CHECKS``) was skipped or
  missing, and its line gives the number of skipped tests and the number
  of test ids ``pytest --collect-only -q`` finds in REV's tree (the one
  ``byte_matrix`` extracted to ``OUT/matrix/<REV>/tree``, its ``src`` on
  ``PYTHONPATH``) and not in this one; those ids go to
  ``OUT/tier-1-removed.txt``, which reports and fails nothing;
* ``smoke``: ``perfbench/run.py --smoke`` in a copy of ``src``,
  ``perfbench``, ``configs`` and ``BENCHMARK.json`` under ``OUT/bench``
  (the harness writes its records next to itself); it passes when it
  reports correct with no failed call;
* ``harness``: the harness's own tests, ``python -m pytest -q
  perfbench/test_smoke.py``, in that same ``OUT/bench`` copy; it passes
  when pytest exits 0.

Before the steps one line lists the files under ``perfbench/``, and
``BENCHMARK.json``, in which this checkout differs from REV (changed,
deleted, or new and not ignored). It reports and fails nothing: a change
that claims a speed-up leaves the benchmark's files as they are, and a
change to them is a change of its own.

Each step's output goes to ``OUT/<step>.log``; pytest's temporary
directories, the Hypothesis example database and the smoke copy's
bytecode go under ``OUT`` too, and the other steps cache no bytecode, so
nothing is written anywhere else. One line per step
gives its exit code, its seconds and what it found (for the pytest
steps the pytest summary); the last line is ``premerge: ok``, or ``premerge:
failed:`` and the failed steps, with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parent.parent


def _run(cmd: list[str], log: Path, cwd: Path, env: dict) -> tuple[int, float, str]:
    """Run ``cmd``, its stdout and stderr to ``log``: exit code, seconds, output."""
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    log.write_text(proc.stdout)
    return proc.returncode, time.monotonic() - start, proc.stdout


def byte_matrix(rev: str, out: Path, env: dict, numeric: bool) -> tuple[int, float, str, bool]:
    cmd = [sys.executable, str(ROOT / "tools" / "byte_matrix.py"), str(out / "matrix"), "--against", rev]
    code, seconds, text = _run(cmd + ["--numeric"] * numeric, out / "byte_matrix.log", ROOT, env)
    exits = re.findall(r"^\S+: exit (-?\d+)$", text, re.M)
    bad = sum(e != "0" for e in exits)
    lines = text.strip().splitlines()
    same = any(line.startswith("SHA256SUMS identical") for line in lines)
    note = f"{'SHA256SUMS identical' if same else 'SHA256SUMS differ'}, {bad} of {len(exits)} runs exit nonzero"
    verdict = re.search(r"^numeric: (every file identical|within bounds|out of bounds)$", text, re.M)
    note += f"; {verdict.group()}" if verdict else ""
    if lines and lines[-1].startswith("src/spindyad"):
        note += f"; {lines[-1]}"
    return code, seconds, note, code == 0 and (same or numeric) and bool(exits) and not bad


def key_matrix(out: Path, env: dict) -> tuple[int, float, str, bool]:
    cmd = [sys.executable, str(ROOT / "tools" / "key_matrix.py"), str(out / "keys")]
    code, seconds, text = _run(cmd, out / "key_matrix.log", ROOT, env)
    lines = text.strip().splitlines()
    last = lines[-1] if lines else "no output"
    note = f"{sum(line.endswith(': moved') for line in lines)} keys moved a byte; {last}"
    return code, seconds, note, code == 0 and last == "key_matrix: ok"


def _pytest(args: list[str], name: str, out: Path, cwd: Path, env: dict) -> tuple[int, float, str, bool]:
    """Run pytest with ``args``, caching nothing and its temporary
    directories under ``OUT/<name>-pytest``; passes when pytest exits 0."""
    env = dict(env, HYPOTHESIS_STORAGE_DIRECTORY=str(out / "hypothesis"))
    cmd = [sys.executable, "-m", "pytest", "-q", *args]
    cmd += ["-p", "no:cacheprovider", "--basetemp", str(out / f"{name}-pytest")]
    code, seconds, text = _run(cmd, out / f"{name}.log", cwd, env)
    summary = [line.strip("= ") for line in text.splitlines() if re.search(r"\d+ (passed|failed|error)", line)]
    return code, seconds, summary[-1] if summary else "no pytest summary", code == 0


# the only bit-for-bit guards of the in-house simplex and level assignment;
# they skip without scipy
SCIPY_CHECKS = ("TestSimplexMatchesScipy", "TestAssignmentMatchesScipy")


def collected_ids(collect_output: str) -> set[str]:
    """The test ids in the output of ``pytest --collect-only -q``: its
    lines that start with a test file's path and ``::``."""
    return {line for line in collect_output.splitlines() if re.match(r"[\w/.-]+\.py::", line)}


def removed_tests(theirs: str, ours: str) -> list[str]:
    """The sorted test ids of the collection output ``theirs`` that
    ``ours`` does not have."""
    return sorted(collected_ids(theirs) - collected_ids(ours))


def _collect(tree: Path, out: Path, env: dict) -> str:
    """What ``pytest --collect-only -q`` prints in ``tree``, with its ``src``
    on ``PYTHONPATH``, caching nothing."""
    env = dict(env, PYTHONPATH=str(tree / "src"), HYPOTHESIS_STORAGE_DIRECTORY=str(out / "hypothesis"))
    cmd = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True).stdout


def tier1(rev: str, out: Path, env: dict) -> tuple[int, float, str, bool]:
    """The Tier-1 suite; fails unless every test of ``SCIPY_CHECKS`` ran.
    Its note gives the number of skipped tests and of the tests REV's tree
    has and this one does not."""
    env = dict(env, PYTHONPATH=os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p))
    xml = out / "tier-1.xml"
    xml.unlink(missing_ok=True)
    code, seconds, note, ok = _pytest(["--continue-on-collection-errors", "--junitxml", str(xml)], "tier-1", out, ROOT, env)
    cases = ElementTree.parse(xml).iter("testcase") if xml.exists() else ()
    cases = [(c.get("classname", "").rsplit(".", 1)[-1], c.find("skipped") is not None) for c in cases]
    unrun = [name for name in SCIPY_CHECKS if (name, True) in cases or (name, False) not in cases]
    note += f"; {sum(skip for _, skip in cases)} skipped" + "".join(f"; {name} did not run" for name in unrun)
    theirs = out / "matrix" / rev.replace("/", "_") / "tree"
    if theirs.is_dir():
        removed = removed_tests(_collect(theirs, out, env), _collect(ROOT, out, env))
        (out / "tier-1-removed.txt").write_text("".join(f"{test}\n" for test in removed))
        note += f"; {len(removed)} tests at {rev} not here"
    else:
        note += f"; no tree of {rev} to compare tests with"
    return code, seconds, note, ok and not unrun


# what the benchmark runs from, besides the package
BENCHMARK_FILES = ("perfbench", "BENCHMARK.json")


def benchmark_changes(rev: str, root: Path = ROOT) -> list[str]:
    """The sorted files of ``BENCHMARK_FILES`` in which the checkout at
    ``root`` differs from ``rev``: changed, deleted (a renamed file under
    both names), or new and not ignored."""

    def git(*args: str) -> list[str]:
        cmd = ["git", *args, "--", *BENCHMARK_FILES]
        return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()

    changed = git("diff", "--name-only", "--no-renames", rev)
    return sorted({*changed, *git("ls-files", "--others", "--exclude-standard")})


def smoke(out: Path, env: dict) -> tuple[int, float, str, bool]:
    bench = out / "bench"
    shutil.rmtree(bench, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__", ".work")
    for name in ("src", "perfbench", "configs"):
        shutil.copytree(ROOT / name, bench / name, ignore=skip)
    shutil.copy2(ROOT / "BENCHMARK.json", bench)
    code, seconds, text = _run([sys.executable, "perfbench/run.py", "--smoke"], out / "smoke.log", bench, env)
    try:
        result = json.loads(text.strip().splitlines()[-1])
        failed = sum(w["failed"] for w in result["workloads"].values())
        ok = result["correct"] and not failed
        note = f"correct = {result['correct']}, {failed} failed calls"
    except (IndexError, ValueError, KeyError, TypeError):
        ok, note = False, "no result line"
    return code, seconds, note, code == 0 and ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision to compare the byte matrix with")
    ap.add_argument("out", type=Path, help="directory for every log and artifact")
    ap.add_argument("--numeric", action="store_true", help="pass --numeric to the byte matrix")
    args = ap.parse_args(argv)
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        changed = ", ".join(benchmark_changes(args.rev)) or "none"
    except subprocess.CalledProcessError:
        changed = "git could not compare them"
    print(f"benchmark files that differ from {args.rev}: {changed}", flush=True)
    failed = []
    for name, step in (
        ("byte_matrix", lambda: byte_matrix(args.rev, out, env, args.numeric)),
        ("key_matrix", lambda: key_matrix(out, env)),
        ("tier-1", lambda: tier1(args.rev, out, env)),
        ("smoke", lambda: smoke(out, env)),
        ("harness", lambda: _pytest(["perfbench/test_smoke.py"], "harness", out, out / "bench", env)),
    ):
        code, seconds, note, ok = step()
        print(f"{name}: exit {code}, {seconds:.1f} s, {note}", flush=True)
        if not ok:
            failed.append(name)
    print(f"premerge: failed: {', '.join(failed)}" if failed else "premerge: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
