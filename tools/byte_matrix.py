"""Seed-7 byte matrix: run every shipped preset and hash what it writes.

    python3 tools/byte_matrix.py OUT
    python3 tools/byte_matrix.py OUT --against REV

runs the 9 ``configs/*.cfg`` plus a ``deer`` and a ``custom`` config
through ``spindyad.cli.main`` at seed 7, with 120 trajectories for
zq_decay, 10 for field_sweep, 50 for electrometry and 8 for the rest.
Each run writes its artifacts to ``OUT/<name>/`` and its exit code and
stderr to ``OUT/<name>.log``; ``OUT/SHA256SUMS`` lists the SHA-256 of
every one of those files. Runs read the package from the ``src/`` next to
this script and work inside ``OUT`` with relative paths, so two checkouts
compare with one ``diff`` of their ``SHA256SUMS``.

``--against REV`` does that comparison: it first resolves REV with
``git rev-parse --verify`` (an unknown REV, or a tree outside git, exits 2
before anything runs), then extracts a ``git archive`` of REV to
``OUT/REV/tree``, runs that tree's own ``tools/byte_matrix.py``
into ``OUT/REV/out`` in a subprocess, prints every line in which the two
``SHA256SUMS`` differ, then a unified diff (no context) of each file whose
hash differs, at most ``DIFF_LINES`` lines per file, and exits 1 if any
does. Its last line gives the physical line count (``wc -l``) of
``src/spindyad/*.py`` in REV's tree and in this one.

``--against REV --numeric`` also compares each file whose hash differs
with REV's token by token, and exits 1 only if one is out of bounds:

* a number in a trace column (``signal_mean``, ``signal_sem``) of a CSV
  row may move by ``TRACE_ATOL`` absolute, every other number by
  ``VALUE_RTOL`` relative; a number of an SVG, printed at fixed
  precision, may also move by one unit of its last printed digit;
* every other token (words, ``inf``, the text between numbers), every
  log line's words and every exit code must match exactly, and so must
  the set of files.

Per file it prints the largest absolute and relative change of the trace
columns and of the other numbers, and the first token out of bounds.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import os
import re
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spindyad.cli import main  # noqa: E402

SEED = 7
TRAJECTORIES = {"zq_decay": 120, "field_sweep": 10, "electrometry": 50}
DEFAULT_TRAJECTORIES = 8
DIFF_LINES = 40

# the deer and custom configs of the preset and CLI smoke tests
EXTRA_CONFIGS = {
    "deer": """schema = 1
[experiment]
preset = deer
label = deer_far
[params]
j_par = 150 kHz
j_perp = 150 kHz
[noise]
beta_rms = 1 uT
xi = 0
[sim]
trajectories = 24
seed = 11
[output]
plot = true
[sweep]
tau_start = 0.5 us
tau_stop = 30 us
tau_count = 10
""",
    "custom": """schema = 1
[experiment]
preset = custom
label = custom
program = custom_program.txt
[params]
j_par = 50 kHz
j_perp = 50 kHz
[noise]
beta_rms = 1 uT
xi = 0.5
[sim]
trajectories = 6
[output]
plot = false
""",
}
CUSTOM_PROGRAM = (
    "rotation both x 1.5707963267948966\n"
    "delay 5e-06\n"
    "rotation both x 3.141592653589793\n"
    "delay 5e-06\n"
    "rotation both x 1.5707963267948966\n"
)


def _configs(inputs: Path) -> dict[str, Path]:
    configs = {p.stem: p for p in sorted((ROOT / "configs").glob("*.cfg"))}
    inputs.mkdir(exist_ok=True)
    for name, body in EXTRA_CONFIGS.items():
        path = inputs / f"{name}.cfg"
        path.write_text(body)
        configs[name] = path
    (Path.cwd() / "custom_program.txt").write_text(CUSTOM_PROGRAM)
    return configs


def main_matrix(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    names = []
    for name, cfg in _configs(Path("inputs")).items():
        n = TRAJECTORIES.get(name, DEFAULT_TRAJECTORIES)
        argv = ["--config", str(cfg), "--out", name, "--seed", str(SEED), "--trajectories", str(n)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        Path(f"{name}.log").write_text(f"exit = {code}\n{err.getvalue()}")
        print(f"{name}: exit {code}", flush=True)
        names.append(name)
    files = sorted(
        p for name in names for p in [Path(f"{name}.log"), *Path(name).rglob("*")] if p.is_file()
    )
    lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.as_posix()}\n" for p in files]
    Path("SHA256SUMS").write_text("".join(lines))


# --numeric bounds: one value of each is in use, so neither is an option
TRACE_ATOL = 1e-12
VALUE_RTOL = 1e-6
TRACE_COLUMNS = ("signal_mean", "signal_sem")
_TRACE_KEYS = tuple(f"{c} = " for c in TRACE_COLUMNS)
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _tokens(name: str, text: str) -> list[tuple[str, str, int]]:
    """(kind, text, line number) of every token of a file: a number is
    ``trace`` in a trace column of a CSV row or on a summary line that
    names one, and ``value`` elsewhere, and the text around numbers is
    ``word``. A CSV's first line outside the ``#`` lines names its
    columns; a log's first line, the exit code, is one word."""
    out, columns = [], None
    for lineno, line in enumerate(text.splitlines(keepends=True), 1):
        if name.endswith(".log") and lineno == 1:
            out.append(("word", line, lineno))
            continue
        row = name.endswith(".csv") and not line.startswith("#")
        if row and columns is None:
            columns, row = line.rstrip("\n").split(","), False
        at = 0
        for m in _NUMBER.finditer(line):
            column = line.count(",", 0, m.start())
            in_column = row and column < len(columns) and columns[column] in TRACE_COLUMNS
            trace = in_column or line.startswith(_TRACE_KEYS)
            out += [("word", line[at : m.start()], lineno), ("trace" if trace else "value", m.group(), lineno)]
            at = m.end()
        out.append(("word", line[at:], lineno))
    return out


def _last_digit(number: str) -> float:
    """One unit of the last digit ``number`` is printed with."""
    mantissa, _, exponent = number.lower().partition("e")
    return 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))


def compare_numeric(name: str, theirs: str, ours: str) -> tuple[bool, str]:
    """Compare REV's and this tree's text of file ``name`` token by token
    under the ``--numeric`` bounds: (within them, one report line)."""
    a, b = _tokens(name, theirs), _tokens(name, ours)
    worst = {"trace": [0.0, 0.0], "value": [0.0, 0.0]}
    last_digit, fault = 0, None
    for (kind, x, lineno), (kind_b, y, _) in zip(a, b):
        if kind != kind_b or kind == "word":
            if x != y:
                fault = f"line {lineno}: {x.strip()!r} became {y.strip()!r}"
                break
            continue
        d = abs(float(x) - float(y))
        r = d / max(abs(float(x)), abs(float(y))) if d else 0.0
        worst[kind] = [max(worst[kind][0], d), max(worst[kind][1], r)]
        within = d <= TRACE_ATOL if kind == "trace" else r <= VALUE_RTOL
        if not within and name.endswith(".svg") and d <= max(_last_digit(x), _last_digit(y)) * (1 + 1e-9):
            last_digit += 1
        elif not within and fault is None:
            fault = f"line {lineno}: {x} became {y}"
    if fault is None and len(a) != len(b):
        fault = f"{len(a)} tokens became {len(b)}"
    (ta, tr), (va, vr) = worst["trace"], worst["value"]
    report = f"{name}: trace max abs {ta:.2g} rel {tr:.2g}; values max abs {va:.2g} rel {vr:.2g}"
    if last_digit:
        report += f"; {last_digit} at their last printed digit"
    return fault is None, report + ("; within bounds" if fault is None else f"; OUT OF BOUNDS, {fault}")


def _lines(path: Path) -> list[str]:
    return path.read_text(errors="replace").splitlines() if path.is_file() else []


def check_rev(rev: str) -> None:
    """Exit 2 with one line unless REV names a commit of the repository
    this script is in."""
    found = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        capture_output=True,
    )
    if found.returncode != 0:
        print(f"byte_matrix: {rev!r} names no commit of a git repository at {ROOT}", file=sys.stderr)
        sys.exit(2)


def src_lines(root: Path) -> int:
    """Physical lines of the package's modules under ``root``."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "spindyad").glob("*.py"))


def against(out: Path, rev: str, numeric: bool = False) -> int:
    """Run REV's own matrix under ``OUT/REV`` and print the lines in which
    its ``SHA256SUMS`` and OUT's differ, then the diff of each file they
    name; 1 if any differs, else 0. With ``numeric``, 1 only if a file
    is out of the ``--numeric`` bounds or only one tree has it."""
    dest = out / rev.replace("/", "_")
    shutil.rmtree(dest, ignore_errors=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest / "tree", filter="data")
    script = dest / "tree" / "tools" / "byte_matrix.py"
    subprocess.run([sys.executable, str(script), str(dest / "out")], check=True)
    theirs = (dest / "out" / "SHA256SUMS").read_text().splitlines()
    ours = (out / "SHA256SUMS").read_text().splitlines()
    diff = list(difflib.unified_diff(theirs, ours, f"{rev}/SHA256SUMS", "SHA256SUMS", n=0, lineterm=""))
    print("\n".join(diff) if diff else f"SHA256SUMS identical to {rev}'s")
    changed = sorted({line[1:].split("  ", 1)[1] for line in diff[2:] if not line.startswith("@@")})
    for name in changed:
        body = list(
            difflib.unified_diff(
                _lines(dest / "out" / name), _lines(out / name), f"{rev}/{name}", name, n=0, lineterm=""
            )
        )
        print("\n".join(body[:DIFF_LINES]))
        if len(body) > DIFF_LINES:
            print(f"... {len(body) - DIFF_LINES} more lines of {name}'s diff")
    bad = bool(diff)
    if numeric:
        bad = False
        for name in changed:
            theirs, ours = dest / "out" / name, out / name
            if theirs.is_file() and ours.is_file():
                ok, report = compare_numeric(name, theirs.read_text(), ours.read_text())
            else:
                ok, report = False, f"{name}: OUT OF BOUNDS, only {'here' if ours.is_file() else f'at {rev}'}"
            print(f"numeric: {report}")
            bad |= not ok
        verdict = "out of bounds" if bad else "within bounds" if changed else "every file identical"
        print(f"numeric: {verdict}")
    print(f"src/spindyad/*.py: {src_lines(dest / 'tree')} lines at {rev}, {src_lines(ROOT)} here")
    return 1 if bad else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="directory for artifacts, logs and SHA256SUMS")
    ap.add_argument("--against", metavar="REV", help="git revision whose matrix to compare with")
    ap.add_argument("--numeric", action="store_true", help="with --against: hold changed files' numbers to bounds")
    args = ap.parse_args()
    out = args.out.resolve()
    if args.numeric and not args.against:
        ap.error("--numeric needs --against REV")
    if args.against:
        check_rev(args.against)
    main_matrix(out)
    sys.exit(against(out, args.against, args.numeric) if args.against else 0)
