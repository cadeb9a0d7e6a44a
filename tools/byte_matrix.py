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
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import os
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


def against(out: Path, rev: str) -> int:
    """Run REV's own matrix under ``OUT/REV`` and print the lines in which
    its ``SHA256SUMS`` and OUT's differ, then the diff of each file they
    name; 1 if any differs, else 0."""
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
    print(f"src/spindyad/*.py: {src_lines(dest / 'tree')} lines at {rev}, {src_lines(ROOT)} here")
    return 1 if diff else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="directory for artifacts, logs and SHA256SUMS")
    ap.add_argument("--against", metavar="REV", help="git revision whose matrix to compare with")
    args = ap.parse_args()
    out = args.out.resolve()
    if args.against:
        check_rev(args.against)
    main_matrix(out)
    sys.exit(against(out, args.against) if args.against else 0)
