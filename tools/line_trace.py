"""Which lines of the package the seed-7 byte matrix runs.

    python3 tools/line_trace.py OUT

runs ``byte_matrix.main_matrix(OUT)`` (every shipped config plus the deer
and custom configs, artifacts under ``OUT``) under ``sys.settrace``, with
line events only in frames whose code lives in ``src/spindyad``. The
package is imported under the trace, so module-level lines count. For
each module it then prints the executable lines (the line numbers of its
code objects' ``co_lines``), how many of them ran, and every range of
executable lines that did not run with the first source line of the
range; the last line gives the totals and the physical line count of
``src/spindyad/*.py`` (what ``wc -l`` counts). A function whose whole body is
one such range is never called by any shipped config. Class bodies and
``def`` lines run at import, so an attribute nothing reads does not show.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spindyad"


def executable_lines(path: Path) -> set[int]:
    """Every source line an instruction of the module's code objects maps to."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def trace_matrix(out: Path) -> dict[str, set[int]]:
    """Run the byte matrix into ``out``; the lines run, by package file."""
    ran: dict[str, set[int]] = {}
    in_package: dict[str, bool] = {}

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, _arg):
        name = frame.f_code.co_filename
        if name not in in_package:
            in_package[name] = Path(name).resolve().parent == PACKAGE
        if not in_package[name]:
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)  # the def line
        return local

    sys.path.insert(0, str(ROOT / "tools"))
    sys.settrace(call)
    try:
        import byte_matrix  # imports the package, under the trace

        byte_matrix.main_matrix(out)
    finally:
        sys.settrace(None)
    return {str(Path(k).resolve()): v for k, v in ran.items()}


def report(ran: dict[str, set[int]]) -> list[str]:
    out, total, total_run, physical = [], 0, 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        physical += len(source)
        lines = sorted(executable_lines(path))
        hit = ran.get(str(path.resolve()), set()) & set(lines)
        total += len(lines)
        total_run += len(hit)
        out.append(f"{path.name}: {len(lines)} executable, {len(hit)} run")
        start = prev = None
        for line in lines + [None]:
            if line is not None and line not in hit:
                start = line if start is None else start
                prev = line
                continue
            if start is not None:
                span = f"{start}" if start == prev else f"{start}-{prev}"
                out.append(f"  {span:>9}  {source[start - 1].strip()}")
                start = None
    out.append(
        f"total: {total} executable, {total_run} run, {total - total_run} not run, "
        f"{physical} lines"
    )
    return out


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    lines = report(trace_matrix(Path(sys.argv[1]).resolve()))
    print("\n".join(lines))
