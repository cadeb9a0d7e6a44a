"""Correctness checks on the artifacts of one preset call, and the counts
parsed from them.

The physics outcomes are compared with reference values by a statistical
tolerance on their logarithm, not by bytes: a correct engine with another
random stream (a new noise sampler, say) must still pass.
"""

from __future__ import annotations

import csv
import math
import statistics
from pathlib import Path

# Allowed distance from the reference centre, in reference standard
# deviations of the log outcome across seeds.
TOLERANCE_SD = 5.0

# field_sweep detunings counted as near the anticrossing (tesla)
NEAR_T = 2.5e-6


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.inf  # "no decay resolvable"


def read_summary(path: Path) -> dict[str, str]:
    items = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.partition(" = ")
            items[key] = value
    return items


def _data_rows(path: Path) -> list[dict[str, str]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def outcomes(preset: str, out: Path) -> dict[str, float]:
    """The physics results a preset call produced, by name. Each shipped
    config labels its artifacts with its preset's name."""
    summary = read_summary(out / f"{preset}_summary.txt")
    if preset == "zq_decay":
        return {"t2_zq_s": _number(summary.get("t2_zq_s", "inf"))}
    if preset == "field_sweep":
        # t2_far_s barely moves with the noise amplitude; the echo T2 near
        # the anticrossing does, and spreads least between seeds there. A
        # T2 too long to resolve (inf) is left out of the geometric mean.
        near = [
            _number(r["t2_s"]) for r in _data_rows(out / f"{preset}.csv") if abs(float(r["delta_b_T"])) <= NEAR_T
        ]
        resolved = [math.log(v) for v in near if 0 < v < math.inf]
        return {
            "t2_far_s": _number(summary["t2_far_s"]),
            "half_excess_detuning_T": _number(summary.get("half_excess_detuning_T", "inf")),
            "t2_near_s": math.exp(statistics.fmean(resolved)) if resolved else math.inf,
        }
    if preset == "electrometry":
        rows = sorted((float(r["eps_rms_V_per_m"]), _number(r["t2_zq_s"])) for r in _data_rows(out / f"{preset}.csv"))
        return {f"t2_zq_s@eps={eps:g}": t2 for eps, t2 in rows}
    raise ValueError(f"no outcomes defined for preset {preset!r}")


def problems(preset: str, out: Path, reference: dict | None) -> list[str]:
    """Every way the artifacts in ``out`` fail the check; empty if they pass.

    Every call is checked for the config echo and for its physics: a
    finite T2_ZQ (zq_decay), a finite t2_far, half-excess detuning and
    T2 near the anticrossing (field_sweep), a T2_ZQ that does not increase
    with eps_rms (electrometry). ``reference`` maps outcome names to
    {"log_center", "log_sd"}; the outcomes are also compared with it when
    it is given.
    """
    found = []
    csvs = sorted(out.glob("*.csv"))
    if not csvs:
        found.append("no CSV written")
    for path in csvs:
        with path.open() as fh:
            if not fh.readline().startswith("# config "):
                found.append(f"{path.name} does not start with the '# config' echo")
    try:
        values = outcomes(preset, out)
    except (OSError, KeyError, ValueError) as exc:
        return found + [f"cannot read outcomes: {exc!r}"]
    if preset == "electrometry":
        ordered = list(values.values())  # by increasing eps_rms
        if any(b > a for a, b in zip(ordered, ordered[1:])):
            found.append(f"T2_ZQ increases with eps_rms: {ordered}")
    else:
        found += [f"{name} is not finite" for name, value in values.items() if not math.isfinite(value)]
    for name, ref in (reference or {}).items():
        value = values.get(name)
        if value is None or not math.isfinite(value) or value <= 0:
            found.append(f"{name} = {value}, reference needs a finite positive value")
            continue
        dist = abs(math.log(value) - ref["log_center"])
        if dist > TOLERANCE_SD * ref["log_sd"]:
            found.append(
                f"{name} = {value:.6g} is {dist / ref['log_sd']:.1f} sd from the reference "
                f"{math.exp(ref['log_center']):.6g} (allowed {TOLERANCE_SD:g})"
            )
    return found


def inf_lifetimes(preset: str, out: Path) -> int:
    """Lifetimes reported as inf: ``t2*`` summary entries and ``t2*`` columns
    of the main CSV."""
    count = sum(
        1
        for key, value in read_summary(out / f"{preset}_summary.txt").items()
        if key.startswith("t2") and not math.isfinite(_number(value))
    )
    for row in _data_rows(out / f"{preset}.csv"):
        count += sum(1 for key, value in row.items() if key.startswith("t2") and not math.isfinite(_number(value)))
    return count


def bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def csv_differences(a: Path, b: Path) -> list[str]:
    """Names of the CSVs that are missing from one directory or differ in bytes."""
    names = sorted({p.name for p in a.glob("*.csv")} | {p.name for p in b.glob("*.csv")})
    return [
        n
        for n in names
        if not ((a / n).is_file() and (b / n).is_file() and (a / n).read_bytes() == (b / n).read_bytes())
    ]
