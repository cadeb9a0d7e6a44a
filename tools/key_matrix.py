"""Key matrix: every key a preset declares that it reads moves an artifact byte.

    python3 tools/key_matrix.py OUT

takes the configs of the seed-7 byte matrix (``tools/byte_matrix.py``: the
``configs/*.cfg`` and its ``deer`` and ``custom`` configs, at its seed and
trajectory counts, written into the file rather than passed as overrides)
and runs each as it is and once per key in its preset's
``presets._PRESETS`` reads, with that key set to one other value
(``VALUES``). A run's result is its exit code, its stderr and every
artifact it writes, with the ``# config`` echo lines dropped, so a value
the run refuses (its exit code is shown) counts as read. A key whose
result equals the config's own moved no byte: it passes only when
``ALLOWED`` names it with its reason, and an ``ALLOWED`` entry whose key
did move a byte fails too, so the list stays as short as it can be.

Runs work inside ``OUT`` (config files under ``OUT/inputs``, artifacts
under ``OUT/<config>/<key>``). One line per key gives its verdict; the
last line is ``key_matrix: ok``, or ``key_matrix: failed:`` and the
failing (config, key) pairs, with exit code 1.

The other half of the rule, that a non-default value of a key outside
the preset's reads exits 2 before any run, is a Tier-1 test
(``tests/test_cli.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from pathlib import Path

import byte_matrix  # puts the src/ next to this script on sys.path

from spindyad.cli import main
from spindyad.config import ExperimentConfig, parse_config
from spindyad.presets import _PRESETS

# the value each declared key is set to; None changes the config's own
# value: a flag flipped, the other of two choices, one more trajectory
VALUES = {
    "experiment.program": "custom_program_b.txt",
    "noise.beta_rms": "1.5 uT",
    "noise.xi": "0.3",
    "noise.switch_rate": "80 kHz",
    "noise.eps_rms": "300000 V_per_m",
    "noise.electric_rate": "80 kHz",
    "sim.trajectories": None,
    "sim.dt": "8 ns",
    "sim.seed": "8",
    "sim.near_bm": None,
    "sim.delta_b": "2 uT",
    "sim.shared_field": None,
    "sim.noise_during": None,
    "sweep.tau_start": "2 us",
    "sweep.tau_stop": "90 us",
    "sweep.tau_count": "12",
    "sweep.tau_spacing": None,
    "sweep.delta_temp": "-0.2 K",
    "sweep.window": "3 us",
}
OTHER_CHOICE = {"log": "linear", "linear": "log", "all": "evolution", "evolution": "all"}
PROGRAM_B = "rotation both x 1.5707963267948966\ndelay 3e-06\nrotation both x 1.5707963267948966\n"

# (preset, key, condition on the config, reason) of the declared keys that
# may move no byte
ALLOWED = [
    ("field_sweep", "sim.delta_b", None, "the swept key: the delta_b axis replaces it"),
    ("xi_sweep", "noise.xi", None, "the swept key: the xi axis replaces it, and the far reference runs at xi = 0"),
    ("electrometry", "noise.eps_rms", None, "the swept key: the eps_rms axis replaces it"),
    (None, "noise.electric_rate", lambda cfg: cfg.number("noise", "eps_rms") == 0, "eps_rms = 0 switches it off"),
    (
        "pol_transfer",
        "sim.dt",
        None,
        "the noise-free transfer is exact at any dt on whose grid tau_zq = 1/(4 j_par) lies, as it does"
        " at 10 and 8 ns for j_par = 50 kHz (7 ns moves tau_zq_s)",
    ),
    (
        "pol_transfer",
        "sim.delta_b",
        lambda cfg: not cfg.flag("sim", "near_bm"),
        "off the anti-crossing the detuning adds only phases, and the fidelity is a population",
    ),
]


def other(cfg: ExperimentConfig, key: str) -> str:
    """The value ``key`` is set to in its run: ``VALUES[key]``, or the
    config's own value changed."""
    if VALUES[key] is not None:
        return VALUES[key]
    value = cfg.value(*key.split("."))
    if isinstance(value, bool):
        return str(not value).lower()
    if isinstance(value, int):
        return str(value + 1)
    return OTHER_CHOICE[value]


def allowed(preset: str, key: str, cfg: ExperimentConfig) -> str:
    """The reason ``key`` may move no byte on this config, "" for none."""
    for who, name, when, reason in ALLOWED:
        if who in (None, preset) and name == key and (when is None or when(cfg)):
            return reason
    return ""


def write_config(path: Path, resolved: dict[str, str]) -> None:
    """A config file that sets every nonempty value of ``resolved``."""
    sections: dict[str, list[str]] = {}
    for full, text in resolved.items():
        section, key = full.split(".")
        if text:
            sections.setdefault(section, []).append(f"{key} = {text}")
    lines = sections.pop("", [])
    for section, entries in sections.items():
        lines += [f"[{section}]", *entries]
    path.write_text("\n".join(lines) + "\n")


def _without_echo(data: bytes) -> bytes:
    return b"".join(line for line in data.splitlines(keepends=True) if not line.startswith(b"# config "))


def result(path: Path, out: Path) -> tuple:
    """Exit code, stderr and artifacts of one run, without the config echo."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(path), "--out", str(out)])
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    artifacts = {p.relative_to(out).as_posix(): _without_echo(p.read_bytes()) for p in files}
    return code, _without_echo(err.getvalue().encode()), artifacts


def main_keys(out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    Path("custom_program_b.txt").write_text(PROGRAM_B)
    inputs = Path("inputs")
    failed = []
    for name, source in byte_matrix._configs(inputs).items():
        cfg = parse_config(source)
        reads = _PRESETS[cfg.preset].reads
        resolved = dict(cfg.resolved)
        trajectories = byte_matrix.TRAJECTORIES.get(name, byte_matrix.DEFAULT_TRAJECTORIES)
        for key, value in (("sim.seed", byte_matrix.SEED), ("sim.trajectories", trajectories)):
            if key in reads:
                resolved[key] = str(value)
        write_config(inputs / f"{name}.base.cfg", resolved)
        cfg = parse_config(inputs / f"{name}.base.cfg")
        base = result(inputs / f"{name}.base.cfg", Path(name) / "base")
        if base[0] != 0:
            print(f"{name}: exit {base[0]} as it is", flush=True)
            failed.append(f"{name} base")
            continue
        for key in reads:
            changed = dict(resolved, **{key: other(cfg, key)})
            path = inputs / f"{name}.{key}.cfg"
            write_config(path, changed)
            run = result(path, Path(name) / key)
            moved = run != base
            reason = allowed(cfg.preset, key, cfg)
            verdict = "moved" if moved else f"silent, allowed: {reason}" if reason else "SILENT"
            if run[0] != 0:  # a refused value counts as read
                verdict += f" (exit {run[0]})"
            if moved == bool(reason):
                verdict = "moved, but allowed as silent: drop it from ALLOWED" if moved else verdict
                failed.append(f"{name} {key}")
            print(f"{name} {key} = {changed[key]}: {verdict}", flush=True)
    print(f"key_matrix: failed: {', '.join(failed)}" if failed else "key_matrix: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="directory for configs, artifacts and runs")
    sys.exit(main_keys(ap.parse_args().out.resolve()))
