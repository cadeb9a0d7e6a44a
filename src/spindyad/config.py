"""Flat key=value experiment configuration with unit suffixes.

Format: ``[section]`` headers, one ``key = value`` per line, ``#``
comments. Values may carry a unit suffix separated by optional
whitespace; accepted suffixes are Hz/kHz/MHz/GHz, T/mT/uT/nT,
s/ms/us/ns, K and V_per_m. Unknown keys are errors, never ignored.
Every resolved value (defaults included) is echoed into the output
metadata so artifacts are reproducible on their own.

The full key reference lives in docs/config-schema.txt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "parse_quantity", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed or inconsistent configuration file."""


_SUFFIXES = {
    "hz": ("frequency", 1.0),
    "khz": ("frequency", 1e3),
    "mhz": ("frequency", 1e6),
    "ghz": ("frequency", 1e9),
    "t": ("field", 1.0),
    "mt": ("field", 1e-3),
    "ut": ("field", 1e-6),
    "nt": ("field", 1e-9),
    "s": ("time", 1.0),
    "ms": ("time", 1e-3),
    "us": ("time", 1e-6),
    "ns": ("time", 1e-9),
    "k": ("temperature", 1.0),
    "v_per_m": ("efield", 1.0),
}


def parse_quantity(text: str, expect: str, key: str = "") -> float:
    """Parse '50 kHz' / '1uT' / '0.3' into a finite float in base units.

    ``expect`` names the required dimension (frequency, field, time,
    temperature, efield, none); a bare number is accepted only for
    dimensionless keys, and a unit suffix only for the others.
    """
    s = text.strip()
    idx = len(s)
    while idx > 0 and (s[idx - 1].isalpha() or s[idx - 1] == "_"):
        idx -= 1
    num_part, suffix = s[:idx].strip(), s[idx:].strip().lower()
    try:
        value = float(num_part)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse number from {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: {text!r} is not a finite number")
    if not suffix:
        if expect != "none":
            raise ConfigError(f"key {key!r}: missing unit suffix in {text!r} (expected {expect})")
        return value
    if suffix not in _SUFFIXES:
        raise ConfigError(f"key {key!r}: unknown unit suffix {suffix!r} in {text!r}")
    dim, scale = _SUFFIXES[suffix]
    if dim != expect:
        raise ConfigError(f"key {key!r}: unit {suffix!r} is a {dim}, expected {expect}")
    return value * scale


# key registry: section -> key -> (dimension, default-as-text or None=required-by-presets);
# the dimension of an enumerated key is the tuple of its allowed values
_SCHEMA: dict[str, dict[str, tuple[str | tuple[str, ...], Optional[str]]]] = {
    "": {"schema": ("int", str(SCHEMA_VERSION))},
    "experiment": {
        "preset": ("str", None),
        "label": ("str", ""),
        "program": ("str", ""),  # path to a serialized pulse program
    },
    "params": {
        "delta": ("frequency", "2.87 GHz"),
        "gamma_e": ("frequency", "28.025 GHz"),  # per tesla
        "j": ("frequency", ""),
        "theta": ("none", ""),  # radians
        "j_par": ("frequency", ""),
        "j_perp": ("frequency", ""),
        "d_par": ("frequency", "0.0035 Hz"),  # per (V/m)
        "ddelta_dt": ("frequency", "-74.2 kHz"),  # per kelvin
    },
    "noise": {
        "beta_rms": ("field", "1 uT"),
        "xi": ("none", "0"),
        "switch_rate": ("frequency", "100 kHz"),
        "eps_rms": ("efield", "0 V_per_m"),
        "electric_rate": ("frequency", "100 kHz"),
    },
    "sim": {
        "trajectories": ("int", "500"),
        "dt": ("time", "10 ns"),
        "seed": ("int", "1"),
        "near_bm": ("bool", "false"),
        "delta_b": ("field", "0 T"),
        "shared_field": ("bool", "false"),
        "noise_during": (("all", "evolution"), "all"),
    },
    "sweep": {
        "variable": ("str", ""),
        "start": ("raw", ""),
        "stop": ("raw", ""),
        "count": ("int", "0"),
        "spacing": (("linear", "log"), "linear"),
        "values": ("raw", ""),
        "tau_start": ("time", "1 us"),
        "tau_stop": ("time", "240 us"),
        "tau_count": ("int", "22"),
        "tau_spacing": (("linear", "log"), "log"),
        "delta_temp": ("temperature", "0 K"),
        "window": ("time", ""),
    },
    "output": {
        "directory": ("str", "out"),
        "plot": ("bool", "true"),
    },
}


@dataclass
class ExperimentConfig:
    """Fully resolved configuration: value strings by "section.key",
    defaults included, plus typed accessors."""

    preset: str
    resolved: dict[str, str] = field(default_factory=dict)

    def text(self, section: str, key: str) -> str:
        return self.resolved[f"{section}.{key}"]

    def number(self, section: str, key: str) -> float:
        dim = _SCHEMA[section][key][0]
        return parse_quantity(self.text(section, key), dim, key=f"{section}.{key}")

    def integer(self, section: str, key: str) -> int:
        """An integer key, parsed exactly (no float round trip)."""
        text = self.text(section, key)
        try:
            return int(text)
        except ValueError as exc:
            raise ConfigError(f"key {section}.{key}: expected an integer, got {text!r}") from exc

    def flag(self, section: str, key: str) -> bool:
        val = self.text(section, key).strip().lower()
        if val in ("true", "yes", "1", "on"):
            return True
        if val in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"key {section}.{key}: expected boolean, got {val!r}")

    def has(self, section: str, key: str) -> bool:
        return self.resolved.get(f"{section}.{key}", "") != ""

    def value(self, section: str, key: str):
        """A key's value parsed as its schema dimension says; an unset
        key, a text key or an enumerated one gives its text."""
        dim, text = _SCHEMA[section][key][0], self.text(section, key)
        if text == "" or dim in ("str", "raw") or isinstance(dim, tuple):
            return text
        return {"bool": self.flag, "int": self.integer}.get(dim, self.number)(section, key)

    def is_default(self, section: str, key: str) -> bool:
        """Whether a key's parsed value equals its schema default's."""
        default = ExperimentConfig(self.preset, {f"{section}.{key}": _SCHEMA[section][key][1]})
        return self.value(section, key) == default.value(section, key)

    def sweep_values(self, expect: str, lo: float = -math.inf, hi: float = math.inf) -> list[float]:
        """The sweep axis from values= or start/stop/count, parsed in the
        dimension ``expect``; every value must lie in [lo, hi]."""
        values_text = self.text("sweep", "values")
        start_text = self.text("sweep", "start")
        stop_text = self.text("sweep", "stop")
        count = self.integer("sweep", "count")
        if values_text and (start_text or stop_text or count):
            raise ConfigError("sweep needs values= or start/stop/count, not both")
        if values_text:
            entries = [v.strip() for v in values_text.split(",")]
            if "" in entries:
                raise ConfigError(f"sweep.values has an empty entry in {values_text!r}")
            values = [parse_quantity(v, expect, key="sweep.values") for v in entries]
        elif not start_text or not stop_text or count < 1:
            raise ConfigError("sweep needs either values= or start/stop/count")
        else:
            start = parse_quantity(start_text, expect, key="sweep.start")
            stop = parse_quantity(stop_text, expect, key="sweep.stop")
            values = self.axis(start, stop, count)
        outside = [v for v in values if not lo <= v <= hi]
        if outside:
            variable = self.text("sweep", "variable")
            raise ConfigError(f"sweep {variable} value {outside[0]:g} is outside [{lo:g}, {hi:g}]")
        return values

    def axis(self, start: float, stop: float, count: int, prefix: str = "") -> list[float]:
        """``count`` points from ``start`` to ``stop`` spaced as
        ``sweep.<prefix>spacing`` says: in equal steps, or for ``log`` in a
        constant ratio, which needs positive bounds. The one check that a
        range has at least 2 points."""
        if count < 2:
            raise ConfigError(f"sweep.{prefix}count = {count}: a range needs at least 2 points")
        if self.text("sweep", f"{prefix}spacing") == "log":
            if start <= 0 or stop <= 0:
                raise ConfigError(f"sweep.{prefix}spacing = log needs positive bounds")
            ratio = (stop / start) ** (1.0 / (count - 1))
            return [start * ratio**i for i in range(count)]
        step = (stop - start) / (count - 1)
        return [start + i * step for i in range(count)]


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a config file, applying defaults.

    Unknown sections or keys fail loudly, and so does a key set twice;
    required keys (the preset) must be present; every default is echoed
    into ``resolved``. Whether the preset exists is for
    :func:`spindyad.presets.run_preset` to check.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    raw: dict[str, str] = {}
    set_on: dict[str, int] = {}  # the line that set each key
    section = ""
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        full = f"{section}.{key}"
        if full in set_on:
            raise ConfigError(f"line {lineno}: {full} is already set on line {set_on[full]}")
        raw[full], set_on[full] = value, lineno

    schema_text = raw.get(".schema", str(SCHEMA_VERSION))
    if not schema_text.isdecimal() or int(schema_text) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {schema_text}")

    resolved: dict[str, str] = {}
    for sec, keys in _SCHEMA.items():
        for key, (_dim, default) in keys.items():
            full = f"{sec}.{key}"
            if full in raw:
                resolved[full] = raw[full]
            elif default is not None:
                resolved[full] = default
    if "experiment.preset" not in resolved:
        raise ConfigError("missing required key experiment.preset")
    cfg = ExperimentConfig(preset=resolved["experiment.preset"].strip().lower(), resolved=resolved)
    # eager validation of every typed value so bad units fail at parse time
    for sec, keys in _SCHEMA.items():
        for key, (dim, _default) in keys.items():
            full = f"{sec}.{key}"
            if isinstance(dim, tuple) and resolved[full] not in dim:
                raise ConfigError(f"key {full}: expected one of {dim}, got {resolved[full]!r}")
            cfg.value(sec, key)
    return cfg
