"""Config parsing: units, defaults, validation, sweep axes."""

import math
import re
from pathlib import Path

import pytest

from spindyad import config
from spindyad.config import ConfigError, parse_config, parse_quantity

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def write_cfg(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return path


MINIMAL = """
schema = 1

[experiment]
preset = zq_decay

[params]
j_par = 50 kHz
j_perp = 50 kHz

[noise]
beta_rms = 1uT
xi = 0.5
"""


class TestQuantityParsing:
    @pytest.mark.parametrize(
        "text,expect,value",
        [
            ("50 kHz", "frequency", 50e3),
            ("2.87GHz", "frequency", 2.87e9),
            ("1uT", "field", 1e-6),
            ("30 mT", "field", 30e-3),
            ("10 ns", "time", 1e-8),
            ("5us", "time", 5e-6),
            ("0.3 K", "temperature", 0.3),
            ("1000000 V_per_m", "efield", 1e6),
            ("0.5", "none", 0.5),
        ],
    )
    def test_accepted_forms(self, text, expect, value):
        assert parse_quantity(text, expect) == pytest.approx(value, rel=1e-12)

    def test_unknown_suffix(self):
        with pytest.raises(ConfigError, match="unknown unit suffix"):
            parse_quantity("3 furlongs", "field", key="b")

    def test_wrong_dimension(self):
        with pytest.raises(ConfigError, match="expected field"):
            parse_quantity("3 kHz", "field", key="b")

    def test_dimensionless_takes_no_unit(self):
        with pytest.raises(ConfigError, match="unit 'ut' is a field, expected none"):
            parse_quantity("500 uT", "none", key="xi")

    def test_missing_required_unit(self):
        with pytest.raises(ConfigError, match="missing unit suffix"):
            parse_quantity("3", "field", key="b")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="cannot parse number"):
            parse_quantity("fast kHz", "frequency", key="r")


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.preset == "zq_decay"
        assert cfg.number("sim", "dt") == pytest.approx(1e-8)
        assert cfg.number("noise", "beta_rms") == pytest.approx(1e-6)
        assert cfg.number("noise", "xi") == 0.5
        assert cfg.number("params", "delta") == pytest.approx(2.87e9)
        # defaults are echoed for metadata reproduction
        assert cfg.resolved["sim.dt"] == "10 ns"
        assert cfg.resolved["noise.switch_rate"] == "100 kHz"

    def test_unknown_key_names_it(self, tmp_path):
        bad = MINIMAL.replace("beta_rms = 1uT", "beta_rm = 1uT")
        with pytest.raises(ConfigError, match="beta_rm"):
            parse_config(write_cfg(tmp_path, bad))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(write_cfg(tmp_path, MINIMAL + "\n[magnets]\nx = 1\n"))

    def test_missing_preset(self, tmp_path):
        with pytest.raises(ConfigError, match="preset"):
            parse_config(write_cfg(tmp_path, "schema = 1\n"))

    def test_bad_unit_fails_at_parse_time(self, tmp_path):
        bad = MINIMAL + "\n[sim]\ndt = 10 uT\n"
        with pytest.raises(ConfigError, match="expected time"):
            parse_config(write_cfg(tmp_path, bad))

    def test_schema_version_checked(self, tmp_path):
        bad = MINIMAL.replace("schema = 1", "schema = 9")
        with pytest.raises(ConfigError, match="schema"):
            parse_config(write_cfg(tmp_path, bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.cfg")

    def test_flag_parsing(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL + "\n[sim]\nnear_bm = yes\n"))
        assert cfg.flag("sim", "near_bm") is True

    @pytest.mark.parametrize("seed", [9007199254740993, 18446744073709551615])
    def test_integer_keys_parse_exactly(self, tmp_path, seed):
        # a float round trip would map these seeds onto 2**53 and 2**64
        cfg = parse_config(write_cfg(tmp_path, MINIMAL + f"\n[sim]\nseed = {seed}\n"))
        assert cfg.integer("sim", "seed") == seed

    @pytest.mark.parametrize(
        "section,line",
        [
            ("sim", "trajectories = 10.7"),
            ("sim", "seed = 1e3"),
            ("sweep", "count = 2.5"),
            ("sweep", "tau_count = 9.0"),
        ],
    )
    def test_non_integer_count_is_an_error(self, tmp_path, section, line):
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config(write_cfg(tmp_path, MINIMAL + f"\n[{section}]\n{line}\n"))

    @pytest.mark.parametrize(
        "section,line,default",
        [
            ("sim", "shared_field = no", True),
            ("sim", "shared_field = yes", False),
            ("sim", "noise_during = all", True),
            ("sim", "noise_during = evolution", False),
            ("sweep", "delta_temp = 0.0 K", True),
            ("sweep", "delta_temp = 3 K", False),
            ("sweep", "window = 5 us", False),
        ],
    )
    def test_is_default_compares_parsed_values(self, tmp_path, section, line, default):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL + f"\n[{section}]\n{line}\n"))
        assert cfg.is_default(section, line.split(" =")[0]) is default

    def test_sweep_theta_is_not_a_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'theta'"):
            parse_config(write_cfg(tmp_path, MINIMAL + "\n[sweep]\ntheta = 0\n"))


class TestSweepAxis:
    def test_values_list_with_units(self, tmp_path):
        body = MINIMAL + "\n[sweep]\nvariable = xi\nvalues = 0.1, 0.5, 1.0\n"
        cfg = parse_config(write_cfg(tmp_path, body))
        assert cfg.sweep_values("none") == [0.1, 0.5, 1.0]

    def test_linear_range(self, tmp_path):
        body = MINIMAL + "\n[sweep]\nvariable = delta_b\nstart = -10uT\nstop = 10uT\ncount = 5\n"
        cfg = parse_config(write_cfg(tmp_path, body))
        vals = cfg.sweep_values("field")
        assert vals[0] == pytest.approx(-10e-6)
        assert vals[-1] == pytest.approx(10e-6)
        assert len(vals) == 5

    def test_log_range(self, tmp_path):
        body = MINIMAL + "\n[sweep]\nvariable = b_field\nstart = 1mT\nstop = 100mT\ncount = 3\nspacing = log\n"
        cfg = parse_config(write_cfg(tmp_path, body))
        vals = cfg.sweep_values("field")
        assert vals[1] == pytest.approx(1e-2, rel=1e-9)

    def test_incomplete_axis(self, tmp_path):
        body = MINIMAL + "\n[sweep]\nvariable = xi\nstart = 0\n"
        cfg = parse_config(write_cfg(tmp_path, body))
        with pytest.raises(ConfigError, match="start/stop/count"):
            cfg.sweep_values("none")

    @pytest.mark.parametrize("variable,values", [("xi", "0.5, 2"), ("eps_rms", "-1 V_per_m")])
    def test_values_outside_model_range(self, tmp_path, variable, values):
        # the unit and range the xi_sweep and electrometry presets pass
        expect, lo, hi = {"xi": ("none", 0.0, 1.0), "eps_rms": ("efield", 0.0, math.inf)}[variable]
        body = MINIMAL + f"\n[sweep]\nvariable = {variable}\nvalues = {values}\n"
        cfg = parse_config(write_cfg(tmp_path, body))
        with pytest.raises(ConfigError, match=f"sweep {variable} value -?[12] is outside"):
            cfg.sweep_values(expect, lo, hi)


class TestShippedPresets:
    def test_field_sweep_axis_matches_detuning_window(self):
        # the shipped detuning sweep spans -10 uT .. +10 uT around the
        # anti-crossing
        cfg = parse_config(CONFIGS / "field_sweep.cfg")
        vals = cfg.sweep_values("field")
        assert min(vals) == pytest.approx(-10e-6)
        assert max(vals) == pytest.approx(10e-6)
        assert 0.0 in vals
        assert cfg.flag("sim", "near_bm")

    @pytest.mark.parametrize(
        "name",
        [
            "levels",
            "echo_reference",
            "echo_anticrossing",
            "field_sweep",
            "pol_transfer",
            "zq_decay",
            "xi_sweep",
            "electrometry",
            "thermometry",
        ],
    )
    def test_all_shipped_configs_parse(self, name):
        cfg = parse_config(CONFIGS / f"{name}.cfg")
        assert cfg.preset in name or cfg.preset in ("echo",)

    def test_thermometry_shift_matches_sensitivity(self):
        # the shipped temperature step corresponds to a 10 kHz shift at
        # the default sensitivity
        cfg = parse_config(CONFIGS / "thermometry.cfg")
        d_omega = 2 * math.pi * cfg.number("params", "ddelta_dt") * cfg.number(
            "sweep", "delta_temp"
        )
        assert d_omega == pytest.approx(2 * math.pi * 1e4, rel=1e-3)


def test_schema_doc_names_exactly_the_schema_keys():
    # the Keys part of the reference: "[section]" headers, then one line
    # per key (or "a, b" pair) starting in column 0
    text = (ROOT / "docs" / "config-schema.txt").read_text()
    reference = text.split("\nKeys\n----\n")[1].split("\nArtifacts\n")[0]
    documented, section = {"": set()}, ""
    for line in reference.splitlines():
        header = re.match(r"\[(\w+)\]", line)
        if header:
            section = header.group(1)
            documented[section] = set()
        elif entry := re.match(r"([a-z_]+(?:, [a-z_]+)*)\s{2,}", line):
            documented[section].update(entry.group(1).split(", "))
    assert documented == {name: set(keys) for name, keys in config._SCHEMA.items()}
