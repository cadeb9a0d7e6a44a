"""End-to-end CLI runs: artifacts, determinism, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spindyad.cli import EXIT_CONFIG, EXIT_OK, main
from spindyad.presets import _PRESETS

FAST_LEVELS = """
schema = 1

[experiment]
preset = levels
label = levels

[params]
j = 0.2 MHz
theta = 1.5707963267948966

[sweep]
variable = b_field
start = 50 mT
stop = 53 mT
count = 31

[output]
plot = true
"""

FAST_ZQ = """
schema = 1

[experiment]
preset = zq_decay
label = zq

[params]
j_par = 50 kHz
j_perp = 50 kHz

[noise]
beta_rms = 1 uT
xi = 1.0

[sim]
trajectories = 12
seed = 3

[sweep]
tau_start = 1 us
tau_stop = 40 us
tau_count = 9
tau_spacing = log

[output]
plot = false
"""

# the tau axis of FAST_ZQ, read only by the presets that sweep tau
FAST_ZQ_TAU = "tau_start = 1 us\ntau_stop = 40 us\ntau_count = 9\ntau_spacing = log\n"

FAST_POL = """
schema = 1

[experiment]
preset = pol_transfer
label = pol

[params]
j_par = 50 kHz
j_perp = 50 kHz

[output]
plot = false
"""

FAST_CUSTOM = """
schema = 1

[experiment]
preset = custom
label = custom
program = {program}

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
"""


# one non-default value of every key that some presets read and others do not
UNREAD_VALUE = {
    "experiment.program": "prog.txt",
    "noise.beta_rms": "2 uT",
    "noise.xi": "0.5",
    "noise.switch_rate": "50 kHz",
    "noise.eps_rms": "1 V_per_m",
    "noise.electric_rate": "50 kHz",
    "sim.trajectories": "7",
    "sim.dt": "5 ns",
    "sim.seed": "2",
    "sim.near_bm": "true",
    "sim.delta_b": "1 uT",
    "sim.shared_field": "true",
    "sim.noise_during": "evolution",
    "sweep.tau_start": "2 us",
    "sweep.tau_stop": "100 us",
    "sweep.tau_count": "9",
    "sweep.tau_spacing": "linear",
    "sweep.delta_temp": "1 K",
    "sweep.window": "5 us",
}
UNREAD_PAIRS = [(p, k) for p, declared in _PRESETS.items() for k in UNREAD_VALUE if k not in declared.reads]


def write(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        path = write(tmp_path, "schema = 1\n[experiment]\npreset = warp\n")
        assert main(["--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "warp" in capsys.readouterr().err

    def test_key_set_twice_is_2(self, tmp_path, capsys):
        # a repeated key named with both of its lines, not the last value kept
        body = FAST_ZQ.replace("[output]\n", "[noise]\nbeta_rms = 7 uT\n\n[output]\n")
        out = tmp_path / "out"
        assert main(["--config", write(tmp_path, body), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: config: line 27: noise.beta_rms is already set on line 13\n"
        assert not out.exists()

    @pytest.mark.parametrize("bounds", ["start = 0\nstop = 1", "count = 3"], ids=["start-stop", "count"])
    def test_values_with_start_stop_count_is_2(self, tmp_path, capsys, bounds):
        sweep = f"variable = xi\nvalues = 0.5\n{bounds}"
        body = FAST_ZQ.replace("preset = zq_decay", "preset = xi_sweep").replace("[sweep]\n", f"[sweep]\n{sweep}\n")
        assert main(["--config", write(tmp_path, body), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: config: sweep needs values= or start/stop/count, not both\n"

    def test_unreadable_config_is_2(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    def test_unknown_preset_is_2(self, tmp_path, capsys):
        # the preset name is checked before the sweep variable and the
        # output directory
        body = FAST_ZQ.replace("preset = zq_decay", "preset = teleport")
        body = body.replace("[sweep]\n", "[sweep]\nvariable = seed\n")
        out = tmp_path / "out"
        assert main(["--config", write(tmp_path, body), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: config: unknown preset 'teleport'; expected one of ('levels', 'echo', 'deer',"
            " 'field_sweep', 'pol_transfer', 'zq_decay', 'xi_sweep', 'electrometry',"
            " 'thermometry', 'custom')\n"
        )
        assert not out.exists()

    def test_unparsable_custom_program_is_2(self, tmp_path, capsys):
        program = tmp_path / "prog.txt"
        program.write_text("rotation both x 1.5707963267948966\ndelay soon\n")
        path = write(tmp_path, FAST_CUSTOM.format(program=program))
        assert main(["--config", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: config: program file {program}: line 2: cannot parse 'delay soon'\n"

    @pytest.mark.parametrize(
        "line",
        [
            "delay nan",
            "delay inf",
            "delay 5e-06 noise-free",
            "delay 5e-06 noisefree shared",
            "rotation both x 1.57 sharde",
            "rotation both x 1.57 shared noisefree",
            "repump now please",
        ],
    )
    def test_custom_program_outside_the_grammar_is_2(self, tmp_path, capsys, line):
        # a non-finite delay, or a token the grammar does not have, names its
        # line before any run, where it used to crash (exit 1) or be dropped
        program = tmp_path / "prog.txt"
        program.write_text(f"rotation both x 1.5707963267948966\n{line}\n")
        path = write(tmp_path, FAST_CUSTOM.format(program=program))
        out = tmp_path / "out"
        assert main(["--config", path, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: config: program file {program}: line 2: cannot parse {line!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset,sweep,message",
        [
            ("xi_sweep", "variable = xi\nvalues = 0.5, 2", "sweep xi value 2 is outside [0, 1]"),
            ("electrometry", "variable = eps_rms\nvalues = -1 V_per_m", "sweep eps_rms value -1 is outside [0, inf]"),
            ("xi_sweep", "variable = xi\nvalues = 0.5 ms", "key 'sweep.values': unit 'ms' is a time, expected none"),
        ],
        ids=["xi-outside", "eps_rms-outside", "xi-unit"],
    )
    def test_sweep_value_the_preset_rejects_is_2(self, tmp_path, capsys, preset, sweep, message):
        body = FAST_ZQ.replace("preset = zq_decay", f"preset = {preset}").replace("[sweep]\n", f"[sweep]\n{sweep}\n")
        assert main(["--config", write(tmp_path, body), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: config: {message}\n"

    @pytest.mark.parametrize(
        "preset,sweep,message",
        [
            ("xi_sweep", "variable = xi\nvalues = 0.5, 2", "sweep xi value 2 is outside [0, 1]"),
            ("field_sweep", "variable = delta_b\nvalues = 0T", "field_sweep expects sim.near_bm = true"),
            ("xi_sweep", "variable = xi\nvalues = ,", "sweep.values has an empty entry in ','"),
            ("electrometry", "variable = eps_rms\nvalues = ,", "sweep.values has an empty entry in ','"),
            ("field_sweep", "variable = delta_b\nvalues = ,", "sweep.values has an empty entry in ','"),
            ("xi_sweep", "variable = xi\nvalues = 0.1,,0.5", "sweep.values has an empty entry in '0.1,,0.5'"),
        ],
        ids=["xi_sweep-value-outside", "field_sweep-without-near_bm", "xi_sweep-no-value", "electrometry-no-value", "field_sweep-no-value", "xi_sweep-blank-value"],
    )
    def test_config_error_in_the_runner_leaves_no_directory(self, tmp_path, capsys, preset, sweep, message):
        # the runner reads these after the inputs; the directory is made
        # only when the first artifact is written. field_sweep reads only
        # the ends of the tau axis
        body = FAST_ZQ.replace("preset = zq_decay", f"preset = {preset}").replace("[sweep]\n", f"[sweep]\n{sweep}\n")
        if preset == "field_sweep":
            body = body.replace("tau_count = 9\n", "")
        out = tmp_path / "out"
        assert main(["--config", write(tmp_path, body), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: config: {message}\n"
        assert not out.exists()

    def test_label_with_a_path_separator_is_2(self, tmp_path, capsys):
        # the label names files in the output directory, not a directory below it
        out = tmp_path / "out"
        path = write(tmp_path, FAST_LEVELS.replace("label = levels", "label = a/b"))
        assert main(["--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: config: experiment.label must be a file name, got 'a/b'\n"
        assert not out.exists()

    def test_field_sweep_values_sharing_a_file_name_are_2(self, tmp_path, capsys):
        # 1.0001 and 1.0002 uT both round to _db_+1.000uT: the second
        # envelope would overwrite the first
        body = FAST_ZQ.replace("preset = zq_decay", "preset = field_sweep").replace("seed = 3", "seed = 3\nnear_bm = true")
        body = body.replace("tau_count = 9\n", "")
        body = body.replace("[sweep]\n", "[sweep]\nvariable = delta_b\nvalues = 0 uT, 1.0001 uT, 1.0002 uT\n")
        out = tmp_path / "out"
        assert main(["--config", write(tmp_path, body), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: config: sweep delta_b values 1.0001e-06 T and 1.0002e-06 T both write zq_db_+1.000uT.csv\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "body,below,message",
        [
            (FAST_LEVELS, "", "is not a directory"),
            (FAST_ZQ, "", "is not a directory"),
            (FAST_LEVELS, "sub", "cannot be made: Not a directory"),
        ],
        ids=["levels", "zq_decay", "levels-below-a-file"],
    )
    def test_output_path_that_is_a_file_is_2(self, tmp_path, capsys, body, below, message):
        # a file is refused before the run and left as it was; a path below
        # a file is found when the directory is made, at the first write
        path = tmp_path / "F"
        path.write_text("kept\n")
        out = path / below
        assert main(["--config", write(tmp_path, body), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: config: output directory {out} {message}\n"
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize("suffix,written", [(".csv", []), (".svg", ["levels.csv"])], ids=["csv", "svg"])
    def test_artifact_path_that_is_a_directory_is_2(self, tmp_path, capsys, suffix, written):
        # the files before the one that cannot be written are kept
        out = tmp_path / "out"
        (out / f"levels{suffix}").mkdir(parents=True)
        assert main(["--config", write(tmp_path, FAST_LEVELS), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: config: output file {out / f'levels{suffix}'} cannot be written: Is a directory\n"
        assert sorted(p.name for p in out.iterdir() if p.is_file()) == written

    @pytest.mark.parametrize(
        "edit,flags,message",
        [
            (("trajectories = 12", "trajectories = 0"), [], "sim.trajectories must be >= 1"),
            (("trajectories = 12", "trajectories = 10.7"), [], ""),
            (None, ["--trajectories", "0"], "sim.trajectories must be >= 1"),
            (None, ["--trajectories", "-3"], ""),
            (("seed = 3", "seed = 1.5"), [], ""),
            (("seed = 3", "seed = -1"), [], "sim.seed must be in [0, 2**64), got -1"),
            (None, ["--seed", "-1"], "sim.seed must be in [0, 2**64), got -1"),
            (("seed = 3", "seed = 18446744073709551616"), [], "sim.seed must be in [0, 2**64), got 18446744073709551616"),
            (("seed = 3", "seed = 3\ndt = 0 ns"), [], "sim.dt must be > 0"),
            (("xi = 1.0", "xi = 2"), [], "noise.xi must be in [0, 1], got 2.0"),
            (("j_par = 50 kHz", "j_par = 50 kHz\ndelta = 0 GHz"), [], "params.delta must be positive, got 0.0"),
            (("j_par = 50 kHz", "j_par = 50 kHz\ndelta = -1 GHz"), [], "params.delta must be positive, got -1000000000.0"),
            (("j_par = 50 kHz", "j_par = 50 kHz\ngamma_e = -2 Hz"), [], "params.gamma_e must be positive, got -2.0"),
            (("tau_count = 9", "tau_count = 9.5"), [], ""),
            (("tau_count = 9", "tau_count = 9\ntheta = 0"), [], ""),
            (("seed = 3", "seed = 3\nnoise_during = evolutoin"), [], ""),
            (("tau_count = 9", "tau_count = 9\nspacing = logarithmic"), [], ""),
            (("tau_spacing = log", "tau_spacing = logarithmic"), [], ""),
            (("xi = 1.0", "xi = 500 uT"), [], ""),
            (("j_par = 50 kHz\nj_perp = 50 kHz", "j = 0.2 MHz\ntheta = 1.5 K"), [], ""),
            (("schema = 1", "schema = abc"), [], ""),
            (("schema = 1", "schema = 1.9"), [], ""),
            (("schema = 1", "schema = 1.0"), [], ""),
        ],
        ids=[
            "trajectories-0",
            "trajectories-fraction",
            "flag-trajectories-0",
            "flag-trajectories-negative",
            "seed-fraction",
            "seed-negative",
            "flag-seed-negative",
            "seed-2**64",
            "dt-0",
            "xi-2",
            "delta-0",
            "delta-negative",
            "gamma_e-negative",
            "tau_count-fraction",
            "sweep-theta",
            "noise_during-unknown",
            "spacing-unknown",
            "tau_spacing-unknown",
            "xi-unit",
            "theta-unit",
            "schema-abc",
            "schema-1.9",
            "schema-1.0",
        ],
    )
    def test_bad_value_is_2(self, tmp_path, capsys, edit, flags, message):
        # a message given is the whole of stderr, named by the config key;
        # the others are checked by prefix
        body = FAST_ZQ if edit is None else FAST_ZQ.replace(*edit)
        path = write(tmp_path, body)
        assert main(["--config", path, "--out", str(tmp_path / "out"), *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert (err == f"error: config: {message}\n") if message else err.startswith("error: config: ")

    @pytest.mark.parametrize(
        "body,message",
        [
            (FAST_ZQ.replace("beta_rms = 1 uT", "beta_rms = nan uT"), "key 'noise.beta_rms': 'nan uT'"),
            (FAST_ZQ.replace("beta_rms = 1 uT", "beta_rms = inf uT"), "key 'noise.beta_rms': 'inf uT'"),
            (FAST_ZQ.replace("j_par = 50 kHz", "j_par = nan kHz"), "key 'params.j_par': 'nan kHz'"),
            (FAST_ZQ.replace("tau_stop = 40 us", "tau_stop = nan us"), "key 'sweep.tau_stop': 'nan us'"),
            (FAST_LEVELS.replace("stop = 53 mT", "stop = -inf mT"), "key 'sweep.stop': '-inf mT'"),
        ],
        ids=["beta_rms-nan", "beta_rms-inf", "j_par-nan", "tau_stop-nan", "sweep-stop-inf"],
    )
    def test_non_finite_quantity_is_2(self, tmp_path, capsys, body, message):
        # nan > 0 is false, so a NaN noise amplitude would run noise-free
        assert main(["--config", write(tmp_path, body), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: config: {message} is not a finite number\n"

    @pytest.mark.parametrize("start", ["0 us", "-1 us"])
    def test_log_tau_axis_needs_positive_bounds(self, tmp_path, capsys, start):
        path = write(tmp_path, FAST_ZQ.replace("tau_start = 1 us", f"tau_start = {start}"))
        assert main(["--config", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: config: sweep.tau_spacing = log needs positive bounds\n"

    @pytest.mark.parametrize(
        "body,message",
        [
            (
                FAST_LEVELS.replace("start = 50 mT\nstop = 53 mT", "start = 53 mT\nstop = 50 mT"),
                "levels preset needs sweep.start below sweep.stop",
            ),
            (
                FAST_LEVELS.replace(
                    "j = 0.2 MHz\ntheta = 1.5707963267948966", "j_par = 50 kHz\nj_perp = 50 kHz"
                ),
                "levels preset needs params.j and params.theta, not params.j_par and params.j_perp",
            ),
            (
                FAST_ZQ.replace("preset = zq_decay", "preset = thermometry")
                .replace("j_perp = 50 kHz", "j_perp = 50 kHz\nddelta_dt = 0 Hz")
                .replace(FAST_ZQ_TAU, ""),
                "thermometry preset needs params.ddelta_dt nonzero",
            ),
            (
                FAST_ZQ.replace("preset = zq_decay", "preset = electrometry")
                .replace("xi = 1.0", "xi = 1.0\neps_rms = 0 V_per_m\nelectric_rate = 0 Hz")
                .replace("[sweep]\n", "[sweep]\nvariable = eps_rms\nvalues = 0 V_per_m, 1000000 V_per_m\n"),
                "noise.electric_rate must be > 0, got 0.0",
            ),
            (
                FAST_LEVELS.replace("j = 0.2 MHz\ntheta = 1.5707963267948966", "j = 0.2 MHz"),
                "params.j and params.theta are a pair: set both or neither",
            ),
            (
                FAST_LEVELS.replace("j = 0.2 MHz\ntheta = 1.5707963267948966", "theta = 1.5707963267948966"),
                "params.j and params.theta are a pair: set both or neither",
            ),
        ],
        ids=[
            "levels-descending-field",
            "levels-couplings-without-geometry",
            "thermometry-ddelta_dt-0",
            "electrometry-channel-off-rate-0",
            "levels-j-alone",
            "levels-theta-alone",
        ],
    )
    def test_value_the_model_rejects_is_2(self, tmp_path, capsys, body, message):
        path = write(tmp_path, body)
        assert main(["--config", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: config: {message}\n"

    @pytest.mark.parametrize(
        "sweep,message",
        [
            ("variable = b_field\nvalues = 51 mT", "levels preset needs at least 2 b_field values, got 1"),
            ("variable = b_field\nstart = 51 mT\nstop = 53 mT\ncount = 1", "sweep.count = 1: a range needs at least 2 points"),
            ("variable = delta_b\nvalues = 1 uT, 2 uT", "levels preset sweeps b_field, not sweep.variable = delta_b"),
            ("start = 50 mT\nstop = 53 mT\ncount = 31", "sweep.values, start, stop and count need sweep.variable"),
            ("variable = b_field\nvalues = 50 mT, 49 mT", "levels preset needs sweep.values strictly ascending"),
        ],
        ids=["one-value", "count-1", "other-variable", "axis-without-variable", "descending-values"],
    )
    def test_levels_sweep_it_cannot_use_is_2(self, tmp_path, capsys, sweep, message):
        body = FAST_LEVELS.replace("variable = b_field\nstart = 50 mT\nstop = 53 mT\ncount = 31", sweep)
        path = write(tmp_path, body)
        out = tmp_path / "out"
        assert main(["--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: config: {message}\n"
        assert not (out / "levels.csv").exists()

    @pytest.mark.parametrize(
        "preset,sweep,message",
        [
            ("echo", "variable = xi\nvalues = 0, 0.5", "echo preset sweeps no variable, not sweep.variable = xi"),
            ("zq_decay", "variable = xi\nvalues = 0.1, 0.9", "zq_decay preset sweeps no variable, not sweep.variable = xi"),
            ("zq_decay", "variable = tau_tilde\nvalues = 1 us, 2 us", "zq_decay preset sweeps no variable, not sweep.variable = tau_tilde"),
            ("zq_decay", "variable = seed\nvalues = 1", "zq_decay preset sweeps no variable, not sweep.variable = seed"),
            ("zq_decay", "variable = theta\nvalues = 1", "zq_decay preset sweeps no variable, not sweep.variable = theta"),
            ("thermometry", "variable = tau_tilde\nvalues = 1 us", "thermometry preset sweeps no variable, not sweep.variable = tau_tilde"),
            ("zq_decay", "values = 0.1, 0.5", "sweep.values, start, stop and count need sweep.variable"),
            # spacing spaces only a start/stop/count axis
            ("xi_sweep", "variable = xi\nvalues = 0.1, 0.5\nspacing = log", "sweep.spacing is read with sweep.start, stop and count only"),
            ("zq_decay", "spacing = log", "sweep.spacing is read with sweep.start, stop and count only"),
            # a range has at least 2 points: one would drop stop, or spacing; one point is values = X
            ("electrometry", "variable = eps_rms\nstart = 1 V_per_m\nstop = 9 V_per_m\ncount = 1", "sweep.count = 1: a range needs at least 2 points"),
            ("electrometry", "variable = eps_rms\nstart = 1 V_per_m\nstop = 1 V_per_m\ncount = 1\nspacing = log", "sweep.count = 1: a range needs at least 2 points"),
        ],
        ids=[
            "echo",
            "zq_decay",
            "zq_decay-tau_tilde",
            "seed",
            "theta",
            "thermometry",
            "values-without-variable",
            "xi_sweep-values-spacing",
            "zq_decay-spacing",
            "electrometry-count-1",
            "electrometry-count-1-log",
        ],
    )
    def test_sweep_variable_the_preset_does_not_read_is_2(self, tmp_path, capsys, preset, sweep, message):
        body = FAST_ZQ.replace("preset = zq_decay", f"preset = {preset}").replace("[sweep]\n", f"[sweep]\n{sweep}\n")
        out = tmp_path / "out"
        assert main(["--config", write(tmp_path, body), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: config: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "body,message",
        [
            (FAST_ZQ.replace("label = zq", "label = zq\nprogram = nonexistent.txt"), "experiment.program is read by the custom preset only, not by zq_decay"),
            (
                FAST_ZQ.replace("preset = zq_decay", "preset = echo").replace("label = zq", "label = zq\nprogram = nonexistent.txt"),
                "experiment.program is read by the custom preset only, not by echo",
            ),
            (FAST_ZQ.replace("tau_count = 9", "tau_count = 9\nwindow = 5 us"), "sweep.window is read by the thermometry preset only, not by zq_decay"),
            (
                FAST_CUSTOM.format(program="nonexistent.txt").replace("[output]", "[sweep]\nwindow = 5 us\n\n[output]"),
                "sweep.window is read by the thermometry preset only, not by custom",
            ),
            (
                FAST_ZQ.replace("preset = zq_decay", "preset = echo").replace("seed = 3", "seed = 3\nnoise_during = evolution"),
                "sim.noise_during is read by the zq_decay, xi_sweep, electrometry and thermometry presets only, not by echo",
            ),
            (
                FAST_ZQ.replace("seed = 3", "seed = 3\nshared_field = true"),
                "sim.shared_field is read by the echo, deer and field_sweep presets only, not by zq_decay",
            ),
            (FAST_ZQ.replace("tau_count = 9", "tau_count = 9\ndelta_temp = 3 K"), "sweep.delta_temp is read by the thermometry preset only, not by zq_decay"),
            # far from B_m no rotation addresses both spins, so none reads the flag
            (
                FAST_ZQ.replace("preset = zq_decay", "preset = echo").replace("seed = 3", "seed = 3\nshared_field = true"),
                "sim.shared_field is read with sim.near_bm = true only, not by echo without it",
            ),
            (
                FAST_ZQ.replace("preset = zq_decay", "preset = deer").replace("seed = 3", "seed = 3\nshared_field = true"),
                "sim.shared_field is read with sim.near_bm = true only, not by deer without it",
            ),
            (
                FAST_ZQ.replace("preset = zq_decay", "preset = thermometry")
                .replace(FAST_ZQ_TAU, "tau_stop = 100 us\ntau_spacing = log\n"),
                "sweep.tau_stop is read by the echo, deer, field_sweep, zq_decay, xi_sweep and electrometry presets only, not by thermometry",
            ),
            (
                FAST_POL.replace("[output]", "[sweep]\ntau_count = 50\n\n[output]"),
                "sweep.tau_count is read by the echo, deer, zq_decay, xi_sweep and electrometry presets only, not by pol_transfer",
            ),
            # levels reads only sim.seed of these keys, pol_transfer only
            # the frame's dt, near_bm and delta_b; field_sweep only the ends
            # of the tau axis
            (
                FAST_LEVELS.replace("[sweep]", "[noise]\nbeta_rms = 2 uT\n\n[sweep]"),
                "noise.beta_rms is read by the echo, deer, field_sweep, zq_decay, xi_sweep, electrometry,"
                " thermometry and custom presets only, not by levels",
            ),
            (
                FAST_LEVELS + "\n[sim]\ndt = 5 ns\n",
                "sim.dt is read by the echo, deer, field_sweep, pol_transfer, zq_decay, xi_sweep, electrometry,"
                " thermometry and custom presets only, not by levels",
            ),
            (
                FAST_POL.replace("[output]", "[noise]\nxi = 0.5\n\n[output]"),
                "noise.xi is read by the echo, deer, field_sweep, zq_decay, xi_sweep, electrometry,"
                " thermometry and custom presets only, not by pol_transfer",
            ),
            (
                FAST_POL.replace("[output]", "[sim]\nseed = 2\n\n[output]"),
                "sim.seed is read by the levels, echo, deer, field_sweep, zq_decay, xi_sweep, electrometry,"
                " thermometry and custom presets only, not by pol_transfer",
            ),
            (
                FAST_ZQ.replace("preset = zq_decay", "preset = field_sweep")
                .replace("[sweep]\n", "[sweep]\nvariable = delta_b\nvalues = 0 T\n"),
                "sweep.tau_count is read by the echo, deer, zq_decay, xi_sweep and electrometry presets only,"
                " not by field_sweep",
            ),
            (
                FAST_ZQ.replace("preset = zq_decay", "preset = field_sweep")
                .replace("[sweep]\n", "[sweep]\nvariable = delta_b\nvalues = 0 T\n")
                .replace("tau_count = 9\ntau_spacing = log", "tau_spacing = linear"),
                "sweep.tau_spacing is read by the echo, deer, zq_decay, xi_sweep and electrometry presets only,"
                " not by field_sweep",
            ),
        ],
        ids=[
            "zq_decay-program",
            "echo-program",
            "zq_decay-window",
            "custom-window",
            "echo-noise_during",
            "zq_decay-shared_field",
            "zq_decay-delta_temp",
            "echo-shared_field-far",
            "deer-shared_field-far",
            "thermometry-tau",
            "pol_transfer-tau",
            "levels-beta_rms",
            "levels-dt",
            "pol_transfer-xi",
            "pol_transfer-seed",
            "field_sweep-tau_count",
            "field_sweep-tau_spacing",
        ],
    )
    def test_key_the_preset_does_not_read_is_2(self, tmp_path, capsys, body, message):
        out = tmp_path / "out"
        assert main(["--config", write(tmp_path, body), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: config: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("preset,key", UNREAD_PAIRS, ids=[f"{p}-{k}" for p, k in UNREAD_PAIRS])
    def test_every_key_outside_what_the_preset_reads_is_2(self, tmp_path, capsys, preset, key):
        # one non-default value of each key some presets read, on every
        # other preset: refused before the runner, named with its readers
        assert set(UNREAD_VALUE) == set().union(*(p.reads for p in _PRESETS.values()))
        section, name = key.split(".")
        variable = _PRESETS[preset].variable
        body = f"schema = 1\n[experiment]\npreset = {preset}\n[sweep]\nvariable = {variable}\n"
        body += f"[{section}]\n{name} = {UNREAD_VALUE[key]}\n"
        out = tmp_path / "out"
        assert main(["--config", write(tmp_path, body), "--out", str(out)]) == EXIT_CONFIG
        *others, last = [p for p, declared in _PRESETS.items() if key in declared.reads]
        names = f"{', '.join(others)} and {last} presets" if others else f"{last} preset"
        assert capsys.readouterr().err == f"error: config: {key} is read by the {names} only, not by {preset}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,line",
        [("d_perp", "d_perp = 0.17 Hz"), ("distance", "distance = 4e-9"), ("b_field", "b_field = 47 mT")],
        ids=["d_perp", "distance", "b_field"],
    )
    def test_removed_params_key_is_2(self, tmp_path, capsys, key, line):
        body = FAST_ZQ.replace("j_perp = 50 kHz", f"j_perp = 50 kHz\n{line}")
        out = tmp_path / "out"
        assert main(["--config", write(tmp_path, body), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.endswith(f"unknown key {key!r} in section [params]\n")
        assert not out.exists()

    def test_levels_without_sweep_uses_default_window(self, tmp_path):
        body = FAST_LEVELS.replace("[sweep]\nvariable = b_field\nstart = 50 mT\nstop = 53 mT\ncount = 31\n", "")
        assert "[sweep]" not in body
        out = tmp_path / "out"
        assert main(["--config", write(tmp_path, body), "--out", str(out), "--no-plot"]) == EXIT_OK
        rows = [l for l in (out / "levels.csv").read_text().splitlines() if l[0].isdigit()]
        b = [float(r.split(",")[0]) for r in rows]
        b_m = float((out / "levels_summary.txt").read_text().split("anticrossing_field_T = ")[1])
        assert len(b) == 401
        assert b[0] == pytest.approx(0.8 * b_m, rel=1e-15)
        assert b[-1] == pytest.approx(1.2 * b_m, rel=1e-15)

    def test_seed_beyond_float_precision_is_kept(self, tmp_path):
        path = write(tmp_path, FAST_LEVELS + "\n[sim]\nseed = 9007199254740993\n")
        out = tmp_path / "out"
        assert main(["--config", path, "--out", str(out), "--no-plot"]) == EXIT_OK
        header = (out / "levels.csv").read_text().splitlines()
        assert "# config sim.seed = 9007199254740993" in header
        assert "# master_seed = 9007199254740993" in header

    def test_levels_ok(self, tmp_path):
        import xml.etree.ElementTree as ET

        path = write(tmp_path, FAST_LEVELS)
        out = tmp_path / "out"
        assert main(["--config", path, "--out", str(out)]) == EXIT_OK
        assert (out / "levels.csv").exists()
        assert (out / "levels_summary.txt").exists()
        svg_root = ET.parse(out / "levels.svg").getroot()
        assert svg_root.tag.endswith("svg")
        assert any(child.tag.endswith("polyline") for child in svg_root)


class TestArtifacts:
    def test_metadata_header_reproduces_config(self, tmp_path):
        path = write(tmp_path, FAST_ZQ)
        out = tmp_path / "out"
        assert main(["--config", path, "--out", str(out)]) == EXIT_OK
        text = (out / "zq.csv").read_text()
        header = [l for l in text.splitlines() if l.startswith("#")]
        assert any("noise.beta_rms = 1 uT" in l for l in header)
        assert any("sim.seed" in l for l in header)
        assert any("sim.dt = 10 ns" in l for l in header)  # default echoed
        data = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert data[0] == "sweep_value,time_s,signal_mean,signal_sem"

    def test_same_seed_byte_identical(self, tmp_path):
        path = write(tmp_path, FAST_ZQ)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--config", path, "--out", str(out1)]) == EXIT_OK
        assert main(["--config", path, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "zq.csv").read_bytes() == (out2 / "zq.csv").read_bytes()

    def test_thread_count_never_changes_bytes(self, tmp_path):
        path = write(tmp_path, FAST_ZQ)
        out1, out2 = tmp_path / "t1", tmp_path / "t8"
        assert main(["--config", path, "--out", str(out1), "--threads", "1"]) == EXIT_OK
        assert main(["--config", path, "--out", str(out2), "--threads", "8"]) == EXIT_OK
        assert (out1 / "zq.csv").read_bytes() == (out2 / "zq.csv").read_bytes()

    def test_seed_override_changes_data_not_schema(self, tmp_path):
        path = write(tmp_path, FAST_ZQ)
        out1, out2 = tmp_path / "s3", tmp_path / "s4"
        assert main(["--config", path, "--out", str(out1)]) == EXIT_OK
        assert main(["--config", path, "--out", str(out2), "--seed", "4"]) == EXIT_OK
        a = (out1 / "zq.csv").read_text().splitlines()
        b = (out2 / "zq.csv").read_text().splitlines()
        sig_a = [l for l in a if l and not l.startswith("#")]
        sig_b = [l for l in b if l and not l.startswith("#")]
        assert sig_a[0] == sig_b[0]  # identical column schema
        assert sig_a[1:] != sig_b[1:]

    def test_trajectory_override_smoke(self, tmp_path):
        path = write(tmp_path, FAST_ZQ)
        out = tmp_path / "n1"
        assert main(["--config", path, "--out", str(out), "--trajectories", "1"]) == EXIT_OK
        rows = [
            l
            for l in (out / "zq.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("sweep_value")
        ]
        sems = [float(r.split(",")[3]) for r in rows]
        assert all(s == 0.0 for s in sems)

    def test_no_plot_flag(self, tmp_path):
        path = write(tmp_path, FAST_LEVELS)
        out = tmp_path / "noplot"
        assert main(["--config", path, "--out", str(out), "--no-plot"]) == EXIT_OK
        assert not (out / "levels.svg").exists()

    def test_zq_decay_without_noise_reports_no_decay(self, tmp_path):
        path = write(tmp_path, FAST_ZQ.replace("beta_rms = 1 uT", "beta_rms = 0 uT"))
        out = tmp_path / "quiet"
        assert main(["--config", path, "--out", str(out)]) == EXIT_OK
        assert "t2_zq = no decay resolvable" in (out / "zq_summary.txt").read_text()
        assert "# fit:" not in (out / "zq.csv").read_text()

    def test_custom_program(self, tmp_path):
        program = tmp_path / "prog.txt"
        program.write_text(
            "rotation both x 1.5707963267948966\n"
            "delay 5e-06\n"
            "rotation both x 3.141592653589793\n"
            "delay 5e-06\n"
            "rotation both x 1.5707963267948966\n"
        )
        path = write(tmp_path, FAST_CUSTOM.format(program=program))
        out = tmp_path / "custom"
        assert main(["--config", path, "--out", str(out)]) == EXIT_OK
        summary = (out / "custom_summary.txt").read_text()
        assert "signal_mean" in summary

    def test_pol_transfer_summary(self, tmp_path):
        path = write(tmp_path, FAST_POL)
        out = tmp_path / "pol"
        assert main(["--config", path, "--out", str(out)]) == EXIT_OK
        summary = (out / "pol_summary.txt").read_text()
        fid = float(
            [l for l in summary.splitlines() if l.startswith("noise_free_fidelity")][0].split("=")[1]
        )
        assert fid >= 0.999

    @pytest.mark.parametrize("preset", ["levels", "pol_transfer", "thermometry", "custom"])
    def test_stderr_is_the_summary_below_its_config_echo(self, tmp_path, capsys, preset):
        program = tmp_path / "prog.txt"
        program.write_text("rotation both x 1.5707963267948966\ndelay 5e-06\n")
        body, label = {
            "levels": (FAST_LEVELS, "levels"),
            "pol_transfer": (FAST_POL, "pol"),
            "thermometry": (FAST_ZQ.replace("preset = zq_decay", "preset = thermometry").replace(FAST_ZQ_TAU, ""), "zq"),
            "custom": (FAST_CUSTOM.format(program=program), "custom"),
        }[preset]
        out = tmp_path / "out"
        argv = ["--config", write(tmp_path, body), "--out", str(out), "--trajectories", "2", "--no-plot"]
        assert main(argv) == EXIT_OK
        lines = (out / f"{label}_summary.txt").read_text().splitlines(keepends=True)
        assert lines[0].startswith("# config ")
        below_echo = "".join(l for l in lines if not l.startswith("# config "))
        assert below_echo and capsys.readouterr().err == below_echo


class TestLevelsContent:
    def test_levels_csv_has_twelve_branch_columns(self, tmp_path):
        path = write(tmp_path, FAST_LEVELS)
        out = tmp_path / "lv"
        assert main(["--config", path, "--out", str(out)]) == EXIT_OK
        lines = [
            l for l in (out / "levels.csv").read_text().splitlines() if not l.startswith("#")
        ]
        header = lines[0].split(",")
        assert header[0] == "b_tesla"
        assert len(header) == 13
        rows = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
        assert rows.shape == (31, 13)
        # shifted columns differ from plain ones by half the Zeeman slope
        from spindyad.model import DEFAULT_GAMMA_E

        recovered = rows[:, 7:] - 0.5 * DEFAULT_GAMMA_E * rows[:, [0]]
        assert np.max(np.abs(recovered - rows[:, 1:7])) < 1e-3


ROOT = Path(__file__).resolve().parent.parent


def fresh_interpreter(argv, cwd, **env):
    """Run ``python *argv`` in a fresh interpreter on this checkout's
    package, with ``env`` added to the environment."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p)
    env = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def run_python(code, cwd):
    """Run ``code`` in a fresh interpreter on this checkout's package."""
    return fresh_interpreter(["-c", code], cwd)


@pytest.mark.parametrize("name", ["electrometry", "field_sweep"])
def test_csv_bytes_do_not_depend_on_the_interpreter(tmp_path, name):
    """Two fresh ``python -m spindyad`` calls under other hash seeds and one
    call in this process, after another preset ran in it, write the same
    CSV bytes: no state outlives a preset run."""
    args = ["--config", str(ROOT / "configs" / f"{name}.cfg"), "--trajectories", "2", "--seed", "7", "--no-plot"]
    for hashseed in ("0", "1"):
        argv = ["-m", "spindyad", *args, "--out", f"hash{hashseed}"]
        proc = fresh_interpreter(argv, tmp_path, PYTHONHASHSEED=hashseed)
        assert proc.returncode == 0, proc.stderr
    assert main(["--config", write(tmp_path, FAST_ZQ), "--out", str(tmp_path / "zq")]) == EXIT_OK
    assert main([*args, "--out", str(tmp_path / "here")]) == EXIT_OK
    csvs = [
        {p.name: p.read_bytes() for p in sorted((tmp_path / out).glob("*.csv"))}
        for out in ("hash0", "hash1", "here")
    ]
    assert csvs[0] and csvs[0] == csvs[1] == csvs[2]


class TestWithoutScipy:
    def test_import_loads_no_scipy(self, tmp_path):
        proc = run_python(
            "import sys, spindyad\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_presets_run_with_scipy_blocked(self, tmp_path):
        # sys.modules[name] = None makes every import of scipy fail
        proc = run_python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from spindyad.cli import main\n"
            f"assert main(['--config', {str(ROOT / 'configs' / 'levels.cfg')!r}, '--out', 'lv']) == 0\n"
            f"assert main(['--config', {str(ROOT / 'configs' / 'zq_decay.cfg')!r}, '--out', 'zq',"
            " '--trajectories', '2', '--seed', '7']) == 0\n",
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "lv" / "levels.csv").exists()
        # seed 7 resolves a decay, so the fit ran
        assert "# fit:" in (tmp_path / "zq" / "zq_decay.csv").read_text()
