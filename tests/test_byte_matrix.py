"""The token comparison of ``tools/byte_matrix.py --numeric``."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("byte_matrix", ROOT / "tools" / "byte_matrix.py")
matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(matrix)

CSV = """# config sim.seed = 7
# label = zq_decay
sweep_value,time_s,signal_mean,signal_sem
,1.0000000000000001e-06,{mean},0.021156316213381949
,2.0000000000000001e-06,0.5,0.02
# fit: t2 = {t2}, converged = True
"""
TRACE = {"mean": "0.17713600288972631", "t2": "1.0491773818823655e-05"}


compare = matrix.compare_numeric


def test_identical_file_is_within_bounds_with_no_change():
    ok, report = compare("a/a.csv", CSV.format(**TRACE), CSV.format(**TRACE))
    assert ok
    assert report == "a/a.csv: trace max abs 0 rel 0; values max abs 0 rel 0; within bounds"


@pytest.mark.parametrize(
    "field,new,ok",
    [
        ("mean", "0.17713600288973631", True),  # 1e-14 in a trace column
        ("mean", "0.17713600289172631", False),  # 2e-12 in a trace column
        ("t2", "1.0491773818833655e-05", True),  # 1e-12 relative in a derived value
        ("t2", "1.0491794818823655e-05", False),  # 2e-6 relative
    ],
)
def test_numbers_are_held_to_their_bound(field, new, ok):
    good, report = compare("a/a.csv", CSV.format(**TRACE), CSV.format(**dict(TRACE, **{field: new})))
    assert good is ok
    assert ("within bounds" in report) is ok
    if not ok:
        assert "OUT OF BOUNDS, line " + ("4" if field == "mean" else "6") in report


def test_trace_and_value_changes_are_reported_apart():
    _, report = compare("a/a.csv", CSV.format(**TRACE), CSV.format(**dict(TRACE, mean="0.17713600288973631")))
    assert report.startswith("a/a.csv: trace max abs 1e-14 rel 5.6e-14; values max abs 0 rel 0;")


def test_a_changed_word_is_out_of_bounds():
    ok, report = compare("a/a.csv", CSV.format(**TRACE), CSV.format(**TRACE).replace("True", "False"))
    assert not ok
    assert report.endswith("OUT OF BOUNDS, line 6: ', converged = True' became ', converged = False'")


def test_inf_against_a_number_is_out_of_bounds():
    ok, report = compare("s.txt", "t2_s = inf\n", "t2_s = 1.5e+308\n")
    assert not ok
    assert report.endswith("OUT OF BOUNDS, line 1: 't2_s = inf' became 't2_s ='")


def test_a_changed_exit_code_is_out_of_bounds():
    ok, report = compare("zq_decay.log", "exit = 0\npoints = 3\n", "exit = 2\npoints = 3\n")
    assert not ok
    assert report.endswith("OUT OF BOUNDS, line 1: 'exit = 0' became 'exit = 2'")


def test_a_log_echoes_summary_values_under_their_bound():
    assert compare("x.log", "exit = 0\nt2 = 2.0983547637647309e-05\n", "exit = 0\nt2 = 2.0983547637647311e-05\n")[0]


def test_a_summary_line_naming_a_trace_column_is_a_trace_value():
    # a standard error of rounding residue moves by far more than 1e-6 relative
    ok, report = compare("c.txt", "signal_sem = 2.2e-17\nn = 3\n", "signal_sem = 1.7e-17\nn = 3\n")
    assert ok
    assert report.startswith("c.txt: trace max abs 5e-18 rel 0.23; values max abs 0 rel 0;")


def test_svg_numbers_may_move_one_unit_of_their_last_digit():
    theirs = '<polyline points="72.00,380.95 72.85,384.50"/><text>1.23e-05</text>\n'
    ours = '<polyline points="72.00,380.96 72.85,384.50"/><text>1.24e-05</text>\n'
    ok, report = compare("p.svg", theirs, ours)
    assert ok
    assert report.endswith("; 2 at their last printed digit; within bounds")
    ok, report = compare("p.svg", theirs, ours.replace("380.96", "380.97"))
    assert not ok
    assert report.endswith("OUT OF BOUNDS, line 1: 380.95 became 380.97")
    # outside an SVG a number is printed in full, so the last digit earns nothing
    assert not compare("s.txt", "x = 380.95\n", "x = 380.96\n")[0]


def test_a_file_cut_short_is_out_of_bounds():
    ok, report = compare("a/a.csv", CSV.format(**TRACE), CSV.format(**TRACE) + "# more\n")
    assert not ok
    assert "OUT OF BOUNDS" in report
