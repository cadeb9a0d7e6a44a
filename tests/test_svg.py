"""The SVG line plot."""

import xml.etree.ElementTree as ET

from spindyad import svg

NS = {"svg": "http://www.w3.org/2000/svg"}


def test_one_point_widens_both_empty_ranges(tmp_path):
    # x and y each span one value: each axis is widened by 1 before its
    # ticks are placed, and y is padded by 5 % of that
    path = tmp_path / "one.svg"
    svg.line_plot(path, [2.0], [("only", [0.5])], title="t", xlabel="x", ylabel="y")
    root = ET.parse(path).getroot()
    texts = [t.text for t in root.iterfind("svg:text", NS)]
    assert texts == ["2", "2.25", "2.5", "2.75", "3", "0.5", "1", "1.5", "only", "t", "x", "y"]
    # the point sits at the left edge, 1.05 / 1.1 of the 388 px plot down
    (line,) = root.iterfind("svg:polyline", NS)
    assert line.get("points") == "72.00,406.36"
