"""The README's layout block names every script under tools/."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_layout_names_every_tool():
    # a script missing from the layout block, or a block line naming a
    # script that is gone, fails here
    layout = (ROOT / "README.md").read_text().split("\n## Layout\n", 1)[1].split("```")[1]
    named = set(re.findall(r"^tools/(\S+\.py)\s", layout, re.M))
    assert named == {p.name for p in (ROOT / "tools").glob("*.py")}
