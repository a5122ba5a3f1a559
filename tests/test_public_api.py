import re
from pathlib import Path

import mnlcs


def test_readme_lists_exactly_the_public_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    # the list is the block after its lead-in sentence
    start = readme.index("The package exports exactly these names")
    listed = re.findall(r"`(\w+)`", readme[start:].split("\n\n")[1])
    assert sorted(listed) == mnlcs.__all__
    assert len(mnlcs.__all__) <= 18
