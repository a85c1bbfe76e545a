"""README.md's library tour runs as written and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_executes(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1, "README.md should hold exactly one python block"
    tour = blocks[0]
    exec(compile(tour, str(README), "exec"), {})
    expected = [line.split("#", 1)[1].strip() for line in tour.splitlines()
                if line.startswith("print(") and "#" in line]
    assert expected
    assert capsys.readouterr().out.splitlines() == expected
