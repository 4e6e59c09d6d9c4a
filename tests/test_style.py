"""Source conventions that no configured linter checks."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spirallab"

#: The longest line the package source may hold.
MAX_LINE = 99


def test_no_source_line_is_longer_than_99_characters():
    long_lines = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert sorted(SRC.glob("*.py")), "no package source found"
    assert long_lines == []
