"""The README's library quick start runs as written, and every record it
names as public resolves from the package."""

import re
from fractions import Fraction
from pathlib import Path

import invdeg

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title):
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def test_quick_start_lines_give_their_commented_values():
    (block,) = re.findall(r"```python\n(.*?)```", _section("Library quick start"), re.S)
    namespace = {}
    checked = 0
    for line in block.splitlines():
        if not line.strip():
            continue
        if "#" not in line:
            exec(line, namespace)
            continue
        expr, comment = line.split("#", 1)
        expected = eval(comment.split("->")[0], {"Fraction": Fraction})
        assert eval(expr, namespace) == expected, line
        checked += 1
    assert checked


def test_named_public_records_resolve_from_the_package():
    (listed,) = re.findall(r"The public records \((.*?)\)", _section("Library quick start"), re.S)
    names = re.findall(r"`([^`]+)`", listed)
    assert names
    for name in names:
        record = getattr(invdeg, name)
        assert issubclass(record, tuple) and hasattr(record, "_fields"), name
