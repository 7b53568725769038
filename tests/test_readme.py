"""The README's library quick start runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def quick_start():
    """The first python block under the "Library quick start" heading."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs(capsys):
    exec(compile(quick_start(), "README.md quick start", "exec"), {})
    epsilon, small, large = capsys.readouterr().out.split()
    assert float(epsilon) >= 0.0
    assert small in ("Safe", "Uncertain")
    assert large in ("Safe", "Unsafe", "Uncertain")
