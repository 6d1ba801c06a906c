"""Run the README's library quick start: the first fenced ``python`` block
under the "Quick start (library)" heading.

Usage, from the repository root: ``PYTHONPATH=src python tests/readme_quickstart.py``
(or without ``PYTHONPATH`` once the package is installed).
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start(text: str) -> str:
    section = text.split("## Quick start (library)\n", 1)[1]
    return re.search(r"^```python\n(.*?)^```", section, re.S | re.M).group(1)


if __name__ == "__main__":
    code = quick_start(README.read_text(encoding="utf-8"))
    exec(compile(code, f"{README}: Quick start (library)", "exec"), {"__name__": "__main__"})
