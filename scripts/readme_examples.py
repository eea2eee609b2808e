"""Run every ``python`` code block of README.md, in order, in one namespace.

Each block sees the names the blocks before it defined, as a reader typing
them into one session would.  ``halfpoint`` is imported from ``src/`` of
this checkout.  Tracebacks carry the README's own line numbers.  Exits 1
at the first block that raises and 0 when every block ran.  Standard
library only:

    python3 scripts/readme_examples.py
"""

import re
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def python_blocks(text):
    """(first line number, source) of each ``python`` block, in order."""
    return [(text.count("\n", 0, m.start(1)) + 1, m.group(1)) for m in _BLOCK.finditer(text)]


def main():
    path = ROOT / "README.md"
    sys.path.insert(0, str(ROOT / "src"))
    namespace = {"__name__": "__readme__"}
    blocks = python_blocks(path.read_text())
    for line, source in blocks:
        try:
            # blank lines in front give the code the README's line numbers
            exec(compile("\n" * (line - 1) + source, str(path), "exec"), namespace)
        except Exception:
            traceback.print_exc()
            print(f"{path.name}: the python block at line {line} raised", file=sys.stderr)
            return 1
    print(f"{path.name}: {len(blocks)} python blocks ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
