"""Count the code lines of Python modules: lines outside docstrings,
comments and blank lines.

    python3 tools/code_lines.py [PATH ...]    (default: src/rackhom)

A line counts when it holds a token other than a comment, a newline, an
indent or a dedent.  A statement that is only a string expression, such as
a docstring, counts for none of its lines.  A token spanning several lines,
such as a triple-quoted string argument, counts for the line it starts on.
Prints one line per module, then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of code lines of one Python source file."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _LAYOUT:
                statement.append(token)
            elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if any(t.type != tokenize.STRING for t in statement):
                    lines.update(t.start[0] for t in statement)
                statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path(__file__).resolve().parents[1] / "src" / "rackhom"]
    files = sorted(p for root in roots for p in ([root] if root.is_file() else root.rglob("*.py")))
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
