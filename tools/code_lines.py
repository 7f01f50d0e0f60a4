"""Code lines of each module of the qes_rabi package, and their total.

    python3 tools/code_lines.py [ROOT]

counts, in every ROOT/src/qes_rabi/*.py (ROOT defaults to the checkout
this script lies in), the lines that hold a token other than a comment, a
docstring or a line break: blank lines, comment lines and the lines of a
docstring (a string that is a statement of its own) are not counted. A
token that spans lines, such as a multi-line string inside an expression,
counts each line it spans. Prints one ``lines module`` row per module,
then the total.
"""
from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """The code lines of one Python file."""
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        statement_start = i == 0 or tokens[i - 1].type in _LAYOUT
        if (tok.type == tokenize.STRING and statement_start
                and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        sys.stderr.write("usage: code_lines.py [ROOT]\n")
        return 2
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    package = root / "src" / "qes_rabi"
    modules = sorted(package.glob("*.py"))
    if not modules:
        sys.stderr.write(f"code_lines: no modules under {package}\n")
        return 2
    total = 0
    for path in modules:
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
