"""Count the lines of every module under src/: physical, and code-only.

Code-only lines are those holding a token of a statement, counted by
`tokenize`: blank lines, comment-only lines and docstrings (a statement that
is a lone string) do not count.  A token spanning several lines counts each.

    python tools/src_lines.py [ROOT]

prints one row per module and a total; ROOT defaults to the src/ beside this
script's directory.
"""

import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source):
    """The number of lines of `source` that hold a token of a statement other than a lone string."""
    rows, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                rows.update(r for t in statement for r in range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in SKIP:
            statement.append(tok)
    return len(rows)


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    rows = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        rows.append((str(path.relative_to(root)), len(source.splitlines()), code_lines(source)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  physical  code-only")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>8}  {code:>9}")


if __name__ == "__main__":
    main(sys.argv)
