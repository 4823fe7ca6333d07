"""Count the code lines of each module of src/alpquad.

A code line is a physical line that holds at least one token other than a
comment. Blank lines, comments and docstrings (a string token that forms a
whole statement) are left out; a line that a multi-line string spans counts
once for each line.

Run from anywhere: python tools/code_lines.py
"""

import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "alpquad"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    lines, statement = set(), []
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                statement.append(tok)
            elif tok.type == tokenize.NEWLINE:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main() -> None:
    counts = {path.stem: code_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>5}")
    print(f"{'total':<{width}} {sum(counts.values()):>5}")


if __name__ == "__main__":
    main()
