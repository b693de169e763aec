"""Count the code lines of the nmqsim package.

The rule: tokenize each module, then leave out blank lines, comments and
docstrings, where a docstring is a logical line that is one bare string.
Every other physical line that a token touches is a code line.  Prints
one line per module, largest first, then the total.

    python tools/code_size.py
"""

import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    lines, logical = set(), []
    with path.open("rb") as handle:
        for tok in tokenize.tokenize(handle.readline):
            if tok.type not in _SKIP:
                logical.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and logical:
                if not (len(logical) == 1 and logical[0].type == tokenize.STRING):
                    for t in logical:
                        lines.update(range(t.start[0], t.end[0] + 1))
                logical = []
    return len(lines)


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "nmqsim"
    counts = {path.stem: code_lines(path) for path in sorted(root.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:14} {count:5}")
    print(f"{'total':14} {sum(counts.values()):5}  ({len(counts)} modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
