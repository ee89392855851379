"""Size of ``src/``: code and prose lines per module, and the public names.

    python3 tools/src_size.py

A line is prose when it holds only a comment or part of a docstring (a
string that stands alone as a statement); a line that holds any other
token is code; the rest are blank.  The split is made with ``tokenize``,
so a ``#`` or a triple quote inside a string does not count.  The public
names are counted as ``tests/test_public_api.py`` counts them: the names
``mahler`` exports that do not start with ``_`` and are not modules.
"""

from __future__ import annotations

import io
import sys
import tokenize
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def count_lines(text):
    """(code, prose, blank) line counts of Python source ``text``.  A blank
    line inside a docstring is prose, inside another string code."""
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    code, prose = set(), set()
    previous = tokenize.NEWLINE
    for i, tok in enumerate(tokens):
        lines = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            prose.update(lines)
        elif tok.type == tokenize.STRING and previous in (tokenize.NEWLINE, tokenize.INDENT,
                                                          tokenize.DEDENT):
            after = next((t.type for t in tokens[i + 1:] if t.type != tokenize.COMMENT), None)
            (prose if after in (tokenize.NEWLINE, tokenize.ENDMARKER) else code).update(lines)
        elif tok.type not in _LAYOUT:
            code.update(lines)
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            previous = tok.type
    prose -= code
    blank = [i for i, line in enumerate(text.splitlines(), 1)
             if not line.strip() and i not in code and i not in prose]
    return len(code), len(prose), len(blank)


def public_names():
    """The names ``mahler`` exports, as ``tests/test_public_api.py`` counts them."""
    sys.path.insert(0, str(SRC))
    import mahler
    return {name for name, value in vars(mahler).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def main():
    rows = []
    for path in sorted((SRC / "mahler").glob("*.py")):
        rows.append((path.name, *count_lines(path.read_text())))
    print(f"{'module':<16}{'code':>7}{'prose':>7}{'blank':>7}{'lines':>7}")
    for name, code, prose, blank in rows:
        print(f"{name:<16}{code:>7}{prose:>7}{blank:>7}{code + prose + blank:>7}")
    totals = [sum(col) for col in zip(*(r[1:] for r in rows))]
    print(f"{'total':<16}{totals[0]:>7}{totals[1]:>7}{totals[2]:>7}{sum(totals):>7}")
    print(f"public names: {len(public_names())}")


if __name__ == "__main__":
    main()
