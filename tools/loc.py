#!/usr/bin/env python3
"""Source size, as CHANGES.md reports it (``make loc``).

    python3 tools/loc.py

Prints the lines and modules under ``src/`` and the *code-only* lines:
lines holding a token that is neither a comment nor a docstring, counted
with :mod:`tokenize`, so blank lines, comments and docstrings are left
out. A reduction made by deleting comments moves the first count and not
the second. Both counts follow for the files ROADMAP items gate on.
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
#: the files ROADMAP items 2, 7 and 8 gate on (under src/repro), per row
GATED = {
    "runtime/mp.py": ("runtime/mp.py",),
    "runtime/mp_directory.py": ("runtime/mp_directory.py",),
    "core/endpoint.py + core/migration.py": ("core/endpoint.py",
                                             "core/migration.py"),
}
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines holding a token that is not a comment or a docstring (a
    string that is a statement of its own)."""
    toks = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
            if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    for i, tok in enumerate(toks):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and (i == 0 or toks[i - 1].type in _LAYOUT)
                and toks[i + 1].type in _LAYOUT):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    sizes = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        sizes[path] = (text.count("\n"), code_lines(text))

    def total(paths) -> tuple[int, int]:
        return (sum(sizes[p][0] for p in paths),
                sum(sizes[p][1] for p in paths))

    lines, code = total(sizes)
    print(f"lines:   {lines}")
    print(f"code:    {code}  (no comments, docstrings or blank lines)")
    print(f"modules: {len(sizes)}")
    for label, rels in GATED.items():
        lines, code = total([SRC / "repro" / rel for rel in rels])
        print(f"{label + ':':38s}{lines} (code {code})")


if __name__ == "__main__":
    main()
