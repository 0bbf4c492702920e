"""Count the code lines of the package: ``python tests/code_lines.py``.

A code line is a non-blank line of ``src/transknot/*.py`` that is not
a comment and not part of a module, class or function docstring.  A
line counts when it is not blank and a token other than a comment
starts, ends or runs through it, so every non-blank line of a
multi-line string that is not a docstring counts.  Prints ``<file>
<count>`` per module, then ``total <count>``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "transknot"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python source ``source``."""
    text = source.splitlines()
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(k for k in range(token.start[0], token.end[0] + 1) if text[k - 1].strip())
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    total = 0
    for path in sorted(SOURCE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        print(path.name, count)
        total += count
    print("total", total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
