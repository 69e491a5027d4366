"""Count the code lines of `src/mehler`: no comments, docstrings or blank lines.

    python3 tools/code_lines.py [--root CHECKOUT]

A line counts when it holds a token other than a comment, a newline, an
indent or a docstring. A docstring is a string literal that is the whole
first statement of a module, class or function. CHECKOUT defaults to the
checkout holding this script. Prints one integer, the total over every
`.py` file under CHECKOUT/src/mehler.
"""

import argparse
import ast
import io
import os
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    return len(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args()
    package = os.path.join(os.path.abspath(args.root), "src", "mehler")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                total += code_lines(fh.read())
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
