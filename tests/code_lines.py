"""Code lines of Python files: lines that hold a token other than a comment,
leaving out blank lines and the docstrings of modules, classes and
functions.  Prints one count per file, then the total.

    python tests/code_lines.py src/couplegen/*.py

This is the count ROADMAP tracks beside `wc -l`; CI runs this script over
the base commit's files and the head's.  pytest does not collect this file.
"""

import ast
import io
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines -= set(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(paths) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        print(f"{count:6d} {path}")
        total += count
    print(f"{total:6d} total")
    return total


if __name__ == "__main__":
    main(sys.argv[1:])
