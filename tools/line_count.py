"""Line counts of each module of a package, for tracking the size of src/.

For each .py file of the package directory, prints its lines as
``wc -l`` counts them (newline characters) and its code lines: lines
that hold a token other than a comment and are not part of a module,
class or function docstring.  Blank lines, comment-only lines and
docstrings are left out; a line with code and a trailing comment counts.
--src picks the package, so one run per checkout compares two versions.
Prints one JSON object.

    python3 tools/line_count.py                                   # this checkout
    python3 tools/line_count.py --src ../parent/src/eulermeasure  # another one
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


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


def count(source: str) -> dict[str, int]:
    """wc -l lines and code lines of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NON_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return {"lines": source.count("\n"),
            "code_lines": len(code - docstring_lines(ast.parse(source)))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent
                                             / "src" / "eulermeasure"))
    args = parser.parse_args(argv)
    modules = {path.name: count(path.read_text()) for path in sorted(Path(args.src).glob("*.py"))}
    total = {key: sum(m[key] for m in modules.values()) for key in ("lines", "code_lines")}
    print(json.dumps({"modules": modules, "total": total}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
