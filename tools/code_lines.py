"""Count the code lines of each module of src/cascade4, or of another
directory's Python files.

A code line is a non-blank, non-comment source line spanned by some AST node
other than a docstring.  Run from anywhere:

    python tools/code_lines.py            # src/cascade4
    python tools/code_lines.py tests      # a directory, relative to the cwd

It prints one `<lines> <module>` row per module and the total last.
"""

import argparse
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cascade4"


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    text = source.splitlines()
    spanned = {line for node in ast.walk(tree) if hasattr(node, "end_lineno")
               for line in range(node.lineno, node.end_lineno + 1)}
    spanned -= _docstring_lines(tree)
    return sum(1 for line in spanned
               if text[line - 1].strip()
               and not text[line - 1].strip().startswith("#"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", type=pathlib.Path, default=PACKAGE)
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.directory.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")


if __name__ == "__main__":
    main()
