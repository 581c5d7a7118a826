"""Count the settable values in ``src/``: two AST counts that a
simplification should drive down.

- parameters with a default: every function or method parameter,
  positional or keyword-only, that carries a default value (a
  ``lambda``'s defaults bind loop variables, so they are not counted);
- dataclass fields with a default: every annotated class-body
  assignment with a value in a class decorated ``@dataclass``.

    python tools/knobs.py [root ...]      # default root: src

Uses only the standard library.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Iterator, List, Tuple


def python_files(root: str) -> Iterator[str]:
    for directory, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = (decorator.func if isinstance(decorator, ast.Call)
                  else decorator)
        name = (target.attr if isinstance(target, ast.Attribute)
                else getattr(target, "id", None))
        if name == "dataclass":
            return True
    return False


def count_knobs(tree: ast.AST) -> Tuple[int, int]:
    """(parameters with a default, dataclass fields with a default)."""
    params = fields = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params += len(args.defaults)
            params += sum(1 for d in args.kw_defaults if d is not None)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(1 for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign)
                          and stmt.value is not None)
    return params, fields


def main(argv: List[str]) -> int:
    roots = argv or ["src"]
    params = fields = 0
    for root in roots:
        for path in python_files(root):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            p, f = count_knobs(tree)
            params += p
            fields += f
    print(f"parameters with a default: {params}")
    print(f"dataclass fields with a default: {fields}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
