"""List the definitions in ``src/repro`` that nothing outside tests names.

A definition is a top-level function or class, or a method of a
top-level class; dunders are left out. It is listed when its name
appears as a word in no Python file under ``src/``, ``benchmarks/``,
``examples/`` or ``perfbench/`` other than on the definition lines of
that name (so two same-named methods that nothing calls are both
listed). Each line gives the definition's line span, qualified name and
module, and whether any Python file under ``tests/`` mentions the name.

    python tools/census.py [repo_root]      # default root: .

It is a report, not a gate, and a word match is coarse both ways:

- framework hooks called by name from outside the repo (the stdlib
  HTTP server's ``_Handler.do_GET``, say) are listed although they run;
- a name that is also a common word elsewhere (``keys``, ``read``) is
  missed although nothing calls that definition.

Uses only the standard library.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from collections import Counter
from typing import Iterator, List, Tuple

#: Directories whose Python files count as uses.
USE_ROOTS = ("src", "benchmarks", "examples", "perfbench")

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def python_files(root: str) -> Iterator[str]:
    for directory, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def word_counts(roots) -> Counter:
    counts: Counter = Counter()
    for root in roots:
        for path in python_files(root):
            with open(path, encoding="utf-8") as fh:
                counts.update(_WORD.findall(fh.read()))
    return counts


def definitions(src_root: str) -> List[Tuple[str, str, int, int, str]]:
    """(module, qualified name, first line, last line, name) of every
    top-level function and class and every non-dunder method."""
    found = []
    package_root = os.path.dirname(src_root)
    for path in python_files(src_root):
        module = os.path.relpath(path, package_root)[:-3].replace(os.sep, ".")
        module = module.removesuffix(".__init__")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in tree.body:
            if _is_definition(node, ast.ClassDef):
                found.append(_entry(module, node, node.name))
            if isinstance(node, ast.ClassDef):
                found += [_entry(module, item, f"{node.name}.{item.name}")
                          for item in node.body if _is_definition(item)]
    return found


def _is_definition(node, *kinds) -> bool:
    name = getattr(node, "name", "")
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, *kinds))
            and not (name.startswith("__") and name.endswith("__")))


def _entry(module: str, node, qualname: str):
    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
    return module, qualname, first, node.end_lineno, node.name


def main(argv: List[str]) -> int:
    repo = argv[0] if argv else "."
    defs = definitions(os.path.join(repo, "src", "repro"))
    uses = word_counts(os.path.join(repo, root) for root in USE_ROOTS)
    in_tests = word_counts([os.path.join(repo, "tests")])
    # Each definition line names its own definition once.
    defined = Counter(name for *_, name in defs)
    unused = [d for d in defs if uses[d[4]] <= defined[d[4]]]
    print(f"{'lines':>11}  {'name':<44} {'module':<32} tests")
    for module, qualname, first, last, name in unused:
        mentioned = "yes" if in_tests[name] else "no"
        print(f"{first:>5}-{last:<5}  {qualname:<44} {module:<32} {mentioned}")
    print(f"{len(unused)} definitions named nowhere outside tests")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
