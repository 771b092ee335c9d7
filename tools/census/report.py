"""Census table: every ``src/repro`` function, by what reached it.

Usage::

    python tools/census/report.py ENTRY_DIR TESTS_DIR

``ENTRY_DIR`` and ``TESTS_DIR`` hold the dumps ``sitecustomize.py`` (beside
this file) wrote while the entry points, respectively the tier-1 tests,
ran.  Functions are the ``def`` statements of ``src/repro`` (lambdas and
comprehensions are not counted), matched to the recorded code objects by
file and qualified name.  Prints the counts, then every function reached
only from the tests or never, with its length in lines.
"""

from __future__ import annotations

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def functions() -> dict[tuple[str, str], tuple[int, int]]:
    """``(path, qualname) -> (first line, lines)`` for every ``def``."""
    out: dict[tuple[str, str], tuple[int, int]] = {}

    def walk(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                start = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, qual)] = (child.lineno, child.end_lineno - start + 1)
                walk(child, qual + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", path)
            else:
                walk(child, prefix, path)

    for file in sorted(SRC.rglob("*.py")):
        path = file.relative_to(SRC).as_posix()
        walk(ast.parse(file.read_text()), "", path)
    return out


def reached(directory: str) -> set[tuple[str, str]]:
    found = set()
    for dump in pathlib.Path(directory).glob("*.txt"):
        for line in dump.read_text().splitlines():
            filename, _, qual = line.rsplit(":", 2)
            marker = "/src/repro/"
            if marker in filename:
                found.add((filename.split(marker, 1)[1], qual))
    return found


def main(entry_dir: str, tests_dir: str) -> None:
    funcs = functions()
    entry, tests = reached(entry_dir), reached(tests_dir)
    only_tests = sorted(k for k in funcs if k not in entry and k in tests)
    never = sorted(k for k in funcs if k not in entry and k not in tests)
    print(f"functions: {len(funcs)}")
    for label, keys in (("reached only from tier-1", only_tests), ("never executed", never)):
        lines = sum(funcs[k][1] for k in keys)
        print(f"{label}: {len(keys)} ({lines} lines)")
    for label, keys in (("tier-1 only", only_tests), ("never", never)):
        print(f"\n== {label}")
        for path, qual in keys:
            line, length = funcs[(path, qual)]
            print(f"{path}:{line}  {qual}  ({length} lines)")


if __name__ == "__main__":
    main(*sys.argv[1:3])
