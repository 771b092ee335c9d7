"""Census tables: every ``src/repro`` function and setting, by what reached it.

Usage::

    python tools/census/report.py ENTRY_DIR TESTS_DIR
    python tools/census/report.py --settings ENTRY_DIR [TESTS_DIR]

``ENTRY_DIR`` and ``TESTS_DIR`` hold the dumps ``sitecustomize.py`` (beside
this file) wrote while the entry points (``entry.sh``), respectively the
tier-1 tests, ran.

The function table matches ``def`` statements of ``src/repro`` (lambdas
and comprehensions are not counted) to the recorded code objects by file
and qualified name, and prints every function reached only from the tests
or never, with its length in lines.

The settings table covers :func:`settings`: every field of a frozen
config/spec/model dataclass and every defaulted keyword of a public
class's constructors.  ``settings.txt`` (beside this file) gives each one
a row -- who sets it: an entry point (``entry``), a CLI flag (``cli``), no
run on purpose, because it is a parameter of the simulation model that
tests vary (``model``), or only the tests, because it injects faults
(``test``).  The report prints, for each setting, whether the entry
points and the tests bound it to a non-default value, then every
defaulted parameter of any ``src/repro`` callable that no entry point
sets.  It exits 1 if an ``entry`` row claims a setter the entry points
never exercised.
"""

from __future__ import annotations

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
TABLE = pathlib.Path(__file__).resolve().with_name("settings.txt")
KINDS = ("entry", "cli", "model", "test")


def _walk(visit) -> None:
    """Call ``visit(path, qualname, node)`` for every ``def`` and ``class``
    of ``src/repro``; ``path`` is relative to the package."""

    def walk(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(path, prefix + child.name, child)
                walk(child, prefix + child.name + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(path, prefix + child.name, child)
                walk(child, prefix + child.name + ".", path)
            else:
                walk(child, prefix, path)

    for file in sorted(SRC.rglob("*.py")):
        walk(ast.parse(file.read_text()), "", file.relative_to(SRC).as_posix())


def functions() -> dict[tuple[str, str], tuple[int, int]]:
    """``(path, qualname) -> (first line, lines)`` for every ``def``."""
    out: dict[tuple[str, str], tuple[int, int]] = {}

    def visit(path: str, qual: str, node: ast.AST) -> None:
        if not isinstance(node, ast.ClassDef):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out[(path, qual)] = (node.lineno, node.end_lineno - start + 1)

    _walk(visit)
    return out


def _defaulted(args: ast.arguments) -> list[str]:
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return names + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def defaulted_params() -> set[tuple[str, str, str]]:
    """``(path, qualname, parameter)`` for every defaulted parameter of a
    ``def`` outside a function body (what the hook can resolve)."""
    out = set()

    def visit(path: str, qual: str, node: ast.AST) -> None:
        if not isinstance(node, ast.ClassDef) and "<locals>" not in qual:
            out.update((path, qual, name) for name in _defaulted(node.args))

    _walk(visit)
    return out


def _is_setting_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        if (
            isinstance(d, ast.Call)
            and getattr(d.func, "id", "") == "dataclass"
            and any(k.arg == "frozen" and getattr(k.value, "value", False) for k in d.keywords)
        ):
            return node.name.endswith(("Config", "Spec", "Model"))
    return False


def settings() -> dict[str, str]:
    """``"Class.parameter" -> path`` for every setting: each field with a
    default of a frozen ``*Config`` / ``*Spec`` / ``*Model`` dataclass,
    and each defaulted keyword of a public class's constructors -- its
    ``__init__``, and as ``"Class.method.parameter"`` its classmethods (a
    required argument is not a setting: every caller chooses it)."""
    out: dict[str, str] = {}

    def visit(path: str, qual: str, node: ast.AST) -> None:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_") or "." in qual:
            return
        if _is_setting_dataclass(node):
            for st in node.body:
                if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name) and st.value:
                    out[f"{node.name}.{st.target.id}"] = path
        for st in node.body:
            if not isinstance(st, ast.FunctionDef):
                continue
            if st.name == "__init__":
                prefix = node.name
            elif any(getattr(d, "id", "") == "classmethod" for d in st.decorator_list):
                prefix = f"{node.name}.{st.name}"
            else:
                continue
            for name in _defaulted(st.args):
                out[f"{prefix}.{name}"] = path

    _walk(visit)
    return out


def load_table(path: pathlib.Path = TABLE) -> dict[str, tuple[str, str, str]]:
    """``setting -> (kind, setter file, needle)`` from ``settings.txt``.

    A row is ``setting kind setter [needle]``; the needle (the rest of the
    line) is the text the setter file must contain: by default
    ``<parameter>=``, a ``cli`` row's flag, or the call that passes the
    setting positionally.  A ``model`` row may give ``-`` as its setter (no
    file sets it), and may name a whole class: every field of it."""
    table: dict[str, tuple[str, str, str]] = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        fields = line.split("#", 1)[0].split(None, 3)
        if not fields:
            continue
        if len(fields) < 3 or fields[1] not in KINDS:
            raise ValueError(f"{path.name}:{number}: expected 'setting kind setter [needle]'")
        setting, kind, setter = fields[:3]
        if setting in table:
            raise ValueError(f"{path.name}:{number}: duplicate row for {setting}")
        needle = fields[3].strip() if len(fields) == 4 else setting.rsplit(".", 1)[-1] + "="
        table[setting] = (kind, setter, needle)
    return table


def row_for(setting: str, table: dict) -> tuple[str, str, str] | None:
    """The table row covering ``setting``: its own, or its class's."""
    return table.get(setting) or table.get(setting.split(".", 1)[0])


def reached(directory: str, suffix: str = ".txt") -> set[tuple[str, str]]:
    """``(path, qualname)`` from function dumps, ``(path, qualname,
    parameter)`` from settings dumps (``suffix=".set"``)."""
    found = set()
    marker = "/src/repro/"
    for dump in pathlib.Path(directory).glob("*" + suffix):
        for line in dump.read_text().splitlines():
            if suffix == ".txt":
                filename, _, qual = line.rsplit(":", 2)
                key: tuple = (qual,)
            else:
                filename, qual, param = line.rsplit(":", 2)
                key = (qual, param)
            if marker in filename:
                found.add((filename.split(marker, 1)[1], *key))
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


def main_settings(entry_dir: str, tests_dir: str | None = None) -> int:
    inventory, table = settings(), load_table()
    entry = reached(entry_dir, ".set")
    tests = reached(tests_dir, ".set") if tests_dir else set()

    def key(setting: str) -> tuple[str, str, str]:
        qual, param = setting.rsplit(".", 1)
        return (inventory[setting], qual if "." in qual else qual + ".__init__", param)

    unobserved = []
    print(f"settings: {len(inventory)}")
    print(f"{'setting':44s} {'row':6s} {'entry':6s} tests")
    for setting in sorted(inventory):
        row = row_for(setting, table)
        kind = row[0] if row else "-"
        by_entry, by_tests = key(setting) in entry, key(setting) in tests
        if kind == "entry" and not by_entry:
            unobserved.append(setting)
        print(f"{setting:44s} {kind:6s} {'yes' if by_entry else '-':6s} {'yes' if by_tests else '-'}")
    params = defaulted_params()
    unset = sorted(params - entry)
    print(f"\ndefaulted parameters of any callable: {len(params)}; set by no entry point: {len(unset)}")
    for path, qual, param in unset:
        print(f"  {path}  {qual}({param}=)")
    if unobserved:
        print(f"\n{len(unobserved)} 'entry' rows the entry points never set:")
        for setting in unobserved:
            print(f"  {setting} (settings.txt names {table[setting][1]})")
        return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--settings"]:
        sys.exit(main_settings(*sys.argv[2:4]))
    main(*sys.argv[1:3])
