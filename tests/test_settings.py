"""Every knob has a setter.

A *setting* is a field with a default of a frozen ``*Config`` / ``*Spec``
/ ``*Model`` dataclass, or a defaulted keyword of a public class's
constructor, under ``src/repro`` (``tools/census/report.py:settings``, an
AST inventory).  ``tools/census/settings.txt`` gives each one a row that
names who sets it:

* ``entry`` -- a program file (``src/``, ``benchmarks/``, ``examples/``)
  that passes it, on a path an entry point runs;
* ``cli`` -- a flag of ``repro`` (the CLI is an entry point too);
* ``model`` -- no run, on purpose: a parameter of the simulation model
  (the machine, the cost model, the page granularity, the arrival shape),
  which tests vary for closed-form checks;
* ``test`` -- only the tests: a fault-injection hook.

A value nothing sets is a constant, not a setting.  These tests hold the
table to the code; the settings census (``tools/census/entry.sh`` +
``report.py --settings``, the weekly ``census`` workflow) holds the
``entry`` rows to traced runs of the entry points.
"""

import importlib.util
import pathlib
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_report():
    spec = importlib.util.spec_from_file_location("census_report", ROOT / "tools" / "census" / "report.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report = _load_report()
INVENTORY = report.settings()
TABLE = report.load_table()


def test_every_setting_has_a_row():
    missing = sorted(s for s in INVENTORY if report.row_for(s, TABLE) is None)
    assert not missing, f"add a row to tools/census/settings.txt, or make it a constant: {missing}"


def test_every_row_names_a_setting_that_exists():
    classes = {s.split(".", 1)[0] for s in INVENTORY}
    stale = sorted(row for row in TABLE if row not in INVENTORY and row not in classes)
    assert not stale


def test_every_setter_file_contains_its_keyword():
    wrong = []
    for setting, (kind, setter, needle) in TABLE.items():
        if setter == "-":
            continue  # a model parameter no file sets (checked below)
        if needle not in (ROOT / setter).read_text():
            wrong.append(f"{setting}: {setter} has no {needle!r}")
    assert not wrong


def test_each_kind_names_its_kind_of_setter():
    for setting, (kind, setter, needle) in TABLE.items():
        if setter == "-" or "." not in setting:
            # Nobody sets it, or a whole class: only a model may be either.
            assert kind == "model", setting
        elif kind == "entry":
            assert setter.split("/", 1)[0] in ("src", "benchmarks", "examples"), setting
        elif kind == "cli":
            assert setter == "src/repro/cli.py" and needle.startswith("--"), setting
            assert f'"{needle}"' in (ROOT / setter).read_text(), setting
        elif kind == "test":
            assert setter.startswith("tests/"), setting


def test_the_inventory_sees_every_kind_of_setting(tmp_path, monkeypatch):
    # A field added to a config without a row must fail the tests above:
    # the inventory has to see it in the first place.
    (tmp_path / "mod.py").write_text(
        textwrap.dedent(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class NewConfig:
                required: int
                knob: float = 1.0
                shape = 2.0  # an unannotated class constant, not a field

            @dataclass
            class Record:  # not frozen: a value, not a config
                count: int = 0

            class Widget:
                def __init__(self, size, colour="red", *, fast=False):
                    pass

                @classmethod
                def build(cls, n, scale=1.0):
                    return cls(n)

                def resize(self, size=3):  # a method, not a constructor
                    pass

            class _Private:
                def __init__(self, hidden=1):
                    pass
            """
        )
    )
    monkeypatch.setattr(report, "SRC", tmp_path)
    assert set(report.settings()) == {
        "NewConfig.knob",
        "Widget.colour",
        "Widget.fast",
        "Widget.build.scale",
    }


@pytest.mark.parametrize("line", ["Foo.bar sometimes src/x.py", "Foo.bar entry"])
def test_a_malformed_row_is_refused(tmp_path, line):
    table = tmp_path / "settings.txt"
    table.write_text(line + "\n")
    with pytest.raises(ValueError):
        report.load_table(table)
