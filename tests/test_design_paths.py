"""Guard: DESIGN.md's module map names files that exist."""

import pathlib
import re

import repro

SRC = pathlib.Path(repro.__file__).parent.parent
DESIGN = SRC.parent / "DESIGN.md"


def named_paths(text: str) -> list[str]:
    """Every ``repro/...`` path in ``text``, brace groups expanded
    (``repro/sim/{cpu,iodev}.py`` names two files)."""
    paths = []
    for head, group, tail in re.findall(r"(repro/[\w/]*)(?:\{([\w,]+)\})?([\w.]*)", text):
        paths += [head + name + tail for name in (group.split(",") if group else [""])]
    return paths


def test_every_path_design_md_names_exists():
    paths = named_paths(DESIGN.read_text())
    assert len(paths) >= 50  # the module map is still there to be checked
    assert [p for p in paths if not (SRC / p).exists()] == []
