"""Guard: a run's simulated result is a function of (config, seed, data).

Pins ROADMAP item 2's exit condition -- no execution-plane value reaches
the engines from the environment or from module state, so a later change
cannot quietly re-add one."""

import dataclasses
import pathlib
import re

import repro
from repro.engine.config import EngineConfig

SRC = pathlib.Path(repro.__file__).parent

#: operational settings (worker count, progress lines, cell timeout): they
#: change how a sweep is *run*, never what it computes
ALLOWED_ENV = {"REPRO_JOBS", "REPRO_PROGRESS", "REPRO_CELL_TIMEOUT"}


def test_no_execution_plane_switches():
    env_names = {
        (path.relative_to(SRC).as_posix(), name)
        for path in SRC.rglob("*.py")
        for name in re.findall(r"REPRO_[A-Z_]+", path.read_text())
        if name not in ALLOWED_ENV
    }
    assert not env_names
    assert not (SRC / "sim" / "fastpath.py").exists()
    # A ``None`` default is how "ask a process-wide default" crept in.
    deferred = [f.name for f in dataclasses.fields(EngineConfig) if f.default is None]
    assert not deferred
