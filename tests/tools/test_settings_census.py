"""The settings census hook (``tools/census/sitecustomize.py``), run over
a tiny script in a subprocess: it records every ``src/repro`` parameter
bound to a non-default value, and nothing else."""

import os
import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[2]

SCRIPT = textwrap.dedent(
    """
    import dataclasses
    import multiprocessing
    import sys

    from repro.server.router import AdaptivePolicy
    from repro.sim.machine import DiskSpec, MachineSpec
    from repro.storage import StorageConfig

    StorageConfig(resident="disk")                  # a non-default keyword
    StorageConfig(resident="memory")                # the default, spelled out
    machine = dataclasses.replace(MachineSpec(), cores=4)  # a field via replace
    MachineSpec(disk=DiskSpec())                    # a factory default, spelled out
    sys.settrace(None)                              # what pytest-benchmark does
    AdaptivePolicy(machine, threshold=3)


    def child():
        DiskSpec(bandwidth=1.0)


    if __name__ == "__main__":
        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(60)
        assert proc.exitcode == 0
    """
)


def census(tmp_path) -> tuple[set, set]:
    """``(settings, functions)`` the hook recorded over :data:`SCRIPT`."""
    script = tmp_path / "script.py"
    script.write_text(SCRIPT)
    out = tmp_path / "out"
    env = dict(
        os.environ,
        CENSUS_OUT=str(out),
        PYTHONPATH=os.pathsep.join([str(ROOT / "tools" / "census"), str(ROOT / "src")]),
    )
    subprocess.run([sys.executable, str(script)], env=env, check=True, timeout=120)

    def lines(suffix):
        return {
            line.split("/src/repro/", 1)[1]
            for dump in out.glob("*" + suffix)
            for line in dump.read_text().splitlines()
        }

    return lines(".set"), lines(".txt")


def test_the_census_records_exactly_the_non_default_settings(tmp_path):
    recorded, functions = census(tmp_path)
    # Importing the package builds other configs (the engine presets, the
    # schemas): look at the classes the script builds.
    script_classes = ("StorageConfig", "MachineSpec", "DiskSpec", "AdaptivePolicy")
    recorded = {line for line in recorded if line.split(":")[1].split(".")[0] in script_classes}
    assert recorded == {
        "storage/manager.py:StorageConfig.__init__:resident",
        "sim/machine.py:MachineSpec.__init__:cores",
        # after sys.settrace(None): the hook re-installed itself
        "server/router.py:AdaptivePolicy.__init__:threshold",
        # in the forked child
        "sim/machine.py:DiskSpec.__init__:bandwidth",
    }
    # A default_factory field compares against factory(), not against the
    # sentinel the generated __init__ carries: MachineSpec.disk is unset.
    assert not any(":disk" in line for line in recorded)
    # The function census rides along.
    assert any(line.endswith(":AdaptivePolicy.__init__") for line in functions)
