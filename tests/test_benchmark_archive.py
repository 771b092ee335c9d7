"""The figure archive is a gate: every table the fast figure suite writes
is committed, so CI's "committed fast tables match" diff sees it.

A bench that saves ``<name>`` through the ``save_report`` fixture writes
``benchmarks/out/<name>.fast.txt`` (``.full.txt`` under ``REPRO_FULL=1``);
a table that git does not track, or that ``.gitignore`` hides, is a
record no check ever reads.
"""

import pathlib
import re
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "benchmarks"

pytestmark = pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(),
    reason="the archive is what git tracks: needs a git checkout",
)


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=False
    )


def saved_reports() -> list[str]:
    names = []
    for path in sorted(BENCH_DIR.glob("*.py")):
        names += re.findall(r'save_report\(\s*"([^"]+)"', path.read_text())
    return names


def test_the_suite_saves_reports():
    assert {"folding", "shard_scaling", "result_cache", "fig10_concurrency"} <= set(saved_reports())


def test_every_saved_fast_table_is_tracked():
    tracked = set(_git("ls-files", "--", "benchmarks/out").stdout.split())
    missing = [
        f"benchmarks/out/{name}.fast.txt"
        for name in saved_reports()
        if f"benchmarks/out/{name}.fast.txt" not in tracked
    ]
    assert missing == [], f"fast tables git does not track: {missing}"


def test_gitignore_hides_no_table():
    paths = [
        f"benchmarks/out/{name}.{suffix}.txt"
        for name in saved_reports()
        for suffix in ("fast", "full")
    ]
    # --no-index matches the patterns even against tracked files.
    ignored = _git("check-ignore", "--no-index", "--", *paths).stdout.split()
    assert ignored == [], f".gitignore hides archived tables: {ignored}"
