"""Guard: the cost model is the only place that builds CPU commands.

Every charge an engine yields is a cost-model value -- a memoized builder
result, a fixed per-model charge, or ``CostModel.fused`` of those -- so a
page loop's command is a memo hit and identical charges are one object
across operators and runs.  A ``CPU(...)`` / ``CPU_FUSED(...)`` /
``CpuCommand(...)`` call anywhere else in the package would quietly bring
per-page construction back."""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
CONSTRUCTORS = {"CPU", "CPU_FUSED", "CpuCommand"}
ALLOWED = {"sim/commands.py", "sim/costmodel.py"}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_only_the_cost_model_constructs_cpu_commands():
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in ALLOWED:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=rel)):
            if isinstance(node, ast.Call) and _called_name(node) in CONSTRUCTORS:
                sites.append(f"{rel}:{node.lineno}")
    assert not sites
