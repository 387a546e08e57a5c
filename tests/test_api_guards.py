"""Guard against regrowth of loose supervision keyword arguments.

Supervision travels as one :class:`repro.engine.supervise.Supervision`
value (``run_tasks(..., supervision=)``). No function in ``src/repro`` may
declare the individual knobs as parameters again, except the supervision
module itself and the worker entry points in ``engine/tasks.py``
(``run_task``/``run_chunk`` take a :class:`RetryPolicy`).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

LOOSE_KNOBS = {"retry", "task_timeout_s", "on_error", "max_pool_restarts"}

EXEMPT = {"engine/supervise.py", "engine/tasks.py"}


def _loose_parameters(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        for arg in params:
            if arg.arg in LOOSE_KNOBS:
                yield f"{node.name}({arg.arg}=) at line {node.lineno}"


def test_no_loose_supervision_parameters():
    sources = [
        p for p in sorted(SRC.rglob("*.py"))
        if p.relative_to(SRC).as_posix() not in EXEMPT
    ]
    assert len(sources) > 50  # the walk really found the package
    found = [
        f"{path.relative_to(SRC)}: {where}"
        for path in sources
        for where in _loose_parameters(path)
    ]
    assert not found, (
        "loose supervision knobs declared (take one "
        f"`supervision: Supervision` instead): {found}"
    )


def test_guard_catches_a_loose_knob(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def sweep(points, *, on_error='raise'):\n    pass\n")
    assert list(_loose_parameters(bad)) == ["sweep(on_error=) at line 1"]
