"""The benchmark in bench/ still attaches to the program: its tracer wraps
names that exist and restores them, and every rollcast name its workloads
and checks import is there."""

import ast
import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    return importlib.import_module(name)


def test_tracer_installs_and_uninstall_restores_every_original():
    tracing = _bench_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # raises AttributeError on a wrapped name that is gone
        wrapped = list(tracer._undo)
        assert wrapped
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in wrapped)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is fn for owner, attr, fn in wrapped)


def test_every_rollcast_name_the_benchmark_imports_exists():
    imported = []
    for script in ("workloads.py", "checks.py"):
        for node in ast.walk(ast.parse((BENCH / script).read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rollcast"):
                imported += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [(a.name, None) for a in node.names if a.name.startswith("rollcast")]
    assert imported
    for module, name in imported:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{module}.{name}"
