"""The benchmark in bench/ still attaches to the program: its tracer wraps
names that exist and restores them, every rollcast name its workloads and
checks import is there, and each workload runs at tiny size with every check
passing, which exercises the forms in which the benchmark calls the program."""

import ast
import copy
import importlib
import sys
from pathlib import Path

import pytest

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


def _bench_tiny_config() -> dict:
    """The TINY config of the benchmark's own tests (bench/tests/test_bench.py)."""
    tree = ast.parse((BENCH / "tests" / "test_bench.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TINY"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tests/test_bench.py defines no TINY config")


@pytest.mark.parametrize("workload", ["pretrain", "finetune", "rollout"])
def test_benchmark_workload_runs_at_tiny_size(workload, tmp_path):
    workloads = _bench_module("workloads")
    tiny = _bench_tiny_config()
    run = workloads.Run(tmp_path / workload, tiny["seed"], 0.0, copy.deepcopy(tiny))
    workloads.WORKLOADS[workload](run)
    assert {name: p for name, p in run.checks.items() if p is not None} == {}
    assert run.checks and run.attempted > 0 and run.failed == 0
