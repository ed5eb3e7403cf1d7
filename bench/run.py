"""Benchmark of rollcast: one workload in one process, BLAS pinned to one thread.

    python3 bench/run.py --workload {pretrain,finetune,rollout} --seed N \\
        --seconds S --trace {0,1} [--keep]

Run from anywhere; the program is imported from the `src` directory next to
this one, and each run writes under `.benchout/` at the repository root.
With --trace 0 the run is measured untraced and reports the end-to-end
metrics named in BENCHMARK.json; with --trace 1 it records spans and reports
the per-layer metrics. The lines before the last give the machine, every
check and every metric of the workload by name and unit; the last line is one
JSON object with the keys correct, attempted, failed and metrics. --keep
leaves the run's datasets and checkpoints in place.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".benchout"
KEPT_FILES = ("result.json", "spans.npz")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("pretrain", "finetune", "rollout"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--keep", action="store_true", help="keep datasets and checkpoints")
    return p.parse_args(argv)


def commit() -> str | None:
    """HEAD of the repository when the checkout has its .git directory."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit(),
        "src_sha256": sources.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import rollcast  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import rollcast from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = OUT_ROOT / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    shutil.rmtree(out, ignore_errors=True)
    run = workloads.Run(out, args.seed, args.seconds, workloads.run_config(args.seed))
    tracer = None
    if args.trace:
        tracer = run.tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        end_to_end = workloads.WORKLOADS[args.workload](run)
    finally:
        if tracer:
            tracer.uninstall()

    if args.trace:
        overhead = statistics.median(run.traced_round_s) - run.reference_s
        metrics = tracing.layer_metrics(tracing.SpanTable(tracer.arrays()), overhead,
                                        run.reference_s)
        tracer.save(out / "spans.npz")
        reported = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = dict(run.detail)
        metrics["setup_s"] = (statistics.median(run.setup_s), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, value in end_to_end.items():
            metrics[name] = (value, units[name])
        reported = [m["name"] for m in spec["end_to_end"]]

    correct = all(problem is None for problem in run.checks.values())
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in reported},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "checks": run.checks,
        "setup_s": run.setup_s, "round_s": run.round_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "result": result,
    }
    (out / "result.json").write_text(json.dumps(record, indent=1))
    if not args.keep:
        for path in out.iterdir():
            if path.name not in KEPT_FILES:
                shutil.rmtree(path) if path.is_dir() else path.unlink()

    print("# environment " + json.dumps(record["environment"]))
    print("# checks " + json.dumps(run.checks))
    print("# metrics " + json.dumps(record["metrics"]))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
