"""Criterion 10 across pipeline seeds: is the learned scheduler at least as good as greedy?

For each of seeds 0-3 this runs `gen-data`, `pretrain` and `finetune` on the
default config with that seed as the run, pretraining and fine-tune seed, then
the comparison of acceptance criterion 10 on the fine-tuned pair: 200 test
starts at 138h, evaluated with seed 0 as the test does. It prints, per seed,
the mean paired return gap of the adaptive policy against greedy, naive and
random with its standard error, the share of starts whose adaptive plan
differs from greedy's, the adaptive 138h RMSE against 1.02 x the best
fixed policy's, and short SHA-256s of the pretraining's and the fine-tune's
outputs, so that two sweeps can be diffed for byte identity.

    python3 scripts/seed_sweep.py [--work-dir DIR]

Four seeds take minutes each on a desk machine. BLAS runs on one thread, as
in the benchmark, so the figures repeat. This is a study tool, not a test:
nothing here runs in tier-1.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy loads: more threads reorder BLAS sums
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from rollcast.cli import load_dqn_checkpoint, load_model_checkpoint, main  # noqa: E402
from rollcast.evaluation import eval_initial_times  # noqa: E402
from rollcast.gridio import read_grid_file  # noqa: E402
from rollcast.scheduler import EpisodeSpec, ForecastEnv, evaluate_policies  # noqa: E402
from rollcast.scheduler.finetune import resolve_omega  # noqa: E402

SEEDS = (0, 1, 2, 3)
LEAD_H = 138
EPISODES = 200
PRETRAIN_OUTPUTS = ("pre/model.ckpt", "pre/training.csv", "pre/pretrain_summary.json")
FINETUNE_OUTPUTS = tuple(f"fin/{name}" for name in
                         ("episodes.csv", "finetune_summary.json", "dqn.ckpt", "model_finetuned.ckpt"))


def pipeline(root: Path, seed: int) -> list:
    """gen-data, pretrain and finetune with one seed; returns each stage's wall time."""
    walls = []
    data = str(root / "data.grid")
    for argv in (
        ["gen-data", "--out", data],
        ["pretrain", "--data", data, "--out-dir", str(root / "pre")],
        ["finetune", "--data", data, "--checkpoint", str(root / "pre" / "model.ckpt"),
         "--out-dir", str(root / "fin")],
    ):
        t0 = time.time()
        with contextlib.redirect_stdout(io.StringIO()):  # keep the table readable
            code = main(argv + ["--seed", str(seed), "--set", f"pretrain.seed={seed}",
                                "--set", f"finetune.seed={seed}"])
        if code != 0:
            raise SystemExit(f"seed {seed}: {argv[0]} exited {code}")
        walls.append(time.time() - t0)
    return walls


def digest(root: Path, outputs) -> str:
    """The first 12 hex digits of a SHA-256 over a stage's outputs, in a fixed order."""
    sha = hashlib.sha256()
    for name in outputs:
        sha.update((root / name).read_bytes())
    return sha.hexdigest()[:12]


def compare(root: Path) -> dict:
    """Criterion 10's comparison on one pipeline's fine-tuned pair."""
    ds = read_grid_file(root / "data.grid")
    model, _ = load_model_checkpoint(root / "fin" / "model_finetuned.ckpt")
    dqn = load_dqn_checkpoint(root / "fin" / "dqn.ckpt", model)
    env = ForecastEnv(model, ds, omega=resolve_omega(model, ds, seed=0))
    starts = eval_initial_times(ds, "test", LEAD_H, EPISODES, seed=0)
    res = evaluate_policies(env, [EpisodeSpec(t, LEAD_H) for t in starts], dqn=dqn, random_seed=0)
    adaptive = np.array(res["adaptive"].returns)
    out = {}
    for other in ("greedy", "naive", "random"):
        diff = adaptive - np.array(res[other].returns)
        out[other] = (diff.mean(), diff.std(ddof=1) / np.sqrt(len(diff)))
    plans = zip(res["adaptive"].intervals, res["greedy"].intervals)
    out["differ"] = float(np.mean([a != g for a, g in plans]))
    bar = 1.02 * min(res["naive"].mean_final_rmse, res["greedy"].mean_final_rmse)
    out["rmse"] = (res["adaptive"].mean_final_rmse, bar)
    return out


def main_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work-dir", help="keep each seed's files here (default: a temporary dir)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(args.work_dir or tmp)
        failed = 0
        print("seed  gap_vs_greedy  se     gap_vs_naive  gap_vs_random  differ  rmse/bar     "
              "pipeline_s  finetune_s  pre_digest    fin_digest")
        for seed in SEEDS:
            root = base / f"seed{seed}"
            root.mkdir(parents=True, exist_ok=True)
            walls = pipeline(root, seed)
            r = compare(root)
            gap, se = r["greedy"]
            passed = all(r[o][0] >= -r[o][1] for o in ("greedy", "naive", "random"))
            passed &= r["rmse"][0] <= r["rmse"][1]
            failed += not passed
            print(f"{seed:<5} {gap:+13.3f}  {se:5.3f}  {r['naive'][0]:+12.3f}  {r['random'][0]:+13.3f}"
                  f"  {r['differ']:6.3f}  {r['rmse'][0]:.3f}/{r['rmse'][1]:.3f}  {sum(walls):10.1f}  {walls[-1]:10.1f}"
                  f"  {digest(root, PRETRAIN_OUTPUTS)}  {digest(root, FINETUNE_OUTPUTS)}"
                  f"  {'pass' if passed else 'FAIL'}", flush=True)
    print(f"{len(SEEDS) - failed}/{len(SEEDS)} seeds meet criterion 10")
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
