"""The benchmark's workloads: pretrain, finetune and rollout.

Each drives rollcast through `rollcast.cli.main` and the public names of
`rollcast.scheduler`. After its set-up, a workload repeats whole rounds of
identical work until the run's measuring time is spent; every round starts
from files on disk, so nothing the program keeps in memory carries from one
round into the next. The outputs of the first round are checked, and every
later round must reproduce them byte for byte.

The world is fixed: one synthetic dataset at the default desk-scale size,
and the checkpoints the set-up trains on it, all made with seed `WORLD_SEED`.
The workload seed is the seed of the measured commands. It draws what they
are asked to do: the model's initial weights and training batches
(pretrain), the exploration, episodes and TD batches (finetune), and the test
starts that forecasts are requested for (rollout). With the world fixed, two
seeds differ only in those inputs, not in how well the set-up happened to
train, so the run-to-run spread of every metric stays small.
"""

from __future__ import annotations

import contextlib
import filecmp
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

WORLD_SEED = 0
PRETRAIN_STEPS = 50
SINGLE_FORECASTS = 40  # closed-loop requests per rollout round


def run_config(seed: int) -> dict:
    """The reduced budgets on the default model and grid."""
    return with_seed({
        "pretrain": {"steps": PRETRAIN_STEPS},
        "dqn": {"sync_every": 50},
        # one lead keeps each round's environment work alike across seeds: with
        # the default 72/138/240h mix the environment steps of a round spread
        # 40% (q3 - q1 over median) across ten seeds, with 138h alone 8%
        "finetune": {"epochs": 2, "episodes_per_epoch": 4, "iterations_per_epoch": 100,
                     "finetune_episodes": 2, "lead_times": [138]},
        "eval": {"policy": "adaptive", "episodes": 8},
        "compare": {"episodes": 8},
    }, seed)


def with_seed(config: dict, seed: int) -> dict:
    """The config with every seed set: the run's (model initialisation, DQN,
    eval and compare starts), pretraining batches, and fine-tune episodes."""
    out = json.loads(json.dumps(config))
    out["seed"] = seed
    for section in ("pretrain", "finetune"):
        out.setdefault(section, {})["seed"] = seed
    return out


class StageFailed(RuntimeError):
    """A CLI stage exited with a non-zero code."""


@dataclass
class Run:
    """One benchmark run: where it writes, what it measures, and its results."""

    out: Path
    seed: int
    seconds: float
    config: dict
    tracer: object = None
    setup_s: list = field(default_factory=list)
    round_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_path = self.out / "config.json"
        self.config_path.write_text(json.dumps(self.config))
        self.world_path = self.out / "world.json"
        self.world_path.write_text(json.dumps(with_seed(self.config, WORLD_SEED)))
        self.data = self.out / "data.grid"

    @property
    def cfg(self):
        """The resolved RunConfig of this run."""
        from rollcast.config import load_config

        return load_config(str(self.config_path))

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def cli(self, stage: str, *argv, world: bool = False) -> float:
        """Run one CLI command, with the world's seed when `world`; returns
        its wall time in seconds."""
        from rollcast.cli import main

        config = self.world_path if world else self.config_path
        command = {"gen_data": "gen-data", "compare": "compare-rollouts"}.get(stage, stage)
        args = [command, "--config", str(config), *[str(a) for a in argv]]
        with self.span(f"cli.{stage}"), open(self.out / "program.log", "a") as log, \
                contextlib.redirect_stdout(log):
            t0 = time.perf_counter()
            code = main(args)
            wall = time.perf_counter() - t0
        if code != 0:
            raise StageFailed(f"rollcast {' '.join(args)} exited with {code}")
        return wall

    def gen_data(self) -> float:
        return self.cli("gen_data", "--out", self.data, world=True)

    def stopwatch(self, owner, attr: str, sink: list):
        """Time the calls of owner.attr into `sink`, in untraced runs only:
        a traced run reports no latencies, and removes its own wrappers
        before its untraced reference round."""
        return contextlib.nullcontext() if self.tracer else stopwatch(owner, attr, sink)

    def check(self, name: str, problem):
        self.checks[name] = problem

    def _round(self, one_round, ops: int, results: list):
        r = len(self.round_s)
        t0 = time.perf_counter()
        self.attempted += ops
        with self.span("bench.round"):
            try:
                results.append(one_round(r))
            except StageFailed as exc:
                self.failed += ops
                self.check(f"round {r} ran", str(exc))
        self.round_s.append(time.perf_counter() - t0)

    def measure(self, one_round, ops_per_round: int) -> list:
        """Whole rounds until about `seconds` have passed, at least one.

        one_round(r) returns the round's result; a round whose CLI stage fails
        counts all its operations as failed. A traced run then removes the
        tracer and runs one more round untraced, the reference for the
        tracing overhead (`reference_s`).
        """
        results: list = []
        start = time.perf_counter()
        while True:
            self._round(one_round, ops_per_round, results)
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * statistics.median(self.round_s) >= self.seconds:
                break
        if self.tracer is not None:
            self.traced_round_s = list(self.round_s)
            self.tracer.uninstall()
            self.tracer = None
            self._round(one_round, ops_per_round, [])
            self.reference_s = self.round_s[-1]
        return results

    def check_rounds_agree(self, prefix: str, names) -> None:
        """Every round's outputs equal the first round's, byte for byte."""
        first = self.out / f"{prefix}0"
        problem = None
        for r in range(1, len(self.round_s)):
            for name in names:
                later = self.out / f"{prefix}{r}" / name
                if not filecmp.cmp(first / name, later, shallow=False):
                    problem = problem or f"{later} differs from {first / name}"
        self.check("later rounds reproduce the first", problem)


@contextlib.contextmanager
def stopwatch(owner, attr: str, sink: list):
    """Time every call of owner.attr into `sink` (seconds) while inside."""
    fn = getattr(owner, attr)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - t0)

    setattr(owner, attr, timed)
    try:
        yield sink
    finally:
        setattr(owner, attr, fn)


def percentiles_ms(samples) -> tuple:
    """(median, 90th percentile) in ms. A run takes about 100 or more samples,
    so some ten lie beyond the 90th percentile; too few for a 95th."""
    if not samples:
        return float("nan"), float("nan")
    ms = np.asarray(samples) * 1e3
    return float(np.median(ms)), float(np.percentile(ms, 90))


def _pretrained(run: Run) -> Path:
    """Set-up shared by finetune and rollout: the world's dataset and a short
    pretrain on it."""
    run.gen_data()
    pre = run.out / "pre"
    run.cli("pretrain", "--data", run.data, "--out-dir", pre, world=True)
    return pre


# -- pretrain ---------------------------------------------------------------------------


def pretrain(run: Run) -> dict:
    """Randomized-interval one-step training from a freshly generated dataset."""
    from rollcast.model import PretrainTrainer

    with run.span("bench.setup"):
        for _ in range(3):
            run.setup_s.append(run.gen_data())
    cfg = run.config["pretrain"]
    samples = cfg["steps"] * run.cfg.pretrain.batch_size
    step_s: list = []

    def one_round(r):
        return run.cli("pretrain", "--data", run.data, "--out-dir", run.out / f"pre{r}")

    with run.stopwatch(PretrainTrainer, "step", step_s):
        walls = run.measure(one_round, cfg["steps"])
    summary = pretrain_checks(run)

    p50, p90 = percentiles_ms(step_s)
    run.detail.update({
        "pretrain_samples_per_s": (samples * len(walls) / sum(walls), "1/s"),
        "one_step_ratio": (checks.one_step_ratio(summary), "ratio"),
        "step_p50_ms": (p50, "ms"),
        "step_p90_ms": (p90, "ms"),
    })
    for delta, row in summary["per_interval"].items():
        run.detail[f"one_step_ratio.{delta}h"] = (row["ratio"], "ratio")
    return {
        "throughput_per_s": run.detail["pretrain_samples_per_s"][0],
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "skill_ratio": run.detail["one_step_ratio"][0],
    }


def pretrain_checks(run: Run) -> dict:
    """Check the first round's outputs; returns its pretrain summary."""
    first = run.out / "pre0"
    summary = json.loads((first / "pretrain_summary.json").read_text())
    grid = checks.read_grid(run.data)
    run.check("training.csv rows are finite", checks.training_rows_finite(first / "training.csv"))
    run.check("every interval beats persistence", checks.ratios_beat_persistence(summary))
    # the CLI scores 128 train windows drawn with the run seed
    run.check("persistence loss matches numpy",
              checks.persistence_matches(summary, grid, run.seed, num_samples=128))
    run.check_rounds_agree("pre", ["training.csv", "pretrain_summary.json", "model.ckpt"])
    return summary


# -- finetune ---------------------------------------------------------------------------


def finetune(run: Run) -> dict:
    """Fine-tuning from a short-pretrained checkpoint: TD updates of the
    Q-network at batch 48, beside B=1 rollouts, replay refreshes and head updates."""
    import rollcast.scheduler.finetune as ft_module

    with run.span("bench.setup"):
        t0 = time.perf_counter()
        pre = _pretrained(run)
        run.setup_s.append(time.perf_counter() - t0)
    cfg = run.config["finetune"]
    iterations = cfg["epochs"] * cfg["iterations_per_epoch"]
    td_s: list = []

    def one_round(r):
        return run.cli("finetune", "--data", run.data, "--checkpoint", pre / "model.ckpt",
                       "--out-dir", run.out / f"ft{r}")

    with run.stopwatch(ft_module, "td_update", td_s):
        walls = run.measure(one_round, iterations)
    rows, omega = finetune_checks(run)

    grid = checks.read_grid(run.data)
    p50, p90 = percentiles_ms(td_s)
    run.detail.update({
        "finetune_iters_per_s": (iterations * len(walls) / sum(walls), "1/s"),
        "td_update_p50_ms": (p50, "ms"),
        "td_update_p90_ms": (p90, "ms"),
        "trajectory_rmse_ratio": (checks.trajectory_skill(rows, omega, grid), "ratio"),
    })
    return {
        "throughput_per_s": run.detail["finetune_iters_per_s"][0],
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "skill_ratio": run.detail["trajectory_rmse_ratio"][0],
    }


def finetune_checks(run: Run) -> tuple:
    """Check the first round's outputs; returns its episode rows and omega."""
    first = run.out / "ft0"
    summary = json.loads((first / "finetune_summary.json").read_text())
    rows = checks.read_table(first / "episodes.csv")
    omega = summary["omega"]
    run.check("episode intervals are legal and sum to the lead",
              checks.episodes_legal(rows, run.cfg.model.intervals))
    run.check("every reward is at most omega < 0", checks.rewards_bounded(rows, omega))
    run.check("each return is the sum of its rewards", checks.returns_sum_rewards(rows))
    run.check("TD and rollout losses are finite", checks.losses_finite(summary))
    run.check("saved DQN reloads and picks legal intervals",
              checks.dqn_picks_legal(first / "model_finetuned.ckpt", first / "dqn.ckpt",
                                     run.data, max(run.cfg.finetune.lead_times)))
    run.check_rounds_agree("ft", ["episodes.csv", "finetune_summary.json", "dqn.ckpt",
                                  "model_finetuned.ckpt"])
    return rows, omega


# -- rollout ------------------------------------------------------------------------------


def single_starts(compare_starts, test_starts, count: int, seed: int) -> list:
    """The compare starts first, then other test starts in a seeded order."""
    rest = sorted(set(test_starts) - set(compare_starts))
    order = np.random.default_rng([seed, 7]).permutation(len(rest))
    return list(compare_starts) + [rest[i] for i in order[: max(count - len(compare_starts), 0)]]


def rollout(run: Run) -> dict:
    """Inference on a checkpoint pretrained and fine-tuned in set-up:
    compare-rollouts at 138h, adaptive eval at its four leads, then single
    adaptive 138h forecasts issued one at a time by one client."""
    from rollcast.cli import load_dqn_checkpoint, load_model_checkpoint
    from rollcast.evaluation import eval_initial_times
    from rollcast.gridio import read_grid_file
    from rollcast.metrics import lat_weights
    from rollcast.scheduler import EpisodeSpec, ForecastEnv, policy_adaptive, run_episode

    with run.span("bench.setup"):
        t0 = time.perf_counter()
        pre = _pretrained(run)
        ft = run.out / "ft"
        run.cli("finetune", "--data", run.data, "--checkpoint", pre / "model.ckpt", "--out-dir", ft,
                world=True)
        run.setup_s.append(time.perf_counter() - t0)
    model_ckpt, dqn_ckpt = ft / "model_finetuned.ckpt", ft / "dqn.ckpt"
    cfg = run.cfg
    lead = cfg.compare.lead

    ds = read_grid_file(run.data)
    compare_starts = eval_initial_times(ds, "test", lead, cfg.compare.episodes, cfg.seed)
    lo, hi = ds.splits["test"]
    step_h = ds.spec.base_step_hours
    test_starts = [ds.fields[i].timestamp_hours for i in range(lo, hi - lead // step_h)]
    starts = single_starts(compare_starts, test_starts, SINGLE_FORECASTS, cfg.seed)
    eval_episodes = sum(
        len(eval_initial_times(ds, "test", d, cfg.eval.episodes, cfg.seed)) for d in cfg.eval.leads
    )
    compare_episodes = 4 * len(compare_starts)
    del ds

    latencies: list = []
    phase_s = {"compare": [], "eval": []}
    singles = []

    def one_round(r):
        out = run.out / f"r{r}"
        ckpts = ["--checkpoint", model_ckpt, "--dqn", dqn_ckpt, "--data", run.data]
        phase_s["compare"].append(run.cli("compare", *ckpts, "--out", out / "compare.csv"))
        phase_s["eval"].append(run.cli("eval", *ckpts, "--out", out / "eval.csv"))
        with run.span("bench.singles"):
            data = read_grid_file(run.data)
            model, _ = load_model_checkpoint(model_ckpt)
            dqn = load_dqn_checkpoint(dqn_ckpt, model)
            env = ForecastEnv(model, data, omega=0.0, weights=lat_weights(data.spec))
            for t0 in starts:
                t = time.perf_counter()
                traj, _, final = run_episode(env, EpisodeSpec(t0, lead),
                                             lambda s: policy_adaptive(s, dqn))
                latencies.append(time.perf_counter() - t)
                if r == 0:
                    singles.append((t0, list(traj.intervals), final.x_hat.values))

    run.measure(one_round, compare_episodes + eval_episodes + len(starts))

    compare = rollout_checks(run, model_ckpt, compare_starts, singles)

    grid = checks.read_grid(run.data)
    # the world's own yardstick: persistence over every test start, the same
    # for all seeds, so the skill moves only with the forecasts
    persistence = checks.persistence_rmse(grid, test_starts, lead)
    p50, p90 = percentiles_ms(latencies)
    n_rounds = len(phase_s["compare"])
    run.detail.update({
        "compare_episodes_per_s": (compare_episodes * n_rounds / sum(phase_s["compare"]), "1/s"),
        "eval_episodes_per_s": (eval_episodes * n_rounds / sum(phase_s["eval"]), "1/s"),
        "forecast_138h_p50_ms": (p50, "ms"),
        "forecast_138h_p90_ms": (p90, "ms"),
        "forecast_138h_samples": (len(latencies), "count"),
        "rmse_138h_greedy": (float(compare["greedy"]["rmse_all"]), "data units"),
        "rmse_138h_adaptive": (float(compare["adaptive"]["rmse_all"]), "data units"),
        "rmse_138h_persistence": (persistence, "data units"),
        "adaptive_steps_138h": (float(compare["adaptive"]["mean_traj_len"]), "count"),
    })
    episodes = (compare_episodes + eval_episodes) * n_rounds
    return {
        "throughput_per_s": episodes / (sum(phase_s["compare"]) + sum(phase_s["eval"])),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "skill_ratio": float(compare["adaptive"]["rmse_all"]) / persistence,
    }


def rollout_checks(run: Run, model_ckpt: Path, compare_starts: list, singles: list) -> dict:
    """Check the first round's outputs and single forecasts; returns the
    compare rows by policy.

    singles: (start, intervals, final field) of each single forecast, the
    compare starts first.
    """
    from rollcast.cli import load_model_checkpoint
    from rollcast.gridio import read_grid_file

    lead = run.cfg.compare.lead
    intervals = run.cfg.model.intervals
    first = run.out / "r0"
    compare = checks.compare_rows(first / "compare.csv")
    eval_rows = checks.read_table(first / "eval.csv")
    grid = checks.read_grid(run.data)
    variables = [k[len("rmse_"):] for k in compare["naive"] if k.startswith("rmse_") and k != "rmse_all"]
    model, _ = load_model_checkpoint(model_ckpt)
    ds = read_grid_file(run.data)

    def rollout_final(t0, steps):
        return model.predict_rollout(ds.at(t0), steps, lead_hours=lead)[-1].values

    truths = [grid.at(t + lead) for t in compare_starts]
    run.check("naive takes 23 steps and greedy 7",
              checks.fixed_policy_lengths(compare, lead, intervals))
    for policy, steps in (("naive", [min(intervals)] * (lead // min(intervals))),
                          ("greedy", checks.greedy_decomposition(lead, intervals))):
        finals = [rollout_final(t, steps) for t in compare_starts]
        run.check(f"{policy} RMSE matches numpy on predict_rollout",
                  checks.rollout_rmse_matches(compare[policy], finals, truths, grid.lat_weight, variables))
    run.check("eval adaptive 138h equals compare adaptive",
              checks.eval_equals_compare(eval_rows, compare["adaptive"], lead))
    run.check("single forecasts match compare's adaptive episodes",
              checks.singles_match_compare(singles[: len(compare_starts)], compare["adaptive"],
                                           rollout_final, grid, lead, intervals, variables))
    problems = [checks.trajectory_problem(steps, lead, intervals) for _, steps, _ in singles]
    run.check("every single forecast is legal", next((p for p in problems if p), None))
    run.check("ACC lies in [-1, 1]", checks.acc_in_range(eval_rows))
    run.check_rounds_agree("r", ["compare.csv", "eval.csv"])
    return compare


WORKLOADS = {"pretrain": pretrain, "finetune": finetune, "rollout": rollout}
