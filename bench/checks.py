"""Correctness checks on the outputs of the program.

Each check recomputes what it can with plain numpy from the grid file, or
tests a property the method must have; none compares against a stored copy
of earlier output. A check returns None when it holds and a message saying
what is wrong when it does not.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


# -- plain readers ------------------------------------------------------------------


@dataclass
class Grid:
    """A grid file read without the program: (T, V, H, W) values and layout."""

    values: np.ndarray
    lat_degrees: np.ndarray
    step_hours: int
    start_hours: int
    splits: dict

    def index(self, t_hours: int) -> int:
        return (t_hours - self.start_hours) // self.step_hours

    def at(self, t_hours: int) -> np.ndarray:
        return self.values[self.index(t_hours)]

    @property
    def lat_weight(self) -> np.ndarray:
        """cos-latitude weights normalised to mean 1."""
        c = np.cos(np.radians(self.lat_degrees))
        return c / c.mean()


def read_grid(path) -> Grid:
    """Header '<4sHHHHII' (magic, version, V, H, W, steps, step hours), H
    float64 latitudes, then float32 frames; splits come from the JSON sidecar."""
    blob = Path(path).read_bytes()
    magic, _version, V, H, W, T, step_h = struct.unpack_from("<4sHHHHII", blob, 0)
    if magic != b"ARRW":
        raise ValueError(f"{path}: not a grid file")
    off = struct.calcsize("<4sHHHHII")
    lats = np.frombuffer(blob, dtype="<f8", count=H, offset=off)
    off += 8 * H
    frames = np.frombuffer(blob, dtype="<f4", count=T * V * H * W, offset=off)
    manifest = json.loads(Path(str(path) + ".json").read_text())
    return Grid(
        values=frames.reshape(T, V, H, W).astype(np.float64),
        lat_degrees=lats.copy(),
        step_hours=int(step_h),
        start_hours=int(manifest.get("start_hours", 0)),
        splits={k: tuple(v) for k, v in manifest["splits"].items()},
    )


def read_table(path) -> list:
    """Rows of a CSV written by the program, as dicts; comment lines skipped."""
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def wrmse(pred: np.ndarray, truth: np.ndarray, lat_weight: np.ndarray) -> float:
    """Latitude-weighted RMSE of one (V, H, W) field."""
    V, H, W = truth.shape
    return float(np.sqrt(np.sum(lat_weight[None, :, None] * (pred - truth) ** 2) / (V * H * W)))


def greedy_decomposition(lead: int, intervals) -> list:
    out, remaining = [], lead
    while remaining:
        step = max(d for d in intervals if d <= remaining)
        out.append(step)
        remaining -= step
    return out


def trajectory_problem(steps, lead: int, intervals) -> str | None:
    """A trajectory is legal when every step is a configured interval no longer
    than the time still remaining, and the steps sum to the lead."""
    remaining = lead
    for d in steps:
        if d not in intervals:
            return f"interval {d}h is not one of {tuple(intervals)}"
        if d > remaining:
            return f"interval {d}h overshoots the {remaining}h remaining of a {lead}h lead"
        remaining -= d
    if remaining:
        return f"steps {list(steps)} stop {remaining}h short of the {lead}h lead"
    return None


# -- pretrain -------------------------------------------------------------------------


def training_rows_finite(path) -> str | None:
    rows = read_table(path)
    if not rows:
        return f"{path} has no rows"
    for row in rows:
        values = [float(v) for v in row.values()]
        if not np.all(np.isfinite(values)):
            return f"training.csv row {row} is not finite"
    return None


def ratios_beat_persistence(summary: dict) -> str | None:
    """The zero-initialised head forecasts persistence exactly, so a trained
    model must do better on every interval."""
    for delta, row in summary["per_interval"].items():
        ratio = row["model_loss"] / row["persistence_loss"]
        if not abs(ratio - row["ratio"]) <= 1e-12 * ratio:
            return f"{delta}h: ratio {row['ratio']} is not model/persistence {ratio}"
        if not ratio < 1.0:
            return f"{delta}h: one-step ratio {ratio:.4f} does not beat persistence"
    return None


def persistence_loss(grid: Grid, delta: int, seed: int, num_samples: int) -> float:
    """The summary's persistence loss from the grid alone.

    The change over `delta` hours is scaled per variable by its RMS over the
    train split, weighted by cos-latitude, and averaged over the windows that
    `evaluate_one_step_loss` draws from the train split with `seed`.
    """
    lo, hi = grid.splits["train"]
    k = delta // grid.step_hours
    train = grid.values[lo:hi]
    change = train[k:] - train[: len(train) - k]
    scale = np.maximum(np.sqrt(np.mean(change**2, axis=(0, 2, 3))), 1e-6)
    rng = np.random.default_rng(seed)
    idxs = rng.integers(lo, hi - 1 - k + 1, size=num_samples)
    target = (grid.values[idxs + k] - grid.values[idxs]) / scale[None, :, None, None]
    weighted = grid.lat_weight[None, None, :, None] * target**2
    return float(np.sum(weighted) / weighted.size)


def persistence_matches(summary: dict, grid: Grid, seed: int, num_samples: int) -> str | None:
    """The change scales pass through the float32 checkpoint before the
    summary is computed, hence the relative tolerance of 1e-6."""
    for delta, row in summary["per_interval"].items():
        expect = persistence_loss(grid, int(delta), seed, num_samples)
        if not abs(row["persistence_loss"] - expect) <= 1e-6 * expect:
            return f"{delta}h: persistence loss {row['persistence_loss']} != recomputed {expect}"
    return None


def one_step_ratio(summary: dict) -> float:
    rows = summary["per_interval"].values()
    return float(np.mean([r["model_loss"] / r["persistence_loss"] for r in rows]))


# -- finetune -------------------------------------------------------------------------


def episodes_legal(rows: list, intervals) -> str | None:
    for row in rows:
        steps = [int(d) for d in row["intervals"].split(";")]
        problem = trajectory_problem(steps, int(row["lead_hours"]), intervals)
        if problem:
            return f"episode {row['episode']}: {problem}"
    return None


def rewards_bounded(rows: list, omega: float) -> str | None:
    """A reward is -RMSE + omega with RMSE >= 0, and omega must penalise steps."""
    if not omega < 0:
        return f"omega {omega} is not negative"
    for row in rows:
        rewards = [float(r) for r in row["rewards"].split(";")]
        # rewards are printed to 6 decimals
        if max(rewards) > omega + 5e-7:
            return f"episode {row['episode']}: reward {max(rewards)} exceeds omega {omega}"
    return None


def returns_sum_rewards(rows: list) -> str | None:
    for row in rows:
        rewards = [float(r) for r in row["rewards"].split(";")]
        gap = abs(float(row["return"]) - sum(rewards))
        if gap > 5e-7 * (len(rewards) + 1):
            return f"episode {row['episode']}: return {row['return']} != sum of rewards {sum(rewards)}"
    return None


def losses_finite(summary: dict) -> str | None:
    for key in ("td_loss_first", "td_loss_last", "rollout_losses"):
        values = summary[key]
        if not values or not np.all(np.isfinite(values)):
            return f"{key} {values} is empty or not finite"
    return None


def trajectory_skill(rows: list, omega: float, grid: Grid) -> float:
    """Step RMSE along the fine-tune episodes over persistence RMSE at the same
    valid times. Each step's RMSE is omega minus its reward."""
    model_total = persistence_total = 0.0
    for row in rows:
        t0 = int(row["t0_hours"])
        x0 = grid.at(t0)
        t = t0
        for d, r in zip(row["intervals"].split(";"), row["rewards"].split(";")):
            t += int(d)
            model_total += omega - float(r)
            persistence_total += wrmse(x0, grid.at(t), grid.lat_weight)
    return model_total / persistence_total


def dqn_picks_legal(model_path, dqn_path, data_path, max_lead: int) -> str | None:
    """The saved DQN reloads and picks a legal interval at every remaining time."""
    from rollcast.cli import load_dqn_checkpoint, load_model_checkpoint
    from rollcast.gridio import read_grid_file
    from rollcast.scheduler import EnvState, policy_adaptive

    try:
        model, _ = load_model_checkpoint(model_path)
        dqn = load_dqn_checkpoint(dqn_path, model)
    except (OSError, ValueError, KeyError) as exc:
        return f"saved DQN does not reload: {exc}"
    ds = read_grid_file(data_path)
    lo, _ = ds.splits["test"]
    x = ds.fields[lo]
    step = min(dqn.actions.intervals)
    for remaining in range(step, max_lead + step, step):
        state = EnvState(x, x.timestamp_hours, max_lead - remaining, remaining, max_lead)
        action = policy_adaptive(state, dqn)
        if action not in dqn.actions.intervals or action > remaining:
            return f"DQN picks {action}h with {remaining}h remaining"
    return None


# -- rollout --------------------------------------------------------------------------


def compare_rows(path) -> dict:
    return {row["policy"]: row for row in read_table(path)}


def fixed_policy_lengths(compare: dict, lead: int, intervals) -> str | None:
    expect = {"naive": lead // min(intervals), "greedy": len(greedy_decomposition(lead, intervals))}
    for policy, steps in expect.items():
        if float(compare[policy]["mean_traj_len"]) != steps:
            return f"{policy} takes {compare[policy]['mean_traj_len']} steps, expected {steps}"
    return None


def rollout_rmse_matches(row: dict, finals: list, truths: list, lat_weight, variables) -> str | None:
    """A compare row's RMSEs against the mean plain-numpy RMSE of the given
    final fields; the row is printed to 8 decimals."""
    expect = {"rmse_all": np.mean([wrmse(p, t, lat_weight) for p, t in zip(finals, truths)])}
    for v, name in enumerate(variables):
        expect[f"rmse_{name}"] = np.mean(
            [wrmse(p[v:v + 1], t[v:v + 1], lat_weight) for p, t in zip(finals, truths)]
        )
    for key, value in expect.items():
        if abs(float(row[key]) - value) > 1e-7:
            return f"{row['policy']} {key} {row[key]} != recomputed {value:.8f}"
    return None


def eval_equals_compare(eval_rows: list, adaptive: dict, lead: int) -> str | None:
    """Two code paths of one policy on the same test starts."""
    at_lead = [r for r in eval_rows if int(r["lead_hours"]) == lead]
    if not at_lead:
        return f"eval has no {lead}h rows"
    for row in at_lead:
        other = float(adaptive[f"rmse_{row['variable']}"])
        if abs(float(row["rmse"]) - other) > 1.5e-8:
            return f"eval {row['variable']} rmse {row['rmse']} != compare adaptive {other:.8f}"
    return None


def acc_in_range(eval_rows: list) -> str | None:
    for row in eval_rows:
        a, r = float(row["acc"]), float(row["rmse"])
        if not -1.0 <= a <= 1.0:
            return f"{row['variable']} @ {row['lead_hours']}h: ACC {a} outside [-1, 1]"
        if not (np.isfinite(r) and r >= 0):
            return f"{row['variable']} @ {row['lead_hours']}h: RMSE {r} is not a finite non-negative number"
    return None


def singles_match_compare(singles: list, adaptive: dict, rollout, grid: Grid, lead: int,
                          intervals, variables) -> str | None:
    """Single forecasts are legal, each equals `rollout(t0, intervals)` (the
    model's own rollout of the chosen steps), and over the compare starts they
    reproduce compare's adaptive row.

    singles: (t0, intervals, final field) for each compare start.
    """
    for t0, steps, final in singles:
        problem = trajectory_problem(steps, lead, intervals)
        if problem:
            return f"single forecast from {t0}h: {problem}"
        if not np.array_equal(final, rollout(t0, steps)):
            return f"single forecast from {t0}h differs from the model's rollout of {steps}"
    length = np.mean([len(steps) for _, steps, _ in singles])
    if abs(length - float(adaptive["mean_traj_len"])) > 1e-4:
        return f"single forecasts take {length} steps on average, compare {adaptive['mean_traj_len']}"
    finals = [final for _, _, final in singles]
    truths = [grid.at(t0 + lead) for t0, _, _ in singles]
    return rollout_rmse_matches(adaptive, finals, truths, grid.lat_weight, variables)


def persistence_rmse(grid: Grid, starts, lead: int) -> float:
    return float(np.mean([wrmse(grid.at(t), grid.at(t + lead), grid.lat_weight) for t in starts]))
