"""Tests of the benchmark itself: a tiny run of every workload, traced and
untraced, and for every correctness rule an output corrupted so that the
check must fail.

    python3 -m pytest bench/tests -q
"""

import copy
import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# a grid and model small enough to run a whole workload in seconds; the test
# split still holds the 138h rollouts of the default compare and eval leads
TINY = {
    "seed": 3,
    "data": {"lat_points": 8, "lon_points": 16, "steps": 300, "regime": {"season_length_days": 10}},
    "model": {"embed_dim": 16, "num_blocks": 1, "num_heads": 2, "moe_num_private": 2, "moe_top_k": 1},
    "pretrain": {"steps": 30, "batch_size": 4, "lr": 0.01},
    "dqn": {"sync_every": 4, "batch_size": 8, "season_length_days": 10},
    "finetune": {"epochs": 1, "episodes_per_epoch": 2, "iterations_per_epoch": 8,
                 "finetune_episodes": 1, "t_max": 2, "lead_times": [24, 36]},
    "eval": {"policy": "adaptive", "episodes": 2},
    "compare": {"episodes": 2},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(tmp_path, workload, tracer=None):
    run = workloads.Run(tmp_path / workload, TINY["seed"], 0.0, copy.deepcopy(TINY), tracer=tracer)
    if tracer:
        tracing.install(tracer)
    try:
        end_to_end = workloads.WORKLOADS[workload](run)
    finally:
        if tracer:
            tracer.uninstall()
    return run, end_to_end


@pytest.fixture(scope="module", params=["pretrain", "finetune", "rollout"])
def finished(request, tmp_path_factory):
    return tiny_run(tmp_path_factory.mktemp("bench"), request.param)


def problems(run):
    return {name: p for name, p in run.checks.items() if p is not None}


def test_tiny_workload_is_correct_and_reports_every_metric(finished):
    run, end_to_end = finished
    assert problems(run) == {}
    assert run.attempted > 0 and run.failed == 0
    assert len(run.round_s) == 1
    names = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s", "peak_rss_mb"}
    assert set(end_to_end) == names
    assert all(np.isfinite(v) and v > 0 for v in end_to_end.values())


@pytest.mark.parametrize("workload", ["pretrain", "rollout"])
def test_traced_counts_repeat_exactly(tmp_path, workload):
    results = []
    for i in range(2):
        tracer = tracing.Tracer()
        run, _ = tiny_run(tmp_path / str(i), workload, tracer)
        assert problems(run) == {}
        spans = tracing.SpanTable(tracer.arrays())
        results.append(tracing.layer_metrics(spans, 0.1, 1.0))
    first, second = results
    assert {m["name"] for m in SPEC["per_layer"]} <= set(first)
    exact = [k for k in first if k.startswith(("diffcore.ops_per", "moe.private_rows", "dqn.q_rows"))]
    exact.append("env.redundant_forecasts")
    for key in exact:
        assert first[key] == second[key], key
    assert first["diffcore.ops_per_step"][0] > 0
    assert first["moe.private_useful_ratio"][0] == 0.5  # k/M = 1/2: every expert runs on every token
    if workload == "rollout":
        assert first["env.steps"][0] > 0 and first["compare.policy_s.adaptive"][0] > 0


def test_self_time_subtracts_children_of_the_same_kind():
    # layer [0, 10] holds inner [2, 6], which holds op.add [3, 4]
    arrays = {
        "names": np.array(["layer", "inner", "op.add"]), "name": np.array([0, 1, 2]), "parent": np.array([-1, 0, 1]),
        "start_us": np.array([0, 2, 3]), "end_us": np.array([10, 6, 4]),
        "ops_start": np.zeros(3, int), "ops_end": np.zeros(3, int), "work": np.zeros(3, int),
    }
    spans = tracing.SpanTable(arrays)
    np.testing.assert_allclose(spans.self_time * 1e6, [6, 4, 1])
    assert list(spans.under("layer")) == [False, True, True]


# -- corrupted outputs --------------------------------------------------------------------


def rewrite(path, edit):
    path = Path(path)
    path.write_text(edit(path.read_text()))


def edit_cell(match, column, value):
    """An edit of one cell of a CSV the program wrote: the first row for which
    match(row) holds gets value(old cell); the provenance line stays."""
    def edit(text):
        lines = text.splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        rows = list(csv.DictReader([ln for ln in lines if not ln.startswith("#")]))
        row = next(r for r in rows if match(r))
        row[column] = value(row[column])
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return "\n".join(comments) + "\n" + out.getvalue()
    return edit


def rerun_checks(run, workload_checks, *args):
    run.checks = {}
    workload_checks(run, *args)
    return problems(run)


@pytest.fixture
def pretrain_run(tmp_path):
    run, _ = tiny_run(tmp_path, "pretrain")
    return run


def test_pretrain_checks_fail_on_corrupted_outputs(pretrain_run):
    run = pretrain_run
    first = run.out / "pre0"
    csv_text = (first / "training.csv").read_text()
    summary_text = (first / "pretrain_summary.json").read_text()

    rewrite(first / "training.csv", lambda t: t.rsplit(",", 1)[0] + ",nan\n")
    assert "training.csv rows are finite" in rerun_checks(run, workloads.pretrain_checks)
    (first / "training.csv").write_text(csv_text)

    def no_better_than_persistence(text):
        summary = json.loads(text)
        row = summary["per_interval"]["6"]
        row["model_loss"] = row["persistence_loss"] * 1.01
        row["ratio"] = row["model_loss"] / row["persistence_loss"]
        return json.dumps(summary)

    rewrite(first / "pretrain_summary.json", no_better_than_persistence)
    assert "every interval beats persistence" in rerun_checks(run, workloads.pretrain_checks)

    def wrong_persistence(text):
        summary = json.loads(text)
        summary["per_interval"]["12"]["persistence_loss"] *= 1.0001
        return json.dumps(summary)

    (first / "pretrain_summary.json").write_text(summary_text)
    rewrite(first / "pretrain_summary.json", wrong_persistence)
    assert "persistence loss matches numpy" in rerun_checks(run, workloads.pretrain_checks)
    (first / "pretrain_summary.json").write_text(summary_text)
    assert rerun_checks(run, workloads.pretrain_checks) == {}


@pytest.fixture
def finetune_run(tmp_path):
    run, _ = tiny_run(tmp_path, "finetune")
    return run


def edit_episode(column, value):
    return edit_cell(lambda row: True, column, value)


def test_finetune_checks_fail_on_corrupted_outputs(finetune_run):
    run = finetune_run
    first = run.out / "ft0"
    episodes, summary = first / "episodes.csv", first / "finetune_summary.json"
    saved = {p: p.read_bytes() for p in (episodes, summary, first / "dqn.ckpt")}

    def expect(check, path, edit):
        rewrite(path, edit)
        assert check in rerun_checks(run, workloads.finetune_checks)
        path.write_bytes(saved[path])

    legal = "episode intervals are legal and sum to the lead"
    lead = int(checks.read_table(episodes)[0]["lead_hours"])
    # a trajectory that overshoots its lead, and one with an unknown 18h step
    expect(legal, episodes, edit_episode("intervals", lambda v: v + ";6"))
    expect(legal, episodes, edit_episode("intervals", lambda v: ";".join(["18"] + ["6"] * ((lead - 18) // 6))))
    expect("every reward is at most omega < 0", episodes,
           edit_episode("rewards", lambda v: "0.000000;" + v.split(";", 1)[-1]))
    expect("every reward is at most omega < 0", summary,
           lambda t: json.dumps({**json.loads(t), "omega": 0.01}))
    expect("each return is the sum of its rewards", episodes,
           edit_episode("return", lambda v: f"{float(v) + 1e-3:.6f}"))
    expect("TD and rollout losses are finite", summary,
           lambda t: json.dumps({**json.loads(t), "td_loss_last": [float("nan")]}))

    blob = bytearray(saved[first / "dqn.ckpt"])
    blob[len(blob) // 2] ^= 0xFF
    (first / "dqn.ckpt").write_bytes(bytes(blob))
    assert "saved DQN reloads and picks legal intervals" in rerun_checks(run, workloads.finetune_checks)
    (first / "dqn.ckpt").write_bytes(saved[first / "dqn.ckpt"])
    assert rerun_checks(run, workloads.finetune_checks) == {}


@pytest.fixture
def rollout_run(tmp_path, monkeypatch):
    """A tiny rollout run, with the arguments its checks were given."""
    given = {}
    original = workloads.rollout_checks

    def keep(*args):
        given["args"] = args[1:]
        return original(*args)

    monkeypatch.setattr(workloads, "rollout_checks", keep)
    run, _ = tiny_run(tmp_path, "rollout")
    return run, given["args"]


def test_rollout_checks_fail_on_corrupted_outputs(rollout_run):
    run, (model_ckpt, starts, singles) = rollout_run
    first = run.out / "r0"
    compare, evals = first / "compare.csv", first / "eval.csv"
    saved = {p: p.read_bytes() for p in (compare, evals)}

    def check(singles=singles):
        return rerun_checks(run, workloads.rollout_checks, model_ckpt, starts, singles)

    def expect(name, path, edit):
        rewrite(path, edit)
        assert name in check()
        path.write_bytes(saved[path])

    def edit_row(key, column, value):
        return edit_cell(lambda r: key in (r.get("policy"), r.get("variable")), column, value)

    expect("naive takes 23 steps and greedy 7", compare, edit_row("naive", "mean_traj_len", lambda v: "22.0000"))
    expect("greedy RMSE matches numpy on predict_rollout", compare,
           edit_row("greedy", "rmse_all", lambda v: f"{float(v) + 1e-6:.8f}"))
    expect("naive RMSE matches numpy on predict_rollout", compare,
           edit_row("naive", "rmse_temperature", lambda v: f"{float(v) * 1.01:.8f}"))
    expect("eval adaptive 138h equals compare adaptive", compare,
           edit_row("adaptive", "rmse_zonal_wind", lambda v: f"{float(v) + 1e-6:.8f}"))
    expect("ACC lies in [-1, 1]", evals, edit_row("temperature", "acc", lambda v: "1.20000000"))

    t0, steps, final = singles[0]
    overshoot = [(t0, steps + [6], final)] + singles[1:]
    assert "single forecasts match compare's adaptive episodes" in check(overshoot)
    assert "every single forecast is legal" in check(overshoot)
    nudged = [(t0, steps, final + 1e-9)] + singles[1:]
    assert "single forecasts match compare's adaptive episodes" in check(nudged)
    assert check() == {}


# -- the command itself ---------------------------------------------------------------------


def test_command_without_the_program_fails_without_a_result(tmp_path):
    """A directory with only BENCHMARK.json and the benchmark's files."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "pretrain", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
