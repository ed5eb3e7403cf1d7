"""Command-line surface: data generation, training, fine-tuning, evaluation,
rollout comparison, and positional-encoding similarity dumps.

Exit codes: 0 success, 2 configuration error, 3 numeric divergence, 4 I/O error.
Every output carries a provenance header (config hash, seed, versions), so two
runs with the same config and seed produce identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_to_dict,
    load_config,
    provenance,
    write_csv,
)
from .diffcore import CheckpointError, load_checkpoint, save_checkpoint
from .encoding import conventional_pe, ring_pe_2d, similarity_matrix
from .evaluation import eval_initial_times, evaluate_leads
from .gridio import (
    Dataset,
    GridFileError,
    GridSpec,
    default_splits,
    generate_synthetic,
    read_grid_file,
    write_grid_file,
)
from .metrics import Climatology, lat_weights
from .model import (
    DivergenceError,
    ForecastModel,
    ModelConfig,
    PretrainTrainer,
    evaluate_one_step_loss,
)
from .moe import write_router_telemetry
from .scheduler import (
    DQN,
    DQNConfig,
    EpisodeSpec,
    ForecastEnv,
    ReplayBuffer,
    adaptive_rollout_finetune,
    evaluate_policies,
    policy_greedy,
    policy_naive,
    policy_random,
    rollout_forecast_fn,
)


# -- checkpoint helpers -------------------------------------------------------------


def save_model_checkpoint(path, model: ForecastModel, cfg: RunConfig, extra_arrays=None):
    arrays = dict(model.state_arrays())
    if extra_arrays:
        arrays.update(extra_arrays)
    save_checkpoint(path, arrays)
    meta = {
        "kind": "forecast_model",
        "model_config": model.cfg.to_dict(),
        "grid": {
            "num_vars": model.spec.num_vars,
            "lat_points": model.spec.lat_points,
            "lon_points": model.spec.lon_points,
            "lat_degrees": list(model.spec.lat_degrees),
            "base_step_hours": model.spec.base_step_hours,
        },
        "provenance": provenance(cfg),
    }
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=2))


_NORM_KEYS = ("norm.mean", "norm.std", "norm.delta_scale")


def load_model_checkpoint(path) -> tuple:
    """(model, arrays) reconstructed from a checkpoint and its .meta.json sidecar.

    The normalization statistics, per-interval change scales included, are
    read from the checkpoint; one that lacks any of them is rejected rather
    than rebuilt with defaults that would change what the model predicts.
    """
    arrays = load_checkpoint(path)
    missing = [k for k in _NORM_KEYS if k not in arrays]
    if missing:
        raise CheckpointError(f"checkpoint {path} lacks normalization statistics {missing}")
    meta_path = Path(str(path) + ".meta.json")
    if not meta_path.exists():
        raise CheckpointError(f"missing checkpoint sidecar {meta_path}")
    meta = json.loads(meta_path.read_text())
    model_cfg = ModelConfig.from_dict(meta["model_config"])
    g = meta["grid"]
    spec = GridSpec(
        g["num_vars"], g["lat_points"], g["lon_points"],
        tuple(g["lat_degrees"]), g["base_step_hours"],
    )
    model = ForecastModel(model_cfg, spec, arrays["norm.mean"], arrays["norm.std"],
                          delta_scale=arrays["norm.delta_scale"])
    model.load_state_arrays(arrays)
    return model, arrays


def save_dqn_checkpoint(path, dqn: DQN, cfg: RunConfig):
    save_checkpoint(path, dqn.q_main.state_arrays())
    meta = {
        "kind": "dqn",
        "dqn_config": dataclasses.asdict(dqn.cfg),
        "provenance": provenance(cfg),
    }
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=2))


def load_dqn_checkpoint(path, model: ForecastModel) -> DQN:
    arrays = load_checkpoint(path)
    meta_path = Path(str(path) + ".meta.json")
    if not meta_path.exists():
        raise CheckpointError(f"missing checkpoint sidecar {meta_path}")
    meta = json.loads(meta_path.read_text())
    dqn = DQN(model, DQNConfig(**meta["dqn_config"]))
    dqn.q_main.load_state_arrays(arrays)
    dqn.sync_target()
    return dqn


# -- dataset plumbing ------------------------------------------------------------------


def _spec_from_config(cfg: RunConfig) -> GridSpec:
    d = cfg.data
    return GridSpec.cell_centered(d.num_vars, d.lat_points, d.lon_points, d.base_step_hours)


def _splits_from_config(cfg: RunConfig) -> dict:
    d = cfg.data
    return default_splits(d.steps, train=d.train_frac, val=d.val_frac)


def _require_dataset(path) -> Dataset:
    ds = read_grid_file(path)
    if "train" not in ds.splits:
        raise ConfigError(f"dataset {path} has no train split in its manifest")
    return ds


def _season_days(ds: Dataset) -> int:
    return int(ds.meta.get("season_length_days") or 365)


# -- commands ---------------------------------------------------------------------------


def cmd_gen_data(cfg: RunConfig, args) -> int:
    spec = _spec_from_config(cfg)
    ds = generate_synthetic(
        spec, cfg.data.steps, seed=cfg.seed, regime_cfg=cfg.data.regime,
        splits=_splits_from_config(cfg),
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_grid_file(out, ds, provenance=provenance(cfg))
    print(f"wrote {out} ({len(ds)} steps, {spec.num_vars}x{spec.lat_points}x{spec.lon_points})")
    return 0


def cmd_pretrain(cfg: RunConfig, args) -> int:
    ds = _require_dataset(args.data)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "model.ckpt"

    start_step = 0
    if args.resume:
        model, arrays = load_model_checkpoint(args.resume)
        trainer = PretrainTrainer(model, ds, cfg.pretrain)
        trainer.optimizer.load_state_tensors(arrays)
        start_step = int(arrays["trainer.step"][0])
    else:
        model = ForecastModel.from_dataset(cfg.model, ds, seed=cfg.seed)
        trainer = PretrainTrainer(model, ds, cfg.pretrain)

    def checkpoint_and_reload(step_done: int):
        # write-through: parameters pass through f32 storage at every save,
        # so a run resumed from this file is bit-identical to continuing
        extra = dict(trainer.optimizer.state_tensors())
        extra["trainer.step"] = np.array([float(step_done)])
        save_model_checkpoint(ckpt_path, model, cfg, extra_arrays=extra)
        arrays = load_checkpoint(ckpt_path)
        model.load_state_arrays(arrays)
        trainer.optimizer.load_state_tensors(arrays)

    end_step = cfg.pretrain.steps
    if args.stop_after is not None:
        end_step = min(end_step, args.stop_after)

    curve = []
    router_rows = []
    for step in range(start_step, end_step):
        stats = trainer.step(step)
        curve.append((stats["step"], stats["l_delta"], stats["aux1"], stats["aux2"], stats["total"]))
        if args.router_csv and step % 10 == 0:
            batch = trainer.sample_batch(step)
            with dc.no_grad():
                for delta in model.cfg.intervals:
                    xs = np.stack([x for x, _, d in batch if d == delta] or [batch[0][0]])
                    _, decisions, _ = model.forward_tokens(xs, delta)
                    router_rows.append(
                        (step, delta, decisions[0].usage_histogram(model.cfg.moe_num_private))
                    )
        if cfg.pretrain.checkpoint_every and (step + 1) % cfg.pretrain.checkpoint_every == 0:
            checkpoint_and_reload(step + 1)
    checkpoint_and_reload(end_step)

    prov = provenance(cfg)
    write_csv(out_dir / "training.csv", ["step", "l_delta", "aux1", "aux2", "total"], curve, prov)
    if args.router_csv:
        write_router_telemetry(out_dir / "router.csv", router_rows, model.cfg.moe_num_private, prov)

    summary = {"provenance": prov, "per_interval": {}}
    for delta in model.cfg.intervals:
        m, p = evaluate_one_step_loss(model, ds, "train", delta, num_samples=128, seed=cfg.seed)
        summary["per_interval"][str(delta)] = {
            "model_loss": m, "persistence_loss": p, "ratio": m / p,
        }
        print(f"delta={delta}h: one-step loss {m:.5f} vs persistence {p:.5f} (ratio {m/p:.3f})")
    (out_dir / "pretrain_summary.json").write_text(json.dumps(summary, indent=2))
    print(f"wrote {ckpt_path}")
    return 0


def cmd_finetune(cfg: RunConfig, args) -> int:
    ds = _require_dataset(args.data)
    model, _ = load_model_checkpoint(args.checkpoint)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    dqn_cfg = DQNConfig(
        **{**config_to_dict(cfg)["dqn"], "season_length_days": _season_days(ds), "seed": cfg.seed}
    )
    dqn = DQN(model, dqn_cfg)
    buffer = ReplayBuffer(capacity=dqn_cfg.buffer_capacity)
    logs = adaptive_rollout_finetune(model, ds, dqn, buffer, cfg.finetune)

    prov = provenance(cfg)
    save_model_checkpoint(out_dir / "model_finetuned.ckpt", model, cfg)
    save_dqn_checkpoint(out_dir / "dqn.ckpt", dqn, cfg)
    rows = [
        (
            e["id"], e["epoch"], e["t0"], e["lead"],
            ";".join(str(i) for i in e["intervals"]),
            ";".join(f"{r:.6f}" for r in e["rewards"]),
            f"{e['return']:.6f}", f"{e['epsilon']:.4f}",
        )
        for e in logs["episodes"]
    ]
    write_csv(
        out_dir / "episodes.csv",
        ["episode", "epoch", "t0_hours", "lead_hours", "intervals", "rewards", "return", "epsilon"],
        rows, prov,
    )
    summary = {
        "provenance": prov,
        "omega": logs["omega"],
        "td_loss_first": logs["td_losses"][:5],
        "td_loss_last": logs["td_losses"][-5:],
        "rollout_losses": logs["rollout_losses"],
    }
    (out_dir / "finetune_summary.json").write_text(json.dumps(summary, indent=2))
    print(f"wrote {out_dir / 'model_finetuned.ckpt'} and {out_dir / 'dqn.ckpt'}")
    return 0


def _policy_decomposition(name: str, intervals, seed: int):
    if name == "naive":
        return lambda lead: policy_naive(lead, intervals)
    if name == "greedy":
        return lambda lead: policy_greedy(lead, intervals)
    if name == "random":
        return lambda lead: policy_random(lead, seed, intervals)
    raise ConfigError(f"unknown policy {name!r}; expected naive, greedy, random or adaptive")


def cmd_eval(cfg: RunConfig, args) -> int:
    ds = _require_dataset(args.data)
    model, _ = load_model_checkpoint(args.checkpoint)
    climatology = Climatology.from_dataset(ds, "train")
    weights = lat_weights(ds.spec)

    env = ForecastEnv(model, ds, omega=0.0, weights=weights)
    if cfg.eval.policy == "adaptive":
        if not args.dqn:
            raise ConfigError("adaptive evaluation needs --dqn")
        q_net = load_dqn_checkpoint(args.dqn, model).q_main
        forecast_fn = rollout_forecast_fn(env, lambda lead: None, q_net)
    else:
        decompose = _policy_decomposition(cfg.eval.policy, model.cfg.intervals, cfg.seed)
        forecast_fn = rollout_forecast_fn(env, decompose)

    rows = evaluate_leads(
        forecast_fn, ds, "test", cfg.eval.leads, cfg.eval.episodes, cfg.seed,
        climatology=climatology, weights=weights,
    )
    out_rows = [(name, lead, f"{r:.8f}", f"{a:.8f}") for name, lead, r, a in rows]
    write_csv(args.out, ["variable", "lead_hours", "rmse", "acc"], out_rows, provenance(cfg))
    for name, lead, r, a in rows:
        print(f"{name} @ {lead}h: rmse {r:.4f}, acc {a:.4f}")
    return 0


def cmd_compare_rollouts(cfg: RunConfig, args) -> int:
    ds = _require_dataset(args.data)
    model, _ = load_model_checkpoint(args.checkpoint)
    dqn = load_dqn_checkpoint(args.dqn, model) if args.dqn else None
    weights = lat_weights(ds.spec)

    from .scheduler.finetune import resolve_omega

    omega = cfg.finetune.omega
    if omega is None:
        omega = resolve_omega(model, ds, weights, seed=cfg.seed)
    env = ForecastEnv(model, ds, omega=omega, weights=weights)
    t0s = eval_initial_times(ds, "test", cfg.compare.lead, cfg.compare.episodes, cfg.seed)
    episodes = [EpisodeSpec(t, cfg.compare.lead) for t in t0s]
    results = evaluate_policies(env, episodes, dqn=dqn, random_seed=cfg.seed)

    names = ds.meta.get("variables") or [f"var{v}" for v in range(ds.spec.num_vars)]
    header = (
        ["policy", "lead_hours"]
        + [f"rmse_{n}" for n in names]
        + ["rmse_all", "mean_return", "stderr_return", "mean_traj_len"]
    )
    rows = []
    for name, res in results.items():
        rows.append(
            [name, cfg.compare.lead]
            + [f"{res.mean_rmse_for_var(v):.8f}" for v in range(ds.spec.num_vars)]
            + [f"{res.mean_final_rmse:.8f}", f"{res.mean_return:.8f}",
               f"{res.stderr_return:.8f}", f"{res.mean_length:.4f}"]
        )
        print(
            f"{name:9s} return {res.mean_return:9.4f} +- {res.stderr_return:.4f} "
            f"len {res.mean_length:5.2f} rmse {res.mean_final_rmse:.4f}"
        )
    write_csv(args.out, header, rows, provenance(cfg))
    return 0


def cmd_pe_viz(cfg: RunConfig, args) -> int:
    h, w, dim = args.height_tokens, args.width_tokens, args.dim
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ring = similarity_matrix(ring_pe_2d(h, w, dim))
    conv = similarity_matrix(conventional_pe(h * w, dim))
    prov = provenance(cfg)
    L = h * w
    header = [f"col_{j}" for j in range(L)]
    write_csv(out_dir / "ring_similarity.csv", header,
              [[repr(float(x)) for x in row] for row in ring], prov)
    write_csv(out_dir / "conventional_similarity.csv", header,
              [[repr(float(x)) for x in row] for row in conv], prov)
    print(f"wrote {out_dir / 'ring_similarity.csv'} and {out_dir / 'conventional_similarity.csv'} ({L}x{L})")
    return 0


# -- argument parsing ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rollcast",
        description="Multi-interval forecaster with adaptive rollout scheduling on synthetic data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; defaults apply when omitted")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", dest="overrides",
                       help="override a config value by dotted path, e.g. pretrain.steps=100")
        p.add_argument("--seed", type=int, help="shortcut for --set seed=N")
        p.add_argument("--print-config", action="store_true",
                       help="print the fully resolved config and exit")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset grid file")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("pretrain", help="one-step pre-training on a dataset")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--stop-after", type=int,
                   help="interrupt after this absolute step (resume later with --resume)")
    p.add_argument("--router-csv", action="store_true", help="emit expert-usage telemetry")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("finetune", help="adaptive-rollout fine-tuning (scheduler + head)")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("eval", help="RMSE/ACC per variable and lead time")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dqn", help="DQN checkpoint (needed for adaptive policy)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("compare-rollouts", help="naive/greedy/random/adaptive on shared episodes")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dqn", help="DQN checkpoint; adaptive row appears only when given")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_compare_rollouts)

    p = sub.add_parser("pe-viz", help="emit positional-encoding similarity matrices")
    common(p)
    p.add_argument("--height-tokens", type=int, default=4)
    p.add_argument("--width-tokens", type=int, default=8)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_pe_viz)

    return parser


def resolve_config(args) -> RunConfig:
    cfg = load_config(args.config)
    overrides = list(args.overrides or [])
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    return apply_overrides(cfg, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.print_config:
            print(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True))
            return 0
        return args.fn(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 3
    except (GridFileError, CheckpointError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
