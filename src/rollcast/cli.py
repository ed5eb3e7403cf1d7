"""Command-line surface: data generation, training, fine-tuning, evaluation,
rollout comparison, and positional-encoding similarity dumps.

Exit codes: 0 success, 2 configuration error (a malformed setting: an unknown
key, a value of the wrong type or a non-finite number, or one out of range;
or a model and a dataset that do not fit together: another grid, a patch that
does not tile it, intervals or leads off its steps, or a split too short for
an interval or a lead), 3 numeric divergence (a non-finite pre-training, TD or
head fine-tuning loss), 4 I/O error (a missing or malformed file: a grid file
or its manifest, a checkpoint or its sidecar, a sidecar of the other kind of
checkpoint, a checkpoint tensor that is missing, misshapen or non-finite, or a
stored training step that is negative or fractional; the message names the
file).
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

from .config import (
    ConfigError,
    RunConfig,
    _from_dict,
    apply_overrides,
    config_to_dict,
    load_config,
    provenance,
    write_csv,
)
from .diffcore import CheckpointError, checkpoint_tensor, load_checkpoint, load_parameters, save_checkpoint
from .encoding import conventional_pe, ring_pe_2d, similarity_matrix
from .evaluation import eval_initial_times, evaluate_leads
from .fileio import atomic_open
from .gridio import (
    Dataset,
    GridFileError,
    GridSpec,
    default_splits,
    generate_synthetic,
    read_grid_file,
    write_grid_file,
)
from .model import (
    DivergenceError,
    ForecastModel,
    ModelConfig,
    PretrainTrainer,
    check_grid_fit,
    evaluate_one_step_loss,
)
from .scheduler import (
    DQN,
    DQNConfig,
    EpisodeSpec,
    ForecastEnv,
    ReplayBuffer,
    adaptive_rollout_finetune,
    evaluate_policies,
    rollout_forecast_fn,
)
from .scheduler.finetune import resolve_omega


# -- checkpoint helpers -------------------------------------------------------------


def _write_json(path, obj):
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2)


def save_model_checkpoint(path, model: ForecastModel, cfg: RunConfig, extra_arrays=None):
    arrays = dict(model.state_arrays())
    if extra_arrays:
        arrays.update(extra_arrays)
    save_checkpoint(path, arrays)
    meta = {
        "kind": "forecast_model",
        "model_config": dataclasses.asdict(model.cfg),
        "grid": dataclasses.asdict(model.spec),
        "provenance": provenance(cfg),
    }
    _write_json(str(path) + ".meta.json", meta)


def _read_sidecar(path, kind: str, build):
    """build(meta) over the parsed .meta.json sidecar of a `kind` checkpoint;
    a missing sidecar, bad JSON, a sidecar of another kind, or a missing,
    unknown or invalid key in it raises CheckpointError."""
    meta_path = Path(str(path) + ".meta.json")
    if not meta_path.exists():
        raise CheckpointError(f"missing checkpoint sidecar {meta_path}")
    try:
        meta = json.loads(meta_path.read_text())
        if meta["kind"] != kind:
            raise CheckpointError(f"checkpoint {path} is of kind {meta['kind']!r}, not {kind!r}")
        return build(meta)
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed checkpoint sidecar {meta_path}: {exc}") from exc


def _model_sidecar(meta) -> tuple:
    g = meta["grid"]
    # every key, or GridSpec would default a missing base step
    if set(g) != {f.name for f in dataclasses.fields(GridSpec)}:
        raise KeyError(f"grid keys {sorted(g)} are not those of a GridSpec")
    return _from_dict(ModelConfig, meta["model_config"], "model_config"), GridSpec(**g)


def load_model_checkpoint(path) -> tuple:
    """(model, arrays) reconstructed from a checkpoint and its .meta.json sidecar.

    Every parameter, the normalization statistics and per-interval change
    scales included, is read from the checkpoint; one that is missing or
    misshapen raises CheckpointError rather than being left at a default
    that would change what the model predicts.
    """
    arrays = load_checkpoint(path)
    model_cfg, spec = _read_sidecar(path, "forecast_model", _model_sidecar)
    model = ForecastModel(model_cfg, spec, np.zeros(spec.num_vars), np.ones(spec.num_vars))
    load_parameters(model.params(), arrays)
    return model, arrays


def save_dqn_checkpoint(path, dqn: DQN, cfg: RunConfig):
    save_checkpoint(path, dqn.q_main.state_arrays())
    meta = {
        "kind": "dqn",
        "dqn_config": dataclasses.asdict(dqn.cfg),
        "forecaster_fingerprint": dqn.q_main.weather.fingerprint(),
        "provenance": provenance(cfg),
    }
    _write_json(str(path) + ".meta.json", meta)


def load_dqn_checkpoint(path, model: ForecastModel) -> DQN:
    """The DQN of a checkpoint, on `model`'s frozen weather embedding.

    The Q-network reads the weather through the tokenizer and normalization
    it was trained on; a forecaster whose pieces hash to another fingerprint
    than the sidecar records, or a sidecar without one, raises CheckpointError.
    """
    arrays = load_checkpoint(path)
    dqn_cfg, fingerprint = _read_sidecar(path, "dqn", lambda meta: (
        _from_dict(DQNConfig, meta["dqn_config"], "dqn_config"), meta["forecaster_fingerprint"]))
    dqn = DQN(model, dqn_cfg)
    if dqn.q_main.weather.fingerprint() != fingerprint:
        raise CheckpointError(
            f"DQN checkpoint {path} was trained on another forecaster: its tokenizer "
            "or normalization differ from the given checkpoint's"
        )
    load_parameters(dqn.q_main.params(), arrays)
    dqn.sync_target()
    return dqn


# -- dataset plumbing ------------------------------------------------------------------


def _check_span(ds_path, ds: Dataset, split: str, hours: int, what: str):
    """ConfigError unless the dataset has a `split` that holds two states `hours` apart."""
    try:
        ds.window_starts(split, hours)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc} (dataset {ds_path})") from exc


def _check_fit(model_cfg: ModelConfig, ds_path, ds: Dataset, trained_on: GridSpec | None = None):
    """ConfigError unless a model of model_cfg (trained on `trained_on`) fits
    the dataset: its grid, and a train split that spans the longest interval."""
    try:
        check_grid_fit(model_cfg, ds.spec, trained_on)
    except ValueError as exc:
        raise ConfigError(f"model does not fit dataset {ds_path}: {exc}") from exc
    _check_span(ds_path, ds, "train", max(model_cfg.intervals), "model.intervals")


def _load_model_for(args, ds: Dataset, setting: str, leads, split: str) -> ForecastModel:
    """The --checkpoint model, checked against the --data dataset it runs on
    and against the leads of `setting`: each must be a multiple of the
    model's smallest interval, and `split` must span the longest."""
    model, _ = load_model_checkpoint(args.checkpoint)
    _check_fit(model.cfg, args.data, ds, model.spec)
    step = min(model.cfg.intervals)
    off = [lead for lead in leads if lead % step]
    if off:
        raise ConfigError(f"{setting}: leads {off} are not multiples of the smallest interval {step}h")
    _check_span(args.data, ds, split, max(leads), setting)
    return model


# -- commands ---------------------------------------------------------------------------


def cmd_gen_data(cfg: RunConfig, args) -> int:
    d = cfg.data
    spec = GridSpec.cell_centered(d.num_vars, d.lat_points, d.lon_points, d.base_step_hours)
    ds = generate_synthetic(spec, d.steps, seed=cfg.seed, regime_cfg=d.regime,
                            splits=default_splits(d.steps, train=d.train_frac, val=d.val_frac))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_grid_file(out, ds, provenance=provenance(cfg))
    print(f"wrote {out} ({len(ds)} steps, {spec.num_vars}x{spec.lat_points}x{spec.lon_points})")
    return 0


def write_router_telemetry(path, rows, num_experts: int, prov: dict):
    """Per-step expert-usage CSV under a provenance header: step, block,
    interval, then one count per expert."""
    header = ["step", "block", "interval_hours"] + [f"expert_{m}" for m in range(num_experts)]
    body = [[step, block, delta] + [int(c) for c in counts] for step, block, delta, counts in rows]
    write_csv(path, header, body, prov)


def cmd_pretrain(cfg: RunConfig, args) -> int:
    if args.stop_after is not None and args.stop_after < 0:
        raise ConfigError(f"--stop-after must be >= 0, got {args.stop_after}")
    ds = read_grid_file(args.data)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "model.ckpt"

    start_step = 0
    if args.resume:
        model, arrays = load_model_checkpoint(args.resume)
        _check_fit(model.cfg, args.data, ds, model.spec)
        trainer = PretrainTrainer(model, ds, cfg.pretrain)
        trainer.optimizer.load_state_tensors(arrays)
        stored = checkpoint_tensor(arrays, "trainer.step", (1,))[0]
        if stored < 0 or stored != int(stored):
            raise CheckpointError(f"checkpoint {args.resume}: trainer.step {stored} "
                                  "is not a non-negative whole number")
        start_step = int(stored)
    else:
        _check_fit(cfg.model, args.data, ds)
        model = ForecastModel.from_dataset(cfg.model, ds, seed=cfg.seed)
        trainer = PretrainTrainer(model, ds, cfg.pretrain)

    def checkpoint_and_reload(step_done: int):
        # write-through: parameters and moments pass through f32 storage at
        # every save, and the optimizer's float64 masters restart from the
        # stored parameters, so a run resumed from this file is bit-identical
        # to continuing
        extra = dict(trainer.optimizer.state_tensors())
        extra["trainer.step"] = np.array([float(step_done)])
        save_model_checkpoint(ckpt_path, model, cfg, extra_arrays=extra)
        arrays = load_checkpoint(ckpt_path)
        load_parameters(model.params(), arrays)
        trainer.optimizer.load_state_tensors(arrays)

    end_step = cfg.pretrain.steps
    if args.stop_after is not None:
        end_step = min(end_step, args.stop_after)
    end_step = max(end_step, start_step)  # a resume never rewinds the stored step

    curve = []
    router_rows = []
    for step in range(start_step, end_step):
        stats = trainer.step(step)
        curve.append((stats["step"], stats["l_delta"], stats["aux1"], stats["aux2"], stats["total"]))
        if args.router_csv and step % 10 == 0:
            router_rows += [(step, block, delta, counts) for delta, block, counts in stats["usage"]]
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
    _write_json(out_dir / "pretrain_summary.json", summary)
    print(f"wrote {ckpt_path}")
    return 0


def cmd_finetune(cfg: RunConfig, args) -> int:
    ds = read_grid_file(args.data)
    model = _load_model_for(args, ds, "finetune.lead_times", cfg.finetune.lead_times, "train")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    dqn_cfg = dataclasses.replace(cfg.dqn, season_length_days=ds.season_length_days)
    dqn = DQN(model, dqn_cfg, seed=cfg.seed)
    logs = adaptive_rollout_finetune(model, ds, dqn, ReplayBuffer(), cfg.finetune)

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
    _write_json(out_dir / "finetune_summary.json", summary)
    print(f"wrote {out_dir / 'model_finetuned.ckpt'} and {out_dir / 'dqn.ckpt'}")
    return 0


def cmd_eval(cfg: RunConfig, args) -> int:
    ds = read_grid_file(args.data)
    model = _load_model_for(args, ds, "eval.leads", cfg.eval.leads, "test")
    env = ForecastEnv(model, ds, omega=0.0)
    q_net = None
    if cfg.eval.policy == "adaptive":
        if not args.dqn:
            raise ConfigError("adaptive evaluation needs --dqn")
        q_net = load_dqn_checkpoint(args.dqn, model).q_main
    forecast_fn = rollout_forecast_fn(env, cfg.eval.policy, q_net, random_seed=cfg.seed)

    rows = evaluate_leads(forecast_fn, ds, "test", cfg.eval.leads, cfg.eval.episodes, cfg.seed)
    out_rows = [(name, lead, f"{r:.8f}", f"{a:.8f}") for name, lead, r, a in rows]
    write_csv(args.out, ["variable", "lead_hours", "rmse", "acc"], out_rows, provenance(cfg))
    for name, lead, r, a in rows:
        print(f"{name} @ {lead}h: rmse {r:.4f}, acc {a:.4f}")
    return 0


def cmd_compare_rollouts(cfg: RunConfig, args) -> int:
    ds = read_grid_file(args.data)
    model = _load_model_for(args, ds, "compare.lead", [cfg.compare.lead], "test")
    dqn = load_dqn_checkpoint(args.dqn, model) if args.dqn else None
    env = ForecastEnv(model, ds, omega=resolve_omega(model, ds, seed=cfg.seed, omega=cfg.finetune.omega))
    t0s = eval_initial_times(ds, "test", cfg.compare.lead, cfg.compare.episodes, cfg.seed)
    episodes = [EpisodeSpec(t, cfg.compare.lead) for t in t0s]
    results = evaluate_policies(env, episodes, dqn=dqn, random_seed=cfg.seed)

    header = (
        ["policy", "lead_hours"]
        + [f"rmse_{n}" for n in ds.variable_names]
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
    try:
        ring = similarity_matrix(ring_pe_2d(h, w, dim))
        conv = similarity_matrix(conventional_pe(h * w, dim))
    except ValueError as exc:
        raise ConfigError(f"pe-viz --dim {dim}: {exc}") from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
